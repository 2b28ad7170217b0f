//! The system under test, as the benchmark sees it.
//!
//! This is the **only** file of the benchmark that names product APIs
//! (`ngd-graph`, `ngd-lang`, `ngd-match`, `ngd-detect`, `ngd-serve`,
//! `ngd-obs`, plus `ngd-datagen`/`ngd-core` for inputs and `ngd-json` for
//! files).  Everything else goes through it, so a later collapse of the
//! product's entry points needs a follow-up here and nowhere else.  Spans
//! are recorded here because this is where the layer boundaries are.

use crate::trace::Tracer;
use ngd_detect::{
    dect, inc_dect_snapshot, pdect_on_cached, pinc_dect_prepared_cached, DetectorConfig,
    IncrementalSession,
};
use ngd_graph::{CompactionWriter, DeltaOverlay, GraphView, SnapshotWriter};
use ngd_match::PlanCache;
use ngd_serve::protocol::{
    encode_frame, frame, scan_frame, UpdateRequest, VioChunk, VIO_CHUNK_LEN,
};
use ngd_serve::{ServeAddr, ServeClient, ServeOptions, Server, SnapshotStore};
use std::path::{Path, PathBuf};

pub use ngd_core::RuleSet;
pub use ngd_detect::{DeltaReport, DetectionReport, SearchStats};
pub use ngd_graph::{BatchUpdate, CsrSnapshot, EdgeRef, Graph, MmapSnapshot};
pub use ngd_json::{parse as parse_json, Json, JsonError};
pub use ngd_match::{DeltaViolations, Violation, ViolationSet};
pub use ngd_obs::{HistogramSample, MetricsSnapshot};
pub use ngd_serve::{DoneResponse, Side};

/// The daemon's worker pool on the 2-core reference machine.
const DAEMON_WORKERS: usize = 2;
/// Detector workers per served request: with two closed-loop clients the
/// pool is already the parallelism.
const SERVED_PROCESSORS: usize = 1;
/// Detector workers of the single-caller batch audit.
const AUDIT_PROCESSORS: usize = 2;

// ---- inputs ---------------------------------------------------------------

/// The DBpedia-like knowledge graph at `scale` (222 nodes / 594 edges per
/// unit of scale).
pub fn knowledge_graph(scale: usize, seed: u64) -> Graph {
    ngd_datagen::generate_knowledge(
        &ngd_datagen::KnowledgeConfig::dbpedia_like(scale).with_seed(seed),
    )
    .graph
}

// ---- lang -----------------------------------------------------------------

pub fn parse_rules(text: &str) -> Result<RuleSet, String> {
    ngd_lang::load_rules(text).map_err(|e| e.to_string())
}

// ---- graph.persist --------------------------------------------------------

pub fn freeze(graph: &Graph) -> CsrSnapshot {
    graph.freeze()
}

/// Write `snapshot` as an `.ngds` file, returning its length in bytes.
pub fn write_snapshot(snapshot: &CsrSnapshot, path: &Path) -> Result<u64, String> {
    SnapshotWriter::new()
        .write(snapshot, path)
        .map_err(|e| e.to_string())
}

pub fn load_snapshot(path: &Path) -> Result<MmapSnapshot, String> {
    MmapSnapshot::load(path).map_err(|e| e.to_string())
}

// ---- detect.batch ---------------------------------------------------------

fn audit<G: GraphView + Sync>(sigma: &RuleSet, graph: &G) -> DetectionReport {
    // A fresh cache: the offline audit is one process per run, so every
    // plan is compiled cold.
    pdect_on_cached(
        sigma,
        graph,
        &DetectorConfig::with_processors(AUDIT_PROCESSORS),
        &PlanCache::new(),
    )
}

/// `Vio(Σ, G)` over the memory-mapped snapshot — what `ngd-cli` runs.
pub fn audit_mmap(sigma: &RuleSet, graph: &MmapSnapshot) -> DetectionReport {
    audit(sigma, graph)
}

/// The same call over the in-memory snapshot.
pub fn audit_mem(sigma: &RuleSet, graph: &CsrSnapshot) -> DetectionReport {
    audit(sigma, graph)
}

// ---- references the outputs are checked against ---------------------------

/// `ΔVio(Σ, G, ΔG)` by the sequential detector on the in-memory snapshot.
pub fn reference_delta(
    sigma: &RuleSet,
    base: &CsrSnapshot,
    batch: &BatchUpdate,
) -> DeltaViolations {
    inc_dect_snapshot(sigma, base, batch).delta
}

/// `Vio(Σ, G)` by the sequential batch detector on the mutable graph.
pub fn reference_full(sigma: &RuleSet, graph: &Graph) -> ViolationSet {
    dect(sigma, graph).violations
}

// ---- obs ------------------------------------------------------------------

/// The process-wide registry (the daemon runs in this process).
pub fn metrics_snapshot() -> MetricsSnapshot {
    ngd_obs::global().snapshot()
}

// ---- serve ----------------------------------------------------------------

/// An in-process daemon on TCP loopback over a written `.ngds` file.
pub struct Daemon {
    server: Server,
}

impl Daemon {
    pub fn start(
        snapshot: &Path,
        sigma: &RuleSet,
        compact_after: Option<u64>,
    ) -> Result<Daemon, String> {
        let store = SnapshotStore::open(snapshot).map_err(|e| e.to_string())?;
        let server = Server::start_with(
            store,
            sigma.clone(),
            &ServeAddr::Tcp("127.0.0.1:0".into()),
            DetectorConfig::with_processors(SERVED_PROCESSORS),
            ServeOptions {
                compact_after,
                worker_threads: Some(DAEMON_WORKERS),
                ..ServeOptions::default()
            },
        )
        .map_err(|e| e.to_string())?;
        Ok(Daemon { server })
    }

    pub fn connect(&self, name: &str) -> Result<Client, String> {
        ServeClient::connect_as(self.server.local_addr(), name)
            .map(Client)
            .map_err(|e| e.to_string())
    }

    /// Stop the event loop and join it and its worker pool.  Every
    /// [`Client`] must have been dropped.
    pub fn stop(self) {
        self.server.shutdown();
    }
}

/// One connection, i.e. one server-side session.
pub struct Client(ServeClient);

impl Client {
    /// `UPDATE`, handing every `VIO_CHUNK` to `on_chunk` as it arrives.
    pub fn update(
        &mut self,
        batch: &BatchUpdate,
        on_chunk: impl FnMut(Side, Vec<Violation>),
    ) -> Result<DoneResponse, String> {
        self.0
            .submit_update_streaming(batch, on_chunk)
            .map_err(|e| e.to_string())
    }

    /// `QUERY`: full `Vio` of the session's current epoch, streamed.
    pub fn query(
        &mut self,
        on_chunk: impl FnMut(Side, Vec<Violation>),
    ) -> Result<DoneResponse, String> {
        self.0.query_streaming(on_chunk).map_err(|e| e.to_string())
    }

    pub fn reset(&mut self) -> Result<(), String> {
        self.0.reset().map(drop).map_err(|e| e.to_string())
    }
}

// ---- serve.wire -----------------------------------------------------------

/// The bytes a client puts on the wire for one `UPDATE`.
pub fn encode_update(batch: &BatchUpdate) -> Result<Vec<u8>, String> {
    let payload = UpdateRequest {
        batch: batch.clone(),
    }
    .encode();
    encode_frame(frame::UPDATE, &payload).map_err(|e| e.to_string())
}

/// What the daemon does with those bytes: scan the frame, decode the batch.
pub fn decode_update(bytes: &[u8]) -> Result<BatchUpdate, String> {
    match scan_frame(bytes).map_err(|e| e.to_string())? {
        Some((frame::UPDATE, payload, _)) => UpdateRequest::decode(&payload)
            .map(|request| request.batch)
            .map_err(|e| e.to_string()),
        _ => Err("not one complete UPDATE frame".into()),
    }
}

/// The bytes the daemon answers with: `VIO_CHUNK`s of at most
/// `VIO_CHUNK_LEN` violations per side, then `UPDATE_DONE`.
pub fn encode_answer(report: &DeltaReport, epoch: u64) -> Result<Vec<u8>, String> {
    let mut bytes = Vec::new();
    for (side, set) in [
        (Side::Added, &report.delta.added),
        (Side::Removed, &report.delta.removed),
    ] {
        let all: Vec<&Violation> = set.iter().collect();
        for chunk in all.chunks(VIO_CHUNK_LEN) {
            let payload = VioChunk::encode_refs(side, chunk);
            bytes.extend(encode_frame(frame::VIO_CHUNK, &payload).map_err(|e| e.to_string())?);
        }
    }
    let done = DoneResponse {
        epoch,
        algorithm: report.algorithm.label().to_string(),
        elapsed_nanos: report.elapsed.as_nanos() as u64,
        processors: report.processors as u32,
        neighborhood_nodes: report.neighborhood_nodes as u64,
        added_total: report.delta.added.len() as u64,
        removed_total: report.delta.removed.len() as u64,
        stats: report.stats,
        cost: report.cost,
    };
    bytes.extend(encode_frame(frame::UPDATE_DONE, &done.encode()).map_err(|e| e.to_string())?);
    Ok(bytes)
}

/// Fold one streamed chunk into the `ΔVio` it belongs to.
pub fn absorb_chunk(delta: &mut DeltaViolations, side: Side, violations: Vec<Violation>) {
    let set = match side {
        Side::Added => &mut delta.added,
        Side::Removed => &mut delta.removed,
    };
    for violation in violations {
        set.insert(violation);
    }
}

/// What a client does with those bytes.
pub fn decode_answer(mut bytes: &[u8]) -> Result<(DeltaViolations, DoneResponse), String> {
    let mut delta = DeltaViolations::new();
    loop {
        let (kind, payload, used) = scan_frame(bytes)
            .map_err(|e| e.to_string())?
            .ok_or("answer ends before UPDATE_DONE")?;
        bytes = &bytes[used..];
        match kind {
            frame::VIO_CHUNK => {
                let chunk = VioChunk::decode(&payload).map_err(|e| e.to_string())?;
                absorb_chunk(&mut delta, chunk.side, chunk.violations);
            }
            frame::UPDATE_DONE => {
                let done = DoneResponse::decode(&payload).map_err(|e| e.to_string())?;
                return Ok((delta, done));
            }
            other => return Err(format!("unexpected frame kind {other} in an answer")),
        }
    }
}

// ---- the traced in-process replay -----------------------------------------

/// One server-side session replayed in-process on one thread, stage by
/// stage through the same public calls `IncrementalSession::apply_inner`
/// makes, with a twin [`IncrementalSession`] fed the same stream so the
/// whole `apply` can be timed beside its parts.
pub struct Replay {
    base: MmapSnapshot,
    config: DetectorConfig,
    staged: SessionParts,
    twin: SessionParts,
    epoch_files: Vec<PathBuf>,
}

/// What a daemon keeps per connection between requests.
struct SessionParts {
    accumulated: BatchUpdate,
    batches: u64,
    cache: PlanCache,
}

impl SessionParts {
    fn fresh(epoch: u64) -> SessionParts {
        SessionParts {
            accumulated: BatchUpdate::new(),
            batches: 0,
            cache: PlanCache::for_epoch(epoch),
        }
    }
}

/// What one replayed request produced.
pub struct Replayed {
    pub done: DoneResponse,
    /// Pending unit updates of the session when the request arrived.
    pub pending_ops: usize,
    /// The detector's own `DeltaReport::elapsed` inside the twin session's
    /// `apply`, in ms.
    pub twin_detect_ms: f64,
}

impl Replay {
    pub fn open(snapshot: &Path) -> Result<Replay, String> {
        let base = load_snapshot(snapshot)?;
        let epoch = base.epoch();
        Ok(Replay {
            base,
            config: DetectorConfig::with_processors(SERVED_PROCESSORS),
            staged: SessionParts::fresh(epoch),
            twin: SessionParts::fresh(epoch),
            epoch_files: Vec::new(),
        })
    }

    /// Unit updates accumulated since the last reset or compaction.
    pub fn pending_ops(&self) -> usize {
        self.staged.accumulated.len()
    }

    /// `RESET`: drop the accumulated update of both sessions.
    pub fn reset(&mut self) {
        for parts in [&mut self.staged, &mut self.twin] {
            parts.accumulated = BatchUpdate::new();
            parts.batches = 0;
        }
    }

    /// One `UPDATE` through every stage, each under its own span.
    pub fn update(
        &mut self,
        t: &mut Tracer,
        sigma: &RuleSet,
        batch: &BatchUpdate,
    ) -> Result<Replayed, String> {
        let pending_ops = self.pending_ops();
        let (base, config, staged) = (&self.base, &self.config, &mut self.staged);
        let request = t.span("serve.wire.update_encode", |_| encode_update(batch))?;
        let batch = t.span("serve.wire.update_decode", |_| decode_update(&request))?;
        t.span("graph.overlay.validate", |_| {
            batch.validate_against(&DeltaOverlay::new(base, &staged.accumulated))
        })
        .map_err(|e| e.to_string())?;
        let merged = t.span("graph.overlay.merge", |_| {
            let mut merged = staged.accumulated.clone();
            merged.merge(&batch);
            merged
        });
        let report = {
            let (old_view, new_view) = t.span("graph.overlay.build", |_| {
                (
                    DeltaOverlay::new(base, &staged.accumulated),
                    DeltaOverlay::new(base, &merged),
                )
            });
            t.span("detect.delta.run", |_| {
                pinc_dect_prepared_cached(
                    sigma,
                    &old_view,
                    &new_view,
                    &batch,
                    config,
                    &staged.cache,
                )
            })
        };
        staged.accumulated = merged;
        staged.batches += 1;
        let answer = t.span("serve.wire.vio_encode", |_| {
            encode_answer(&report, base.epoch())
        })?;
        let (delta, done) = t.span("serve.wire.vio_decode", |_| decode_answer(&answer))?;

        let twin = &mut self.twin;
        let twin_report = t
            .span("detect.session.apply", |_| {
                let mut session = IncrementalSession::resume(
                    base,
                    std::mem::take(&mut twin.accumulated),
                    twin.batches,
                );
                let result = session.apply_with_cache(sigma, &batch, config, &twin.cache);
                (twin.accumulated, twin.batches) = session.into_parts();
                result
            })
            .map_err(|e| e.to_string())?;
        if twin_report.delta != delta {
            return Err("the twin session and the staged replay disagree on ΔVio".into());
        }
        Ok(Replayed {
            done,
            pending_ops,
            twin_detect_ms: twin_report.elapsed.as_secs_f64() * 1e3,
        })
    }

    /// What the daemon does once `compact_after` is crossed: fold the net
    /// update into the next epoch file, map it, re-root the session.
    /// Returns the new file's length in bytes.
    pub fn compact(&mut self, t: &mut Tracer, out: &Path) -> Result<u64, String> {
        let (new_base, bytes) = t.span("graph.persist.compact", |_| {
            let net = DeltaOverlay::new(&self.base, &self.staged.accumulated).into_batch();
            let bytes = CompactionWriter::new()
                .encode(&self.base, &net, self.base.epoch() + 1)
                .map_err(|e| e.to_string())?;
            std::fs::write(out, &bytes).map_err(|e| format!("write {}: {e}", out.display()))?;
            Ok::<_, String>((load_snapshot(out)?, bytes.len() as u64))
        })?;
        self.epoch_files.push(out.to_path_buf());
        let (residue, batches) = t.span("detect.session.rebase", |_| {
            IncrementalSession::resume(
                &self.base,
                std::mem::take(&mut self.twin.accumulated),
                self.twin.batches,
            )
            .rebase_onto(&new_base)
            .map(IncrementalSession::into_parts)
            .map_err(|e| e.to_string())
        })?;
        // Both sessions absorbed the same stream, so the residue is shared.
        for parts in [&mut self.staged, &mut self.twin] {
            *parts = SessionParts {
                accumulated: residue.clone(),
                batches,
                cache: PlanCache::for_epoch(new_base.epoch()),
            };
        }
        self.base = new_base;
        Ok(bytes)
    }
}

impl Drop for Replay {
    fn drop(&mut self) {
        for path in &self.epoch_files {
            let _ = std::fs::remove_file(path);
        }
    }
}
