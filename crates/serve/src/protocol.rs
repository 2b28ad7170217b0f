//! The framed, versioned wire protocol between `ngd-serve` and its clients.
//!
//! Every message is one **frame**: a fixed 32-byte header followed by a
//! length-prefixed payload, borrowing the header conventions of the
//! snapshot format (`ngd_graph::persist::format`) — little-endian fields,
//! an 8-byte magic, an explicit version, and the same 4-lane multiply-xor
//! [`file_checksum`] over the payload so a damaged frame fails typed before
//! any payload decoding runs.
//!
//! ```text
//! ┌──────────────────────────────┐ offset 0
//! │ magic `NGDWIRE\0`            │ 8 bytes
//! │ protocol version             │ u32
//! │ frame kind                   │ u32
//! │ payload length               │ u64   (<= MAX_FRAME_LEN)
//! │ payload checksum             │ u64   (file_checksum(payload))
//! ├──────────────────────────────┤ offset 32
//! │ payload                      │ payload-length bytes
//! └──────────────────────────────┘
//! ```
//!
//! A request/response conversation per session:
//!
//! * `HELLO → HELLO_OK` — handshake, server/snapshot facts;
//! * `RULES → OK` — install a session rule set (JSON, compiled server-side);
//! * `UPDATE → VIO_CHUNK* → UPDATE_DONE` — submit a `ΔG` batch; the server
//!   streams `ΔVio⁺`/`ΔVio⁻` in bounded chunks as they are known and closes
//!   with the cost ledger, so the client observes the `|ΔG|`-bounded cost;
//! * `QUERY → VIO_CHUNK* → QUERY_DONE` — full detection on the session
//!   state;
//! * `COMPACT → EPOCH_OK` — fold this session's accumulated `ΔG` into a
//!   fresh snapshot epoch and publish it server-wide;
//! * `EPOCH → EPOCH_OK` — the session's and the server's current epochs;
//! * `METRICS → METRICS_OK` — the daemon's metrics-registry snapshot
//!   (counters, gauges, latency histograms), rendered client-side as
//!   Prometheus text or JSON;
//! * `STATS → STATS_OK`, `RESET → OK`, `SHUTDOWN → OK`;
//! * any request may be answered by `ERROR` (typed code + message).
//!
//! One frame is **pushed** rather than requested: after an epoch switch
//! (triggered by any session's `COMPACT`, or by the daemon's auto-compact
//! threshold) every other session re-roots its overlay at its next message
//! boundary and prepends an `EPOCH_SWITCHED` notice to its next answer.
//! [`crate::ServeClient`] absorbs the notice transparently and records it
//! ([`crate::ServeClient::last_epoch_switch`]).

use crate::error::ProtocolError;
use crate::wire::{self, WireReader, WireWriter};
use ngd_detect::{CostLedger, SearchStats};
use ngd_graph::persist::file_checksum;
use ngd_graph::BatchUpdate;
use ngd_match::Violation;
use std::io::{Read, Write};

/// Frame magic, first 8 bytes of every frame.
pub const MAGIC: [u8; 8] = *b"NGDWIRE\0";

/// Current protocol version.  Bump on ANY frame- or payload-layout change.
/// (v2: `COMPACT`/`EPOCH`/`EPOCH_SWITCHED` frames; epoch + pending-overlay
/// fields on `STATS_OK` and the `*_DONE` summaries.  v3: plan-cache
/// counters on `STATS_OK` and inside the `SearchStats` of the `*_DONE`
/// summaries.  v4: `METRICS`/`METRICS_OK` frames carrying the daemon's
/// metrics-registry snapshot, `uptime_secs` on `STATS_OK`, and the
/// `gallop_intersections` counter inside `SearchStats`.)
pub const WIRE_VERSION: u32 = 4;

/// Frame header length in bytes.
pub const FRAME_HEADER_LEN: usize = 32;

/// Per-frame payload ceiling (prevents a corrupt length prefix from
/// driving a giant allocation).
pub const MAX_FRAME_LEN: u64 = 256 * 1024 * 1024;

/// Violations per streamed [`VioChunk`] frame.
pub const VIO_CHUNK_LEN: usize = 512;

/// Frame kinds.  Requests are < 100, responses >= 100.
pub mod frame {
    /// Client handshake.
    pub const HELLO: u32 = 1;
    /// Install a session rule set.
    pub const RULES: u32 = 2;
    /// Submit a `ΔG` batch for incremental detection.
    pub const UPDATE: u32 = 3;
    /// Full detection over the session state.
    pub const QUERY: u32 = 4;
    /// Server/session statistics.
    pub const STATS: u32 = 5;
    /// Drop the session's accumulated update.
    pub const RESET: u32 = 6;
    /// Ask the daemon to shut down gracefully.
    pub const SHUTDOWN: u32 = 7;
    /// Fold this session's accumulated `ΔG` into a fresh snapshot epoch
    /// and publish it server-wide.
    pub const COMPACT: u32 = 8;
    /// Query the session's and the server's current epochs.
    pub const EPOCH: u32 = 9;
    /// Fetch the daemon's metrics-registry snapshot (counters, gauges,
    /// latency histograms across match/detect/persist/serve).
    pub const METRICS: u32 = 10;

    /// Handshake answer.
    pub const HELLO_OK: u32 = 100;
    /// Generic success.
    pub const OK: u32 = 101;
    /// One streamed chunk of violations.
    pub const VIO_CHUNK: u32 = 102;
    /// End of an `UPDATE` stream (ledger + stats).
    pub const UPDATE_DONE: u32 = 103;
    /// End of a `QUERY` stream.
    pub const QUERY_DONE: u32 = 104;
    /// Statistics answer.
    pub const STATS_OK: u32 = 105;
    /// Answer to `COMPACT` / `EPOCH`.
    pub const EPOCH_OK: u32 = 106;
    /// Pushed notice: this session just re-rooted onto a new epoch.  Sent
    /// at a message boundary, before the answer to the triggering request.
    pub const EPOCH_SWITCHED: u32 = 107;
    /// Metrics answer: the registry snapshot.
    pub const METRICS_OK: u32 = 108;
    /// Typed server-side failure.
    pub const ERROR: u32 = 199;
}

/// Machine-readable codes carried by [`frame::ERROR`] frames.
pub mod err_code {
    /// The request payload failed to decode.
    pub const BAD_REQUEST: u32 = 1;
    /// The submitted batch does not apply cleanly to the session state.
    pub const UPDATE_REJECTED: u32 = 2;
    /// The submitted rule set failed to parse/compile.
    pub const RULES_REJECTED: u32 = 3;
    /// Unexpected server-side failure.
    pub const INTERNAL: u32 = 4;
    /// A requested compaction could not be performed.
    pub const COMPACT_FAILED: u32 = 5;
}

/// Serialize one frame onto `w`: [`encode_frame`]'s bytes in one write.
pub fn write_frame(w: &mut impl Write, kind: u32, payload: &[u8]) -> Result<(), ProtocolError> {
    w.write_all(&encode_frame(kind, payload)?)?;
    w.flush()?;
    Ok(())
}

/// Serialize one frame into a byte vector (header + payload), for write
/// paths that queue bytes instead of owning a `Write` stream.
pub fn encode_frame(kind: u32, payload: &[u8]) -> Result<Vec<u8>, ProtocolError> {
    if payload.len() as u64 > MAX_FRAME_LEN {
        return Err(ProtocolError::Oversized {
            len: payload.len() as u64,
            max: MAX_FRAME_LEN,
        });
    }
    let mut bytes = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    bytes.extend_from_slice(&MAGIC);
    bytes.extend_from_slice(&WIRE_VERSION.to_le_bytes());
    bytes.extend_from_slice(&kind.to_le_bytes());
    bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    bytes.extend_from_slice(&file_checksum(payload).to_le_bytes());
    bytes.extend_from_slice(payload);
    Ok(bytes)
}

/// The fields of a validated frame header.
struct FrameHeader {
    kind: u32,
    payload_len: u64,
    checksum: u64,
}

impl FrameHeader {
    /// Validate whatever prefix of a frame header `bytes` holds, failing as
    /// soon as damage is provable: the magic needs 8 bytes, the version 12,
    /// the length ceiling the whole header.  `Ok(None)` while the header is
    /// still incomplete.
    fn parse(bytes: &[u8]) -> Result<Option<FrameHeader>, ProtocolError> {
        let le32 = |off: usize| u32::from_le_bytes(bytes[off..off + 4].try_into().expect("4B"));
        let le64 = |off: usize| u64::from_le_bytes(bytes[off..off + 8].try_into().expect("8B"));
        if bytes.len() >= 8 && bytes[0..8] != MAGIC {
            return Err(ProtocolError::BadMagic {
                found: bytes[0..8].try_into().expect("8B"),
            });
        }
        if bytes.len() >= 12 && le32(8) != WIRE_VERSION {
            return Err(ProtocolError::UnsupportedVersion {
                found: le32(8),
                supported: WIRE_VERSION,
            });
        }
        if bytes.len() < FRAME_HEADER_LEN {
            return Ok(None);
        }
        let header = FrameHeader {
            kind: le32(12),
            payload_len: le64(16),
            checksum: le64(24),
        };
        if header.payload_len > MAX_FRAME_LEN {
            return Err(ProtocolError::Oversized {
                len: header.payload_len,
                max: MAX_FRAME_LEN,
            });
        }
        Ok(Some(header))
    }

    /// Check the payload against the header's checksum.
    fn verify(&self, payload: &[u8]) -> Result<(), ProtocolError> {
        let computed = file_checksum(payload);
        if computed != self.checksum {
            return Err(ProtocolError::ChecksumMismatch {
                stored: self.checksum,
                computed,
            });
        }
        Ok(())
    }
}

/// Read exactly `buf.len()` bytes; `Ok(false)` on a clean EOF **before the
/// first byte**, [`ProtocolError::Truncated`] on EOF mid-buffer.
fn read_exact_or_eof(
    r: &mut impl Read,
    buf: &mut [u8],
    already: u64,
) -> Result<bool, ProtocolError> {
    let mut filled = 0usize;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                if filled == 0 && already == 0 {
                    return Ok(false);
                }
                return Err(ProtocolError::Truncated {
                    expected: already + buf.len() as u64,
                    actual: already + filled as u64,
                });
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    Ok(true)
}

/// Read and validate one frame, returning `(kind, payload)`.
///
/// A clean EOF between frames is [`ProtocolError::Disconnected`]; every
/// damage mode (short header, bad magic, foreign version, oversized length
/// prefix, short payload, checksum mismatch) is its own typed error.
pub fn read_frame(r: &mut impl Read) -> Result<(u32, Vec<u8>), ProtocolError> {
    let mut bytes = [0u8; FRAME_HEADER_LEN];
    if !read_exact_or_eof(r, &mut bytes, 0)? {
        return Err(ProtocolError::Disconnected);
    }
    let header = FrameHeader::parse(&bytes)?.expect("a whole header was read");
    let mut payload = vec![0u8; header.payload_len as usize];
    // With a header already read, EOF is `Truncated`, never `Ok(false)`.
    read_exact_or_eof(r, &mut payload, FRAME_HEADER_LEN as u64)?;
    header.verify(&payload)?;
    Ok((header.kind, payload))
}

/// Incrementally scan `buf` for one complete frame — the non-blocking dual
/// of [`read_frame`], used by the reactor's per-connection read buffers.
///
/// Returns `Ok(None)` while the buffer holds only a frame prefix (caller
/// reads more bytes and retries), or `Ok(Some((kind, payload, consumed)))`
/// once a full validated frame is present — the caller then drops the
/// first `consumed` bytes.  Damage (bad magic, foreign version, oversized
/// length, checksum mismatch) fails typed as soon as it is *provable* from
/// the bytes seen so far: a bad magic needs only 8 bytes, a checksum
/// mismatch needs the whole frame.
pub fn scan_frame(buf: &[u8]) -> Result<Option<(u32, Vec<u8>, usize)>, ProtocolError> {
    let Some(header) = FrameHeader::parse(buf)? else {
        return Ok(None);
    };
    let total = FRAME_HEADER_LEN + header.payload_len as usize;
    if buf.len() < total {
        return Ok(None);
    }
    let payload = &buf[FRAME_HEADER_LEN..total];
    header.verify(payload)?;
    Ok(Some((header.kind, payload.to_vec(), total)))
}

// ---------------------------------------------------------------------------
// Typed messages
// ---------------------------------------------------------------------------

/// `HELLO`: the client introduces itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HelloRequest {
    /// Free-form client identifier (logged by the server).
    pub client: String,
}

impl HelloRequest {
    /// Encode to a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.str(&self.client);
        w.into_bytes()
    }

    /// Decode from a frame payload.
    pub fn decode(bytes: &[u8]) -> Result<Self, ProtocolError> {
        let mut r = WireReader::new(bytes, "HelloRequest");
        let client = r.str()?;
        r.finish()?;
        Ok(HelloRequest { client })
    }
}

/// `HELLO_OK`: server and snapshot facts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HelloResponse {
    /// Server identifier and version string.
    pub server: String,
    /// Nodes in the served snapshot.
    pub node_count: u64,
    /// Edges in the served snapshot.
    pub edge_count: u64,
    /// Rules compiled into the server's default rule set.
    pub rule_count: u32,
    /// `dΣ` of the default rule set.
    pub diameter: u32,
}

impl HelloResponse {
    /// Encode to a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.str(&self.server);
        w.u64(self.node_count);
        w.u64(self.edge_count);
        w.u32(0); // reserved (was the fragment count)
        w.u32(self.rule_count);
        w.u32(self.diameter);
        w.into_bytes()
    }

    /// Decode from a frame payload.
    pub fn decode(bytes: &[u8]) -> Result<Self, ProtocolError> {
        let mut r = WireReader::new(bytes, "HelloResponse");
        let (server, node_count, edge_count) = (r.str()?, r.u64()?, r.u64()?);
        r.u32()?; // reserved (was the fragment count)
        let out = HelloResponse {
            server,
            node_count,
            edge_count,
            rule_count: r.u32()?,
            diameter: r.u32()?,
        };
        r.finish()?;
        Ok(out)
    }
}

/// `RULES`: rule-set source text, compiled server-side.
///
/// The payload is the verbatim text of a rule file in either format the
/// sniffing loader (`ngd_lang::load_rules`) understands — `.ngdl` or
/// `RuleSet::to_json()` output — so a client can swap a served session's
/// rules straight from a file on disk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RulesRequest {
    /// Rule file contents (ngdl / JSON; format is sniffed).
    pub source: String,
}

impl RulesRequest {
    /// Encode to a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.str(&self.source);
        w.into_bytes()
    }

    /// Decode from a frame payload.
    pub fn decode(bytes: &[u8]) -> Result<Self, ProtocolError> {
        let mut r = WireReader::new(bytes, "RulesRequest");
        let source = r.str()?;
        r.finish()?;
        Ok(RulesRequest { source })
    }
}

/// `OK`: generic success with a human-readable note.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OkResponse {
    /// What succeeded.
    pub message: String,
}

impl OkResponse {
    /// Encode to a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.str(&self.message);
        w.into_bytes()
    }

    /// Decode from a frame payload.
    pub fn decode(bytes: &[u8]) -> Result<Self, ProtocolError> {
        let mut r = WireReader::new(bytes, "OkResponse");
        let message = r.str()?;
        r.finish()?;
        Ok(OkResponse { message })
    }
}

/// `UPDATE`: one `ΔG` batch.
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateRequest {
    /// The batch, relative to the session's current state.
    pub batch: BatchUpdate,
}

impl UpdateRequest {
    /// Encode to a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        wire::put_batch(&mut w, &self.batch);
        w.into_bytes()
    }

    /// Decode from a frame payload.
    pub fn decode(bytes: &[u8]) -> Result<Self, ProtocolError> {
        let mut r = WireReader::new(bytes, "UpdateRequest");
        let batch = wire::get_batch(&mut r)?;
        r.finish()?;
        Ok(UpdateRequest { batch })
    }
}

/// Which violation stream a [`VioChunk`] belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// `ΔVio⁺` of an update, or the result set of a query.
    Added,
    /// `ΔVio⁻` of an update.
    Removed,
}

/// `VIO_CHUNK`: one bounded chunk of a violation stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VioChunk {
    /// Which stream the chunk extends.
    pub side: Side,
    /// The violations, in the set's deterministic order.
    pub violations: Vec<Violation>,
}

impl VioChunk {
    /// Encode a chunk directly from borrowed violations — the server's
    /// streaming path, which must not clone each violation just to frame
    /// it.
    pub fn encode_refs(side: Side, violations: &[&Violation]) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.u8(match side {
            Side::Added => 0,
            Side::Removed => 1,
        });
        wire::put_violations(&mut w, violations);
        w.into_bytes()
    }

    /// Encode to a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        VioChunk::encode_refs(self.side, &self.violations.iter().collect::<Vec<_>>())
    }

    /// Decode from a frame payload.
    pub fn decode(bytes: &[u8]) -> Result<Self, ProtocolError> {
        let mut r = WireReader::new(bytes, "VioChunk");
        let side = match r.u8()? {
            0 => Side::Added,
            1 => Side::Removed,
            tag => {
                return Err(ProtocolError::Corrupt(format!(
                    "unknown violation side {tag}"
                )))
            }
        };
        let violations = wire::get_violations(&mut r)?;
        r.finish()?;
        Ok(VioChunk { side, violations })
    }
}

/// `EPOCH_OK`: the answer to `COMPACT` and `EPOCH`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochResponse {
    /// Epoch of the snapshot this session currently reads.
    pub epoch: u64,
    /// Epoch of the snapshot the server currently publishes (differs from
    /// `epoch` only for a session pinned to an old mapping).
    pub published_epoch: u64,
    /// Nodes in the session's snapshot.
    pub snapshot_nodes: u64,
    /// Edges in the session's snapshot.
    pub snapshot_edges: u64,
    /// Compactions performed by this server since startup.
    pub compactions: u64,
}

impl EpochResponse {
    /// Encode to a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.u64(self.epoch);
        w.u64(self.published_epoch);
        w.u64(self.snapshot_nodes);
        w.u64(self.snapshot_edges);
        w.u64(self.compactions);
        w.into_bytes()
    }

    /// Decode from a frame payload.
    pub fn decode(bytes: &[u8]) -> Result<Self, ProtocolError> {
        let mut r = WireReader::new(bytes, "EpochResponse");
        let out = EpochResponse {
            epoch: r.u64()?,
            published_epoch: r.u64()?,
            snapshot_nodes: r.u64()?,
            snapshot_edges: r.u64()?,
            compactions: r.u64()?,
        };
        r.finish()?;
        Ok(out)
    }
}

/// `EPOCH_SWITCHED`: pushed once when a session re-roots onto a newly
/// published epoch at a message boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochNotice {
    /// The epoch the session re-rooted onto.
    pub epoch: u64,
    /// The epoch the session was reading before.
    pub previous_epoch: u64,
    /// Net pending nodes carried across the re-root (the residue the new
    /// snapshot does not yet contain).
    pub carried_nodes: u64,
    /// Net pending edge operations carried across the re-root.
    pub carried_ops: u64,
}

impl EpochNotice {
    /// Encode to a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.u64(self.epoch);
        w.u64(self.previous_epoch);
        w.u64(self.carried_nodes);
        w.u64(self.carried_ops);
        w.into_bytes()
    }

    /// Decode from a frame payload.
    pub fn decode(bytes: &[u8]) -> Result<Self, ProtocolError> {
        let mut r = WireReader::new(bytes, "EpochNotice");
        let out = EpochNotice {
            epoch: r.u64()?,
            previous_epoch: r.u64()?,
            carried_nodes: r.u64()?,
            carried_ops: r.u64()?,
        };
        r.finish()?;
        Ok(out)
    }
}

/// `UPDATE_DONE` / `QUERY_DONE`: the closing summary of a streamed answer.
#[derive(Debug, Clone, PartialEq)]
pub struct DoneResponse {
    /// Epoch of the snapshot that served this answer.
    pub epoch: u64,
    /// Paper-style algorithm label (e.g. `"PIncDect"`).
    pub algorithm: String,
    /// Server-side wall-clock nanoseconds of the detection run.
    pub elapsed_nanos: u64,
    /// Workers used.
    pub processors: u32,
    /// Reserved slot, always 0 (it used to carry the `dΣ`-neighbourhood
    /// size of an update; see `docs/wire-protocol.md`).
    pub neighborhood_nodes: u64,
    /// Violations streamed on the added side.
    pub added_total: u64,
    /// Violations streamed on the removed side.
    pub removed_total: u64,
    /// Matcher statistics of the run.
    pub stats: SearchStats,
    /// Cost ledger of the run.
    pub cost: CostLedger,
}

impl DoneResponse {
    /// Encode to a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.u64(self.epoch);
        w.str(&self.algorithm);
        w.u64(self.elapsed_nanos);
        w.u32(self.processors);
        w.u64(self.neighborhood_nodes);
        w.u64(self.added_total);
        w.u64(self.removed_total);
        wire::put_stats(&mut w, &self.stats);
        wire::put_cost(&mut w, &self.cost);
        w.into_bytes()
    }

    /// Decode from a frame payload.
    pub fn decode(bytes: &[u8]) -> Result<Self, ProtocolError> {
        let mut r = WireReader::new(bytes, "DoneResponse");
        let out = DoneResponse {
            epoch: r.u64()?,
            algorithm: r.str()?,
            elapsed_nanos: r.u64()?,
            processors: r.u32()?,
            neighborhood_nodes: r.u64()?,
            added_total: r.u64()?,
            removed_total: r.u64()?,
            stats: wire::get_stats(&mut r)?,
            cost: wire::get_cost(&mut r)?,
        };
        r.finish()?;
        Ok(out)
    }
}

/// `METRICS_OK`: the daemon's metrics-registry snapshot.  The payload is
/// the snapshot's canonical JSON (one string field), so the frame layout
/// never changes when metrics are added or removed — rendering to
/// Prometheus text or pretty JSON happens client-side.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsResponse {
    /// Every counter, gauge, and histogram the daemon has registered.
    pub snapshot: ngd_obs::MetricsSnapshot,
}

impl MetricsResponse {
    /// Encode to a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.str(&ngd_json::to_string(&self.snapshot));
        w.into_bytes()
    }

    /// Decode from a frame payload.
    pub fn decode(bytes: &[u8]) -> Result<Self, ProtocolError> {
        let mut r = WireReader::new(bytes, "MetricsResponse");
        let json = r.str()?;
        r.finish()?;
        let snapshot = ngd_json::from_str(&json)
            .map_err(|e| ProtocolError::Corrupt(format!("metrics snapshot: {e}")))?;
        Ok(MetricsResponse { snapshot })
    }
}

/// `STATS_OK`: a server/session snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatsResponse {
    /// Epoch of the snapshot this session currently reads.
    pub epoch: u64,
    /// Epoch the server currently publishes.
    pub published_epoch: u64,
    /// Nodes in the served snapshot.
    pub snapshot_nodes: u64,
    /// Edges in the served snapshot.
    pub snapshot_edges: u64,
    /// Nodes in this session's current state (snapshot ⊕ accumulated).
    pub session_nodes: u64,
    /// Edges in this session's current state.
    pub session_edges: u64,
    /// Unit updates accumulated by this session.
    pub accumulated_ops: u64,
    /// *Net* nodes pending in this session's overlay — with
    /// `pending_edge_ops`, the overlay size an operator watches to decide
    /// when compaction is due.
    pub pending_nodes: u64,
    /// *Net* edge operations pending in this session's overlay.
    pub pending_edge_ops: u64,
    /// Batches absorbed by this session.
    pub batches_applied: u64,
    /// Sessions currently connected to the server.
    pub sessions_active: u32,
    /// Sessions accepted since startup.
    pub sessions_total: u64,
    /// Update batches served since startup (all sessions).
    pub updates_served: u64,
    /// Violations streamed since startup (all sessions).
    pub violations_streamed: u64,
    /// Compiled match plans served from the session's plan cache: its
    /// epoch's cache for the server's Σ, or its own after `RULES`.
    pub plan_cache_hits: u64,
    /// Plan compilations (cache misses) in that cache.
    pub plan_cache_misses: u64,
    /// Whole seconds the daemon has been up.
    pub uptime_secs: u64,
}

impl StatsResponse {
    /// Encode to a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.u64(self.epoch);
        w.u64(self.published_epoch);
        w.u64(self.snapshot_nodes);
        w.u64(self.snapshot_edges);
        w.u64(self.session_nodes);
        w.u64(self.session_edges);
        w.u64(self.accumulated_ops);
        w.u64(self.pending_nodes);
        w.u64(self.pending_edge_ops);
        w.u64(self.batches_applied);
        w.u32(0); // reserved (was the fragment count)
        w.u32(self.sessions_active);
        w.u64(self.sessions_total);
        w.u64(self.updates_served);
        w.u64(self.violations_streamed);
        w.u64(self.plan_cache_hits);
        w.u64(self.plan_cache_misses);
        w.u64(self.uptime_secs);
        w.into_bytes()
    }

    /// Decode from a frame payload.
    pub fn decode(bytes: &[u8]) -> Result<Self, ProtocolError> {
        let mut r = WireReader::new(bytes, "StatsResponse");
        let out = StatsResponse {
            epoch: r.u64()?,
            published_epoch: r.u64()?,
            snapshot_nodes: r.u64()?,
            snapshot_edges: r.u64()?,
            session_nodes: r.u64()?,
            session_edges: r.u64()?,
            accumulated_ops: r.u64()?,
            pending_nodes: r.u64()?,
            pending_edge_ops: r.u64()?,
            batches_applied: r.u64()?,
            sessions_active: {
                r.u32()?; // reserved (was the fragment count)
                r.u32()?
            },
            sessions_total: r.u64()?,
            updates_served: r.u64()?,
            violations_streamed: r.u64()?,
            plan_cache_hits: r.u64()?,
            plan_cache_misses: r.u64()?,
            uptime_secs: r.u64()?,
        };
        r.finish()?;
        Ok(out)
    }
}

/// `ERROR`: typed server-side failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErrorResponse {
    /// One of [`err_code`].
    pub code: u32,
    /// Human-readable explanation.
    pub message: String,
}

impl ErrorResponse {
    /// Encode to a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.u32(self.code);
        w.str(&self.message);
        w.into_bytes()
    }

    /// Decode from a frame payload.
    pub fn decode(bytes: &[u8]) -> Result<Self, ProtocolError> {
        let mut r = WireReader::new(bytes, "ErrorResponse");
        let code = r.u32()?;
        let message = r.str()?;
        r.finish()?;
        Ok(ErrorResponse { code, message })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ngd_graph::{intern, NodeId};

    #[test]
    fn frames_round_trip_over_a_buffer() {
        let mut buf: Vec<u8> = Vec::new();
        let hello = HelloRequest {
            client: "test-client".into(),
        };
        write_frame(&mut buf, frame::HELLO, &hello.encode()).unwrap();
        let chunk = VioChunk {
            side: Side::Removed,
            violations: vec![Violation::new("phi4", vec![NodeId(3), NodeId(5)])],
        };
        write_frame(&mut buf, frame::VIO_CHUNK, &chunk.encode()).unwrap();

        let mut cursor = std::io::Cursor::new(buf);
        let (kind, payload) = read_frame(&mut cursor).unwrap();
        assert_eq!(kind, frame::HELLO);
        assert_eq!(HelloRequest::decode(&payload).unwrap(), hello);
        let (kind, payload) = read_frame(&mut cursor).unwrap();
        assert_eq!(kind, frame::VIO_CHUNK);
        assert_eq!(VioChunk::decode(&payload).unwrap(), chunk);
        assert_eq!(read_frame(&mut cursor), Err(ProtocolError::Disconnected));
    }

    #[test]
    fn every_message_type_round_trips() {
        let hello_ok = HelloResponse {
            server: "ngd-serve/0.1".into(),
            node_count: 11_000,
            edge_count: 40_000,
            rule_count: 7,
            diameter: 3,
        };
        assert_eq!(HelloResponse::decode(&hello_ok.encode()).unwrap(), hello_ok);

        let mut batch = BatchUpdate::new();
        batch.delete_edge(NodeId(1), NodeId(2), intern("status"));
        let update = UpdateRequest { batch };
        assert_eq!(UpdateRequest::decode(&update.encode()).unwrap(), update);

        let done = DoneResponse {
            epoch: 3,
            algorithm: "PIncDect".into(),
            elapsed_nanos: 12345,
            processors: 4,
            neighborhood_nodes: 17,
            added_total: 2,
            removed_total: 1,
            stats: SearchStats {
                expanded: 4,
                candidates_inspected: 40,
                matches_found: 3,
                gallop_intersections: 5,
                plan_cache_hits: 6,
                plan_cache_misses: 2,
            },
            cost: CostLedger {
                splits: 1,
                ..CostLedger::default()
            },
        };
        let back = DoneResponse::decode(&done.encode()).unwrap();
        assert_eq!(back, done);
        assert_eq!(back.cost.splits, 1);

        let stats = StatsResponse {
            epoch: 2,
            published_epoch: 3,
            snapshot_nodes: 1,
            snapshot_edges: 2,
            session_nodes: 3,
            session_edges: 4,
            accumulated_ops: 5,
            pending_nodes: 1,
            pending_edge_ops: 4,
            batches_applied: 6,
            sessions_active: 8,
            sessions_total: 9,
            updates_served: 10,
            violations_streamed: 11,
            plan_cache_hits: 12,
            plan_cache_misses: 13,
            uptime_secs: 14,
        };
        assert_eq!(StatsResponse::decode(&stats.encode()).unwrap(), stats);

        let metrics = MetricsResponse {
            snapshot: {
                let registry = ngd_obs::MetricsRegistry::new();
                registry.counter("serve.frame.update.count").add(3);
                registry.gauge("serve.sessions.active").set(1);
                registry
                    .histogram("serve.frame.update.latency_ns")
                    .record(900);
                registry.snapshot()
            },
        };
        assert_eq!(MetricsResponse::decode(&metrics.encode()).unwrap(), metrics);

        let epoch_ok = EpochResponse {
            epoch: 4,
            published_epoch: 5,
            snapshot_nodes: 11_000,
            snapshot_edges: 40_000,
            compactions: 5,
        };
        assert_eq!(EpochResponse::decode(&epoch_ok.encode()).unwrap(), epoch_ok);

        let notice = EpochNotice {
            epoch: 5,
            previous_epoch: 4,
            carried_nodes: 2,
            carried_ops: 9,
        };
        assert_eq!(EpochNotice::decode(&notice.encode()).unwrap(), notice);

        let err = ErrorResponse {
            code: err_code::UPDATE_REJECTED,
            message: "delete of missing edge".into(),
        };
        assert_eq!(ErrorResponse::decode(&err.encode()).unwrap(), err);

        let rules = RulesRequest {
            source: "[]".into(),
        };
        assert_eq!(RulesRequest::decode(&rules.encode()).unwrap(), rules);
        let ok = OkResponse {
            message: "rules compiled".into(),
        };
        assert_eq!(OkResponse::decode(&ok.encode()).unwrap(), ok);
    }

    #[test]
    fn scan_frame_handles_every_split_point() {
        // A frame delivered one byte at a time must stay Ok(None) until the
        // final byte, then parse — the reactor's read path in miniature.
        let chunk = VioChunk {
            side: Side::Added,
            violations: vec![Violation::new("phi2", vec![NodeId(9)])],
        };
        let mut bytes: Vec<u8> = Vec::new();
        write_frame(&mut bytes, frame::VIO_CHUNK, &chunk.encode()).unwrap();
        for split in 0..bytes.len() {
            assert_eq!(
                scan_frame(&bytes[..split]).unwrap(),
                None,
                "prefix of {split} bytes must be incomplete"
            );
        }
        let (kind, payload, consumed) = scan_frame(&bytes).unwrap().unwrap();
        assert_eq!(kind, frame::VIO_CHUNK);
        assert_eq!(consumed, bytes.len());
        assert_eq!(VioChunk::decode(&payload).unwrap(), chunk);

        // Trailing bytes of the next frame are left unconsumed.
        let mut two = bytes.clone();
        two.extend_from_slice(&bytes);
        let (_, _, consumed) = scan_frame(&two).unwrap().unwrap();
        assert_eq!(consumed, bytes.len());
    }

    #[test]
    fn scan_frame_fails_typed_as_early_as_provable() {
        // Bad magic: provable at 8 bytes, even with nothing else buffered.
        assert!(matches!(
            scan_frame(b"GARBAGE!"),
            Err(ProtocolError::BadMagic { .. })
        ));
        // Foreign version: provable at 12 bytes.
        let mut buf = MAGIC.to_vec();
        buf.extend_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            scan_frame(&buf),
            Err(ProtocolError::UnsupportedVersion { found: 99, .. })
        ));
        // Oversized length: provable at the full header.
        let mut header = [0u8; FRAME_HEADER_LEN];
        header[0..8].copy_from_slice(&MAGIC);
        header[8..12].copy_from_slice(&WIRE_VERSION.to_le_bytes());
        header[12..16].copy_from_slice(&frame::OK.to_le_bytes());
        header[16..24].copy_from_slice(&(1u64 << 50).to_le_bytes());
        assert!(matches!(
            scan_frame(&header),
            Err(ProtocolError::Oversized { .. })
        ));
        // Flipped payload bit: checksum mismatch once the frame completes.
        let mut bytes: Vec<u8> = Vec::new();
        write_frame(
            &mut bytes,
            frame::OK,
            &OkResponse {
                message: "x".into(),
            }
            .encode(),
        )
        .unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        assert!(matches!(
            scan_frame(&bytes),
            Err(ProtocolError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn encode_frame_matches_write_frame_bytes() {
        let payload = OkResponse {
            message: "same bytes".into(),
        }
        .encode();
        let mut written: Vec<u8> = Vec::new();
        write_frame(&mut written, frame::OK, &payload).unwrap();
        assert_eq!(encode_frame(frame::OK, &payload).unwrap(), written);
    }

    #[test]
    fn an_oversized_length_prefix_fails_before_allocating() {
        // Craft a header claiming a petabyte payload: read_frame must fail
        // typed on the length check, not attempt the allocation.
        let mut header = [0u8; FRAME_HEADER_LEN];
        header[0..8].copy_from_slice(&MAGIC);
        header[8..12].copy_from_slice(&WIRE_VERSION.to_le_bytes());
        header[12..16].copy_from_slice(&frame::OK.to_le_bytes());
        header[16..24].copy_from_slice(&(1u64 << 50).to_le_bytes());
        let mut cursor = std::io::Cursor::new(header.to_vec());
        assert_eq!(
            read_frame(&mut cursor),
            Err(ProtocolError::Oversized {
                len: 1u64 << 50,
                max: MAX_FRAME_LEN,
            })
        );
    }
}
