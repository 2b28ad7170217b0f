//! One connection's detection session and the request handlers that run
//! on it: [`SessionState`] is parked on the connection between frames and
//! moved into a worker for the duration of one request, which
//! [`handle_request`] dispatches to one function per frame kind.
//!
//! A session's [`DeltaOverlay`]s are rebased on the **shared** mapped
//! snapshot, so concurrency costs no copies of `G`.  At each message
//! boundary it adopts a newly published epoch
//! ([`SessionState::maybe_reroot`]); [`compact_session`] is how one gets
//! published.

use crate::error::ProtocolError;
use crate::protocol::{
    err_code, frame, DoneResponse, EpochNotice, EpochResponse, HelloRequest, HelloResponse,
    MetricsResponse, OkResponse, RulesRequest, Side, StatsResponse, UpdateRequest,
};
use crate::reactor::ConnIo;
use crate::server::Shared;
use crate::store::{Epochs, SnapshotStore};
use crate::streamer::{stream_violations, VioStreamer};
use ngd_core::RuleSet;
use ngd_detect::{
    dect_on_cached, DeltaReport, DetectorConfig, IncrementalSession, VioSide, VioSink,
};
use ngd_graph::{BatchUpdate, DeltaOverlay, GraphView, MmapSnapshot, UpdateError};
use ngd_match::{PlanCache, Violation};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Sessions successfully re-rooted onto a newly published epoch.
static SESSION_REBASES: ngd_obs::LazyCounter = ngd_obs::LazyCounter::new("serve.session.rebases");
/// `EPOCH_SWITCHED` notices pushed to clients.
static SWITCH_NOTICES: ngd_obs::LazyCounter =
    ngd_obs::LazyCounter::new("serve.epoch.switched_notices");

/// What a finished request means for its connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Disposition {
    /// Park the session and serve the next frame.
    KeepAlive,
    /// Flush queued answers, then close (SHUTDOWN's reply, fatal errors).
    Close,
}

/// One connection's session: its epoch mapping, the `ΔG` accumulated on
/// top of it, and its rule set (starts as the server-wide default; `RULES`
/// swaps it) with the plan cache that rule set compiles into.
///
/// The detect-crate session types borrow their base, so each request
/// re-materialises one around the `Arc` — a few moves, no graph copies —
/// which is what lets the connection swap epochs between requests.
pub(crate) struct SessionState {
    store: Arc<SnapshotStore>,
    sigma: Arc<RuleSet>,
    /// The plans of a Σ installed by `RULES`, for this session's epoch: a
    /// plan cache serves one (Σ, epoch), and the store's holds the
    /// server's Σ.  Made at `RULES`, replaced at each re-root.
    own_plans: Option<PlanCache>,
    accumulated: BatchUpdate,
    batches_applied: u64,
    /// An epoch switch to announce before the next answer.
    notice: Option<EpochNotice>,
    /// The published store a re-root already failed against — the session
    /// is *pinned* to its own mapping until a different epoch appears, and
    /// this memo keeps every subsequent frame from repeating the identical
    /// doomed O(|overlay|) attempt.
    reroot_failed_for: Option<Arc<SnapshotStore>>,
    /// An auto-compaction failed (full disk, pinned session, lost race):
    /// stop re-paying the O(|file|) merge on every batch.  Cleared when a
    /// re-root or RESET changes the session's situation; explicit `COMPACT`
    /// frames are never suppressed.
    auto_compact_disabled: bool,
}

impl SessionState {
    pub(crate) fn new(shared: &Shared) -> SessionState {
        SessionState {
            store: shared.epochs.published(),
            sigma: Arc::clone(&shared.sigma),
            own_plans: None,
            accumulated: BatchUpdate::new(),
            batches_applied: 0,
            notice: None,
            reroot_failed_for: None,
            auto_compact_disabled: false,
        }
    }

    /// The session's current state `snapshot ⊕ accumulated`, borrowed.
    fn view(&self) -> DeltaOverlay<'_, MmapSnapshot> {
        DeltaOverlay::new(self.store.snapshot(), &self.accumulated)
    }

    /// The plan cache this session's Σ compiles into on its epoch.
    fn plan_cache(&self) -> &PlanCache {
        self.own_plans
            .as_ref()
            .unwrap_or_else(|| self.store.plan_cache())
    }

    /// Adopt a Σ of the session's own, with an empty plan cache for it.
    fn install_rules(&mut self, sigma: RuleSet) {
        self.sigma = Arc::new(sigma);
        self.own_plans = Some(PlanCache::for_epoch(self.store.epoch()));
    }

    /// Apply one `ΔG` batch, pushing every fresh violation through `sink`
    /// *while the expansion runs*.
    fn apply(
        &mut self,
        delta: &BatchUpdate,
        config: &DetectorConfig,
        sink: VioSink<'_>,
    ) -> Result<DeltaReport, UpdateError> {
        let accumulated = std::mem::take(&mut self.accumulated);
        let mut session =
            IncrementalSession::resume(self.store.snapshot(), accumulated, self.batches_applied);
        let result = session.apply_streaming(&self.sigma, delta, config, self.plan_cache(), sink);
        (self.accumulated, self.batches_applied) = session.into_parts();
        result
    }

    fn reset(&mut self) -> BatchUpdate {
        self.batches_applied = 0;
        // The re-root refusal was about the overlay being discarded here;
        // with an empty overlay the next message boundary can adopt the
        // published epoch after all.
        self.reroot_failed_for = None;
        self.auto_compact_disabled = false;
        std::mem::take(&mut self.accumulated)
    }

    /// At a message boundary: if a newer epoch has been published, try to
    /// re-root this session's overlay onto it.  On success the old `Arc`
    /// is released (unmapping the file once the last session lets go) and
    /// an `EPOCH_SWITCHED` notice is queued; on failure the session pins
    /// to its current mapping and keeps serving correctly from it.
    fn maybe_reroot(&mut self, epochs: &Epochs) {
        let current = epochs.published();
        if Arc::ptr_eq(&current, &self.store) {
            return;
        }
        if self
            .reroot_failed_for
            .as_ref()
            .is_some_and(|failed| Arc::ptr_eq(failed, &current))
        {
            return;
        }
        let previous_epoch = self.store.epoch();
        let accumulated = std::mem::take(&mut self.accumulated);
        let session =
            IncrementalSession::resume(self.store.snapshot(), accumulated, self.batches_applied);
        match (session.rebase_onto(current.snapshot())).map(|moved| moved.into_parts().0) {
            Ok(residue) => {
                self.notice = Some(EpochNotice {
                    epoch: current.epoch(),
                    previous_epoch,
                    carried_nodes: residue.new_nodes.len() as u64,
                    carried_ops: residue.ops.len() as u64,
                });
                self.accumulated = residue;
                if self.own_plans.is_some() {
                    self.own_plans = Some(PlanCache::for_epoch(current.epoch()));
                }
                self.store = current;
                self.reroot_failed_for = None;
                self.auto_compact_disabled = false;
                SESSION_REBASES.inc();
            }
            // The published epoch cannot absorb this overlay: keep serving
            // from the session's own (refcounted) mapping, and remember the
            // refusal so the attempt is not repeated until a *different*
            // epoch is published.  Clients observe the pinned state as
            // `epoch != published_epoch` in EPOCH/STATS.
            Err(_) => {
                self.accumulated = session.into_parts().0;
                self.reroot_failed_for = Some(current);
            }
        }
    }
}

/// Fold `session`'s accumulated overlay into the next epoch file, publish
/// the new mapping server-wide, and re-root the requesting session onto
/// it.  A superseded attempt fails typed; the requester re-roots onto the
/// winner at its next message boundary and can retry.
fn compact_session(epochs: &Epochs, session: &mut SessionState) -> Result<(), String> {
    // A session not on the published epoch (pinned after a failed re-root)
    // would fail the compare-and-publish anyway — bail before paying the
    // O(|file|) merge for it.
    let published = epochs.published();
    if !Arc::ptr_eq(&published, &session.store) {
        return Err(format!(
            "session reads epoch {} but epoch {} is published; a pinned \
             session cannot publish a compaction",
            session.store.epoch(),
            published.epoch()
        ));
    }
    // The accumulated update as a canonical net batch.
    let net = session.view().into_batch();
    epochs.publish_compaction(&session.store, &net)?;
    session.maybe_reroot(epochs);
    Ok(())
}

/// What a frame handler returns: `Err` only when the sink failed.
type Served = Result<(), ProtocolError>;
type Handler = fn(&Shared, &mut SessionState, &ConnIo, &[u8]) -> Served;

/// One request frame kind: the function that serves it and its
/// `serve.frame.<name>.{count,latency_ns}` instruments.
pub(crate) struct Route {
    pub(crate) handler: Handler,
    pub(crate) count: ngd_obs::LazyCounter,
    pub(crate) latency: ngd_obs::LazyHistogram,
}

/// The request frames.  Each kind's [`Route`] is a static of its own, so
/// its instruments are looked up in the registry once, not per request.
pub(crate) fn route(kind: u32) -> Option<&'static Route> {
    macro_rules! routes {
        ($($kind:ident => $name:literal, $handler:ident;)*) => {
            match kind {
                $(frame::$kind => {
                    static ROUTE: Route = Route {
                        handler: $handler,
                        count: ngd_obs::LazyCounter::new(concat!("serve.frame.", $name, ".count")),
                        latency: ngd_obs::LazyHistogram::new(concat!(
                            "serve.frame.", $name, ".latency_ns"
                        )),
                    };
                    &ROUTE
                })*
                _ => return None,
            }
        };
    }
    Some(routes! {
        HELLO => "hello", on_hello;
        RULES => "rules", on_rules;
        UPDATE => "update", on_update;
        QUERY => "query", on_query;
        STATS => "stats", on_stats;
        RESET => "reset", on_reset;
        SHUTDOWN => "shutdown", on_shutdown;
        COMPACT => "compact", on_compact;
        EPOCH => "epoch", on_epoch;
        METRICS => "metrics", on_metrics;
    })
}

/// Serve one request frame against a session — what every worker of the
/// pool runs.
///
/// A returned `Err` means the *sink* failed (the client is gone): the
/// connection closes.  Malformed or rejected requests answer with typed
/// `ERROR` frames and keep the session alive.
pub(crate) fn handle_request(
    shared: &Shared,
    session: &mut SessionState,
    sink: &ConnIo,
    kind: u32,
    payload: &[u8],
) -> Result<Disposition, ProtocolError> {
    // Message boundary: adopt a newly published epoch before touching
    // the request, and announce the switch ahead of the answer.
    session.maybe_reroot(&shared.epochs);
    if let Some(notice) = session.notice.take() {
        SWITCH_NOTICES.inc();
        sink.send(frame::EPOCH_SWITCHED, &notice.encode())?;
    }
    match route(kind) {
        Some(route) => (route.handler)(shared, session, sink, payload)?,
        None => sink.send_error(
            err_code::BAD_REQUEST,
            ProtocolError::UnknownFrame { kind }.to_string(),
        ),
    }
    Ok(match kind {
        // Flush SHUTDOWN's reply, then close.
        frame::SHUTDOWN => Disposition::Close,
        _ => Disposition::KeepAlive,
    })
}

/// A decoded request payload — or `None` after answering `BAD_REQUEST`,
/// upon which the handler returns `Ok(())` and the session stays alive.
fn decoded<T>(sink: &ConnIo, request: Result<T, ProtocolError>) -> Option<T> {
    request
        .map_err(|e| sink.send_error(err_code::BAD_REQUEST, e.to_string()))
        .ok()
}

/// The closing `UPDATE_DONE` / `QUERY_DONE` summary of a detection run
/// that streamed `totals = (added, removed)` violations.  A macro because
/// `DeltaReport` and `DetectionReport` share these fields but no type.
macro_rules! done_response {
    ($session:expr, $report:expr, $totals:expr) => {
        DoneResponse {
            epoch: $session.store.epoch(),
            algorithm: $report.algorithm.label().to_string(),
            elapsed_nanos: $report.elapsed.as_nanos() as u64,
            processors: $report.processors as u32,
            // Reserved wire slot: no detector computes the `dΣ`-ball any more.
            neighborhood_nodes: 0,
            added_total: $totals.0,
            removed_total: $totals.1,
            stats: $report.stats,
            cost: $report.cost,
        }
    };
}

fn on_hello(_: &Shared, session: &mut SessionState, sink: &ConnIo, payload: &[u8]) -> Served {
    let Some(_hello) = decoded(sink, HelloRequest::decode(payload)) else {
        return Ok(());
    };
    let response = HelloResponse {
        server: concat!("ngd-serve/", env!("CARGO_PKG_VERSION")).to_string(),
        node_count: session.store.node_count() as u64,
        edge_count: session.store.edge_count() as u64,
        rule_count: session.sigma.len() as u32,
        diameter: session.sigma.diameter() as u32,
    };
    sink.send(frame::HELLO_OK, &response.encode())
}

fn on_rules(_: &Shared, session: &mut SessionState, sink: &ConnIo, payload: &[u8]) -> Served {
    let Some(request) = decoded(sink, RulesRequest::decode(payload)) else {
        return Ok(());
    };
    match ngd_lang::load_rules(&request.source) {
        Ok(rules) => {
            let message = format!(
                "compiled {} rule(s), dΣ = {}",
                rules.len(),
                rules.diameter()
            );
            session.install_rules(rules);
            sink.send(frame::OK, &OkResponse { message }.encode())
        }
        Err(e) => {
            sink.send_error(err_code::RULES_REJECTED, e.to_string());
            Ok(())
        }
    }
}

fn on_update(shared: &Shared, session: &mut SessionState, sink: &ConnIo, payload: &[u8]) -> Served {
    let Some(request) = decoded(sink, UpdateRequest::decode(payload)) else {
        return Ok(());
    };
    // Stream `ΔVio` chunks *while* the expansion runs — the first
    // VIO_CHUNK leaves the socket before the matchers finish.  An apply
    // error happens during validation, before any detection, so no chunk
    // precedes the ERROR frame.
    let (result, streamed) = {
        let streamer = VioStreamer::new(sink);
        let callback = |side: VioSide, violation: &Violation| streamer.offer(side, violation);
        let result = session.apply(&request.batch, &shared.detector, &callback);
        (result, streamer.finish())
    };
    let report = match result {
        Ok(report) => report,
        Err(e) => {
            // Nothing was streamed (validation precedes detection); drop
            // the (0, 0) totals and answer typed.
            sink.send_error(err_code::UPDATE_REJECTED, e.to_string());
            return Ok(());
        }
    };
    let (added, removed) = streamed?;
    shared.updates_served.fetch_add(1, Ordering::SeqCst);
    shared
        .violations_streamed
        .fetch_add(added + removed, Ordering::SeqCst);
    let done = done_response!(session, report, (added, removed));
    sink.send(frame::UPDATE_DONE, &done.encode())?;
    // Auto-compaction, in-line on this worker after the answer is queued:
    // once the accumulated raw op sequence crosses the threshold, fold it
    // into a new epoch (raw, not net — churn that nets to nothing still
    // inflates per-batch bookkeeping).  This session's next request waits
    // for the merge; other sessions keep serving and pick the epoch up at
    // their next message boundary.
    if let Some(limit) = shared.options.compact_after {
        if !session.auto_compact_disabled && session.accumulated.len() as u64 >= limit {
            if let Err(e) = compact_session(&shared.epochs, session) {
                eprintln!(
                    "ngd-serve: auto-compaction failed (disabled for this session \
                     until it re-roots or resets): {e}"
                );
                session.auto_compact_disabled = true;
            }
        }
    }
    Ok(())
}

fn on_query(shared: &Shared, session: &mut SessionState, sink: &ConnIo, _: &[u8]) -> Served {
    let report = dect_on_cached(&session.sigma, &session.view(), session.plan_cache());
    let total = stream_violations(sink, Side::Added, report.violations.iter())?;
    shared
        .violations_streamed
        .fetch_add(total, Ordering::SeqCst);
    let done = done_response!(session, report, (total, 0));
    sink.send(frame::QUERY_DONE, &done.encode())
}

fn on_compact(shared: &Shared, session: &mut SessionState, sink: &ConnIo, _: &[u8]) -> Served {
    match compact_session(&shared.epochs, session) {
        Ok(()) => {
            // The requester observes the switch through EPOCH_OK; no
            // separate notice needed.
            session.notice = None;
            on_epoch(shared, session, sink, &[])
        }
        Err(e) => {
            sink.send_error(err_code::COMPACT_FAILED, e);
            Ok(())
        }
    }
}

/// The one `EPOCH_OK` assembly: where this session and the daemon stand.
fn on_epoch(shared: &Shared, session: &mut SessionState, sink: &ConnIo, _: &[u8]) -> Served {
    let response = EpochResponse {
        epoch: session.store.epoch(),
        published_epoch: shared.epochs.published().epoch(),
        snapshot_nodes: session.store.node_count() as u64,
        snapshot_edges: session.store.edge_count() as u64,
        compactions: shared.epochs.compactions(),
    };
    sink.send(frame::EPOCH_OK, &response.encode())
}

fn on_stats(shared: &Shared, session: &mut SessionState, sink: &ConnIo, _: &[u8]) -> Served {
    let view = session.view();
    let (session_nodes, session_edges) = (view.node_count(), GraphView::edge_count(&view));
    let net = view.into_batch();
    let response = StatsResponse {
        epoch: session.store.epoch(),
        published_epoch: shared.epochs.published().epoch(),
        snapshot_nodes: session.store.node_count() as u64,
        snapshot_edges: session.store.edge_count() as u64,
        session_nodes: session_nodes as u64,
        session_edges: session_edges as u64,
        accumulated_ops: session.accumulated.len() as u64,
        pending_nodes: net.new_nodes.len() as u64,
        pending_edge_ops: net.ops.len() as u64,
        batches_applied: session.batches_applied,
        sessions_active: shared.sessions_active.load(Ordering::SeqCst) as u32,
        sessions_total: shared.sessions_total.load(Ordering::SeqCst),
        updates_served: shared.updates_served.load(Ordering::SeqCst),
        violations_streamed: shared.violations_streamed.load(Ordering::SeqCst),
        plan_cache_hits: session.plan_cache().hits(),
        plan_cache_misses: session.plan_cache().misses(),
        uptime_secs: shared.started.elapsed().as_secs(),
    };
    sink.send(frame::STATS_OK, &response.encode())
}

fn on_metrics(_: &Shared, _: &mut SessionState, sink: &ConnIo, _: &[u8]) -> Served {
    let response = MetricsResponse {
        snapshot: ngd_obs::global().snapshot(),
    };
    sink.send(frame::METRICS_OK, &response.encode())
}

fn on_reset(_: &Shared, session: &mut SessionState, sink: &ConnIo, _: &[u8]) -> Served {
    let dropped = session.reset();
    let message = format!("dropped {} accumulated unit update(s)", dropped.len());
    sink.send(frame::OK, &OkResponse { message }.encode())
}

fn on_shutdown(shared: &Shared, _: &mut SessionState, sink: &ConnIo, _: &[u8]) -> Served {
    shared.signal_shutdown();
    let message = "shutting down: accept loop stopped, sessions draining".to_string();
    sink.send(frame::OK, &OkResponse { message }.encode())
}
