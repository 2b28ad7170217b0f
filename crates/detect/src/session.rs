//! Reusable incremental-detection session state.
//!
//! A long-lived serving process holds a frozen snapshot (in memory or
//! memory-mapped) and absorbs a *stream* of `ΔG` batches: each batch is
//! answered with the violation delta it causes **relative to everything the
//! session has already absorbed**, and is then folded into the session's
//! accumulated update.  The snapshot is never re-frozen and `G ⊕ ΔG` is
//! never materialised — both sides of every run are [`DeltaOverlay`]s over
//! the shared base, so the *search* cost per batch stays governed by the
//! update's `dΣ`-neighbourhood exactly as in the one-shot detectors.
//!
//! The overlays themselves are rebuilt per batch from the accumulated net
//! update, so each [`IncrementalSession::apply`] additionally pays
//! `O(|accumulated|)` bookkeeping — per-batch latency grows linearly with
//! session age, **not** with `|G|`: `tests/locality.rs` counts the base-view reads of one 16-op
//! batch on 11k and on 111k nodes (equal within 1.5×, no whole-graph
//! enumeration), and with one processor the run never leaves the calling
//! thread.  **Snapshot compaction** bounds that term: the accumulated
//! update is folded into a fresh snapshot epoch
//! (`ngd_graph::persist::CompactionWriter`), and the session re-roots onto
//! the new epoch with [`IncrementalSession::rebase_onto`] —
//! already-applied changes are dropped ([`DeltaOverlay::reroot`]) and only
//! the residue (batches absorbed after the compaction cut) is carried, so a
//! freshly compacted session restarts from an empty overlay.  `ngd-serve` drives exactly
//! this cycle on its `COMPACT`/epoch-switch path.
//!
//! There is one session type, [`IncrementalSession`], over any
//! [`GraphView`] (a frozen snapshot, in memory or
//! [mapped](ngd_graph::persist::MmapSnapshot::load), …), answering
//! through [`pinc_dect_prepared`](crate::pinc_dect_prepared).  It validates
//! every batch with [`BatchUpdate::validate_against`] before touching
//! overlay construction, so a malformed batch is a typed [`UpdateError`] —
//! never a panic — which is what lets `ngd-serve` expose sessions to
//! untrusted clients.

use crate::batch::dect_on;
use crate::config::DetectorConfig;
use crate::pincdect::pinc_dect_prepared_streaming;
use crate::report::{DeltaReport, DetectionReport, VioSink};
use ngd_core::RuleSet;
use ngd_graph::{BatchUpdate, DeltaOverlay, GraphView, RebaseError, UpdateError};
use ngd_match::PlanCache;

/// Session state over a snapshot.
///
/// ```
/// use ngd_core::{paper, RuleSet};
/// use ngd_detect::{DetectorConfig, IncrementalSession};
/// use ngd_graph::{intern, BatchUpdate};
///
/// let (graph, fake) = paper::figure1_g4();
/// let sigma = RuleSet::from_rules(vec![paper::phi4(1, 1, 10_000)]);
/// let snapshot = graph.freeze();
/// let mut session = IncrementalSession::new(&snapshot);
///
/// // Deleting the fake account's status edge removes its violation …
/// let status = graph
///     .out_neighbors(fake)
///     .iter()
///     .find(|&&(_, l)| l == intern("status"))
///     .map(|&(n, _)| n)
///     .unwrap();
/// let mut delta = BatchUpdate::new();
/// delta.delete_edge(fake, status, intern("status"));
/// let report = session
///     .apply(&sigma, &delta, &DetectorConfig::with_processors(2))
///     .unwrap();
/// assert_eq!(report.delta.removed.len(), 1);
///
/// // … and re-inserting it in a *second* batch brings it back, detected
/// // against the accumulated state, not the original snapshot.
/// let mut redo = BatchUpdate::new();
/// redo.insert_edge(fake, status, intern("status"));
/// let report = session
///     .apply(&sigma, &redo, &DetectorConfig::with_processors(2))
///     .unwrap();
/// assert_eq!(report.delta.added.len(), 1);
/// ```
#[derive(Debug)]
pub struct IncrementalSession<'a, B: GraphView + Sync> {
    base: &'a B,
    accumulated: BatchUpdate,
    batches_applied: u64,
}

impl<'a, B: GraphView + Sync> IncrementalSession<'a, B> {
    /// A fresh session over `base` with no absorbed updates.
    pub fn new(base: &'a B) -> Self {
        IncrementalSession::resume(base, BatchUpdate::new(), 0)
    }

    /// Rebuild a session from previously extracted state (see
    /// [`IncrementalSession::into_parts`]) — how a server re-materialises a
    /// connection's session around an epoch switch, where the borrow of the
    /// old mapping must end before the new one begins.
    ///
    /// `accumulated` must apply cleanly to `base`; it is trusted exactly
    /// like the session that produced it.
    pub fn resume(base: &'a B, accumulated: BatchUpdate, batches_applied: u64) -> Self {
        IncrementalSession {
            base,
            accumulated,
            batches_applied,
        }
    }

    /// Re-root the session onto a new snapshot epoch.
    ///
    /// Changes the new base already contains (the compaction fold) are
    /// dropped via [`DeltaOverlay::reroot`]; only the residue — batches
    /// absorbed after the compaction cut — is carried.  The session's
    /// observable state (`view()`) is unchanged, so a stream of batches
    /// answered across a re-root is byte-identical to one that never
    /// re-rooted.  On error (alien node universe) the session is unusable
    /// for the new base but `self` is untouched.
    pub fn rebase_onto<'b, B2: GraphView + Sync>(
        &self,
        new_base: &'b B2,
    ) -> Result<IncrementalSession<'b, B2>, RebaseError> {
        let rerooted = DeltaOverlay::new(self.base, &self.accumulated).reroot(new_base)?;
        Ok(IncrementalSession::resume(
            new_base,
            rerooted.into_batch(),
            self.batches_applied,
        ))
    }

    /// The *net* pending overlay size as `(nodes, edge ops)` — what an
    /// operator watches to decide when compaction is due.
    pub fn pending(&self) -> (usize, usize) {
        let net = self.view().into_batch();
        (net.new_nodes.len(), net.ops.len())
    }

    /// Decompose into `(accumulated, batches_applied)` for
    /// [`IncrementalSession::resume`].
    pub fn into_parts(self) -> (BatchUpdate, u64) {
        (self.accumulated, self.batches_applied)
    }

    /// The net of every batch absorbed so far, relative to the base.
    pub fn accumulated(&self) -> &BatchUpdate {
        &self.accumulated
    }

    /// Number of batches absorbed since creation (or the last reset).
    pub fn batches_applied(&self) -> u64 {
        self.batches_applied
    }

    /// The session's current state `base ⊕ accumulated` as a view.
    pub fn view(&self) -> DeltaOverlay<'_, B> {
        DeltaOverlay::new(self.base, &self.accumulated)
    }

    /// Validate `delta` against the current state, run the parallel
    /// incremental detector, and fold the batch into the session.
    ///
    /// On error the session is unchanged.
    pub fn apply(
        &mut self,
        sigma: &RuleSet,
        delta: &BatchUpdate,
        config: &DetectorConfig,
    ) -> Result<DeltaReport, UpdateError> {
        self.apply_with_cache(sigma, delta, config, &PlanCache::new())
    }

    /// [`IncrementalSession::apply`] with a caller-owned [`PlanCache`], so
    /// plan compilation amortises across the batch stream of an epoch
    /// (`ngd-serve` passes its per-store cache here).
    pub fn apply_with_cache(
        &mut self,
        sigma: &RuleSet,
        delta: &BatchUpdate,
        config: &DetectorConfig,
        cache: &PlanCache,
    ) -> Result<DeltaReport, UpdateError> {
        self.apply_inner(sigma, delta, config, cache, None)
    }

    /// [`IncrementalSession::apply_with_cache`] with a [`VioSink`]: each
    /// violation of the answer is streamed to `sink` while the detection
    /// run is still expanding (`ngd-serve` puts the first `VIO_CHUNK` on
    /// the wire from here).  See [`VioSink`] for the delivery guarantees;
    /// the returned report is unchanged.
    pub fn apply_streaming(
        &mut self,
        sigma: &RuleSet,
        delta: &BatchUpdate,
        config: &DetectorConfig,
        cache: &PlanCache,
        sink: VioSink<'_>,
    ) -> Result<DeltaReport, UpdateError> {
        self.apply_inner(sigma, delta, config, cache, Some(sink))
    }

    fn apply_inner(
        &mut self,
        sigma: &RuleSet,
        delta: &BatchUpdate,
        config: &DetectorConfig,
        cache: &PlanCache,
        sink: Option<VioSink<'_>>,
    ) -> Result<DeltaReport, UpdateError> {
        delta.validate_against(&self.view())?;
        let mut merged = self.accumulated.clone();
        merged.merge(delta);
        let report = {
            let old_view = DeltaOverlay::new(self.base, &self.accumulated);
            let new_view = DeltaOverlay::new(self.base, &merged);
            pinc_dect_prepared_streaming(sigma, &old_view, &new_view, delta, config, cache, sink)
        };
        self.accumulated = merged;
        self.batches_applied += 1;
        Ok(report)
    }

    /// Full batch detection `Vio(Σ, G ⊕ accumulated)` over the current
    /// state.
    pub fn detect_all(&self, sigma: &RuleSet) -> DetectionReport {
        dect_on(sigma, &self.view())
    }

    /// Drop the absorbed updates, returning what was accumulated.
    pub fn reset(&mut self) -> BatchUpdate {
        self.batches_applied = 0;
        std::mem::take(&mut self.accumulated)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::incdect::inc_dect;
    use ngd_core::paper;
    use ngd_graph::{intern, AttrMap, EdgeRef, UpdateError, Value};

    fn scenario() -> (ngd_graph::Graph, RuleSet) {
        let (g, _) = paper::figure1_g4();
        (g, RuleSet::from_rules(vec![paper::phi4(1, 1, 10_000)]))
    }

    /// Each batch's delta must equal one-shot incremental detection on the
    /// *materialised* accumulated state.
    #[test]
    fn session_stream_matches_one_shot_runs_on_materialised_state() {
        let (g, sigma) = scenario();
        let snapshot = g.freeze();
        let mut session = IncrementalSession::new(&snapshot);
        let config = DetectorConfig::with_processors(3);

        let mut current = g.clone();
        let edges = g.edge_vec();
        // Four batches: delete an edge, re-insert it, delete another, then
        // grow the graph by two nodes.
        let batches: Vec<BatchUpdate> = {
            let mut b1 = BatchUpdate::new();
            b1.delete_edge(edges[0].src, edges[0].dst, edges[0].label);
            let mut b2 = BatchUpdate::new();
            b2.insert_edge(edges[0].src, edges[0].dst, edges[0].label);
            let mut b3 = BatchUpdate::new();
            b3.delete_edge(edges[1].src, edges[1].dst, edges[1].label);
            let mut b4 = BatchUpdate::new();
            let company = g.nodes_with_label(intern("company"))[0];
            let acct = b4.add_node(g.node_count(), intern("account"), AttrMap::new());
            let status = b4.add_node(
                g.node_count(),
                intern("boolean"),
                AttrMap::from_pairs([("val", Value::Bool(true))]),
            );
            b4.insert_edge(acct, company, intern("keys"));
            b4.insert_edge(acct, status, intern("status"));
            vec![b1, b2, b3, b4]
        };
        for (idx, batch) in batches.iter().enumerate() {
            let reference = inc_dect(&sigma, &current, batch);
            let served = session
                .apply(&sigma, batch, &config)
                .expect("batch applies");
            assert_eq!(served.delta, reference.delta, "batch #{idx}");
            batch
                .apply(&mut current)
                .expect("materialised state applies");
        }
        assert_eq!(session.batches_applied(), 4);
        // The session view agrees with the materialised state.
        let full = session.detect_all(&sigma);
        let expected = crate::batch::dect(&sigma, &current);
        assert_eq!(full.violations, expected.violations);
    }

    #[test]
    fn invalid_batches_are_typed_errors_and_leave_the_session_unchanged() {
        let (g, sigma) = scenario();
        let snapshot = g.freeze();
        let mut session = IncrementalSession::new(&snapshot);
        let config = DetectorConfig::default();
        let edges = g.edge_vec();

        // Delete an edge, then try to delete it again in the next batch:
        // the second batch is invalid *against the accumulated state*.
        let mut first = BatchUpdate::new();
        first.delete_edge(edges[0].src, edges[0].dst, edges[0].label);
        session.apply(&sigma, &first, &config).unwrap();
        let before = session.accumulated().clone();

        let err = session.apply(&sigma, &first, &config).unwrap_err();
        assert_eq!(
            err,
            UpdateError::DeleteMissing(EdgeRef::new(edges[0].src, edges[0].dst, edges[0].label))
        );
        assert_eq!(session.accumulated(), &before);
        assert_eq!(session.batches_applied(), 1);
    }

    /// The compaction lifecycle: absorb → compact (fold the accumulated
    /// update into a new epoch) → re-root → keep absorbing.  Deltas must be
    /// byte-identical to a session that never compacted.
    #[test]
    fn rebase_onto_a_compacted_epoch_preserves_the_stream() {
        let (g, sigma) = scenario();
        let snapshot = g.freeze();
        let config = DetectorConfig::with_processors(2);
        let edges = g.edge_vec();
        let mut batches: Vec<BatchUpdate> = Vec::new();
        for e in edges.iter().take(3) {
            let mut b = BatchUpdate::new();
            b.delete_edge(e.src, e.dst, e.label);
            batches.push(b);
        }
        let mut with_node = BatchUpdate::new();
        let acct = with_node.add_node(g.node_count(), intern("account"), AttrMap::new());
        let company = g.nodes_with_label(intern("company"))[0];
        with_node.insert_edge(acct, company, intern("keys"));
        batches.push(with_node);

        // Reference: one session, no compaction.
        let mut plain = IncrementalSession::new(&snapshot);
        let reference: Vec<_> = batches
            .iter()
            .map(|b| plain.apply(&sigma, b, &config).unwrap().delta)
            .collect();

        // Compacting run: fold after the second batch, re-root, continue.
        let mut session = IncrementalSession::new(&snapshot);
        let mut deltas = Vec::new();
        deltas.push(session.apply(&sigma, &batches[0], &config).unwrap().delta);
        deltas.push(session.apply(&sigma, &batches[1], &config).unwrap().delta);
        let compacted = session
            .accumulated()
            .applied_to(&g)
            .expect("accumulated applies")
            .freeze();
        let mut session = session.rebase_onto(&compacted).unwrap();
        assert_eq!(session.pending(), (0, 0), "fully compacted ⇒ empty overlay");
        assert_eq!(session.batches_applied(), 2);
        deltas.push(session.apply(&sigma, &batches[2], &config).unwrap().delta);
        deltas.push(session.apply(&sigma, &batches[3], &config).unwrap().delta);
        assert_eq!(deltas, reference);
        // The post-compaction residue is exactly the post-cut batches: one
        // added node, one deletion and one insertion.
        let (nodes, ops) = session.pending();
        assert_eq!((nodes, ops), (1, 2));
    }

    #[test]
    fn resume_and_into_parts_round_trip() {
        let (g, sigma) = scenario();
        let snapshot = g.freeze();
        let config = DetectorConfig::default();
        let edges = g.edge_vec();
        let mut batch = BatchUpdate::new();
        batch.delete_edge(edges[0].src, edges[0].dst, edges[0].label);

        let mut session = IncrementalSession::new(&snapshot);
        session.apply(&sigma, &batch, &config).unwrap();
        let (accumulated, batches) = session.into_parts();
        let resumed = IncrementalSession::resume(&snapshot, accumulated.clone(), batches);
        assert_eq!(resumed.accumulated(), &accumulated);
        assert_eq!(resumed.batches_applied(), 1);
        // The resumed session rejects what the original would reject.
        let mut resumed = resumed;
        assert!(resumed.apply(&sigma, &batch, &config).is_err());
    }

    #[test]
    fn reset_returns_the_accumulated_update() {
        let (g, sigma) = scenario();
        let snapshot = g.freeze();
        let mut session = IncrementalSession::new(&snapshot);
        let edges = g.edge_vec();
        let mut batch = BatchUpdate::new();
        batch.delete_edge(edges[0].src, edges[0].dst, edges[0].label);
        session
            .apply(&sigma, &batch, &DetectorConfig::default())
            .unwrap();
        let accumulated = session.reset();
        assert_eq!(accumulated.len(), 1);
        assert!(session.accumulated().is_empty());
        assert_eq!(session.batches_applied(), 0);
        // After the reset the same batch applies again.
        assert!(session
            .apply(&sigma, &batch, &DetectorConfig::default())
            .is_ok());
    }
}
