//! `IncDect` — the sequential, localizable incremental detector
//! (Section 6.2).
//!
//! Given `G`, `Σ` and a batch update `ΔG`, `IncDect` computes
//! `ΔVio(Σ, G, ΔG)` by update-driven evaluation: it never enumerates the
//! match space of `G` from scratch, it only expands update pivots triggered
//! by the edges of `ΔG`, walking adjacency lists outward from the updated
//! edges.  Its cost is therefore governed by the size of the
//! `dΣ`-neighbourhood `G_{dΣ}(ΔG)` (and `|Σ|`), not by `|G|` — the
//! *localizability* guarantee.  Measuring that neighbourhood is itself a
//! BFS that can reach most of `G`, so no detector does it: experiments and
//! tests that plot or assert its size call [`delta_neighborhood`]
//! explicitly, and `tests/locality.rs` checks the guarantee as an
//! access count.
//!
//! `IncDect` is the search body of [`crate::pincdect`] on one worker; its
//! reports carry the `IncDect` label for the paper's figures.

use crate::config::{AlgorithmKind, DetectorConfig};
use crate::pincdect::pinc_dect_prepared_cached;
use crate::report::DeltaReport;
use ngd_core::RuleSet;
use ngd_graph::{d_neighbors_many, BatchUpdate, DeltaOverlay, Graph, GraphView};
use ngd_match::PlanCache;

/// Number of nodes in `G_d(ΔG)`, the `d`-neighbourhood of the nodes `delta`
/// touches — with `view` = `G ⊕ ΔG` and `d` = `dΣ`, the quantity the
/// localizability guarantee bounds the incremental detectors' work by.
pub fn delta_neighborhood<G: GraphView>(view: &G, delta: &BatchUpdate, d: usize) -> usize {
    d_neighbors_many(view, delta.touched_nodes(), d).len()
}

/// Run `IncDect` on a graph and a batch update.
///
/// Default path: the graph is frozen into a
/// [`CsrSnapshot`](ngd_graph::CsrSnapshot), its `.ngds` bytes in memory
/// (an `O(|G|)` cost paid by *this* convenience entry point, once per
/// call), and the updated side is a [`DeltaOverlay`], so `G ⊕ ΔG` is
/// never materialised.
/// Callers streaming many batches should freeze once and use
/// [`inc_dect_snapshot`], whose per-batch cost is the `O(|ΔG|)`-local one
/// the paper's localizability result promises; [`inc_dect_prepared`]
/// accepts both sides as arbitrary [`GraphView`]s.
pub fn inc_dect(sigma: &RuleSet, graph: &Graph, delta: &BatchUpdate) -> DeltaReport {
    let snapshot = graph.freeze();
    inc_dect_snapshot(sigma, &snapshot, delta)
}

/// Run `IncDect` over a reusable frozen snapshot: `G` is the snapshot
/// itself, `G ⊕ ΔG` is an overlay built in `O(|ΔG|)`.
///
/// Generic over the view, so the same entry point serves a snapshot
/// whether its bytes are owned in memory ([`ngd_graph::Graph::freeze`])
/// or mapped from a snapshot file ([`ngd_graph::MmapSnapshot::load`]).
pub fn inc_dect_snapshot<S: GraphView + Sync>(
    sigma: &RuleSet,
    snapshot: &S,
    delta: &BatchUpdate,
) -> DeltaReport {
    let old_view = DeltaOverlay::empty(snapshot);
    let new_view = DeltaOverlay::new(snapshot, delta);
    inc_dect_prepared(sigma, &old_view, &new_view, delta)
}

/// Run `IncDect` when both `G` and `G ⊕ ΔG` are already available as
/// graph views.
pub fn inc_dect_prepared<V: GraphView + Sync>(
    sigma: &RuleSet,
    old_graph: &V,
    new_graph: &V,
    delta: &BatchUpdate,
) -> DeltaReport {
    inc_dect_prepared_cached(sigma, old_graph, new_graph, delta, &PlanCache::new())
}

/// [`inc_dect_prepared`] with a caller-owned [`PlanCache`], so a session
/// applying a stream of batches against one snapshot epoch compiles each
/// (rule, pivot-seed) plan once and reuses it for every later batch.  One
/// cache serves one (Σ, epoch): it keys plans by rule id.
///
/// This is the `PIncDect` body on one worker, which never leaves the
/// calling thread.
pub fn inc_dect_prepared_cached<V: GraphView + Sync>(
    sigma: &RuleSet,
    old_graph: &V,
    new_graph: &V,
    delta: &BatchUpdate,
    cache: &PlanCache,
) -> DeltaReport {
    let config = DetectorConfig::with_processors(1);
    DeltaReport {
        algorithm: AlgorithmKind::IncDect,
        ..pinc_dect_prepared_cached(sigma, old_graph, new_graph, delta, &config, cache)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::dect;
    use ngd_core::paper;
    use ngd_graph::{intern, AttrMap, Dir, NodeId, Value};
    use ngd_match::ViolationSet;

    /// The oracle: recompute batch violations on both versions and diff.
    fn oracle(sigma: &RuleSet, g_old: &Graph, g_new: &Graph) -> (ViolationSet, ViolationSet) {
        let old = dect(sigma, g_old).violations;
        let new = dect(sigma, g_new).violations;
        (new.difference(&old), old.difference(&new))
    }

    #[test]
    fn incremental_agrees_with_batch_recomputation() {
        let (g_old, fake) = paper::figure1_g4();
        let sigma = RuleSet::from_rules(vec![paper::phi4(1, 1, 10_000)]);
        let company = g_old.nodes_with_label(intern("company"))[0];

        let mut delta = BatchUpdate::new();
        delta.delete_edge(fake, company, intern("keys"));
        let base = g_old.node_count();
        let acct = delta.add_node(base, intern("account"), AttrMap::new());
        let fol = delta.add_node(
            base,
            intern("integer"),
            AttrMap::from_pairs([("val", Value::Int(3))]),
        );
        let fer = delta.add_node(
            base,
            intern("integer"),
            AttrMap::from_pairs([("val", Value::Int(5))]),
        );
        let st = delta.add_node(
            base,
            intern("boolean"),
            AttrMap::from_pairs([("val", Value::Bool(true))]),
        );
        delta.insert_edge(acct, company, intern("keys"));
        delta.insert_edge(acct, fol, intern("following"));
        delta.insert_edge(acct, fer, intern("follower"));
        delta.insert_edge(acct, st, intern("status"));

        let g_new = delta.applied_to(&g_old).unwrap();
        let report = inc_dect(&sigma, &g_old, &delta);
        let (added, removed) = oracle(&sigma, &g_old, &g_new);
        assert_eq!(report.delta.added, added);
        assert_eq!(report.delta.removed, removed);
        assert!(delta_neighborhood(&g_new, &delta, sigma.diameter()) > 0);
    }

    #[test]
    fn empty_update_is_an_empty_delta() {
        let (g, _) = paper::figure1_g2();
        let sigma = paper::paper_rule_set();
        let delta = BatchUpdate::new();
        let report = inc_dect(&sigma, &g, &delta);
        assert!(report.delta.is_empty());
        assert_eq!(delta_neighborhood(&g, &delta, sigma.diameter()), 0);
    }

    #[test]
    fn work_is_confined_to_the_update_neighborhood() {
        // Build a graph with one Bhonpur-style violation island plus a large
        // unrelated component; updating only the unrelated component must
        // not make IncDect inspect candidates proportional to the island.
        let (mut g, _) = paper::figure1_g2();
        let mut prev = g.add_node_named("filler", AttrMap::new());
        let filler_first = prev;
        for _ in 0..500 {
            let next = g.add_node_named("filler", AttrMap::new());
            g.add_edge_named(prev, next, "chain").unwrap();
            prev = next;
        }
        let sigma = RuleSet::from_rules(vec![paper::phi2()]);

        // Update deep inside the filler chain (labels unrelated to φ2).
        let mut delta = BatchUpdate::new();
        delta.insert_edge(prev, filler_first, intern("chain"));
        let report = inc_dect(&sigma, &g, &delta);
        assert!(report.delta.is_empty());
        // No pivots are triggered, so no candidates are inspected at all.
        assert_eq!(report.stats.candidates_inspected, 0);
        // The dΣ-neighbourhood is a small slice of the chain, not the graph.
        let g_new = delta.applied_to(&g).unwrap();
        let neighborhood = delta_neighborhood(&g_new, &delta, sigma.diameter());
        assert!(neighborhood < 20, "{neighborhood}");
    }

    #[test]
    fn delta_composition_reconstructs_batch_result() {
        // Vio(G ⊕ ΔG) must equal Vio(G) ⊕ ΔVio.
        let (g_old, village) = paper::figure1_g2();
        let sigma = RuleSet::from_rules(vec![paper::phi2()]);
        let total_node = g_old
            .neighbors(village, Dir::Out)
            .iter()
            .find(|&&(_, l)| l == intern("populationTotal"))
            .map(|&(n, _)| n)
            .unwrap();

        let mut delta = BatchUpdate::new();
        delta.delete_edge(village, total_node, intern("populationTotal"));
        let g_new = delta.applied_to(&g_old).unwrap();

        let base = dect(&sigma, &g_old).violations;
        let report = inc_dect_prepared(&sigma, &g_old, &g_new, &delta);
        let reconstructed = base.apply_delta(&report.delta);
        assert_eq!(reconstructed, dect(&sigma, &g_new).violations);
        assert_eq!(report.delta.removed.len(), 1);
    }

    #[test]
    fn inserted_nodes_get_ids_after_existing_ones() {
        let (g, _) = paper::figure1_g1();
        let sigma = RuleSet::from_rules(vec![paper::phi1(1)]);
        let mut delta = BatchUpdate::new();
        let entity = delta.add_node(g.node_count(), intern("institution"), AttrMap::new());
        let created = delta.add_node(
            g.node_count(),
            intern("date"),
            AttrMap::from_pairs([("val", Value::from_date(2000, 1, 1))]),
        );
        let destroyed = delta.add_node(
            g.node_count(),
            intern("date"),
            AttrMap::from_pairs([("val", Value::from_date(1999, 1, 1))]),
        );
        delta.insert_edge(entity, created, intern("wasCreatedOnDate"));
        delta.insert_edge(entity, destroyed, intern("wasDestroyedOnDate"));
        let report = inc_dect(&sigma, &g, &delta);
        assert_eq!(report.delta.added.len(), 1);
        let v = report.delta.added.iter().next().unwrap();
        assert!(v.nodes.contains(&NodeId(g.node_count() as u32)));
    }
}
