//! `PIncDect` — the parallel incremental detector (Section 6.3), and the
//! one search body behind every incremental entry point.
//!
//! The algorithm runs `p` workers over the update pivots of `ΔG`:
//!
//! 1. **Pivot generation** — for every rule and every updated edge, the
//!    update pivots (two-variable partial solutions, one per pattern edge
//!    the updated edge can be matched onto) form one group, each pivot with
//!    the plan cached for its seed variables.  The groups are dealt
//!    round-robin to the `p` workers, last group first.
//! 2. **Parallel expansion** — each worker expands its pivots with the
//!    matcher's planned search ([`Matcher::expand_seeded_into`]), with the
//!    updated edges of a lower rank than the pivot's forbidden.  Complete
//!    assignments are checked for violation and against the "other side"
//!    graph so that the result is exactly `ΔVio = (ΔVio⁺, ΔVio⁻)`.
//!
//! The caller is worker 0 and `p − 1` scoped threads are spawned — none at
//! `p = 1` or when `ΔG` triggers no pivot, so a small served `UPDATE` runs
//! inline.  Workers share nothing while they run: each keeps its own
//! violation sets and counters, folded once at the end.  A worker's own
//! sets are enough to stream every violation exactly once, because the
//! de-duplication ranks let a match repeat only inside one (rule, phase,
//! updated edge) group — two pattern edges mapped onto the same updated
//! edge — and a group never leaves its worker.
//!
//! [`inc_dect`](crate::inc_dect) is this body at `p = 1`.  The paper's
//! hybrid workload strategy (cost-model work-unit splitting and skew-based
//! balancing) is not implemented: it needs a stepwise work-unit engine, and
//! on the skewed workload it was built for that engine at `p = 2` with
//! splitting was no faster than this body on one worker (ROADMAP,
//! "Closed").

use crate::config::{AlgorithmKind, DetectorConfig};
use crate::cost::CostLedger;
use crate::report::{DeltaReport, SearchStats, VioSide, VioSink};
use ngd_core::{Ngd, RuleSet, Var};
use ngd_graph::{BatchUpdate, DeltaOverlay, EdgeRef, Graph, GraphView, IdMap, NodeId};
use ngd_match::{
    compile_rule_plan, edge_ranks, pattern_matches, update_pivots, DeltaViolations, FastPathTally,
    MatchPlan, Matcher, PlanCache, Violation,
};
use std::sync::Arc;
use std::time::Instant;

/// One update pivot: the seed pair of a pattern edge matched onto an
/// updated edge, with the plan compiled for those two seed variables.
type Pivot = ([(Var, NodeId); 2], Arc<MatchPlan>);

/// The update pivots one updated edge triggers for one rule.
struct PivotGroup<'a> {
    rule: &'a Ngd,
    /// `Added`: the edge was inserted and `G ⊕ ΔG` is searched; `Removed`:
    /// it was deleted and `G` is searched.
    side: VioSide,
    /// The edge's rank in its half of `ΔG`: edges of a lower rank are
    /// forbidden while the group expands (pivot de-duplication, Section 6.2).
    rank: usize,
    /// One per pattern edge the updated edge can be matched onto.
    pivots: Vec<Pivot>,
}

/// Every pivot group of `ΔG`, rule by rule, inserted edges before deleted
/// ones.  Groups whose edge triggers no pivot are left out.
fn pivot_groups<'a, V: GraphView>(
    sigma: &'a RuleSet,
    old_graph: &V,
    new_graph: &V,
    inserted: &[EdgeRef],
    deleted: &[EdgeRef],
    cache: &PlanCache,
) -> Vec<PivotGroup<'a>> {
    let mut groups = Vec::new();
    for rule in sigma.iter() {
        for (side, graph, edges) in [
            (VioSide::Added, new_graph, inserted),
            (VioSide::Removed, old_graph, deleted),
        ] {
            for (rank, &edge) in edges.iter().enumerate() {
                let pivots: Vec<_> = update_pivots(rule, graph, std::iter::once(edge))
                    .map(|pivot| {
                        let pe = rule.pattern.edges()[pivot.pattern_edge];
                        let seed_vars = [pe.src, pe.dst];
                        let plan = cache.get_or_compile(&rule.id, &seed_vars, || {
                            compile_rule_plan(rule, graph, &seed_vars)
                        });
                        ([(pe.src, edge.src), (pe.dst, edge.dst)], plan)
                    })
                    .collect();
                if !pivots.is_empty() {
                    groups.push(PivotGroup {
                        rule,
                        side,
                        rank,
                        pivots,
                    });
                }
            }
        }
    }
    groups
}

/// What one worker found.
#[derive(Default)]
struct WorkerOutput {
    delta: DeltaViolations,
    stats: SearchStats,
    fast_path: FastPathTally,
}

/// Expand `groups` on the calling thread, streaming each violation to
/// `sink` the first time this worker finds it.
fn expand_groups<'g, V: GraphView>(
    groups: impl Iterator<Item = &'g PivotGroup<'g>>,
    old_graph: &V,
    new_graph: &V,
    ranks: [&IdMap<EdgeRef, usize>; 2],
    sink: Option<VioSink<'_>>,
) -> WorkerOutput {
    let mut out = WorkerOutput::default();
    for group in groups {
        let rule = group.rule;
        let (search, other, ranks, found) = match group.side {
            VioSide::Added => (new_graph, old_graph, ranks[0], &mut out.delta.added),
            VioSide::Removed => (old_graph, new_graph, ranks[1], &mut out.delta.removed),
        };
        for (seeds, plan) in &group.pivots {
            let matcher = Matcher::new(&rule.pattern, search)
                .with_forbidden(ranks, group.rank)
                .with_plan(Arc::clone(plan));
            let stats = matcher.expand_seeded_into(seeds, rule, &mut out.fast_path, &mut |m| {
                if pattern_matches(rule, other, m) {
                    return;
                }
                let violation = Violation::new(rule.id.clone(), m.to_vec());
                if let Some(sink) = sink.filter(|_| !found.contains(&violation)) {
                    sink(group.side, &violation);
                }
                found.insert(violation);
            });
            out.stats.merge(&stats.into());
        }
    }
    out
}

/// Run `PIncDect` on a graph and a batch update.
///
/// Default path: the graph is frozen once and both sides of the run are
/// [`DeltaOverlay`]s over the snapshot (the old side with no pending
/// update), so `G ⊕ ΔG` is never materialised.
pub fn pinc_dect(
    sigma: &RuleSet,
    graph: &Graph,
    delta: &BatchUpdate,
    config: &DetectorConfig,
) -> DeltaReport {
    let snapshot = graph.freeze();
    let old_view = DeltaOverlay::empty(&snapshot);
    let new_view = DeltaOverlay::new(&snapshot, delta);
    pinc_dect_prepared(sigma, &old_view, &new_view, delta, config)
}

/// Run `PIncDect` when both `G` and `G ⊕ ΔG` are already available as
/// graph views (of the same representation).
pub fn pinc_dect_prepared<V: GraphView + Sync>(
    sigma: &RuleSet,
    old_graph: &V,
    new_graph: &V,
    delta: &BatchUpdate,
    config: &DetectorConfig,
) -> DeltaReport {
    pinc_dect_prepared_cached(
        sigma,
        old_graph,
        new_graph,
        delta,
        config,
        &PlanCache::new(),
    )
}

/// [`pinc_dect_prepared`] with a caller-owned [`PlanCache`]: every pivot
/// of the same (rule, seed-variable) pair — within this batch and across
/// batches against the same snapshot epoch — shares one compiled plan.
/// One cache serves one (Σ, epoch): it keys plans by rule id.
pub fn pinc_dect_prepared_cached<V: GraphView + Sync>(
    sigma: &RuleSet,
    old_graph: &V,
    new_graph: &V,
    delta: &BatchUpdate,
    config: &DetectorConfig,
    cache: &PlanCache,
) -> DeltaReport {
    pinc_dect_prepared_streaming(sigma, old_graph, new_graph, delta, config, cache, None)
}

/// [`pinc_dect_prepared_cached`] with an optional [`VioSink`]: every
/// violation is also handed to `sink` **while expansion is still running**,
/// so a serving layer can put the first `ΔVio` bytes on the wire long
/// before the run completes.  The returned report is identical either way
/// (same deterministic sets); see [`VioSink`] for the delivery guarantees.
///
/// This is the one incremental body: every `inc_dect*` and `pinc_dect*`
/// entry point ends here.
pub fn pinc_dect_prepared_streaming<V: GraphView + Sync>(
    sigma: &RuleSet,
    old_graph: &V,
    new_graph: &V,
    delta: &BatchUpdate,
    config: &DetectorConfig,
    cache: &PlanCache,
    sink: Option<VioSink<'_>>,
) -> DeltaReport {
    let start = Instant::now();
    let (hits0, misses0) = (cache.hits(), cache.misses());
    let p = config.processors.max(1);
    let inserted: Vec<EdgeRef> = delta.insertions().collect();
    let deleted: Vec<EdgeRef> = delta.deletions().collect();
    let groups = pivot_groups(sigma, old_graph, new_graph, &inserted, &deleted, cache);
    let (inserted_ranks, deleted_ranks) = (edge_ranks(&inserted), edge_ranks(&deleted));

    let workers = if groups.is_empty() { 1 } else { p };
    // Dealt last group first, so one worker meets the last rule's deletions
    // first.  The first violation streamed travels in a frame of its own,
    // so this order decides how a served answer is framed; it is kept as it
    // is to keep responses byte-identical.
    let outputs = crate::on_workers(workers, |worker| {
        expand_groups(
            groups.iter().rev().skip(worker).step_by(p),
            old_graph,
            new_graph,
            [&inserted_ranks, &deleted_ranks],
            sink,
        )
    });

    let mut delta_vio = DeltaViolations::new();
    let mut stats = SearchStats::default();
    let mut fast_path = FastPathTally::default();
    {
        let _span = ngd_obs::span!("detect.fold");
        for out in outputs {
            delta_vio.extend(out.delta);
            stats.merge(&out.stats);
            fast_path.merge(&out.fast_path);
        }
    }
    fast_path.observe();
    stats.record_plan_cache(hits0, misses0, cache);
    let mut cost = CostLedger::default();
    cost.record_scan(stats.candidates_inspected);
    DeltaReport {
        algorithm: AlgorithmKind::PIncDect,
        delta: delta_vio,
        stats,
        cost,
        processors: p,
        neighborhood_nodes: 0,
        elapsed: start.elapsed(),
    }
    .observed(workers - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::incdect::inc_dect;
    use ngd_core::{paper, Expr, Literal, Pattern};
    use ngd_graph::{intern, AttrMap, Dir, Value};

    /// Example 7 of the paper: G4 plus 98 small helper accounts, then the
    /// *real* account's status edge — which every violation shares as the
    /// `s1` match — is deleted, removing 99 violations at once.
    fn example7() -> (Graph, BatchUpdate, RuleSet) {
        let (mut g, fake) = paper::figure1_g4();
        let company = g.nodes_with_label(intern("company"))[0];
        let real = g
            .nodes_with_label(intern("account"))
            .iter()
            .copied()
            .find(|&n| n != fake)
            .expect("figure 1 G4 has a real account besides the fake one");
        for i in 0..98 {
            let acct = g.add_node_named("account", AttrMap::new());
            let following =
                g.add_node_named("integer", AttrMap::from_pairs([("val", Value::Int(1))]));
            let follower =
                g.add_node_named("integer", AttrMap::from_pairs([("val", Value::Int(2))]));
            let status =
                g.add_node_named("boolean", AttrMap::from_pairs([("val", Value::Bool(true))]));
            g.add_edge_named(acct, company, "keys").unwrap();
            g.add_edge_named(acct, following, "following").unwrap();
            g.add_edge_named(acct, follower, "follower").unwrap();
            g.add_edge_named(acct, status, "status").unwrap();
            let _ = i;
        }
        let status_node = g
            .neighbors(real, Dir::Out)
            .iter()
            .find(|&&(_, l)| l == intern("status"))
            .map(|&(n, _)| n)
            .unwrap();
        let mut delta = BatchUpdate::new();
        delta.delete_edge(real, status_node, intern("status"));
        let sigma = RuleSet::from_rules(vec![paper::phi4(1, 1, 10_000)]);
        (g, delta, sigma)
    }

    /// Run the streaming detector and collect what the sink saw: the
    /// violations, and how many deliveries it took.
    fn streamed<V: GraphView + Sync>(
        sigma: &RuleSet,
        old_view: &V,
        new_view: &V,
        delta: &BatchUpdate,
        p: usize,
    ) -> (DeltaReport, DeltaViolations, usize) {
        let (tx, rx) = std::sync::mpsc::channel();
        let report = pinc_dect_prepared_streaming(
            sigma,
            old_view,
            new_view,
            delta,
            &DetectorConfig::with_processors(p),
            &PlanCache::new(),
            Some(&|side, violation: &Violation| {
                tx.send((side, violation.clone())).expect("receiver alive");
            }),
        );
        drop(tx);
        let mut collected = DeltaViolations::new();
        let mut deliveries = 0;
        for (side, violation) in rx {
            match side {
                VioSide::Added => collected.added.insert(violation),
                VioSide::Removed => collected.removed.insert(violation),
            };
            deliveries += 1;
        }
        (report, collected, deliveries)
    }

    #[test]
    fn parallel_agrees_with_sequential_incremental() {
        let (g, delta, sigma) = example7();
        let sequential = inc_dect(&sigma, &g, &delta);
        for p in [1, 2, 4, 8] {
            let parallel = pinc_dect(&sigma, &g, &delta, &DetectorConfig::with_processors(p));
            assert_eq!(parallel.delta, sequential.delta, "p={p}");
        }
    }

    #[test]
    fn example7_finds_99_removed_violations() {
        // Deleting the status edge of NatWest Help removes the violation in
        // which it was the real account paired with NatWest_Help — and the
        // 98 helper accounts pair with the fake account the same way, so the
        // paper reports a total of 99 removed violations.
        let (g, delta, sigma) = example7();
        let report = pinc_dect(&sigma, &g, &delta, &DetectorConfig::with_processors(4));
        assert_eq!(report.delta.removed.len(), 99);
        assert!(report.delta.added.is_empty());
        assert_eq!(report.algorithm, AlgorithmKind::PIncDect);
    }

    #[test]
    fn streaming_sink_delivers_each_violation_exactly_once() {
        // Collecting the stream into fresh sets would hide duplicates, so
        // raw deliveries are counted too.
        let (g, delta, sigma) = example7();
        let snapshot = g.freeze();
        let old_view = DeltaOverlay::empty(&snapshot);
        let new_view = DeltaOverlay::new(&snapshot, &delta);
        for p in [1, 4] {
            let (report, collected, deliveries) = streamed(&sigma, &old_view, &new_view, &delta, p);
            assert_eq!(collected, report.delta);
            assert_eq!(deliveries, report.delta.len());
            assert_eq!(report.delta.removed.len(), 99);
        }
    }

    #[test]
    fn a_match_found_from_two_pivots_of_one_edge_is_streamed_once() {
        // `x -e-> y, x -e-> z` with `y` and `z` on one label: inserting one
        // `e` edge `a -> b` seeds both pattern edges, and the match
        // `x = a, y = z = b` is completed from each of the two pivots.
        let mut g = Graph::new();
        let a = g.add_node_named("s", AttrMap::new());
        let c = g.add_node_named("t", AttrMap::new());
        let b = g.add_node_named("t", AttrMap::new());
        g.add_edge_named(a, c, "e").unwrap();
        let mut q = Pattern::new();
        let x = q.add_node("x", "s");
        let y = q.add_node("y", "t");
        let z = q.add_node("z", "t");
        q.add_edge(x, y, "e").add_edge(x, z, "e");
        // No node carries `val`, so the consequence fails on every match.
        let consequence = Literal::eq(Expr::attr(x, "val"), Expr::constant(0));
        let rule = Ngd::new("fork", q, vec![], vec![consequence]).unwrap();
        let sigma = RuleSet::from_rules(vec![rule]);
        let mut delta = BatchUpdate::new();
        delta.insert_edge(a, b, intern("e"));

        let snapshot = g.freeze();
        let old_view = DeltaOverlay::empty(&snapshot);
        let new_view = DeltaOverlay::new(&snapshot, &delta);
        let both = Violation::new("fork", vec![a, b, b]);
        for p in [1, 2, 4] {
            let (report, collected, deliveries) = streamed(&sigma, &old_view, &new_view, &delta, p);
            assert!(report.delta.added.contains(&both), "p={p}");
            // (a,b,b), (a,b,c) and (a,c,b).
            assert_eq!(report.delta.added.len(), 3, "p={p}");
            assert_eq!(report.stats.matches_found, 4, "p={p}: (a,b,b) twice");
            assert_eq!(collected, report.delta, "p={p}");
            assert_eq!(deliveries, report.delta.len(), "p={p}");
        }
    }

    #[test]
    fn empty_update_terminates_immediately() {
        let (g, _) = paper::figure1_g2();
        let sigma = paper::paper_rule_set();
        let report = pinc_dect(
            &sigma,
            &g,
            &BatchUpdate::new(),
            &DetectorConfig::with_processors(3),
        );
        assert!(report.delta.is_empty());
        assert_eq!(report.stats.expanded, 0);
    }

    #[test]
    fn insertions_and_deletions_in_one_batch() {
        let (g_old, fake) = paper::figure1_g4();
        let sigma = RuleSet::from_rules(vec![paper::phi4(1, 1, 10_000)]);
        let company = g_old.nodes_with_label(intern("company"))[0];
        let mut delta = BatchUpdate::new();
        delta.delete_edge(fake, company, intern("keys"));
        let base = g_old.node_count();
        let acct = delta.add_node(base, intern("account"), AttrMap::new());
        let following = delta.add_node(
            base,
            intern("integer"),
            AttrMap::from_pairs([("val", Value::Int(1_000_000))]),
        );
        let follower = delta.add_node(
            base,
            intern("integer"),
            AttrMap::from_pairs([("val", Value::Int(2_000_000))]),
        );
        let status = delta.add_node(
            base,
            intern("boolean"),
            AttrMap::from_pairs([("val", Value::Bool(true))]),
        );
        delta.insert_edge(acct, company, intern("keys"));
        delta.insert_edge(acct, following, intern("following"));
        delta.insert_edge(acct, follower, intern("follower"));
        delta.insert_edge(acct, status, intern("status"));

        let sequential = inc_dect(&sigma, &g_old, &delta);
        let parallel = pinc_dect(&sigma, &g_old, &delta, &DetectorConfig::with_processors(4));
        assert_eq!(parallel.delta, sequential.delta);
        assert!(!parallel.delta.added.is_empty());
        assert!(!parallel.delta.removed.is_empty());
    }
}
