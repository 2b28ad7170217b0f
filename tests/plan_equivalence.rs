//! Plan-equivalence battery: the cost-based planner is an *order*
//! optimisation, so every detector must return byte-identical results with
//! and without it.  The reference point is the pre-planner greedy order,
//! still reachable through [`Matcher::with_legacy_order`]:
//!
//! * `Vio(Σ, G)` — planned `dect`/`pdect` vs the legacy order, on seeded
//!   random graphs across the adjacency, CSR-snapshot and mmap-file
//!   backends (down to the serialized JSON bytes);
//! * `ΔVio` — planned incremental and parallel-incremental detection vs a
//!   legacy-order update-driven recomputation;
//! * the figure-1 scenarios with the full paper rule set;
//! * an epoch compaction: plans compiled against the old epoch's mapped
//!   file never leak into the new epoch ([`PlanCache::for_epoch`] keying),
//!   and both epochs keep agreeing with the legacy order;
//! * the literal schedule — the per-step check of the planned search
//!   (`Matcher::step_viable`) against the full check
//!   (`Matcher::partial_viable`) on every partial assignment of a stepwise
//!   expansion that draws its own candidates, on every backend, seeded,
//!   unseeded and with forbidden edges.

use ngd_core::{paper, Expr, Literal, Ngd, Pattern, RuleSet, Var};
use ngd_datagen::StdRng;
use ngd_detect::{
    dect_on, dect_on_cached, inc_dect_prepared, pdect_on, pinc_dect_prepared, DetectorConfig,
};
use ngd_graph::persist::{CompactionWriter, MmapSnapshot, SnapshotWriter};
use ngd_graph::{
    AttrMap, BatchUpdate, DeltaOverlay, EdgeRef, Graph, GraphView, IdMap, NodeId, Value, WILDCARD,
};
use ngd_match::{
    compile_rule_plan, edge_ranks, pattern_matches, update_pivots, DeltaViolations, FastPathTally,
    MatchPlan, Matcher, PlanCache, PlanStep, SeedChoice, Violation, ViolationSet,
};
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Number of random cases per property.
const CASES: u64 = 48;

const NODE_LABELS: [&str; 3] = ["A", "B", "C"];
const EDGE_LABELS: [&str; 2] = ["e1", "e2"];

static FILE_SEQ: AtomicUsize = AtomicUsize::new(0);

fn temp_path(tag: &str) -> PathBuf {
    let seq = FILE_SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "ngd-plan-eq-{tag}-{}-{seq}.ngds",
        std::process::id()
    ))
}

fn random_graph(rng: &mut StdRng) -> Graph {
    let mut graph = Graph::new();
    let node_count = rng.gen_range(2..12usize);
    for _ in 0..node_count {
        let mut attrs = AttrMap::new();
        attrs.set_named("val", Value::Int(rng.gen_range(0..20i64)));
        graph.add_node_named(NODE_LABELS[rng.gen_range(0..NODE_LABELS.len())], attrs);
    }
    for _ in 0..rng.gen_range(0..30usize) {
        let src = NodeId(rng.gen_range(0..node_count) as u32);
        let dst = NodeId(rng.gen_range(0..node_count) as u32);
        let _ = graph.add_edge_named(src, dst, EDGE_LABELS[rng.gen_range(0..EDGE_LABELS.len())]);
    }
    graph
}

/// Random edge-only batch update over `graph` (the prepared-delta shape the
/// incremental detectors take).
fn random_update(rng: &mut StdRng, graph: &Graph) -> BatchUpdate {
    let mut update = BatchUpdate::new();
    let existing = graph.edge_vec();
    for _ in 0..rng.gen_range(0..8usize) {
        if existing.is_empty() {
            break;
        }
        let e = existing[rng.gen_range(0..existing.len())];
        if update.deletions().all(|d| d != e) {
            update.delete_edge(e.src, e.dst, e.label);
        }
    }
    for _ in 0..rng.gen_range(0..8usize) {
        if graph.node_count() == 0 {
            break;
        }
        let src = NodeId(rng.gen_range(0..graph.node_count()) as u32);
        let dst = NodeId(rng.gen_range(0..graph.node_count()) as u32);
        let label = ngd_graph::intern(EDGE_LABELS[rng.gen_range(0..EDGE_LABELS.len())]);
        let edge = EdgeRef::new(src, dst, label);
        if !graph.has_edge(src, dst, label)
            && update.insertions().all(|i| i != edge)
            && update.deletions().all(|d| d != edge)
        {
            update.insert_edge(src, dst, label);
        }
    }
    update
}

/// Rules over the random schema: a comparison rule, a rule with a wildcard
/// variable (exercising wildcard seeding), and a three-hop chain whose
/// planned order genuinely differs from pattern order.
fn rules() -> RuleSet {
    let mut q1 = Pattern::new();
    let x = q1.add_node("x", "A");
    let y = q1.add_node("y", "B");
    q1.add_edge(x, y, "e1");
    let r1 = Ngd::new(
        "r1",
        q1,
        vec![],
        vec![Literal::ge(Expr::attr(y, "val"), Expr::attr(x, "val"))],
    )
    .unwrap();

    let mut q2 = Pattern::new();
    let x = q2.add_node("x", "A");
    let y = q2.add_node("y", "B");
    let z = q2.add_wildcard("z");
    q2.add_edge(x, y, "e1");
    q2.add_edge(x, z, "e2");
    let r2 = Ngd::new(
        "r2",
        q2,
        vec![Literal::le(Expr::attr(x, "val"), Expr::constant(10))],
        vec![Literal::le(
            Expr::add(Expr::attr(y, "val"), Expr::attr(z, "val")),
            Expr::constant(30),
        )],
    )
    .unwrap();

    let mut q3 = Pattern::new();
    let a = q3.add_node("a", "C");
    let b = q3.add_node("b", "B");
    let c = q3.add_node("c", "A");
    q3.add_edge(a, b, "e2");
    q3.add_edge(b, c, "e1");
    q3.add_edge(c, a, "e2");
    let r3 = Ngd::new(
        "r3",
        q3,
        vec![],
        vec![Literal::lt(Expr::attr(a, "val"), Expr::attr(c, "val"))],
    )
    .unwrap();
    RuleSet::from_rules(vec![r1, r2, r3])
}

/// Batch detection with the pre-planner greedy variable order.
fn legacy_violations<G: GraphView>(sigma: &RuleSet, graph: &G) -> ViolationSet {
    let mut out = ViolationSet::new();
    for rule in sigma.iter() {
        let (vio, _) = Matcher::new(&rule.pattern, graph)
            .with_legacy_order()
            .find_violations_with_stats(rule);
        out.extend(vio);
    }
    out
}

/// Update-driven expansion with the legacy order — the pre-planner
/// incremental path, used as the ΔVio reference.
fn legacy_update_driven<S: GraphView, O: GraphView>(
    rule: &Ngd,
    search_graph: &S,
    other_graph: &O,
    edges: &[EdgeRef],
) -> ViolationSet {
    let mut out = ViolationSet::new();
    let ranks = edge_ranks(edges);
    for (idx, edge) in edges.iter().enumerate() {
        for pivot in update_pivots(rule, search_graph, std::iter::once(*edge)) {
            let pe = rule.pattern.edges()[pivot.pattern_edge];
            let matcher = Matcher::new(&rule.pattern, search_graph)
                .with_forbidden(&ranks, idx)
                .with_legacy_order();
            let seeds = [(pe.src, pivot.edge.src), (pe.dst, pivot.edge.dst)];
            let (matches, _) = matcher.expand_seeded(&seeds, Some(rule));
            for m in matches {
                if !pattern_matches(rule, other_graph, &m) {
                    out.insert(Violation::new(rule.id.clone(), m));
                }
            }
        }
    }
    out
}

fn legacy_delta(
    sigma: &RuleSet,
    old_graph: &Graph,
    new_graph: &Graph,
    delta: &BatchUpdate,
) -> DeltaViolations {
    let inserted: Vec<EdgeRef> = delta.insertions().collect();
    let deleted: Vec<EdgeRef> = delta.deletions().collect();
    let mut out = DeltaViolations::new();
    for rule in sigma.iter() {
        out.extend(DeltaViolations {
            added: legacy_update_driven(rule, new_graph, old_graph, &inserted),
            removed: legacy_update_driven(rule, old_graph, new_graph, &deleted),
        });
    }
    out
}

#[test]
fn planned_batch_detection_matches_legacy_order_on_every_backend() {
    let sigma = rules();
    let writer = SnapshotWriter::new();
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(9_100 + case);
        let graph = random_graph(&mut rng);
        let expected = legacy_violations(&sigma, &graph);

        // Adjacency-list backend.
        let adjacency = dect_on(&sigma, &graph).violations;
        assert_eq!(adjacency, expected, "adjacency (case {case})");

        // In-memory CSR snapshot (sorted runs enable gallop intersection).
        let snapshot = graph.freeze();
        let csr = dect_on(&sigma, &snapshot).violations;
        assert_eq!(csr, expected, "csr (case {case})");
        assert_eq!(
            legacy_violations(&sigma, &snapshot),
            expected,
            "case {case}"
        );

        // Parallel, sharing one plan across all batch pivots.
        let p = rng.gen_range(1..4usize);
        let parallel = pdect_on(&sigma, &snapshot, &DetectorConfig::with_processors(p)).violations;
        assert_eq!(parallel, expected, "pdect p={p} (case {case})");

        // Memory-mapped snapshot file, down to the serialized bytes.
        let path = temp_path("batch");
        writer.write(&snapshot, &path).expect("snapshot writes");
        let mapped = MmapSnapshot::load(&path).expect("snapshot loads");
        let from_file = dect_on(&sigma, &mapped).violations;
        std::fs::remove_file(&path).ok();
        assert_eq!(from_file, expected, "mmap (case {case})");
        assert_eq!(
            ngd_json::to_string(&from_file),
            ngd_json::to_string(&expected),
            "case {case}: serialized violation sets differ"
        );
    }
}

#[test]
fn planned_incremental_detection_matches_legacy_order() {
    let sigma = rules();
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(9_200 + case);
        let graph = random_graph(&mut rng);
        let delta = random_update(&mut rng, &graph);
        let updated = delta
            .applied_to(&graph)
            .expect("random updates apply cleanly");
        let expected = legacy_delta(&sigma, &graph, &updated, &delta);

        let planned = inc_dect_prepared(&sigma, &graph, &updated, &delta);
        assert_eq!(planned.delta, expected, "inc_dect (case {case})");

        let p = rng.gen_range(1..4usize);
        let parallel = pinc_dect_prepared(
            &sigma,
            &graph,
            &updated,
            &delta,
            &DetectorConfig::with_processors(p),
        );
        assert_eq!(parallel.delta, expected, "pinc_dect p={p} (case {case})");
    }
}

#[test]
fn figure1_scenarios_match_legacy_order() {
    // Union of the four Figure-1 graphs, checked against the paper rules.
    let mut combined = Graph::new();
    for (g, _) in [
        paper::figure1_g1(),
        paper::figure1_g2(),
        paper::figure1_g3(),
        paper::figure1_g4(),
    ] {
        let offset = combined.node_count() as u32;
        for id in g.node_ids() {
            let data = g.node(id);
            combined.add_node(data.label, data.attrs.clone());
        }
        for e in g.edges() {
            combined
                .add_edge(NodeId(e.src.0 + offset), NodeId(e.dst.0 + offset), e.label)
                .unwrap();
        }
    }
    let sigma = paper::paper_rule_set();
    let expected = legacy_violations(&sigma, &combined);
    assert_eq!(expected.len(), 4, "the four φ-rule violations");

    assert_eq!(dect_on(&sigma, &combined).violations, expected);
    let snapshot = combined.freeze();
    assert_eq!(dect_on(&sigma, &snapshot).violations, expected);
    for p in [1, 2, 4] {
        assert_eq!(
            pdect_on(&sigma, &snapshot, &DetectorConfig::with_processors(p)).violations,
            expected,
            "p={p}"
        );
    }
}

#[test]
fn plan_cache_epochs_stay_correct_across_a_compaction() {
    let sigma = rules();
    for case in 0..8 {
        let mut rng = StdRng::seed_from_u64(9_300 + case);
        let graph = random_graph(&mut rng);
        let delta = random_update(&mut rng, &graph);
        let updated = delta
            .applied_to(&graph)
            .expect("random updates apply cleanly");

        let base_path = temp_path("epoch-base");
        SnapshotWriter::new()
            .write(&graph.freeze(), &base_path)
            .expect("snapshot writes");
        let mapped = MmapSnapshot::load(&base_path).expect("snapshot loads");

        // First run compiles every plan; the second serves them from cache.
        let cache = PlanCache::for_epoch(mapped.epoch());
        let first = dect_on_cached(&sigma, &mapped, &cache).violations;
        assert_eq!(first, legacy_violations(&sigma, &graph), "case {case}");
        assert!(cache.misses() > 0, "first run compiles (case {case})");
        let misses_after_first = cache.misses();
        let second = dect_on_cached(&sigma, &mapped, &cache).violations;
        assert_eq!(second, first, "case {case}");
        assert!(cache.hits() > 0, "second run reuses plans (case {case})");
        assert_eq!(
            cache.misses(),
            misses_after_first,
            "second run compiles nothing (case {case})"
        );

        // Compact ΔG into the next epoch and start a fresh cache for it —
        // the serving stack's invalidation contract.
        let next_path = temp_path("epoch-next");
        let report = CompactionWriter::new()
            .compact_file(&base_path, &delta, &next_path)
            .expect("compaction succeeds");
        let remapped = MmapSnapshot::load(&next_path).expect("compacted snapshot loads");
        assert_eq!(remapped.epoch(), report.epoch, "case {case}");
        assert_ne!(remapped.epoch(), mapped.epoch(), "case {case}");

        let next_cache = PlanCache::for_epoch(remapped.epoch());
        assert_ne!(next_cache.epoch(), cache.epoch(), "case {case}");
        assert!(next_cache.is_empty(), "no stale plans leak (case {case})");
        let after = dect_on_cached(&sigma, &remapped, &next_cache).violations;
        assert_eq!(
            after,
            legacy_violations(&sigma, &updated),
            "post-compaction detection (case {case})"
        );

        std::fs::remove_file(&base_path).ok();
        std::fs::remove_file(&next_path).ok();
    }
}

/// Which test a stepwise expansion applies to each extended partial
/// assignment.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Check {
    /// Every pattern edge and every literal (`partial_viable`).
    Full,
    /// What the plan step newly decides (`step_viable`).
    Scheduled,
}

/// The candidates a stepwise expansion tries for `step`: the nodes its
/// compiled seed choice names when no assigned variable anchors it (as the
/// planned search draws them), else the whole label partition of its
/// variable — a superset of the anchored runs, which the check under test
/// must narrow down.
fn step_candidates<G: GraphView>(graph: &G, rule: &Ngd, step: &PlanStep) -> Vec<NodeId> {
    if let (
        true,
        Some(SeedChoice::Triple {
            src_label,
            edge_label,
            dst_label,
            want_src,
        }),
    ) = (step.anchors.is_empty(), step.seed)
    {
        if let Some(nodes) =
            graph.labeled_triple_endpoints(src_label, edge_label, dst_label, want_src)
        {
            return nodes;
        }
    }
    match rule.pattern.label(step.var) {
        WILDCARD => graph.node_ids_vec(),
        label => graph.nodes_with_label_vec(label),
    }
}

/// Expand `seeds` breadth-first over `plan`, one plan step per round.
/// Returns the violations and the number of viable partial assignments
/// after each searched step, or `None` when the seeds themselves are
/// rejected.
fn stepwise<G: GraphView>(
    matcher: &Matcher<'_, G>,
    graph: &G,
    plan: &MatchPlan,
    rule: &Ngd,
    seeds: &[(Var, NodeId)],
    check: Check,
) -> Option<(BTreeSet<Vec<NodeId>>, Vec<usize>)> {
    let mut assignment = vec![None; rule.pattern.node_count()];
    for &(var, node) in seeds {
        if !matcher.node_matches_var(var, node)
            || assignment[var.index()].is_some_and(|n| n != node)
        {
            return None;
        }
        assignment[var.index()] = Some(node);
    }
    if !matcher.partial_viable(Some(rule), &assignment) {
        return None;
    }
    let mut tally = FastPathTally::default();
    let mut frontier = vec![assignment];
    let mut viable_per_step = Vec::new();
    for depth in 0..plan.len() {
        let var = plan.var_at(depth);
        if frontier.first().is_some_and(|a| a[var.index()].is_some()) {
            continue; // a seed step
        }
        let mut next = Vec::new();
        let candidates = step_candidates(graph, rule, &plan.steps[depth]);
        for partial in &frontier {
            for &candidate in &candidates {
                let mut extended = partial.clone();
                extended[var.index()] = Some(candidate);
                let viable = match check {
                    Check::Full => matcher.partial_viable(Some(rule), &extended),
                    Check::Scheduled => {
                        matcher.step_viable(plan, depth, Some(rule), &extended, &mut tally)
                    }
                };
                if viable {
                    next.push(extended);
                }
            }
        }
        viable_per_step.push(next.len());
        frontier = next;
    }
    let violations = frontier
        .into_iter()
        .map(|a| a.into_iter().map(Option::unwrap).collect::<Vec<NodeId>>())
        .filter(|m| ngd_core::is_violation(rule, graph, m))
        .collect();
    Some((violations, viable_per_step))
}

/// One seeded (or unseeded) expansion of `rule` over `graph`, four ways:
/// the recursive planned search, the legacy-order search, and the stepwise
/// expansion under the full and under the scheduled check.  All four must
/// find the same violations; the two stepwise runs must keep the same
/// number of partial assignments alive after every step; and the recursive
/// search must have expanded exactly those.
fn check_expansion<G: GraphView>(
    graph: &G,
    rule: &Ngd,
    seeds: &[(Var, NodeId)],
    forbidden: Option<(&IdMap<EdgeRef, usize>, usize)>,
    ctx: &str,
) -> BTreeSet<Vec<NodeId>> {
    let ctx = format!("{ctx}: {} seeds {seeds:?}", rule.id);
    let matcher = || {
        let m = Matcher::new(&rule.pattern, graph);
        match forbidden {
            Some((ranks, below)) => m.with_forbidden(ranks, below),
            None => m,
        }
    };
    let seed_vars: Vec<Var> = seeds.iter().map(|&(v, _)| v).collect();
    let plan = Arc::new(compile_rule_plan(rule, graph, &seed_vars));

    let (legacy, _) = matcher()
        .with_legacy_order()
        .expand_seeded(seeds, Some(rule));
    let legacy: BTreeSet<Vec<NodeId>> = legacy.into_iter().collect();
    let (planned, stats) = matcher()
        .with_plan(Arc::clone(&plan))
        .expand_seeded(seeds, Some(rule));
    let planned_count = planned.len();
    let planned: BTreeSet<Vec<NodeId>> = planned.into_iter().collect();
    assert_eq!(planned.len(), planned_count, "{ctx}: a match emitted twice");
    assert_eq!(planned, legacy, "{ctx}: scheduled vs legacy order");

    let full = stepwise(&matcher(), graph, &plan, rule, seeds, Check::Full);
    let scheduled = stepwise(&matcher(), graph, &plan, rule, seeds, Check::Scheduled);
    assert_eq!(scheduled, full, "{ctx}: step check vs full check");
    match full {
        None => {
            assert!(planned.is_empty(), "{ctx}");
            assert_eq!(stats.expanded, 0, "{ctx}: rejected seeds expand nothing");
        }
        Some((violations, viable_per_step)) => {
            assert_eq!(violations, planned, "{ctx}: stepwise vs recursive");
            // One search-tree node per viable partial assignment, plus the
            // root and one pass-through per distinct seeded variable.
            let nodes = 1 + plan.seeds.len() + viable_per_step.iter().sum::<usize>();
            assert_eq!(stats.expanded, nodes, "{ctx}: {viable_per_step:?}");
        }
    }
    planned
}

/// Every expansion shape of every rule over one view of a graph: unseeded,
/// each variable seeded with each node, and — `forbidden` permitting — the
/// update pivots of `edges` with the earlier ones forbidden.
fn check_view<G: GraphView>(
    graph: &G,
    sigma: &RuleSet,
    edges: &[EdgeRef],
    ctx: &str,
) -> Vec<BTreeSet<Vec<NodeId>>> {
    let mut found = Vec::new();
    let ranks = edge_ranks(edges);
    for rule in sigma.iter() {
        found.push(check_expansion(graph, rule, &[], None, ctx));
        for var in rule.pattern.vars() {
            for node in 0..graph.node_count() as u32 + 1 {
                let seeds = [(var, NodeId(node))];
                found.push(check_expansion(graph, rule, &seeds, None, ctx));
            }
        }
        for (idx, edge) in edges.iter().enumerate() {
            for pivot in update_pivots(rule, graph, std::iter::once(*edge)) {
                let pe = rule.pattern.edges()[pivot.pattern_edge];
                let seeds = [(pe.src, pivot.edge.src), (pe.dst, pivot.edge.dst)];
                found.push(check_expansion(
                    graph,
                    rule,
                    &seeds,
                    Some((&ranks, idx)),
                    ctx,
                ));
            }
        }
    }
    found
}

#[test]
fn scheduled_literal_checks_match_the_full_check_on_every_backend() {
    let sigma = rules();
    let writer = SnapshotWriter::new();
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(9_400 + case);
        let graph = random_graph(&mut rng);
        let delta = random_update(&mut rng, &graph);
        let updated = delta
            .applied_to(&graph)
            .expect("random updates apply cleanly");
        // The inserted edges exist in the updated graph: they are the
        // pivots, each forbidding the ones before it.
        let pivots: Vec<EdgeRef> = delta.insertions().collect();

        let adjacency = check_view(&updated, &sigma, &pivots, &format!("adjacency {case}"));

        let snapshot = updated.freeze();
        let csr = check_view(&snapshot, &sigma, &pivots, &format!("csr {case}"));
        assert_eq!(csr, adjacency, "case {case}");

        let path = temp_path("schedule");
        writer.write(&snapshot, &path).expect("snapshot writes");
        let mapped = MmapSnapshot::load(&path).expect("snapshot loads");
        let mmap = check_view(&mapped, &sigma, &pivots, &format!("mmap {case}"));
        std::fs::remove_file(&path).ok();
        assert_eq!(mmap, adjacency, "case {case}");

        // The same graph as base ⊕ ΔG: the nodes ΔG touches have no
        // contiguous runs, so anchored steps mix borrowed and copied lists.
        let base = graph.freeze();
        let overlay = DeltaOverlay::new(&base, &delta);
        let overlaid = check_view(&overlay, &sigma, &pivots, &format!("overlay {case}"));
        assert_eq!(overlaid, adjacency, "case {case}");
    }
}
