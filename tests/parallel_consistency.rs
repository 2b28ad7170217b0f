//! The parallel detectors must return exactly the same answers as their
//! sequential yardsticks, for every processor count — parallelism may
//! never change results.

use ngd_core::{Expr, Literal, Ngd, Pattern, RuleSet};
use ngd_detect::{
    dect, dect_on, inc_dect, pdect, pdect_on, pinc_dect, AlgorithmKind, DeltaReport,
    DetectorConfig, SearchStats,
};
use ngd_graph::{AttrMap, Graph, NodeId, Value};
use ngd_integration_tests::{knowledge_workload, social_workload, update_for};
use ngd_match::{compile_rule_plan, Matcher};

/// The four search counts a run reports.
fn counts(s: &SearchStats) -> (usize, usize, usize, usize) {
    (
        s.expanded,
        s.candidates_inspected,
        s.matches_found,
        s.gallop_intersections,
    )
}

#[test]
fn pdect_matches_dect_for_every_processor_count() {
    let (graph, sigma) = knowledge_workload(61);
    let reference = dect(&sigma, &graph);
    assert_eq!(reference.algorithm, AlgorithmKind::Dect);
    for p in [1, 2, 3, 5, 8] {
        let parallel = pdect(&sigma, &graph, &DetectorConfig::with_processors(p));
        assert_eq!(parallel.algorithm, AlgorithmKind::PDect);
        assert_eq!(
            parallel.violations, reference.violations,
            "PDect(p={p}) diverged"
        );
        assert_eq!(parallel.processors, p);
    }
}

#[test]
fn pincdect_matches_incdect_for_every_variant_and_processor_count() {
    let (graph, sigma) = knowledge_workload(67);
    let delta = update_for(&graph, 0.12, 67);
    let reference = inc_dect(&sigma, &graph, &delta);
    assert_eq!(reference.algorithm, AlgorithmKind::IncDect);
    // Dealing pivot groups to workers moves work, it never adds any: the
    // search tree is IncDect's, whatever p.
    let counts = |r: &DeltaReport| counts(&r.stats);
    for p in [1, 2, 4, 5, 6] {
        let report = pinc_dect(&sigma, &graph, &delta, &DetectorConfig::with_processors(p));
        assert_eq!(report.algorithm, AlgorithmKind::PIncDect);
        assert_eq!(
            report.delta, reference.delta,
            "PIncDect with p={p} diverged from IncDect"
        );
        assert_eq!(counts(&report), counts(&reference), "p={p}");
    }
}

#[test]
fn social_workload_parallel_consistency() {
    let (graph, sigma) = social_workload(71);
    let delta = update_for(&graph, 0.15, 71);
    let reference = inc_dect(&sigma, &graph, &delta);
    for p in [2, 4] {
        let report = pinc_dect(&sigma, &graph, &delta, &DetectorConfig::with_processors(p));
        assert_eq!(report.delta, reference.delta);
    }
}

#[test]
fn parallel_runs_are_deterministic_in_their_results() {
    // Scheduling is nondeterministic; results must not be.
    let (graph, sigma) = knowledge_workload(79);
    let delta = update_for(&graph, 0.10, 79);
    let config = DetectorConfig::with_processors(4);
    let first = pinc_dect(&sigma, &graph, &delta, &config);
    for _ in 0..3 {
        let again = pinc_dect(&sigma, &graph, &delta, &config);
        assert_eq!(again.delta, first.delta);
    }
}

#[test]
fn work_and_violations_are_reported_in_the_ledger() {
    let (graph, sigma) = knowledge_workload(83);
    let delta = update_for(&graph, 0.10, 83);
    let config = DetectorConfig::with_processors(4);
    let report = pinc_dect(&sigma, &graph, &delta, &config);
    if !report.delta.is_empty() {
        assert!(report.stats.expanded > 0);
        assert!(report.stats.candidates_inspected > 0);
    }
    // Every inspected candidate is charged as scanned work.
    assert_eq!(
        report.cost.scanned,
        report.stats.candidates_inspected as u64
    );
    // The batch detectors charge their scan the same way, `Dect` included.
    for batch in [pdect(&sigma, &graph, &config), dect(&sigma, &graph)] {
        assert_eq!(batch.cost.scanned, batch.stats.candidates_inspected as u64);
        assert!(batch.cost.scanned > 0);
    }
}

#[test]
fn pdect_on_a_frozen_graph_matches_dect_on_for_small_processor_counts() {
    let (graph, sigma) = knowledge_workload(89);
    let snapshot = graph.freeze();
    let reference = dect_on(&sigma, &snapshot);
    assert_eq!(reference.algorithm, AlgorithmKind::Dect);
    assert!(!reference.violations.is_empty());
    for p in [1, 2, 3, 4, 5, 8] {
        let parallel = pdect_on(&sigma, &snapshot, &DetectorConfig::with_processors(p));
        assert_eq!(parallel.algorithm, AlgorithmKind::PDect);
        assert_eq!(parallel.violations, reference.violations, "p={p}");
        // Each worker walks its own stride of every rule's first-step
        // candidates, and the caller counts the draw once: the search tree
        // is Dect's, whatever p.
        assert_eq!(counts(&parallel.stats), counts(&reference.stats), "p={p}");
    }
}

/// Two `hub` nodes (fewer first-step candidates than workers once p > 2),
/// each with `leaf` neighbours; hub 0 also carries a self-loop, hub 1 does
/// not.
fn two_hubs() -> Graph {
    let mut g = Graph::new();
    let hubs: Vec<NodeId> = (0..2i64)
        .map(|i| g.add_node_named("hub", AttrMap::from_pairs([("val", Value::Int(5 * i))])))
        .collect();
    for i in 0..9i64 {
        let leaf = g.add_node_named("leaf", AttrMap::from_pairs([("val", Value::Int(i))]));
        g.add_edge_named(hubs[(i % 2) as usize], leaf, "has")
            .unwrap();
    }
    g.add_edge_named(hubs[0], hubs[0], "self").unwrap();
    g.add_edge_named(hubs[0], hubs[1], "peer").unwrap();
    g
}

#[test]
fn pdect_with_fewer_roots_than_workers_and_a_self_loop_on_the_root() {
    let val = |v| Expr::attr(v, "val");
    // `hub` is the rarest label, so both rules' plans start at `h` and the
    // two hubs are the only first-step candidates to deal out.
    let mut q = Pattern::new();
    let h = q.add_node("h", "hub");
    let l = q.add_node("l", "leaf");
    q.add_edge(h, l, "has");
    let few_roots = Ngd::new("few_roots", q, vec![], vec![Literal::le(val(l), val(h))]).unwrap();

    // The self-loop and the premise are decided by `h` alone: both are
    // checked at the first step, on each worker's own candidates.
    let mut q = Pattern::new();
    let h = q.add_node("h", "hub");
    let l = q.add_node("l", "leaf");
    q.add_edge(h, h, "self").add_edge(h, l, "has");
    let looped = Ngd::new(
        "looped",
        q,
        vec![Literal::ge(val(h), Expr::constant(0))],
        vec![Literal::gt(val(l), Expr::constant(2))],
    )
    .unwrap();

    let snapshot = two_hubs().freeze();
    for rule in [&few_roots, &looped] {
        let first = &compile_rule_plan(rule, &snapshot, &[]).steps[0];
        assert_eq!(first.var, h, "{}", rule.id);
        let (roots, _) = Matcher::new(&rule.pattern, &snapshot).first_step_candidates(rule);
        assert_eq!(roots.len(), 2, "{}", rule.id);
    }
    let first = &compile_rule_plan(&looped, &snapshot, &[]).steps[0];
    assert_eq!((first.self_loops.len(), first.premise_checks.len()), (1, 1));

    let sigma = RuleSet::from_rules(vec![few_roots, looped]);
    let reference = dect_on(&sigma, &snapshot);
    assert!(reference.violations.of_rule("few_roots").count() > 0);
    // Hub 1 has no self-loop: only hub 0's even leaves 0 and 2 violate.
    assert_eq!(reference.violations.of_rule("looped").count(), 2);
    for p in [1, 2, 3, 4] {
        let config = DetectorConfig::with_processors(p);
        let parallel = pdect_on(&sigma, &snapshot, &config);
        assert_eq!(parallel.violations, reference.violations, "csr p={p}");
        assert_eq!(counts(&parallel.stats), counts(&reference.stats), "p={p}");
        let adjacency = pdect_on(&sigma, &two_hubs(), &config);
        assert_eq!(
            adjacency.violations, reference.violations,
            "adjacency p={p}"
        );
    }
}
