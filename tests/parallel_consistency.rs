//! The parallel detectors must return exactly the same answers as their
//! sequential yardsticks, for every processor count and every ablation
//! variant — parallelism and workload balancing may never change results.

use ngd_core::{Expr, Literal, Ngd, Pattern, RuleSet};
use ngd_detect::{
    dect, dect_on, inc_dect, pdect, pdect_on, pinc_dect, AlgorithmKind, DetectorConfig,
};
use ngd_graph::{AttrMap, Graph, NodeId, Value};
use ngd_integration_tests::{knowledge_workload, social_workload, update_for};

#[test]
fn pdect_matches_dect_for_every_processor_count() {
    let (graph, sigma) = knowledge_workload(61);
    let reference = dect(&sigma, &graph);
    for p in [1, 2, 3, 5, 8] {
        let parallel = pdect(&sigma, &graph, &DetectorConfig::with_processors(p));
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
    for p in [1, 2, 4, 6] {
        let base = DetectorConfig::with_processors(p);
        for (config, expected) in [
            (base.hybrid(), AlgorithmKind::PIncDect),
            (base.no_splitting(), AlgorithmKind::PIncDectNs),
            (base.no_balancing(), AlgorithmKind::PIncDectNb),
            (base.no_hybrid(), AlgorithmKind::PIncDectNo),
        ] {
            let report = pinc_dect(&sigma, &graph, &delta, &config);
            assert_eq!(report.algorithm, expected);
            assert_eq!(
                report.delta, reference.delta,
                "{expected:?} with p={p} diverged from IncDect"
            );
        }
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
fn aggressive_splitting_and_balancing_settings_do_not_change_results() {
    let (graph, sigma) = knowledge_workload(73);
    let delta = update_for(&graph, 0.10, 73);
    let reference = inc_dect(&sigma, &graph, &delta);
    // Tiny latency constant → split as often as possible; 1 ms interval →
    // balance as often as possible; extreme thresholds in both directions.
    let config = DetectorConfig {
        processors: 5,
        latency_c: 0.1,
        balance_interval_ms: 1,
        skew_high: 1.1,
        skew_low: 0.95,
        work_splitting: true,
        workload_balancing: true,
    };
    let report = pinc_dect(&sigma, &graph, &delta, &config);
    assert_eq!(report.delta, reference.delta);
    // With such a small latency constant at least some unit must have split
    // (the knowledge graph has hub nodes with sizable adjacency lists).
    assert!(report.cost.splits + report.cost.local_expansions > 0);
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
    // Every inspected candidate is charged as scanned work, and every split
    // or migration pays at least one latency unit `C`.
    assert_eq!(
        report.cost.scanned,
        report.stats.candidates_inspected as u64
    );
    let messages = (report.cost.splits + report.cost.migrations) as f64;
    assert!(report.cost.latency_units >= config.latency_c * messages);
    // The batch detector charges its scan the same way and never pays
    // latency: it neither splits nor migrates.
    let batch = pdect(&sigma, &graph, &config);
    assert_eq!(batch.cost.scanned, batch.stats.candidates_inspected as u64);
    assert_eq!(batch.cost.latency_units, 0.0);
    // The modelled cost is monotone in the processor count's inverse.
    assert!(report.cost.modelled_cost(1) >= report.cost.modelled_cost(8));
}

#[test]
fn pdect_on_a_frozen_graph_matches_dect_on_for_small_processor_counts() {
    let (graph, sigma) = knowledge_workload(89);
    let snapshot = graph.freeze();
    let reference = dect_on(&sigma, &snapshot);
    assert!(!reference.violations.is_empty());
    let one = pdect_on(&sigma, &snapshot, &DetectorConfig::with_processors(1));
    for p in [1, 2, 3, 4] {
        let parallel = pdect_on(&sigma, &snapshot, &DetectorConfig::with_processors(p));
        assert_eq!(parallel.violations, reference.violations, "p={p}");
        // Each worker walks its own stride of every rule's roots: the
        // strides partition the roots, so the work does not depend on p.
        assert_eq!(parallel.stats.expanded, one.stats.expanded, "p={p}");
        assert_eq!(
            parallel.stats.candidates_inspected, one.stats.candidates_inspected,
            "p={p}"
        );
        assert_eq!(
            parallel.stats.matches_found, one.stats.matches_found,
            "p={p}"
        );
    }
}

/// Two `hub` nodes (fewer roots than workers once p > 2), each with `leaf`
/// neighbours; hub 0 also carries a self-loop, hub 1 does not.
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
    // `hub` is the rarest label, so `h` is the root of both rules.
    let mut q = Pattern::new();
    let h = q.add_node("h", "hub");
    let l = q.add_node("l", "leaf");
    q.add_edge(h, l, "has");
    let few_roots = Ngd::new("few_roots", q, vec![], vec![Literal::le(val(l), val(h))]).unwrap();

    // The self-loop is decided by the root alone: it is part of the
    // per-root validation, not of any search step.
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

    let sigma = RuleSet::from_rules(vec![few_roots, looped]);
    let snapshot = two_hubs().freeze();
    let reference = dect_on(&sigma, &snapshot);
    assert!(reference.violations.of_rule("few_roots").count() > 0);
    // Hub 1 has no self-loop: only hub 0's even leaves 0 and 2 violate.
    assert_eq!(reference.violations.of_rule("looped").count(), 2);
    for p in [1, 2, 3, 4] {
        let config = DetectorConfig::with_processors(p);
        let parallel = pdect_on(&sigma, &snapshot, &config);
        assert_eq!(parallel.violations, reference.violations, "csr p={p}");
        let adjacency = pdect_on(&sigma, &two_hubs(), &config);
        assert_eq!(
            adjacency.violations, reference.violations,
            "adjacency p={p}"
        );
    }
}
