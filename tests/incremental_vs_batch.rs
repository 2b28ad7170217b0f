//! `IncDect` and `PIncDect` must compute exactly the delta a batch
//! recomputation would: `ΔVio⁺ = Vio(G ⊕ ΔG) \ Vio(G)` and
//! `ΔVio⁻ = Vio(G) \ Vio(G ⊕ ΔG)`, with `Vio` computed by `Dect` over the
//! materialised graphs.  These tests drive them with many different update
//! mixes (insert-only, delete-only, mixed, overlapping, degenerate) on both
//! dataset families.

use ngd_core::paper;
use ngd_core::RuleSet;
use ngd_detect::{
    dect, inc_dect, inc_dect_prepared, pinc_dect_prepared, pinc_dect_prepared_streaming,
    DetectorConfig, VioSide,
};
use ngd_graph::{intern, BatchUpdate, Dir};
use ngd_integration_tests::{knowledge_workload, oracle_delta, social_workload, update_for};
use ngd_match::{DeltaViolations, PlanCache};
use std::sync::Mutex;

/// `IncDect`, `PIncDect` at p ∈ {1, 2, 3}, and what `PIncDect` streams at
/// p = 2, each against the batch oracle.
fn assert_matches_oracle(graph: &ngd_graph::Graph, sigma: &RuleSet, delta: &BatchUpdate) {
    let updated = delta.applied_to(graph).expect("update applies");
    let (added, removed) = oracle_delta(sigma, graph, &updated);
    let report = inc_dect_prepared(sigma, graph, &updated, delta);
    assert_eq!(report.delta.added, added, "ΔVio⁺ mismatch");
    assert_eq!(report.delta.removed, removed, "ΔVio⁻ mismatch");

    for p in [1, 2, 3] {
        let config = DetectorConfig::with_processors(p);
        let report = pinc_dect_prepared(sigma, graph, &updated, delta, &config);
        assert_eq!(report.delta.added, added, "ΔVio⁺ mismatch at p={p}");
        assert_eq!(report.delta.removed, removed, "ΔVio⁻ mismatch at p={p}");
    }

    // The stream, collected with its raw delivery count: a duplicate would
    // vanish into the sets but not from the count.
    let streamed = Mutex::new((DeltaViolations::new(), 0));
    pinc_dect_prepared_streaming(
        sigma,
        graph,
        &updated,
        delta,
        &DetectorConfig::with_processors(2),
        &PlanCache::new(),
        Some(&|side, violation| {
            let mut guard = streamed.lock().unwrap();
            match side {
                VioSide::Added => guard.0.added.insert(violation.clone()),
                VioSide::Removed => guard.0.removed.insert(violation.clone()),
            };
            guard.1 += 1;
        }),
    );
    let (streamed, deliveries) = streamed.into_inner().unwrap();
    assert_eq!(streamed.added, added, "streamed ΔVio⁺ mismatch");
    assert_eq!(streamed.removed, removed, "streamed ΔVio⁻ mismatch");
    assert_eq!(
        deliveries,
        added.len() + removed.len(),
        "a repeated delivery"
    );
}

#[test]
fn knowledge_graph_updates_of_many_sizes_match_the_oracle() {
    let (graph, sigma) = knowledge_workload(41);
    for (fraction, seed) in [(0.02, 1u64), (0.05, 2), (0.10, 3), (0.25, 4)] {
        let delta = update_for(&graph, fraction, seed);
        assert_matches_oracle(&graph, &sigma, &delta);
    }
}

#[test]
fn social_graph_updates_match_the_oracle() {
    let (graph, sigma) = social_workload(43);
    for seed in 0..4u64 {
        let delta = update_for(&graph, 0.08, seed);
        assert_matches_oracle(&graph, &sigma, &delta);
    }
}

#[test]
fn insert_only_and_delete_only_batches() {
    let (graph, sigma) = knowledge_workload(47);
    let inserts = ngd_datagen::generate_update(
        &graph,
        &ngd_datagen::UpdateConfig::fraction(0.1)
            .with_gamma(f64::INFINITY)
            .with_seed(9),
    );
    assert_eq!(inserts.deletions().count(), 0);
    assert_matches_oracle(&graph, &sigma, &inserts);

    let deletes = ngd_datagen::generate_update(
        &graph,
        &ngd_datagen::UpdateConfig::fraction(0.1)
            .with_gamma(0.0)
            .with_seed(9),
    );
    assert_eq!(deletes.insertions().count(), 0);
    assert_matches_oracle(&graph, &sigma, &deletes);
}

#[test]
fn delete_then_reinsert_the_same_edge_is_a_noop_delta() {
    // The degenerate case called out in the matcher docs: an edge deleted
    // and re-inserted in the same batch changes nothing, so the delta must
    // be empty even though both edge lists are non-empty.
    let (graph, village) = paper::figure1_g2();
    let sigma = RuleSet::from_rules(vec![paper::phi2()]);
    let total_edge = graph
        .neighbors(village, Dir::Out)
        .iter()
        .find(|&&(_, l)| l == intern("populationTotal"))
        .map(|&(n, l)| (village, n, l))
        .unwrap();
    let mut delta = BatchUpdate::new();
    delta.delete_edge(total_edge.0, total_edge.1, total_edge.2);
    delta.insert_edge(total_edge.0, total_edge.1, total_edge.2);
    let updated = delta.applied_to(&graph).expect("delete+reinsert applies");
    assert_eq!(updated.edge_count(), graph.edge_count());
    let report = inc_dect_prepared(&sigma, &graph, &updated, &delta);
    assert!(
        report.delta.is_empty(),
        "a net no-op batch must produce an empty delta, got {:?}",
        report.delta
    );
}

#[test]
fn violations_never_double_count_across_multiple_updated_edges() {
    // A violation whose match contains several updated edges must appear in
    // the delta exactly once (the pivot de-duplication of Section 6.2).
    let (graph, _) = paper::figure1_g2();
    let sigma = RuleSet::from_rules(vec![paper::phi2()]);
    // Delete *all three* population edges: the single violation of φ2
    // disappears, and all three deletions pivot into the same match.
    let village = graph.nodes_with_label(intern("area"))[0];
    let mut delta = BatchUpdate::new();
    for &(dst, label) in graph.neighbors(village, Dir::Out) {
        delta.delete_edge(village, dst, label);
    }
    let report = inc_dect(&sigma, &graph, &delta);
    assert_eq!(report.delta.removed.len(), 1);
    assert!(report.delta.added.is_empty());
}

#[test]
fn incremental_work_tracks_the_update_not_the_graph() {
    // Localizability: for a fixed absolute update size, the candidates
    // inspected by IncDect stay in the same ballpark as the graph grows.
    let small = ngd_datagen::generate_knowledge(
        &ngd_datagen::KnowledgeConfig::dbpedia_like(2).with_seed(1),
    )
    .graph;
    let large = ngd_datagen::generate_knowledge(
        &ngd_datagen::KnowledgeConfig::dbpedia_like(16).with_seed(1),
    )
    .graph;
    let sigma = paper::paper_rule_set();

    let delta_small = update_for(&small, 20.0 / small.edge_count() as f64, 7);
    let delta_large = update_for(&large, 20.0 / large.edge_count() as f64, 7);
    let report_small = inc_dect(&sigma, &small, &delta_small);
    let report_large = inc_dect(&sigma, &large, &delta_large);

    // The graph grew ~8x; the incremental detector's inspected-candidate
    // count must grow far less than that (it is bounded by the update's
    // dΣ-neighbourhood, whose size depends on local degrees, not |G|).
    let small_work = report_small.stats.candidates_inspected.max(1) as f64;
    let large_work = report_large.stats.candidates_inspected.max(1) as f64;
    assert!(
        large_work / small_work < 4.0,
        "incremental work grew with |G|: {small_work} -> {large_work}"
    );

    // Batch detection, in contrast, does grow with the graph.
    let batch_small = dect(&sigma, &small).stats.candidates_inspected as f64;
    let batch_large = dect(&sigma, &large).stats.candidates_inspected as f64;
    assert!(
        batch_large / batch_small > 4.0,
        "batch work should scale with |G|"
    );
}

#[test]
fn gamma_zero_updates_only_remove_violations_on_clean_graphs() {
    // On a graph whose violations all involve existing edges, a
    // deletion-only update can only shrink the violation set.
    let (graph, sigma) = knowledge_workload(53);
    let deletes = ngd_datagen::generate_update(
        &graph,
        &ngd_datagen::UpdateConfig::fraction(0.15)
            .with_gamma(0.0)
            .with_seed(3),
    );
    let report = inc_dect(&sigma, &graph, &deletes);
    assert!(
        report.delta.added.is_empty(),
        "deletions cannot introduce violations"
    );
}
