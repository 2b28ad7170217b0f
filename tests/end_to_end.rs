//! End-to-end pipeline tests: generate data → generate/parse rules →
//! detect in batch → update → detect incrementally → maintain the
//! violation set — everything a downstream user of the workspace would do.

use ngd_core::{paper, RuleSet};
use ngd_detect::{dect, inc_dect, pdect, pinc_dect, DetectorConfig};
use ngd_graph::GraphStats;
use ngd_integration_tests::{knowledge_workload, oracle_delta, social_workload, update_for};

#[test]
fn knowledge_graph_pipeline_detects_and_maintains_violations() {
    let (graph, sigma) = knowledge_workload(11);
    let base = dect(&sigma, &graph);
    assert!(
        base.violation_count() > 0,
        "the seeded knowledge graph must contain violations"
    );

    // Apply an update and maintain the violation set incrementally.
    let delta = update_for(&graph, 0.08, 11);
    let updated = delta.applied_to(&graph).expect("update applies");
    let report = inc_dect(&sigma, &graph, &delta);
    let maintained = base.violations.apply_delta(&report.delta);
    let recomputed = dect(&sigma, &updated).violations;
    assert_eq!(
        maintained, recomputed,
        "Vio(G) ⊕ ΔVio must equal Vio(G ⊕ ΔG)"
    );
}

#[test]
fn social_graph_pipeline_flags_every_seeded_fake_account() {
    let generated = ngd_datagen::generate_social(
        &ngd_datagen::SocialConfig::pokec_like(2)
            .with_fake_rate(0.2)
            .with_seed(5),
    );
    let sigma = RuleSet::from_rules(vec![paper::phi4(1, 1, 10_000)]);
    let report = dect(&sigma, &generated.graph);
    for &fake in generated.seeded_for("phi4") {
        assert!(
            report.violations.iter().any(|v| v.involves(fake)),
            "seeded fake account {fake:?} was not flagged"
        );
    }
    // An error-free generation is violation-free.
    let clean = ngd_datagen::generate_social(
        &ngd_datagen::SocialConfig::pokec_like(2)
            .with_fake_rate(0.0)
            .with_seed(5),
    );
    assert_eq!(dect(&sigma, &clean.graph).violation_count(), 0);
}

#[test]
fn rules_written_in_the_dsl_behave_like_programmatic_ones() {
    let (graph, _) = knowledge_workload(3);
    let parsed = ngd_lang::parse_rules(
        r#"
        RULE phi2:
          MATCH (x:area)-[:femalePopulation]->(y:integer),
                (x)-[:malePopulation]->(z:integer),
                (x)-[:populationTotal]->(w:integer)
          => y.val + z.val = w.val
        RULE phi1:
          MATCH (x)-[:wasCreatedOnDate]->(y:date),
                (x)-[:wasDestroyedOnDate]->(z:date)
          => z.val - y.val >= 1
        "#,
    )
    .expect("rule file parses");
    let programmatic = RuleSet::from_rules(vec![paper::phi2(), paper::phi1(1)]);
    let from_dsl = dect(&parsed, &graph).violations;
    let from_api = dect(&programmatic, &graph).violations;
    assert_eq!(from_dsl.len(), from_api.len());
    // Violations differ only in the rule-id strings, which happen to match
    // here, so the sets are identical.
    assert_eq!(from_dsl, from_api);
}

#[test]
fn every_detector_agrees_on_the_same_workload() {
    let (graph, sigma) = social_workload(17);
    let delta = update_for(&graph, 0.10, 17);
    let updated = delta.applied_to(&graph).expect("update applies");

    let batch = dect(&sigma, &updated);
    let pbatch = pdect(&sigma, &updated, &DetectorConfig::with_processors(3));
    assert_eq!(batch.violations, pbatch.violations);

    let (added, removed) = oracle_delta(&sigma, &graph, &updated);
    let inc = inc_dect(&sigma, &graph, &delta);
    assert_eq!(inc.delta.added, added);
    assert_eq!(inc.delta.removed, removed);

    let pinc = pinc_dect(&sigma, &graph, &delta, &DetectorConfig::with_processors(3));
    assert_eq!(pinc.delta, inc.delta);
}

#[test]
fn graph_io_round_trips_through_json_and_text() {
    let (graph, sigma) = knowledge_workload(23);
    let json = ngd_graph::io::to_json(&graph);
    let from_json = ngd_graph::io::from_json(&json).expect("JSON round-trip");
    assert_eq!(from_json.node_count(), graph.node_count());
    assert_eq!(from_json.edge_count(), graph.edge_count());
    assert_eq!(
        dect(&sigma, &from_json).violations,
        dect(&sigma, &graph).violations,
        "round-tripped graphs yield identical violations"
    );

    let text = ngd_graph::io::to_text(&graph);
    let from_text = ngd_graph::io::from_text(&text).expect("text round-trip");
    assert_eq!(from_text.node_count(), graph.node_count());
    assert_eq!(from_text.edge_count(), graph.edge_count());
}

#[test]
fn rule_sets_round_trip_through_json() {
    let (_, sigma) = knowledge_workload(29);
    let json = sigma.to_json();
    let back = RuleSet::from_json(&json).expect("rule-set JSON parses");
    assert_eq!(back.len(), sigma.len());
    for (a, b) in back.iter().zip(sigma.iter()) {
        assert_eq!(a.id, b.id);
        assert_eq!(a.pattern.node_count(), b.pattern.node_count());
        assert_eq!(a.literal_count(), b.literal_count());
    }
}

#[test]
fn dataset_statistics_are_reported() {
    let (graph, _) = knowledge_workload(31);
    let stats = GraphStats::compute(&graph);
    assert_eq!(stats.nodes, graph.node_count());
    assert_eq!(stats.edges, graph.edge_count());
    assert!(
        stats.node_label_count >= 5,
        "knowledge graphs carry many node types"
    );
    assert!(stats.density > 0.0 && stats.density < 0.05);
    assert!(stats.avg_component_diameter >= 1.0);
}
