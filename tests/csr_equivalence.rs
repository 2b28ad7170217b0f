//! CSR-path equivalence suite.
//!
//! The frozen snapshot (and its [`DeltaOverlay`]) is the default
//! representation under every detector, so these tests pin the refactor's
//! core contract: for every paper scenario and for a seeded synthetic graph
//! of ≥ 10k nodes, batch, incremental and parallel detection over the CSR
//! path return **byte-identical** violation sets / deltas to the
//! adjacency-list path (equality of the structures *and* of their
//! serialized JSON).
//!
//! The frozen snapshot has one storage with two backings: the bytes
//! [`Graph::freeze`] owns in memory, and the same bytes written to a
//! snapshot file and mapped back zero-copy with [`MmapSnapshot::load`].
//! Every scenario runs through both, and detection from the file must be
//! byte-identical to the adjacency lists and to the owned bytes — three
//! representations, one answer.

use ngd_core::{paper, RuleSet};
use ngd_datagen::{
    generate_knowledge, generate_rules, generate_update, KnowledgeConfig, RuleGenConfig,
    UpdateConfig,
};
use ngd_detect::{
    dect_on, delta_neighborhood, inc_dect_prepared, inc_dect_snapshot, pdect_on,
    pinc_dect_prepared, DetectorConfig,
};
use ngd_graph::persist::{MmapSnapshot, SnapshotWriter};
use ngd_graph::{BatchUpdate, DeltaOverlay, Graph};
use ngd_match::{DeltaViolations, ViolationSet};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Unique temp paths so parallel tests never collide on a snapshot file.
static FILE_SEQ: AtomicUsize = AtomicUsize::new(0);

fn temp_snapshot_path() -> std::path::PathBuf {
    let seq = FILE_SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("ngd-equiv-{}-{seq}.snap", std::process::id()))
}

/// The file-mapped backing of a frozen snapshot: write → mmap-load.
fn mmap_of(snapshot: &MmapSnapshot) -> MmapSnapshot {
    let path = temp_snapshot_path();
    SnapshotWriter::new()
        .write(snapshot, &path)
        .expect("snapshot file writes");
    let loaded = MmapSnapshot::load(&path).expect("snapshot file loads");
    // The mapping keeps the inode alive; unlink so temp dirs stay clean.
    std::fs::remove_file(&path).ok();
    loaded
}

/// Byte-identical: equal as structures and as serialized bytes.
fn assert_identical_sets(adjacency: &ViolationSet, csr: &ViolationSet, context: &str) {
    assert_eq!(adjacency, csr, "{context}: violation sets differ");
    assert_eq!(
        ngd_json::to_string(adjacency),
        ngd_json::to_string(csr),
        "{context}: serialized violation sets differ"
    );
}

fn assert_identical_deltas(adjacency: &DeltaViolations, csr: &DeltaViolations, context: &str) {
    assert_eq!(adjacency, csr, "{context}: deltas differ");
    assert_eq!(
        ngd_json::to_string(adjacency),
        ngd_json::to_string(csr),
        "{context}: serialized deltas differ"
    );
}

/// Batch equivalence on one (graph, rules) scenario, including PDect.
fn check_batch(graph: &Graph, sigma: &RuleSet, context: &str) {
    let adjacency = dect_on(sigma, graph);
    let snapshot = graph.freeze();
    let csr = dect_on(sigma, &snapshot);
    assert_identical_sets(&adjacency.violations, &csr.violations, context);
    let parallel = pdect_on(sigma, &snapshot, &DetectorConfig::with_processors(3));
    assert_identical_sets(&adjacency.violations, &parallel.violations, context);

    // Second backing: detection straight off the snapshot file.
    let mapped = mmap_of(&snapshot);
    let from_file = dect_on(sigma, &mapped);
    assert_identical_sets(
        &adjacency.violations,
        &from_file.violations,
        &format!("{context} (mmap)"),
    );
    let parallel_file = pdect_on(sigma, &mapped, &DetectorConfig::with_processors(3));
    assert_identical_sets(
        &adjacency.violations,
        &parallel_file.violations,
        &format!("{context} (mmap parallel)"),
    );
}

/// Incremental equivalence on one (graph, rules, update) scenario:
/// materialised adjacency graphs versus snapshot + overlay, sequential and
/// parallel.
fn check_incremental(graph: &Graph, sigma: &RuleSet, delta: &BatchUpdate, context: &str) {
    let updated = delta.applied_to(graph).expect("update applies");
    let adjacency = inc_dect_prepared(sigma, graph, &updated, delta);

    let snapshot = graph.freeze();
    let csr = inc_dect_snapshot(sigma, &snapshot, delta);
    assert_identical_deltas(&adjacency.delta, &csr.delta, context);
    let d = sigma.diameter();
    let neighborhood = delta_neighborhood(&updated, delta, d);
    assert_eq!(
        neighborhood,
        delta_neighborhood(&DeltaOverlay::new(&snapshot, delta), delta, d),
        "{context}: dΣ-neighbourhood sizes differ"
    );

    // Second backing: overlay the update over the memory-mapped snapshot.
    let mapped = mmap_of(&snapshot);
    let from_file = inc_dect_snapshot(sigma, &mapped, delta);
    assert_identical_deltas(
        &adjacency.delta,
        &from_file.delta,
        &format!("{context} (mmap)"),
    );
    assert_eq!(
        neighborhood,
        delta_neighborhood(&DeltaOverlay::new(&mapped, delta), delta, d),
        "{context}: mmap dΣ-neighbourhood size differs"
    );

    let old_view = snapshot.as_overlay();
    let new_view = DeltaOverlay::new(&snapshot, delta);
    for p in [1, 3] {
        let config = DetectorConfig::with_processors(p);
        let parallel = pinc_dect_prepared(sigma, &old_view, &new_view, delta, &config);
        assert_identical_deltas(
            &adjacency.delta,
            &parallel.delta,
            &format!("{context} (PIncDect p={p})"),
        );
    }
}

fn figure1_scenarios() -> Vec<(&'static str, Graph, RuleSet)> {
    let (g1, _) = paper::figure1_g1();
    let (g2, _) = paper::figure1_g2();
    let (g3, _) = paper::figure1_g3();
    let (g4, _) = paper::figure1_g4();
    vec![
        ("figure1_g1", g1, RuleSet::from_rules(vec![paper::phi1(1)])),
        ("figure1_g2", g2, RuleSet::from_rules(vec![paper::phi2()])),
        ("figure1_g3", g3, RuleSet::from_rules(vec![paper::phi3()])),
        (
            "figure1_g4",
            g4,
            RuleSet::from_rules(vec![paper::phi4(1, 1, 10_000)]),
        ),
    ]
}

#[test]
fn batch_detection_is_identical_on_all_figure1_scenarios() {
    for (name, graph, sigma) in figure1_scenarios() {
        // Also run the full paper rule set over each graph, so rules with
        // zero matches exercise the empty-candidate paths identically.
        check_batch(&graph, &sigma, name);
        check_batch(
            &graph,
            &paper::paper_rule_set(),
            &format!("{name}+all_rules"),
        );
    }
}

#[test]
fn incremental_detection_is_identical_on_figure1_updates() {
    for (name, graph, sigma) in figure1_scenarios() {
        // Delete every edge of the scenario in turn: each deletion-driven
        // delta must match between representations.
        for (idx, edge) in graph.edge_vec().into_iter().enumerate() {
            let mut delta = BatchUpdate::new();
            delta.delete_edge(edge.src, edge.dst, edge.label);
            check_incremental(&graph, &sigma, &delta, &format!("{name} delete#{idx}"));
        }
        // And one mixed batch: delete the first edge, re-route it.
        let edges = graph.edge_vec();
        if edges.len() >= 2 {
            let mut delta = BatchUpdate::new();
            delta.delete_edge(edges[0].src, edges[0].dst, edges[0].label);
            if !graph.has_edge(edges[1].src, edges[0].dst, edges[0].label) {
                delta.insert_edge(edges[1].src, edges[0].dst, edges[0].label);
            }
            check_incremental(&graph, &sigma, &delta, &format!("{name} mixed"));
        }
    }
}

/// A deterministic synthetic knowledge graph of ≥ 10k nodes with seeded
/// violations, plus paper rules and generated rules.
fn synthetic_workload() -> (Graph, RuleSet) {
    let generated = generate_knowledge(&KnowledgeConfig::dbpedia_like(50).with_seed(0xC5_A11));
    let graph = generated.graph;
    assert!(
        graph.node_count() >= 10_000,
        "synthetic workload too small: {} nodes",
        graph.node_count()
    );
    let mut rules = vec![
        paper::phi1(1),
        paper::phi2(),
        paper::phi3(),
        paper::ngd1(),
        paper::ngd2(),
        paper::ngd3(),
    ];
    rules.extend(
        generate_rules(
            &graph,
            &RuleGenConfig {
                wildcard_prob: 0.0,
                ..RuleGenConfig::paper_style(4, 3)
            }
            .with_seed(7),
        )
        .rules()
        .iter()
        .cloned(),
    );
    (graph, RuleSet::from_rules(rules))
}

#[test]
fn batch_detection_is_identical_on_a_10k_node_synthetic_graph() {
    let (graph, sigma) = synthetic_workload();
    let adjacency = dect_on(&sigma, &graph);
    assert!(
        adjacency.violation_count() > 0,
        "seeded synthetic graph must contain violations"
    );
    let snapshot = graph.freeze();
    let csr = dect_on(&sigma, &snapshot);
    assert_identical_sets(&adjacency.violations, &csr.violations, "synthetic-10k");

    // Mmap path on the 11k-node graph: detection off the snapshot file
    // stays byte-identical at scale.
    let mapped = mmap_of(&snapshot);
    let from_file = dect_on(&sigma, &mapped);
    assert_identical_sets(
        &adjacency.violations,
        &from_file.violations,
        "synthetic-10k (mmap)",
    );
}

#[test]
fn incremental_detection_is_identical_on_a_10k_node_synthetic_graph() {
    let (graph, sigma) = synthetic_workload();
    let delta = generate_update(&graph, &UpdateConfig::fraction(0.02).with_seed(3));
    assert!(!delta.is_empty());
    check_incremental(&graph, &sigma, &delta, "synthetic-10k update");
}
