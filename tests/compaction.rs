//! Snapshot-compaction contract: byte-determinism and stream equivalence.
//!
//! * **Byte-determinism** — for any graph `G` and clean net update `ΔG`,
//!   `compact(write(G), ΔG)` is byte-for-byte the file a fresh
//!   `freeze(G ⊕ ΔG) → write` would produce at the same epoch.  The
//!   special case `ΔG = ∅` is the property the ISSUE pins:
//!   `freeze→write ≡ write→compact(∅)`.  Driven by seeded random graphs
//!   (richly attributed, so the attribute-blob rewrite is exercised) and
//!   random deltas that add nodes, introduce brand-new labels and retire
//!   old ones.
//! * **Stream equivalence** — an incremental session that compacts
//!   mid-stream (fold the accumulated `ΔG` into a new epoch file, mmap
//!   it, [`IncrementalSession::rebase_onto`] it) answers every subsequent
//!   batch byte-identically to a session that never compacted, on every
//!   figure-1 scenario and the 11k-node synthetic.
//! * **Two encoders at scale** — the 11k-node synthetic written through
//!   `freeze → SnapshotWriter` equals an empty snapshot compacted with the
//!   whole graph as its `ΔG`, and the same graph rebuilt with its
//!   adjacency lists out of order freezes to the same bytes.
//! * **One set of update rules** — `validate_against`,
//!   `DeltaOverlay::try_new` and `CompactionWriter::encode` report the
//!   same [`UpdateError`] for the first failing op of every failure mode.

use ngd_core::{paper, RuleSet};
use ngd_datagen::{generate_knowledge, generate_update, KnowledgeConfig, StdRng, UpdateConfig};
use ngd_detect::{DetectorConfig, IncrementalSession};
use ngd_graph::persist::{CompactError, CompactionWriter, MmapSnapshot, SnapshotWriter};
use ngd_graph::{
    intern, AttrMap, BatchUpdate, DeltaOverlay, Dir, EdgeRef, Graph, NodeId, UpdateError, Value,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

static FILE_SEQ: AtomicUsize = AtomicUsize::new(0);

fn temp_path(tag: &str) -> PathBuf {
    let seq = FILE_SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "ngd-compaction-{tag}-{}-{seq}.ngds",
        std::process::id()
    ))
}

const NODE_LABELS: [&str; 4] = ["A", "B", "C", "D"];
const EDGE_LABELS: [&str; 3] = ["e1", "e2", "rare"];

/// A random graph with every attribute-value variant represented.
fn random_graph(rng: &mut StdRng) -> Graph {
    let mut graph = Graph::new();
    let node_count = rng.gen_range(2..14usize);
    for _ in 0..node_count {
        let mut attrs = AttrMap::new();
        attrs.set_named("val", Value::Int(rng.gen_range(0..40i64) - 20));
        if rng.gen_range(0..2usize) == 0 {
            attrs.set_named("flag", Value::Bool(rng.gen_range(0..2usize) == 0));
        }
        if rng.gen_range(0..3usize) == 0 {
            attrs.set_named(
                "name",
                Value::from(format!("n{}", rng.gen_range(0..99usize))),
            );
        }
        graph.add_node_named(NODE_LABELS[rng.gen_range(0..NODE_LABELS.len())], attrs);
    }
    for _ in 0..rng.gen_range(0..36usize) {
        let src = NodeId(rng.gen_range(0..node_count) as u32);
        let dst = NodeId(rng.gen_range(0..node_count) as u32);
        let _ = graph.add_edge_named(src, dst, EDGE_LABELS[rng.gen_range(0..EDGE_LABELS.len())]);
    }
    graph
}

/// A random clean delta: edge deletions (possibly retiring a label), edge
/// insertions (possibly introducing `fresh-*` labels the old file never
/// saw) and new nodes with new attribute names.
fn random_delta(rng: &mut StdRng, graph: &Graph) -> BatchUpdate {
    let mut delta = BatchUpdate::new();
    let existing = graph.edge_vec();
    let mut deleted: Vec<ngd_graph::EdgeRef> = Vec::new();
    for _ in 0..rng.gen_range(0..6usize) {
        if existing.is_empty() {
            break;
        }
        let e = existing[rng.gen_range(0..existing.len())];
        if !deleted.contains(&e) {
            delta.delete_edge(e.src, e.dst, e.label);
            deleted.push(e);
        }
    }
    let mut new_ids: Vec<NodeId> = Vec::new();
    for idx in 0..rng.gen_range(0..3usize) {
        let label = if rng.gen_range(0..2usize) == 0 {
            intern(NODE_LABELS[rng.gen_range(0..NODE_LABELS.len())])
        } else {
            intern("Fresh")
        };
        let mut attrs = AttrMap::new();
        attrs.set_named("val", Value::Int(rng.gen_range(0..20i64)));
        if idx == 0 {
            attrs.set_named("zz-novel-attr", Value::from("introduced by ΔG"));
        }
        new_ids.push(delta.add_node(graph.node_count(), label, attrs));
    }
    let total = graph.node_count() + new_ids.len();
    for _ in 0..rng.gen_range(0..8usize) {
        let src = NodeId(rng.gen_range(0..total) as u32);
        let dst = NodeId(rng.gen_range(0..total) as u32);
        let label = match rng.gen_range(0..4usize) {
            0 => intern("fresh-edge"),
            i => intern(EDGE_LABELS[i % EDGE_LABELS.len()]),
        };
        let edge = ngd_graph::EdgeRef::new(src, dst, label);
        let in_base = src.index() < graph.node_count()
            && dst.index() < graph.node_count()
            && graph.has_edge(src, dst, label);
        if (!in_base || deleted.contains(&edge))
            && delta.insertions().all(|i| i != edge)
            && deleted.iter().all(|d| *d != edge || in_base)
        {
            // Only insert edges absent from base ⊕ deletions so far.
            if !in_base && delta.insertions().all(|i| i != edge) {
                delta.insert_edge(src, dst, label);
            }
        }
    }
    delta
}

#[test]
fn freeze_write_equals_write_compact_of_the_empty_delta() {
    for case in 0..48u64 {
        let mut rng = StdRng::seed_from_u64(7_000 + case);
        let graph = random_graph(&mut rng);
        let path = temp_path("identity");
        SnapshotWriter::new().write(&graph.freeze(), &path).unwrap();
        let old = MmapSnapshot::load(&path).unwrap();
        let compacted = CompactionWriter::new()
            .encode(&old, &BatchUpdate::new(), 1)
            .unwrap();
        let fresh = SnapshotWriter::with_epoch(1).encode(&graph.freeze());
        assert_eq!(compacted, fresh, "case {case}: compact(∅) ≠ freeze→write");
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn compaction_bytes_equal_a_fresh_freeze_of_the_updated_graph() {
    for case in 0..48u64 {
        let mut rng = StdRng::seed_from_u64(8_000 + case);
        let graph = random_graph(&mut rng);
        let delta = random_delta(&mut rng, &graph);
        let path = temp_path("delta");
        SnapshotWriter::new().write(&graph.freeze(), &path).unwrap();
        let old = MmapSnapshot::load(&path).unwrap();

        let compacted = CompactionWriter::new().encode(&old, &delta, 1).unwrap();
        let updated = delta.applied_to(&graph).expect("delta applies");
        let fresh = SnapshotWriter::with_epoch(1).encode(&updated.freeze());
        assert_eq!(
            compacted,
            fresh,
            "case {case}: compact(ΔG) ≠ freeze(G⊕ΔG)→write ({} dels, {} ins, {} new nodes)",
            delta.deletions().count(),
            delta.insertions().count(),
            delta.new_nodes.len()
        );
        std::fs::remove_file(&path).ok();
    }
}

/// Drive one scenario's batch stream twice over mapped snapshots — once
/// plainly, once compacting + re-rooting after `cut` batches — and demand
/// byte-identical deltas.
fn check_stream_with_mid_stream_compaction(
    graph: &Graph,
    sigma: &RuleSet,
    batches: &[BatchUpdate],
    cut: usize,
    context: &str,
) {
    let config = DetectorConfig::with_processors(3);
    let path = temp_path("stream");
    SnapshotWriter::new().write(&graph.freeze(), &path).unwrap();

    // Shared path.
    {
        let base = MmapSnapshot::load(&path).unwrap();
        let mut plain = IncrementalSession::new(&base);
        let reference: Vec<_> = batches
            .iter()
            .map(|b| plain.apply(sigma, b, &config).unwrap().delta)
            .collect();

        let base = MmapSnapshot::load(&path).unwrap();
        let mut session = IncrementalSession::new(&base);
        let mut deltas = Vec::new();
        for batch in &batches[..cut] {
            deltas.push(session.apply(sigma, batch, &config).unwrap().delta);
        }
        let compacted_path = temp_path("stream-epoch");
        let report = CompactionWriter::new()
            .compact_file(&path, session.accumulated(), &compacted_path)
            .expect("compaction succeeds");
        assert_eq!(report.epoch, 1, "{context}");
        let new_base = MmapSnapshot::load(&compacted_path).unwrap();
        assert_eq!(new_base.epoch(), 1);
        let mut session = session.rebase_onto(&new_base).expect("re-root succeeds");
        assert_eq!(session.pending(), (0, 0), "{context}: fully compacted");
        for batch in &batches[cut..] {
            deltas.push(session.apply(sigma, batch, &config).unwrap().delta);
        }
        assert_eq!(deltas, reference, "{context} (shared)");
        std::fs::remove_file(&compacted_path).ok();
    }
    std::fs::remove_file(&path).ok();
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
fn mid_stream_compaction_is_invisible_on_all_figure1_scenarios() {
    for (name, graph, sigma) in figure1_scenarios() {
        let edges = graph.edge_vec();
        let mut batches: Vec<BatchUpdate> = Vec::new();
        let mut b = BatchUpdate::new();
        b.delete_edge(edges[0].src, edges[0].dst, edges[0].label);
        batches.push(b);
        let mut b = BatchUpdate::new();
        b.insert_edge(edges[0].src, edges[0].dst, edges[0].label);
        if edges.len() >= 2 {
            b.delete_edge(edges[1].src, edges[1].dst, edges[1].label);
        }
        batches.push(b);
        // A batch introducing a node rides across the compaction cut …
        let mut b = BatchUpdate::new();
        let label = graph.label(edges[0].src);
        let node = b.add_node(graph.node_count(), label, AttrMap::new());
        b.insert_edge(node, edges[0].dst, edges[0].label);
        batches.push(b);
        // … and a trailing edge-only batch lets a cut fold the node-adding
        // batch *into* the compaction (added nodes materialised by the new
        // epoch) with post-cut work still to answer.
        let mut b = BatchUpdate::new();
        b.delete_edge(node, edges[0].dst, edges[0].label);
        batches.push(b);
        for cut in 1..batches.len() {
            check_stream_with_mid_stream_compaction(
                &graph,
                &sigma,
                &batches,
                cut,
                &format!("{name} cut={cut}"),
            );
        }
    }
}

#[test]
fn mid_stream_compaction_is_invisible_on_the_11k_synthetic_workload() {
    let generated = generate_knowledge(&KnowledgeConfig::dbpedia_like(50).with_seed(0xC5_A11));
    let graph = generated.graph;
    assert!(graph.node_count() >= 10_000);
    let sigma = RuleSet::from_rules(vec![
        paper::phi1(1),
        paper::phi2(),
        paper::phi3(),
        paper::ngd3(),
    ]);
    let batches: Vec<BatchUpdate> = [3u64, 13]
        .iter()
        .map(|&seed| generate_update(&graph, &UpdateConfig::fraction(0.005).with_seed(seed)))
        .collect();
    // The second batch is generated against the base graph; make the
    // stream sequential by materialising and regenerating.
    let mut current = graph.clone();
    batches[0].apply(&mut current).unwrap();
    let second = generate_update(&current, &UpdateConfig::fraction(0.005).with_seed(21));
    let stream = vec![batches[0].clone(), second];
    check_stream_with_mid_stream_compaction(&graph, &sigma, &stream, 1, "synthetic-11k");
}

#[test]
fn compact_file_bumps_epochs_across_generations() {
    let (graph, _) = paper::figure1_g4();
    let path = temp_path("generations");
    SnapshotWriter::new().write(&graph.freeze(), &path).unwrap();
    let edges = graph.edge_vec();

    // Epoch 0 → 1: delete an edge.
    let mut d1 = BatchUpdate::new();
    d1.delete_edge(edges[0].src, edges[0].dst, edges[0].label);
    let gen1 = temp_path("generations-1");
    let report = CompactionWriter::new()
        .compact_file(&path, &d1, &gen1)
        .unwrap();
    assert_eq!(report.epoch, 1);

    // Epoch 1 → 2: re-insert it.
    let mut d2 = BatchUpdate::new();
    d2.insert_edge(edges[0].src, edges[0].dst, edges[0].label);
    let gen2 = temp_path("generations-2");
    let report = CompactionWriter::new()
        .compact_file(&gen1, &d2, &gen2)
        .unwrap();
    assert_eq!(report.epoch, 2);

    // Two compactions that cancel out: same bytes as a straight epoch-2
    // rewrite of the original graph.
    let loaded = MmapSnapshot::load(&gen2).unwrap();
    assert_eq!(loaded.epoch(), 2);
    let rewrite = SnapshotWriter::with_epoch(2).encode(&graph.freeze());
    assert_eq!(std::fs::read(&gen2).unwrap(), rewrite);

    // Invalid deltas are typed errors, not corrupt files.
    let mut bad = BatchUpdate::new();
    bad.delete_edge(edges[0].src, edges[0].dst, intern("ghost-label"));
    let gen3 = temp_path("generations-3");
    let err = CompactionWriter::new()
        .compact_file(&gen2, &bad, &gen3)
        .unwrap_err();
    assert!(matches!(err, CompactError::Update(_)), "{err:?}");
    assert!(!gen3.exists(), "failed compaction must not write output");

    for p in [path, gen1, gen2] {
        std::fs::remove_file(p).ok();
    }
}

/// The index of the first byte at which two encodings differ, for a
/// failure message that does not print a megabyte.
fn first_difference(a: &[u8], b: &[u8]) -> Option<usize> {
    (a.iter().zip(b).position(|(x, y)| x != y))
        .or((a.len() != b.len()).then(|| a.len().min(b.len())))
}

#[test]
fn freeze_write_equals_compacting_the_whole_11k_graph_into_an_empty_snapshot() {
    let graph = generate_knowledge(&KnowledgeConfig::dbpedia_like(50).with_seed(0xC5_A11)).graph;
    assert!(graph.node_count() >= 10_000);
    let frozen = SnapshotWriter::new().encode(&graph.freeze());

    let path = temp_path("empty");
    SnapshotWriter::new()
        .write(&Graph::new().freeze(), &path)
        .unwrap();
    let empty = MmapSnapshot::load(&path).unwrap();
    let mut everything = BatchUpdate::new();
    for id in graph.node_ids() {
        let node = graph.node(id);
        everything.add_node(0, node.label, node.attrs.clone());
    }
    for e in graph.edges() {
        everything.insert_edge(e.src, e.dst, e.label);
    }
    let compacted = CompactionWriter::new()
        .encode(&empty, &everything, 0)
        .unwrap();
    assert_eq!(
        first_difference(&frozen, &compacted),
        None,
        "freeze→write ({} B) ≠ compact(∅, G) ({} B)",
        frozen.len(),
        compacted.len()
    );
    std::fs::remove_file(&path).ok();

    // The same graph with its edges inserted in reverse order, and every
    // 37th one removed and re-added, so its adjacency lists hold the
    // same entries in another order.
    let mut rebuilt = Graph::with_capacity(graph.node_count());
    for id in graph.node_ids() {
        rebuilt.add_node(graph.label(id), graph.attrs(id).clone());
    }
    let edges = graph.edge_vec();
    for e in edges.iter().rev() {
        rebuilt.add_edge(e.src, e.dst, e.label).unwrap();
    }
    for e in edges.iter().step_by(37) {
        rebuilt.remove_edge(e.src, e.dst, e.label).unwrap();
    }
    for e in edges.iter().step_by(37) {
        rebuilt.add_edge(e.src, e.dst, e.label).unwrap();
    }
    let reordered = graph
        .node_ids()
        .filter(|&id| rebuilt.neighbors(id, Dir::Out) != graph.neighbors(id, Dir::Out))
        .count();
    assert!(reordered > 1_000, "only {reordered} out-lists reordered");
    let refrozen = SnapshotWriter::new().encode(&rebuilt.freeze());
    assert_eq!(
        first_difference(&frozen, &refrozen),
        None,
        "adjacency-list order leaked into the snapshot bytes"
    );
}

#[test]
fn validation_overlay_and_compaction_report_the_same_first_failing_op() {
    let mut graph = Graph::new();
    let a = graph.add_node_named("A", AttrMap::new());
    let b = graph.add_node_named("B", AttrMap::new());
    let c = graph.add_node_named("C", AttrMap::new());
    graph.add_edge_named(a, b, "e").unwrap();
    graph.add_edge_named(b, c, "e").unwrap();
    let path = temp_path("rules");
    SnapshotWriter::new().write(&graph.freeze(), &path).unwrap();
    let mapped = MmapSnapshot::load(&path).unwrap();
    let csr = graph.freeze();

    let ab = EdgeRef::new(a, b, intern("e"));
    let ca = EdgeRef::new(c, a, intern("x"));
    let ghost = EdgeRef::new(c, a, intern("ghost"));
    let with = |ops: &[(bool, EdgeRef)]| {
        let mut delta = BatchUpdate::new();
        delta.add_node(graph.node_count(), intern("D"), AttrMap::new());
        for &(insert, e) in ops {
            if insert {
                delta.insert_edge(e.src, e.dst, e.label);
            } else {
                delta.delete_edge(e.src, e.dst, e.label);
            }
        }
        delta
    };
    let (ins, del) = (true, false);
    let unknown = EdgeRef::new(a, NodeId(99), intern("e"));
    let cases: Vec<(&str, BatchUpdate, UpdateError)> = vec![
        (
            "unknown node",
            with(&[(ins, ca), (ins, unknown)]),
            UpdateError::UnknownNode(NodeId(99)),
        ),
        (
            "unknown source before unknown destination",
            with(&[(del, EdgeRef::new(NodeId(50), NodeId(60), intern("e")))]),
            UpdateError::UnknownNode(NodeId(50)),
        ),
        (
            "insert of an existing edge",
            with(&[(ins, ab)]),
            UpdateError::InsertExisting(ab),
        ),
        (
            "delete of a missing edge",
            with(&[(del, ghost)]),
            UpdateError::DeleteMissing(ghost),
        ),
        (
            "a second insert within the batch",
            with(&[(ins, ca), (ins, ca)]),
            UpdateError::InsertExisting(ca),
        ),
        (
            "a second delete within the batch",
            with(&[(del, ab), (del, ab)]),
            UpdateError::DeleteMissing(ab),
        ),
        (
            "a re-insert after a net cancellation",
            with(&[(del, ab), (ins, ab), (ins, ab)]),
            UpdateError::InsertExisting(ab),
        ),
        (
            "the first of two failing ops",
            with(&[(ins, ca), (del, ghost), (ins, unknown), (ins, ab)]),
            UpdateError::DeleteMissing(ghost),
        ),
    ];
    for (name, delta, expected) in cases {
        assert_eq!(
            delta.validate_against(&mapped),
            Err(expected.clone()),
            "{name}"
        );
        assert_eq!(
            delta.validate_against(&csr),
            Err(expected.clone()),
            "{name}"
        );
        assert_eq!(
            DeltaOverlay::try_new(&mapped, &delta).err(),
            Some(expected.clone()),
            "{name}"
        );
        assert_eq!(
            DeltaOverlay::try_new(&csr, &delta).err(),
            Some(expected.clone()),
            "{name}"
        );
        assert_eq!(
            CompactionWriter::new().encode(&mapped, &delta, 1),
            Err(CompactError::Update(expected)),
            "{name}"
        );
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn try_new_and_new_canonicalise_valid_batches_alike() {
    for case in 0..48u64 {
        let mut rng = StdRng::seed_from_u64(9_000 + case);
        let graph = random_graph(&mut rng);
        let delta = random_delta(&mut rng, &graph);
        let snap = graph.freeze();
        assert_eq!(delta.validate_against(&snap), Ok(()), "case {case}");
        assert_eq!(
            DeltaOverlay::try_new(&snap, &delta).unwrap().into_batch(),
            DeltaOverlay::new(&snap, &delta).into_batch(),
            "case {case}"
        );
    }
}
