//! Property-based tests of the core invariants, driven by seeded random
//! graphs, random updates and random processor counts (generated with the
//! workspace's deterministic RNG — proptest is unavailable offline, so the
//! cases are enumerated from seeds and every failure reproduces exactly):
//!
//! * incremental detection equals the batch-recomputation oracle,
//! * `Vio(Σ, G) ⊕ ΔVio(Σ, G, ΔG) = Vio(Σ, G ⊕ ΔG)` (Section 1),
//! * the parallel incremental detector agrees with the sequential one,
//! * `d`-neighbourhoods are monotone in `d` and bounded by the graph,
//! * generated updates always apply cleanly,
//! * freezing a random graph, writing it to a snapshot file and
//!   mmap-loading it back yields a view byte-identical to the in-memory
//!   snapshot — adjacency runs, label partition, triple index and the
//!   full `dect` violation set.

use ngd_core::{Expr, Literal, Ngd, Pattern, RuleSet};
use ngd_datagen::StdRng;
use ngd_detect::{dect, dect_on, inc_dect_prepared, pinc_dect_prepared, DetectorConfig};
use ngd_graph::persist::{MmapSnapshot, SnapshotWriter};
use ngd_graph::{d_neighbors, intern, AttrMap, BatchUpdate, Dir, Graph, GraphView, NodeId, Value};

/// Number of random cases per property.
const CASES: u64 = 48;

/// Node labels used by the random graphs (kept tiny so patterns match often).
const NODE_LABELS: [&str; 3] = ["A", "B", "C"];
/// Edge labels used by the random graphs.
const EDGE_LABELS: [&str; 2] = ["e1", "e2"];

/// A compact description of a random graph, turned into a `Graph` by
/// [`build_graph`].
#[derive(Debug, Clone)]
struct RandomGraph {
    /// `(label index, val attribute)` per node.
    nodes: Vec<(usize, i64)>,
    /// `(src index, dst index, label index)` per edge (may contain
    /// duplicates, which are skipped on insertion).
    edges: Vec<(usize, usize, usize)>,
}

fn build_graph(spec: &RandomGraph) -> Graph {
    let mut graph = Graph::new();
    for &(label, val) in &spec.nodes {
        let mut attrs = AttrMap::new();
        attrs.set_named("val", Value::Int(val));
        graph.add_node_named(NODE_LABELS[label % NODE_LABELS.len()], attrs);
    }
    for &(src, dst, label) in &spec.edges {
        if spec.nodes.is_empty() {
            continue;
        }
        let src = NodeId((src % spec.nodes.len()) as u32);
        let dst = NodeId((dst % spec.nodes.len()) as u32);
        // Duplicate edges are rejected by the graph; that is fine here.
        let _ = graph.add_edge_named(src, dst, EDGE_LABELS[label % EDGE_LABELS.len()]);
    }
    graph
}

fn random_graph(rng: &mut StdRng) -> RandomGraph {
    let node_count = rng.gen_range(2..12usize);
    let nodes = (0..node_count)
        .map(|_| (rng.gen_range(0..3usize), rng.gen_range(0..20i64)))
        .collect();
    let edge_count = rng.gen_range(0..30usize);
    let edges = (0..edge_count)
        .map(|_| {
            (
                rng.gen_range(0..12usize),
                rng.gen_range(0..12usize),
                rng.gen_range(0..2usize),
            )
        })
        .collect();
    RandomGraph { nodes, edges }
}

/// Random insert picks, as `(src, dst, label)` index triples.
fn random_picks(rng: &mut StdRng, max: usize) -> Vec<(usize, usize, usize)> {
    let count = rng.gen_range(0..max);
    (0..count)
        .map(|_| {
            (
                rng.gen_range(0..12usize),
                rng.gen_range(0..12usize),
                rng.gen_range(0..2usize),
            )
        })
        .collect()
}

/// Random deletion indices.
fn random_deletions(rng: &mut StdRng, max: usize) -> Vec<usize> {
    let count = rng.gen_range(0..max);
    (0..count).map(|_| rng.gen_range(0..64usize)).collect()
}

/// Two fixed rules over the random schema: one comparison rule and one rule
/// with arithmetic in premise and consequence.
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
    RuleSet::from_rules(vec![r1, r2])
}

/// A random batch update over `graph`: delete a selection of existing edges
/// and insert a few new label-compatible ones.
fn random_update(
    graph: &Graph,
    picks: &[(usize, usize, usize)],
    deletions: &[usize],
) -> BatchUpdate {
    let mut update = BatchUpdate::new();
    let existing = graph.edge_vec();
    for &idx in deletions {
        if existing.is_empty() {
            break;
        }
        let e = existing[idx % existing.len()];
        // Duplicated deletions of the same edge are skipped to keep the
        // batch applicable.
        if update.deletions().all(|d| d != e) {
            update.delete_edge(e.src, e.dst, e.label);
        }
    }
    for &(src, dst, label) in picks {
        if graph.node_count() == 0 {
            break;
        }
        let src = NodeId((src % graph.node_count()) as u32);
        let dst = NodeId((dst % graph.node_count()) as u32);
        let label = ngd_graph::intern(EDGE_LABELS[label % EDGE_LABELS.len()]);
        let edge = ngd_graph::EdgeRef::new(src, dst, label);
        if !graph.has_edge(src, dst, label)
            && update.insertions().all(|i| i != edge)
            && update.deletions().all(|d| d != edge)
        {
            update.insert_edge(src, dst, label);
        }
    }
    update
}

#[test]
fn incremental_matches_batch_oracle() {
    let sigma = rules();
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(1000 + case);
        let graph = build_graph(&random_graph(&mut rng));
        let inserts = random_picks(&mut rng, 8);
        let deletions = random_deletions(&mut rng, 8);
        let delta = random_update(&graph, &inserts, &deletions);
        let updated = delta
            .applied_to(&graph)
            .expect("random updates apply cleanly");

        let old = dect(&sigma, &graph).violations;
        let new = dect(&sigma, &updated).violations;
        let report = inc_dect_prepared(&sigma, &graph, &updated, &delta);

        assert_eq!(
            &report.delta.added,
            &new.difference(&old),
            "ΔVio⁺ mismatch (case {case})"
        );
        assert_eq!(
            &report.delta.removed,
            &old.difference(&new),
            "ΔVio⁻ mismatch (case {case})"
        );
        // Vio(G) ⊕ ΔVio = Vio(G ⊕ ΔG).
        assert_eq!(old.apply_delta(&report.delta), new, "case {case}");
    }
}

#[test]
fn parallel_incremental_agrees_with_sequential() {
    let sigma = rules();
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(2000 + case);
        let graph = build_graph(&random_graph(&mut rng));
        let inserts = random_picks(&mut rng, 6);
        let deletions = random_deletions(&mut rng, 6);
        let processors = rng.gen_range(1..4usize);
        let delta = random_update(&graph, &inserts, &deletions);
        let updated = delta
            .applied_to(&graph)
            .expect("random updates apply cleanly");
        let sequential = inc_dect_prepared(&sigma, &graph, &updated, &delta);
        let parallel = pinc_dect_prepared(
            &sigma,
            &graph,
            &updated,
            &delta,
            &DetectorConfig::with_processors(processors),
        );
        assert_eq!(
            parallel.delta, sequential.delta,
            "case {case}, p = {processors}"
        );
    }
}

#[test]
fn violation_sets_and_deltas_obey_set_algebra() {
    let sigma = rules();
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(3000 + case);
        let graph = build_graph(&random_graph(&mut rng));
        let inserts = random_picks(&mut rng, 6);
        let deletions = random_deletions(&mut rng, 6);
        let delta = random_update(&graph, &inserts, &deletions);
        let updated = delta
            .applied_to(&graph)
            .expect("random updates apply cleanly");
        let old = dect(&sigma, &graph).violations;
        let new = dect(&sigma, &updated).violations;
        // Difference and union are consistent with each other.
        let added = new.difference(&old);
        let removed = old.difference(&new);
        assert_eq!(old.union(&added).difference(&removed), new, "case {case}");
        // Added and removed are disjoint.
        for violation in added.iter() {
            assert!(!removed.contains(violation), "case {case}");
        }
    }
}

#[test]
fn d_neighborhoods_are_monotone_and_bounded() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(4000 + case);
        let graph = build_graph(&random_graph(&mut rng));
        if graph.node_count() == 0 {
            continue;
        }
        let v = NodeId(rng.gen_range(0..graph.node_count()) as u32);
        let d = rng.gen_range(0..5usize);
        let smaller = d_neighbors(&graph, v, d);
        let larger = d_neighbors(&graph, v, d + 1);
        assert!(smaller.len() <= larger.len(), "case {case}");
        for node in smaller.nodes() {
            assert!(larger.contains(node), "case {case}");
        }
        assert!(larger.len() <= graph.node_count(), "case {case}");
        assert!(
            smaller.contains(v),
            "a node is always in its own neighbourhood (case {case})"
        );
    }
}

/// Random graphs with richer attribute tuples (all three [`Value`]
/// variants, including empty strings) for the persistence round trip.
fn build_graph_with_rich_attrs(spec: &RandomGraph, rng: &mut StdRng) -> Graph {
    let graph = build_graph(spec);
    let mut enriched = Graph::new();
    for id in graph.node_ids() {
        let mut attrs = graph.attrs(id).clone();
        match rng.gen_range(0..4usize) {
            0 => attrs.set_named("note", Value::Str("x".repeat(rng.gen_range(0..9usize)))),
            1 => attrs.set_named("flag", Value::Bool(rng.gen_range(0..2usize) == 1)),
            2 => attrs.set_named("alt", Value::Int(rng.gen_range(0..1000i64) - 500)),
            _ => {}
        }
        enriched.add_node(graph.label(id), attrs);
    }
    for e in graph.edge_vec() {
        enriched.add_edge(e.src, e.dst, e.label).unwrap();
    }
    enriched
}

#[test]
fn snapshot_files_round_trip_byte_identically() {
    let sigma = rules();
    let writer = SnapshotWriter::new();
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(8000 + case);
        let graph = build_graph_with_rich_attrs(&random_graph(&mut rng), &mut rng);
        let snapshot = graph.freeze();

        let path = std::env::temp_dir().join(format!(
            "ngd-prop-roundtrip-{}-{case}.snap",
            std::process::id()
        ));
        writer.write(&snapshot, &path).expect("snapshot writes");
        let mapped = MmapSnapshot::load(&path).expect("snapshot loads");
        std::fs::remove_file(&path).ok();

        // Counts, labels and attribute tuples.
        assert_eq!(
            GraphView::node_count(&mapped),
            graph.node_count(),
            "case {case}"
        );
        assert_eq!(
            GraphView::edge_count(&mapped),
            graph.edge_count(),
            "case {case}"
        );
        for id in graph.node_ids() {
            assert_eq!(
                GraphView::label(&mapped, id),
                graph.label(id),
                "case {case}"
            );
            assert_eq!(
                &GraphView::attrs_of(&mapped, id),
                graph.attrs(id),
                "case {case}"
            );
        }

        // Adjacency runs: every (node, label) slice is byte-identical to
        // the in-memory snapshot's contiguous run.
        for id in graph.node_ids() {
            for label in NODE_LABELS.iter().chain(EDGE_LABELS.iter()) {
                let l = intern(label);
                for dir in Dir::BOTH {
                    assert_eq!(
                        mapped.neighbors_labeled(id, l, dir),
                        snapshot.neighbors_labeled(id, l, dir),
                        "case {case}: {dir:?} run of {id} along {label}"
                    );
                }
            }
        }

        // Label partition and triple index.
        for label in NODE_LABELS {
            let l = intern(label);
            assert_eq!(
                mapped.nodes_with_label(l),
                snapshot.nodes_with_label(l),
                "case {case}"
            );
        }
        for s in NODE_LABELS {
            for e in EDGE_LABELS {
                for d in NODE_LABELS {
                    let (s, e, d) = (intern(s), intern(e), intern(d));
                    assert_eq!(
                        mapped.triple_count(s, e, d),
                        snapshot.triple_count(s, e, d),
                        "case {case}"
                    );
                    for end in Dir::BOTH {
                        assert_eq!(
                            GraphView::labeled_triple_endpoints(&mapped, s, e, d, end),
                            GraphView::labeled_triple_endpoints(&snapshot, s, e, d, end),
                            "case {case}"
                        );
                    }
                }
            }
        }

        // The full batch violation set, byte-identical across all three
        // representations (structures and serialized JSON).
        let adjacency = dect(&sigma, &graph).violations;
        let csr = dect_on(&sigma, &snapshot).violations;
        let from_file = dect_on(&sigma, &mapped).violations;
        assert_eq!(adjacency, csr, "case {case}");
        assert_eq!(adjacency, from_file, "case {case}");
        assert_eq!(
            ngd_json::to_string(&csr),
            ngd_json::to_string(&from_file),
            "case {case}: serialized violation sets differ"
        );
    }
}

#[test]
fn updates_change_edge_counts_consistently() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(5000 + case);
        let graph = build_graph(&random_graph(&mut rng));
        let inserts = random_picks(&mut rng, 8);
        let deletions = random_deletions(&mut rng, 8);
        let delta = random_update(&graph, &inserts, &deletions);
        let updated = delta
            .applied_to(&graph)
            .expect("random updates apply cleanly");
        let expected = graph.edge_count() + delta.insertions().count() - delta.deletions().count();
        assert_eq!(updated.edge_count(), expected, "case {case}");
        // Deleted edges are gone, inserted edges are present.
        for e in delta.deletions() {
            if delta.insertions().all(|i| i != e) {
                assert!(!updated.has_edge(e.src, e.dst, e.label), "case {case}");
            }
        }
        for e in delta.insertions() {
            assert!(updated.has_edge(e.src, e.dst, e.label), "case {case}");
        }
    }
}
