//! The [`GraphView`] conformance battery.
//!
//! [`assert_conforms`] drives **every** method of the trait on a reader and
//! checks each answer against what the adjacency-list [`Graph`] says — the
//! build representation is the oracle, the reader is the subject.
//! The battery below runs it over seeded random graphs for both backings
//! of the one frozen storage (the bytes [`Graph::freeze`] owns in memory,
//! and the same bytes written to a file and mapped) and for the
//! [`DeltaOverlay`] the served read path searches, against the graph its
//! batch materialises.

use crate::attrs::AttrMap;
use crate::graph::{Dir, EdgeRef, Graph, NodeId};
use crate::interner::{intern, Sym, WILDCARD};
use crate::overlay::DeltaOverlay;
use crate::persist::{MmapSnapshot, SnapshotWriter};
use crate::update::BatchUpdate;
use crate::value::Value;
use crate::view::GraphView;
use std::collections::BTreeSet;
use std::path::PathBuf;

fn sorted<T: Ord>(mut items: Vec<T>) -> Vec<T> {
    items.sort();
    items
}

fn neighbors_along(list: &[(NodeId, Sym)], label: Sym) -> Vec<NodeId> {
    sorted(
        list.iter()
            .filter(|&&(_, l)| l == label)
            .map(|&(n, _)| n)
            .collect(),
    )
}

fn matches(pattern: Sym, label: Sym) -> bool {
    pattern == WILDCARD || pattern == label
}

/// Check every [`GraphView`] method of `view` against `graph`.
///
/// Probes go beyond what the graph contains: an edge label and a node
/// label no graph (hence no file) has ever carried, an attribute name no
/// node has, and a node id past the end.
///
/// An `indexed` reader must answer every labelled-slice and triple query
/// (the CSR contract); otherwise a reader may answer `None` to them, and
/// only the answers it gives are checked.
pub(crate) fn assert_conforms<V: GraphView>(view: &V, graph: &Graph, what: &str, indexed: bool) {
    let ghost = intern("conformance-ghost-label");
    let n = graph.node_count();
    let ids: Vec<NodeId> = graph.node_ids().collect();
    let past_end = NodeId(n as u32 + 3);
    let node_labels: BTreeSet<Sym> = ids.iter().map(|&id| graph.label(id)).collect();
    let edge_labels: BTreeSet<Sym> = graph.edges().map(|e| e.label).collect();
    let attr_names: BTreeSet<Sym> = ids
        .iter()
        .flat_map(|&id| graph.attrs(id).iter().map(|(name, _)| name))
        .collect();
    let with_ghost = |set: &BTreeSet<Sym>| -> Vec<Sym> {
        set.iter().copied().chain([ghost]).collect::<Vec<_>>()
    };
    let (node_probes, edge_probes) = (with_ghost(&node_labels), with_ghost(&edge_labels));

    assert_eq!(view.node_count(), n, "{what}: node_count");
    assert_eq!(view.edge_count(), graph.edge_count(), "{what}: edge_count");
    assert_eq!(view.node_ids_vec(), ids, "{what}: node_ids_vec");
    assert!(!view.contains_node(past_end), "{what}: contains_node");

    for &id in &ids {
        assert!(view.contains_node(id), "{what}: contains_node({id})");
        assert_eq!(view.label(id), graph.label(id), "{what}: label({id})");
        assert_eq!(&view.attrs_of(id), graph.attrs(id), "{what}: attrs({id})");
        for &name in attr_names.iter().chain([&ghost]) {
            assert_eq!(
                view.attr(id, name).as_ref(),
                graph.attr(id, name),
                "{what}: attr"
            );
        }
        let degrees = Dir::BOTH.map(|dir| view.degree(id, dir));
        let want = Dir::BOTH.map(|dir| graph.neighbors(id, dir).len());
        assert_eq!(degrees, want, "{what}: out/in degree({id})");
        for dir in Dir::BOTH {
            for &l in &edge_probes {
                let want = neighbors_along(graph.neighbors(id, dir), l);
                let at = format!("{what}: node {id} {dir:?} along {l:?}");
                assert_eq!(view.labeled_count(id, l, dir), want.len(), "{at}");
                // The slice fast path is part of the CSR contract: sorted.
                match view.labeled_slice(id, l, dir) {
                    Some(run) => assert_eq!(run, &want[..], "{at}"),
                    None => assert!(!indexed, "{at}: labeled_slice"),
                }
                let mut got = Vec::new();
                view.for_each_labeled(id, l, dir, &mut |m| got.push(m));
                assert_eq!(sorted(got), want, "{at}: for_each_labeled");
            }
        }

        let mut incident = Vec::new();
        view.for_each_undirected(id, &mut |m, e| incident.push((m, e)));
        let want: Vec<(NodeId, EdgeRef)> = graph.undirected_neighbors(id).collect();
        assert_eq!(sorted(incident), sorted(want), "{what}: undirected({id})");
    }

    for &src in ids.iter().chain([&past_end]) {
        for &dst in ids.iter().chain([&past_end]) {
            for &l in &edge_probes {
                let want = src != past_end && dst != past_end && graph.has_edge(src, dst, l);
                assert_eq!(
                    view.has_edge(src, dst, l),
                    want,
                    "{what}: {src}-{l:?}->{dst}"
                );
            }
        }
    }

    for &l in &node_probes {
        let want = sorted(graph.nodes_with_label(l).to_vec());
        assert_eq!(view.label_count(l), want.len(), "{what}: label_count");
        assert_eq!(sorted(view.nodes_with_label_vec(l)), want, "{what}: {l:?}");
    }

    let mut edges = Vec::new();
    view.for_each_edge(&mut |e| edges.push(e));
    assert_eq!(
        sorted(edges),
        sorted(graph.edge_vec()),
        "{what}: for_each_edge"
    );

    // Triple index: every concrete triple and every wildcard combination
    // through `labeled_triple_*`.
    let wild = |probes: &[Sym]| probes.iter().copied().chain([WILDCARD]).collect::<Vec<_>>();
    for &s in &wild(&node_probes) {
        for &e in &wild(&edge_probes) {
            for &d in &wild(&node_probes) {
                let hits: Vec<EdgeRef> = graph
                    .edges()
                    .filter(|edge| {
                        matches(s, graph.label(edge.src))
                            && matches(e, edge.label)
                            && matches(d, graph.label(edge.dst))
                    })
                    .collect();
                let endpoints = |end: Dir| -> Vec<NodeId> {
                    let set: BTreeSet<NodeId> = hits.iter().map(|edge| edge.end(end)).collect();
                    set.into_iter().collect()
                };
                let at = format!("{what}: triple ({s:?}, {e:?}, {d:?})");
                match view.labeled_triple_run_len(s, e, d) {
                    Some(len) => assert_eq!(len, hits.len(), "{at}"),
                    None => assert!(!indexed, "{at}: labeled_triple_run_len"),
                }
                for end in Dir::BOTH {
                    match view.labeled_triple_endpoints(s, e, d, end) {
                        Some(got) => assert_eq!(got, endpoints(end), "{at} {end:?}"),
                        None => assert!(!indexed, "{at}: labeled_triple_endpoints"),
                    }
                }
            }
        }
    }
}

/// SplitMix64 — enough randomness for graph shapes, fully seed-replayable.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }
}

/// Values at the edges of what the file's attribute decoder parses.
const EDGE_INTS: [i64; 2] = [i64::MIN, i64::MAX];
const EDGE_STRS: [&str; 2] = ["", "zürich–東京 ✓"];

/// A random multigraph with self-loops, parallel edges under different
/// labels, mixed-type attributes (the edge values above among them), and
/// one guaranteed isolated node that carries every edge value.
fn random_graph(seed: u64) -> Graph {
    let mut rng = Rng(seed);
    let node_labels = ["account", "company", "integer"];
    let edge_labels = ["keys", "follower", "knows"];
    let n = 10 + rng.below(14);
    let mut g = Graph::new();
    for i in 0..n {
        let mut attrs = AttrMap::new();
        if rng.below(3) > 0 {
            let val = match rng.below(8) {
                pick @ 0..=1 => EDGE_INTS[pick],
                _ => rng.below(100) as i64 - 50,
            };
            attrs.set_named("val", Value::Int(val));
        }
        if rng.below(3) == 0 {
            let name = match rng.below(4) {
                pick @ 0..=1 => EDGE_STRS[pick].to_owned(),
                _ => format!("n{i}"),
            };
            attrs.set_named("name", Value::from(name));
        }
        if rng.below(4) == 0 {
            attrs.set_named("active", Value::Bool(rng.below(2) == 0));
        }
        g.add_node_named(node_labels[rng.below(node_labels.len())], attrs);
    }
    let isolated = g.add_node_named(
        "integer",
        AttrMap::from_pairs([
            ("min", Value::Int(EDGE_INTS[0])),
            ("max", Value::Int(EDGE_INTS[1])),
            ("empty", Value::from(EDGE_STRS[0])),
            ("utf8", Value::from(EDGE_STRS[1])),
        ]),
    );
    for _ in 0..3 * n {
        let (src, dst) = (NodeId(rng.below(n) as u32), NodeId(rng.below(n) as u32));
        // A repeated (src, dst, label) is rejected by the graph; skip it.
        let _ = g.add_edge_named(src, dst, edge_labels[rng.below(edge_labels.len())]);
    }
    assert_eq!(g.undirected_neighbors(isolated).count(), 0);
    g
}

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ngd-conformance-{tag}-{}.ngds", std::process::id()))
}

const SEEDS: [u64; 6] = [1, 7, 42, 1337, 0xDEAD_BEEF, 0x5EED_5EED_5EED];

#[test]
fn whole_graph_readers_conform() {
    // Interned before any file exists, so its `Sym` falls *inside* the
    // mapped reader's dense symbol table (the post-load ghost probe of
    // `assert_conforms` may fall past its end).
    intern("conformance-ghost-label");
    for seed in SEEDS {
        let g = random_graph(seed);
        let owned = g.freeze();
        assert_conforms(&owned, &g, &format!("seed {seed}: owned bytes"), true);
        let path = temp_path(&format!("whole-{seed}"));
        SnapshotWriter::new().write(&owned, &path).unwrap();
        let mapped = MmapSnapshot::load(&path).unwrap();
        assert_conforms(&mapped, &g, &format!("seed {seed}: mapped file"), true);
        assert_eq!(mapped.file_bytes(), owned.file_bytes(), "seed {seed}");
        std::fs::remove_file(&path).ok();
    }
}

/// A random batch that applies cleanly to `g`: new nodes, deletions of
/// existing edges, inserts (some onto the new nodes), inserts deleted
/// again within the batch and deletions re-inserted.  `g` is updated
/// alongside, so every op is drawn against the graph its prefix leaves.
fn random_batch(rng: &mut Rng, g: &Graph) -> BatchUpdate {
    let labels = ["keys", "follower", "knows", "fresh"];
    let base = g.node_count();
    let mut cur = g.clone();
    let mut batch = BatchUpdate::new();
    for i in 0..1 + rng.below(3) {
        let attrs = AttrMap::from_pairs([("val", Value::Int(i as i64))]);
        let label = ["account", "company"][rng.below(2)];
        let id = batch.add_node(base, intern(label), attrs.clone());
        assert_eq!(cur.add_node_named(label, attrs), id);
    }
    for _ in 0..12 {
        let edges = cur.edge_vec();
        match rng.below(4) {
            0 | 1 if !edges.is_empty() => {
                let e = edges[rng.below(edges.len())];
                cur.remove_edge(e.src, e.dst, e.label).unwrap();
                batch.delete_edge(e.src, e.dst, e.label);
                if rng.below(4) == 0 {
                    cur.add_edge(e.src, e.dst, e.label).unwrap();
                    batch.insert_edge(e.src, e.dst, e.label);
                }
            }
            kind => {
                let n = cur.node_count();
                let (src, dst) = (NodeId(rng.below(n) as u32), NodeId(rng.below(n) as u32));
                let label = intern(labels[rng.below(labels.len())]);
                if cur.add_edge(src, dst, label).is_ok() {
                    batch.insert_edge(src, dst, label);
                    if kind == 3 {
                        cur.remove_edge(src, dst, label).unwrap();
                        batch.delete_edge(src, dst, label);
                    }
                }
            }
        }
    }
    assert_eq!(
        sorted(batch.applied_to(g).unwrap().edge_vec()),
        sorted(cur.edge_vec())
    );
    batch
}

#[test]
fn delta_overlays_conform() {
    intern("conformance-ghost-label");
    for seed in SEEDS {
        let g = random_graph(seed);
        let frozen = g.freeze();
        let empty = DeltaOverlay::empty(&frozen);
        assert_conforms(&empty, &g, &format!("seed {seed}: empty overlay"), true);
        let mut rng = Rng(seed ^ 0x0BA7_C4ED);
        for round in 0..4 {
            let batch = random_batch(&mut rng, &g);
            let want = batch.applied_to(&g).unwrap();
            let overlay = DeltaOverlay::new(&frozen, &batch);
            let what = format!("seed {seed} batch {round}: overlay");
            assert_conforms(&overlay, &want, &what, false);
        }
    }
}
