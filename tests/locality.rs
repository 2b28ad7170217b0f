//! The localizability contract of the incremental detectors, as counts
//! rather than timings.
//!
//! `IncDect`/`PIncDect` promise a cost governed by `ΔG`'s
//! `dΣ`-neighbourhood, not by `|G|` (Section 6.2–6.3).  Three properties
//! make that hold on the served request path, and each is pinned here:
//!
//! 1. a small batch reads the same amount of graph on an 11k-node and on a
//!    111k-node snapshot, and never enumerates the whole graph;
//! 2. with one processor the run stays on the caller's thread;
//! 3. the workers always terminate with the right answer, for every worker
//!    count — including more workers than pivot groups.

use ngd_core::{paper, RuleSet};
use ngd_datagen::{generate_knowledge, generate_rules, KnowledgeConfig, RuleGenConfig, StdRng};
use ngd_detect::{inc_dect, pinc_dect_prepared, DetectorConfig, IncrementalSession, VioSink};
use ngd_graph::{
    AttrMap, BatchUpdate, DeltaOverlay, EdgeRef, Graph, GraphView, MmapSnapshot, NodeId, Sym, Value,
};
use ngd_integration_tests::{example7_workload, paired_moves};
use ngd_match::PlanCache;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::Duration;

/// A [`GraphView`] that forwards every call to `inner` — default methods
/// included, so the wrapped reader's fast paths stay engaged — and counts
/// the calls by what they can cost.
struct Counting<B> {
    inner: B,
    /// Reads of one node's label, attributes or adjacency.
    node_reads: AtomicU64,
    /// Whole-graph enumerations: `O(|V|)`, `O(|E|)` or one label/triple
    /// group of it.
    scans: AtomicU64,
}

impl<B> Counting<B> {
    fn new(inner: B) -> Self {
        Counting {
            inner,
            node_reads: AtomicU64::new(0),
            scans: AtomicU64::new(0),
        }
    }

    fn node(&self) -> &B {
        self.node_reads.fetch_add(1, Ordering::Relaxed);
        &self.inner
    }

    fn scan(&self) -> &B {
        self.scans.fetch_add(1, Ordering::Relaxed);
        &self.inner
    }

    /// `(node reads, scans)` since the last call.
    fn take(&self) -> (u64, u64) {
        (
            self.node_reads.swap(0, Ordering::Relaxed),
            self.scans.swap(0, Ordering::Relaxed),
        )
    }
}

impl<B: GraphView> GraphView for Counting<B> {
    // O(1) totals: free on every reader, not counted.
    fn node_count(&self) -> usize {
        self.inner.node_count()
    }
    fn edge_count(&self) -> usize {
        self.inner.edge_count()
    }
    fn label_count(&self, label: Sym) -> usize {
        self.inner.label_count(label)
    }
    fn labeled_triple_run_len(&self, s: Sym, e: Sym, d: Sym) -> Option<usize> {
        self.inner.labeled_triple_run_len(s, e, d)
    }

    fn contains_node(&self, id: NodeId) -> bool {
        self.node().contains_node(id)
    }
    fn label(&self, id: NodeId) -> Sym {
        self.node().label(id)
    }
    fn attr(&self, id: NodeId, name: Sym) -> Option<Value> {
        self.node().attr(id, name)
    }
    fn attrs_of(&self, id: NodeId) -> AttrMap {
        self.node().attrs_of(id)
    }
    fn has_edge(&self, src: NodeId, dst: NodeId, label: Sym) -> bool {
        self.node().has_edge(src, dst, label)
    }
    fn out_degree(&self, id: NodeId) -> usize {
        self.node().out_degree(id)
    }
    fn in_degree(&self, id: NodeId) -> usize {
        self.node().in_degree(id)
    }
    fn degree(&self, id: NodeId) -> usize {
        self.node().degree(id)
    }
    fn out_labeled_count(&self, id: NodeId, label: Sym) -> usize {
        self.node().out_labeled_count(id, label)
    }
    fn in_labeled_count(&self, id: NodeId, label: Sym) -> usize {
        self.node().in_labeled_count(id, label)
    }
    fn out_labeled_slice(&self, id: NodeId, label: Sym) -> Option<&[NodeId]> {
        self.node().out_labeled_slice(id, label)
    }
    fn in_labeled_slice(&self, id: NodeId, label: Sym) -> Option<&[NodeId]> {
        self.node().in_labeled_slice(id, label)
    }
    fn out_labeled_vec(&self, id: NodeId, label: Sym) -> Vec<NodeId> {
        self.node().out_labeled_vec(id, label)
    }
    fn in_labeled_vec(&self, id: NodeId, label: Sym) -> Vec<NodeId> {
        self.node().in_labeled_vec(id, label)
    }
    fn for_each_out_labeled(&self, id: NodeId, label: Sym, f: &mut dyn FnMut(NodeId)) {
        self.node().for_each_out_labeled(id, label, f)
    }
    fn for_each_in_labeled(&self, id: NodeId, label: Sym, f: &mut dyn FnMut(NodeId)) {
        self.node().for_each_in_labeled(id, label, f)
    }
    fn for_each_undirected(&self, id: NodeId, f: &mut dyn FnMut(NodeId, EdgeRef)) {
        self.node().for_each_undirected(id, f)
    }
    fn for_each_out(&self, id: NodeId, f: &mut dyn FnMut(NodeId, Sym)) {
        self.node().for_each_out(id, f)
    }

    fn nodes_with_label_vec(&self, label: Sym) -> Vec<NodeId> {
        self.scan().nodes_with_label_vec(label)
    }
    fn node_ids_vec(&self) -> Vec<NodeId> {
        self.scan().node_ids_vec()
    }
    fn for_each_edge(&self, f: &mut dyn FnMut(EdgeRef)) {
        self.scan().for_each_edge(f)
    }
    fn labeled_triple_endpoints(
        &self,
        s: Sym,
        e: Sym,
        d: Sym,
        want_src: bool,
    ) -> Option<Vec<NodeId>> {
        self.scan().labeled_triple_endpoints(s, e, d, want_src)
    }
}

/// Node reads and scans of `rounds` 16-op requests against a fresh session
/// each (the benchmark's `RESET` after every `UPDATE`), plans warm.
fn reads_per_request(snapshot: MmapSnapshot, graph: &Graph, sigma: &RuleSet) -> (u64, u64) {
    const ROUNDS: u64 = 32;
    let counted = Counting::new(snapshot);
    let cache = PlanCache::new();
    let config = DetectorConfig::with_processors(1);
    let mut rng = StdRng::seed_from_u64(0x10CA1);
    let batches: Vec<BatchUpdate> = (0..ROUNDS)
        .map(|_| paired_moves(graph, 16, &mut rng))
        .collect();
    let run = |batch: &BatchUpdate| {
        IncrementalSession::new(&counted)
            .apply_with_cache(sigma, batch, &config, &cache)
            .expect("a paired-move batch applies")
    };
    for batch in &batches {
        run(batch);
    }
    counted.take();
    let expanded: usize = batches.iter().map(|b| run(b).stats.expanded).sum();
    assert!(expanded > 0, "the batches must trigger pivots");
    let (reads, scans) = counted.take();
    (reads / ROUNDS, scans)
}

#[test]
fn a_small_batch_reads_as_much_of_111k_nodes_as_of_11k() {
    let knowledge =
        |scale| generate_knowledge(&KnowledgeConfig::dbpedia_like(scale).with_seed(1)).graph;
    let (g11k, g111k) = (knowledge(50), knowledge(500));
    assert_eq!((g11k.node_count(), g111k.node_count()), (11_100, 111_000));
    // The benchmark's Σ: four paper rules plus four mined from the small graph.
    let mut rules = vec![paper::phi1(1), paper::phi2(), paper::phi3(), paper::ngd3()];
    rules.extend(
        generate_rules(&g11k, &RuleGenConfig::paper_style(4, 3).with_seed(1))
            .rules()
            .iter()
            .cloned(),
    );
    let sigma = RuleSet::from_rules(rules);

    let (small, small_scans) = reads_per_request(g11k.freeze(), &g11k, &sigma);
    let (large, large_scans) = reads_per_request(g111k.freeze(), &g111k, &sigma);
    assert_eq!(
        (small_scans, large_scans),
        (0, 0),
        "a served UPDATE must not enumerate the graph"
    );
    let ratio = large.max(small) as f64 / large.min(small).max(1) as f64;
    assert!(
        ratio <= 1.5,
        "node reads per 16-op request: {small} on 11k nodes, {large} on 111k ({ratio:.2}x)"
    );
}

/// Tasks of this process named like the calling thread.  A thread spawned
/// without a name inherits its creator's, so anything the detector started
/// from this thread shows up here whatever the other tests of this binary
/// are doing.
#[cfg(target_os = "linux")]
fn tasks_named_like_this_thread() -> usize {
    let comm = |path: std::path::PathBuf| std::fs::read_to_string(path.join("comm")).ok();
    let mine = comm("/proc/thread-self".into()).expect("own comm");
    std::fs::read_dir("/proc/self/task")
        .expect("task list")
        .filter_map(|entry| comm(entry.ok()?.path()))
        .filter(|name| *name == mine)
        .count()
}

#[test]
fn one_processor_runs_on_the_callers_thread() {
    let (graph, delta, sigma) = example7_workload();
    let snapshot = graph.freeze();
    let caller = std::thread::current().id();
    #[cfg(target_os = "linux")]
    assert_eq!(tasks_named_like_this_thread(), 1);
    let deliveries = AtomicU64::new(0);
    let sink: VioSink<'_> = &|_, _| {
        deliveries.fetch_add(1, Ordering::Relaxed);
        assert_eq!(std::thread::current().id(), caller);
        #[cfg(target_os = "linux")]
        assert_eq!(
            tasks_named_like_this_thread(),
            1,
            "the detector spawned a thread"
        );
    };
    let report = IncrementalSession::new(&snapshot)
        .apply_streaming(
            &sigma,
            &delta,
            &DetectorConfig::with_processors(1),
            &PlanCache::new(),
            sink,
        )
        .expect("example 7 applies");
    assert_eq!(report.delta.removed.len(), 99);
    assert_eq!(deliveries.into_inner(), 99);
}

/// A worker that never returns shows as a hung request: the watchdog turns
/// that into a failure here.  Example 7 has one pivot group, so every
/// count above 1 leaves workers with nothing to do.
#[test]
fn block_and_notify_terminates_for_every_worker_count_and_variant() {
    const WORKER_COUNTS: [usize; 4] = [1, 2, 3, 8];
    let (progress_tx, progress_rx) = mpsc::channel();
    std::thread::spawn(move || {
        let (graph, delta, sigma) = example7_workload();
        let expected = inc_dect(&sigma, &graph, &delta).delta;
        assert_eq!(expected.removed.len(), 99);
        let snapshot = graph.freeze();
        let old_view = snapshot.as_overlay();
        let new_view = DeltaOverlay::new(&snapshot, &delta);
        for p in WORKER_COUNTS {
            let config = DetectorConfig::with_processors(p);
            for round in 0..200 {
                let report = pinc_dect_prepared(&sigma, &old_view, &new_view, &delta, &config);
                assert_eq!(report.delta, expected, "p={p} round {round}");
            }
            progress_tx.send(()).expect("the test is still waiting");
        }
    });
    // 200 runs take about a second unoptimised; 30 s without progress is a
    // hung worker, not a slow machine.
    for _ in 0..WORKER_COUNTS.len() {
        progress_rx
            .recv_timeout(Duration::from_secs(30))
            .expect("200 runs terminate with IncDect's ΔVio within 30 s");
    }
}
