//! Sharded per-fragment CSR snapshots for the parallel detectors.
//!
//! The paper's parallel detectors (Section 6.3) fragment `G` over `p`
//! processors.  [`ShardedSnapshot`] realises that fragmentation on top of
//! the frozen CSR representation: [`Graph::freeze_sharded`] (or
//! [`CsrSnapshot::shard`]) combines a [`Partition`] from
//! [`crate::partition`] with the global snapshot and builds one
//! **fragment snapshot** per fragment, each holding
//!
//! * the fragment's **owned nodes** (every node is owned by exactly one
//!   fragment) and their complete label-sorted adjacency runs, copied out
//!   of the global CSR into fragment-local arrays, plus
//! * a replicated **halo**: every node within `halo_depth` undirected hops
//!   of the fragment's border nodes, so that `d`-hop candidate generation
//!   near cut edges stays inside the fragment's own memory (the paper
//!   replicates the `dΣ`-neighbourhood of border nodes the same way).
//!
//! Node ids stay **global** everywhere a caller can observe them: a
//! fragment keeps a `local row ↔ global id` permutation (the same
//! machinery the label partition of [`CsrSnapshot`] uses), rows are
//! indexed locally, but neighbour entries store global ids.  Matches,
//! violations and deltas computed against a fragment are therefore
//! byte-identical to those computed against the shared snapshot.
//!
//! A [`FragmentView`] is the [`GraphView`] a detector worker holds, and
//! the crate's **one fragment reader**: it is generic over the fragment's
//! storage (heap [`FragmentSnapshot`] here, mapped section group in
//! [`crate::persist`]) and over the global view behind it, and both
//! [`ShardedSnapshot`] and [`crate::MmapShardedSnapshot`] instantiate it as
//! their [`ShardedRead::Worker`] (see the storage table in [`crate::csr`]).
//! Reads of materialised (owned + halo) nodes are served from the
//! fragment's own rows; adjacency reads of any other node fall back to the
//! global snapshot and are **counted** as cross-fragment candidate fetches
//! — on a real cluster each such read is a message to the owner, so the
//! counter is exactly the crossing-edge traffic the paper's communication
//! cost models (the detectors fold it into their `CostLedger`).  Label,
//! triple and node-count indexes are served globally without accounting:
//! they are the read-only dictionaries every processor replicates.

use crate::attrs::AttrMap;
use crate::csr::{CsrSnapshot, MemRows, RowStore};
use crate::graph::{EdgeRef, Graph, NodeData, NodeId};
use crate::interner::Sym;
use crate::neighborhood::d_neighbors_many;
use crate::partition::{partition, Partition, PartitionStrategy};
use crate::value::Value;
use crate::view::GraphView;
use std::sync::atomic::{AtomicU64, Ordering};

/// Fragment storage as the fragment reader sees it: local rows plus the
/// dense `global id → local row` table (`u32::MAX` = not materialised).
pub(crate) trait FragmentStore {
    type Rows: RowStore;

    fn rows(&self) -> &Self::Rows;
    fn global_to_local(&self) -> &[u32];

    /// The local row of a global node id, if materialised here.
    #[inline]
    fn local_row(&self, id: NodeId) -> Option<usize> {
        match self.global_to_local().get(id.index()) {
            Some(&row) if row != u32::MAX => Some(row as usize),
            _ => None,
        }
    }

    /// The rows and the local row of `id`, if materialised here.
    #[inline]
    fn local(&self, id: NodeId) -> Option<(&Self::Rows, usize)> {
        Some((self.rows(), self.local_row(id)?))
    }
}

/// One fragment's frozen CSR: owned nodes plus the replicated halo, with
/// complete adjacency runs in fragment-local arrays.
#[derive(Debug, Clone)]
pub struct FragmentSnapshot {
    /// Fragment index in `0..p`.
    id: usize,
    /// Global ids of the materialised nodes, owned first, halo after
    /// (each segment sorted by id).
    local_to_global: Vec<NodeId>,
    /// Number of owned nodes (`local_to_global[..owned_count]`).
    owned_count: usize,
    /// Dense global id → local row translation table (`u32::MAX` = not
    /// materialised here); one O(1) array read on every adjacency access.
    /// Dense beats a hash map on the hot path but costs 4·|V| bytes per
    /// fragment (O(p·|V|) across the snapshot) — swap for a paged or
    /// hashed table when fragments move out-of-process.
    global_to_local: Vec<u32>,
    /// Node payloads and both adjacency directions, indexed by local row;
    /// neighbour entries are global ids.
    rows: MemRows,
    /// Number of directed edges whose source row is materialised.
    edge_entries: usize,
}

impl FragmentSnapshot {
    /// Fragment index.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Global ids of the owned nodes.
    pub fn owned_nodes(&self) -> &[NodeId] {
        &self.local_to_global[..self.owned_count]
    }

    /// Global ids of the replicated halo nodes.
    pub fn halo_nodes(&self) -> &[NodeId] {
        &self.local_to_global[self.owned_count..]
    }

    /// Number of materialised (owned + halo) nodes.
    pub fn materialized_count(&self) -> usize {
        self.local_to_global.len()
    }

    /// Is the node's adjacency materialised in this fragment?
    pub fn is_local(&self, id: NodeId) -> bool {
        self.local_row(id).is_some()
    }

    /// Does this fragment own the node?
    pub fn owns(&self, id: NodeId) -> bool {
        self.local_row(id).is_some_and(|row| row < self.owned_count)
    }

    /// Number of out-edge entries replicated into this fragment.
    pub fn edge_entries(&self) -> usize {
        self.edge_entries
    }

    /// Global ids of the materialised rows, for the snapshot writer.
    pub(crate) fn raw_local_to_global(&self) -> &[NodeId] {
        &self.local_to_global
    }
}

impl FragmentStore for FragmentSnapshot {
    type Rows = MemRows;

    #[inline]
    fn rows(&self) -> &MemRows {
        &self.rows
    }

    #[inline]
    fn global_to_local(&self) -> &[u32] {
        &self.global_to_local
    }
}

/// A partitioned set of frozen fragment snapshots over one global
/// [`CsrSnapshot`].
#[derive(Debug, Clone)]
pub struct ShardedSnapshot {
    global: CsrSnapshot,
    partition: Partition,
    halo_depth: usize,
    fragments: Vec<FragmentSnapshot>,
}

impl ShardedSnapshot {
    /// Number of fragments.
    pub fn fragment_count(&self) -> usize {
        self.fragments.len()
    }

    /// The partition the shards were built from.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// The global snapshot backing remote reads.
    pub fn global(&self) -> &CsrSnapshot {
        &self.global
    }

    /// The halo replication depth the shards were built with.
    pub fn halo_depth(&self) -> usize {
        self.halo_depth
    }

    /// One fragment's snapshot.
    pub fn fragment(&self, idx: usize) -> &FragmentSnapshot {
        &self.fragments[idx]
    }

    /// A worker's [`GraphView`] over fragment `idx`.
    pub fn fragment_view(&self, idx: usize) -> FragmentView<'_> {
        FragmentView::new(&self.fragments[idx], &self.global)
    }

    /// Fragment a work item anchored at `node` routes to (see
    /// [`Partition::route_of`]).
    pub fn route_of(&self, node: NodeId) -> usize {
        self.partition.route_of(node)
    }

    /// Total materialised nodes across fragments divided by `|V|`: 1.0
    /// means no replication, larger values measure the memory paid for the
    /// halo (0.0 on an empty graph).
    pub fn replication_factor(&self) -> f64 {
        let total: usize = self
            .fragments
            .iter()
            .map(FragmentSnapshot::materialized_count)
            .sum();
        let n = GraphView::node_count(&self.global);
        if n == 0 {
            0.0
        } else {
            total as f64 / n as f64
        }
    }
}

/// Build the per-fragment snapshots of `partition` over any [`GraphView`]
/// of the global graph.
///
/// [`Graph::freeze_sharded`] hands it the frozen [`CsrSnapshot`].
/// Snapshot compaction ([`crate::persist::CompactionWriter`]) no longer
/// goes through here: it classifies the net delta per fragment, byte-copies
/// untouched section groups from the old file, and rebuilds touched
/// fragments by slice gathers from the merged global arrays — relying on
/// the invariant this builder establishes, that a fragment row's encoded
/// content (complete runs, global neighbour ids, `(label, neighbour)`
/// order, self-loop parity of one entry per side) equals the global
/// file-space content of the same node.  Per-list entry order does not
/// matter (every run is sorted when the rows are built), so any view
/// produces identical fragments for the same logical graph.
pub(crate) fn build_fragments_from_view<G: GraphView + ?Sized>(
    global: &G,
    partition: &Partition,
    halo_depth: usize,
) -> Vec<FragmentSnapshot> {
    partition
        .fragments
        .iter()
        .map(|frag| {
            // Local node set: owned nodes, then every non-owned node
            // within `halo_depth` hops of the fragment's border nodes.
            // Any search path that leaves owned territory crosses the
            // cut at a border node, so N_d(owned) ⊆ owned ∪ N_d(border).
            let mut owned: Vec<NodeId> = frag.nodes.clone();
            owned.sort_unstable();
            let reach = d_neighbors_many(global, frag.border_nodes.iter().copied(), halo_depth);
            let mut halo: Vec<NodeId> = reach
                .nodes()
                .filter(|n| owned.binary_search(n).is_err())
                .collect();
            halo.sort_unstable();

            let owned_count = owned.len();
            let mut local_to_global = owned;
            local_to_global.extend_from_slice(&halo);
            let mut global_to_local = vec![u32::MAX; GraphView::node_count(global)];
            for (row, &id) in local_to_global.iter().enumerate() {
                global_to_local[id.index()] = row as u32;
            }
            let nodes: Vec<NodeData> = local_to_global
                .iter()
                .map(|&id| NodeData {
                    label: GraphView::label(global, id),
                    attrs: GraphView::attrs_of(global, id).clone(),
                })
                .collect();
            // Complete runs per materialised node, neighbour entries kept
            // global, both directions filled from ONE undirected pass per
            // node (the same adjacency volume the CSR-copying path read).
            // A self-loop is emitted once per side with an identical
            // `EdgeRef`; the first emission goes to the out run and the
            // second to the in run, tracked lazily — the tiny parity list
            // only ever allocates on a node that actually has a loop.
            let mut out_lists: Vec<Vec<(Sym, NodeId)>> = vec![Vec::new(); local_to_global.len()];
            let mut in_lists: Vec<Vec<(Sym, NodeId)>> = vec![Vec::new(); local_to_global.len()];
            for (row, &id) in local_to_global.iter().enumerate() {
                let (out_list, in_list) = (&mut out_lists[row], &mut in_lists[row]);
                let mut loop_parity: Vec<(Sym, bool)> = Vec::new();
                GraphView::for_each_undirected(global, id, &mut |_, e| {
                    if e.src == id && e.dst == id {
                        match loop_parity.iter_mut().find(|(l, _)| *l == e.label) {
                            // Second emission of this loop edge: in run.
                            Some(entry) if entry.1 => {
                                entry.1 = false;
                                in_list.push((e.label, id));
                            }
                            // First emission (again): out run.
                            Some(entry) => {
                                entry.1 = true;
                                out_list.push((e.label, id));
                            }
                            None => {
                                loop_parity.push((e.label, true));
                                out_list.push((e.label, id));
                            }
                        }
                    } else if e.src == id {
                        out_list.push((e.label, e.dst));
                    } else {
                        in_list.push((e.label, e.src));
                    }
                });
            }
            let edge_entries = out_lists.iter().map(Vec::len).sum();
            FragmentSnapshot {
                id: frag.id,
                local_to_global,
                owned_count,
                global_to_local,
                rows: MemRows::build(nodes, out_lists, in_lists),
                edge_entries,
            }
        })
        .collect()
}

impl CsrSnapshot {
    /// Shard this snapshot along `partition`, replicating a halo of
    /// `halo_depth` undirected hops around every fragment's border nodes.
    ///
    /// Pass the rule-set diameter `dΣ` as `halo_depth` to make the
    /// detectors' candidate generation local for every match anchored at
    /// an owned node; smaller depths trade replicated memory for remote
    /// fetches (all still answered correctly via the global fallback).
    ///
    /// Clones the snapshot and the partition into the result; when the
    /// caller is done with both, [`CsrSnapshot::into_sharded`] avoids the
    /// copies.
    pub fn shard(&self, partition: &Partition, halo_depth: usize) -> ShardedSnapshot {
        self.clone().into_sharded(partition.clone(), halo_depth)
    }

    /// As [`CsrSnapshot::shard`], consuming the snapshot and partition so
    /// no second copy of the global arrays is ever held.
    pub fn into_sharded(self, partition: Partition, halo_depth: usize) -> ShardedSnapshot {
        let fragments = build_fragments_from_view(&self, &partition, halo_depth);
        ShardedSnapshot {
            global: self,
            partition,
            halo_depth,
            fragments,
        }
    }
}

impl Graph {
    /// Freeze the graph and shard it into `parts` fragments with the given
    /// partitioning strategy and halo depth — the one-call entry point the
    /// sharded detectors use.
    pub fn freeze_sharded(
        &self,
        parts: usize,
        strategy: PartitionStrategy,
        halo_depth: usize,
    ) -> ShardedSnapshot {
        let snapshot = self.freeze();
        let part = partition(&snapshot, parts, strategy);
        snapshot.into_sharded(part, halo_depth)
    }
}

/// A detector worker's read view of one fragment: the fragment's own rows
/// for materialised nodes, an *accounted* global fallback for everything
/// else.  `F` is the fragment storage and `G` the global view behind it;
/// the defaults are the in-memory pair, [`crate::MmapFragmentView`] names
/// the mapped one.
#[derive(Debug)]
pub struct FragmentView<'a, F = FragmentSnapshot, G = CsrSnapshot> {
    fragment: &'a F,
    global: &'a G,
    /// Adjacency reads served by the global fallback — each one models a
    /// candidate fetch from the owning fragment.
    remote_fetches: AtomicU64,
}

impl<'a, F, G> FragmentView<'a, F, G> {
    pub(crate) fn new(fragment: &'a F, global: &'a G) -> Self {
        FragmentView {
            fragment,
            global,
            remote_fetches: AtomicU64::new(0),
        }
    }

    /// The fragment storage this view reads.
    pub(crate) fn storage(&self) -> &'a F {
        self.fragment
    }

    /// Cross-fragment candidate fetches performed through this view so far.
    pub fn remote_fetches(&self) -> u64 {
        self.remote_fetches.load(Ordering::Relaxed)
    }

    /// The global view, with one remote adjacency fetch recorded.
    #[inline]
    fn remote(&self) -> &'a G {
        self.remote_fetches.fetch_add(1, Ordering::Relaxed);
        self.global
    }
}

impl<'a> FragmentView<'a> {
    /// The fragment this view reads.
    pub fn fragment(&self) -> &'a FragmentSnapshot {
        self.storage()
    }
}

/// The fragment reader.
impl<'a, F: FragmentStore, G: GraphView> GraphView for FragmentView<'a, F, G> {
    fn node_count(&self) -> usize {
        self.global.node_count()
    }

    fn edge_count(&self) -> usize {
        self.global.edge_count()
    }

    fn contains_node(&self, id: NodeId) -> bool {
        self.global.contains_node(id)
    }

    fn label(&self, id: NodeId) -> Sym {
        match self.fragment.local(id) {
            Some((rows, row)) => rows.row_label(row),
            None => self.global.label(id),
        }
    }

    fn attr(&self, id: NodeId, name: Sym) -> Option<&Value> {
        self.attrs_of(id).get(name)
    }

    fn attrs_of(&self, id: NodeId) -> &AttrMap {
        match self.fragment.local(id) {
            Some((rows, row)) => rows.row_attrs(row),
            None => self.global.attrs_of(id),
        }
    }

    fn has_edge(&self, src: NodeId, dst: NodeId, label: Sym) -> bool {
        // Prefer whichever endpoint is materialised; runs are complete, so
        // one local endpoint suffices.
        if let Some((rows, row)) = self.fragment.local(src) {
            return rows.out_run(row, label).binary_search(&dst).is_ok();
        }
        if let Some((rows, row)) = self.fragment.local(dst) {
            return rows.in_run(row, label).binary_search(&src).is_ok();
        }
        if !self.global.contains_node(src) || !self.global.contains_node(dst) {
            return false;
        }
        self.remote().has_edge(src, dst, label)
    }

    fn out_degree(&self, id: NodeId) -> usize {
        match self.fragment.local(id) {
            Some((rows, row)) => rows.out_side().degree(row),
            None => self.remote().out_degree(id),
        }
    }

    fn in_degree(&self, id: NodeId) -> usize {
        match self.fragment.local(id) {
            Some((rows, row)) => rows.in_side().degree(row),
            None => self.remote().in_degree(id),
        }
    }

    fn label_count(&self, label: Sym) -> usize {
        // Replicated dictionary — global, unaccounted.
        self.global.label_count(label)
    }

    fn nodes_with_label_vec(&self, label: Sym) -> Vec<NodeId> {
        self.global.nodes_with_label_vec(label)
    }

    fn out_labeled_count(&self, id: NodeId, label: Sym) -> usize {
        match self.fragment.local(id) {
            Some((rows, row)) => rows.out_run(row, label).len(),
            None => self.remote().out_labeled_count(id, label),
        }
    }

    fn in_labeled_count(&self, id: NodeId, label: Sym) -> usize {
        match self.fragment.local(id) {
            Some((rows, row)) => rows.in_run(row, label).len(),
            None => self.remote().in_labeled_count(id, label),
        }
    }

    fn out_labeled_slice(&self, id: NodeId, label: Sym) -> Option<&[NodeId]> {
        match self.fragment.local(id) {
            Some((rows, row)) => Some(rows.out_run(row, label)),
            None => self.remote().out_labeled_slice(id, label),
        }
    }

    fn in_labeled_slice(&self, id: NodeId, label: Sym) -> Option<&[NodeId]> {
        match self.fragment.local(id) {
            Some((rows, row)) => Some(rows.in_run(row, label)),
            None => self.remote().in_labeled_slice(id, label),
        }
    }

    fn for_each_out_labeled(&self, id: NodeId, label: Sym, f: &mut dyn FnMut(NodeId)) {
        match self.fragment.local(id) {
            Some((rows, row)) => rows.out_run(row, label).iter().for_each(|&n| f(n)),
            None => self.remote().for_each_out_labeled(id, label, f),
        }
    }

    fn for_each_in_labeled(&self, id: NodeId, label: Sym, f: &mut dyn FnMut(NodeId)) {
        match self.fragment.local(id) {
            Some((rows, row)) => rows.in_run(row, label).iter().for_each(|&n| f(n)),
            None => self.remote().for_each_in_labeled(id, label, f),
        }
    }

    fn for_each_undirected(&self, id: NodeId, f: &mut dyn FnMut(NodeId, EdgeRef)) {
        match self.fragment.local(id) {
            Some((rows, row)) => rows.for_each_incident(row, id, f),
            None => self.remote().for_each_undirected(id, f),
        }
    }

    fn for_each_out(&self, id: NodeId, f: &mut dyn FnMut(NodeId, Sym)) {
        match self.fragment.local(id) {
            Some((rows, row)) => rows.for_each_out_entry(row, f),
            None => self.remote().for_each_out(id, f),
        }
    }

    fn for_each_edge(&self, f: &mut dyn FnMut(EdgeRef)) {
        // Whole-graph iteration is a global scan by definition.
        self.global.for_each_edge(f)
    }

    fn triple_run_len(&self, src_label: Sym, edge_label: Sym, dst_label: Sym) -> Option<usize> {
        self.global.triple_run_len(src_label, edge_label, dst_label)
    }

    fn triple_endpoints(
        &self,
        src_label: Sym,
        edge_label: Sym,
        dst_label: Sym,
        want_src: bool,
    ) -> Option<Vec<NodeId>> {
        self.global
            .triple_endpoints(src_label, edge_label, dst_label, want_src)
    }

    fn labeled_triple_run_len(
        &self,
        src_label: Sym,
        edge_label: Sym,
        dst_label: Sym,
    ) -> Option<usize> {
        self.global
            .labeled_triple_run_len(src_label, edge_label, dst_label)
    }

    fn labeled_triple_endpoints(
        &self,
        src_label: Sym,
        edge_label: Sym,
        dst_label: Sym,
        want_src: bool,
    ) -> Option<Vec<NodeId>> {
        self.global
            .labeled_triple_endpoints(src_label, edge_label, dst_label, want_src)
    }
}

/// A view that counts the adjacency reads it could not serve locally —
/// the modelled cross-fragment communication of the parallel detectors.
pub trait RemoteAccounting {
    /// Cross-fragment candidate fetches performed through this view so far.
    fn remote_fetches(&self) -> u64;
}

impl<'a, F, G> RemoteAccounting for FragmentView<'a, F, G> {
    fn remote_fetches(&self) -> u64 {
        FragmentView::remote_fetches(self)
    }
}

/// Read access to a fragmented snapshot, abstracted over storage.
///
/// The sharded detectors (`pdect_sharded` / `pinc_dect_sharded`) consume
/// this trait instead of [`ShardedSnapshot`] directly, so the same worker
/// loop runs over
///
/// * an in-memory [`ShardedSnapshot`] (workers read [`FragmentView`]s), and
/// * a memory-mapped [`crate::persist::MmapShardedSnapshot`] (workers read
///   [`crate::persist::MmapFragmentView`]s over the on-disk arrays).
///
/// Implementations must uphold the [`ShardedSnapshot`] contract: every node
/// is owned by exactly one fragment, worker views observe the full global
/// graph (falling back past their fragment where necessary), and fallback
/// reads are counted through [`RemoteAccounting`].
pub trait ShardedRead: Sync {
    /// The replicated global dictionary view (labels, triple index, …).
    type Global: GraphView + Sync;
    /// The per-worker fragment view.
    type Worker<'a>: GraphView + RemoteAccounting + Sync
    where
        Self: 'a;

    /// The global snapshot backing remote reads and candidate selection.
    fn global_view(&self) -> &Self::Global;

    /// Number of fragments (= workers).
    fn shard_count(&self) -> usize;

    /// Fragment a work item anchored at `node` routes to.
    fn route_to(&self, node: NodeId) -> usize;

    /// The partition the shards were built from.
    fn shard_partition(&self) -> &Partition;

    /// A worker's read view over fragment `idx`.
    fn worker_view(&self, idx: usize) -> Self::Worker<'_>;
}

impl ShardedRead for ShardedSnapshot {
    type Global = CsrSnapshot;
    type Worker<'a> = FragmentView<'a>;

    fn global_view(&self) -> &CsrSnapshot {
        self.global()
    }

    fn shard_count(&self) -> usize {
        self.fragment_count()
    }

    fn route_to(&self, node: NodeId) -> usize {
        self.route_of(node)
    }

    fn shard_partition(&self) -> &Partition {
        self.partition()
    }

    fn worker_view(&self, idx: usize) -> FragmentView<'_> {
        self.fragment_view(idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::AttrMap;
    use crate::conformance::assert_conforms;
    use crate::interner::intern;

    fn two_communities() -> Graph {
        // Two dense 6-cliques bridged by a single edge: an edge-cut
        // partitioner separates the communities cleanly.
        let mut g = Graph::new();
        let mut nodes = Vec::new();
        for c in 0..2 {
            let members: Vec<NodeId> = (0..6)
                .map(|i| {
                    g.add_node_named(
                        if i % 2 == 0 { "even" } else { "odd" },
                        AttrMap::from_pairs([("val", Value::Int(c * 10 + i))]),
                    )
                })
                .collect();
            for i in 0..members.len() {
                for j in (i + 1)..members.len() {
                    g.add_edge_named(members[i], members[j], "intra").unwrap();
                }
            }
            nodes.push(members);
        }
        g.add_edge_named(nodes[0][5], nodes[1][0], "bridge")
            .unwrap();
        g
    }

    #[test]
    fn every_node_is_owned_by_exactly_one_fragment() {
        let g = two_communities();
        for strategy in [PartitionStrategy::EdgeCut, PartitionStrategy::VertexCut] {
            let sharded = g.freeze_sharded(3, strategy, 1);
            let mut owners = vec![0usize; g.node_count()];
            for f in 0..sharded.fragment_count() {
                for &n in sharded.fragment(f).owned_nodes() {
                    owners[n.index()] += 1;
                    assert!(sharded.fragment(f).owns(n));
                }
            }
            assert!(owners.iter().all(|&c| c == 1), "{strategy:?}: {owners:?}");
        }
    }

    #[test]
    fn fragment_views_are_indistinguishable_from_the_global_snapshot() {
        let g = two_communities();
        let global = g.freeze();
        for strategy in [PartitionStrategy::EdgeCut, PartitionStrategy::VertexCut] {
            for halo in [0, 1, 2] {
                let part = partition(&global, 2, strategy);
                let sharded = global.shard(&part, halo);
                for f in 0..sharded.fragment_count() {
                    let what = format!("{strategy:?} halo {halo} fragment {f}");
                    assert_conforms(&sharded.fragment_view(f), &g, &what);
                }
            }
        }
    }

    #[test]
    fn local_reads_of_owned_nodes_do_not_touch_the_global_fallback() {
        let g = two_communities();
        let sharded = g.freeze_sharded(2, PartitionStrategy::EdgeCut, 1);
        for f in 0..sharded.fragment_count() {
            let view = sharded.fragment_view(f);
            for &n in sharded.fragment(f).owned_nodes() {
                let _ = view.out_labeled_slice(n, intern("intra"));
                let _ = view.in_degree(n);
                view.for_each_undirected(n, &mut |_, _| {});
            }
            assert_eq!(view.remote_fetches(), 0, "fragment {f}");
        }
    }

    #[test]
    fn remote_reads_are_counted() {
        let g = two_communities();
        let sharded = g.freeze_sharded(2, PartitionStrategy::EdgeCut, 0);
        // With a zero-depth halo, a fragment materialises only its owned
        // nodes; reading the other community's adjacency must count.
        let view = sharded.fragment_view(0);
        let foreign: Vec<NodeId> = (0..g.node_count() as u32)
            .map(NodeId)
            .filter(|n| !sharded.fragment(0).is_local(*n))
            .collect();
        assert!(!foreign.is_empty());
        for &n in &foreign {
            view.for_each_out_labeled(n, intern("intra"), &mut |_| {});
        }
        assert_eq!(view.remote_fetches(), foreign.len() as u64);
    }

    #[test]
    fn halo_covers_the_d_neighborhood_of_owned_nodes() {
        let g = two_communities();
        let global = g.freeze();
        for d in [1, 2] {
            let part = partition(&global, 2, PartitionStrategy::EdgeCut);
            let sharded = global.shard(&part, d);
            for f in 0..sharded.fragment_count() {
                let frag = sharded.fragment(f);
                let reach = d_neighbors_many(&global, frag.owned_nodes().iter().copied(), d);
                for n in reach.nodes() {
                    assert!(
                        frag.is_local(n),
                        "fragment {f}: {n} within {d} hops of owned nodes but not local"
                    );
                }
            }
        }
    }

    #[test]
    fn replication_factor_grows_with_halo_depth() {
        let g = two_communities();
        let global = g.freeze();
        let part = partition(&global, 2, PartitionStrategy::EdgeCut);
        let r0 = global.shard(&part, 0).replication_factor();
        let r2 = global.shard(&part, 2).replication_factor();
        assert!((r0 - 1.0).abs() < 1e-9, "no halo means no replication");
        assert!(r2 > r0);
    }

    #[test]
    fn empty_and_degenerate_graphs_shard_cleanly() {
        let empty = Graph::new().freeze_sharded(4, PartitionStrategy::EdgeCut, 2);
        assert_eq!(empty.fragment_count(), 4);
        assert_eq!(empty.replication_factor(), 0.0);

        let mut single = Graph::new();
        single.add_node_named("only", AttrMap::new());
        let sharded = single.freeze_sharded(3, PartitionStrategy::VertexCut, 1);
        let owned: usize = (0..sharded.fragment_count())
            .map(|f| sharded.fragment(f).owned_nodes().len())
            .sum();
        assert_eq!(owned, 1);
        assert_eq!(
            sharded.route_of(NodeId(0)),
            sharded.partition().owner_of(NodeId(0))
        );
        assert!(sharded.route_of(NodeId(17)) < sharded.fragment_count());
    }
}
