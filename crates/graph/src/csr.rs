//! The CSR reader and its in-memory storage.
//!
//! Both frozen representations of this crate store adjacency the same
//! way: per node one **run** of `(edge label, neighbour)` entries sorted by
//! that pair, so that
//!
//! * the matcher's candidate-selection step — "neighbours of `v` along
//!   edges labelled `l`" — is a binary search yielding a **contiguous
//!   slice** instead of a filter-scan over a heap-allocated list;
//! * `has_edge` is two binary searches over cache-resident arrays instead
//!   of a hash lookup;
//! * the node set is label-partitioned (a permutation array grouped by
//!   label), so "all nodes labelled `l`" is a contiguous range; and
//! * a `(source label, edge label, destination label)` **triple index**
//!   maps every label triple to the contiguous run of its edges, which the
//!   matcher uses to seed its first variable on label-skewed workloads.
//!
//! That layout is read by exactly one piece of code.  `Side` borrows one
//! direction's three arrays and owns the run logic (the binary search that
//! bounds a labelled run lives in `Side::labeled_range` and nowhere else);
//! the crate-private `CsrStore` trait is the seam through which a storage
//! hands its arrays to the reader; and the single blanket impl of
//! [`GraphView`] over `S: CsrStore` at the bottom of this module is the
//! reader.  Who plugs in what:
//!
//! | storage | run-key space | row label / attributes |
//! |---|---|---|
//! | [`CsrSnapshot`] (heap arrays, [`Graph::freeze`]) | [`Sym`] itself (identity) | `Vec<NodeData>` |
//! | [`crate::MmapSnapshot`] (mapped `.ngds` sections) | file symbol id, via a dense `Sym → id` table | mapped label array; attribute records decoded in place on each read, nothing cached |
//!
//! Freezing ([`Graph::freeze`]) is a few linear passes over the graph's
//! own adjacency lists: nothing is sorted as a whole, only each node's
//! run and the distinct labels and label triples.  Updates keep flowing
//! through the mutable [`Graph`] / `BatchUpdate` machinery, and the
//! incremental detectors search a snapshot plus an unapplied update
//! through [`crate::DeltaOverlay`].

use crate::attrs::AttrMap;
use crate::graph::{EdgeRef, Graph, NodeData, NodeId};
use crate::hash::IdMap;
use crate::interner::{Sym, WILDCARD};
use crate::value::Value;
use crate::view::GraphView;
use std::hash::Hash;
use std::ops::Range;

/// One direction (out or in) of a CSR adjacency, borrowed from whichever
/// storage holds the arrays.  `K` is the storage's run-key type: the edge
/// label in the order the runs are sorted by.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Side<'a, K> {
    /// `offsets[row]..offsets[row + 1]` indexes the run of `row`.
    pub(crate) offsets: &'a [u32],
    /// Run key of each entry; runs are sorted by `(key, neighbour)`.
    pub(crate) keys: &'a [K],
    /// Neighbour of each entry (always a global node id).
    pub(crate) neighbors: &'a [NodeId],
}

impl<'a, K: Copy + Ord> Side<'a, K> {
    #[inline]
    pub(crate) fn row_range(&self, row: usize) -> Range<usize> {
        self.offsets[row] as usize..self.offsets[row + 1] as usize
    }

    #[inline]
    pub(crate) fn degree(&self, row: usize) -> usize {
        self.row_range(row).len()
    }

    /// The contiguous sub-range of `row`'s run whose entries carry `key`.
    #[inline]
    pub(crate) fn labeled_range(&self, row: usize, key: K) -> Range<usize> {
        let range = self.row_range(row);
        let run = &self.keys[range.clone()];
        let start = run.partition_point(|&k| k < key);
        let end = run.partition_point(|&k| k <= key);
        range.start + start..range.start + end
    }

    /// The neighbours of `row` along `key`, sorted.
    #[inline]
    pub(crate) fn labeled(&self, row: usize, key: K) -> &'a [NodeId] {
        &self.neighbors[self.labeled_range(row, key)]
    }

    /// Binary-search for `neighbor` inside the `(row, key)` run.
    #[inline]
    pub(crate) fn contains(&self, row: usize, key: K, neighbor: NodeId) -> bool {
        self.labeled(row, key).binary_search(&neighbor).is_ok()
    }

    /// The `(key, neighbour)` entries of `row`'s run, in CSR order.
    #[inline]
    pub(crate) fn entries(&self, row: usize) -> impl Iterator<Item = (K, NodeId)> + 'a {
        let (keys, neighbors) = (self.keys, self.neighbors);
        self.row_range(row).map(move |i| (keys[i], neighbors[i]))
    }
}

/// `label → range` into a label-partitioned node permutation.
pub(crate) type LabelRanges = IdMap<Sym, (u32, u32)>;
/// `(src label, edge label, dst label) → range` into the triple arrays.
pub(crate) type TripleRanges = IdMap<(Sym, Sym, Sym), (u32, u32)>;

/// CSR storage: the seam between the arrays (heap or mapped file) and the
/// reader — row-addressed adjacency (a *row* is a node id) plus the two
/// dictionaries (label partition, triple index).  Implementing this is
/// what makes a type a [`GraphView`].
pub(crate) trait CsrStore {
    /// The type runs are keyed and sorted by.
    type Key: Copy + Ord;

    fn out_side(&self) -> Side<'_, Self::Key>;
    fn in_side(&self) -> Side<'_, Self::Key>;
    /// The run key of an edge label; `None` when no run of this storage
    /// can carry it.
    fn key_of(&self, label: Sym) -> Option<Self::Key>;
    fn sym_of(&self, key: Self::Key) -> Sym;
    fn row_label(&self, row: usize) -> Sym;
    /// One attribute of `row`, by value (see [`GraphView::attr`]).
    fn row_attr(&self, row: usize, name: Sym) -> Option<Value>;
    /// The attribute tuple of `row`, owned (see [`GraphView::attrs_of`]).
    fn row_attrs(&self, row: usize) -> AttrMap;
    /// `(|V|, |E|)`.
    fn counts(&self) -> (usize, usize);
    /// The label ranges and the node permutation they index.
    fn label_partition(&self) -> (&LabelRanges, &[NodeId]);
    /// The triple ranges and the `(src, dst)` arrays they index, each
    /// group sorted by `(src, dst)`.
    fn triple_index(&self) -> (&TripleRanges, &[NodeId], &[NodeId]);

    /// Out-neighbours of `row` along `label`, sorted.
    #[inline]
    fn out_run(&self, row: usize, label: Sym) -> &[NodeId] {
        match self.key_of(label) {
            Some(key) => self.out_side().labeled(row, key),
            None => &[],
        }
    }

    /// In-neighbours of `row` along `label`, sorted.
    #[inline]
    fn in_run(&self, row: usize, label: Sym) -> &[NodeId] {
        match self.key_of(label) {
            Some(key) => self.in_side().labeled(row, key),
            None => &[],
        }
    }

    /// The nodes labelled `label`, as a contiguous slice of the partition.
    fn label_members(&self, label: Sym) -> &[NodeId] {
        let (ranges, order) = self.label_partition();
        match ranges.get(&label) {
            Some(&(start, end)) => &order[start as usize..end as usize],
            None => &[],
        }
    }

    /// Number of edges matching the fully concrete label triple.
    fn triple_len(&self, key: (Sym, Sym, Sym)) -> usize {
        match self.triple_index().0.get(&key) {
            Some(&(start, end)) => (end - start) as usize,
            None => 0,
        }
    }
}

/// One direction of the in-memory CSR adjacency.
#[derive(Debug, Clone, Default)]
struct CsrSide {
    offsets: Vec<u32>,
    labels: Vec<Sym>,
    neighbors: Vec<NodeId>,
}

impl CsrSide {
    /// Lay one direction out from the graph's own adjacency lists: the
    /// offsets are the running sum of the list lengths, and one flat
    /// `(label, neighbour)` array is filled list by list and each run
    /// sorted in place, so the lists' entry order does not matter.
    fn from_lists<'g>(
        rows: usize,
        total: usize,
        list: impl Fn(NodeId) -> &'g [(NodeId, Sym)],
    ) -> CsrSide {
        let mut offsets = Vec::with_capacity(rows + 1);
        let mut entries: Vec<(Sym, NodeId)> = Vec::with_capacity(total);
        offsets.push(0);
        for row in 0..rows {
            let start = entries.len();
            entries.extend(list(NodeId(row as u32)).iter().map(|&(n, l)| (l, n)));
            entries[start..].sort_unstable();
            offsets.push(entries.len() as u32);
        }
        let (labels, neighbors) = entries.into_iter().unzip();
        CsrSide {
            offsets,
            labels,
            neighbors,
        }
    }

    fn side(&self) -> Side<'_, Sym> {
        Side {
            offsets: &self.offsets,
            keys: &self.labels,
            neighbors: &self.neighbors,
        }
    }
}

/// An immutable, label-partitioned CSR snapshot of a [`Graph`].
#[derive(Debug, Clone, Default)]
pub struct CsrSnapshot {
    pub(crate) nodes: Vec<NodeData>,
    out: CsrSide,
    inn: CsrSide,
    /// Node ids permuted so that equal labels are contiguous.
    label_order: Vec<NodeId>,
    label_ranges: LabelRanges,
    triple_ranges: TripleRanges,
    /// Edge sources, grouped by label triple, each group sorted by
    /// `(src, dst)`.
    triple_src: Vec<NodeId>,
    /// Edge destinations, aligned with [`CsrSnapshot::triple_src`].
    triple_dst: Vec<NodeId>,
    edge_count: usize,
}

impl CsrSnapshot {
    /// The nodes labelled `label`, as a contiguous slice of the
    /// label-partitioned permutation.
    pub fn nodes_with_label(&self, label: Sym) -> &[NodeId] {
        self.label_members(label)
    }

    /// Out-neighbours of `id` along `label`, as a contiguous sorted slice.
    pub fn out_neighbors_labeled(&self, id: NodeId, label: Sym) -> &[NodeId] {
        self.out_run(id.index(), label)
    }

    /// In-neighbours of `id` along `label`, as a contiguous sorted slice.
    pub fn in_neighbors_labeled(&self, id: NodeId, label: Sym) -> &[NodeId] {
        self.in_run(id.index(), label)
    }

    /// Number of edges matching the label triple.
    pub fn triple_count(&self, src_label: Sym, edge_label: Sym, dst_label: Sym) -> usize {
        self.triple_len((src_label, edge_label, dst_label))
    }

    /// A [`DeltaOverlay`](crate::DeltaOverlay) of this snapshot with no
    /// pending update — a zero-cost "identity" view, useful where an
    /// overlay type is required for both sides of an incremental run.
    pub fn as_overlay(&self) -> crate::overlay::DeltaOverlay<'_> {
        crate::overlay::DeltaOverlay::empty(self)
    }
}

impl CsrStore for CsrSnapshot {
    type Key = Sym;

    #[inline]
    fn out_side(&self) -> Side<'_, Sym> {
        self.out.side()
    }

    #[inline]
    fn in_side(&self) -> Side<'_, Sym> {
        self.inn.side()
    }

    #[inline]
    fn key_of(&self, label: Sym) -> Option<Sym> {
        Some(label)
    }

    #[inline]
    fn sym_of(&self, key: Sym) -> Sym {
        key
    }

    #[inline]
    fn row_label(&self, row: usize) -> Sym {
        self.nodes[row].label
    }

    #[inline]
    fn row_attr(&self, row: usize, name: Sym) -> Option<Value> {
        self.nodes[row].attrs.get(name).cloned()
    }

    fn row_attrs(&self, row: usize) -> AttrMap {
        self.nodes[row].attrs.clone()
    }

    #[inline]
    fn counts(&self) -> (usize, usize) {
        (self.nodes.len(), self.edge_count)
    }

    fn label_partition(&self) -> (&LabelRanges, &[NodeId]) {
        (&self.label_ranges, &self.label_order)
    }

    fn triple_index(&self) -> (&TripleRanges, &[NodeId], &[NodeId]) {
        (&self.triple_ranges, &self.triple_src, &self.triple_dst)
    }
}

impl Graph {
    /// Freeze the graph into an immutable [`CsrSnapshot`].
    ///
    /// Node ids are preserved (the snapshot keeps the arena order), so
    /// matches, violations and reports computed over the snapshot are
    /// directly comparable with those computed over the adjacency-list
    /// representation.
    ///
    /// Linear passes, no global sort: each side's offsets are the running
    /// sum of the adjacency-list lengths and its runs are sorted one at a
    /// time; the label partition and the triple index are counting sorts
    /// (`group_by_key`) in which only the distinct keys are sorted.
    pub fn freeze(&self) -> CsrSnapshot {
        let _span = ngd_obs::span!("persist.freeze");
        let (n, m) = (self.node_count(), self.edge_count());
        let nodes: Vec<NodeData> = self.node_ids().map(|id| self.node(id).clone()).collect();
        let labels: Vec<Sym> = nodes.iter().map(|node| node.label).collect();
        let out = CsrSide::from_lists(n, m, |id| self.out_neighbors(id));
        let inn = CsrSide::from_lists(n, m, |id| self.in_neighbors(id));

        // Label partition: a counting pass over the node labels; ids are
        // placed in id order, so each group is ascending.
        let (slots, label_ranges) = group_by_key(labels.iter().copied(), n);
        let mut label_order = vec![NodeId(0); n];
        for (id, &slot) in slots.iter().enumerate() {
            label_order[slot as usize] = NodeId(id as u32);
        }

        // Triple index: a count-then-place pass over the sorted out-runs.
        // Sources are walked in id order and each run is sorted by
        // `(edge label, dst)`, so every group comes out `(src, dst)`-sorted.
        let side = out.side();
        let out_edges = || {
            (0..n).flat_map(move |row| side.row_range(row).map(move |i| (NodeId(row as u32), i)))
        };
        let keys = out_edges().map(|(src, i)| {
            let dst = side.neighbors[i];
            (labels[src.index()], side.keys[i], labels[dst.index()])
        });
        let (slots, triple_ranges) = group_by_key(keys, m);
        let mut triple_src = vec![NodeId(0); m];
        let mut triple_dst = vec![NodeId(0); m];
        for (src, i) in out_edges() {
            let slot = slots[i] as usize;
            triple_src[slot] = src;
            triple_dst[slot] = side.neighbors[i];
        }

        CsrSnapshot {
            nodes,
            out,
            inn,
            label_order,
            label_ranges,
            triple_ranges,
            triple_src,
            triple_dst,
            edge_count: m,
        }
    }
}

/// A counting sort by key: the slot of each of the `len` items once they
/// are grouped by key (groups in key order, items in input order within
/// a group), and each key's slot range.  One hash lookup per item; only
/// the distinct keys are sorted.
fn group_by_key<K: Copy + Ord + Hash>(
    keys: impl Iterator<Item = K>,
    len: usize,
) -> (Vec<u32>, IdMap<K, (u32, u32)>) {
    let mut group_of: IdMap<K, u32> = IdMap::default();
    let mut distinct: Vec<K> = Vec::new();
    let mut counts: Vec<u32> = Vec::new();
    let mut slots: Vec<u32> = Vec::with_capacity(len);
    for key in keys {
        let group = *group_of.entry(key).or_insert_with(|| {
            distinct.push(key);
            counts.push(0);
            (distinct.len() - 1) as u32
        });
        counts[group as usize] += 1;
        slots.push(group);
    }
    let mut order: Vec<usize> = (0..distinct.len()).collect();
    order.sort_unstable_by_key(|&group| distinct[group]);
    let mut next = vec![0u32; distinct.len()];
    let mut ranges = IdMap::with_capacity_and_hasher(distinct.len(), Default::default());
    let mut at = 0u32;
    for group in order {
        next[group] = at;
        ranges.insert(distinct[group], (at, at + counts[group]));
        at += counts[group];
    }
    for slot in &mut slots {
        let group = *slot as usize;
        *slot = next[group];
        next[group] += 1;
    }
    (slots, ranges)
}

/// The CSR reader: rows are node ids, every read is served from the
/// storage's own arrays.
impl<S: CsrStore> GraphView for S {
    fn node_count(&self) -> usize {
        self.counts().0
    }

    fn edge_count(&self) -> usize {
        self.counts().1
    }

    #[inline]
    fn contains_node(&self, id: NodeId) -> bool {
        id.index() < self.counts().0
    }

    #[inline]
    fn label(&self, id: NodeId) -> Sym {
        self.row_label(id.index())
    }

    #[inline]
    fn attr(&self, id: NodeId, name: Sym) -> Option<Value> {
        self.row_attr(id.index(), name)
    }

    fn attrs_of(&self, id: NodeId) -> AttrMap {
        self.row_attrs(id.index())
    }

    fn has_edge(&self, src: NodeId, dst: NodeId, label: Sym) -> bool {
        if !self.contains_node(src) || !self.contains_node(dst) {
            return false;
        }
        let Some(key) = self.key_of(label) else {
            return false;
        };
        // Search whichever side has the smaller run.
        let (out, inn) = (self.out_side(), self.in_side());
        if out.degree(src.index()) <= inn.degree(dst.index()) {
            out.contains(src.index(), key, dst)
        } else {
            inn.contains(dst.index(), key, src)
        }
    }

    fn out_degree(&self, id: NodeId) -> usize {
        self.out_side().degree(id.index())
    }

    fn in_degree(&self, id: NodeId) -> usize {
        self.in_side().degree(id.index())
    }

    fn label_count(&self, label: Sym) -> usize {
        self.label_members(label).len()
    }

    fn nodes_with_label_vec(&self, label: Sym) -> Vec<NodeId> {
        self.label_members(label).to_vec()
    }

    fn out_labeled_count(&self, id: NodeId, label: Sym) -> usize {
        self.out_run(id.index(), label).len()
    }

    fn in_labeled_count(&self, id: NodeId, label: Sym) -> usize {
        self.in_run(id.index(), label).len()
    }

    #[inline]
    fn out_labeled_slice(&self, id: NodeId, label: Sym) -> Option<&[NodeId]> {
        Some(self.out_run(id.index(), label))
    }

    #[inline]
    fn in_labeled_slice(&self, id: NodeId, label: Sym) -> Option<&[NodeId]> {
        Some(self.in_run(id.index(), label))
    }

    fn for_each_out_labeled(&self, id: NodeId, label: Sym, f: &mut dyn FnMut(NodeId)) {
        self.out_run(id.index(), label).iter().for_each(|&n| f(n));
    }

    fn for_each_in_labeled(&self, id: NodeId, label: Sym, f: &mut dyn FnMut(NodeId)) {
        self.in_run(id.index(), label).iter().for_each(|&n| f(n));
    }

    fn for_each_undirected(&self, id: NodeId, f: &mut dyn FnMut(NodeId, EdgeRef)) {
        for (key, n) in self.out_side().entries(id.index()) {
            f(n, EdgeRef::new(id, n, self.sym_of(key)));
        }
        for (key, n) in self.in_side().entries(id.index()) {
            f(n, EdgeRef::new(n, id, self.sym_of(key)));
        }
    }

    fn for_each_out(&self, id: NodeId, f: &mut dyn FnMut(NodeId, Sym)) {
        for (key, n) in self.out_side().entries(id.index()) {
            f(n, self.sym_of(key));
        }
    }

    fn for_each_edge(&self, f: &mut dyn FnMut(EdgeRef)) {
        let out = self.out_side();
        for row in 0..self.counts().0 {
            let src = NodeId(row as u32);
            for (key, dst) in out.entries(row) {
                f(EdgeRef::new(src, dst, self.sym_of(key)));
            }
        }
    }

    fn labeled_triple_run_len(
        &self,
        src_label: Sym,
        edge_label: Sym,
        dst_label: Sym,
    ) -> Option<usize> {
        let query = (src_label, edge_label, dst_label);
        let total = (self.triple_index().0.iter())
            .filter(|(&key, _)| triple_matches(key, query))
            .map(|(_, &(start, end))| (end - start) as usize)
            .sum();
        Some(total)
    }

    fn labeled_triple_endpoints(
        &self,
        src_label: Sym,
        edge_label: Sym,
        dst_label: Sym,
        want_src: bool,
    ) -> Option<Vec<NodeId>> {
        let (ranges, src, dst) = self.triple_index();
        let side = if want_src { src } else { dst };
        let mut out: Vec<NodeId> = Vec::new();
        for (&key, &(start, end)) in ranges {
            if triple_matches(key, (src_label, edge_label, dst_label)) {
                out.extend_from_slice(&side[start as usize..end as usize]);
            }
        }
        Some(sorted_distinct(out))
    }
}

fn sorted_distinct(mut ids: Vec<NodeId>) -> Vec<NodeId> {
    ids.sort_unstable();
    ids.dedup();
    ids
}

/// Does a concrete triple-index key match a (possibly wildcarded) query?
fn triple_matches(key: (Sym, Sym, Sym), query: (Sym, Sym, Sym)) -> bool {
    (query.0 == WILDCARD || key.0 == query.0)
        && (query.1 == WILDCARD || key.1 == query.1)
        && (query.2 == WILDCARD || key.2 == query.2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::AttrMap;
    use crate::interner::intern;

    fn sample() -> (Graph, Vec<NodeId>) {
        let mut g = Graph::new();
        let a = g.add_node_named("account", AttrMap::new());
        let b = g.add_node_named("account", AttrMap::new());
        let c = g.add_node_named("company", AttrMap::new());
        let d = g.add_node_named("integer", AttrMap::from_pairs([("val", Value::Int(7))]));
        g.add_edge_named(a, c, "keys").unwrap();
        g.add_edge_named(b, c, "keys").unwrap();
        g.add_edge_named(a, d, "follower").unwrap();
        g.add_edge_named(a, b, "knows").unwrap();
        (g, vec![a, b, c, d])
    }

    #[test]
    fn freeze_preserves_counts_labels_and_attrs() {
        let (g, n) = sample();
        let snap = g.freeze();
        assert_eq!(GraphView::node_count(&snap), 4);
        assert_eq!(GraphView::edge_count(&snap), 4);
        for &id in &n {
            assert_eq!(GraphView::label(&snap, id), g.label(id));
        }
        assert_eq!(
            GraphView::attr(&snap, n[3], intern("val")),
            Some(Value::Int(7))
        );
    }

    #[test]
    fn has_edge_agrees_with_the_adjacency_path() {
        let (g, n) = sample();
        let snap = g.freeze();
        for src in &n {
            for dst in &n {
                for label in ["keys", "follower", "knows", "missing"] {
                    assert_eq!(
                        GraphView::has_edge(&snap, *src, *dst, intern(label)),
                        g.has_edge(*src, *dst, intern(label)),
                        "{src:?} -[{label}]-> {dst:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn label_partition_is_contiguous_and_complete() {
        let (g, _) = sample();
        let snap = g.freeze();
        let accounts = snap.nodes_with_label(intern("account"));
        assert_eq!(accounts.len(), 2);
        // The permutation covers every node exactly once.
        let mut all: Vec<NodeId> = ["account", "company", "integer"]
            .iter()
            .flat_map(|l| snap.nodes_with_label(intern(l)).to_vec())
            .collect();
        all.sort();
        assert_eq!(all, g.node_ids().collect::<Vec<_>>());
        assert!(snap.nodes_with_label(intern("ghost")).is_empty());
    }

    #[test]
    fn labeled_neighbor_slices_are_sorted_and_exact() {
        let (g, n) = sample();
        let snap = g.freeze();
        let keys_in = snap.in_neighbors_labeled(n[2], intern("keys"));
        assert_eq!(keys_in, &[n[0], n[1]]);
        assert!(keys_in.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(snap.out_neighbors_labeled(n[0], intern("keys")), &[n[2]]);
        assert!(snap.out_neighbors_labeled(n[0], intern("ghost")).is_empty());
        assert_eq!(GraphView::out_labeled_count(&snap, n[0], intern("keys")), 1);
        assert_eq!(GraphView::out_degree(&snap, n[0]), 3);
        assert_eq!(GraphView::in_degree(&snap, n[2]), 2);
    }

    #[test]
    fn triple_index_matches_edge_labels() {
        let (g, n) = sample();
        let snap = g.freeze();
        let key = (intern("account"), intern("keys"), intern("company"));
        assert_eq!(snap.triple_count(key.0, key.1, key.2), 2);
        assert_eq!(
            GraphView::labeled_triple_run_len(&snap, key.0, key.1, key.2),
            Some(2)
        );
        let srcs = GraphView::labeled_triple_endpoints(&snap, key.0, key.1, key.2, true).unwrap();
        assert_eq!(srcs, vec![n[0], n[1]]);
        let dsts = GraphView::labeled_triple_endpoints(&snap, key.0, key.1, key.2, false).unwrap();
        assert_eq!(dsts, vec![n[2]]);
        assert_eq!(
            snap.triple_count(intern("company"), intern("keys"), intern("account")),
            0
        );
    }

    #[test]
    fn undirected_and_edge_iteration_cover_everything() {
        let (g, n) = sample();
        let snap = g.freeze();
        let mut edges = Vec::new();
        GraphView::for_each_edge(&snap, &mut |e| edges.push(e));
        let mut expected = g.edge_vec();
        edges.sort();
        expected.sort();
        assert_eq!(edges, expected);
        let mut degree = 0;
        GraphView::for_each_undirected(&snap, n[0], &mut |_, _| degree += 1);
        assert_eq!(degree, g.degree(n[0]));
    }

    #[test]
    fn empty_graph_freezes() {
        let snap = Graph::new().freeze();
        assert_eq!(GraphView::node_count(&snap), 0);
        assert_eq!(GraphView::edge_count(&snap), 0);
    }
}
