//! The CSR reader.
//!
//! A frozen graph stores adjacency as per node one **run** of
//! `(edge label, neighbour)` entries sorted by that pair, so that
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
//! There is one storage for that layout, [`MmapSnapshot`]: the canonical
//! `.ngds` bytes of the graph (see [`crate::persist`]), validated once by
//! the one loader.  Runs are keyed by **file symbol id**, translated from
//! a query's [`Sym`] through a dense `Sym → id` table; row labels come
//! from the label array and attribute records are decoded in place on
//! each read, nothing cached.  The bytes have two backings:
//!
//! | backing | made by | arrays live |
//! |---|---|---|
//! | owned `u64`-aligned buffer | [`Graph::freeze`](crate::Graph::freeze) | on the heap |
//! | read-only file mapping | [`MmapSnapshot::load`] | in the page cache, paged in on demand |
//!
//! That layout is read by exactly one piece of code.  `Side` borrows one
//! direction's three arrays and owns the run logic (the binary search that
//! bounds a labelled run lives in `Side::labeled_range` and nowhere else),
//! and the [`GraphView`] impl for [`MmapSnapshot`] at the bottom of this
//! module is the reader.
//!
//! Freezing ([`Graph::freeze`](crate::Graph::freeze), in
//! [`crate::persist`]'s writer) is a few linear passes over the graph's
//! own adjacency lists: nothing is sorted as a whole, only each node's run
//! and the distinct labels and label triples.  Updates keep flowing
//! through the mutable [`Graph`](crate::Graph) / `BatchUpdate` machinery,
//! and the incremental detectors search a snapshot plus an unapplied
//! update through [`crate::DeltaOverlay`].

use crate::attrs::AttrMap;
use crate::graph::{EdgeRef, NodeId};
use crate::hash::IdMap;
use crate::interner::{Sym, WILDCARD};
use crate::persist::MmapSnapshot;
use crate::value::Value;
use crate::view::GraphView;
use std::ops::Range;

/// The frozen CSR snapshot [`Graph::freeze`](crate::Graph::freeze)
/// returns: the one storage, [`MmapSnapshot`].  The alias exists only
/// because the benchmark's system-under-test module (`benchmark/src/sut.rs`)
/// names it; the change that next edits that module deletes it.
pub type CsrSnapshot = MmapSnapshot;

/// One direction (out or in) of a CSR adjacency, borrowed from the
/// snapshot's bytes.  Runs are keyed by file symbol id.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Side<'a> {
    /// `offsets[row]..offsets[row + 1]` indexes the run of `row`.
    pub(crate) offsets: &'a [u32],
    /// Run key of each entry; runs are sorted by `(key, neighbour)`.
    pub(crate) keys: &'a [u32],
    /// Neighbour of each entry (always a global node id).
    pub(crate) neighbors: &'a [NodeId],
}

impl<'a> Side<'a> {
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
    pub(crate) fn labeled_range(&self, row: usize, key: u32) -> Range<usize> {
        let range = self.row_range(row);
        let run = &self.keys[range.clone()];
        let start = run.partition_point(|&k| k < key);
        let end = run.partition_point(|&k| k <= key);
        range.start + start..range.start + end
    }

    /// The neighbours of `row` along `key`, sorted.
    #[inline]
    pub(crate) fn labeled(&self, row: usize, key: u32) -> &'a [NodeId] {
        &self.neighbors[self.labeled_range(row, key)]
    }

    /// Binary-search for `neighbor` inside the `(row, key)` run.
    #[inline]
    pub(crate) fn contains(&self, row: usize, key: u32, neighbor: NodeId) -> bool {
        self.labeled(row, key).binary_search(&neighbor).is_ok()
    }

    /// The `(key, neighbour)` entries of `row`'s run, in CSR order.
    #[inline]
    pub(crate) fn entries(&self, row: usize) -> impl Iterator<Item = (u32, NodeId)> + 'a {
        let (keys, neighbors) = (self.keys, self.neighbors);
        self.row_range(row).map(move |i| (keys[i], neighbors[i]))
    }
}

/// `label → range` into a label-partitioned node permutation.
pub(crate) type LabelRanges = IdMap<Sym, (u32, u32)>;
/// `(src label, edge label, dst label) → range` into the triple arrays.
pub(crate) type TripleRanges = IdMap<(Sym, Sym, Sym), (u32, u32)>;

impl MmapSnapshot {
    /// The nodes labelled `label`, as a contiguous slice of the
    /// label-partitioned permutation.
    pub fn nodes_with_label(&self, label: Sym) -> &[NodeId] {
        let (ranges, order) = self.label_partition();
        match ranges.get(&label) {
            Some(&(start, end)) => &order[start as usize..end as usize],
            None => &[],
        }
    }

    /// Out-neighbours of `id` along `label`, as a contiguous sorted slice.
    #[inline]
    pub fn out_neighbors_labeled(&self, id: NodeId, label: Sym) -> &[NodeId] {
        match self.sym_table().get(label) {
            Some(key) => self.out_side().labeled(id.index(), key),
            None => &[],
        }
    }

    /// In-neighbours of `id` along `label`, as a contiguous sorted slice.
    #[inline]
    pub fn in_neighbors_labeled(&self, id: NodeId, label: Sym) -> &[NodeId] {
        match self.sym_table().get(label) {
            Some(key) => self.in_side().labeled(id.index(), key),
            None => &[],
        }
    }

    /// Number of edges matching the label triple.
    pub fn triple_count(&self, src_label: Sym, edge_label: Sym, dst_label: Sym) -> usize {
        match self
            .triple_index()
            .0
            .get(&(src_label, edge_label, dst_label))
        {
            Some(&(start, end)) => (end - start) as usize,
            None => 0,
        }
    }

    /// A [`DeltaOverlay`](crate::DeltaOverlay) of this snapshot with no
    /// pending update — a zero-cost "identity" view, useful where an
    /// overlay type is required for both sides of an incremental run.
    pub fn as_overlay(&self) -> crate::overlay::DeltaOverlay<'_> {
        crate::overlay::DeltaOverlay::empty(self)
    }
}

/// The CSR reader: rows are node ids, every read is served from the
/// snapshot's own arrays.
impl GraphView for MmapSnapshot {
    #[inline]
    fn node_count(&self) -> usize {
        self.node_labels().len()
    }

    #[inline]
    fn edge_count(&self) -> usize {
        self.out_side().keys.len()
    }

    #[inline]
    fn contains_node(&self, id: NodeId) -> bool {
        id.index() < self.node_labels().len()
    }

    #[inline]
    fn label(&self, id: NodeId) -> Sym {
        self.sym_table().sym(self.node_labels()[id.index()])
    }

    #[inline]
    fn attr(&self, id: NodeId, name: Sym) -> Option<Value> {
        let fid = self.sym_table().get(name)?;
        // Names are strictly increasing: stop at the first one not below.
        let (at, value) = self.attr_entries(id.index()).find(|&(at, _)| at >= fid)?;
        (at == fid).then(|| value.into())
    }

    fn attrs_of(&self, id: NodeId) -> AttrMap {
        let mut attrs = AttrMap::new();
        for (fid, value) in self.attr_entries(id.index()) {
            attrs.set(self.sym_table().sym(fid), value.into());
        }
        attrs
    }

    fn has_edge(&self, src: NodeId, dst: NodeId, label: Sym) -> bool {
        if !self.contains_node(src) || !self.contains_node(dst) {
            return false;
        }
        let Some(key) = self.sym_table().get(label) else {
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
        self.nodes_with_label(label).len()
    }

    fn nodes_with_label_vec(&self, label: Sym) -> Vec<NodeId> {
        self.nodes_with_label(label).to_vec()
    }

    fn out_labeled_count(&self, id: NodeId, label: Sym) -> usize {
        self.out_neighbors_labeled(id, label).len()
    }

    fn in_labeled_count(&self, id: NodeId, label: Sym) -> usize {
        self.in_neighbors_labeled(id, label).len()
    }

    #[inline]
    fn out_labeled_slice(&self, id: NodeId, label: Sym) -> Option<&[NodeId]> {
        Some(self.out_neighbors_labeled(id, label))
    }

    #[inline]
    fn in_labeled_slice(&self, id: NodeId, label: Sym) -> Option<&[NodeId]> {
        Some(self.in_neighbors_labeled(id, label))
    }

    fn for_each_out_labeled(&self, id: NodeId, label: Sym, f: &mut dyn FnMut(NodeId)) {
        self.out_neighbors_labeled(id, label)
            .iter()
            .for_each(|&n| f(n));
    }

    fn for_each_in_labeled(&self, id: NodeId, label: Sym, f: &mut dyn FnMut(NodeId)) {
        self.in_neighbors_labeled(id, label)
            .iter()
            .for_each(|&n| f(n));
    }

    fn for_each_undirected(&self, id: NodeId, f: &mut dyn FnMut(NodeId, EdgeRef)) {
        let syms = self.sym_table();
        for (key, n) in self.out_side().entries(id.index()) {
            f(n, EdgeRef::new(id, n, syms.sym(key)));
        }
        for (key, n) in self.in_side().entries(id.index()) {
            f(n, EdgeRef::new(n, id, syms.sym(key)));
        }
    }

    fn for_each_out(&self, id: NodeId, f: &mut dyn FnMut(NodeId, Sym)) {
        for (key, n) in self.out_side().entries(id.index()) {
            f(n, self.sym_table().sym(key));
        }
    }

    fn for_each_edge(&self, f: &mut dyn FnMut(EdgeRef)) {
        let out = self.out_side();
        for row in 0..self.node_count() {
            let src = NodeId(row as u32);
            for (key, dst) in out.entries(row) {
                f(EdgeRef::new(src, dst, self.sym_table().sym(key)));
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
    use crate::graph::Graph;
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
