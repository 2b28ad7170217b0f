//! A frozen snapshot composed with an *unapplied* batch update.
//!
//! The incremental detectors need to search both `G` and `G ⊕ ΔG`.  With
//! frozen snapshots, materialising `G ⊕ ΔG` would cost `O(|G|)` per batch —
//! exactly the dependence on `|G|` the paper's localizability result rules
//! out.  [`DeltaOverlay`] instead layers the *net* effect of a
//! [`BatchUpdate`] over a borrowed snapshot in `O(|ΔG|)`:
//!
//! * nodes introduced by the update get ids after the snapshot's nodes,
//!   exactly as [`BatchUpdate::apply`] would assign them;
//! * edge membership consults the update's net insert/delete sets first and
//!   falls back to the snapshot;
//! * neighbour iteration walks the snapshot's contiguous runs, skipping
//!   net-deleted edges, then appends net-inserted ones;
//! * nodes untouched by the update keep the snapshot's zero-copy
//!   slice fast path, so matcher work outside the update neighbourhood is
//!   as fast as on the frozen graph.
//!
//! An overlay with an empty update ([`DeltaOverlay::empty`]) behaves
//! exactly like the snapshot, which lets an incremental run use the *same*
//! view type for the old and new sides.
//!
//! Which op sequences apply cleanly is decided in one place, the fold
//! `BatchUpdate::net_edges` in `update.rs`.  [`DeltaOverlay::try_new`]
//! builds from its net sets ([`DeltaOverlay::new`] panics on its error),
//! [`BatchUpdate::validate_against`] discards them, and compaction
//! validates and canonicalises a `ΔG` by sorting them.

use crate::graph::{Dir, EdgeRef, NodeData, NodeId};
use crate::hash::{IdMap, IdSet};
use crate::interner::Sym;
use crate::persist::MmapSnapshot;
use crate::update::{BatchUpdate, EdgeOp, NetEdges, UpdateError};
use crate::value::Value;
use crate::view::GraphView;

/// A read-only view of `base ⊕ delta` without materialisation.
///
/// The base defaults to the frozen snapshot, [`MmapSnapshot`] (the bytes
/// [`crate::Graph::freeze`] owns in memory, or a mapped file, as served
/// sessions use), but can be any [`GraphView`].
#[derive(Debug, Clone)]
pub struct DeltaOverlay<'a, B: GraphView = MmapSnapshot> {
    base: &'a B,
    /// Nodes introduced by the update; node `base_count + i` is `added_nodes[i]`.
    added_nodes: Vec<NodeData>,
    /// Net-inserted edges, indexed by [`Dir`]: grouped by the node they
    /// are read from, as `(label, neighbour)` sorted.
    added: [IdMap<NodeId, Vec<(Sym, NodeId)>>; 2],
    /// Net-deleted edges.
    removed: IdSet<EdgeRef>,
    /// Per-node count of net-deleted edges, indexed by [`Dir`] (for
    /// degrees).
    removed_deg: [IdMap<NodeId, usize>; 2],
    /// New nodes per label (extends the snapshot's label partition).
    added_label_index: IdMap<Sym, Vec<NodeId>>,
    /// Nodes whose adjacency differs from the snapshot's.
    touched: IdSet<NodeId>,
    added_edge_count: usize,
}

impl<'a, B: GraphView> DeltaOverlay<'a, B> {
    /// An overlay with no pending update (behaves exactly like `base`).
    pub fn empty(base: &'a B) -> Self {
        DeltaOverlay {
            base,
            added_nodes: Vec::new(),
            added: Default::default(),
            removed: IdSet::default(),
            removed_deg: Default::default(),
            added_label_index: IdMap::default(),
            touched: IdSet::default(),
            added_edge_count: 0,
        }
    }

    /// Lay `delta` over `base`.
    ///
    /// The overlay reflects the *net* effect of the update's operation
    /// sequence (an edge deleted and re-inserted within the batch is
    /// present; inserted and re-deleted is absent), matching what
    /// [`BatchUpdate::apply`] produces on a mutable graph.
    ///
    /// # Panics
    ///
    /// If `delta` does not apply cleanly to `base` — a silently accepted
    /// invalid op would corrupt degrees and edge counts.  Callers holding
    /// an untrusted batch use [`DeltaOverlay::try_new`].
    pub fn new(base: &'a B, delta: &BatchUpdate) -> Self {
        Self::try_new(base, delta)
            .unwrap_or_else(|e| panic!("batch update must apply cleanly: {e}"))
    }

    /// Lay `delta` over `base`, or report the first operation that does
    /// not apply, exactly as [`BatchUpdate::validate_against`] does: both
    /// run the update rules' one fold (`BatchUpdate::net_edges`, in
    /// `update.rs`), and this builds the overlay from its net sets.
    pub fn try_new(base: &'a B, delta: &BatchUpdate) -> Result<Self, UpdateError> {
        let NetEdges { added, removed } = delta.net_edges(base)?;
        let mut overlay = DeltaOverlay::empty(base);
        let base_count = GraphView::node_count(base);
        for (idx, node) in delta.new_nodes.iter().enumerate() {
            let id = NodeId((base_count + idx) as u32);
            overlay.added_nodes.push(NodeData {
                label: node.label,
                attrs: node.attrs.clone(),
            });
            overlay
                .added_label_index
                .entry(node.label)
                .or_default()
                .push(id);
        }
        // Insertion order is irrelevant: the per-node adjacency lists are
        // sorted below.
        let [added_out, added_in] = &mut overlay.added;
        for e in &added {
            added_out.entry(e.src).or_default().push((e.label, e.dst));
            added_in.entry(e.dst).or_default().push((e.label, e.src));
            overlay.touched.insert(e.src);
            overlay.touched.insert(e.dst);
        }
        overlay.added_edge_count = added.len();
        let [removed_out, removed_in] = &mut overlay.removed_deg;
        for e in &removed {
            *removed_out.entry(e.src).or_default() += 1;
            *removed_in.entry(e.dst).or_default() += 1;
            overlay.touched.insert(e.src);
            overlay.touched.insert(e.dst);
        }
        overlay.removed = removed;
        for list in overlay.added.iter_mut().flat_map(|side| side.values_mut()) {
            list.sort_unstable();
        }
        Ok(overlay)
    }

    /// Does the overlay carry any pending change?
    pub fn is_identity(&self) -> bool {
        self.added_nodes.is_empty() && self.added_edge_count == 0 && self.removed.is_empty()
    }

    /// The underlying base view.
    pub fn base(&self) -> &'a B {
        self.base
    }

    #[inline]
    fn base_count(&self) -> usize {
        GraphView::node_count(self.base)
    }

    #[inline]
    fn is_base_node(&self, id: NodeId) -> bool {
        id.index() < self.base_count()
    }

    /// The net-inserted `(label, neighbour)` entries of `id` in direction
    /// `dir`, sorted.
    fn added_entries(&self, id: NodeId, dir: Dir) -> &[(Sym, NodeId)] {
        self.added[dir as usize].get(&id).map_or(&[], Vec::as_slice)
    }

    /// Number of net-deleted edges of `id` in direction `dir`.
    fn removed_degree(&self, id: NodeId, dir: Dir) -> usize {
        self.removed_deg[dir as usize]
            .get(&id)
            .copied()
            .unwrap_or(0)
    }

    /// Every net-inserted edge, sorted.
    fn added_edges(&self) -> Vec<EdgeRef> {
        let mut edges: Vec<EdgeRef> = self.added[Dir::Out as usize]
            .iter()
            .flat_map(|(&src, list)| list.iter().map(move |&(l, dst)| EdgeRef::new(src, dst, l)))
            .collect();
        edges.sort_unstable();
        edges
    }

    fn node_data(&self, id: NodeId) -> &NodeData {
        if self.is_base_node(id) {
            panic!("node_data is only for added nodes");
        }
        &self.added_nodes[id.index() - self.base_count()]
    }

    /// The overlay's pending change as a *net* [`BatchUpdate`]: deletions
    /// first (sorted), then insertions (sorted), then the added nodes in id
    /// order.
    ///
    /// The result is canonical — two overlays describing the same net change
    /// produce identical batches, whatever op sequence built them — and
    /// applies cleanly to the overlay's base by construction, so
    /// `base ⊕ overlay.to_batch()` materialises exactly the graph the
    /// overlay presents.  This is the fold a long-lived session uses to
    /// persist its accumulated `ΔG` or to re-root it onto a newer snapshot
    /// epoch (see [`DeltaOverlay::reroot`]).
    pub fn to_batch(&self) -> BatchUpdate {
        let mut batch = BatchUpdate::new();
        for node in &self.added_nodes {
            batch.new_nodes.push(crate::update::NewNode {
                label: node.label,
                attrs: node.attrs.clone(),
            });
        }
        let mut deletions: Vec<EdgeRef> = self.removed.iter().copied().collect();
        deletions.sort_unstable();
        for e in deletions {
            batch.delete_edge(e.src, e.dst, e.label);
        }
        for e in self.added_edges() {
            batch.insert_edge(e.src, e.dst, e.label);
        }
        batch
    }

    /// Consuming variant of [`DeltaOverlay::to_batch`].
    pub fn into_batch(self) -> BatchUpdate {
        self.to_batch()
    }

    /// Re-root the overlay's accumulated `ΔG` onto a different base view —
    /// the session-side half of snapshot compaction: when a new snapshot
    /// epoch is published, every session folds its pending overlay onto the
    /// new base instead of replaying it from scratch.
    ///
    /// `new_base` must share the old base's node universe, in one of the
    /// epoch shapes a compaction produces:
    ///
    /// * **same epoch** — `new_base.node_count()` equals the old base's
    ///   count (e.g. a re-frozen or re-loaded snapshot of the same logical
    ///   graph, possibly with *some* of the overlay's edge changes already
    ///   folded in): the overlay's added nodes are kept;
    /// * **grown epoch, edge-only overlay** — the overlay adds no nodes and
    ///   `new_base` has *more* (another session's compaction materialised
    ///   its nodes): every overlay op references ids below the old count,
    ///   all of which survive, so the overlay carries over unchanged;
    /// * **compacted epoch** — `new_base.node_count()` equals the overlay's
    ///   *total* count **and** the tail rows are value-identical (label and
    ///   attribute tuple) to the overlay's added nodes: the added nodes
    ///   were materialised with their ids preserved and are dropped.  A
    ///   count that merely *coincides* — another session compacted the same
    ///   number of different nodes — is a
    ///   [`RebaseError::ConflictingNodes`], never a silent adoption.
    ///   Value equality is the node-identity criterion of this data model
    ///   (a node *is* its label + attribute tuple; ids are positional), so
    ///   a foreign compaction that materialised value-identical nodes at
    ///   the same ids is indistinguishable from this overlay's own fold
    ///   and is accepted: the rerooted view equals a compaction that
    ///   folded both sessions' changes, which is the shared-epoch
    ///   semantics all re-rooting follows (foreign *edges* folded into the
    ///   published epoch become visible the same way).
    ///
    /// Edge changes already reflected in `new_base` are dropped (an insert
    /// the new base contains, a delete it no longer contains), so re-rooting
    /// onto a fully-compacted snapshot yields an identity overlay.  Any
    /// other node count is a [`RebaseError::NodeCountMismatch`].
    pub fn reroot<'b, B2: GraphView>(
        &self,
        new_base: &'b B2,
    ) -> Result<DeltaOverlay<'b, B2>, RebaseError> {
        let new_count = GraphView::node_count(new_base);
        let keep_added_nodes = if new_count == self.base_count() {
            true
        } else if self.added_nodes.is_empty() && new_count > self.base_count() {
            // Edge-only overlay onto a grown epoch: nothing to renumber.
            true
        } else if !self.added_nodes.is_empty() && new_count == GraphView::node_count(self) {
            // The tail must BE this overlay's added nodes, not another
            // session's coincidentally equal-sized compaction.
            for (idx, node) in self.added_nodes.iter().enumerate() {
                let id = NodeId((self.base_count() + idx) as u32);
                if GraphView::label(new_base, id) != node.label
                    || GraphView::attrs_of(new_base, id) != node.attrs
                {
                    return Err(RebaseError::ConflictingNodes { id });
                }
            }
            false
        } else {
            return Err(RebaseError::NodeCountMismatch {
                new_base: new_count,
                overlay_base: self.base_count(),
                overlay_total: GraphView::node_count(self),
            });
        };
        let mut batch = self.to_batch();
        if !keep_added_nodes {
            batch.new_nodes.clear();
        }
        // `has_edge` on ids past the new base's node count would be out of
        // bounds; such an edge (incident to a kept added node) cannot exist
        // in the new base, so it is kept unconditionally.
        let edge_in_new_base = |e: &EdgeRef| {
            e.src.index() < new_count
                && e.dst.index() < new_count
                && GraphView::has_edge(new_base, e.src, e.dst, e.label)
        };
        batch.ops.retain(|op| match op {
            EdgeOp::Insert(e) => !edge_in_new_base(e),
            EdgeOp::Delete(e) => edge_in_new_base(e),
        });
        Ok(DeltaOverlay::new(new_base, &batch))
    }
}

/// Why [`DeltaOverlay::reroot`] refused a new base.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RebaseError {
    /// The new base's node count matches neither the overlay's base count
    /// (same epoch) nor its total count (compacted epoch), so node ids
    /// cannot be carried across.
    NodeCountMismatch {
        /// Node count of the proposed new base.
        new_base: usize,
        /// Node count of the overlay's current base.
        overlay_base: usize,
        /// Total node count the overlay presents (base + added).
        overlay_total: usize,
    },
    /// The new base materialised *different* nodes at the ids this
    /// overlay's added nodes occupy (a concurrent session's compaction of
    /// the same size) — carrying the overlay across would silently rebind
    /// its edges to foreign nodes.
    ConflictingNodes {
        /// The first id whose materialised node differs from the
        /// overlay's added node.
        id: NodeId,
    },
}

impl std::fmt::Display for RebaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RebaseError::NodeCountMismatch {
                new_base,
                overlay_base,
                overlay_total,
            } => write!(
                f,
                "cannot re-root overlay onto a base with {new_base} nodes \
                 (expected {overlay_base} for the same epoch or {overlay_total} \
                 for a compacted one)"
            ),
            RebaseError::ConflictingNodes { id } => write!(
                f,
                "cannot re-root overlay: the new base materialised a different \
                 node at {id} than this overlay added"
            ),
        }
    }
}

impl std::error::Error for RebaseError {}

impl<'a, B: GraphView> GraphView for DeltaOverlay<'a, B> {
    fn node_count(&self) -> usize {
        self.base_count() + self.added_nodes.len()
    }

    fn edge_count(&self) -> usize {
        GraphView::edge_count(self.base) + self.added_edge_count - self.removed.len()
    }

    fn contains_node(&self, id: NodeId) -> bool {
        id.index() < self.node_count()
    }

    fn label(&self, id: NodeId) -> Sym {
        if self.is_base_node(id) {
            GraphView::label(self.base, id)
        } else {
            self.node_data(id).label
        }
    }

    fn attr(&self, id: NodeId, name: Sym) -> Option<Value> {
        if self.is_base_node(id) {
            GraphView::attr(self.base, id, name)
        } else {
            self.node_data(id).attrs.get(name).cloned()
        }
    }

    fn attrs_of(&self, id: NodeId) -> crate::attrs::AttrMap {
        if self.is_base_node(id) {
            GraphView::attrs_of(self.base, id)
        } else {
            self.node_data(id).attrs.clone()
        }
    }

    fn has_edge(&self, src: NodeId, dst: NodeId, label: Sym) -> bool {
        let edge = EdgeRef::new(src, dst, label);
        if self.removed.contains(&edge) {
            return false;
        }
        if self
            .added_entries(src, Dir::Out)
            .binary_search(&(label, dst))
            .is_ok()
        {
            return true;
        }
        self.is_base_node(src)
            && self.is_base_node(dst)
            && GraphView::has_edge(self.base, src, dst, label)
    }

    fn degree(&self, id: NodeId, dir: Dir) -> usize {
        let base = if self.is_base_node(id) {
            GraphView::degree(self.base, id, dir)
        } else {
            0
        };
        base + self.added_entries(id, dir).len() - self.removed_degree(id, dir)
    }

    fn label_count(&self, label: Sym) -> usize {
        GraphView::label_count(self.base, label)
            + self.added_label_index.get(&label).map_or(0, Vec::len)
    }

    fn nodes_with_label_vec(&self, label: Sym) -> Vec<NodeId> {
        let mut out = GraphView::nodes_with_label_vec(self.base, label);
        if let Some(extra) = self.added_label_index.get(&label) {
            out.extend_from_slice(extra);
        }
        out
    }

    fn labeled_count(&self, id: NodeId, label: Sym, dir: Dir) -> usize {
        if !self.touched.contains(&id) {
            return if self.is_base_node(id) {
                GraphView::labeled_count(self.base, id, label, dir)
            } else {
                0
            };
        }
        let mut count = 0usize;
        self.for_each_labeled(id, label, dir, &mut |_| count += 1);
        count
    }

    fn labeled_slice(&self, id: NodeId, label: Sym, dir: Dir) -> Option<&[NodeId]> {
        if self.is_base_node(id) && !self.touched.contains(&id) {
            GraphView::labeled_slice(self.base, id, label, dir)
        } else {
            None
        }
    }

    fn for_each_labeled(&self, id: NodeId, label: Sym, dir: Dir, f: &mut dyn FnMut(NodeId)) {
        if self.is_base_node(id) {
            let has_removals = self.removed_degree(id, dir) > 0;
            GraphView::for_each_labeled(self.base, id, label, dir, &mut |n| {
                if has_removals {
                    let (src, dst) = dir.src_dst(id, n);
                    if self.removed.contains(&EdgeRef::new(src, dst, label)) {
                        return;
                    }
                }
                f(n);
            });
        }
        for &(l, n) in self.added_entries(id, dir) {
            if l == label {
                f(n);
            }
        }
    }

    fn for_each_undirected(&self, id: NodeId, f: &mut dyn FnMut(NodeId, EdgeRef)) {
        if self.is_base_node(id) {
            let has_removals = Dir::BOTH
                .iter()
                .any(|&dir| self.removed_degree(id, dir) > 0);
            GraphView::for_each_undirected(self.base, id, &mut |n, e| {
                if has_removals && self.removed.contains(&e) {
                    return;
                }
                f(n, e);
            });
        }
        for dir in Dir::BOTH {
            for &(l, n) in self.added_entries(id, dir) {
                let (src, dst) = dir.src_dst(id, n);
                f(n, EdgeRef::new(src, dst, l));
            }
        }
    }

    fn for_each_edge(&self, f: &mut dyn FnMut(EdgeRef)) {
        GraphView::for_each_edge(self.base, &mut |e| {
            if !self.removed.contains(&e) {
                f(e);
            }
        });
        for e in self.added_edges() {
            f(e);
        }
    }

    fn labeled_triple_run_len(
        &self,
        src_label: Sym,
        edge_label: Sym,
        dst_label: Sym,
    ) -> Option<usize> {
        if self.is_identity() {
            GraphView::labeled_triple_run_len(self.base, src_label, edge_label, dst_label)
        } else {
            None
        }
    }

    fn labeled_triple_endpoints(
        &self,
        src_label: Sym,
        edge_label: Sym,
        dst_label: Sym,
        end: Dir,
    ) -> Option<Vec<NodeId>> {
        if self.is_identity() {
            GraphView::labeled_triple_endpoints(self.base, src_label, edge_label, dst_label, end)
        } else {
            // The triple index does not reflect the pending update; fall
            // back to label-index candidate selection.
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::AttrMap;
    use crate::graph::Graph;
    use crate::interner::intern;

    fn base_graph() -> (Graph, Vec<NodeId>) {
        let mut g = Graph::new();
        let a = g.add_node_named("x", AttrMap::new());
        let b = g.add_node_named("y", AttrMap::new());
        let c = g.add_node_named("y", AttrMap::new());
        g.add_edge_named(a, b, "e").unwrap();
        g.add_edge_named(a, c, "e").unwrap();
        g.add_edge_named(b, c, "f").unwrap();
        (g, vec![a, b, c])
    }

    /// Every view observation on the overlay must agree with the same
    /// observation on the materialised `G ⊕ ΔG`.
    fn assert_matches_materialised(overlay: &DeltaOverlay<'_>, materialised: &Graph) {
        assert_eq!(overlay.node_count(), materialised.node_count());
        assert_eq!(GraphView::edge_count(overlay), materialised.edge_count());
        let labels: Vec<Sym> = materialised
            .node_ids()
            .map(|v| materialised.label(v))
            .collect();
        for (idx, &label) in labels.iter().enumerate() {
            let id = NodeId(idx as u32);
            assert_eq!(GraphView::label(overlay, id), label);
            for dir in Dir::BOTH {
                let want = materialised.neighbors(id, dir).len();
                assert_eq!(overlay.degree(id, dir), want, "{id} {dir:?}");
            }
            let mut got: Vec<(NodeId, EdgeRef)> = Vec::new();
            overlay.for_each_undirected(id, &mut |n, e| got.push((n, e)));
            let mut want: Vec<(NodeId, EdgeRef)> = materialised.undirected_neighbors(id).collect();
            got.sort();
            want.sort();
            assert_eq!(got, want, "undirected neighbours of {id}");
        }
        for e in materialised.edges() {
            assert!(GraphView::has_edge(overlay, e.src, e.dst, e.label), "{e:?}");
        }
        let mut overlay_edges = Vec::new();
        overlay.for_each_edge(&mut |e| overlay_edges.push(e));
        let mut want = materialised.edge_vec();
        overlay_edges.sort();
        want.sort();
        assert_eq!(overlay_edges, want);
    }

    #[test]
    fn empty_overlay_is_the_snapshot() {
        let (g, n) = base_graph();
        let snap = g.freeze();
        let overlay = DeltaOverlay::empty(&snap);
        assert!(overlay.is_identity());
        assert_matches_materialised(&overlay, &g);
        // Fast path stays available on untouched nodes.
        assert!(overlay.labeled_slice(n[0], intern("e"), Dir::Out).is_some());
    }

    #[test]
    fn insertions_deletions_and_new_nodes() {
        let (g, n) = base_graph();
        let snap = g.freeze();
        let mut delta = BatchUpdate::new();
        let d = delta.add_node(
            g.node_count(),
            intern("y"),
            AttrMap::from_pairs([("v", Value::Int(3))]),
        );
        delta.delete_edge(n[0], n[1], intern("e"));
        delta.insert_edge(n[1], d, intern("e"));
        delta.insert_edge(d, n[0], intern("g"));
        let overlay = DeltaOverlay::new(&snap, &delta);
        let materialised = delta.applied_to(&g).unwrap();
        assert_matches_materialised(&overlay, &materialised);
        assert_eq!(
            GraphView::attr(&overlay, d, intern("v")),
            Some(Value::Int(3))
        );
        assert_eq!(GraphView::label_count(&overlay, intern("y")), 3);
        // Touched nodes lose the zero-copy slice; untouched keep it.
        assert!(overlay.labeled_slice(n[0], intern("e"), Dir::Out).is_none());
        assert!(overlay.labeled_slice(n[2], intern("f"), Dir::Out).is_some());
        assert!(GraphView::labeled_triple_endpoints(
            &overlay,
            intern("x"),
            intern("e"),
            intern("y"),
            Dir::Out
        )
        .is_none());
    }

    #[test]
    fn delete_then_reinsert_is_net_present() {
        let (g, n) = base_graph();
        let snap = g.freeze();
        let mut delta = BatchUpdate::new();
        delta.delete_edge(n[0], n[1], intern("e"));
        delta.insert_edge(n[0], n[1], intern("e"));
        let overlay = DeltaOverlay::new(&snap, &delta);
        let materialised = delta.applied_to(&g).unwrap();
        assert_matches_materialised(&overlay, &materialised);
        assert!(GraphView::has_edge(&overlay, n[0], n[1], intern("e")));
    }

    #[test]
    #[should_panic(expected = "delete of missing edge")]
    fn deleting_a_missing_edge_panics_like_apply() {
        let (g, n) = base_graph();
        let snap = g.freeze();
        let mut delta = BatchUpdate::new();
        delta.delete_edge(n[2], n[0], intern("ghost"));
        let _ = DeltaOverlay::new(&snap, &delta);
    }

    #[test]
    #[should_panic(expected = "insert of existing edge")]
    fn inserting_an_existing_edge_panics_like_apply() {
        let (g, n) = base_graph();
        let snap = g.freeze();
        let mut delta = BatchUpdate::new();
        delta.insert_edge(n[0], n[1], intern("e"));
        let _ = DeltaOverlay::new(&snap, &delta);
    }

    #[test]
    #[should_panic(expected = "unknown node")]
    fn unknown_endpoint_panics_like_apply() {
        let (g, n) = base_graph();
        let snap = g.freeze();
        let mut delta = BatchUpdate::new();
        delta.insert_edge(n[0], NodeId(99), intern("e"));
        let _ = DeltaOverlay::new(&snap, &delta);
    }

    #[test]
    fn to_batch_is_the_net_update_in_canonical_order() {
        let (g, n) = base_graph();
        let snap = g.freeze();
        let mut delta = BatchUpdate::new();
        let d = delta.add_node(
            g.node_count(),
            intern("y"),
            AttrMap::from_pairs([("v", Value::Int(3))]),
        );
        delta.delete_edge(n[0], n[1], intern("e"));
        delta.insert_edge(n[1], d, intern("e"));
        delta.insert_edge(d, n[0], intern("g"));
        // Churn that must cancel out of the net batch.
        delta.delete_edge(n[1], d, intern("e"));
        delta.insert_edge(n[1], d, intern("e"));

        let overlay = DeltaOverlay::new(&snap, &delta);
        let net = overlay.to_batch();
        assert_eq!(net.new_nodes.len(), 1);
        assert_eq!(net.deletions().count(), 1);
        assert_eq!(net.insertions().count(), 2);
        // Deletions precede insertions, each block sorted.
        assert!(!net.ops[0].is_insert());
        // Applying the net batch materialises exactly the overlay's graph.
        let via_net = net.applied_to(&g).unwrap();
        let via_delta = delta.applied_to(&g).unwrap();
        assert_eq!(via_net.edge_vec(), via_delta.edge_vec());
        assert_eq!(via_net.node_count(), via_delta.node_count());
        // And the net batch validates against the base it came from.
        assert_eq!(net.validate_against(&snap), Ok(()));
        assert_eq!(overlay.into_batch(), net);
    }

    #[test]
    fn reroot_onto_a_compacted_snapshot_is_identity() {
        let (g, n) = base_graph();
        let snap = g.freeze();
        let mut delta = BatchUpdate::new();
        let d = delta.add_node(g.node_count(), intern("y"), AttrMap::new());
        delta.delete_edge(n[0], n[1], intern("e"));
        delta.insert_edge(n[1], d, intern("e"));
        let overlay = DeltaOverlay::new(&snap, &delta);

        // The "compaction": materialise G ⊕ ΔG and freeze the result.
        let compacted = delta.applied_to(&g).unwrap().freeze();
        let rerooted = overlay.reroot(&compacted).unwrap();
        assert!(rerooted.is_identity());
        assert_eq!(
            GraphView::node_count(&rerooted),
            GraphView::node_count(&overlay)
        );
    }

    #[test]
    fn reroot_onto_a_same_epoch_snapshot_preserves_the_view() {
        let (g, n) = base_graph();
        let snap = g.freeze();
        let mut delta = BatchUpdate::new();
        let d = delta.add_node(g.node_count(), intern("y"), AttrMap::new());
        delta.delete_edge(n[0], n[1], intern("e"));
        delta.insert_edge(n[1], d, intern("e"));
        let overlay = DeltaOverlay::new(&snap, &delta);

        let fresh = g.freeze();
        let rerooted = overlay.reroot(&fresh).unwrap();
        let materialised = delta.applied_to(&g).unwrap();
        assert_matches_materialised(&rerooted, &materialised);
    }

    #[test]
    fn reroot_drops_changes_the_new_base_already_contains() {
        let (g, n) = base_graph();
        let snap = g.freeze();
        let mut delta = BatchUpdate::new();
        delta.delete_edge(n[0], n[1], intern("e"));
        delta.insert_edge(n[2], n[0], intern("z"));
        let overlay = DeltaOverlay::new(&snap, &delta);

        // Half-compacted base: only the deletion has been folded in.
        let mut half = BatchUpdate::new();
        half.delete_edge(n[0], n[1], intern("e"));
        let half_base = half.applied_to(&g).unwrap().freeze();
        let rerooted = overlay.reroot(&half_base).unwrap();
        assert!(!rerooted.is_identity());
        let net = rerooted.to_batch();
        assert_eq!(net.deletions().count(), 0, "deletion already folded in");
        assert_eq!(net.insertions().count(), 1);
        let materialised = delta.applied_to(&g).unwrap();
        assert_matches_materialised(&rerooted, &materialised);
    }

    /// Another session's compaction materialised *different* nodes at the
    /// ids this overlay's added nodes occupy: the count coincides, but
    /// adopting the new base would silently rebind this overlay's edges to
    /// foreign nodes — it must refuse instead.
    #[test]
    fn reroot_refuses_a_coincidental_node_count() {
        let (g, n) = base_graph();
        let snap = g.freeze();
        let mut delta = BatchUpdate::new();
        let d = delta.add_node(
            g.node_count(),
            intern("mine"),
            AttrMap::from_pairs([("v", Value::Int(1))]),
        );
        delta.insert_edge(n[0], d, intern("e"));
        let overlay = DeltaOverlay::new(&snap, &delta);

        // A foreign compaction of the same size: one added node, but with
        // a different label.
        let mut foreign = BatchUpdate::new();
        let f = foreign.add_node(g.node_count(), intern("theirs"), AttrMap::new());
        foreign.insert_edge(n[1], f, intern("e"));
        let foreign_base = foreign.applied_to(&g).unwrap().freeze();
        assert_eq!(
            overlay.reroot(&foreign_base).unwrap_err(),
            RebaseError::ConflictingNodes { id: d }
        );

        // Same label but different attributes is just as foreign.
        let mut foreign = BatchUpdate::new();
        foreign.add_node(
            g.node_count(),
            intern("mine"),
            AttrMap::from_pairs([("v", Value::Int(99))]),
        );
        let foreign_base = foreign.applied_to(&g).unwrap().freeze();
        assert_eq!(
            overlay.reroot(&foreign_base).unwrap_err(),
            RebaseError::ConflictingNodes { id: d }
        );
    }

    /// An overlay that adds no nodes references only ids below its base
    /// count, so it carries onto *any* grown epoch (another session's
    /// node-adding compaction) instead of pinning forever.
    #[test]
    fn reroot_carries_an_edge_only_overlay_onto_a_grown_epoch() {
        let (g, n) = base_graph();
        let snap = g.freeze();
        let mut delta = BatchUpdate::new();
        delta.delete_edge(n[0], n[1], intern("e"));
        delta.insert_edge(n[2], n[0], intern("z"));
        let overlay = DeltaOverlay::new(&snap, &delta);

        // Foreign compaction: two new nodes and an edge, disjoint from the
        // overlay's changes.
        let mut foreign = BatchUpdate::new();
        let f = foreign.add_node(g.node_count(), intern("theirs"), AttrMap::new());
        foreign.insert_edge(n[1], f, intern("e"));
        let _ = foreign.add_node(g.node_count(), intern("theirs"), AttrMap::new());
        let grown_graph = foreign.applied_to(&g).unwrap();
        let grown = grown_graph.freeze();

        let rerooted = overlay.reroot(&grown).unwrap();
        // The overlay's own changes survive over the grown base.
        let materialised = delta.applied_to(&grown_graph).unwrap();
        assert_matches_materialised(&rerooted, &materialised);
        assert!(!GraphView::has_edge(&rerooted, n[0], n[1], intern("e")));
        assert!(GraphView::has_edge(&rerooted, n[2], n[0], intern("z")));
    }

    #[test]
    fn reroot_rejects_an_alien_node_universe() {
        let (g, n) = base_graph();
        let snap = g.freeze();
        let mut delta = BatchUpdate::new();
        delta.delete_edge(n[0], n[1], intern("e"));
        let _ = delta.add_node(g.node_count(), intern("y"), AttrMap::new());
        let _ = delta.add_node(g.node_count(), intern("y"), AttrMap::new());
        let overlay = DeltaOverlay::new(&snap, &delta);

        let mut bigger = Graph::new();
        for _ in 0..4 {
            bigger.add_node_named("x", AttrMap::new());
        }
        let alien = bigger.freeze();
        assert_eq!(
            overlay.reroot(&alien).unwrap_err(),
            RebaseError::NodeCountMismatch {
                new_base: 4,
                overlay_base: 3,
                overlay_total: 5,
            }
        );
    }

    #[test]
    fn insert_then_delete_is_net_absent() {
        let (g, n) = base_graph();
        let snap = g.freeze();
        let mut delta = BatchUpdate::new();
        delta.insert_edge(n[2], n[0], intern("z"));
        delta.delete_edge(n[2], n[0], intern("z"));
        let overlay = DeltaOverlay::new(&snap, &delta);
        let materialised = delta.applied_to(&g).unwrap();
        assert_matches_materialised(&overlay, &materialised);
        assert!(!GraphView::has_edge(&overlay, n[2], n[0], intern("z")));
    }
}
