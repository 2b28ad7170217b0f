//! The [`GraphView`] abstraction over graph representations.
//!
//! The detection stack reads graphs through this trait so that the same
//! matcher and detectors run over
//!
//! * the mutable adjacency-list [`Graph`] (the build/update representation),
//! * the frozen, label-partitioned [`crate::CsrSnapshot`] (the hot-path
//!   representation: the graph's `.ngds` bytes, in memory or mapped, with
//!   contiguous label-sorted neighbour runs, binary-search candidate
//!   selection and a `(node label, edge label, node label)` triple index
//!   for seeding), and
//! * the [`crate::DeltaOverlay`] (a snapshot plus an unapplied
//!   [`crate::BatchUpdate`], the representation the incremental detectors
//!   search without materialising `G ⊕ ΔG`).
//!
//! The trait is deliberately read-only — mutation stays on [`Graph`] — and
//! is consumed generically (monomorphised), so the adjacency-list and CSR
//! paths compile to separate specialised code.  Closure-taking methods use
//! `&mut dyn FnMut` so the trait stays object-safe for the few callers that
//! want dynamic dispatch.

use crate::attrs::AttrMap;
use crate::graph::{Dir, EdgeRef, Graph, NodeId};
use crate::interner::{Sym, WILDCARD};
use crate::value::Value;

/// Read-only access to a directed labelled property graph.
pub trait GraphView {
    /// Number of nodes `|V|`.
    fn node_count(&self) -> usize;

    /// Number of edges `|E|`.
    fn edge_count(&self) -> usize;

    /// Is `id` a valid node of this view?
    fn contains_node(&self, id: NodeId) -> bool;

    /// The label of a node.
    fn label(&self, id: NodeId) -> Sym;

    /// A single attribute of a node, returned by value.
    ///
    /// An `Int` or `Bool` is a plain copy and allocates nothing; a `Str`
    /// allocates its clone.  A mapped snapshot decodes the value from the
    /// node's file record, walking its entries (a handful per node) up to
    /// the name; nothing decoded is kept.
    fn attr(&self, id: NodeId, name: Sym) -> Option<Value>;

    /// The full attribute tuple of a node, returned owned.
    ///
    /// Allocates the tuple on every call (one entry vector plus its
    /// strings), so it is meant for whole-node copies, not per-literal
    /// reads — use [`GraphView::attr`] for those.
    fn attrs_of(&self, id: NodeId) -> AttrMap;

    /// Does the exact edge `(src, dst, label)` exist?
    fn has_edge(&self, src: NodeId, dst: NodeId, label: Sym) -> bool;

    /// Number of edges of `id` in direction `dir`.
    fn degree(&self, id: NodeId, dir: Dir) -> usize;

    /// Number of nodes carrying `label`.
    fn label_count(&self, label: Sym) -> usize;

    /// The nodes carrying `label`, materialised.
    fn nodes_with_label_vec(&self, label: Sym) -> Vec<NodeId>;

    /// All node ids (dense `0..node_count` in every representation).
    fn node_ids_vec(&self) -> Vec<NodeId> {
        (0..self.node_count() as u32).map(NodeId).collect()
    }

    /// Number of neighbours of `id` in direction `dir` along edges
    /// labelled `label`.
    fn labeled_count(&self, id: NodeId, label: Sym, dir: Dir) -> usize;

    /// Contiguous sorted slice of the neighbours of `id` in direction `dir`
    /// along `label`, when the representation stores neighbour runs
    /// contiguously (CSR fast path); `None` means the caller must fall back
    /// to [`GraphView::for_each_labeled`].
    fn labeled_slice(&self, id: NodeId, label: Sym, dir: Dir) -> Option<&[NodeId]> {
        let _ = (id, label, dir);
        None
    }

    /// Visit every neighbour of `id` in direction `dir` along edges
    /// labelled `label`.
    fn for_each_labeled(&self, id: NodeId, label: Sym, dir: Dir, f: &mut dyn FnMut(NodeId));

    /// Visit every undirected neighbour (successors then predecessors) with
    /// the connecting edge in its directed form.  A self-loop is visited
    /// twice (once per direction), matching `Graph::undirected_neighbors`.
    fn for_each_undirected(&self, id: NodeId, f: &mut dyn FnMut(NodeId, EdgeRef));

    /// Visit every directed edge of the graph.
    fn for_each_edge(&self, f: &mut dyn FnMut(EdgeRef));

    /// The distinct ends of edges matching the `(source label, edge label,
    /// destination label)` triple that read them in direction `end` (the
    /// sources for [`Dir::Out`], the destinations for [`Dir::In`]),
    /// where any of the three labels may be [`WILDCARD`] (every triple
    /// group matching the concrete components contributes).  `None` means
    /// the representation keeps no triple index and the caller must use
    /// the label index instead.  Implementations must return the *exact*
    /// endpoint set — the matcher relies on it for seeding.
    fn labeled_triple_endpoints(
        &self,
        src_label: Sym,
        edge_label: Sym,
        dst_label: Sym,
        end: Dir,
    ) -> Option<Vec<NodeId>> {
        let _ = (src_label, edge_label, dst_label, end);
        None
    }

    /// Number of edges matching the (possibly wildcarded) label triple —
    /// an upper bound used to pick the smallest seed set before
    /// materialising it — or `None` when no triple index is kept.  Must
    /// answer exactly the triples [`GraphView::labeled_triple_endpoints`]
    /// answers.
    fn labeled_triple_run_len(
        &self,
        src_label: Sym,
        edge_label: Sym,
        dst_label: Sym,
    ) -> Option<usize> {
        let _ = (src_label, edge_label, dst_label);
        None
    }
}

/// Cheap selectivity statistics over a [`GraphView`], the inputs of the
/// match planner's cost model.
///
/// Every query is answered from indexes the representation already keeps
/// (label partition sizes, triple-index run lengths) — `O(1)` per lookup on
/// a CSR or mmap snapshot, `O(labels)` at worst for wildcard triples — so
/// plan compilation never scans adjacency.  On representations without a
/// triple index the triple queries return `None` and the planner falls back
/// to label cardinalities.
#[derive(Clone, Copy)]
pub struct SelectivityStats<'g> {
    view: &'g dyn GraphView,
}

impl<'g> SelectivityStats<'g> {
    /// Statistics over any view.
    pub fn new(view: &'g dyn GraphView) -> Self {
        SelectivityStats { view }
    }

    /// `|V|`.
    pub fn node_count(&self) -> usize {
        self.view.node_count()
    }

    /// Number of nodes a label constraint admits (`|V|` for the wildcard).
    pub fn label_size(&self, label: Sym) -> usize {
        if label == WILDCARD {
            self.view.node_count()
        } else {
            self.view.label_count(label)
        }
    }

    /// Number of edges matching a (possibly wildcarded) label triple, when
    /// the representation keeps a triple index.
    pub fn triple_size(&self, src_label: Sym, edge_label: Sym, dst_label: Sym) -> Option<usize> {
        self.view
            .labeled_triple_run_len(src_label, edge_label, dst_label)
    }

    /// Estimated fan-out of extending a match across a pattern edge read
    /// in direction `from`: the average number of matching edges per
    /// `src_label` node ([`Dir::Out`]) or per `dst_label` node
    /// ([`Dir::In`]).  `None` without a triple index.
    pub fn avg_fanout(
        &self,
        src_label: Sym,
        edge_label: Sym,
        dst_label: Sym,
        from: Dir,
    ) -> Option<f64> {
        let edges = self.triple_size(src_label, edge_label, dst_label)? as f64;
        let anchors = self.label_size(match from {
            Dir::Out => src_label,
            Dir::In => dst_label,
        });
        Some(edges / (anchors.max(1) as f64))
    }
}

impl std::fmt::Debug for SelectivityStats<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SelectivityStats")
            .field("nodes", &self.view.node_count())
            .field("edges", &self.view.edge_count())
            .finish()
    }
}

impl GraphView for Graph {
    fn node_count(&self) -> usize {
        Graph::node_count(self)
    }

    fn edge_count(&self) -> usize {
        Graph::edge_count(self)
    }

    fn contains_node(&self, id: NodeId) -> bool {
        Graph::contains_node(self, id)
    }

    fn label(&self, id: NodeId) -> Sym {
        Graph::label(self, id)
    }

    fn attr(&self, id: NodeId, name: Sym) -> Option<Value> {
        Graph::attr(self, id, name).cloned()
    }

    fn attrs_of(&self, id: NodeId) -> AttrMap {
        Graph::attrs(self, id).clone()
    }

    fn has_edge(&self, src: NodeId, dst: NodeId, label: Sym) -> bool {
        Graph::has_edge(self, src, dst, label)
    }

    fn degree(&self, id: NodeId, dir: Dir) -> usize {
        self.neighbors(id, dir).len()
    }

    fn label_count(&self, label: Sym) -> usize {
        self.nodes_with_label(label).len()
    }

    fn nodes_with_label_vec(&self, label: Sym) -> Vec<NodeId> {
        self.nodes_with_label(label).to_vec()
    }

    fn labeled_count(&self, id: NodeId, label: Sym, dir: Dir) -> usize {
        self.neighbors(id, dir)
            .iter()
            .filter(|&&(_, l)| l == label)
            .count()
    }

    fn for_each_labeled(&self, id: NodeId, label: Sym, dir: Dir, f: &mut dyn FnMut(NodeId)) {
        for &(n, l) in self.neighbors(id, dir) {
            if l == label {
                f(n);
            }
        }
    }

    fn for_each_undirected(&self, id: NodeId, f: &mut dyn FnMut(NodeId, EdgeRef)) {
        for (n, e) in self.undirected_neighbors(id) {
            f(n, e);
        }
    }

    fn for_each_edge(&self, f: &mut dyn FnMut(EdgeRef)) {
        for e in self.edges() {
            f(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::AttrMap;
    use crate::interner::intern;

    fn small() -> (Graph, NodeId, NodeId, NodeId) {
        let mut g = Graph::new();
        let a = g.add_node_named("a", AttrMap::new());
        let b = g.add_node_named("b", AttrMap::new());
        let c = g.add_node_named("b", AttrMap::new());
        g.add_edge_named(a, b, "e").unwrap();
        g.add_edge_named(a, c, "e").unwrap();
        g.add_edge_named(b, a, "f").unwrap();
        (g, a, b, c)
    }

    #[test]
    fn graph_implements_the_view_faithfully() {
        let (g, a, b, c) = small();
        let view: &dyn GraphView = &g;
        assert_eq!(view.node_count(), 3);
        assert_eq!(view.edge_count(), 3);
        assert_eq!(view.label_count(intern("b")), 2);
        assert_eq!(view.labeled_count(a, intern("e"), Dir::Out), 2);
        assert_eq!(view.labeled_count(a, intern("f"), Dir::In), 1);
        let mut outs = Vec::new();
        view.for_each_labeled(a, intern("e"), Dir::Out, &mut |n| outs.push(n));
        assert_eq!(outs, vec![b, c]);
        let mut edges = 0;
        view.for_each_edge(&mut |_| edges += 1);
        assert_eq!(edges, 3);
        assert!(view
            .labeled_triple_endpoints(intern("a"), intern("e"), intern("b"), Dir::Out)
            .is_none());
    }
}
