//! Batch updates `ΔG`.
//!
//! Section 5.2 of the paper defines a *unit update* as an edge insertion or
//! deletion; insertions may introduce new nodes (with labels and attribute
//! values), deletions only remove links and leave nodes in place.  A *batch
//! update* `ΔG = (ΔG⁺, ΔG⁻)` is a set of unit updates, and `G ⊕ ΔG` is the
//! graph obtained by applying them.
//!
//! A [`BatchUpdate`] first materialises its [`NewNode`]s (whose ids are
//! assigned densely after the existing nodes of the target graph, so the
//! update can reference them before application), then applies edge
//! insertions and deletions.

use crate::attrs::AttrMap;
use crate::graph::{EdgeRef, Graph, NodeId};
use crate::hash::IdSet;
use crate::interner::Sym;
use crate::view::GraphView;
use ngd_json::{FromJson, Json, JsonError, ToJson};

/// A node introduced by a batch update.
#[derive(Debug, Clone, PartialEq)]
pub struct NewNode {
    /// Label of the new node.
    pub label: Sym,
    /// Attribute tuple of the new node.
    pub attrs: AttrMap,
}

ngd_json::impl_json_struct!(NewNode { label, attrs });

/// A single edge operation within a batch update.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeOp {
    /// `insert (v, v')` with label — the edge must not exist in `G`.
    Insert(EdgeRef),
    /// `delete (v, v')` with label — the edge must exist in `G`.
    Delete(EdgeRef),
}

impl EdgeOp {
    /// The edge this operation touches.
    pub fn edge(&self) -> EdgeRef {
        match self {
            EdgeOp::Insert(e) | EdgeOp::Delete(e) => *e,
        }
    }

    /// Is this an insertion?
    pub fn is_insert(&self) -> bool {
        matches!(self, EdgeOp::Insert(_))
    }
}

impl ToJson for EdgeOp {
    fn to_json(&self) -> Json {
        let (tag, edge) = match self {
            EdgeOp::Insert(e) => ("Insert", e),
            EdgeOp::Delete(e) => ("Delete", e),
        };
        Json::Obj(vec![(tag.to_string(), edge.to_json())])
    }
}

impl FromJson for EdgeOp {
    fn from_json(value: &Json) -> ngd_json::Result<Self> {
        match value.as_obj()? {
            [(tag, inner)] => match tag.as_str() {
                "Insert" => Ok(EdgeOp::Insert(EdgeRef::from_json(inner)?)),
                "Delete" => Ok(EdgeOp::Delete(EdgeRef::from_json(inner)?)),
                other => Err(JsonError::new(format!("unknown EdgeOp variant `{other}`"))),
            },
            _ => Err(JsonError::new("EdgeOp must be a single-field object")),
        }
    }
}

/// Errors raised when applying a batch update.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UpdateError {
    /// An inserted edge references a node that exists in neither `G` nor the
    /// update's new-node list.
    UnknownNode(NodeId),
    /// An inserted edge already exists in the (partially updated) graph.
    InsertExisting(EdgeRef),
    /// A deleted edge does not exist in the (partially updated) graph.
    DeleteMissing(EdgeRef),
}

impl std::fmt::Display for UpdateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UpdateError::UnknownNode(id) => write!(f, "update references unknown node {id}"),
            UpdateError::InsertExisting(e) => {
                write!(f, "insert of existing edge {:?} -> {:?}", e.src, e.dst)
            }
            UpdateError::DeleteMissing(e) => {
                write!(f, "delete of missing edge {:?} -> {:?}", e.src, e.dst)
            }
        }
    }
}

impl std::error::Error for UpdateError {}

/// The net edge effect of a [`BatchUpdate`] on a base view
/// ([`BatchUpdate::net_edges`]).
#[derive(Debug, Default)]
pub(crate) struct NetEdges {
    /// Edges present after the update and absent from the base.
    pub(crate) added: IdSet<EdgeRef>,
    /// Base edges absent after the update.
    pub(crate) removed: IdSet<EdgeRef>,
}

/// A batch update `ΔG`: new nodes plus a sequence of edge operations.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BatchUpdate {
    /// Nodes introduced by the update; the `i`-th new node receives id
    /// `base + i`, where `base` is the node count of the target graph.
    pub new_nodes: Vec<NewNode>,
    /// Edge insertions and deletions, in application order.
    pub ops: Vec<EdgeOp>,
}

impl BatchUpdate {
    /// An empty update.
    pub fn new() -> Self {
        BatchUpdate::default()
    }

    /// Number of unit (edge) updates — the `|ΔG|` of the paper.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the update contains no edge operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Declare a node that will be introduced by this update, given the
    /// target graph's current node count. Returns the id the node will have
    /// once the update is applied.
    pub fn add_node(&mut self, base_node_count: usize, label: Sym, attrs: AttrMap) -> NodeId {
        let id = NodeId((base_node_count + self.new_nodes.len()) as u32);
        self.new_nodes.push(NewNode { label, attrs });
        id
    }

    /// Queue an edge insertion.
    pub fn insert_edge(&mut self, src: NodeId, dst: NodeId, label: Sym) {
        self.ops.push(EdgeOp::Insert(EdgeRef::new(src, dst, label)));
    }

    /// Queue an edge deletion.
    pub fn delete_edge(&mut self, src: NodeId, dst: NodeId, label: Sym) {
        self.ops.push(EdgeOp::Delete(EdgeRef::new(src, dst, label)));
    }

    /// Edges inserted by this update (`ΔG⁺`).
    pub fn insertions(&self) -> impl Iterator<Item = EdgeRef> + '_ {
        self.ops.iter().filter_map(|op| match op {
            EdgeOp::Insert(e) => Some(*e),
            EdgeOp::Delete(_) => None,
        })
    }

    /// Edges deleted by this update (`ΔG⁻`).
    pub fn deletions(&self) -> impl Iterator<Item = EdgeRef> + '_ {
        self.ops.iter().filter_map(|op| match op {
            EdgeOp::Delete(e) => Some(*e),
            EdgeOp::Insert(_) => None,
        })
    }

    /// The nodes touched by any unit update — the BFS sources for the
    /// `G_{dΣ}(ΔG)` neighbourhood.
    pub fn touched_nodes(&self) -> Vec<NodeId> {
        let mut nodes: Vec<NodeId> = self
            .ops
            .iter()
            .flat_map(|op| {
                let e = op.edge();
                [e.src, e.dst]
            })
            .collect();
        nodes.sort();
        nodes.dedup();
        nodes
    }

    /// Ratio of insertions to deletions (the experiment parameter `γ`);
    /// `None` when there are no deletions.
    pub fn insert_delete_ratio(&self) -> Option<f64> {
        let ins = self.insertions().count();
        let del = self.deletions().count();
        if del == 0 {
            None
        } else {
            Some(ins as f64 / del as f64)
        }
    }

    /// Append `other`'s new nodes and edge operations to this update.
    ///
    /// This is the fold a long-lived session performs after each served
    /// batch: if `self` applies cleanly to a base graph `G` and `other`
    /// applies cleanly to `G ⊕ self`, the merged update applies cleanly to
    /// `G` and produces the same graph.  The id contract lines up by
    /// construction — `other`'s new nodes must have been allocated against
    /// `G ⊕ self`'s node count, which is exactly where the merged new-node
    /// list continues.
    pub fn merge(&mut self, other: &BatchUpdate) {
        self.new_nodes.extend(other.new_nodes.iter().cloned());
        self.ops.extend(other.ops.iter().copied());
    }

    /// Check that this update would apply cleanly to `base`, without
    /// panicking and without materialising anything.
    ///
    /// Reports the first offending operation as a typed [`UpdateError`] —
    /// the validation a server must run on an untrusted client batch
    /// before handing it to [`crate::DeltaOverlay::new`], whose
    /// invalid-update path is a panic by design.  The rules are the one
    /// fold `net_edges` below, which [`crate::DeltaOverlay::try_new`] and
    /// compaction build from, so the three cannot disagree.
    pub fn validate_against<V: GraphView + ?Sized>(&self, base: &V) -> Result<(), UpdateError> {
        self.net_edges(base).map(drop)
    }

    /// The update rules, in their one copy: walk the operation sequence
    /// against `base` and return its net effect — the edges it adds that
    /// `base` lacks and the `base` edges it removes — or the first
    /// operation that would not apply, as [`BatchUpdate::apply`] would
    /// report it.  An edge deleted and re-inserted within the batch nets
    /// out to nothing; so does one inserted and re-deleted.
    pub(crate) fn net_edges<V: GraphView + ?Sized>(
        &self,
        base: &V,
    ) -> Result<NetEdges, UpdateError> {
        let total_nodes = base.node_count() + self.new_nodes.len();
        let mut net = NetEdges::default();
        for op in &self.ops {
            let e = op.edge();
            for end in [e.src, e.dst] {
                if end.index() >= total_nodes {
                    return Err(UpdateError::UnknownNode(end));
                }
            }
            let in_base = e.src.index() < base.node_count()
                && e.dst.index() < base.node_count()
                && base.has_edge(e.src, e.dst, e.label);
            let currently_present =
                net.added.contains(&e) || (in_base && !net.removed.contains(&e));
            match op {
                EdgeOp::Insert(_) => {
                    if currently_present {
                        return Err(UpdateError::InsertExisting(e));
                    }
                    if !net.removed.remove(&e) {
                        net.added.insert(e);
                    }
                }
                EdgeOp::Delete(_) => {
                    if !currently_present {
                        return Err(UpdateError::DeleteMissing(e));
                    }
                    if !net.added.remove(&e) {
                        net.removed.insert(e);
                    }
                }
            }
        }
        Ok(net)
    }

    /// Apply the update to `graph` in place, producing `G ⊕ ΔG`.
    ///
    /// New nodes are appended first, then edge operations are applied in
    /// order.  The method validates every operation and fails fast without
    /// attempting to roll back (callers that need atomicity apply updates to
    /// a clone, which is also what the detectors do).
    pub fn apply(&self, graph: &mut Graph) -> Result<(), UpdateError> {
        for node in &self.new_nodes {
            graph.add_node(node.label, node.attrs.clone());
        }
        for op in &self.ops {
            let e = op.edge();
            if !graph.contains_node(e.src) {
                return Err(UpdateError::UnknownNode(e.src));
            }
            if !graph.contains_node(e.dst) {
                return Err(UpdateError::UnknownNode(e.dst));
            }
            match op {
                EdgeOp::Insert(e) => graph
                    .add_edge(e.src, e.dst, e.label)
                    .map_err(|_| UpdateError::InsertExisting(*e))?,
                EdgeOp::Delete(e) => graph
                    .remove_edge(e.src, e.dst, e.label)
                    .map_err(|_| UpdateError::DeleteMissing(*e))?,
            }
        }
        Ok(())
    }

    /// Return `G ⊕ ΔG` as a new graph, leaving `graph` untouched.
    pub fn applied_to(&self, graph: &Graph) -> Result<Graph, UpdateError> {
        let mut updated = graph.clone();
        self.apply(&mut updated)?;
        Ok(updated)
    }
}

ngd_json::impl_json_struct!(BatchUpdate { new_nodes, ops });

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interner::intern;
    use crate::value::Value;

    fn small_graph() -> (Graph, Vec<NodeId>) {
        let mut g = Graph::new();
        let a = g.add_node_named("a", AttrMap::new());
        let b = g.add_node_named("b", AttrMap::new());
        let c = g.add_node_named("c", AttrMap::new());
        g.add_edge_named(a, b, "e").unwrap();
        g.add_edge_named(b, c, "e").unwrap();
        (g, vec![a, b, c])
    }

    #[test]
    fn insert_and_delete_edges() {
        let (g, n) = small_graph();
        let mut delta = BatchUpdate::new();
        delta.insert_edge(n[2], n[0], intern("e"));
        delta.delete_edge(n[0], n[1], intern("e"));
        let updated = delta.applied_to(&g).unwrap();
        assert!(updated.has_edge(n[2], n[0], intern("e")));
        assert!(!updated.has_edge(n[0], n[1], intern("e")));
        assert_eq!(updated.edge_count(), 2);
        // original untouched
        assert!(g.has_edge(n[0], n[1], intern("e")));
    }

    #[test]
    fn insertions_may_add_new_nodes() {
        let (g, n) = small_graph();
        let mut delta = BatchUpdate::new();
        let new = delta.add_node(
            g.node_count(),
            intern("account"),
            AttrMap::from_pairs([("follower", Value::Int(2))]),
        );
        delta.insert_edge(n[0], new, intern("refersTo"));
        let updated = delta.applied_to(&g).unwrap();
        assert_eq!(updated.node_count(), 4);
        assert!(updated.has_edge(n[0], new, intern("refersTo")));
        assert_eq!(updated.attr(new, intern("follower")), Some(&Value::Int(2)));
    }

    #[test]
    fn deleting_missing_edge_fails() {
        let (g, n) = small_graph();
        let mut delta = BatchUpdate::new();
        delta.delete_edge(n[0], n[2], intern("e"));
        assert_eq!(
            delta.applied_to(&g).unwrap_err(),
            UpdateError::DeleteMissing(EdgeRef::new(n[0], n[2], intern("e")))
        );
    }

    #[test]
    fn inserting_existing_edge_fails() {
        let (g, n) = small_graph();
        let mut delta = BatchUpdate::new();
        delta.insert_edge(n[0], n[1], intern("e"));
        assert_eq!(
            delta.applied_to(&g).unwrap_err(),
            UpdateError::InsertExisting(EdgeRef::new(n[0], n[1], intern("e")))
        );
    }

    #[test]
    fn unknown_node_rejected() {
        let (g, n) = small_graph();
        let mut delta = BatchUpdate::new();
        delta.insert_edge(n[0], NodeId(42), intern("e"));
        assert_eq!(
            delta.applied_to(&g).unwrap_err(),
            UpdateError::UnknownNode(NodeId(42))
        );
    }

    #[test]
    fn touched_nodes_dedups_and_sorts() {
        let (_, n) = small_graph();
        let mut delta = BatchUpdate::new();
        delta.insert_edge(n[2], n[0], intern("x"));
        delta.delete_edge(n[0], n[1], intern("e"));
        assert_eq!(delta.touched_nodes(), vec![n[0], n[1], n[2]]);
    }

    #[test]
    fn split_views_and_ratio() {
        let (_, n) = small_graph();
        let mut delta = BatchUpdate::new();
        delta.insert_edge(n[2], n[0], intern("x"));
        delta.insert_edge(n[1], n[0], intern("y"));
        delta.delete_edge(n[0], n[1], intern("e"));
        assert_eq!(delta.insertions().count(), 2);
        assert_eq!(delta.deletions().count(), 1);
        assert_eq!(delta.len(), 3);
        assert_eq!(delta.insert_delete_ratio(), Some(2.0));
    }

    #[test]
    fn merge_concatenates_and_applies_like_sequential_batches() {
        let (g, n) = small_graph();
        let mut first = BatchUpdate::new();
        first.delete_edge(n[0], n[1], intern("e"));
        let d = first.add_node(g.node_count(), intern("d"), AttrMap::new());
        first.insert_edge(n[0], d, intern("f"));

        let after_first = first.applied_to(&g).unwrap();
        let mut second = BatchUpdate::new();
        // Allocated against `G ⊕ first`, as a session would.
        let e2 = second.add_node(after_first.node_count(), intern("d"), AttrMap::new());
        second.insert_edge(d, e2, intern("f"));
        second.insert_edge(n[0], n[1], intern("e")); // re-insert what `first` deleted
        let expected = second.applied_to(&after_first).unwrap();

        let mut merged = first.clone();
        merged.merge(&second);
        let via_merge = merged.applied_to(&g).unwrap();
        assert_eq!(via_merge.node_count(), expected.node_count());
        assert_eq!(via_merge.edge_count(), expected.edge_count());
        assert_eq!(via_merge.edge_vec(), expected.edge_vec());
    }

    #[test]
    fn validate_against_accepts_what_apply_accepts() {
        let (g, n) = small_graph();
        let snap = g.freeze();
        let mut delta = BatchUpdate::new();
        let d = delta.add_node(g.node_count(), intern("d"), AttrMap::new());
        delta.delete_edge(n[0], n[1], intern("e"));
        delta.insert_edge(n[0], n[1], intern("e"));
        delta.insert_edge(n[2], d, intern("f"));
        assert_eq!(delta.validate_against(&snap), Ok(()));
        assert!(delta.applied_to(&g).is_ok());
    }

    #[test]
    fn validate_against_reports_each_failure_mode() {
        let (g, n) = small_graph();
        let snap = g.freeze();

        let mut unknown = BatchUpdate::new();
        unknown.insert_edge(n[0], NodeId(99), intern("e"));
        assert_eq!(
            unknown.validate_against(&snap),
            Err(UpdateError::UnknownNode(NodeId(99)))
        );

        let mut existing = BatchUpdate::new();
        existing.insert_edge(n[0], n[1], intern("e"));
        assert_eq!(
            existing.validate_against(&snap),
            Err(UpdateError::InsertExisting(EdgeRef::new(
                n[0],
                n[1],
                intern("e")
            )))
        );

        let mut missing = BatchUpdate::new();
        missing.delete_edge(n[2], n[0], intern("ghost"));
        assert_eq!(
            missing.validate_against(&snap),
            Err(UpdateError::DeleteMissing(EdgeRef::new(
                n[2],
                n[0],
                intern("ghost")
            )))
        );

        // Inserting the same edge twice within the batch is caught by the
        // net bookkeeping, not just the base lookup.
        let mut twice = BatchUpdate::new();
        twice.insert_edge(n[2], n[0], intern("x"));
        twice.insert_edge(n[2], n[0], intern("x"));
        assert_eq!(
            twice.validate_against(&snap),
            Err(UpdateError::InsertExisting(EdgeRef::new(
                n[2],
                n[0],
                intern("x")
            )))
        );
    }

    #[test]
    fn json_roundtrip() {
        let (_, n) = small_graph();
        let mut delta = BatchUpdate::new();
        delta.insert_edge(n[2], n[0], intern("x"));
        delta.delete_edge(n[0], n[1], intern("e"));
        delta.add_node(
            3,
            intern("account"),
            AttrMap::from_pairs([("v", Value::Int(1))]),
        );
        let json = ngd_json::to_string(&delta);
        let back: BatchUpdate = ngd_json::from_str(&json).unwrap();
        assert_eq!(back, delta);
    }
}
