//! The directed property graph `G = (V, E, L, F_A)`.
//!
//! Nodes are stored in a dense arena indexed by [`NodeId`]; adjacency is kept
//! as per-node out- and in-lists of `(neighbour, edge-label)` pairs.  A
//! label index (`label → node ids`) is maintained for candidate selection in
//! the matcher.  Edges are identified by `(src, dst, label)` and the graph
//! is a *set* of edges: inserting a duplicate is an error, matching the
//! paper's `E ⊆ V × V` formulation (per label).

use crate::attrs::AttrMap;
use crate::hash::{IdMap, IdSet};
use crate::interner::{intern, Sym};
use crate::value::Value;
use crate::{GraphError, Result};
use ngd_json::{FromJson, Json, ToJson};
use std::fmt;

/// A dense node identifier (index into the node arena).
///
/// `repr(transparent)` over `u32` is part of the public contract: the
/// on-disk snapshot format ([`crate::persist`]) reinterprets memory-mapped
/// `u32` arrays as `&[NodeId]` without copying.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(transparent)]
pub struct NodeId(pub u32);

impl ToJson for NodeId {
    fn to_json(&self) -> Json {
        Json::Int(i64::from(self.0))
    }
}

impl FromJson for NodeId {
    fn from_json(value: &Json) -> ngd_json::Result<Self> {
        u32::from_json(value).map(NodeId)
    }
}

impl NodeId {
    /// The arena index of this node.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Label and attribute payload of a node.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeData {
    /// The node label `L(v)` from the alphabet `Γ`.
    pub label: Sym,
    /// The attribute tuple `F_A(v)`.
    pub attrs: AttrMap,
}

ngd_json::impl_json_struct!(NodeData { label, attrs });

/// A fully-specified directed labelled edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeRef {
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Edge label `L(e)`.
    pub label: Sym,
}

impl EdgeRef {
    /// Construct an edge reference.
    pub fn new(src: NodeId, dst: NodeId, label: Sym) -> Self {
        EdgeRef { src, dst, label }
    }

    /// The endpoint the edge is read from in direction `dir`: `src` for
    /// [`Dir::Out`], `dst` for [`Dir::In`].
    #[inline]
    pub fn end(&self, dir: Dir) -> NodeId {
        match dir {
            Dir::Out => self.src,
            Dir::In => self.dst,
        }
    }
}

ngd_json::impl_json_struct!(EdgeRef { src, dst, label });

/// The direction an edge is read from the node a call is about: along its
/// outgoing edges (the node is the source) or its incoming ones (the node
/// is the destination).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dir {
    /// Outgoing: `node -> neighbour`.
    Out = 0,
    /// Incoming: `neighbour -> node`.
    In = 1,
}

impl Dir {
    /// Both directions, `Out` first.
    pub const BOTH: [Dir; 2] = [Dir::Out, Dir::In];

    /// The opposite direction: the same edge read from its other end.
    #[inline]
    pub fn rev(self) -> Dir {
        match self {
            Dir::Out => Dir::In,
            Dir::In => Dir::Out,
        }
    }

    /// `(source, destination)` of an edge read in this direction from
    /// `node` to `neighbor` (nodes, or their labels).
    #[inline]
    pub fn src_dst<T>(self, node: T, neighbor: T) -> (T, T) {
        match self {
            Dir::Out => (node, neighbor),
            Dir::In => (neighbor, node),
        }
    }
}

/// A directed property graph (the mutable build/update representation;
/// freeze read-mostly graphs into a [`crate::CsrSnapshot`] for hot paths).
#[derive(Debug, Clone, Default)]
pub struct Graph {
    nodes: Vec<NodeData>,
    /// Outgoing adjacency: `out[v] = [(w, label), …]` for edges `v → w`.
    out: Vec<Vec<(NodeId, Sym)>>,
    /// Incoming adjacency: `inn[v] = [(u, label), …]` for edges `u → v`.
    inn: Vec<Vec<(NodeId, Sym)>>,
    /// Node ids grouped by label, for candidate selection.
    label_index: IdMap<Sym, Vec<NodeId>>,
    /// Every edge as a set, for O(1) `has_edge` / duplicate checks —
    /// without it, bulk loads pay an O(deg) adjacency scan per insertion,
    /// which is quadratic on hub-heavy graphs.
    edge_set: IdSet<EdgeRef>,
    edge_count: usize,
}

impl Graph {
    /// An empty graph.
    pub fn new() -> Self {
        Graph::default()
    }

    /// An empty graph with node capacity pre-reserved.
    pub fn with_capacity(nodes: usize) -> Self {
        Graph {
            nodes: Vec::with_capacity(nodes),
            out: Vec::with_capacity(nodes),
            inn: Vec::with_capacity(nodes),
            label_index: IdMap::default(),
            edge_set: IdSet::default(),
            edge_count: 0,
        }
    }

    /// Number of nodes `|V|`.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges `|E|`.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Add a node with the given label and attributes, returning its id.
    pub fn add_node(&mut self, label: Sym, attrs: AttrMap) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(NodeData { label, attrs });
        self.out.push(Vec::new());
        self.inn.push(Vec::new());
        self.label_index.entry(label).or_default().push(id);
        id
    }

    /// Add a node by label name (interned), convenience for builders/tests.
    pub fn add_node_named(&mut self, label: &str, attrs: AttrMap) -> NodeId {
        self.add_node(intern(label), attrs)
    }

    /// Check that a node id is valid.
    pub fn contains_node(&self, id: NodeId) -> bool {
        id.index() < self.nodes.len()
    }

    fn check_node(&self, id: NodeId) -> Result<()> {
        if self.contains_node(id) {
            Ok(())
        } else {
            Err(GraphError::NodeNotFound(id))
        }
    }

    /// Immutable access to a node's payload.
    pub fn node(&self, id: NodeId) -> &NodeData {
        &self.nodes[id.index()]
    }

    /// Fallible access to a node's payload.
    pub fn try_node(&self, id: NodeId) -> Result<&NodeData> {
        self.nodes
            .get(id.index())
            .ok_or(GraphError::NodeNotFound(id))
    }

    /// The label of a node.
    pub fn label(&self, id: NodeId) -> Sym {
        self.nodes[id.index()].label
    }

    /// The attribute tuple of a node.
    pub fn attrs(&self, id: NodeId) -> &AttrMap {
        &self.nodes[id.index()].attrs
    }

    /// A single attribute of a node.
    pub fn attr(&self, id: NodeId, name: Sym) -> Option<&Value> {
        self.nodes[id.index()].attrs.get(name)
    }

    /// Set an attribute on a node.
    pub fn set_attr(&mut self, id: NodeId, name: Sym, value: Value) {
        self.nodes[id.index()].attrs.set(name, value);
    }

    /// Insert a directed labelled edge.
    ///
    /// Returns [`GraphError::DuplicateEdge`] if the exact `(src, dst, label)`
    /// triple already exists, and [`GraphError::NodeNotFound`] if either
    /// endpoint is invalid.
    pub fn add_edge(&mut self, src: NodeId, dst: NodeId, label: Sym) -> Result<()> {
        self.check_node(src)?;
        self.check_node(dst)?;
        if !self.edge_set.insert(EdgeRef::new(src, dst, label)) {
            return Err(GraphError::DuplicateEdge { src, dst });
        }
        self.out[src.index()].push((dst, label));
        self.inn[dst.index()].push((src, label));
        self.edge_count += 1;
        Ok(())
    }

    /// Insert an edge with a named (interned) label.
    pub fn add_edge_named(&mut self, src: NodeId, dst: NodeId, label: &str) -> Result<()> {
        self.add_edge(src, dst, intern(label))
    }

    /// Remove a directed labelled edge.
    pub fn remove_edge(&mut self, src: NodeId, dst: NodeId, label: Sym) -> Result<()> {
        self.check_node(src)?;
        self.check_node(dst)?;
        if !self.edge_set.remove(&EdgeRef::new(src, dst, label)) {
            return Err(GraphError::EdgeNotFound { src, dst });
        }
        self.out[src.index()].retain(|&(d, l)| !(d == dst && l == label));
        self.inn[dst.index()].retain(|&(s, l)| !(s == src && l == label));
        self.edge_count -= 1;
        Ok(())
    }

    /// Does the exact edge `(src, dst, label)` exist?
    pub fn has_edge(&self, src: NodeId, dst: NodeId, label: Sym) -> bool {
        self.edge_set.contains(&EdgeRef::new(src, dst, label))
    }

    /// Does any edge from `src` to `dst` exist, regardless of label?
    pub fn has_edge_any_label(&self, src: NodeId, dst: NodeId) -> bool {
        self.contains_node(src)
            && self.contains_node(dst)
            && self.out[src.index()].iter().any(|&(d, _)| d == dst)
    }

    /// The `(neighbour, edge-label)` pairs of a node read in direction
    /// `dir`: its successors for [`Dir::Out`], its predecessors for
    /// [`Dir::In`].  The slice's length is the node's degree that way.
    pub fn neighbors(&self, id: NodeId, dir: Dir) -> &[(NodeId, Sym)] {
        match dir {
            Dir::Out => &self.out[id.index()],
            Dir::In => &self.inn[id.index()],
        }
    }

    /// Iterate over all undirected neighbours (successors then predecessors),
    /// with the connecting edge expressed in its directed form.
    pub fn undirected_neighbors(&self, id: NodeId) -> impl Iterator<Item = (NodeId, EdgeRef)> + '_ {
        let outgoing = self.out[id.index()]
            .iter()
            .map(move |&(dst, label)| (dst, EdgeRef::new(id, dst, label)));
        let incoming = self.inn[id.index()]
            .iter()
            .map(move |&(src, label)| (src, EdgeRef::new(src, id, label)));
        outgoing.chain(incoming)
    }

    /// All node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// All nodes with the given label (empty slice if the label is unused).
    pub fn nodes_with_label(&self, label: Sym) -> &[NodeId] {
        self.label_index
            .get(&label)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// Distinct node labels present in the graph, with their populations.
    pub fn label_histogram(&self) -> Vec<(Sym, usize)> {
        let mut hist: Vec<(Sym, usize)> = self
            .label_index
            .iter()
            .map(|(l, v)| (*l, v.len()))
            .collect();
        hist.sort_by_key(|&(l, _)| l);
        hist
    }

    /// Iterate over every directed edge in the graph.
    pub fn edges(&self) -> impl Iterator<Item = EdgeRef> + '_ {
        self.out.iter().enumerate().flat_map(|(src, adj)| {
            adj.iter()
                .map(move |&(dst, label)| EdgeRef::new(NodeId(src as u32), dst, label))
        })
    }

    /// Collect every edge into a vector (handy for tests and serialization).
    pub fn edge_vec(&self) -> Vec<EdgeRef> {
        self.edges().collect()
    }
}

impl ToJson for Graph {
    fn to_json(&self) -> Json {
        // Canonical encoding: node payloads in arena order plus the edge
        // list; adjacency, the label index and the edge set are derived
        // state and are rebuilt on decode.
        Json::Obj(vec![
            ("nodes".to_string(), self.nodes.to_json()),
            ("edges".to_string(), self.edge_vec().to_json()),
        ])
    }
}

impl FromJson for Graph {
    fn from_json(value: &Json) -> ngd_json::Result<Self> {
        let nodes: Vec<NodeData> = FromJson::from_json(value.field("nodes")?)?;
        let edges: Vec<EdgeRef> = FromJson::from_json(value.field("edges")?)?;
        let mut graph = Graph::with_capacity(nodes.len());
        for node in nodes {
            graph.add_node(node.label, node.attrs);
        }
        for edge in edges {
            graph
                .add_edge(edge.src, edge.dst, edge.label)
                .map_err(|e| ngd_json::JsonError::new(format!("invalid graph edge: {e}")))?;
        }
        Ok(graph)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interner::intern;

    fn attrs(pairs: &[(&str, i64)]) -> AttrMap {
        AttrMap::from_pairs(pairs.iter().map(|&(k, v)| (k, Value::Int(v))))
    }

    #[test]
    fn add_nodes_and_edges() {
        let mut g = Graph::new();
        let a = g.add_node_named("place", attrs(&[("population", 100)]));
        let b = g.add_node_named("place", attrs(&[("population", 200)]));
        let c = g.add_node_named("state", AttrMap::new());
        g.add_edge_named(a, c, "partOf").unwrap();
        g.add_edge_named(b, c, "partOf").unwrap();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2);
        assert!(g.has_edge(a, c, intern("partOf")));
        assert!(!g.has_edge(c, a, intern("partOf")));
        assert!(g.has_edge_any_label(b, c));
    }

    #[test]
    fn duplicate_edge_rejected_but_different_label_allowed() {
        let mut g = Graph::new();
        let a = g.add_node_named("x", AttrMap::new());
        let b = g.add_node_named("y", AttrMap::new());
        g.add_edge_named(a, b, "knows").unwrap();
        assert_eq!(
            g.add_edge_named(a, b, "knows"),
            Err(GraphError::DuplicateEdge { src: a, dst: b })
        );
        // Same endpoints, different label is a different edge.
        g.add_edge_named(a, b, "likes").unwrap();
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn remove_edge_updates_both_directions() {
        let mut g = Graph::new();
        let a = g.add_node_named("x", AttrMap::new());
        let b = g.add_node_named("y", AttrMap::new());
        g.add_edge_named(a, b, "e").unwrap();
        assert_eq!(g.undirected_neighbors(a).count(), 1);
        assert_eq!(g.undirected_neighbors(b).count(), 1);
        g.remove_edge(a, b, intern("e")).unwrap();
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.undirected_neighbors(a).count(), 0);
        assert_eq!(g.undirected_neighbors(b).count(), 0);
        assert_eq!(
            g.remove_edge(a, b, intern("e")),
            Err(GraphError::EdgeNotFound { src: a, dst: b })
        );
    }

    #[test]
    fn invalid_node_ids_are_rejected() {
        let mut g = Graph::new();
        let a = g.add_node_named("x", AttrMap::new());
        let ghost = NodeId(99);
        assert_eq!(
            g.add_edge_named(a, ghost, "e"),
            Err(GraphError::NodeNotFound(ghost))
        );
        assert!(g.try_node(ghost).is_err());
        assert!(!g.has_edge(a, ghost, intern("e")));
    }

    #[test]
    fn label_index_tracks_nodes() {
        let mut g = Graph::new();
        let a = g.add_node_named("account", AttrMap::new());
        let b = g.add_node_named("account", AttrMap::new());
        let _c = g.add_node_named("company", AttrMap::new());
        let accounts = g.nodes_with_label(intern("account"));
        assert_eq!(accounts, &[a, b]);
        assert_eq!(g.nodes_with_label(intern("nonexistent")), &[] as &[NodeId]);
        let hist = g.label_histogram();
        assert_eq!(hist.iter().map(|&(_, c)| c).sum::<usize>(), 3);
    }

    #[test]
    fn neighbors_and_degrees() {
        let mut g = Graph::new();
        let hub = g.add_node_named("hub", AttrMap::new());
        let mut spokes = Vec::new();
        for _ in 0..5 {
            let s = g.add_node_named("spoke", AttrMap::new());
            g.add_edge_named(hub, s, "to").unwrap();
            spokes.push(s);
        }
        g.add_edge_named(spokes[0], hub, "back").unwrap();
        assert_eq!(g.neighbors(hub, Dir::Out).len(), 5);
        assert_eq!(g.neighbors(hub, Dir::In).len(), 1);
        let undirected: Vec<NodeId> = g.undirected_neighbors(hub).map(|(n, _)| n).collect();
        assert_eq!(undirected.len(), 6);
    }

    #[test]
    fn edges_iterator_covers_all_edges() {
        let mut g = Graph::new();
        let a = g.add_node_named("a", AttrMap::new());
        let b = g.add_node_named("b", AttrMap::new());
        let c = g.add_node_named("c", AttrMap::new());
        g.add_edge_named(a, b, "e1").unwrap();
        g.add_edge_named(b, c, "e2").unwrap();
        g.add_edge_named(c, a, "e3").unwrap();
        let edges = g.edge_vec();
        assert_eq!(edges.len(), 3);
        assert!(edges.contains(&EdgeRef::new(a, b, intern("e1"))));
        assert!(edges.contains(&EdgeRef::new(c, a, intern("e3"))));
    }

    #[test]
    fn attribute_access_and_mutation() {
        let mut g = Graph::new();
        let v = g.add_node_named("village", attrs(&[("female", 600), ("male", 722)]));
        assert_eq!(g.attr(v, intern("female")), Some(&Value::Int(600)));
        g.set_attr(v, intern("total"), Value::Int(1572));
        assert_eq!(g.attr(v, intern("total")), Some(&Value::Int(1572)));
        assert_eq!(g.attrs(v).len(), 3);
    }

    #[test]
    fn json_roundtrip_preserves_structure() {
        let mut g = Graph::new();
        let a = g.add_node_named("a", attrs(&[("v", 1)]));
        let b = g.add_node_named("b", attrs(&[("v", 2)]));
        g.add_edge_named(a, b, "e").unwrap();
        let json = ngd_json::to_string(&g);
        let back: Graph = ngd_json::from_str(&json).unwrap();
        assert_eq!(back.node_count(), 2);
        assert_eq!(back.edge_count(), 1);
        assert!(back.has_edge(a, b, intern("e")));
        assert_eq!(back.attr(a, intern("v")), Some(&Value::Int(1)));
    }

    #[test]
    fn bulk_insertion_of_hub_edges_is_not_quadratic() {
        // 50k edges into a single hub: with the edge-set check this is
        // effectively linear; the old per-insert adjacency scan would make
        // this test take minutes.
        let mut g = Graph::new();
        let hub = g.add_node_named("hub", AttrMap::new());
        let spokes: Vec<NodeId> = (0..50_000)
            .map(|_| g.add_node_named("spoke", AttrMap::new()))
            .collect();
        let start = std::time::Instant::now();
        for &s in &spokes {
            g.add_edge_named(hub, s, "to").unwrap();
        }
        assert_eq!(g.edge_count(), 50_000);
        assert!(
            start.elapsed() < std::time::Duration::from_secs(5),
            "hub insertion took {:?}",
            start.elapsed()
        );
    }
}
