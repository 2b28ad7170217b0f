//! `d`-hop neighbourhoods and induced subgraphs.
//!
//! Section 6.1 of the paper defines, for a node `v`, the set `V_d(v)` of all
//! nodes within `d` hops of `v` (treating `G` as undirected), and the
//! `d`-neighbour `G_d(v)` as the subgraph induced by `V_d(v)`.  These are
//! the objects a *localizable* incremental algorithm is allowed to touch:
//! the cost of `IncDect` must be a function of `|G_{dΣ}(ΔG)|` only.

use crate::graph::{Graph, NodeId};
use crate::view::GraphView;
use std::collections::{HashMap, HashSet, VecDeque};

/// The result of a bounded BFS from one or more sources: every reached node
/// together with its hop distance from the nearest source.
#[derive(Debug, Clone, Default)]
pub struct Neighborhood {
    /// Hop distance of each reached node from the nearest source.
    pub distance: HashMap<NodeId, usize>,
}

impl Neighborhood {
    /// Nodes contained in the neighbourhood.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.distance.keys().copied()
    }

    /// Number of nodes in the neighbourhood.
    pub fn len(&self) -> usize {
        self.distance.len()
    }

    /// Whether the neighbourhood is empty.
    pub fn is_empty(&self) -> bool {
        self.distance.is_empty()
    }

    /// Does the neighbourhood contain `node`?
    pub fn contains(&self, node: NodeId) -> bool {
        self.distance.contains_key(&node)
    }

    /// The set of contained node ids.
    pub fn node_set(&self) -> HashSet<NodeId> {
        self.distance.keys().copied().collect()
    }
}

/// Compute `V_d(v)`: every node within `d` undirected hops of `v`
/// (including `v` itself at distance 0).
pub fn d_neighbors<G: GraphView + ?Sized>(graph: &G, v: NodeId, d: usize) -> Neighborhood {
    d_neighbors_many(graph, std::iter::once(v), d)
}

/// Compute the union of `V_d(v)` over several sources — the
/// `G_{dΣ}(ΔG)` construction used by the incremental detectors, where the
/// sources are the endpoints of updated edges.
pub fn d_neighbors_many<G, I>(graph: &G, sources: I, d: usize) -> Neighborhood
where
    G: GraphView + ?Sized,
    I: IntoIterator<Item = NodeId>,
{
    let mut distance: HashMap<NodeId, usize> = HashMap::new();
    let mut queue: VecDeque<NodeId> = VecDeque::new();
    for src in sources {
        if !graph.contains_node(src) {
            continue;
        }
        if let std::collections::hash_map::Entry::Vacant(e) = distance.entry(src) {
            e.insert(0);
            queue.push_back(src);
        }
    }
    while let Some(node) = queue.pop_front() {
        let dist = distance[&node];
        if dist == d {
            continue;
        }
        graph.for_each_undirected(node, &mut |next, _edge| {
            if let std::collections::hash_map::Entry::Vacant(e) = distance.entry(next) {
                e.insert(dist + 1);
                queue.push_back(next);
            }
        });
    }
    Neighborhood { distance }
}

/// Build the subgraph of `graph` induced by `nodes` (Section 2 of the
/// paper): it keeps every edge of `graph` whose both endpoints are in
/// `nodes`.  Returns the induced graph together with the mapping from old
/// node ids to new node ids.
pub fn induced_subgraph<G: GraphView + ?Sized>(
    graph: &G,
    nodes: &HashSet<NodeId>,
) -> (Graph, HashMap<NodeId, NodeId>) {
    let mut sub = Graph::with_capacity(nodes.len());
    let mut mapping: HashMap<NodeId, NodeId> = HashMap::with_capacity(nodes.len());
    // Deterministic iteration order: sort the node ids.
    let mut sorted: Vec<NodeId> = nodes.iter().copied().collect();
    sorted.sort();
    for &old in &sorted {
        if !graph.contains_node(old) {
            continue;
        }
        let new = sub.add_node(graph.label(old), graph.attrs_of(old));
        mapping.insert(old, new);
    }
    for &old in &sorted {
        if !graph.contains_node(old) {
            continue;
        }
        // Outgoing edges only, so each edge — including self-loops, which an
        // undirected walk would visit twice — is added exactly once.
        graph.for_each_out(old, &mut |dst, label| {
            if let (Some(&ns), Some(&nd)) = (mapping.get(&old), mapping.get(&dst)) {
                // Duplicate-free by construction since the source graph is.
                sub.add_edge(ns, nd, label).expect("induced edge unique");
            }
        });
    }
    (sub, mapping)
}

/// Shortest undirected distance between two nodes, if connected.
pub fn undirected_distance<G: GraphView + ?Sized>(
    graph: &G,
    from: NodeId,
    to: NodeId,
) -> Option<usize> {
    if from == to {
        return Some(0);
    }
    let mut visited: HashSet<NodeId> = HashSet::new();
    let mut queue: VecDeque<(NodeId, usize)> = VecDeque::new();
    visited.insert(from);
    queue.push_back((from, 0));
    while let Some((node, dist)) = queue.pop_front() {
        let mut found = false;
        graph.for_each_undirected(node, &mut |next, _| {
            if next == to {
                found = true;
            } else if visited.insert(next) {
                queue.push_back((next, dist + 1));
            }
        });
        if found {
            return Some(dist + 1);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::AttrMap;

    /// Build a directed path a0 -> a1 -> ... -> a(n-1).
    fn path_graph(n: usize) -> (Graph, Vec<NodeId>) {
        let mut g = Graph::new();
        let nodes: Vec<NodeId> = (0..n)
            .map(|_| g.add_node_named("node", AttrMap::new()))
            .collect();
        for w in nodes.windows(2) {
            g.add_edge_named(w[0], w[1], "next").unwrap();
        }
        (g, nodes)
    }

    #[test]
    fn zero_hop_neighborhood_is_just_the_source() {
        let (g, nodes) = path_graph(5);
        let nb = d_neighbors(&g, nodes[2], 0);
        assert_eq!(nb.len(), 1);
        assert!(nb.contains(nodes[2]));
    }

    #[test]
    fn bfs_is_undirected() {
        let (g, nodes) = path_graph(5);
        // From the middle of a directed path, one hop reaches both the
        // successor and the predecessor.
        let nb = d_neighbors(&g, nodes[2], 1);
        assert_eq!(nb.len(), 3);
        assert!(nb.contains(nodes[1]));
        assert!(nb.contains(nodes[3]));
        assert_eq!(nb.distance[&nodes[1]], 1);
    }

    #[test]
    fn d_hops_bound_respected() {
        let (g, nodes) = path_graph(10);
        let nb = d_neighbors(&g, nodes[0], 3);
        assert_eq!(nb.len(), 4); // nodes 0..=3
        assert!(!nb.contains(nodes[4]));
    }

    #[test]
    fn multi_source_union() {
        let (g, nodes) = path_graph(10);
        let nb = d_neighbors_many(&g, [nodes[0], nodes[9]], 1);
        assert_eq!(nb.len(), 4); // {0,1} ∪ {8,9}
        assert!(nb.contains(nodes[8]));
    }

    #[test]
    fn missing_sources_are_ignored() {
        let (g, nodes) = path_graph(3);
        let nb = d_neighbors_many(&g, [nodes[0], NodeId(999)], 1);
        assert_eq!(nb.len(), 2);
    }

    #[test]
    fn induced_subgraph_keeps_internal_edges_only() {
        let (g, nodes) = path_graph(5);
        let keep: HashSet<NodeId> = [nodes[1], nodes[2], nodes[4]].into_iter().collect();
        let (sub, mapping) = induced_subgraph(&g, &keep);
        assert_eq!(sub.node_count(), 3);
        // Only edge 1->2 survives; 2->3, 3->4 cross the boundary.
        assert_eq!(sub.edge_count(), 1);
        let (n1, n2) = (mapping[&nodes[1]], mapping[&nodes[2]]);
        assert!(sub.has_edge(n1, n2, crate::interner::intern("next")));
    }

    #[test]
    fn induced_subgraph_preserves_attributes() {
        let mut g = Graph::new();
        let v = g.add_node_named(
            "village",
            AttrMap::from_pairs([("pop", crate::value::Value::Int(7))]),
        );
        let keep: HashSet<NodeId> = [v].into_iter().collect();
        let (sub, mapping) = induced_subgraph(&g, &keep);
        assert_eq!(
            sub.attr(mapping[&v], crate::interner::intern("pop")),
            Some(&crate::value::Value::Int(7))
        );
    }

    #[test]
    fn induced_subgraph_handles_self_loops() {
        let mut g = Graph::new();
        let a = g.add_node_named("a", AttrMap::new());
        let b = g.add_node_named("b", AttrMap::new());
        g.add_edge_named(a, a, "self").unwrap();
        g.add_edge_named(a, b, "e").unwrap();
        let keep: HashSet<NodeId> = [a, b].into_iter().collect();
        let (sub, mapping) = induced_subgraph(&g, &keep);
        assert_eq!(sub.edge_count(), 2);
        assert!(sub.has_edge(mapping[&a], mapping[&a], crate::interner::intern("self")));
        // Same via the CSR view.
        let snap = g.freeze();
        let (sub2, _) = induced_subgraph(&snap, &keep);
        assert_eq!(sub2.edge_count(), 2);
    }

    #[test]
    fn undirected_distance_on_path() {
        let (g, nodes) = path_graph(6);
        assert_eq!(undirected_distance(&g, nodes[0], nodes[0]), Some(0));
        assert_eq!(undirected_distance(&g, nodes[0], nodes[5]), Some(5));
        assert_eq!(undirected_distance(&g, nodes[5], nodes[0]), Some(5));
        // Disconnected node.
        let mut g2 = g.clone();
        let lonely = g2.add_node_named("x", AttrMap::new());
        assert_eq!(undirected_distance(&g2, nodes[0], lonely), None);
    }
}
