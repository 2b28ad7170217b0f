//! `d`-hop neighbourhoods.
//!
//! Section 6.1 of the paper defines, for a node `v`, the set `V_d(v)` of all
//! nodes within `d` hops of `v` (treating `G` as undirected), and the
//! `d`-neighbour `G_d(v)` as the subgraph induced by `V_d(v)`.  These are
//! the objects a *localizable* incremental algorithm is allowed to touch:
//! the cost of `IncDect` must be a function of `|G_{dΣ}(ΔG)|` only.

use crate::graph::NodeId;
use crate::view::GraphView;
use std::collections::{HashMap, VecDeque};

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::AttrMap;
    use crate::graph::Graph;

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
}
