//! Graph statistics.
//!
//! The paper reports, for each dataset, the number of nodes/edges, the
//! number of distinct node/edge types, the density `|E| / (|V|·(|V|−1))`
//! and the average diameter of connected components.  [`GraphStats`]
//! computes these so the dataset simulators can be checked against the
//! paper's reported characteristics (see `ngd-datagen` tests).

use crate::graph::{Dir, NodeId};
use crate::view::GraphView;
use std::collections::{HashSet, VecDeque};

/// Summary statistics of a graph.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphStats {
    /// Number of nodes `|V|`.
    pub nodes: usize,
    /// Number of edges `|E|`.
    pub edges: usize,
    /// Number of distinct node labels ("types" in the paper).
    pub node_label_count: usize,
    /// Number of distinct edge labels.
    pub edge_label_count: usize,
    /// Density `|E| / (|V|·(|V|−1))`.
    pub density: f64,
    /// Average undirected degree.
    pub avg_degree: f64,
    /// Maximum undirected degree.
    pub max_degree: usize,
    /// Number of (undirected) connected components.
    pub components: usize,
    /// Average of the estimated diameters of connected components with at
    /// least two nodes (double-sweep BFS estimate).
    pub avg_component_diameter: f64,
}

impl GraphStats {
    /// Compute statistics for any [`GraphView`].
    ///
    /// Component diameters are estimated with a double-sweep BFS (exact on
    /// trees, a lower bound in general), which matches how such numbers are
    /// usually reported for large graphs.
    pub fn compute<G: GraphView + ?Sized>(graph: &G) -> GraphStats {
        let n = graph.node_count();
        let m = graph.edge_count();
        let node_labels: HashSet<_> = graph
            .node_ids_vec()
            .into_iter()
            .map(|v| graph.label(v))
            .collect();
        let mut edge_labels = HashSet::new();
        graph.for_each_edge(&mut |e| {
            edge_labels.insert(e.label);
        });
        let density = if n > 1 {
            m as f64 / (n as f64 * (n as f64 - 1.0))
        } else {
            0.0
        };
        let degrees: Vec<usize> = graph
            .node_ids_vec()
            .into_iter()
            .map(|v| graph.degree(v, Dir::Out) + graph.degree(v, Dir::In))
            .collect();
        let avg_degree = if n > 0 {
            degrees.iter().sum::<usize>() as f64 / n as f64
        } else {
            0.0
        };
        let max_degree = degrees.iter().copied().max().unwrap_or(0);

        let (components, diameters) = component_diameters(graph);
        let nontrivial: Vec<usize> = diameters.into_iter().filter(|&d| d > 0).collect();
        let avg_component_diameter = if nontrivial.is_empty() {
            0.0
        } else {
            nontrivial.iter().sum::<usize>() as f64 / nontrivial.len() as f64
        };

        GraphStats {
            nodes: n,
            edges: m,
            node_label_count: node_labels.len(),
            edge_label_count: edge_labels.len(),
            density,
            avg_degree,
            max_degree,
            components,
            avg_component_diameter,
        }
    }
}

/// BFS from `start` over the undirected graph, returning the farthest node
/// and its distance, plus the set of visited nodes.
fn bfs_farthest<G: GraphView + ?Sized>(graph: &G, start: NodeId) -> (NodeId, usize, Vec<NodeId>) {
    let mut visited: HashSet<NodeId> = HashSet::new();
    let mut order: Vec<NodeId> = Vec::new();
    let mut queue: VecDeque<(NodeId, usize)> = VecDeque::new();
    visited.insert(start);
    queue.push_back((start, 0));
    let mut farthest = (start, 0);
    while let Some((node, dist)) = queue.pop_front() {
        order.push(node);
        if dist > farthest.1 {
            farthest = (node, dist);
        }
        graph.for_each_undirected(node, &mut |next, _| {
            if visited.insert(next) {
                queue.push_back((next, dist + 1));
            }
        });
    }
    (farthest.0, farthest.1, order)
}

/// Count connected components and estimate each component's diameter by a
/// double-sweep BFS.
fn component_diameters<G: GraphView + ?Sized>(graph: &G) -> (usize, Vec<usize>) {
    let mut seen: HashSet<NodeId> = HashSet::new();
    let mut diameters = Vec::new();
    let mut components = 0usize;
    for node in graph.node_ids_vec() {
        if seen.contains(&node) {
            continue;
        }
        components += 1;
        let (far, _, members) = bfs_farthest(graph, node);
        for &m in &members {
            seen.insert(m);
        }
        let (_, diameter, _) = bfs_farthest(graph, far);
        diameters.push(diameter);
    }
    (components, diameters)
}

ngd_json::impl_json_struct!(GraphStats {
    nodes,
    edges,
    node_label_count,
    edge_label_count,
    density,
    avg_degree,
    max_degree,
    components,
    avg_component_diameter,
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::AttrMap;
    use crate::graph::Graph;

    fn path(n: usize) -> Graph {
        let mut g = Graph::new();
        let nodes: Vec<NodeId> = (0..n)
            .map(|i| g.add_node_named(if i % 2 == 0 { "even" } else { "odd" }, AttrMap::new()))
            .collect();
        for w in nodes.windows(2) {
            g.add_edge_named(w[0], w[1], "next").unwrap();
        }
        g
    }

    #[test]
    fn stats_of_a_path() {
        let g = path(10);
        let s = GraphStats::compute(&g);
        assert_eq!(s.nodes, 10);
        assert_eq!(s.edges, 9);
        assert_eq!(s.node_label_count, 2);
        assert_eq!(s.edge_label_count, 1);
        assert_eq!(s.components, 1);
        assert_eq!(s.avg_component_diameter, 9.0);
        assert!((s.avg_degree - 1.8).abs() < 1e-9);
        assert_eq!(s.max_degree, 2);
    }

    #[test]
    fn density_matches_definition() {
        let g = path(5);
        let s = GraphStats::compute(&g);
        assert!((s.density - 4.0 / 20.0).abs() < 1e-12);
    }

    #[test]
    fn component_counting() {
        let mut g = path(4);
        // Add a disconnected triangle.
        let a = g.add_node_named("t", AttrMap::new());
        let b = g.add_node_named("t", AttrMap::new());
        let c = g.add_node_named("t", AttrMap::new());
        g.add_edge_named(a, b, "e").unwrap();
        g.add_edge_named(b, c, "e").unwrap();
        g.add_edge_named(c, a, "e").unwrap();
        // And an isolated node.
        g.add_node_named("iso", AttrMap::new());
        let s = GraphStats::compute(&g);
        assert_eq!(s.components, 3);
        // Isolated node contributes diameter 0 and is excluded from the avg.
        assert!((s.avg_component_diameter - (3.0 + 1.0) / 2.0).abs() < 1e-9);
    }

    #[test]
    fn empty_graph_stats() {
        let g = Graph::new();
        let s = GraphStats::compute(&g);
        assert_eq!(s.nodes, 0);
        assert_eq!(s.edges, 0);
        assert_eq!(s.density, 0.0);
        assert_eq!(s.components, 0);
        assert_eq!(s.avg_component_diameter, 0.0);
    }

    #[test]
    fn json_roundtrip() {
        let s = GraphStats::compute(&path(6));
        let json = ngd_json::to_string(&s);
        let back: GraphStats = ngd_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn csr_snapshot_yields_identical_stats() {
        let g = path(10);
        let snap = g.freeze();
        assert_eq!(GraphStats::compute(&snap), GraphStats::compute(&g));
    }
}
