//! Synthetic graph generator.
//!
//! The paper's synthetic datasets are controlled by the number of nodes
//! `|V|` and edges `|E|`, with labels drawn from an alphabet of 500 symbols
//! and attribute values from a set of 2 000 integers (Section 7,
//! "Experimental setting").  [`generate_synthetic`] reproduces exactly that
//! recipe: uniformly labelled nodes carrying a numeric `val` attribute,
//! and edges wired with a preferential-attachment bias so the degree
//! distribution is skewed like real graphs.

use crate::rng::StdRng;
use ngd_graph::{intern, AttrMap, Graph, NodeId, Sym, Value};

/// Configuration of the synthetic generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyntheticConfig {
    /// Number of nodes `|V|`.
    pub nodes: usize,
    /// Number of edges `|E|`.
    pub edges: usize,
    /// Size of the node/edge label alphabet (500 in the paper).
    pub node_labels: usize,
    /// Number of distinct edge labels.
    pub edge_labels: usize,
    /// Attribute values are drawn from `0..value_range` (2 000 in the
    /// paper).
    pub value_range: i64,
    /// Fraction of edge endpoints chosen by preferential attachment rather
    /// than uniformly (0 = Erdős–Rényi-like, 1 = strongly hub-dominated).
    pub hub_bias: f64,
    /// RNG seed — the generator is fully deterministic given the config.
    pub seed: u64,
}

impl SyntheticConfig {
    /// The paper's synthetic recipe scaled to `nodes` nodes and `edges`
    /// edges (500 labels, 2 000 integer values).
    pub fn paper_style(nodes: usize, edges: usize) -> Self {
        SyntheticConfig {
            nodes,
            edges,
            node_labels: 500,
            edge_labels: 50,
            value_range: 2_000,
            hub_bias: 0.3,
            seed: 0xC0FFEE,
        }
    }

    /// Builder-style setter for the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

impl Default for SyntheticConfig {
    fn default() -> Self {
        SyntheticConfig::paper_style(10_000, 20_000)
    }
}

/// Generate a synthetic graph according to `config`.
///
/// Every node is labelled `L<k>` for `k < config.node_labels`, carries a
/// `val` attribute in `0..config.value_range`, and edges are labelled
/// `e<k>`.  Self-loops are allowed (homomorphic matching permits them);
/// exact duplicate edges are skipped, so the edge count can fall slightly
/// short of the requested number on very dense configurations.
pub fn generate_synthetic(config: &SyntheticConfig) -> Graph {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut graph = Graph::with_capacity(config.nodes);
    // The alphabet, interned once per call.
    let alphabet = |prefix: &str, size: usize| -> Vec<Sym> {
        (0..size.max(1))
            .map(|k| intern(&format!("{prefix}{k}")))
            .collect()
    };
    let node_labels = alphabet("L", config.node_labels);
    let edge_labels = alphabet("e", config.edge_labels);
    let val = intern("val");
    for _ in 0..config.nodes {
        let label = node_labels[rng.gen_range(0..node_labels.len())];
        let mut attrs = AttrMap::new();
        attrs.set(val, Value::Int(rng.gen_range(0..config.value_range.max(1))));
        graph.add_node(label, attrs);
    }
    if config.nodes == 0 {
        return graph;
    }
    // Preferential attachment pool: node ids repeated once per incident
    // edge, so hubs keep attracting edges.
    let mut pool: Vec<NodeId> = Vec::with_capacity(config.edges);
    let mut added = 0usize;
    let mut attempts = 0usize;
    let max_attempts = config.edges.saturating_mul(10).max(100);
    while added < config.edges && attempts < max_attempts {
        attempts += 1;
        let src = NodeId(rng.gen_range(0..config.nodes) as u32);
        let dst = if !pool.is_empty() && rng.gen_bool(config.hub_bias.clamp(0.0, 1.0)) {
            pool[rng.gen_range(0..pool.len())]
        } else {
            NodeId(rng.gen_range(0..config.nodes) as u32)
        };
        let label = edge_labels[rng.gen_range(0..edge_labels.len())];
        if graph.add_edge(src, dst, label).is_ok() {
            pool.push(src);
            pool.push(dst);
            added += 1;
        }
    }
    graph
}

#[cfg(test)]
mod tests {
    use super::*;
    use ngd_graph::GraphStats;

    #[test]
    fn respects_node_and_edge_counts() {
        let config = SyntheticConfig::paper_style(2_000, 6_000);
        let g = generate_synthetic(&config);
        assert_eq!(g.node_count(), 2_000);
        // Duplicate skipping can shave a few edges off, never add any.
        assert!(g.edge_count() <= 6_000);
        assert!(
            g.edge_count() > 5_500,
            "edge count {} too low",
            g.edge_count()
        );
    }

    #[test]
    fn deterministic_for_a_fixed_seed() {
        let config = SyntheticConfig::paper_style(500, 1_500).with_seed(7);
        let a = generate_synthetic(&config);
        let b = generate_synthetic(&config);
        assert_eq!(a.node_count(), b.node_count());
        assert_eq!(a.edge_vec(), b.edge_vec());
        // A different seed produces a different wiring.
        let c = generate_synthetic(&config.with_seed(8));
        assert_ne!(a.edge_vec(), c.edge_vec());
    }

    #[test]
    fn labels_and_values_stay_in_range() {
        let config = SyntheticConfig {
            nodes: 300,
            edges: 900,
            node_labels: 10,
            edge_labels: 3,
            value_range: 50,
            hub_bias: 0.5,
            seed: 3,
        };
        let g = generate_synthetic(&config);
        let stats = GraphStats::compute(&g);
        assert!(stats.node_label_count <= 10);
        assert!(stats.edge_label_count <= 3);
        for v in g.node_ids() {
            let val = g.attr(v, intern("val")).and_then(|x| x.as_int()).unwrap();
            assert!((0..50).contains(&val));
        }
    }

    #[test]
    fn hub_bias_skews_the_degree_distribution() {
        let uniform = generate_synthetic(&SyntheticConfig {
            hub_bias: 0.0,
            ..SyntheticConfig::paper_style(2_000, 8_000)
        });
        let hubby = generate_synthetic(&SyntheticConfig {
            hub_bias: 0.9,
            ..SyntheticConfig::paper_style(2_000, 8_000)
        });
        let max_uniform = GraphStats::compute(&uniform).max_degree;
        let max_hubby = GraphStats::compute(&hubby).max_degree;
        assert!(
            max_hubby > max_uniform,
            "preferential attachment should create hubs ({max_hubby} vs {max_uniform})"
        );
    }

    #[test]
    fn degenerate_configurations_do_not_panic() {
        let empty = generate_synthetic(&SyntheticConfig {
            nodes: 0,
            edges: 10,
            ..SyntheticConfig::default()
        });
        assert_eq!(empty.node_count(), 0);
        assert_eq!(empty.edge_count(), 0);
        let single = generate_synthetic(&SyntheticConfig {
            nodes: 1,
            edges: 5,
            node_labels: 1,
            edge_labels: 1,
            value_range: 1,
            hub_bias: 0.0,
            seed: 0,
        });
        assert_eq!(single.node_count(), 1);
        // Only a bounded number of distinct self-loop labels exist.
        assert!(single.edge_count() <= 1);
    }
}
