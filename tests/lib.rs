//! Shared fixtures for the cross-crate integration tests.
//!
//! The integration tests exercise the full pipeline — dataset generation →
//! rule generation → batch detection → updates → incremental detection →
//! parallel detection — so they all need the same kind of "small but
//! non-trivial" workloads.  This library builds them deterministically.

use ngd_core::{paper, RuleSet};
use ngd_datagen::{
    generate_knowledge, generate_rules, generate_social, generate_update, KnowledgeConfig,
    RuleGenConfig, SocialConfig, StdRng, UpdateConfig,
};
use ngd_graph::{intern, AttrMap, BatchUpdate, Dir, EdgeRef, Graph, Value};
use ngd_match::ViolationSet;

/// A small DBpedia-like knowledge graph with seeded errors plus the paper's
/// knowledge rules and a few generated ones.
pub fn knowledge_workload(seed: u64) -> (Graph, RuleSet) {
    let generated = generate_knowledge(&KnowledgeConfig::dbpedia_like(3).with_seed(seed));
    let mut rules = vec![
        paper::phi1(1),
        paper::phi2(),
        paper::phi3(),
        paper::ngd1(),
        paper::ngd2(),
        paper::ngd3(),
    ];
    rules.extend(
        generate_rules(
            &generated.graph,
            &RuleGenConfig::paper_style(4, 3).with_seed(seed),
        )
        .rules()
        .iter()
        .cloned(),
    );
    (generated.graph, RuleSet::from_rules(rules))
}

/// A small social graph with seeded fake accounts plus φ4.
pub fn social_workload(seed: u64) -> (Graph, RuleSet) {
    let generated = generate_social(&SocialConfig::pokec_like(1).with_seed(seed));
    (
        generated.graph,
        RuleSet::from_rules(vec![paper::phi4(1, 1, 10_000)]),
    )
}

/// Example 7 of the paper: G4 plus 98 small helper accounts, φ4, and the
/// deletion of the real account's status edge — one update pivot behind
/// which sit all 99 violations of the graph, every one of them removed.
pub fn example7_workload() -> (Graph, BatchUpdate, RuleSet) {
    let (mut graph, fake) = paper::figure1_g4();
    let company = graph.nodes_with_label(intern("company"))[0];
    let real = graph
        .nodes_with_label(intern("account"))
        .iter()
        .copied()
        .find(|&n| n != fake)
        .expect("figure 1 G4 has a real account besides the fake one");
    for _ in 0..98 {
        let acct = graph.add_node_named("account", AttrMap::new());
        let m = graph.add_node_named("integer", AttrMap::from_pairs([("val", Value::Int(1))]));
        let n = graph.add_node_named("integer", AttrMap::from_pairs([("val", Value::Int(2))]));
        let s = graph.add_node_named("boolean", AttrMap::from_pairs([("val", Value::Bool(true))]));
        graph.add_edge_named(acct, company, "keys").unwrap();
        graph.add_edge_named(acct, m, "following").unwrap();
        graph.add_edge_named(acct, n, "follower").unwrap();
        graph.add_edge_named(acct, s, "status").unwrap();
    }
    let status_node = graph
        .neighbors(real, Dir::Out)
        .iter()
        .find(|&&(_, l)| l == intern("status"))
        .map(|&(n, _)| n)
        .expect("the real account has a status edge");
    let mut delta = BatchUpdate::new();
    delta.delete_edge(real, status_node, intern("status"));
    let sigma = RuleSet::from_rules(vec![paper::phi4(1, 1, 10_000)]);
    (graph, delta, sigma)
}

/// A batch update of the given fraction over `graph`, deterministic in
/// `seed`.
pub fn update_for(graph: &Graph, fraction: f64, seed: u64) -> BatchUpdate {
    generate_update(graph, &UpdateConfig::fraction(fraction).with_seed(seed))
}

/// The benchmark's `small_*` request: `ops / 2` edges moved — `(s, d, l)`
/// deleted, `(s, d', l)` inserted with `d'` another node of `d`'s label.
pub fn paired_moves(graph: &Graph, ops: usize, rng: &mut StdRng) -> BatchUpdate {
    let edges = graph.edge_vec();
    let mut batch = BatchUpdate::new();
    let mut moved: Vec<EdgeRef> = Vec::new();
    while batch.len() < ops {
        let edge = edges[rng.gen_range(0..edges.len())];
        let peers = graph.nodes_with_label(graph.label(edge.dst));
        let target = EdgeRef::new(edge.src, peers[rng.gen_range(0..peers.len())], edge.label);
        if moved.contains(&edge)
            || moved.contains(&target)
            || graph.has_edge(target.src, target.dst, target.label)
        {
            continue;
        }
        batch.delete_edge(edge.src, edge.dst, edge.label);
        batch.insert_edge(target.src, target.dst, target.label);
        moved.extend([edge, target]);
    }
    batch
}

/// The incremental-detection oracle: recompute the violation sets of both
/// graph versions in batch and diff them.
pub fn oracle_delta(
    sigma: &RuleSet,
    old_graph: &Graph,
    new_graph: &Graph,
) -> (ViolationSet, ViolationSet) {
    let old = ngd_detect::dect(sigma, old_graph).violations;
    let new = ngd_detect::dect(sigma, new_graph).violations;
    (new.difference(&old), old.difference(&new))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_are_deterministic() {
        let (g1, s1) = knowledge_workload(1);
        let (g2, s2) = knowledge_workload(1);
        assert_eq!(g1.edge_vec(), g2.edge_vec());
        assert_eq!(s1.len(), s2.len());
        let (g3, _) = knowledge_workload(2);
        assert_ne!(g1.edge_vec(), g3.edge_vec());
    }
}
