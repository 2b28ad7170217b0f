//! Named datasets used by the experiment harness.
//!
//! The paper evaluates on DBpedia (28 M nodes / 33.4 M edges), YAGO2
//! (3.5 M / 7.35 M), Pokec (1.63 M / 30.6 M) and synthetic graphs up to
//! 80 M / 100 M.  The harness uses the simulators of `ngd-datagen` at a
//! scale that finishes on one machine (a few thousand to a few tens of
//! thousands of nodes, ~1000× smaller), preserving the *relative*
//! characteristics the experiments depend on: YAGO2-like is the smallest,
//! DBpedia-like the largest knowledge graph, Pokec-like is denser than
//! both, and the synthetic family is tunable.
//!
//! Each dataset comes with a matched rule set: the paper's hand-written
//! rules (φ1–φ4, NGD1–NGD3) where the schema supports them plus generated
//! rules up to the requested `‖Σ‖`, mirroring the paper's "100 mined NGDs
//! per graph".

use ngd_core::{paper, Expr, Literal, Ngd, Pattern, RuleSet};
use ngd_datagen::{
    generate_knowledge, generate_rules, generate_social, generate_synthetic, GeneratedGraph,
    KnowledgeConfig, RuleGenConfig, SocialConfig, StdRng, SyntheticConfig,
};
use ngd_graph::{AttrMap, Graph, Value};

/// How large the harness runs are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Small graphs / few sweep points — finishes in seconds per figure.
    Quick,
    /// Larger graphs and the paper's full sweep ranges — minutes per figure.
    Full,
}

impl Scale {
    /// Multiplier applied to dataset sizes.
    pub fn factor(self) -> usize {
        match self {
            Scale::Quick => 1,
            Scale::Full => 4,
        }
    }
}

/// The datasets of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetKind {
    /// DBpedia-like knowledge graph (largest, all entity families).
    Dbpedia,
    /// YAGO2-like knowledge graph (institutions + villages).
    Yago2,
    /// Pokec-like social graph (denser, profile-dominated).
    Pokec,
    /// Paper-style synthetic graph.
    Synthetic,
}

impl DatasetKind {
    /// Display name matching the paper's figure captions.
    pub fn label(self) -> &'static str {
        match self {
            DatasetKind::Dbpedia => "DBpedia",
            DatasetKind::Yago2 => "YAGO2",
            DatasetKind::Pokec => "Pokec",
            DatasetKind::Synthetic => "Synthetic",
        }
    }
}

/// A materialised dataset: the graph, its seeded-error ground truth and the
/// rule set used against it.
pub struct Dataset {
    /// Which family this dataset belongs to.
    pub kind: DatasetKind,
    /// The generated graph and its ground truth.
    pub generated: GeneratedGraph,
    /// The rule set `Σ` used in the experiments.
    pub sigma: RuleSet,
}

impl Dataset {
    /// The data graph.
    pub fn graph(&self) -> &Graph {
        &self.generated.graph
    }
}

/// Build the rule set for a graph: the paper's rules that apply to the
/// schema plus generated rules up to `size` in total, with pattern
/// diameters bounded by `max_diameter`.
pub fn rule_set_for(graph: &Graph, base: RuleSet, size: usize, max_diameter: usize) -> RuleSet {
    let mut rules: Vec<_> = base.rules().to_vec();
    rules.truncate(size);
    if rules.len() < size {
        let generated = generate_rules(
            graph,
            &RuleGenConfig {
                count: size - rules.len(),
                // Keep generated patterns modest: the simulated graphs run on
                // one machine, and homomorphic match counts grow quickly with
                // pattern size on the dense (social) datasets.
                max_nodes: (max_diameter + 1).min(6),
                wildcard_prob: 0.1,
                ..RuleGenConfig::paper_style(size - rules.len(), max_diameter)
            },
        );
        rules.extend(generated.rules().iter().cloned());
    }
    RuleSet::from_rules(rules)
}

/// The paper's hand-written rules that are applicable to the knowledge
/// graphs (φ1–φ3 and NGD1–NGD3; φ4 targets the social schema).
pub fn knowledge_base_rules() -> RuleSet {
    RuleSet::from_rules(vec![
        paper::phi1(1),
        paper::phi2(),
        paper::phi3(),
        paper::ngd1(),
        paper::ngd2(),
        paper::ngd3(),
    ])
}

/// The paper's rules applicable to the social schema (φ4).
pub fn social_rules() -> RuleSet {
    RuleSet::from_rules(vec![paper::phi4(1, 1, 10_000)])
}

/// Materialise a dataset with a rule set of `sigma_size` rules whose
/// patterns have diameter at most `max_diameter`.
pub fn build_dataset(
    kind: DatasetKind,
    scale: Scale,
    sigma_size: usize,
    max_diameter: usize,
) -> Dataset {
    let f = scale.factor();
    let (generated, base_rules) = match kind {
        DatasetKind::Dbpedia => (
            generate_knowledge(&KnowledgeConfig::dbpedia_like(20 * f)),
            knowledge_base_rules(),
        ),
        DatasetKind::Yago2 => (
            generate_knowledge(&KnowledgeConfig::yago_like(12 * f)),
            knowledge_base_rules(),
        ),
        DatasetKind::Pokec => (
            generate_social(&SocialConfig::pokec_like(4 * f)),
            social_rules(),
        ),
        DatasetKind::Synthetic => (
            GeneratedGraph {
                graph: generate_synthetic(&SyntheticConfig::paper_style(4_000 * f, 8_000 * f)),
                seeded: Default::default(),
            },
            RuleSet::new(),
        ),
    };
    let sigma = rule_set_for(&generated.graph, base_rules, sigma_size, max_diameter);
    Dataset {
        kind,
        generated,
        sigma,
    }
}

/// A synthetic dataset of an explicit size (used by the |G|-scaling
/// experiment, Fig 4(e)).
pub fn synthetic_dataset(nodes: usize, edges: usize, sigma_size: usize) -> Dataset {
    let graph = generate_synthetic(&SyntheticConfig::paper_style(nodes, edges));
    let sigma = rule_set_for(&graph, RuleSet::new(), sigma_size, 4);
    Dataset {
        kind: DatasetKind::Synthetic,
        generated: GeneratedGraph {
            graph,
            seeded: Default::default(),
        },
        sigma,
    }
}

/// The label-skewed 11k workload of the `plan` and `obs` benches: a dense
/// 200-hub core (20k `r`-edges), 10.8k satellite `T`-nodes, and only 10
/// `s`-edges from the core into the satellites, with the one rule
/// `(a:H) -[r]-> (b:H) -[s]-> (c:T)` whose `val` consequence turns matches
/// into violations.  Label counts say "start at the hubs"; the triple
/// index says "start at the 10 `s`-edges".
pub fn skewed_workload() -> (Graph, RuleSet) {
    let mut rng = StdRng::seed_from_u64(0x9_1A_11);
    let mut g = Graph::new();
    let hubs: Vec<_> = (0..200)
        .map(|i| {
            let mut attrs = AttrMap::new();
            attrs.set_named("val", Value::Int(i as i64 % 37));
            g.add_node_named("H", attrs)
        })
        .collect();
    let sats: Vec<_> = (0..10_800)
        .map(|i| {
            let mut attrs = AttrMap::new();
            attrs.set_named("val", Value::Int(i as i64 % 53));
            g.add_node_named("T", attrs)
        })
        .collect();
    // Dense hub core: ~100 distinct r-targets per hub.
    for &h in &hubs {
        for _ in 0..100 {
            let other = hubs[rng.gen_range(0..hubs.len())];
            let _ = g.add_edge_named(h, other, "r");
        }
    }
    // The rare seam: ten s-edges out of the core.
    for i in 0..10 {
        let _ = g.add_edge_named(hubs[i * 17 % hubs.len()], sats[i * 997 % sats.len()], "s");
    }
    // Satellite noise so T's label partition is paid for when scanned.
    for _ in 0..8_000 {
        let a = sats[rng.gen_range(0..sats.len())];
        let b = sats[rng.gen_range(0..sats.len())];
        let _ = g.add_edge_named(a, b, "t");
    }

    let mut q = Pattern::new();
    let a = q.add_node("a", "H");
    let b = q.add_node("b", "H");
    let c = q.add_node("c", "T");
    q.add_edge(a, b, "r");
    q.add_edge(b, c, "s");
    let rule = Ngd::new(
        "skew",
        q,
        vec![],
        vec![Literal::le(Expr::attr(a, "val"), Expr::attr(c, "val"))],
    )
    .expect("the skewed rule is well-formed");
    (g, RuleSet::from_rules(vec![rule]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn datasets_materialise_with_requested_rule_counts() {
        for kind in [
            DatasetKind::Dbpedia,
            DatasetKind::Yago2,
            DatasetKind::Pokec,
            DatasetKind::Synthetic,
        ] {
            let ds = build_dataset(kind, Scale::Quick, 8, 4);
            assert_eq!(ds.sigma.len(), 8, "{} rule count", kind.label());
            assert!(ds.graph().node_count() > 500, "{} too small", kind.label());
            assert!(ds.sigma.diameter() <= 6);
        }
    }

    #[test]
    fn relative_dataset_characteristics_match_the_paper() {
        let dbpedia = build_dataset(DatasetKind::Dbpedia, Scale::Quick, 5, 4);
        let yago = build_dataset(DatasetKind::Yago2, Scale::Quick, 5, 4);
        let pokec = build_dataset(DatasetKind::Pokec, Scale::Quick, 5, 4);
        // DBpedia-like is the largest knowledge graph, YAGO2-like smaller.
        assert!(dbpedia.graph().node_count() > yago.graph().node_count());
        // Pokec is the densest of the three (the paper reports 1.1e-5 vs
        // ~6e-7 for the knowledge graphs).
        let density = |g: &Graph| {
            g.edge_count() as f64 / (g.node_count() as f64 * (g.node_count() as f64 - 1.0))
        };
        assert!(density(pokec.graph()) > density(dbpedia.graph()));
        assert!(density(pokec.graph()) > density(yago.graph()));
    }

    #[test]
    fn rule_set_for_pads_with_generated_rules() {
        let ds = build_dataset(DatasetKind::Dbpedia, Scale::Quick, 3, 4);
        // Three rules requested, six paper rules available: truncation.
        assert_eq!(ds.sigma.len(), 3);
        let bigger = rule_set_for(ds.graph(), knowledge_base_rules(), 12, 4);
        assert_eq!(bigger.len(), 12);
        // The first six are the paper rules, the rest generated.
        assert!(bigger.by_id("phi1").is_some());
        assert!(bigger.rules().iter().any(|r| r.id.starts_with("gen")));
    }
}
