//! # ngd-datagen
//!
//! Dataset simulators, update generators and rule generators for the NGD
//! reproduction.
//!
//! The paper evaluates on DBpedia, YAGO2, Pokec and synthetic graphs, with
//! 100 mined NGDs per dataset and randomly generated batch updates
//! (Section 7).  None of the real dumps is available offline, so this crate
//! provides simulators that reproduce the schema fragments the paper's
//! rules touch and the structural statistics the experiments depend on
//! (label diversity, density, skewed degrees), plus controlled error
//! seeding so the effectiveness study has a ground truth:
//!
//! * [`knowledge`] — DBpedia-like and YAGO2-like knowledge graphs
//!   (institutions/dates, villages/populations, places/ranks, persons,
//!   Olympic competitions, Formula-One teams);
//! * [`social`] — Pokec-like profiles plus the Twitter company/account
//!   structure of Figure 1 G4 (fake-account seeding);
//! * [`synthetic`] — the paper's synthetic recipe (|V|, |E|, 500 labels,
//!   2 000 integer values);
//! * [`rules`] — "discovery-lite" rule-set generation with controlled
//!   pattern diameter, literal count and expression length;
//! * [`updates`] — batch updates of a given size `|ΔG|` and insert/delete
//!   ratio γ;
//! * [`dataset`] — the [`GeneratedGraph`] wrapper carrying the seeded-error
//!   ground truth.
//!
//! Everything is deterministic given the configuration (seeds included), so
//! experiments and tests are reproducible.

pub mod dataset;
pub mod knowledge;
pub mod rng;
pub mod rules;
pub mod social;
pub mod synthetic;
pub mod updates;

pub use dataset::GeneratedGraph;
pub use knowledge::{generate_knowledge, KnowledgeConfig};
pub use rng::StdRng;
pub use rules::{generate_rules, RuleGenConfig};
pub use social::{generate_social, SocialConfig};
pub use synthetic::{generate_synthetic, SyntheticConfig};
pub use updates::{generate_update, UpdateConfig};

#[cfg(test)]
mod tests {
    //! The generators' output is pinned: each config below hashes to the
    //! constant its graph had when the constant was taken, so a rewrite of
    //! a generator's internals cannot silently change the graphs every
    //! experiment, test and benchmark is built from.
    use super::*;
    use ngd_graph::{Graph, Value};

    /// FNV-1a over every node's label string and attribute tuple (by name
    /// string, so interning order does not matter), then every edge in
    /// [`Graph::edges`] order.
    fn fnv(graph: &Graph) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        let mut feed = |bytes: &[u8]| {
            for &byte in bytes {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x100_0000_01b3);
            }
        };
        for id in graph.node_ids() {
            let node = graph.node(id);
            feed(node.label.as_str().as_bytes());
            let mut attrs: Vec<_> = node.attrs.iter().map(|(n, v)| (n.as_str(), v)).collect();
            attrs.sort_unstable_by_key(|&(name, _)| name);
            feed(&(attrs.len() as u32).to_le_bytes());
            for (name, value) in attrs {
                feed(&[0]);
                feed(name.as_bytes());
                match value {
                    Value::Int(i) => feed(&[&[0u8][..], &i.to_le_bytes()].concat()),
                    Value::Str(s) => feed(&[&[1u8][..], s.as_bytes(), &[0]].concat()),
                    Value::Bool(b) => feed(&[2, u8::from(*b)]),
                }
            }
        }
        for edge in graph.edges() {
            feed(&edge.src.0.to_le_bytes());
            feed(&edge.dst.0.to_le_bytes());
            feed(edge.label.as_str().as_bytes());
            feed(&[0]);
        }
        hash
    }

    #[test]
    fn generated_graphs_are_pinned() {
        let knowledge = generate_knowledge(&KnowledgeConfig::dbpedia_like(50).with_seed(1));
        let social = generate_social(&SocialConfig::pokec_like(4).with_seed(1));
        let synthetic =
            generate_synthetic(&SyntheticConfig::paper_style(2_000, 6_000).with_seed(1));
        assert_eq!(fnv(&knowledge.graph), 0x3c48_d54d_7228_862f);
        assert_eq!(fnv(&social.graph), 0xbeb5_e27f_e025_91e0);
        assert_eq!(fnv(&synthetic), 0x8134_3e6b_6e51_ea1e);
    }
}
