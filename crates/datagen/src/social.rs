//! Social-network simulator (Pokec-like profiles + the Twitter
//! company/account structure of Figure 1 G4).
//!
//! The generator produces two intertwined families:
//!
//! * **companies and accounts** — every company has one verified account
//!   with many followers and a handful of smaller accounts; a configurable
//!   fraction of the small accounts is *fake*: flagged as real
//!   (`status = 1`) despite a huge follower/following deficit against the
//!   verified account.  These are exactly the violations of φ4.
//! * **profiles** — plain user profiles connected by `follows` edges with a
//!   skewed degree distribution, providing the bulk of nodes/edges and the
//!   density the paper reports for Pokec (10–20× denser than the knowledge
//!   graphs).  Profiles carry an `age` attribute and a `registered` year so
//!   that generated rules (see [`crate::rules`]) have numeric material to
//!   work with.

use crate::dataset::GeneratedGraph;
use crate::rng::StdRng;
use ngd_graph::{intern, AttrMap, NodeId, Sym, Value};

/// Configuration of the social-network simulator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SocialConfig {
    /// Number of companies.
    pub companies: usize,
    /// Accounts per company (including the verified one).
    pub accounts_per_company: usize,
    /// Fraction of non-verified accounts that are fake (seeded φ4 errors).
    pub fake_rate: f64,
    /// Number of plain user profiles.
    pub profiles: usize,
    /// Average number of `follows` edges per profile.
    pub avg_follows: usize,
    /// RNG seed.
    pub seed: u64,
}

impl SocialConfig {
    /// A Pokec-like mix scaled by `scale`: mostly profiles and `follows`
    /// edges, with a corporate account layer on top.
    pub fn pokec_like(scale: usize) -> Self {
        let s = scale.max(1);
        SocialConfig {
            companies: 3 * s,
            accounts_per_company: 6,
            fake_rate: 0.1,
            profiles: 150 * s,
            avg_follows: 10,
            seed: 0x50CEC,
        }
    }

    /// Builder-style setter for the fake-account rate.
    pub fn with_fake_rate(mut self, rate: f64) -> Self {
        self.fake_rate = rate;
        self
    }

    /// Builder-style setter for the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

impl Default for SocialConfig {
    fn default() -> Self {
        SocialConfig::pokec_like(4)
    }
}

/// The simulator's alphabet, interned once per [`generate_social`] call.
struct Alphabet {
    company: Sym,
    account: Sym,
    integer: Sym,
    val: Sym,
    boolean: Sym,
    keys: Sym,
    following: Sym,
    follower: Sym,
    status: Sym,
    profile: Sym,
    age: Sym,
    registered: Sym,
    follows: Sym,
}

impl Alphabet {
    fn new() -> Alphabet {
        Alphabet {
            company: intern("company"),
            account: intern("account"),
            integer: intern("integer"),
            val: intern("val"),
            boolean: intern("boolean"),
            keys: intern("keys"),
            following: intern("following"),
            follower: intern("follower"),
            status: intern("status"),
            profile: intern("profile"),
            age: intern("age"),
            registered: intern("registered"),
            follows: intern("follows"),
        }
    }

    /// A node labelled `label` carrying one `val` attribute.
    fn value_node(&self, out: &mut GeneratedGraph, label: Sym, value: Value) -> NodeId {
        let mut attrs = AttrMap::new();
        attrs.set(self.val, value);
        out.graph.add_node(label, attrs)
    }
}

/// Attach an account to a company with the given follower/following counts
/// and status flag, returning the account node.
fn add_account(
    out: &mut GeneratedGraph,
    a: &Alphabet,
    company: NodeId,
    following: i64,
    follower: i64,
    real: bool,
) -> NodeId {
    let account = out.graph.add_node(a.account, AttrMap::new());
    let m = a.value_node(out, a.integer, Value::Int(following));
    let n = a.value_node(out, a.integer, Value::Int(follower));
    let status = a.value_node(out, a.boolean, Value::Bool(real));
    for (dst, label) in [
        (company, a.keys),
        (m, a.following),
        (n, a.follower),
        (status, a.status),
    ] {
        out.graph
            .add_edge(account, dst, label)
            .expect("a new account's edges are distinct");
    }
    account
}

/// Generate a social graph according to `config`.
///
/// Seeded φ4 errors are recorded under rule id `"phi4"`; the recorded node
/// is the *fake* account (the `y` of the violating match).
pub fn generate_social(config: &SocialConfig) -> GeneratedGraph {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut out = GeneratedGraph::default();
    let a = Alphabet::new();

    // Corporate layer: companies with one verified account plus satellites.
    for _ in 0..config.companies {
        let company = out.graph.add_node(a.company, AttrMap::new());
        let verified_following = rng.gen_range(5_000..50_000);
        let verified_follower = rng.gen_range(50_000..500_000);
        add_account(
            &mut out,
            &a,
            company,
            verified_following,
            verified_follower,
            true,
        );
        for _ in 1..config.accounts_per_company.max(1) {
            let fake = rng.gen_bool(config.fake_rate.clamp(0.0, 1.0));
            if fake {
                // Tiny account that still claims to be real: the φ4 error.
                let account = add_account(
                    &mut out,
                    &a,
                    company,
                    rng.gen_range(0..10),
                    rng.gen_range(0..10),
                    true,
                );
                out.record_seed("phi4", account);
            } else if rng.gen_bool(0.5) {
                // Small but honestly flagged as not-verified.
                add_account(
                    &mut out,
                    &a,
                    company,
                    rng.gen_range(0..100),
                    rng.gen_range(0..100),
                    false,
                );
            } else {
                // A sizeable regional account, close enough to the verified
                // one that the follower gap stays under any sane threshold.
                add_account(
                    &mut out,
                    &a,
                    company,
                    verified_following - rng.gen_range(0..1_000),
                    verified_follower - rng.gen_range(0..1_000),
                    true,
                );
            }
        }
    }

    // Profile layer: `follows` edges with preferential attachment.
    let first_profile = out.graph.node_count();
    for _ in 0..config.profiles {
        let age = rng.gen_range(14..80);
        let registered = rng.gen_range(2005..2018);
        let mut attrs = AttrMap::new();
        attrs.set(a.age, Value::Int(age));
        attrs.set(a.registered, Value::Int(registered));
        out.graph.add_node(a.profile, attrs);
    }
    if config.profiles > 1 {
        let mut pool: Vec<usize> = Vec::new();
        let target_edges = config.profiles * config.avg_follows;
        let mut added = 0usize;
        let mut attempts = 0usize;
        while added < target_edges && attempts < target_edges * 10 {
            attempts += 1;
            let src = first_profile + rng.gen_range(0..config.profiles);
            let dst = if !pool.is_empty() && rng.gen_bool(0.4) {
                pool[rng.gen_range(0..pool.len())]
            } else {
                first_profile + rng.gen_range(0..config.profiles)
            };
            if src == dst {
                continue;
            }
            let (src, dst) = (NodeId(src as u32), NodeId(dst as u32));
            if out.graph.add_edge(src, dst, a.follows).is_ok() {
                pool.push(dst.index());
                added += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ngd_graph::{intern, Dir};

    #[test]
    fn fake_accounts_are_seeded_and_recorded() {
        let generated = generate_social(&SocialConfig::pokec_like(2).with_fake_rate(0.5));
        assert!(!generated.seeded_for("phi4").is_empty());
        // Every seeded node really is an account with status = true.
        for &account in generated.seeded_for("phi4") {
            assert_eq!(generated.graph.label(account), intern("account"));
        }
    }

    #[test]
    fn zero_fake_rate_seeds_nothing() {
        let generated = generate_social(&SocialConfig::pokec_like(2).with_fake_rate(0.0));
        assert_eq!(generated.seeded_count(), 0);
    }

    #[test]
    fn generation_is_deterministic() {
        let config = SocialConfig::pokec_like(1).with_seed(99);
        let a = generate_social(&config);
        let b = generate_social(&config);
        assert_eq!(a.graph.edge_vec(), b.graph.edge_vec());
        assert_eq!(a.seeded, b.seeded);
    }

    #[test]
    fn profile_layer_dominates_and_is_denser_than_knowledge_graphs() {
        let generated = generate_social(&SocialConfig::pokec_like(4));
        let stats = generated.stats();
        let profiles = generated.graph.nodes_with_label(intern("profile")).len();
        assert!(
            profiles * 2 > stats.nodes,
            "profiles must dominate the node count"
        );
        // Pokec is an order of magnitude denser than DBpedia/YAGO2; the
        // simulation preserves that relationship (checked end-to-end in the
        // integration tests), here we just require a healthy average degree.
        assert!(stats.avg_degree > 3.0);
    }

    #[test]
    fn every_company_has_a_verified_anchor_account() {
        let generated = generate_social(&SocialConfig::pokec_like(1));
        let companies = generated.graph.nodes_with_label(intern("company"));
        for &company in companies {
            let accounts = generated
                .graph
                .neighbors(company, Dir::In)
                .iter()
                .filter(|&&(_, l)| l == intern("keys"))
                .count();
            assert!(accounts >= 1);
        }
    }
}
