//! Fake-account detection on a simulated social network (Example 1 (4) /
//! Example 6 of the paper).
//!
//! The rule φ4 flags an account `y` as fake when a verified account `x` of
//! the same company has a follower/following gap above a threshold while
//! `y` still claims to be real.  The example
//!
//! 1. generates a Pokec/Twitter-like graph with seeded fake accounts,
//! 2. detects them in batch with `Dect`,
//! 3. registers a brand-new suspicious account as a batch update and shows
//!    that `IncDect` finds the new violations from the five inserted edges
//!    alone — without rescanning the graph.
//!
//! Run with `cargo run -p ngd-examples --example fake_account_detection`.

use ngd_core::{paper, RuleSet};
use ngd_datagen::{generate_social, SocialConfig};
use ngd_detect::{dect, delta_neighborhood, inc_dect};
use ngd_examples::{describe_node, section};
use ngd_graph::{intern, AttrMap, BatchUpdate, DeltaOverlay, Value};
use std::collections::BTreeSet;

fn main() {
    // (1) A social graph: companies, verified accounts, satellites — 10 %
    // of the satellites are fake.
    let config = SocialConfig::pokec_like(2)
        .with_fake_rate(0.1)
        .with_seed(42);
    let generated = generate_social(&config);
    let graph = &generated.graph;
    let stats = generated.stats();
    println!(
        "social graph: {} nodes, {} edges, {} seeded fake accounts",
        stats.nodes,
        stats.edges,
        generated.seeded_for("phi4").len()
    );

    // (2) Batch detection with φ4 (weights a = b = 1, threshold 10 000).
    let sigma = RuleSet::from_rules(vec![paper::phi4(1, 1, 10_000)]);
    let report = dect(&sigma, graph);
    let flagged: BTreeSet<_> = report
        .violations
        .iter()
        .map(|v| v.nodes[1]) // the `y` variable of φ4 is the fake account
        .collect();
    section("accounts flagged as fake");
    for &account in &flagged {
        println!("  {}", describe_node(graph, account));
    }
    // Every seeded fake account is flagged.
    for &seeded in generated.seeded_for("phi4") {
        assert!(flagged.contains(&seeded), "seeded fake account missed");
    }
    println!(
        "({} violations, {} distinct accounts, detection took {:?})",
        report.violation_count(),
        flagged.len(),
        report.elapsed
    );

    // (3) A new account registers for the first company and immediately
    // looks suspicious: tiny follower counts, status "real".
    section("incremental check of a newly registered account");
    let company = graph.nodes_with_label(intern("company"))[0];
    let mut delta = BatchUpdate::new();
    let base = graph.node_count();
    let account = delta.add_node(base, intern("account"), AttrMap::new());
    let following = delta.add_node(
        base,
        intern("integer"),
        AttrMap::from_pairs([("val", Value::Int(3))]),
    );
    let follower = delta.add_node(
        base,
        intern("integer"),
        AttrMap::from_pairs([("val", Value::Int(1))]),
    );
    let status = delta.add_node(
        base,
        intern("boolean"),
        AttrMap::from_pairs([("val", Value::Bool(true))]),
    );
    delta.insert_edge(account, company, intern("keys"));
    delta.insert_edge(account, following, intern("following"));
    delta.insert_edge(account, follower, intern("follower"));
    delta.insert_edge(account, status, intern("status"));

    let inc = inc_dect(&sigma, graph, &delta);
    println!(
        "inserted {} edges; IncDect found {} new violation(s) in {:?} \
         (inspected {} candidates inside a {}-node neighbourhood)",
        delta.len(),
        inc.delta.added.len(),
        inc.elapsed,
        inc.stats.candidates_inspected,
        delta_neighborhood(&DeltaOverlay::new(graph, &delta), &delta, sigma.diameter()),
    );
    assert!(
        inc.delta.added.iter().all(|v| v.nodes.contains(&account)),
        "every new violation involves the new account"
    );
    assert!(!inc.delta.added.is_empty());
    println!("the new account is flagged as fake before it can do any damage");
}
