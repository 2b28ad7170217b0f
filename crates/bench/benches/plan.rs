//! Planner benchmark: compiled cost-based match plans versus the
//! pre-planner greedy order (`Matcher::with_legacy_order`).
//!
//! The skewed workload ([`skewed_workload`]) is built so that label
//! cardinalities — all the greedy order can see — point the wrong way: the
//! pattern's cheap entry point is a variable with a *huge* label but a tiny
//! incident triple-index run.  The greedy order seeds at the smallest label
//! (a dense hub core) and enumerates the full hub×hub edge set before
//! discovering that almost no partial solution extends; the planner reads
//! the `(hub, s, T)` run length off [`SelectivityStats`], seeds the pattern
//! at the rare edge and walks two short anchored runs instead.
//!
//! Also reported, with no bar: the paper's knowledge rules, where the two
//! orders mostly coincide — the planner must not regress them.
//!
//! Running this bench rewrites `BENCH_plan.json`; CI's `bench-smoke` job
//! runs it per PR and asserts the acceptance bar: over 20 interleaved
//! pairs, the lower quartile of legacy ÷ planned on the skewed workload is
//! at least **1.5×**.
//!
//! [`SelectivityStats`]: ngd_graph::SelectivityStats

use ngd_bench::datasets::skewed_workload;
use ngd_bench::harness::{black_box, Harness};
use ngd_core::{paper, RuleSet};
use ngd_datagen::{generate_knowledge, KnowledgeConfig};
use ngd_detect::dect_on;
use ngd_graph::GraphView;
use ngd_match::{Matcher, ViolationSet};

/// Batch detection with the pre-planner greedy order — the "unplanned"
/// baseline.
fn legacy_violations<G: GraphView>(sigma: &RuleSet, graph: &G) -> ViolationSet {
    let mut out = ViolationSet::new();
    for rule in sigma.iter() {
        let (vio, _) = Matcher::new(&rule.pattern, graph)
            .with_legacy_order()
            .find_violations_with_stats(rule);
        out.extend(vio);
    }
    out
}

fn main() {
    let (skew, sigma_skew) = skewed_workload();
    assert!(skew.node_count() >= 11_000, "skewed workload is 11k nodes");
    let skew_snap = skew.freeze();

    // Correctness before timing: the planner is an order optimisation, so
    // both paths must agree exactly.
    let expected = legacy_violations(&sigma_skew, &skew_snap);
    assert_eq!(dect_on(&sigma_skew, &skew_snap).violations, expected);

    let mut h = Harness::new();

    println!("# plan: skewed 11k workload, planned vs legacy order");
    let speedup = h.ratio(
        "skewed_planned_speedup",
        ("skewed_11k/legacy_order", || {
            black_box(legacy_violations(&sigma_skew, &skew_snap));
        }),
        ("skewed_11k/planned", || {
            black_box(dect_on(&sigma_skew, &skew_snap).violations);
        }),
    );

    println!("# plan: paper knowledge rules (orders mostly coincide — no regression)");
    let knowledge = generate_knowledge(&KnowledgeConfig::dbpedia_like(8)).graph;
    let knowledge_snap = knowledge.freeze();
    let sigma_paper = RuleSet::from_rules(vec![
        paper::phi1(1),
        paper::phi2(),
        paper::phi3(),
        paper::ngd3(),
    ]);
    assert_eq!(
        dect_on(&sigma_paper, &knowledge_snap).violations,
        legacy_violations(&sigma_paper, &knowledge_snap)
    );
    h.ratio(
        "paper_rules_planned_ratio",
        ("paper_rules_knowledge/legacy_order", || {
            black_box(legacy_violations(&sigma_paper, &knowledge_snap));
        }),
        ("paper_rules_knowledge/planned", || {
            black_box(dect_on(&sigma_paper, &knowledge_snap).violations);
        }),
    );

    h.write_if_met(
        "BENCH_plan.json",
        &[("bench", "plan".to_string())],
        &[speedup.at_least(1.5)],
    );
}
