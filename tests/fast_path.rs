//! The planned search's fast paths, read from outside.
//!
//! One `PDect` run of the benchmark's rule file over a frozen 11k-node
//! knowledge graph, observed only through the metrics registry — the way
//! `ngd-cli top` sees a daemon.  If the literal schedule silently
//! disengages (every literal re-checked on every search-tree node) the
//! first ratio climbs to about 2; if anchored steps stop iterating the
//! snapshot's own adjacency runs the second drops to 0.
//!
//! This file holds a single test because the registry is process-wide: a
//! second detector run in the same process would land in the same counters.

use ngd_datagen::{generate_knowledge, KnowledgeConfig};
use ngd_detect::{pdect_on, DetectorConfig};

#[test]
fn the_literal_schedule_and_the_borrowed_runs_are_engaged_on_the_benchmark_rules() {
    let sigma = ngd_lang::load_rules(include_str!("../benchmark/sigma.ngdl"))
        .expect("benchmark/sigma.ngdl parses");
    let snapshot = generate_knowledge(&KnowledgeConfig::dbpedia_like(50))
        .graph
        .freeze();

    let counter = |name: &str| ngd_obs::global().snapshot().counter(name).unwrap_or(0);
    let names = [
        "matcher.search.expanded",
        "matcher.literal.evals",
        "matcher.literal.pruned",
        "matcher.candidates.borrowed",
        "matcher.candidates.materialised",
    ];
    let before = names.map(counter);
    let report = pdect_on(&sigma, &snapshot, &DetectorConfig::with_processors(2));
    let after = names.map(counter);
    let [expanded, evals, pruned, borrowed, materialised] =
        std::array::from_fn(|i| after[i] - before[i]);

    assert_eq!(expanded, report.stats.expanded as u64);
    assert!(
        expanded > 10_000,
        "a real search ran: {expanded} expansions"
    );
    assert!(pruned > 0 && pruned <= evals, "{pruned} pruned of {evals}");
    let per_node = evals as f64 / expanded as f64;
    assert!(
        per_node < 1.0,
        "{evals} literal evaluations over {expanded} expansions = {per_node:.2} per node"
    );
    let share = borrowed as f64 / (borrowed + materialised) as f64;
    assert!(
        share > 0.7,
        "{borrowed} borrowed vs {materialised} copied candidate lists = {share:.2}"
    );
}
