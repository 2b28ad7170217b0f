//! The planned search's fast paths, read from outside.
//!
//! One `PDect` run of the benchmark's rule file over a frozen 11k-node
//! knowledge graph, then the served path's shape — 16-op batches through
//! `PIncDect` at p = 1 with a warm plan cache — each observed only through
//! the metrics registry, the way `ngd-cli top` sees a daemon.  If the
//! literal schedule silently disengages (every literal re-checked on every
//! search-tree node) the evaluations climb to about two per expansion; if
//! anchored steps stop iterating the snapshot's own adjacency runs the
//! borrowed share drops to 0.
//!
//! This file holds a single test because the registry is process-wide: a
//! second detector run in the same process would land in the same counters.

use ngd_datagen::{generate_knowledge, KnowledgeConfig, StdRng};
use ngd_detect::{pdect_on, pinc_dect_prepared_cached, DetectorConfig};
use ngd_graph::{BatchUpdate, DeltaOverlay};
use ngd_integration_tests::paired_moves;
use ngd_match::PlanCache;

const NAMES: [&str; 7] = [
    "matcher.search.expanded",
    "matcher.literal.evals",
    "matcher.literal.pruned",
    "matcher.candidates.borrowed",
    "matcher.candidates.materialised",
    "detect.delta.inline_runs",
    "detect.delta.threads_spawned",
];

/// How much each of [`NAMES`] grew while `run` ran.
fn counted(run: impl FnOnce()) -> [u64; 7] {
    let counter = |name: &str| ngd_obs::global().snapshot().counter(name).unwrap_or(0);
    let before = NAMES.map(counter);
    run();
    let after = NAMES.map(counter);
    std::array::from_fn(|i| after[i] - before[i])
}

#[test]
fn the_literal_schedule_and_the_borrowed_runs_are_engaged_on_the_benchmark_rules() {
    let sigma = ngd_lang::load_rules(include_str!("../benchmark/sigma.ngdl"))
        .expect("benchmark/sigma.ngdl parses");
    let graph = generate_knowledge(&KnowledgeConfig::dbpedia_like(50)).graph;
    let snapshot = graph.freeze();

    let mut report = None;
    let [expanded, evals, pruned, borrowed, materialised, ..] = counted(|| {
        report = Some(pdect_on(
            &sigma,
            &snapshot,
            &DetectorConfig::with_processors(2),
        ));
    });
    let report = report.expect("the audit ran");
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

    // The served path: the nodes a batch touches have no contiguous runs in
    // the overlay, so fewer steps can borrow than in the audit.
    let mut rng = StdRng::seed_from_u64(0xFA57);
    let batches: Vec<BatchUpdate> = (0..64)
        .map(|_| paired_moves(&graph, 16, &mut rng))
        .collect();
    let cache = PlanCache::new();
    let old_view = snapshot.as_overlay();
    let serve = |config: &DetectorConfig| {
        batches
            .iter()
            .map(|batch| {
                let new_view = DeltaOverlay::new(&snapshot, batch);
                let report =
                    pinc_dect_prepared_cached(&sigma, &old_view, &new_view, batch, config, &cache);
                report.stats.expanded as u64
            })
            .sum::<u64>()
    };
    let one = DetectorConfig::with_processors(1);
    serve(&one);
    let mut served_expanded = 0;
    let [expanded, evals, _, borrowed, materialised, inline, spawned] = counted(|| {
        served_expanded = serve(&one);
    });
    assert_eq!(expanded, served_expanded);
    assert!(expanded > 0, "the batches must trigger pivots");
    assert!(
        evals < expanded,
        "{evals} literal evaluations over {expanded} expansions"
    );
    let share = borrowed as f64 / (borrowed + materialised) as f64;
    assert!(
        share > 0.4,
        "{borrowed} borrowed vs {materialised} copied candidate lists = {share:.2}"
    );
    assert_eq!((inline, spawned), (64, 0), "p = 1 runs on the caller");

    // p = 3 spawns exactly two workers per run that fires a pivot.
    let [.., inline, spawned] = counted(|| {
        serve(&DetectorConfig::with_processors(3));
    });
    assert_eq!((inline, spawned), (0, 2 * 64));
}
