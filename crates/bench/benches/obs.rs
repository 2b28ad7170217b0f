//! Observability overhead benchmark: batch detection on the skewed 11k
//! workload with the metrics registry enabled versus disabled
//! ([`ngd_obs::set_enabled`]), plus the micro-costs of the individual
//! instruments (lazy counter increment, `span!` guard, registry snapshot
//! and the Prometheus render).
//!
//! The instrumentation discipline is "count in plain fields on the hot
//! path, fold into the registry once per run" — so the enabled/disabled
//! delta on a full detection run must be noise-level.  The two states are
//! timed in 20 interleaved pairs and the overhead is read from the
//! per-pair ratios with their quartiles: a spread that contains zero says
//! "not resolvable on this machine", which a single percentage cannot.
//! Running this bench rewrites `BENCH_obs.json`; CI's `bench-smoke` job
//! runs it per PR and asserts the acceptance bar: the upper quartile of
//! the enabled-vs-disabled overhead under **5%** on the 11k workload.

use ngd_bench::datasets::skewed_workload;
use ngd_bench::harness::{black_box, Harness};
use ngd_detect::dect_on_cached;
use ngd_match::PlanCache;

fn main() {
    let (skew, sigma) = skewed_workload();
    assert!(skew.node_count() >= 11_000, "skewed workload is 11k nodes");
    let snap = skew.freeze();
    let cache = PlanCache::new();

    // Correctness first: the registry gate must not change answers.
    let with_obs = dect_on_cached(&sigma, &snap, &cache).violations;
    ngd_obs::set_enabled(false);
    assert_eq!(dect_on_cached(&sigma, &snap, &cache).violations, with_obs);
    ngd_obs::set_enabled(true);

    let mut h = Harness::new();

    println!("# obs: skewed 11k batch detection, registry enabled vs disabled");
    let detect = |enabled: bool| {
        ngd_obs::set_enabled(enabled);
        black_box(dect_on_cached(&sigma, &snap, &cache).violations);
    };
    // enabled ÷ disabled = 1 + the registry's relative overhead.
    let overhead = h.ratio(
        "enabled_vs_disabled",
        ("skewed_11k/obs_enabled", || detect(true)),
        ("skewed_11k/obs_disabled", || detect(false)),
    );
    ngd_obs::set_enabled(true);
    let pct = |ratio: f64| (ratio - 1.0) * 100.0;
    println!(
        "enabled-vs-disabled overhead (skewed 11k): median {:+.2}%, quartiles {:+.2}%..{:+.2}%",
        pct(overhead.median),
        pct(overhead.lower_quartile),
        pct(overhead.upper_quartile),
    );

    println!("# obs: instrument micro-costs");
    static BENCH_COUNTER: ngd_obs::LazyCounter = ngd_obs::LazyCounter::new("bench.obs.counter");
    h.bench("micro/lazy_counter_inc", || {
        BENCH_COUNTER.inc();
    });
    h.bench("micro/span_guard", || {
        let _span = ngd_obs::span!("bench.obs.span");
        black_box(());
    });
    ngd_obs::set_enabled(false);
    h.bench("micro/span_guard_disabled", || {
        let _span = ngd_obs::span!("bench.obs.span");
        black_box(());
    });
    ngd_obs::set_enabled(true);
    h.bench("micro/snapshot", || {
        black_box(ngd_obs::global().snapshot());
    });
    let snapshot = ngd_obs::global().snapshot();
    h.bench("micro/render_prometheus", || {
        black_box(ngd_obs::render_prometheus(&snapshot));
    });

    h.write_if_met(
        "BENCH_obs.json",
        &[
            ("bench", "obs".to_string()),
            (
                "enabled_vs_disabled_overhead_pct",
                format!("{:.2}", pct(overhead.median)),
            ),
            (
                "enabled_vs_disabled_overhead_quartiles_pct",
                format!(
                    "{:.2}..{:.2}",
                    pct(overhead.lower_quartile),
                    pct(overhead.upper_quartile)
                ),
            ),
        ],
        &[overhead.below(1.05)],
    );
}
