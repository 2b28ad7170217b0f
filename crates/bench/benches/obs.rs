//! Observability overhead benchmark: batch detection on the skewed 11k
//! workload with the metrics registry enabled versus disabled
//! ([`ngd_obs::set_enabled`]), plus the micro-costs of the individual
//! instruments (lazy counter increment, `span!` guard, registry snapshot
//! and the Prometheus render).
//!
//! The instrumentation discipline is "count in plain fields on the hot
//! path, fold into the registry once per run" — so the enabled/disabled
//! delta on a full detection run must be noise-level.  The two states are
//! timed in adjacent pairs, alternating which goes first, and the overhead
//! is the median of the per-pair ratios with the quartiles written next to
//! it: a spread that contains zero says "not resolvable on this machine",
//! which a single percentage cannot.  Running this bench rewrites
//! `BENCH_obs.json`; CI's `bench-smoke` job runs it per PR and asserts the
//! acceptance bar: median enabled-vs-disabled overhead under **5%** on the
//! 11k workload.

use ngd_bench::harness::{black_box, Harness, Measurement};
use ngd_core::{Expr, Literal, Ngd, Pattern, RuleSet};
use ngd_datagen::StdRng;
use ngd_detect::dect_on_cached;
use ngd_graph::{AttrMap, Graph, Value};
use ngd_match::PlanCache;
use std::time::Instant;

/// The same skewed 11k-node graph as `benches/plan.rs`: a dense 200-hub
/// core, 10.8k satellites, ten rare `s`-edges out of the core.
fn skewed_graph() -> Graph {
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
    for &h in &hubs {
        for _ in 0..100 {
            let other = hubs[rng.gen_range(0..hubs.len())];
            let _ = g.add_edge_named(h, other, "r");
        }
    }
    for i in 0..10 {
        let _ = g.add_edge_named(hubs[i * 17 % hubs.len()], sats[i * 997 % sats.len()], "s");
    }
    for _ in 0..8_000 {
        let a = sats[rng.gen_range(0..sats.len())];
        let b = sats[rng.gen_range(0..sats.len())];
        let _ = g.add_edge_named(a, b, "t");
    }
    g
}

/// `(a:H) -[r]-> (b:H) -[s]-> (c:T)` with a `val` consequence.
fn skewed_rule() -> Ngd {
    let mut q = Pattern::new();
    let a = q.add_node("a", "H");
    let b = q.add_node("b", "H");
    let c = q.add_node("c", "T");
    q.add_edge(a, b, "r");
    q.add_edge(b, c, "s");
    Ngd::new(
        "skew",
        q,
        vec![],
        vec![Literal::le(Expr::attr(a, "val"), Expr::attr(c, "val"))],
    )
    .unwrap()
}

/// Adjacent (disabled, enabled) timings taken for the overhead figure.
const PAIRS: usize = 20;
/// Detection runs per timing (≈ 0.13 ms each).
const PAIR_ITERS: u64 = 200;

/// Lower quartile, median and upper quartile.
fn quartiles(xs: &mut [f64]) -> [f64; 3] {
    xs.sort_by(f64::total_cmp);
    [xs.len() / 4, xs.len() / 2, xs.len() * 3 / 4].map(|i| xs[i])
}

fn main() {
    let skew = skewed_graph();
    assert!(skew.node_count() >= 11_000, "skewed workload is 11k nodes");
    let snap = skew.freeze();
    let sigma = RuleSet::from_rules(vec![skewed_rule()]);
    let cache = PlanCache::new();

    // Correctness first: the registry gate must not change answers.
    let with_obs = dect_on_cached(&sigma, &snap, &cache).violations;
    ngd_obs::set_enabled(false);
    assert_eq!(dect_on_cached(&sigma, &snap, &cache).violations, with_obs);
    ngd_obs::set_enabled(true);

    let mut h = Harness::new();

    println!("# obs: skewed 11k batch detection, registry enabled vs disabled");
    let timed = |enabled: bool| {
        ngd_obs::set_enabled(enabled);
        let start = Instant::now();
        for _ in 0..PAIR_ITERS {
            black_box(dect_on_cached(&sigma, &snap, &cache).violations);
        }
        start.elapsed().as_nanos() as f64 / PAIR_ITERS as f64
    };
    timed(true); // warm-up: plan cache, page faults
    let (mut off_ns, mut on_ns, mut overheads_pct) = (Vec::new(), Vec::new(), Vec::new());
    for pair in 0..PAIRS {
        let (off, on) = if pair % 2 == 0 {
            let off = timed(false);
            (off, timed(true))
        } else {
            let on = timed(true);
            (timed(false), on)
        };
        off_ns.push(off);
        on_ns.push(on);
        overheads_pct.push((on / off - 1.0) * 100.0);
    }
    ngd_obs::set_enabled(true);
    let [q1, overhead_pct, q3] = quartiles(&mut overheads_pct);
    for (name, ns) in [
        ("skewed_11k/obs_disabled", &mut off_ns),
        ("skewed_11k/obs_enabled", &mut on_ns),
    ] {
        h.record(Measurement {
            name: name.to_string(),
            iters: PAIR_ITERS,
            ns_per_iter: quartiles(ns)[1],
            samples: PAIRS,
        });
    }
    println!(
        "enabled-vs-disabled overhead (skewed 11k): median {overhead_pct:+.2}%, \
         quartiles {q1:+.2}%..{q3:+.2}% over {PAIRS} interleaved pairs"
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

    // Record the baseline only when the acceptance bar is met, so a noisy
    // machine cannot clobber a good committed baseline on its way to
    // failing.
    if overhead_pct < 5.0 {
        let json = h.to_json(&[
            ("bench".to_string(), "obs".to_string()),
            (
                "enabled_vs_disabled_overhead_pct".to_string(),
                format!("{overhead_pct:.2}"),
            ),
            (
                "enabled_vs_disabled_overhead_quartiles_pct".to_string(),
                format!("{q1:.2}..{q3:.2}"),
            ),
        ]);
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_obs.json");
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("could not write {path}: {e}");
        } else {
            println!("wrote {path}");
        }
    } else {
        eprintln!(
            "NOT updating BENCH_obs.json: measured overhead {overhead_pct:.2}% is over the 5% bar"
        );
    }
    assert!(
        overhead_pct < 5.0,
        "metrics registry overhead must stay under 5% on the skewed 11k \
         workload (measured {overhead_pct:.2}%)"
    );
}
