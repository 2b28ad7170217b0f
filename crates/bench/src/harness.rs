//! A minimal micro-benchmark harness (offline Criterion replacement).
//!
//! The workspace builds without network access, so Criterion is not
//! available; the benches under `benches/` use this harness instead
//! (`harness = false` in the manifest).  It follows the same discipline:
//! warm-up, iteration-count calibration to a target measurement window,
//! several samples, median-of-samples reporting, and a `black_box` to keep
//! the optimiser honest.
//!
//! A comparison two code paths must win is never two independent medians:
//! [`Harness::ratio`] times the two sides in [`PAIRS`] adjacent pairs,
//! alternating which runs first, so drift on a shared machine hits both
//! sides of a pair alike.  The per-pair ratios are kept with their median
//! and quartiles, and a bar is met when the quartile *nearer the bar*
//! clears it ([`Ratio::at_least`], [`Ratio::below`]).  Results render as an
//! aligned table and as JSON ([`Harness::write_if_met`]).

use std::hint::black_box as std_black_box;
use std::time::{Duration, Instant};

/// Re-exported optimisation barrier for bench bodies.
pub fn black_box<T>(value: T) -> T {
    std_black_box(value)
}

/// Target duration of one measurement sample.
const SAMPLE_TARGET: Duration = Duration::from_millis(120);

/// Samples per [`Harness::bench`] (the median is reported).
const SAMPLES: usize = 5;

/// Minimum iterations per sample for sub-second bodies.  A ~30 ms body
/// under the 120 ms target calibrates to only 3-4 iters, which is
/// noise-gated territory for a CI threshold; the floor keeps such medians
/// stable.  Bodies at 1 s or longer are exempt so whole-run benches don't
/// balloon to minutes.
const MIN_ITERS: u128 = 10;

/// Adjacent pairs timed per [`Harness::ratio`] comparison.
pub const PAIRS: usize = 20;

/// Slices each side of a pair is cut into.  The two sides alternate slice
/// by slice, so drift during the pair (clock frequency, steal time on a
/// shared VM) hits both alike.  On a 2-vCPU shared VM the two bodies of
/// `benches/obs.rs`, about 1 % apart in cost, read ratio quartiles 3–28
/// points apart in pairs of whole 120 ms samples, and 1–2 points apart in
/// sliced pairs.
const SLICES: u64 = 100;

/// One measured benchmark.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Benchmark name (`group/case`).
    pub name: String,
    /// Iterations per sample.
    pub iters: u64,
    /// Median per-iteration time in nanoseconds.
    pub ns_per_iter: f64,
    /// Number of samples taken.
    pub samples: usize,
}

ngd_json::impl_json_struct!(Measurement {
    name,
    iters,
    ns_per_iter,
    samples
});

/// The outcome of one interleaved comparison: every pair's `a ÷ b` time
/// ratio in run order, and the statistics a gate reads from them.
#[derive(Debug, Clone, PartialEq)]
pub struct Ratio {
    /// Comparison name.
    pub name: String,
    /// `a ÷ b` of each pair, in run order.
    pub pairs: Vec<f64>,
    /// Lower quartile of `pairs`.
    pub lower_quartile: f64,
    /// Median of `pairs`.
    pub median: f64,
    /// Upper quartile of `pairs`.
    pub upper_quartile: f64,
    /// Pairs in which `b` ran faster than `a` (ratio above 1; ties count
    /// for neither side).
    pub wins: usize,
}

ngd_json::impl_json_struct!(Ratio {
    name,
    pairs,
    lower_quartile,
    median,
    upper_quartile,
    wins
});

impl Ratio {
    /// Summarise per-pair ratios: the quartiles are the sorted values at
    /// indices `n/4`, `n/2` and `3n/4`.
    fn from_pairs(name: &str, pairs: Vec<f64>) -> Ratio {
        let mut sorted = pairs.clone();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        Ratio {
            name: name.to_string(),
            lower_quartile: sorted[n / 4],
            median: sorted[n / 2],
            upper_quartile: sorted[n * 3 / 4],
            wins: pairs.iter().filter(|&&r| r > 1.0).count(),
            pairs,
        }
    }

    /// A speed-up bar: met when the lower quartile is at least `bar`;
    /// a miss names the bar and the value read against it.
    pub fn at_least(&self, bar: f64) -> Result<(), String> {
        if self.lower_quartile >= bar {
            return Ok(());
        }
        let q1 = self.lower_quartile;
        Err(format!("{}: lower quartile {q1:.3} < {bar}", self.name))
    }

    /// A ceiling: met when the upper quartile is below `bar`.
    pub fn below(&self, bar: f64) -> Result<(), String> {
        if self.upper_quartile < bar {
            return Ok(());
        }
        let q3 = self.upper_quartile;
        Err(format!("{}: upper quartile {q3:.4} >= {bar}", self.name))
    }
}

/// A named collection of measurements, printed as it runs.
#[derive(Default)]
pub struct Harness {
    results: Vec<Measurement>,
    ratios: Vec<Ratio>,
}

/// Wall time of `iters` back-to-back calls of `f`.
fn run(iters: u64, f: &mut impl FnMut()) -> Duration {
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed()
}

fn ns_per_iter(elapsed: Duration, iters: u64) -> f64 {
    elapsed.as_nanos() as f64 / iters as f64
}

/// Calls of an `iters`-call sample that fall into slice `slice` of
/// [`SLICES`] (the slices sum to `iters`).
fn slice_iters(iters: u64, slice: u64) -> u64 {
    iters * (slice + 1) / SLICES - iters * slice / SLICES
}

/// Warm-up + calibration: time single iterations until the clock is
/// trustworthy, then scale to the sample target.
fn calibrate(f: &mut impl FnMut()) -> u64 {
    f();
    let once = {
        let start = Instant::now();
        f();
        start.elapsed().max(Duration::from_nanos(50))
    };
    let floor = if once < Duration::from_secs(1) {
        MIN_ITERS
    } else {
        1
    };
    (SAMPLE_TARGET.as_nanos() / once.as_nanos()).clamp(floor, 1_000_000) as u64
}

fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

impl Harness {
    /// An empty harness.
    pub fn new() -> Self {
        Harness::default()
    }

    fn record(&mut self, name: &str, iters: u64, ns_per_iter: f64, samples: usize) -> Measurement {
        let measurement = Measurement {
            name: name.to_string(),
            iters,
            ns_per_iter,
            samples,
        };
        println!(
            "{:<52} {:>12}  ({iters} iters x {samples} samples)",
            measurement.name,
            format_ns(ns_per_iter),
        );
        self.results.push(measurement.clone());
        measurement
    }

    /// Measure `f`, printing and recording the result.
    pub fn bench<F: FnMut()>(&mut self, name: &str, mut f: F) -> Measurement {
        let iters = calibrate(&mut f);
        let mut samples: Vec<f64> = (0..SAMPLES)
            .map(|_| ns_per_iter(run(iters, &mut f), iters))
            .collect();
        self.record(name, iters, median(&mut samples), SAMPLES)
    }

    /// Time `a` against `b` in [`PAIRS`] adjacent pairs, alternating which
    /// side runs first, each side calibrated as [`Harness::bench`] does and
    /// its sample interleaved with the other's slice by slice.
    /// Records each side's median time and returns the per-pair `a ÷ b`
    /// ratios — the speed-up of `b` over `a`.
    pub fn ratio<A: FnMut(), B: FnMut()>(
        &mut self,
        name: &str,
        (a_name, mut a): (&str, A),
        (b_name, mut b): (&str, B),
    ) -> Ratio {
        let (a_iters, b_iters) = (calibrate(&mut a), calibrate(&mut b));
        let (mut a_ns, mut b_ns) = (Vec::with_capacity(PAIRS), Vec::with_capacity(PAIRS));
        for pair in 0..PAIRS {
            let (mut a_time, mut b_time) = (Duration::ZERO, Duration::ZERO);
            for slice in 0..SLICES {
                let (a_n, b_n) = (slice_iters(a_iters, slice), slice_iters(b_iters, slice));
                if pair % 2 == 0 {
                    a_time += run(a_n, &mut a);
                    b_time += run(b_n, &mut b);
                } else {
                    b_time += run(b_n, &mut b);
                    a_time += run(a_n, &mut a);
                }
            }
            a_ns.push(ns_per_iter(a_time, a_iters));
            b_ns.push(ns_per_iter(b_time, b_iters));
        }
        let ratio = Ratio::from_pairs(name, a_ns.iter().zip(&b_ns).map(|(a, b)| a / b).collect());
        self.record(a_name, a_iters, median(&mut a_ns), PAIRS);
        self.record(b_name, b_iters, median(&mut b_ns), PAIRS);
        println!(
            "{name}: median {:.3}, quartiles {:.3}..{:.3}, {} of {PAIRS} pairs above 1",
            ratio.median, ratio.lower_quartile, ratio.upper_quartile, ratio.wins
        );
        self.ratios.push(ratio.clone());
        ratio
    }

    /// Serialize all measurements and ratios (plus free-form metadata
    /// notes) to pretty JSON.
    fn to_json(&self, notes: &[(&str, String)]) -> String {
        let obj = ngd_json::Json::Obj(vec![
            (
                "notes".to_string(),
                ngd_json::Json::Obj(
                    notes
                        .iter()
                        .map(|(k, v)| (k.to_string(), ngd_json::Json::Str(v.clone())))
                        .collect(),
                ),
            ),
            (
                "ratios".to_string(),
                ngd_json::ToJson::to_json(&self.ratios),
            ),
            (
                "results".to_string(),
                ngd_json::ToJson::to_json(&self.results),
            ),
        ]);
        obj.render_pretty()
    }

    /// Write the JSON to `file` at the repository root only when every
    /// gate is met — a noisy run must not overwrite a good committed
    /// baseline on its way to failing — then assert every gate.
    pub fn write_if_met(&self, file: &str, notes: &[(&str, String)], gates: &[Result<(), String>]) {
        let missed: Vec<&str> = gates
            .iter()
            .filter_map(|g| g.as_ref().err().map(String::as_str))
            .collect();
        let path = format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"));
        if !missed.is_empty() {
            eprintln!("NOT updating {file}: an acceptance bar was missed");
        } else if let Err(e) = std::fs::write(&path, self.to_json(notes)) {
            eprintln!("could not write {path}: {e}");
        } else {
            println!("wrote {path}");
        }
        assert!(missed.is_empty(), "missed: {}", missed.join("; "));
    }
}

fn format_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} us", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_produces_positive_timings() {
        let mut h = Harness::new();
        let mut acc = 0u64;
        let m = h.bench("noop-ish", || {
            acc = black_box(acc.wrapping_add(1));
        });
        assert!(m.ns_per_iter > 0.0);
        let json = h.to_json(&[("k", "v".into())]);
        assert!(json.contains("noop-ish"));
        assert!(json.contains("\"k\""));
    }

    #[test]
    fn fixed_ratios_give_their_median_quartiles_and_wins() {
        let r = Ratio::from_pairs("r", vec![1.2, 0.9, 3.0, 1.0, 2.0, 1.5, 0.8, 2.5]);
        // Sorted: 0.8 0.9 1.0 1.2 1.5 2.0 2.5 3.0 -> indices 2, 4, 6.
        assert_eq!(
            [r.lower_quartile, r.median, r.upper_quartile],
            [1.0, 1.5, 2.5]
        );
        assert_eq!(r.wins, 5, "1.0 is a tie, not a win");
        assert_eq!(r.pairs[0], 1.2, "pairs stay in run order");
    }

    #[test]
    fn odd_and_even_pair_counts_read_indices_n4_n2_3n4() {
        // Each value is its own sorted index, so the quartiles name the
        // indices read: n/4, n/2 and 3n/4 (integer division).
        for (n, expected) in [(5, [1.0, 2.0, 3.0]), (20, [5.0, 10.0, 15.0])] {
            let pairs: Vec<f64> = (0..n).rev().map(|i| i as f64).collect();
            let r = Ratio::from_pairs("r", pairs);
            assert_eq!([r.lower_quartile, r.median, r.upper_quartile], expected);
        }
    }

    #[test]
    fn a_speedup_bar_reads_the_lower_quartile() {
        // Median 1.6 clears 1.5, the lower quartile 1.4 does not.
        let only_median = Ratio::from_pairs("s", vec![1.3, 1.4, 1.6, 1.7, 1.8]);
        assert_eq!(only_median.median, 1.6);
        let missed = only_median.at_least(1.5).unwrap_err();
        assert!(missed.contains("lower quartile 1.400"), "{missed}");
        let near_quartile = Ratio::from_pairs("s", vec![1.3, 1.5, 1.6, 1.7, 1.8]);
        assert_eq!(near_quartile.at_least(1.5), Ok(()));
    }

    #[test]
    fn a_ceiling_reads_the_upper_quartile() {
        // Median 1.02 is under 1.05, the upper quartile 1.06 is not.
        let only_median = Ratio::from_pairs("o", vec![0.99, 1.0, 1.02, 1.06, 1.08]);
        assert!(only_median.median < 1.05);
        let missed = only_median.below(1.05).unwrap_err();
        assert!(missed.contains("upper quartile 1.0600"), "{missed}");
        let near_quartile = Ratio::from_pairs("o", vec![0.99, 1.0, 1.02, 1.04, 1.08]);
        assert_eq!(near_quartile.below(1.05), Ok(()));
    }
}
