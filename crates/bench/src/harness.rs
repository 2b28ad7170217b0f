//! A minimal micro-benchmark harness (offline Criterion replacement).
//!
//! The workspace builds without network access, so Criterion is not
//! available; the benches under `benches/` use this harness instead
//! (`harness = false` in the manifest).  It follows the same discipline:
//! warm-up, iteration-count calibration to a target measurement window,
//! several samples, median-of-samples reporting, and a `black_box` to keep
//! the optimiser honest.  Results render as an aligned table and as JSON
//! (the `BENCH_csr.json` baseline is produced this way).

use std::hint::black_box as std_black_box;
use std::time::{Duration, Instant};

/// Re-exported optimisation barrier for bench bodies.
pub fn black_box<T>(value: T) -> T {
    std_black_box(value)
}

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

impl Measurement {
    /// Per-iteration time in milliseconds.
    pub fn ms_per_iter(&self) -> f64 {
        self.ns_per_iter / 1e6
    }
}

/// A named collection of measurements, printed as it runs.
pub struct Harness {
    /// Target duration of one measurement sample.
    pub sample_target: Duration,
    /// Samples per benchmark (median is reported).
    pub sample_count: usize,
    /// Minimum iterations per sample for sub-second benches.  A ~30 ms
    /// body under the default 120 ms target calibrates to only 3-4 iters,
    /// which is noise-gated territory for a CI threshold; the floor keeps
    /// such medians stable.  Bodies at 1 s or longer are exempt so
    /// whole-run benches don't balloon to minutes.
    pub min_iters: u64,
    results: Vec<Measurement>,
}

impl Default for Harness {
    fn default() -> Self {
        Harness {
            sample_target: Duration::from_millis(120),
            sample_count: 5,
            min_iters: 10,
            results: Vec::new(),
        }
    }
}

impl Harness {
    /// A harness with default sampling parameters.
    pub fn new() -> Self {
        Harness::default()
    }

    /// Measure `f`, printing and recording the result.
    pub fn bench<F: FnMut()>(&mut self, name: &str, mut f: F) -> Measurement {
        // Warm-up + calibration: time single iterations until the clock is
        // trustworthy, then scale to the sample target.
        f();
        let once = {
            let start = Instant::now();
            f();
            start.elapsed().max(Duration::from_nanos(50))
        };
        let floor = if once < Duration::from_secs(1) {
            self.min_iters.max(1) as u128
        } else {
            1
        };
        let iters =
            (self.sample_target.as_nanos() / once.as_nanos()).clamp(floor, 1_000_000) as u64;
        let mut samples: Vec<f64> = Vec::with_capacity(self.sample_count);
        for _ in 0..self.sample_count {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            samples.push(start.elapsed().as_nanos() as f64 / iters as f64);
        }
        samples.sort_by(|a, b| a.total_cmp(b));
        let median = samples[samples.len() / 2];
        let measurement = Measurement {
            name: name.to_string(),
            iters,
            ns_per_iter: median,
            samples: self.sample_count,
        };
        println!(
            "{:<52} {:>12}  ({} iters x {} samples)",
            measurement.name,
            format_ns(median),
            iters,
            self.sample_count
        );
        self.results.push(measurement.clone());
        measurement
    }

    /// Record a measurement the caller timed itself (e.g. interleaved
    /// pairs, which `bench` cannot express), in run order.
    pub fn record(&mut self, measurement: Measurement) {
        self.results.push(measurement);
    }

    /// All measurements so far.
    pub fn results(&self) -> &[Measurement] {
        &self.results
    }

    /// Serialize all measurements (plus free-form metadata notes) to
    /// pretty JSON.
    pub fn to_json(&self, notes: &[(String, String)]) -> String {
        let obj = ngd_json::Json::Obj(vec![
            (
                "notes".to_string(),
                ngd_json::Json::Obj(
                    notes
                        .iter()
                        .map(|(k, v)| (k.clone(), ngd_json::Json::Str(v.clone())))
                        .collect(),
                ),
            ),
            (
                "results".to_string(),
                ngd_json::ToJson::to_json(&self.results),
            ),
        ]);
        obj.render_pretty()
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
        let mut h = Harness {
            sample_target: Duration::from_micros(200),
            sample_count: 3,
            min_iters: 10,
            results: Vec::new(),
        };
        let mut acc = 0u64;
        let m = h.bench("noop-ish", || {
            acc = black_box(acc.wrapping_add(1));
        });
        assert!(m.ns_per_iter > 0.0);
        assert_eq!(h.results().len(), 1);
        let json = h.to_json(&[("k".into(), "v".into())]);
        assert!(json.contains("noop-ish"));
        assert!(json.contains("\"k\""));
    }
}
