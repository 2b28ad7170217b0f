//! Sample statistics, span self-time, process CPU time and `VmRSS` — everything the
//! harness computes that does not touch the program under test.

/// A percentile is reported only when at least this many samples lie
/// beyond it; with fewer the value is one or two outliers, not a tail.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// Nearest-rank percentile (`0 < p <= 100`) of an ascending-sorted slice:
/// the smallest sample with at least `p` % of the samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// [`percentile`] behind the [`MIN_SAMPLES_BEYOND`] guard.
pub fn guarded_percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    if sorted.len().saturating_sub(rank) < MIN_SAMPLES_BEYOND {
        return None;
    }
    percentile(sorted, p)
}

/// Sort a sample set ascending (NaN-free by construction: every sample is
/// a measured duration or a count).
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    samples
}

/// Median of an unsorted sample set; `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(&sorted(samples.to_vec()), 50.0)
}

/// `"1.234"` or, when the guard refuses the percentile, `"n/a (n=37)"`.
pub fn render_guarded(value: Option<f64>, samples: usize) -> String {
    match value {
        Some(v) => format!("{v:.4}"),
        None => format!("n/a (n={samples})"),
    }
}

/// Quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, which the acceptance check uses.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let data = sorted(values.to_vec());
    let n = data.len();
    let at = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        // Negative when `j` was clamped up: Python extrapolates there too.
        let delta = (pos as f64 - (j * 4) as f64) / 4.0;
        data[j - 1] + (data[j] - data[j - 1]) * delta
    };
    Some((at(1), at(2), at(3)))
}

/// Inter-quartile distance as a share of the median — the run-to-run
/// spread a bound is judged against.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q2, q3) = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// One recorded span: a named interval, the span that caused it, and the
/// request it belongs to.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Self time of every span: its duration minus the part of its interval
/// its direct children cover (overlapping children are not counted twice,
/// and a child is clipped to its parent's interval).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent];
            let (start, end) = (span.start_ns.max(p.start_ns), span.end_ns.min(p.end_ns));
            if start < end {
                children[parent].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut intervals)| {
            intervals.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for (start, end) in intervals {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// `VmRSS` in KiB from the text of `/proc/<pid>/status`.
pub fn rss_kib_from_status(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmRSS:"))?
        .split_ascii_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Process CPU time (user + system, all threads, exited ones included) in
/// milliseconds, from `CLOCK_PROCESS_CPUTIME_ID`.  `/proc/self/stat` has
/// the same sum in 10 ms ticks — too coarse for a 250 ms window, of which
/// the best is reported: one tick is 2 % of it.
pub fn process_cpu_ms() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut time = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `time` is a valid, writable `struct timespec` (two 64-bit
    // fields on every 64-bit Linux target) for the duration of the call.
    let status = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut time) };
    assert_eq!(status, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID)");
    time.tv_sec as f64 * 1e3 + time.tv_nsec as f64 / 1e6
}

/// Resident set size of this process in MiB.
pub fn process_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| rss_kib_from_status(&status))
        .map_or(0.0, |kib| kib as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|v| v as f64).collect()
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let data = ramp(10);
        assert_eq!(percentile(&data, 50.0), Some(5.0));
        assert_eq!(percentile(&data, 90.0), Some(9.0));
        assert_eq!(percentile(&data, 91.0), Some(10.0));
        assert_eq!(percentile(&data, 100.0), Some(10.0));
        assert_eq!(percentile(&data, 0.001), Some(1.0));
        assert_eq!(percentile(&[7.0], 95.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn median_sorts_first() {
        assert_eq!(median(&[9.0, 1.0, 5.0]), Some(5.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn guard_needs_ten_samples_beyond() {
        // p95 of 200 samples has exactly 10 beyond rank 190.
        assert_eq!(guarded_percentile(&ramp(200), 95.0), Some(190.0));
        assert_eq!(guarded_percentile(&ramp(199), 95.0), None);
        // A median needs 20.
        assert_eq!(guarded_percentile(&ramp(20), 50.0), Some(10.0));
        assert_eq!(guarded_percentile(&ramp(19), 50.0), None);
        assert_eq!(render_guarded(None, 37), "n/a (n=37)");
        assert_eq!(render_guarded(Some(1.5), 400), "1.5000");
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let (q1, q2, q3) = quartiles(&ramp(10)).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12);
        assert!((q2 - 5.5).abs() < 1e-12);
        assert!((q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        let (q1, q2, q3) = quartiles(&[20.0, 10.0]).unwrap();
        assert_eq!((q1, q2, q3), (7.5, 15.0, 22.5));
        assert!((spread(&ramp(10)).unwrap() - 1.0).abs() < 1e-12);
        assert_eq!(quartiles(&[1.0]), None);
    }

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s",
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children() {
        let spans = vec![
            span(0, 100, None),    // 0: root
            span(10, 40, Some(0)), // 1: child
            span(40, 60, Some(0)), // 2: adjacent sibling
            span(15, 25, Some(1)), // 3: grandchild — not charged to the root
            span(50, 70, Some(0)), // 4: overlaps sibling 2 by 10
        ];
        let own = self_times(&spans);
        // Root: 100 − (30 + 20 + 10 uncovered tail of span 4).
        assert_eq!(own[0], 40);
        assert_eq!(own[1], 20);
        assert_eq!(own[2], 20);
        assert_eq!(own[3], 10);
        assert_eq!(own[4], 20);
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        let spans = vec![
            span(10, 20, None),
            span(5, 15, Some(0)),
            span(18, 30, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 3);
    }

    #[test]
    fn process_cpu_time_advances_with_work_on_any_thread() {
        let before = process_cpu_ms();
        std::thread::spawn(|| {
            let started = std::time::Instant::now();
            while started.elapsed().as_millis() < 30 {
                std::hint::black_box(started);
            }
        })
        .join()
        .unwrap();
        let spent = process_cpu_ms() - before;
        assert!(spent > 10.0, "a 30 ms busy loop cost {spent} ms of CPU");
    }

    #[test]
    fn rss_is_read_from_the_vmrss_line() {
        let status = "Name:\tngd\nVmPeak:\t  900 kB\nVmRSS:\t   2048 kB\nThreads:\t3\n";
        assert_eq!(rss_kib_from_status(status), Some(2048));
        assert_eq!(rss_kib_from_status("Name:\tngd\n"), None);
    }

    #[test]
    fn live_proc_readers_return_something() {
        assert!(process_rss_mib() > 0.0);
    }
}
