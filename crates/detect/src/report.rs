//! Detection reports.
//!
//! Every detector returns a report carrying the violations (or the
//! violation delta), wall-clock timing, matcher statistics and the
//! scanned-work ledger, so that the experiment harness can print
//! the series the paper plots without re-instrumenting the algorithms.

use crate::config::AlgorithmKind;
use crate::cost::CostLedger;
use ngd_match::{DeltaViolations, MatchStats, ViolationSet};
use std::time::Duration;

/// Matcher statistics in serializable form.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Search-tree nodes expanded.
    pub expanded: usize,
    /// Candidate nodes inspected.
    pub candidates_inspected: usize,
    /// Complete pattern matches enumerated (before violation filtering).
    pub matches_found: usize,
    /// Multi-anchor gallop run intersections performed by the matcher.
    pub gallop_intersections: usize,
    /// Compiled match plans served from the plan cache.
    pub plan_cache_hits: u64,
    /// Plan-cache misses (= plan compilations) during the run.
    pub plan_cache_misses: u64,
}

impl From<MatchStats> for SearchStats {
    fn from(s: MatchStats) -> Self {
        SearchStats {
            expanded: s.expanded,
            candidates_inspected: s.candidates_inspected,
            matches_found: s.matches_found,
            gallop_intersections: s.gallop_intersections,
            plan_cache_hits: 0,
            plan_cache_misses: 0,
        }
    }
}

impl SearchStats {
    /// Merge another stats record into this one.
    pub fn merge(&mut self, other: &SearchStats) {
        self.expanded += other.expanded;
        self.candidates_inspected += other.candidates_inspected;
        self.matches_found += other.matches_found;
        self.gallop_intersections += other.gallop_intersections;
        self.plan_cache_hits += other.plan_cache_hits;
        self.plan_cache_misses += other.plan_cache_misses;
    }

    /// Record the plan-cache activity between two counter snapshots
    /// (`hits`/`misses` read off a [`ngd_match::PlanCache`] before and
    /// after the run).
    pub fn record_plan_cache(
        &mut self,
        hits_before: u64,
        misses_before: u64,
        cache: &ngd_match::PlanCache,
    ) {
        self.plan_cache_hits += cache.hits().saturating_sub(hits_before);
        self.plan_cache_misses += cache.misses().saturating_sub(misses_before);
    }
}

ngd_json::impl_json_struct!(SearchStats {
    expanded,
    candidates_inspected,
    matches_found,
    gallop_intersections,
    plan_cache_hits,
    plan_cache_misses
});

impl SearchStats {
    /// Fold this run's matcher totals into the global metrics registry.
    /// Plan-cache hits/misses are deliberately **not** folded here — the
    /// cache counts them at the source (`matcher.plan_cache.*`), and
    /// re-adding the per-run deltas would double-count.
    fn observe(&self) {
        static EXPANDED: ngd_obs::LazyCounter =
            ngd_obs::LazyCounter::new("matcher.search.expanded");
        static CANDIDATES: ngd_obs::LazyCounter =
            ngd_obs::LazyCounter::new("matcher.search.candidates_inspected");
        static MATCHES: ngd_obs::LazyCounter =
            ngd_obs::LazyCounter::new("matcher.search.matches_found");
        static GALLOPS: ngd_obs::LazyCounter =
            ngd_obs::LazyCounter::new("matcher.search.gallop_intersections");
        EXPANDED.add(self.expanded as u64);
        CANDIDATES.add(self.candidates_inspected as u64);
        MATCHES.add(self.matches_found as u64);
        GALLOPS.add(self.gallop_intersections as u64);
    }
}

/// Which half of `ΔVio` a streamed violation belongs to.
///
/// Carried alongside every violation handed to a [`VioSink`]: `Added`
/// violations land in `ΔVio⁺` of the final [`DeltaReport`], `Removed` in
/// `ΔVio⁻`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VioSide {
    /// The violation appears in `G ⊕ ΔG` but not `G` (`ΔVio⁺`).
    Added,
    /// The violation appears in `G` but not `G ⊕ ΔG` (`ΔVio⁻`).
    Removed,
}

/// A violation-sink callback: invoked by the streaming incremental
/// detectors (`pinc_dect_prepared_streaming` and friends) for every
/// violation **as it is discovered**, while expansion is still running.
///
/// Guarantees:
///
/// * each `(side, violation)` pair is delivered **exactly once** — a
///   violation can only be found twice by the worker that owns its updated
///   edge, which delivers only its first find — so the delivered totals
///   equal the final report's `delta.added.len()` /
///   `delta.removed.len()`;
/// * calls may come from any worker thread (the sink must be `Sync`), but
///   never concurrently for the same violation;
/// * delivery order is discovery order — **not** the deterministic set
///   order of the final report, and `Added`/`Removed` interleave freely.
///
/// A sink must not panic; it may block (e.g. on socket back-pressure), in
/// which case the blocked worker stalls while the others keep expanding.
pub type VioSink<'s> = &'s (dyn Fn(VioSide, &ngd_match::Violation) + Sync);

/// Report of a batch detection run (`Vio(Σ, G)`).
#[derive(Debug, Clone)]
pub struct DetectionReport {
    /// Which algorithm produced the report.
    pub algorithm: AlgorithmKind,
    /// The violations found.
    pub violations: ViolationSet,
    /// Wall-clock time of the run.
    pub elapsed: Duration,
    /// Matcher statistics.
    pub stats: SearchStats,
    /// Scanned-work ledger (zero for `Dect`).
    pub cost: CostLedger,
    /// Number of workers used.
    pub processors: usize,
}

impl DetectionReport {
    /// Number of violations found.
    pub fn violation_count(&self) -> usize {
        self.violations.len()
    }

    /// Fold the run into the global metrics registry and pass the report
    /// through.  Called once at every batch detector's return site, so the
    /// totals are per-run, never per-work-unit.
    pub(crate) fn observed(self) -> Self {
        if !ngd_obs::enabled() {
            return self;
        }
        static RUNS: ngd_obs::LazyCounter = ngd_obs::LazyCounter::new("detect.batch.runs");
        static RUN_NS: ngd_obs::LazyHistogram = ngd_obs::LazyHistogram::new("detect.batch.run_ns");
        static VIOLATIONS: ngd_obs::LazyCounter =
            ngd_obs::LazyCounter::new("detect.batch.violations_found");
        RUNS.inc();
        RUN_NS.record_duration(self.elapsed);
        VIOLATIONS.add(self.violations.len() as u64);
        self.stats.observe();
        self
    }
}

ngd_json::impl_json_struct!(DetectionReport {
    algorithm,
    violations,
    elapsed,
    stats,
    cost,
    processors,
});

/// The human-readable summary (examples, `ngd-cli`, logs), with the
/// [`CostLedger`] when the run charged anything.
impl std::fmt::Display for DetectionReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {} violations in {:?} on {} worker(s) \
             [expanded {} | candidates {} | matches {}]",
            self.algorithm.label(),
            self.violations.len(),
            self.elapsed,
            self.processors,
            self.stats.expanded,
            self.stats.candidates_inspected,
            self.stats.matches_found,
        )?;
        write_plan_cache(f, &self.stats)?;
        if !self.cost.is_zero() {
            write!(f, " [{}]", self.cost)?;
        }
        Ok(())
    }
}

/// Append the plan-cache counters when the run exercised the cache at all.
fn write_plan_cache(f: &mut std::fmt::Formatter<'_>, stats: &SearchStats) -> std::fmt::Result {
    if stats.plan_cache_hits != 0 || stats.plan_cache_misses != 0 {
        write!(
            f,
            " [plan cache {} hit(s) / {} miss(es)]",
            stats.plan_cache_hits, stats.plan_cache_misses
        )?;
    }
    Ok(())
}

/// Report of an incremental detection run (`ΔVio(Σ, G, ΔG)`).
#[derive(Debug, Clone)]
pub struct DeltaReport {
    /// Which algorithm produced the report.
    pub algorithm: AlgorithmKind,
    /// The violation delta.
    pub delta: DeltaViolations,
    /// Wall-clock time of the run.
    pub elapsed: Duration,
    /// Matcher statistics.
    pub stats: SearchStats,
    /// Scanned-work ledger.
    pub cost: CostLedger,
    /// Number of workers used.
    pub processors: usize,
    /// Always 0: no detector walks the `dΣ`-neighbourhood of the update any
    /// more (the BFS is `O(|G|)` on connected graphs) — callers that want
    /// its size ask [`crate::delta_neighborhood`].  The field keeps the
    /// JSON shape and the `UPDATE_DONE` wire slot.
    pub neighborhood_nodes: usize,
}

ngd_json::impl_json_struct!(DeltaReport {
    algorithm,
    delta,
    elapsed,
    stats,
    cost,
    processors,
    neighborhood_nodes,
});

impl DeltaReport {
    /// Total number of changed violations.
    pub fn change_count(&self) -> usize {
        self.delta.len()
    }

    /// Fold the run into the global metrics registry and pass the report
    /// through (the incremental counterpart of
    /// [`DetectionReport::observed`]).  `threads_spawned` is how many OS
    /// threads the run started; zero means it ran inline on its caller.
    pub(crate) fn observed(self, threads_spawned: usize) -> Self {
        if !ngd_obs::enabled() {
            return self;
        }
        static RUNS: ngd_obs::LazyCounter = ngd_obs::LazyCounter::new("detect.delta.runs");
        static INLINE: ngd_obs::LazyCounter = ngd_obs::LazyCounter::new("detect.delta.inline_runs");
        static SPAWNED: ngd_obs::LazyCounter =
            ngd_obs::LazyCounter::new("detect.delta.threads_spawned");
        static RUN_NS: ngd_obs::LazyHistogram = ngd_obs::LazyHistogram::new("detect.delta.run_ns");
        static CHANGES: ngd_obs::LazyCounter =
            ngd_obs::LazyCounter::new("detect.delta.violations_changed");
        RUNS.inc();
        if threads_spawned == 0 {
            INLINE.inc();
        }
        SPAWNED.add(threads_spawned as u64);
        RUN_NS.record_duration(self.elapsed);
        CHANGES.add(self.delta.len() as u64);
        self.stats.observe();
        self
    }
}

/// The human-readable summary, cost ledger included.
impl std::fmt::Display for DeltaReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: ΔVio⁺ = {}, ΔVio⁻ = {} in {:?} on {} worker(s) \
             [expanded {} | candidates {} | matches {}]",
            self.algorithm.label(),
            self.delta.added.len(),
            self.delta.removed.len(),
            self.elapsed,
            self.processors,
            self.stats.expanded,
            self.stats.candidates_inspected,
            self.stats.matches_found,
        )?;
        write_plan_cache(f, &self.stats)?;
        if !self.cost.is_zero() {
            write!(f, " [{}]", self.cost)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ngd_graph::NodeId;
    use ngd_match::Violation;

    #[test]
    fn search_stats_merge() {
        let mut a = SearchStats {
            expanded: 1,
            candidates_inspected: 10,
            matches_found: 2,
            gallop_intersections: 2,
            plan_cache_hits: 3,
            plan_cache_misses: 1,
        };
        a.merge(&SearchStats {
            expanded: 4,
            candidates_inspected: 5,
            matches_found: 1,
            gallop_intersections: 1,
            plan_cache_hits: 2,
            plan_cache_misses: 1,
        });
        assert_eq!(a.expanded, 5);
        assert_eq!(a.candidates_inspected, 15);
        assert_eq!(a.matches_found, 3);
        assert_eq!(a.gallop_intersections, 3);
        assert_eq!(a.plan_cache_hits, 5);
        assert_eq!(a.plan_cache_misses, 2);
    }

    #[test]
    fn reports_serialize() {
        let mut violations = ViolationSet::new();
        violations.insert(Violation::new("r", vec![NodeId(1)]));
        let report = DetectionReport {
            algorithm: AlgorithmKind::Dect,
            violations,
            elapsed: Duration::from_millis(5),
            stats: SearchStats::default(),
            cost: CostLedger::default(),
            processors: 1,
        };
        let json = ngd_json::to_string(&report);
        let back: DetectionReport = ngd_json::from_str(&json).unwrap();
        assert_eq!(back.violation_count(), 1);
        assert_eq!(back.algorithm, AlgorithmKind::Dect);
    }

    #[test]
    fn display_surfaces_every_cost_counter() {
        let mut cost = CostLedger::default();
        cost.record_scan(420);
        let report = DeltaReport {
            algorithm: AlgorithmKind::PIncDect,
            delta: DeltaViolations::default(),
            elapsed: Duration::from_millis(3),
            stats: SearchStats::default(),
            cost,
            processors: 4,
            neighborhood_nodes: 0,
        };
        let text = report.to_string();
        assert!(text.starts_with("PIncDect: "), "{text}");
        assert!(text.ends_with("[scanned 420]"), "{text}");
        assert!(!text.contains("neighbourhood"), "{text}");
    }

    #[test]
    fn sequential_display_omits_the_empty_ledger() {
        let report = DetectionReport {
            algorithm: AlgorithmKind::Dect,
            violations: ViolationSet::new(),
            elapsed: Duration::from_millis(1),
            stats: SearchStats::default(),
            cost: CostLedger::default(),
            processors: 1,
        };
        let text = report.to_string();
        assert!(text.starts_with("Dect: 0 violations"), "{text}");
        assert!(!text.contains("scanned"), "{text}");
    }

    #[test]
    fn display_surfaces_plan_cache_counters_when_present() {
        let report = DetectionReport {
            algorithm: AlgorithmKind::Dect,
            violations: ViolationSet::new(),
            elapsed: Duration::from_millis(1),
            stats: SearchStats {
                plan_cache_hits: 7,
                plan_cache_misses: 2,
                ..SearchStats::default()
            },
            cost: CostLedger::default(),
            processors: 1,
        };
        let text = report.to_string();
        assert!(text.contains("plan cache 7 hit(s) / 2 miss(es)"), "{text}");
    }

    #[test]
    fn delta_report_change_count() {
        let report = DeltaReport {
            algorithm: AlgorithmKind::IncDect,
            delta: DeltaViolations::default(),
            elapsed: Duration::ZERO,
            stats: SearchStats::default(),
            cost: CostLedger::default(),
            processors: 1,
            neighborhood_nodes: 0,
        };
        assert_eq!(report.change_count(), 0);
    }
}
