//! Detector configuration.
//!
//! The parallel detectors are parameterised exactly as in the paper's
//! experiments: the number of processors `p`, the communication-latency
//! constant `C` of the work-splitting cost model, the workload-monitoring
//! interval `intvl`, and the skewness thresholds `η` (split-from) and `η'`
//! (send-to).  The ablation switches (`work_splitting`,
//! `workload_balancing`) produce the paper's `PIncDect_ns`, `PIncDect_nb`
//! and `PIncDect_NO` variants.

/// Configuration shared by the parallel detectors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectorConfig {
    /// Number of worker "processors" `p`.
    pub processors: usize,
    /// Communication-latency constant `C` of the cost model
    /// (`parallel cost = C·(k+1) + |adj|/p`).  The paper tunes it from 20
    /// to 100; the default follows the paper's default of 60.
    pub latency_c: f64,
    /// Workload-monitoring interval `intvl`, in milliseconds.  The paper
    /// uses 15–65 *seconds* on cluster-scale runs; the single-machine
    /// default here is scaled down accordingly.
    pub balance_interval_ms: u64,
    /// Skewness threshold η above which a worker's queue is redistributed
    /// (3 in the paper's experiments).
    pub skew_high: f64,
    /// Skewness threshold η' below which a worker may receive extra work
    /// units (0.7 in the paper's experiments).
    pub skew_low: f64,
    /// Enable cost-model-based work-unit splitting (disable for the
    /// `…_ns` ablation).
    pub work_splitting: bool,
    /// Enable periodic workload balancing (disable for the `…_nb` ablation).
    pub workload_balancing: bool,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            processors: 4,
            latency_c: 60.0,
            balance_interval_ms: 45,
            skew_high: 3.0,
            skew_low: 0.7,
            work_splitting: true,
            workload_balancing: true,
        }
    }
}

impl DetectorConfig {
    /// A configuration with `p` processors and defaults for the rest.
    pub fn with_processors(processors: usize) -> Self {
        DetectorConfig {
            processors: processors.max(1),
            ..DetectorConfig::default()
        }
    }

    /// Builder-style setter for the latency constant `C`.
    pub fn latency(mut self, c: f64) -> Self {
        self.latency_c = c;
        self
    }

    /// Builder-style setter for the balancing interval (ms).
    pub fn interval_ms(mut self, ms: u64) -> Self {
        self.balance_interval_ms = ms;
        self
    }

    /// The full hybrid strategy (splitting + balancing) — plain `PIncDect`.
    pub fn hybrid(self) -> Self {
        DetectorConfig {
            work_splitting: true,
            workload_balancing: true,
            ..self
        }
    }

    /// No work-unit splitting (`PIncDect_ns`).
    pub fn no_splitting(self) -> Self {
        DetectorConfig {
            work_splitting: false,
            workload_balancing: true,
            ..self
        }
    }

    /// No workload balancing (`PIncDect_nb`).
    pub fn no_balancing(self) -> Self {
        DetectorConfig {
            work_splitting: true,
            workload_balancing: false,
            ..self
        }
    }

    /// Neither splitting nor balancing (`PIncDect_NO`).
    pub fn no_hybrid(self) -> Self {
        DetectorConfig {
            work_splitting: false,
            workload_balancing: false,
            ..self
        }
    }
}

ngd_json::impl_json_struct!(DetectorConfig {
    processors,
    latency_c,
    balance_interval_ms,
    skew_high,
    skew_low,
    work_splitting,
    workload_balancing,
});

/// Which algorithm variant a report came from (used by the experiment
/// harness to label series like the paper's figures).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AlgorithmKind {
    /// Sequential batch detection.
    Dect,
    /// Parallel batch detection.
    PDect,
    /// Sequential incremental detection.
    IncDect,
    /// Parallel incremental detection (hybrid strategy).
    PIncDect,
    /// Parallel incremental, no work-unit splitting.
    PIncDectNs,
    /// Parallel incremental, no workload balancing.
    PIncDectNb,
    /// Parallel incremental, neither splitting nor balancing.
    PIncDectNo,
}

ngd_json::impl_json_unit_enum!(AlgorithmKind {
    Dect,
    PDect,
    IncDect,
    PIncDect,
    PIncDectNs,
    PIncDectNb,
    PIncDectNo,
});

impl AlgorithmKind {
    /// Display name matching the paper's figure legends.
    pub fn label(&self) -> &'static str {
        match self {
            AlgorithmKind::Dect => "Dect",
            AlgorithmKind::PDect => "PDect",
            AlgorithmKind::IncDect => "IncDect",
            AlgorithmKind::PIncDect => "PIncDect",
            AlgorithmKind::PIncDectNs => "PIncDect_ns",
            AlgorithmKind::PIncDectNb => "PIncDect_nb",
            AlgorithmKind::PIncDectNo => "PIncDect_NO",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let cfg = DetectorConfig::default();
        assert_eq!(cfg.latency_c, 60.0);
        assert_eq!(cfg.skew_high, 3.0);
        assert_eq!(cfg.skew_low, 0.7);
        assert!(cfg.work_splitting && cfg.workload_balancing);
    }

    #[test]
    fn ablation_builders_toggle_the_right_flags() {
        let base = DetectorConfig::with_processors(8);
        assert_eq!(base.processors, 8);
        let ns = base.no_splitting();
        assert!(!ns.work_splitting && ns.workload_balancing);
        let nb = base.no_balancing();
        assert!(nb.work_splitting && !nb.workload_balancing);
        let no = base.no_hybrid();
        assert!(!no.work_splitting && !no.workload_balancing);
        let hybrid = no.hybrid();
        assert!(hybrid.work_splitting && hybrid.workload_balancing);
    }

    #[test]
    fn zero_processors_is_clamped() {
        assert_eq!(DetectorConfig::with_processors(0).processors, 1);
    }

    #[test]
    fn builder_setters() {
        let cfg = DetectorConfig::default().latency(80.0).interval_ms(15);
        assert_eq!(cfg.latency_c, 80.0);
        assert_eq!(cfg.balance_interval_ms, 15);
    }

    #[test]
    fn labels_are_paper_style() {
        assert_eq!(AlgorithmKind::PIncDectNo.label(), "PIncDect_NO");
        assert_eq!(AlgorithmKind::Dect.label(), "Dect");
    }
}
