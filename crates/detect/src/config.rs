//! Detector configuration.
//!
//! The parallel detectors take one parameter from the paper's experiments:
//! the number of processors `p`.

/// Configuration shared by the parallel detectors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectorConfig {
    /// Number of worker "processors" `p`.
    pub processors: usize,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig { processors: 4 }
    }
}

impl DetectorConfig {
    /// A configuration with `p` processors (at least one).
    pub fn with_processors(processors: usize) -> Self {
        DetectorConfig {
            processors: processors.max(1),
        }
    }
}

ngd_json::impl_json_struct!(DetectorConfig { processors });

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
    /// Parallel incremental detection.
    PIncDect,
}

ngd_json::impl_json_unit_enum!(AlgorithmKind {
    Dect,
    PDect,
    IncDect,
    PIncDect,
});

impl AlgorithmKind {
    /// Display name matching the paper's figure legends.
    pub fn label(&self) -> &'static str {
        match self {
            AlgorithmKind::Dect => "Dect",
            AlgorithmKind::PDect => "PDect",
            AlgorithmKind::IncDect => "IncDect",
            AlgorithmKind::PIncDect => "PIncDect",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_processors_is_clamped() {
        assert_eq!(DetectorConfig::with_processors(0).processors, 1);
    }

    #[test]
    fn labels_are_paper_style() {
        assert_eq!(AlgorithmKind::PIncDect.label(), "PIncDect");
        assert_eq!(AlgorithmKind::Dect.label(), "Dect");
    }
}
