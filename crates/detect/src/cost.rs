//! The cost ledger every detector report carries.
//!
//! A run charges each candidate node its matcher inspected as one scanned
//! adjacency entry.  The ledger's other four counters belonged to the
//! paper's work-splitting and balancing strategy, which this crate does not
//! implement; they stay, always 0, because wire version 4 carries them.

/// Work a detection run charged: the adjacency entries it scanned.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CostLedger {
    /// Always 0; kept for wire v4; leaves with ROADMAP item 5(b).
    pub latency_units: f64,
    /// Total adjacency-list entries scanned.
    pub scanned: u64,
    /// Always 0; kept for wire v4; leaves with ROADMAP item 5(b).
    pub splits: u64,
    /// Always 0; kept for wire v4; leaves with ROADMAP item 5(b).
    pub local_expansions: u64,
    /// Always 0; kept for wire v4; leaves with ROADMAP item 5(b).
    pub migrations: u64,
}

ngd_json::impl_json_struct!(CostLedger {
    latency_units,
    scanned,
    splits,
    local_expansions,
    migrations,
});

impl CostLedger {
    /// Record scanned adjacency entries.
    pub fn record_scan(&mut self, entries: usize) {
        self.scanned += entries as u64;
    }

    /// Did the run charge anything?
    pub fn is_zero(&self) -> bool {
        *self == CostLedger::default()
    }
}

impl std::fmt::Display for CostLedger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "scanned {}", self.scanned)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_accumulates_scans() {
        let mut ledger = CostLedger::default();
        assert!(ledger.is_zero());
        ledger.record_scan(500);
        ledger.record_scan(20);
        assert_eq!(ledger.scanned, 520);
        assert!(!ledger.is_zero());
        assert_eq!(ledger.to_string(), "scanned 520");
    }
}
