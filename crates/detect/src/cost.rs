//! The work-splitting cost model (Section 6.3).
//!
//! When a worker is about to expand a partial solution
//! `h_up(u₀, …, u_k)` by matching `u_{k+1}` against the adjacency list of
//! an already-matched node, it estimates
//!
//! * the **sequential cost** as `|adj|` (scan the whole adjacency list
//!   locally), and
//! * the **parallel cost** as `C·(k+1) + |adj| / p` (broadcast the partial
//!   solution to `p` workers — paying latency proportional to the partial
//!   solution's size — and scan a `1/p` share of the list on each).
//!
//! The work unit is split iff the parallel estimate is cheaper.  The same
//! model with `k+2` applies to the verification step.  Tracking the number
//! of paid latency units lets the experiment harness reproduce the shape of
//! Figure 4(m) (performance as a function of `C`).

/// Sequential cost of expanding against an adjacency list of length
/// `adj_len`.
pub fn sequential_cost(adj_len: usize) -> f64 {
    adj_len as f64
}

/// Parallel cost of expanding a partial solution of size `k + 1` against an
/// adjacency list of length `adj_len` using `p` processors with latency
/// constant `c`.
pub fn parallel_cost(c: f64, k: usize, adj_len: usize, p: usize) -> f64 {
    c * (k as f64 + 1.0) + adj_len as f64 / p.max(1) as f64
}

/// Should a candidate-filtering step for a partial solution of size `k + 1`
/// be split across `p` workers?
pub fn should_split(c: f64, k: usize, adj_len: usize, p: usize) -> bool {
    p > 1 && parallel_cost(c, k, adj_len, p) < sequential_cost(adj_len)
}

/// Communication cost ledger: counts the latency units paid for splitting
/// and the adjacency entries scanned, so that modelled runtimes (e.g. for
/// the `C`-sweep experiment) can be derived from a run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CostLedger {
    /// Total `C·(k+1)`-style latency units paid for broadcasts/splits.
    pub latency_units: f64,
    /// Total adjacency-list entries scanned.
    pub scanned: u64,
    /// Number of work units that were split.
    pub splits: u64,
    /// Number of work units expanded locally without splitting.
    pub local_expansions: u64,
    /// Number of work units migrated by the workload balancer.
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
    /// Record a split of a partial solution of size `k + 1`.
    pub fn record_split(&mut self, c: f64, k: usize) {
        self.latency_units += c * (k as f64 + 1.0);
        self.splits += 1;
    }

    /// Record a local (unsplit) expansion.
    pub fn record_local(&mut self) {
        self.local_expansions += 1;
    }

    /// Record scanned adjacency entries.
    pub fn record_scan(&mut self, entries: usize) {
        self.scanned += entries as u64;
    }

    /// Record work units migrated during balancing.
    pub fn record_migration(&mut self, units: usize) {
        self.migrations += units as u64;
    }

    /// Merge another ledger into this one.
    pub fn merge(&mut self, other: &CostLedger) {
        self.latency_units += other.latency_units;
        self.scanned += other.scanned;
        self.splits += other.splits;
        self.local_expansions += other.local_expansions;
        self.migrations += other.migrations;
    }

    /// Did the run pay any modelled communication or balancing cost?
    pub fn is_zero(&self) -> bool {
        *self == CostLedger::default()
    }

    /// A modelled total cost: scanned work divided over `p` processors plus
    /// the latency paid, in abstract cost units.  Used by the `C`-sweep
    /// experiment to expose the trade-off the paper plots in Fig 4(m).
    pub fn modelled_cost(&self, p: usize) -> f64 {
        self.scanned as f64 / p.max(1) as f64 + self.latency_units
    }
}

/// Every ledger counter on one line.
impl std::fmt::Display for CostLedger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "scanned {} | splits {} | local {} | migrations {} | latency units {:.1}",
            self.scanned, self.splits, self.local_expansions, self.migrations, self.latency_units,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_only_when_parallel_is_cheaper() {
        // Example 7 of the paper: |adj| = 100, p = 4, C = 60 wait — the
        // paper's running example uses an estimated parallel cost of 30
        // versus a sequential cost of 100 (C ≈ 5 per partial-solution
        // element at k+1 = 5); with the adjacency list of size 4 the
        // sequential path wins.
        assert!(should_split(5.0, 4, 100, 4));
        assert!(!should_split(5.0, 4, 4, 4));
    }

    #[test]
    fn no_split_with_a_single_processor() {
        assert!(!should_split(0.0, 0, 1_000_000, 1));
    }

    #[test]
    fn larger_latency_discourages_splitting() {
        let adj = 200;
        assert!(should_split(10.0, 1, adj, 8));
        assert!(!should_split(120.0, 1, adj, 8));
    }

    #[test]
    fn deeper_partial_solutions_discourage_splitting() {
        let adj = 300;
        assert!(should_split(60.0, 1, adj, 8));
        assert!(!should_split(60.0, 6, adj, 8));
    }

    #[test]
    fn ledger_accumulates_and_merges() {
        let mut a = CostLedger::default();
        a.record_split(60.0, 2);
        a.record_scan(500);
        a.record_local();
        let mut b = CostLedger::default();
        b.record_split(60.0, 0);
        b.record_migration(3);
        a.merge(&b);
        assert_eq!(a.splits, 2);
        assert_eq!(a.local_expansions, 1);
        assert_eq!(a.scanned, 500);
        assert_eq!(a.migrations, 3);
        assert!((a.latency_units - (180.0 + 60.0)).abs() < 1e-9);
    }

    #[test]
    fn modelled_cost_balances_scan_and_latency() {
        let mut ledger = CostLedger::default();
        ledger.record_scan(1000);
        ledger.record_split(50.0, 1);
        let p4 = ledger.modelled_cost(4);
        let p1 = ledger.modelled_cost(1);
        assert!(p4 < p1);
        assert!((p4 - (250.0 + 100.0)).abs() < 1e-9);
    }
}
