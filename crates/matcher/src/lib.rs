//! # ngd-match
//!
//! Subgraph-homomorphism matching for NGD patterns:
//!
//! * [`matchn`] — the generic backtracking matcher (`Matchn`/`SubMatchn` of
//!   the paper), with connectivity-driven matching orders and literal-based
//!   pruning for violation search;
//! * [`plan`] — the cost-based match planner: compiles each pattern into an
//!   explicit [`MatchPlan`] (seed choice, variable order by estimated
//!   fan-out, per-step anchor sets, and the step at which each literal of
//!   the rule is decided) from O(1) snapshot statistics, cached per (rule,
//!   seed set) in an epoch-keyed [`PlanCache`];
//! * [`inc`] — the pieces of update-driven incremental matching
//!   (`IncMatch`): the update pivots triggered by edge insertions/deletions,
//!   their de-duplication ranks and the other-side check that makes the
//!   violation delta `(ΔVio⁺, ΔVio⁻)` exact;
//! * [`violation`] — violation records, violation sets and deltas.
//!
//! Everything is generic over `ngd_graph::GraphView`, so the same search
//! runs over the mutable adjacency-list `Graph`, a frozen `CsrSnapshot`
//! (the graph's `.ngds` bytes, in memory or mapped) — where candidate
//! selection sizes each applicable neighbour run in `O(log deg)` and
//! materialises only the smallest as a contiguous label-sorted slice, and
//! the first variable seeds from the
//! `(node label, edge label, node label)` triple index — or a
//! `DeltaOverlay` (snapshot ⊕ unapplied `ΔG`, the incremental default).
//! The representations are result-equivalent by construction; the CSR
//! path is the faster one on read-mostly graphs (see `BENCH_csr.json`).
//!
//! The detectors in `ngd-detect` are thin orchestration layers (sequential,
//! incremental, parallel) over these primitives.

pub mod inc;
pub mod matchn;
pub mod plan;
pub mod violation;

pub use inc::{edge_ranks, pattern_matches, update_pivots, UpdatePivot};
pub use matchn::{
    find_matches, find_violations, FastPathTally, ForbiddenEdges, MatchLimits, MatchStats, Matcher,
};
pub use plan::{
    compile_plan, compile_rule_plan, Anchor, MatchPlan, PlanCache, PlanRule, PlanStep, SeedChoice,
};
pub use violation::{DeltaViolations, Violation, ViolationSet};
