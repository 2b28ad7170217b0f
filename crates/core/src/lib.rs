//! # ngd-core
//!
//! **Numeric graph dependencies (NGDs)** — the primary contribution of
//! *"Catching Numeric Inconsistencies in Graphs"* (Fan, Liu, Lu, Tian —
//! SIGMOD 2018).
//!
//! An NGD `φ = Q[x̄](X → Y)` combines
//!
//! * a **graph pattern** `Q[x̄]` ([`Pattern`]) matched in a data graph by
//!   homomorphism, identifying the entities `x̄` the rule talks about, and
//! * an **attribute dependency** `X → Y` between two sets of
//!   [`Literal`]s `e₁ ⊗ e₂`, where the `eᵢ` are **linear arithmetic
//!   expressions** ([`Expr`]) over node attributes and `⊗` is one of
//!   `=, ≠, <, ≤, >, ≥`.
//!
//! NGDs subsume the GFDs of Fan et al. (SIGMOD'16) and relational CFDs, and
//! additionally catch numeric inconsistencies (population sums, date
//! ordering, rank/population monotonicity, follower-count based fake-account
//! rules, …) that are beyond those classes.
//!
//! This crate provides:
//!
//! * the rule model: [`Pattern`], [`Expr`], [`Literal`], [`Ngd`],
//!   [`RuleSet`] (with JSON round-tripping);
//! * exact evaluation of literals and dependencies on matches ([`eval`]);
//! * the static analyses of Section 4: satisfiability, strong
//!   satisfiability ([`satisfiability`]) and implication ([`implication`]),
//!   built on an exact linear-constraint solver over the integers
//!   ([`linsolve`]);
//! * the worked examples of the paper ([`paper`]), used throughout the
//!   tests, examples and benchmarks of this workspace.
//!
//! Error *detection* with NGDs (batch, incremental and parallel) lives in
//! the `ngd-match` and `ngd-detect` crates; the textual `.ngdl` syntax
//! lives in `ngd-lang`.
//!
//! # Example
//!
//! The fake-account rule "an account cannot follow one with ten times its
//! balance" as a denial NGD, built programmatically:
//!
//! ```
//! use ngd_core::{Expr, Literal, Ngd, Pattern, RuleSet};
//!
//! let mut q = Pattern::new();
//! let x = q.add_node("x", "Account");
//! let y = q.add_node("y", "Account");
//! q.add_edge(x, y, "follows");
//!
//! let premise = vec![Literal::gt(
//!     Expr::attr(x, "balance"),
//!     Expr::scale(10, Expr::attr(y, "balance")),
//! )];
//! // An always-false consequence makes the rule a denial: every match
//! // satisfying the premise is a violation.
//! let consequence = vec![Literal::eq(Expr::constant(0), Expr::constant(1))];
//!
//! let rule = Ngd::new("no_fake_accts", q, premise, consequence)?;
//! assert!(rule.is_linear());
//! assert_eq!(rule.diameter(), 1);
//!
//! let sigma = RuleSet::from_rules(vec![rule]);
//! assert_eq!(sigma.by_id("no_fake_accts").map(|r| r.literal_count()), Some(2));
//! # Ok::<(), ngd_core::NgdError>(())
//! ```

pub mod eval;
pub mod expr;
pub mod implication;
pub mod linsolve;
pub mod literal;
pub mod ngd;
pub mod paper;
pub mod pattern;
pub mod rational;
pub mod satisfiability;

pub use eval::{dependency_holds, is_violation, literal_holds, literals_hold, Evaluated};
pub use expr::{AttrRef, Expr, LinearForm};
pub use implication::implies;
pub use linsolve::{ConstraintSystem, Feasibility};
pub use literal::{CmpOp, Literal};
pub use ngd::{Ngd, NgdError, RuleSet};
pub use pattern::{Pattern, PatternEdge, PatternNode, Var};
pub use rational::Rational;
pub use satisfiability::{
    is_satisfiable, is_strongly_satisfiable, AnalysisConfig, AnalysisError, Verdict,
};
