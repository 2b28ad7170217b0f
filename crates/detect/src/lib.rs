//! # ngd-detect
//!
//! Error detection in graphs with NGDs as data-quality rules (Sections 5
//! and 6 of *"Catching Numeric Inconsistencies in Graphs"*, SIGMOD 2018):
//!
//! * [`batch`] — the batch detectors: sequential [`dect`] and parallel
//!   [`pdect`] compute the full violation set `Vio(Σ, G)`;
//! * [`incdect`] — the sequential, *localizable* incremental detector
//!   [`inc_dect`], whose cost is governed by the `dΣ`-neighbourhood of the
//!   update rather than by `|G|`;
//! * [`pincdect`] — the parallel incremental detector [`pinc_dect`],
//!   parallel scalable relative to `IncDect`, with the paper's hybrid
//!   workload strategy (cost-model work-unit splitting + periodic
//!   balancing) and its ablation variants;
//! * [`session`] — reusable incremental session state
//!   ([`IncrementalSession`]): a long-lived process absorbs a *stream* of
//!   `ΔG` batches against one snapshot, each answered relative to
//!   everything absorbed so far — the engine under the `ngd-serve` service;
//! * [`cost`] and [`balance`] — the work-splitting cost model and the
//!   skewness-based balancing policy;
//! * [`config`] and [`report`] — run configuration and the reports every
//!   detector returns (violations / deltas, timings, search statistics,
//!   communication-cost ledger).
//!
//! ## Quick example
//!
//! ```
//! use ngd_core::paper;
//! use ngd_core::RuleSet;
//! use ngd_detect::{dect, inc_dect, DetectorConfig, pinc_dect};
//! use ngd_graph::{intern, BatchUpdate};
//!
//! // The Twitter fake-account scenario of Figure 1 / Example 6.
//! let (graph, fake) = paper::figure1_g4();
//! let sigma = RuleSet::from_rules(vec![paper::phi4(1, 1, 10_000)]);
//!
//! // Batch detection finds the fake account.
//! let full = dect(&sigma, &graph);
//! assert_eq!(full.violation_count(), 1);
//!
//! // Deleting its status edge removes the violation — detected
//! // incrementally without rescanning the graph.
//! let status = graph
//!     .out_neighbors(fake)
//!     .iter()
//!     .find(|&&(_, l)| l == intern("status"))
//!     .map(|&(n, _)| n)
//!     .unwrap();
//! let mut delta = BatchUpdate::new();
//! delta.delete_edge(fake, status, intern("status"));
//!
//! let inc = inc_dect(&sigma, &graph, &delta);
//! assert_eq!(inc.delta.removed.len(), 1);
//!
//! // The parallel detector returns exactly the same delta.
//! let par = pinc_dect(&sigma, &graph, &delta, &DetectorConfig::with_processors(2));
//! assert_eq!(par.delta, inc.delta);
//! ```

pub mod balance;
pub mod batch;
pub mod config;
pub mod cost;
pub mod incdect;
pub mod pincdect;
pub mod report;
pub mod session;

pub use balance::{plan_migrations, skewness, Migration};
pub use batch::{dect, dect_on, dect_on_cached, pdect, pdect_on, pdect_on_cached};
pub use config::{AlgorithmKind, DetectorConfig};
pub use cost::{parallel_cost, sequential_cost, should_split, CostLedger};
pub use incdect::{
    delta_neighborhood, inc_dect, inc_dect_prepared, inc_dect_prepared_cached, inc_dect_snapshot,
};
pub use pincdect::{
    pinc_dect, pinc_dect_prepared, pinc_dect_prepared_cached, pinc_dect_prepared_streaming,
};
pub use report::{DeltaReport, DetectionReport, SearchStats, VioSide, VioSink};
pub use session::IncrementalSession;
