//! # ngd-bench
//!
//! The experiment harness of the NGD reproduction.
//!
//! * [`datasets`] — named, scaled-down simulations of the paper's datasets
//!   (DBpedia, YAGO2, Pokec, synthetic) with matched rule sets;
//! * [`experiments`] — one runner per figure/table of the paper's
//!   evaluation (Figures 4(a)–4(n), Exp-5, the Section-4 examples, plus two
//!   ablations called out in DESIGN.md);
//! * [`table`] — the result tables the runners produce, rendered as text or
//!   JSON (EXPERIMENTS.md is generated from them).
//!
//! The `exp` binary (`cargo run -p ngd-bench --release --bin exp -- <id>`)
//! drives the runners; the benches under `benches/` (built on the local
//! [`harness`], since Criterion is unavailable offline) cover the
//! micro-level claims: matcher throughput — including the CSR-snapshot
//! versus adjacency-list candidate-selection comparison recorded in
//! `BENCH_csr.json` — literal-evaluation overhead and solver
//! cost.

pub mod datasets;
pub mod experiments;
pub mod harness;
pub mod table;

pub use datasets::{build_dataset, synthetic_dataset, Dataset, DatasetKind, Scale};
pub use experiments::{all_experiment_names, run_experiment};
pub use harness::{black_box, Harness, Measurement};
pub use table::{ExperimentResult, Series};
