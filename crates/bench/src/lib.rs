//! # ngd-bench
//!
//! The experiment harness of the NGD reproduction.
//!
//! * [`datasets`] — named, scaled-down simulations of the paper's datasets
//!   (DBpedia, YAGO2, Pokec, synthetic) with matched rule sets, and the
//!   label-skewed 11k workload of the `plan` and `obs` benches;
//! * [`experiments`] — one runner per figure/table of the paper's
//!   evaluation (Figures 4(a)–4(l), Exp-5, the Section-4 examples, plus the
//!   localizability ablation);
//! * [`table`] — the result tables the runners produce, rendered as text or
//!   JSON.
//!
//! The `exp` binary (`cargo run -p ngd-bench --release --bin exp -- <id>`)
//! drives the runners.  The four benches under `benches/` (built on the
//! local [`harness`], since Criterion is unavailable offline) gate the
//! comparisons the repository benchmark (`BENCHMARK.json`) does not
//! measure, each on [`harness::PAIRS`] interleaved pairs: CSR versus
//! adjacency-list candidate selection (`matcher` → `BENCH_csr.json`),
//! planned versus legacy match order (`plan`), compaction versus
//! re-freeze→write (`compact`) and the metrics registry on versus off
//! (`obs`).

pub mod datasets;
pub mod experiments;
pub mod harness;
pub mod table;

pub use datasets::{build_dataset, synthetic_dataset, Dataset, DatasetKind, Scale};
pub use experiments::{all_experiment_names, run_experiment};
pub use harness::{black_box, Harness, Measurement};
pub use table::{ExperimentResult, Series};
