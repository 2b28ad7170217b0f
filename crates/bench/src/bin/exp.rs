//! The per-figure experiment runner.
//!
//! ```text
//! cargo run -p ngd-bench --release --bin exp -- fig4a          # one figure
//! cargo run -p ngd-bench --release --bin exp -- all            # everything
//! cargo run -p ngd-bench --release --bin exp -- all --full     # paper-size sweeps
//! cargo run -p ngd-bench --release --bin exp -- fig4i --json out.json
//! cargo run -p ngd-bench --release --bin exp -- --list
//! ```
//!
//! Each experiment prints the same series the corresponding paper figure
//! plots (ROADMAP item 14 plans the paper-vs-measured comparison).

use ngd_bench::{all_experiment_names, run_experiment, ExperimentResult, Scale};
use std::io::Write;

fn usage() -> ! {
    eprintln!(
        "usage: exp <experiment|all> [--full] [--json <path>]\n       exp --list\n\nexperiments: {}",
        all_experiment_names().join(", ")
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let mut targets: Vec<String> = Vec::new();
    let mut scale = Scale::Quick;
    let mut json_path: Option<String> = None;
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--list" => {
                for name in all_experiment_names() {
                    println!("{name}");
                }
                return;
            }
            "--full" => scale = Scale::Full,
            "--json" => match iter.next() {
                Some(path) => json_path = Some(path),
                None => usage(),
            },
            "all" => targets.extend(all_experiment_names().iter().map(|s| s.to_string())),
            other if other.starts_with('-') => usage(),
            other => targets.push(other.to_string()),
        }
    }
    if targets.is_empty() {
        usage();
    }

    let mut results: Vec<ExperimentResult> = Vec::new();
    for name in &targets {
        eprintln!("running {name} ({scale:?}) ...");
        match run_experiment(name, scale) {
            Some(result) => {
                println!("{}", result.render());
                results.push(result);
            }
            None => {
                eprintln!("unknown experiment `{name}`");
                usage();
            }
        }
    }

    if let Some(path) = json_path {
        let json = ngd_json::to_string_pretty(&results);
        let mut file =
            std::fs::File::create(&path).unwrap_or_else(|e| panic!("cannot create {path}: {e}"));
        file.write_all(json.as_bytes())
            .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        eprintln!("wrote {path}");
    }
}
