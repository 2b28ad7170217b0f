//! The repository benchmark (see `../BENCHMARK.json` and `README.md`).
//!
//! ```text
//! ngd-benchmark run [--workload W] [--seed N] [--seconds S] [--trace 0|1]
//!                   [--runs R] [--out FILE]
//! ngd-benchmark compare A.json B.json
//! ngd-benchmark list
//! ```
//!
//! With `--workload`, `run` measures that workload in this process and
//! ends its standard output with the one-line JSON result.  Without it,
//! `run` measures every workload, each run in a child process of its own,
//! and writes a results file.

mod gen;
mod metrics;
mod report;
mod stats;
mod sut;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// Where snapshot files, traces and results go (git-ignored).
fn out_dir() -> Result<PathBuf, String> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

fn benchmark_json() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json")
}

const USAGE: &str = "usage: ngd-benchmark run [--workload W] [--seed N] [--seconds S] \
    [--trace 0|1] [--runs R] [--out FILE]\n       ngd-benchmark compare A.json B.json\n       \
    ngd-benchmark list";

struct RunArgs {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    /// `None`: both passes (all-workloads mode only).
    trace: Option<bool>,
    runs: u64,
    out: Option<PathBuf>,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: None,
        seed: 1,
        seconds: 26.0,
        trace: None,
        runs: 1,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: `{value}` is not {what}");
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value.clone()),
            "--seed" => parsed.seed = value.parse().map_err(|_| bad("a seed"))?,
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 120.0) {
                    return Err(bad("between 0 and 120"));
                }
            }
            "--trace" => {
                parsed.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            "--runs" => parsed.runs = value.parse().map_err(|_| bad("a run count"))?,
            "--out" => parsed.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(parsed)
}

/// One workload, in this process.
fn run_one(name: &str, args: &RunArgs) -> Result<bool, String> {
    let spec = workloads::spec(name).ok_or_else(|| {
        let names: Vec<_> = workloads::SPECS.iter().map(|s| s.name).collect();
        format!("unknown workload `{name}` (one of {})", names.join(", "))
    })?;
    let trace = args.trace.unwrap_or(false);
    println!(
        "# {} seed={} seconds={} trace={} available_parallelism={}",
        spec.name,
        args.seed,
        args.seconds,
        trace as u8,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let outcome = workloads::run(spec, args.seed, args.seconds, trace, &out_dir()?)?;
    report::print_outcome(&outcome, trace);
    println!("{}", report::contract_line(&outcome, trace));
    Ok(outcome.failed == 0)
}

/// Every workload, `runs` seeds each, one child process per run.
fn run_all(args: &RunArgs) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let passes: &[bool] = match args.trace {
        Some(false) => &[false],
        Some(true) => &[true],
        None => &[false, true],
    };
    let mut results: BTreeMap<String, report::WorkloadResults> = BTreeMap::new();
    let mut all_ok = true;
    for spec in workloads::SPECS {
        for run in 0..args.runs {
            for &trace in passes {
                let output = Command::new(&exe)
                    .args(["run", "--workload", spec.name])
                    .args(["--seed", &(args.seed + run).to_string()])
                    .args(["--seconds", &args.seconds.to_string()])
                    .args(["--trace", if trace { "1" } else { "0" }])
                    .output()
                    .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
                let stdout = String::from_utf8_lossy(&output.stdout);
                print!("{stdout}");
                eprint!("{}", String::from_utf8_lossy(&output.stderr));
                if !output.status.success() {
                    eprintln!("{}: run failed ({})", spec.name, output.status);
                    all_ok = false;
                }
                let entry = results.entry(spec.name.to_string()).or_default();
                if let Err(e) = entry.absorb(&stdout) {
                    eprintln!("{}: {e}", spec.name);
                    all_ok = false;
                }
            }
        }
    }
    let out = match &args.out {
        Some(path) => path.clone(),
        None => out_dir()?.join("results.json"),
    };
    std::fs::write(
        &out,
        report::results_json(args.seed, args.runs, args.seconds, &results),
    )
    .map_err(|e| format!("write {}: {e}", out.display()))?;
    println!("# results written to {}", out.display());
    Ok(all_ok)
}

/// The catalogue: every workload with its rationale, every metric with its
/// unit, direction and what it is expected to move.
fn list() {
    for spec in workloads::SPECS {
        let gated = if spec.gated {
            ""
        } else {
            " (not in BENCHMARK.json)"
        };
        println!("workload {:<12} {}{gated}", spec.name, spec.why);
    }
    for (kind, defs) in [
        ("end_to_end", metrics::END_TO_END),
        ("per_layer", metrics::PER_LAYER),
    ] {
        for def in defs {
            println!(
                "{kind:<10} {:<44} {:<6} {:<7} {}",
                def.name,
                def.unit,
                def.better.as_str(),
                def.moves
            );
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((command, rest)) if command == "run" => {
            parse_run_args(rest).and_then(|parsed| match parsed.workload.clone() {
                Some(name) => run_one(&name, &parsed),
                None => run_all(&parsed),
            })
        }
        Some((command, rest)) if command == "compare" && rest.len() == 2 => {
            report::compare(&benchmark_json(), Path::new(&rest[0]), Path::new(&rest[1]))
        }
        Some((command, [])) if command == "list" => {
            list();
            Ok(true)
        }
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
