//! `ngd-serve` — the detection daemon.
//!
//! ```text
//! ngd-serve --snapshot graph.ngds [--listen unix:/run/ngd.sock | tcp:127.0.0.1:7411]
//!           [--rules rules.ngdl|rules.json] [--processors N]
//!           [--compact-after OPS] [--metrics-dump FILE] [--metrics-interval SECS]
//! ```
//!
//! Maps the snapshot, compiles the rule set (a `.ngdl` file, or the JSON
//! produced by `RuleSet::to_json`; defaults to the paper's rule set), binds
//! the listener and serves until a client sends `SHUTDOWN`.
//! With `--compact-after N`, a session whose accumulated update reaches
//! `N` unit operations triggers a background compaction: the overlay is
//! folded into a fresh `.ngds` epoch next to the original snapshot and
//! every session re-roots onto it at its next message boundary.

use ngd_core::RuleSet;
use ngd_detect::DetectorConfig;
use ngd_serve::{ServeAddr, ServeOptions, Server, SnapshotStore};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    snapshot: PathBuf,
    listen: ServeAddr,
    rules: Option<PathBuf>,
    processors: Option<usize>,
    compact_after: Option<u64>,
    metrics_dump: Option<PathBuf>,
    metrics_interval: Option<u64>,
    workers: Option<usize>,
}

fn usage() -> ! {
    eprintln!(
        "usage: ngd-serve --snapshot <file.ngds> [--listen unix:<path>|tcp:<host>:<port>]\n\
         \x20                [--rules <file>] [--processors <n>]\n\
         \x20                [--compact-after <ops>] [--workers <n>]\n\
         \x20                [--metrics-dump <file.json>] [--metrics-interval <secs>]\n\
         \n\
         Serves incremental NGD violation detection over a memory-mapped\n\
         snapshot until a client sends SHUTDOWN (`ngd-cli shutdown`).\n\
         With --metrics-dump, the daemon rewrites <file.json> with a\n\
         metrics-registry snapshot every --metrics-interval seconds\n\
         (default 30) and once more on shutdown."
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut snapshot: Option<PathBuf> = None;
    let mut listen = ServeAddr::Tcp("127.0.0.1:7411".into());
    let mut rules = None;
    let mut processors = None;
    let mut compact_after = None;
    let mut metrics_dump = None;
    let mut metrics_interval = None;
    let mut workers = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |what: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("missing value for {what}");
                usage()
            })
        };
        match arg.as_str() {
            "--snapshot" => snapshot = Some(PathBuf::from(value("--snapshot"))),
            "--listen" => match ServeAddr::parse(&value("--listen")) {
                Ok(addr) => listen = addr,
                Err(e) => {
                    eprintln!("{e}");
                    usage()
                }
            },
            "--rules" => rules = Some(PathBuf::from(value("--rules"))),
            "--processors" => match value("--processors").parse() {
                Ok(n) => processors = Some(n),
                Err(_) => usage(),
            },
            "--compact-after" => match value("--compact-after").parse() {
                Ok(n) => compact_after = Some(n),
                Err(_) => usage(),
            },
            "--workers" => match value("--workers").parse() {
                Ok(n) => workers = Some(n),
                Err(_) => usage(),
            },
            "--metrics-dump" => metrics_dump = Some(PathBuf::from(value("--metrics-dump"))),
            "--metrics-interval" => match value("--metrics-interval").parse() {
                Ok(secs) => metrics_interval = Some(secs),
                Err(_) => usage(),
            },
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument `{other}`");
                usage()
            }
        }
    }
    let Some(snapshot) = snapshot else {
        eprintln!("--snapshot is required");
        usage()
    };
    Args {
        snapshot,
        listen,
        rules,
        processors,
        compact_after,
        metrics_dump,
        metrics_interval,
        workers,
    }
}

/// Load a rules file in either supported format (`.ngdl` or JSON);
/// `ngd_lang::load_rules` sniffs which parser applies.
fn load_rules(path: &PathBuf) -> Result<RuleSet, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    ngd_lang::load_rules(&text).map_err(|e| format!("parse {}: {e}", path.display()))
}

fn main() -> ExitCode {
    let args = parse_args();

    let store = match SnapshotStore::open(&args.snapshot) {
        Ok(store) => store,
        Err(e) => {
            eprintln!("ngd-serve: cannot map {}: {e}", args.snapshot.display());
            return ExitCode::FAILURE;
        }
    };

    let sigma = match &args.rules {
        Some(path) => match load_rules(path) {
            Ok(sigma) => sigma,
            Err(e) => {
                eprintln!("ngd-serve: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => ngd_core::paper::paper_rule_set(),
    };

    let mut detector = DetectorConfig::default();
    if let Some(p) = args.processors {
        detector.processors = p.max(1);
    }

    println!(
        "ngd-serve: snapshot {} ({} nodes, {} edges), ‖Σ‖ = {} (dΣ = {})",
        args.snapshot.display(),
        store.node_count(),
        store.edge_count(),
        sigma.len(),
        sigma.diameter(),
    );

    let options = ServeOptions {
        compact_after: args.compact_after,
        metrics_dump: args.metrics_dump.clone(),
        metrics_interval: args.metrics_interval.map(std::time::Duration::from_secs),
        worker_threads: args.workers,
        write_buffer_limit: None,
    };
    let server = match Server::start_with(store, sigma, &args.listen, detector, options) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("ngd-serve: cannot listen on {}: {e}", args.listen);
            return ExitCode::FAILURE;
        }
    };
    println!("ngd-serve: listening on {}", server.local_addr());
    server.wait();
    println!("ngd-serve: shut down");
    ExitCode::SUCCESS
}
