//! `ngd-cli` — the operator client for a running `ngd-serve` daemon.
//!
//! ```text
//! ngd-cli [--connect unix:<path>|tcp:<host>:<port>] <command>
//!
//! commands:
//!   load <graph.json> <out.ngds>  freeze a graph JSON into a snapshot file
//!                                 (offline; what the daemon serves)
//!   compact <in.ngds> <out.ngds> [delta.json]
//!                                 offline: merge an optional ΔG batch into a
//!                                 snapshot file, stamping the next epoch
//!   compact                       online: ask the daemon to fold this
//!                                 session's accumulated ΔG into a new epoch
//!                                 and publish it to every session
//!   epoch                         session + server snapshot epochs
//!   update <batch.json>           submit a ΔG batch, stream ΔVio back
//!   query                         full detection over the session state
//!   rules <file>                  install a session rule set (.ngdl or
//!                                 JSON — the format is sniffed)
//!   check <rules> [snap]          offline: parse + lower a rule file,
//!                                 report each rule (pattern size, literal
//!                                 counts, denial?) and its compiled match
//!                                 plan; parse errors print a caret snippet
//!                                 and exit nonzero
//!   explain <rules> [snap] [id]   offline: compile each rule (or just `id`)
//!                                 against a snapshot (or empty statistics)
//!                                 and print its match plan — seed choice,
//!                                 variable order, per-step cost estimates
//!   stats                         server + session statistics
//!   metrics [--format prom|json]  dump the daemon's metrics registry —
//!                                 every counter, gauge and histogram —
//!                                 as Prometheus text (default) or JSON
//!   top [interval [count]]        live dashboard: refresh every
//!                                 `interval` seconds (default 2),
//!                                 showing per-frame request rates and
//!                                 latencies, plan-cache hit rate and
//!                                 session/byte counters; `count` ticks
//!                                 then exit (default: until Ctrl-C)
//!   reset                         drop the session's accumulated ΔG
//!   shutdown                      stop the daemon gracefully
//! ```
//!
//! Sessions live as long as their connection: each `ngd-cli` invocation
//! opens a fresh one, so a batch accumulates only within that invocation
//! (the `update` command streams the batch's own `ΔVio` before exiting).
//! Long-lived sessions that absorb many batches are the [`ServeClient`]
//! library's job — keep one client connected and keep submitting.

use ngd_core::RuleSet;
use ngd_graph::persist::{CompactionWriter, MmapSnapshot, SnapshotWriter};
use ngd_graph::{BatchUpdate, GraphView};
use ngd_match::compile_rule_plan;
use ngd_serve::{ServeAddr, ServeClient, Side};
use std::process::ExitCode;

fn usage() -> ! {
    eprintln!(
        "usage: ngd-cli [--connect unix:<path>|tcp:<host>:<port>] <command>\n\
         commands: load <graph.json> <out.ngds> |\n\
         \x20         compact [<in.ngds> <out.ngds> [delta.json]] | epoch |\n\
         \x20         update <batch.json> | query |\n\
         \x20         rules <file> | check <rules> [<snapshot.ngds>] |\n\
         \x20         explain <rules> [<snapshot.ngds>] [<rule-id>] |\n\
         \x20         stats | metrics [--format prom|json] |\n\
         \x20         top [<interval-secs> [<count>]] | reset | shutdown"
    );
    std::process::exit(2);
}

fn fail(message: String) -> ExitCode {
    eprintln!("ngd-cli: {message}");
    ExitCode::FAILURE
}

fn connect(addr: &ServeAddr) -> Result<ServeClient, String> {
    ServeClient::connect_as(addr, "ngd-cli").map_err(|e| format!("connect {addr}: {e}"))
}

/// Plan-cache effectiveness as a percentage string (`"98.2%"`), or `"—"`
/// before the cache has been consulted at all.
fn hit_rate(hits: u64, misses: u64) -> String {
    match hits + misses {
        0 => "—".to_string(),
        total => format!("{:.1}%", 100.0 * hits as f64 / total as f64),
    }
}

/// A nanosecond quantity as a humane duration (`1.2ms`, `840µs`).
fn fmt_ns(ns: u64) -> String {
    format!("{:?}", std::time::Duration::from_nanos(ns))
}

/// The per-second rate of counter `name` between two snapshots taken
/// `elapsed` apart (0.0 on the first tick, when there is no `prev`).
fn counter_rate(
    prev: Option<&ngd_obs::MetricsSnapshot>,
    cur: &ngd_obs::MetricsSnapshot,
    name: &str,
    elapsed: std::time::Duration,
) -> f64 {
    let Some(prev) = prev else { return 0.0 };
    let before = prev.counter(name).unwrap_or(0);
    let after = cur.counter(name).unwrap_or(0);
    let secs = elapsed.as_secs_f64();
    if secs <= 0.0 {
        0.0
    } else {
        after.saturating_sub(before) as f64 / secs
    }
}

/// One `top` refresh: rates are counter deltas against the previous
/// snapshot, latencies are lifetime histogram quantiles.
fn print_top_tick(
    server: &str,
    stats: &ngd_serve::StatsResponse,
    prev: Option<&ngd_obs::MetricsSnapshot>,
    cur: &ngd_obs::MetricsSnapshot,
    elapsed: std::time::Duration,
) {
    println!(
        "ngd-top @ {server} — uptime {}s, epoch {}, {} active / {} total session(s)",
        stats.uptime_secs, stats.published_epoch, stats.sessions_active, stats.sessions_total,
    );
    println!(
        "  bytes      : in {:.1}/s, out {:.1}/s ({} in / {} out total)",
        counter_rate(prev, cur, "serve.bytes.in", elapsed),
        counter_rate(prev, cur, "serve.bytes.out", elapsed),
        cur.counter("serve.bytes.in").unwrap_or(0),
        cur.counter("serve.bytes.out").unwrap_or(0),
    );
    println!(
        "  reactor    : {:.1} iter/s, {:.1} ready/s, queue depth {}, {} backpressure stall(s)",
        counter_rate(prev, cur, "serve.loop.iterations", elapsed),
        counter_rate(prev, cur, "serve.loop.ready_events", elapsed),
        cur.gauge("serve.queue.depth").unwrap_or(0),
        cur.counter("serve.backpressure.stalls").unwrap_or(0),
    );
    if let Some(first) = cur.histogram("serve.first_vio.ns") {
        println!(
            "  first vio  : {} streamed answer(s), p50 {} / p95 {} to first violation",
            first.count,
            fmt_ns(first.p50()),
            fmt_ns(first.p95()),
        );
    }
    println!(
        "  plan cache : {} hit rate ({} hit(s), {} miss(es))",
        hit_rate(stats.plan_cache_hits, stats.plan_cache_misses),
        stats.plan_cache_hits,
        stats.plan_cache_misses,
    );
    let count = |name: &str| cur.counter(name).unwrap_or(0);
    let expanded = count("matcher.search.expanded");
    if expanded > 0 {
        println!(
            "  matcher    : {:.2} literal eval(s) per expanded node ({} pruned), \
             {} of candidate lists borrowed",
            count("matcher.literal.evals") as f64 / expanded as f64,
            count("matcher.literal.pruned"),
            hit_rate(
                count("matcher.candidates.borrowed"),
                count("matcher.candidates.materialised"),
            ),
        );
    }
    if let Some(runs) = cur.histogram("detect.batch.run_ns") {
        println!(
            "  detect     : {} batch run(s), p50 {} / p95 {}; {} delta run(s)",
            runs.count,
            fmt_ns(runs.p50()),
            fmt_ns(runs.p95()),
            cur.counter("detect.delta.runs")
                .or_else(|| cur.histogram("detect.delta.run_ns").map(|h| h.count))
                .unwrap_or(0),
        );
    }
    // Per-frame request rates, busiest first; latency quantiles come
    // from the paired `serve.frame.<kind>.latency_ns` histogram.
    let mut frames: Vec<(String, u64, f64)> = cur
        .counters
        .iter()
        .filter_map(|c| {
            let kind = c
                .name
                .strip_prefix("serve.frame.")?
                .strip_suffix(".count")?;
            Some((
                kind.to_string(),
                c.value,
                counter_rate(prev, cur, &c.name, elapsed),
            ))
        })
        .collect();
    frames.sort_by(|a, b| b.2.total_cmp(&a.2).then(b.1.cmp(&a.1)));
    for (kind, total, rate) in frames {
        let latency = cur
            .histogram(&format!("serve.frame.{kind}.latency_ns"))
            .map(|h| format!("p50 {} / p95 {}", fmt_ns(h.p50()), fmt_ns(h.p95())))
            .unwrap_or_else(|| "—".to_string());
        println!("  frame      : {kind:<9} {rate:>7.1}/s  ({total} total, {latency})");
    }
}

/// Parse a rule set in either supported format (`.ngdl` or JSON);
/// `ngd_lang::load_rules` sniffs which parser applies.  `.ngdl` errors
/// keep their multi-line caret snippet.
fn parse_rules(text: &str) -> Result<RuleSet, String> {
    ngd_lang::load_rules(text).map_err(|e| e.to_string())
}

/// Does an `explain` positional argument name a snapshot (rather than a
/// rule id)?  Snapshots end in `.ngds`; an existing file of any name also
/// counts so unconventionally named snapshots keep working.
fn looks_like_snapshot(arg: &str) -> bool {
    arg.ends_with(".ngds") || std::path::Path::new(arg).exists()
}

/// Compile and print the match plan of every rule (or just `filter`)
/// against `graph`'s statistics.
fn explain_rules<G: GraphView>(
    sigma: &RuleSet,
    graph: &G,
    filter: Option<&str>,
) -> Result<(), String> {
    let mut found = false;
    for rule in sigma.rules() {
        if filter.is_some_and(|id| id != rule.id) {
            continue;
        }
        found = true;
        let plan = compile_rule_plan(rule, graph, &[]);
        println!("{}:", rule.id);
        print!("{}", plan.describe(rule));
    }
    match filter {
        Some(id) if !found => Err(format!("no rule `{id}` in the rule set")),
        _ => Ok(()),
    }
}

/// Describe every rule (pattern size, literal counts, denial flag) and
/// its compiled match plan against `graph`'s statistics.
fn check_rules<G: GraphView>(sigma: &RuleSet, graph: &G) -> Result<(), String> {
    for rule in sigma.rules() {
        let kind = if ngd_lang::is_denial(rule) {
            " [denial]"
        } else {
            ""
        };
        println!(
            "{}: {} node(s), {} edge(s), {} premise / {} consequence literal(s){kind}",
            rule.id,
            rule.pattern.node_count(),
            rule.pattern.edge_count(),
            rule.premise.len(),
            rule.consequence.len(),
        );
        let plan = compile_rule_plan(rule, graph, &[]);
        print!("{}", plan.describe(rule));
    }
    Ok(())
}

/// Load `snap_path` and print a header with its statistics.
fn load_snapshot_stats(snap_path: &str) -> Result<MmapSnapshot, String> {
    let snapshot = MmapSnapshot::load(std::path::Path::new(snap_path))
        .map_err(|e| format!("load {snap_path}: {e}"))?;
    println!(
        "plans over {snap_path} (epoch {}, {} nodes, {} edges):",
        snapshot.epoch(),
        GraphView::node_count(&snapshot),
        GraphView::edge_count(&snapshot),
    );
    Ok(snapshot)
}

fn main() -> ExitCode {
    let mut addr = ServeAddr::Tcp("127.0.0.1:7411".into());
    let mut rest: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--connect" => match args.next().as_deref().map(ServeAddr::parse) {
                Some(Ok(parsed)) => addr = parsed,
                _ => usage(),
            },
            "--help" | "-h" => usage(),
            _ => {
                rest.push(arg);
                rest.extend(args.by_ref());
            }
        }
    }
    let Some(command) = rest.first().map(String::as_str) else {
        usage()
    };

    match command {
        // Offline: graph file -> frozen snapshot file (no daemon involved).
        // Accepts the JSON round-trip form (leading `{`) or the text
        // edge-list format of `ngd_graph::io` (`N <id> <label> [k=v]...` /
        // `E <src> <dst> <label>` lines).
        "load" => {
            let (Some(graph_path), Some(out_path)) = (rest.get(1), rest.get(2)) else {
                usage()
            };
            let text = match std::fs::read_to_string(graph_path) {
                Ok(text) => text,
                Err(e) => return fail(format!("read {graph_path}: {e}")),
            };
            let parsed = if text.trim_start().starts_with('{') {
                ngd_graph::io::from_json(&text)
            } else {
                ngd_graph::io::from_text(&text)
            };
            let graph = match parsed {
                Ok(graph) => graph,
                Err(e) => return fail(format!("parse {graph_path}: {e}")),
            };
            let snapshot = graph.freeze();
            match SnapshotWriter::new().write(&snapshot, std::path::Path::new(out_path)) {
                Ok(bytes) => {
                    println!(
                        "froze {} nodes / {} edges into {out_path} ({bytes} bytes)",
                        graph.node_count(),
                        graph.edge_count()
                    );
                    ExitCode::SUCCESS
                }
                Err(e) => fail(format!("write {out_path}: {e}")),
            }
        }
        // Offline with paths; online (trigger the daemon) without.
        "compact" => match (rest.get(1), rest.get(2)) {
            (Some(in_path), Some(out_path)) => {
                let delta = match rest.get(3) {
                    Some(delta_path) => {
                        let text = match std::fs::read_to_string(delta_path) {
                            Ok(text) => text,
                            Err(e) => return fail(format!("read {delta_path}: {e}")),
                        };
                        match ngd_json::from_str(&text) {
                            Ok(batch) => batch,
                            Err(e) => return fail(format!("parse {delta_path}: {e}")),
                        }
                    }
                    None => BatchUpdate::new(),
                };
                match CompactionWriter::new().compact_file(
                    std::path::Path::new(in_path),
                    &delta,
                    std::path::Path::new(out_path),
                ) {
                    Ok(report) => {
                        println!(
                            "compacted {in_path} ⊕ {} unit update(s) into {out_path}: \
                             epoch {}, {} nodes, {} edges, {} bytes",
                            delta.len(),
                            report.epoch,
                            report.node_count,
                            report.edge_count,
                            report.bytes,
                        );
                        ExitCode::SUCCESS
                    }
                    Err(e) => fail(format!("compact: {e}")),
                }
            }
            (None, _) => {
                let mut client = match connect(&addr) {
                    Ok(client) => client,
                    Err(e) => return fail(e),
                };
                match client.compact() {
                    Ok(response) => {
                        println!(
                            "compacted: now serving epoch {} ({} nodes, {} edges), \
                             {} compaction(s) since startup",
                            response.epoch,
                            response.snapshot_nodes,
                            response.snapshot_edges,
                            response.compactions,
                        );
                        ExitCode::SUCCESS
                    }
                    Err(e) => fail(format!("compact: {e}")),
                }
            }
            _ => usage(),
        },
        "epoch" => {
            let mut client = match connect(&addr) {
                Ok(client) => client,
                Err(e) => return fail(e),
            };
            match client.epoch() {
                Ok(response) => {
                    println!(
                        "session epoch {} / published epoch {} ({} nodes, {} edges), \
                         {} compaction(s) since startup",
                        response.epoch,
                        response.published_epoch,
                        response.snapshot_nodes,
                        response.snapshot_edges,
                        response.compactions,
                    );
                    ExitCode::SUCCESS
                }
                Err(e) => fail(format!("epoch: {e}")),
            }
        }
        "update" => {
            let Some(batch_path) = rest.get(1) else {
                usage()
            };
            let text = match std::fs::read_to_string(batch_path) {
                Ok(text) => text,
                Err(e) => return fail(format!("read {batch_path}: {e}")),
            };
            let batch: BatchUpdate = match ngd_json::from_str(&text) {
                Ok(batch) => batch,
                Err(e) => return fail(format!("parse {batch_path}: {e}")),
            };
            let mut client = match connect(&addr) {
                Ok(client) => client,
                Err(e) => return fail(e),
            };
            let result = client.submit_update_streaming(&batch, |side, violations| {
                let sign = match side {
                    Side::Added => '+',
                    Side::Removed => '-',
                };
                for violation in violations {
                    println!("{sign} {violation}");
                }
            });
            match result {
                Ok(done) => {
                    println!(
                        "{} @ epoch {}: ΔVio⁺ = {}, ΔVio⁻ = {} in {:?} on {} worker(s) [{}]",
                        done.algorithm,
                        done.epoch,
                        done.added_total,
                        done.removed_total,
                        std::time::Duration::from_nanos(done.elapsed_nanos),
                        done.processors,
                        done.cost,
                    );
                    ExitCode::SUCCESS
                }
                Err(e) => fail(format!("update: {e}")),
            }
        }
        "query" => {
            let mut client = match connect(&addr) {
                Ok(client) => client,
                Err(e) => return fail(e),
            };
            let result = client.query_streaming(|_, violations| {
                for violation in violations {
                    println!("{violation}");
                }
            });
            match result {
                Ok(done) => {
                    println!(
                        "{}: {} violations in {:?} on {} worker(s)",
                        done.algorithm,
                        done.added_total,
                        std::time::Duration::from_nanos(done.elapsed_nanos),
                        done.processors,
                    );
                    ExitCode::SUCCESS
                }
                Err(e) => fail(format!("query: {e}")),
            }
        }
        "rules" => {
            let Some(rules_path) = rest.get(1) else {
                usage()
            };
            let text = match std::fs::read_to_string(rules_path) {
                Ok(text) => text,
                Err(e) => return fail(format!("read {rules_path}: {e}")),
            };
            // Validate locally for a good error message (with caret
            // snippet for .ngdl), then ship the raw source — the server
            // re-sniffs and compiles it, so any accepted format works
            // over the wire unchanged.
            if let Err(e) = parse_rules(&text) {
                return fail(format!("parse {rules_path}: {e}"));
            }
            let mut client = match connect(&addr) {
                Ok(client) => client,
                Err(e) => return fail(e),
            };
            match client.set_rules_source(&text) {
                Ok(message) => {
                    println!("{message}");
                    ExitCode::SUCCESS
                }
                Err(e) => fail(format!("rules: {e}")),
            }
        }
        // Offline: parse + lower a rule file, then describe every rule and
        // its compiled match plan.  The linter's exit code is the check:
        // parse or lowering errors print (with caret snippets for .ngdl)
        // and exit nonzero.
        "check" => {
            let Some(rules_path) = rest.get(1) else {
                usage()
            };
            let text = match std::fs::read_to_string(rules_path) {
                Ok(text) => text,
                Err(e) => return fail(format!("read {rules_path}: {e}")),
            };
            let sigma = match parse_rules(&text) {
                Ok(sigma) => sigma,
                Err(e) => return fail(format!("check {rules_path}:\n{e}")),
            };
            let checked = match rest.get(2) {
                Some(snap_path) => load_snapshot_stats(snap_path)
                    .and_then(|snapshot| check_rules(&sigma, &snapshot)),
                None => {
                    println!("plans over empty statistics (no snapshot given):");
                    check_rules(&sigma, &ngd_graph::Graph::new())
                }
            };
            match checked {
                Ok(()) => {
                    println!(
                        "{rules_path}: {} rule(s) ok, dΣ = {}",
                        sigma.len(),
                        sigma.diameter()
                    );
                    ExitCode::SUCCESS
                }
                Err(e) => fail(format!("check: {e}")),
            }
        }
        // Offline: compile each rule's match plan and print it.  With a
        // snapshot path the planner sees that file's label and triple-index
        // statistics (what the daemon serving it would compile); without
        // one it plans against empty statistics — the pure pattern-shape
        // order.
        "explain" => {
            let Some(rules_path) = rest.get(1) else {
                usage()
            };
            let text = match std::fs::read_to_string(rules_path) {
                Ok(text) => text,
                Err(e) => return fail(format!("read {rules_path}: {e}")),
            };
            let sigma = match parse_rules(&text) {
                Ok(sigma) => sigma,
                Err(e) => return fail(format!("parse {rules_path}: {e}")),
            };
            // Disambiguate the positionals: `explain <rules> <id>` (no
            // snapshot) and `explain <rules> <snap> [<id>]` are both
            // accepted — a lone second argument is a snapshot only if it
            // looks like one, so a mistyped rule id reports "no rule"
            // instead of a confusing snapshot-open error.
            let (snapshot, filter) = match (rest.get(2), rest.get(3)) {
                (Some(snap), Some(id)) => (Some(snap.as_str()), Some(id.as_str())),
                (Some(arg), None) if looks_like_snapshot(arg) => (Some(arg.as_str()), None),
                (Some(arg), None) => (None, Some(arg.as_str())),
                (None, _) => (None, None),
            };
            let explained = match snapshot {
                Some(snap_path) => load_snapshot_stats(snap_path)
                    .and_then(|snapshot| explain_rules(&sigma, &snapshot, filter)),
                None => {
                    println!("plans over empty statistics (no snapshot given):");
                    explain_rules(&sigma, &ngd_graph::Graph::new(), filter)
                }
            };
            match explained {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => fail(format!("explain: {e}")),
            }
        }
        "stats" => {
            let mut client = match connect(&addr) {
                Ok(client) => client,
                Err(e) => return fail(e),
            };
            let info = client.server_info().clone();
            match client.stats() {
                Ok(stats) => {
                    println!("server     : {}", info.server);
                    println!(
                        "snapshot   : {} nodes, {} edges, epoch {}{}",
                        stats.snapshot_nodes,
                        stats.snapshot_edges,
                        stats.epoch,
                        if stats.published_epoch != stats.epoch {
                            format!(" (server publishes epoch {})", stats.published_epoch)
                        } else {
                            String::new()
                        }
                    );
                    println!(
                        "session    : {} nodes, {} edges ({} ops over {} batches)",
                        stats.session_nodes,
                        stats.session_edges,
                        stats.accumulated_ops,
                        stats.batches_applied
                    );
                    println!(
                        "pending    : {} node(s), {} edge op(s) awaiting compaction",
                        stats.pending_nodes, stats.pending_edge_ops
                    );
                    println!(
                        "service    : up {}s, {} active / {} total sessions, \
                         {} updates served, {} violations streamed",
                        stats.uptime_secs,
                        stats.sessions_active,
                        stats.sessions_total,
                        stats.updates_served,
                        stats.violations_streamed
                    );
                    println!(
                        "plan cache : {} hit rate ({} hit(s), {} miss(es))",
                        hit_rate(stats.plan_cache_hits, stats.plan_cache_misses),
                        stats.plan_cache_hits,
                        stats.plan_cache_misses
                    );
                    ExitCode::SUCCESS
                }
                Err(e) => fail(format!("stats: {e}")),
            }
        }
        // Fetch the daemon's full metrics-registry snapshot over one
        // METRICS frame and render it locally — the wire always carries
        // the snapshot itself, so the output format is a client choice.
        "metrics" => {
            let format = match (
                rest.get(1).map(String::as_str),
                rest.get(2).map(String::as_str),
            ) {
                (None, _) => "prom",
                (Some("--format"), Some(fmt @ ("prom" | "json"))) => fmt,
                _ => usage(),
            };
            let mut client = match connect(&addr) {
                Ok(client) => client,
                Err(e) => return fail(e),
            };
            match client.metrics() {
                Ok(snapshot) => {
                    let rendered = match format {
                        "json" => ngd_obs::render_json_pretty(&snapshot),
                        _ => ngd_obs::render_prometheus(&snapshot),
                    };
                    print!("{rendered}");
                    if !rendered.ends_with('\n') {
                        println!();
                    }
                    ExitCode::SUCCESS
                }
                Err(e) => fail(format!("metrics: {e}")),
            }
        }
        // Live dashboard over one long-lived session: each tick fetches
        // STATS + METRICS and prints rates as counter deltas against the
        // previous tick.
        "top" => {
            let interval = match rest.get(1).map(|s| s.parse::<f64>()) {
                None => 2.0,
                Some(Ok(secs)) if secs > 0.0 => secs,
                _ => usage(),
            };
            let ticks: Option<u64> = match rest.get(2).map(|s| s.parse()) {
                None => None,
                Some(Ok(n)) if n > 0 => Some(n),
                _ => usage(),
            };
            let interval = std::time::Duration::from_secs_f64(interval);
            let mut client = match connect(&addr) {
                Ok(client) => client,
                Err(e) => return fail(e),
            };
            let server = client.server_info().server.clone();
            let mut prev: Option<ngd_obs::MetricsSnapshot> = None;
            let mut last_tick = std::time::Instant::now();
            let mut tick = 0u64;
            loop {
                let stats = match client.stats() {
                    Ok(stats) => stats,
                    Err(e) => return fail(format!("top: {e}")),
                };
                let cur = match client.metrics() {
                    Ok(snapshot) => snapshot,
                    Err(e) => return fail(format!("top: {e}")),
                };
                let elapsed = last_tick.elapsed();
                last_tick = std::time::Instant::now();
                if prev.is_some() {
                    println!();
                }
                print_top_tick(&server, &stats, prev.as_ref(), &cur, elapsed);
                prev = Some(cur);
                tick += 1;
                if ticks.is_some_and(|n| tick >= n) {
                    return ExitCode::SUCCESS;
                }
                std::thread::sleep(interval);
            }
        }
        "reset" => {
            let mut client = match connect(&addr) {
                Ok(client) => client,
                Err(e) => return fail(e),
            };
            match client.reset() {
                Ok(message) => {
                    println!("{message}");
                    ExitCode::SUCCESS
                }
                Err(e) => fail(format!("reset: {e}")),
            }
        }
        "shutdown" => {
            let mut client = match connect(&addr) {
                Ok(client) => client,
                Err(e) => return fail(e),
            };
            match client.shutdown_server() {
                Ok(message) => {
                    println!("{message}");
                    ExitCode::SUCCESS
                }
                Err(e) => fail(format!("shutdown: {e}")),
            }
        }
        _ => usage(),
    }
}
