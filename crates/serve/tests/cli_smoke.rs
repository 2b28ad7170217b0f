//! Smoke tests for `ngd-cli`'s offline error paths.
//!
//! Each failure mode must exit nonzero with a *typed*, human-readable
//! message — never a panic, never a zero exit on bad input.  Exercised as
//! a real subprocess via `CARGO_BIN_EXE_ngd-cli`.

use std::path::PathBuf;
use std::process::{Command, Output};

const GOOD_RULES: &str = r#"
RULE no_fake_accts:
  MATCH (x:Account)-[:follows]->(y:Account)
  WHERE x.balance > 10 * y.balance
  => false
"#;

// Line 3 ends in a dangling `>`: the caret must land there.
const BAD_RULES: &str = "RULE broken:\n  MATCH (x:Account)\n  WHERE x.balance >\n  => false\n";

// The retired `rule name { … }` block syntax: no parser is left for it, so
// it reaches the `.ngdl` parser, which stops at the `{` on line 2.
const RETIRED_SYNTAX_RULES: &str = "# old syntax\nrule r { match (x:A); then x.v = 1; }\n";

fn cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ngd-cli"))
        .args(args)
        .output()
        .expect("ngd-cli runs")
}

fn write_temp(name: &str, contents: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("ngd-cli-smoke-{}-{name}", std::process::id()));
    std::fs::write(&path, contents).expect("temp rule file writes");
    path
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn stdout_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn no_arguments_prints_usage_and_exits_2() {
    let out = cli(&[]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr_of(&out).contains("usage:"),
        "no usage in: {}",
        stderr_of(&out)
    );
}

#[test]
fn an_unknown_command_prints_usage_and_exits_2() {
    let out = cli(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr_of(&out).contains("usage:"));
}

#[test]
fn check_accepts_a_valid_ngdl_file() {
    let path = write_temp("good.ngdl", GOOD_RULES);
    let out = cli(&["check", path.to_str().unwrap()]);
    std::fs::remove_file(&path).ok();
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr_of(&out));
    let stdout = stdout_of(&out);
    assert!(
        stdout.contains("1 rule(s) ok"),
        "unexpected stdout: {stdout}"
    );
    assert!(
        stdout.contains("no_fake_accts"),
        "unexpected stdout: {stdout}"
    );
}

#[test]
fn check_reports_a_parse_error_with_a_caret_and_exits_nonzero() {
    for (name, rules, snippet) in [
        ("bad.ngdl", BAD_RULES, "  4 |   => false\n    |   ^"),
        (
            "retired.ngd",
            RETIRED_SYNTAX_RULES,
            "  2 | rule r { match (x:A); then x.v = 1; }\n    |        ^",
        ),
    ] {
        let path = write_temp(name, rules);
        let out = cli(&["check", path.to_str().unwrap()]);
        std::fs::remove_file(&path).ok();
        assert_eq!(out.status.code(), Some(1), "{name}");
        let stderr = stderr_of(&out);
        assert!(
            stderr.contains("parse error at line"),
            "{name}: no positioned parse error in: {stderr}"
        );
        assert!(
            stderr.contains(snippet),
            "{name}: no caret snippet in: {stderr}"
        );
    }
}

#[test]
fn check_on_a_missing_file_is_a_typed_read_error() {
    let out = cli(&["check", "/nonexistent/rules.ngdl"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr_of(&out).contains("read /nonexistent/rules.ngdl"));
}

#[test]
fn explain_with_a_bad_rule_id_is_a_typed_error_not_an_io_failure() {
    // The regression this pins: `explain <rules> bogus` used to treat
    // `bogus` as a snapshot path and die with a confusing open error.  A
    // second positional that does not look like a snapshot is a rule-id
    // filter, and an unknown id must say so, nonzero.
    let path = write_temp("explain.ngdl", GOOD_RULES);
    let out = cli(&["explain", path.to_str().unwrap(), "bogus"]);
    std::fs::remove_file(&path).ok();
    assert_eq!(out.status.code(), Some(1));
    let stderr = stderr_of(&out);
    assert!(
        stderr.contains("no rule `bogus` in the rule set"),
        "unexpected stderr: {stderr}"
    );
    assert!(
        !stderr.contains("read bogus"),
        "rule id misparsed as a snapshot path: {stderr}"
    );
}

#[test]
fn explain_with_a_known_rule_id_prints_only_that_plan() {
    let path = write_temp("explain-ok.ngdl", GOOD_RULES);
    let out = cli(&["explain", path.to_str().unwrap(), "no_fake_accts"]);
    std::fs::remove_file(&path).ok();
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr_of(&out));
    assert!(stdout_of(&out).contains("no_fake_accts"));
}

#[test]
fn explain_prints_each_literal_check_under_the_step_that_decides_it() {
    let path = write_temp("explain-schedule.ngdl", GOOD_RULES);
    let out = cli(&["explain", path.to_str().unwrap()]);
    std::fs::remove_file(&path).ok();
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr_of(&out));
    let stdout = stdout_of(&out);
    // The premise names x and y, so it can only bite once the second of
    // them is bound; `=> false` names no variable and is checked before
    // the search starts.
    let lines: Vec<&str> = stdout.lines().collect();
    let second_step = lines
        .iter()
        .position(|l| l.trim_start().starts_with("1. "))
        .unwrap_or_else(|| panic!("no step 1 in: {stdout}"));
    assert_eq!(
        lines[second_step + 1].trim(),
        "check premise #0: x.balance > (10 * y.balance)",
        "unexpected stdout: {stdout}"
    );
    assert_eq!(
        stdout.matches("check ").count(),
        1,
        "unexpected stdout: {stdout}"
    );
}

#[test]
fn explain_with_a_missing_snapshot_file_fails_typed() {
    let path = write_temp("explain-snap.ngdl", GOOD_RULES);
    let out = cli(&["explain", path.to_str().unwrap(), "/nonexistent/snap.ngds"]);
    std::fs::remove_file(&path).ok();
    assert_eq!(out.status.code(), Some(1));
    // `.ngds` means "snapshot", so this must be a snapshot error, not a
    // "no rule" complaint.
    assert!(!stderr_of(&out).contains("no rule"));
}

/// A snapshot of the retired sharded kind (header kind word 2) must be
/// refused by every entry point with the typed `WrongKind` message and a
/// non-zero exit — not a panic, not a fallback reader.  No writer for the
/// kind remains, so the file is a shared one with its kind word patched
/// (the word sits outside the checksummed range).
#[test]
fn a_kind_2_snapshot_is_rejected_by_explain_compact_and_the_daemon() {
    use ngd_graph::persist::{format::file_kind, SnapshotWriter};

    let (graph, _) = ngd_core::paper::figure1_g4();
    let mut bytes = SnapshotWriter::new().encode(&graph.freeze());
    bytes[12..16].copy_from_slice(&file_kind::SHARDED.to_le_bytes());
    let snap = write_temp("kind2.ngds", "");
    std::fs::write(&snap, &bytes).expect("patched snapshot writes");
    let snap_arg = snap.to_str().unwrap();
    let rules = write_temp("kind2.ngdl", GOOD_RULES);
    let out_path = write_temp("kind2-out.ngds", "");

    let explain = cli(&["explain", rules.to_str().unwrap(), snap_arg]);
    let compact = cli(&["compact", snap_arg, out_path.to_str().unwrap()]);
    let daemon = Command::new(env!("CARGO_BIN_EXE_ngd-serve"))
        .args(["--snapshot", snap_arg, "--listen", "tcp:127.0.0.1:0"])
        .output()
        .expect("ngd-serve runs");
    for path in [&snap, &rules, &out_path] {
        std::fs::remove_file(path).ok();
    }
    for (what, out) in [
        ("explain", explain),
        ("compact", compact),
        ("ngd-serve", daemon),
    ] {
        assert_eq!(out.status.code(), Some(1), "{what}: {}", stderr_of(&out));
        let err = stderr_of(&out);
        assert!(
            err.contains("snapshot kind 2 is no longer supported"),
            "{what}: {err}"
        );
        assert!(err.contains("ngd-cli load"), "{what}: {err}");
    }
}

#[test]
fn rules_against_a_dead_daemon_fails_typed_after_local_validation() {
    let path = write_temp("rules.ngdl", GOOD_RULES);
    // Port 9 (discard) is a safe never-listening target.
    let out = cli(&[
        "--connect",
        "tcp:127.0.0.1:9",
        "rules",
        path.to_str().unwrap(),
    ]);
    std::fs::remove_file(&path).ok();
    assert_eq!(out.status.code(), Some(1));
    let stderr = stderr_of(&out);
    assert!(stderr.contains("connect"), "unexpected stderr: {stderr}");
}

#[test]
fn rules_with_a_parse_error_fails_locally_before_connecting() {
    let path = write_temp("rules-bad.ngdl", BAD_RULES);
    let out = cli(&[
        "--connect",
        "tcp:127.0.0.1:9",
        "rules",
        path.to_str().unwrap(),
    ]);
    std::fs::remove_file(&path).ok();
    assert_eq!(out.status.code(), Some(1));
    let stderr = stderr_of(&out);
    // Validated locally: the parse error surfaces, not a connection error.
    assert!(
        stderr.contains("parse error at line"),
        "unexpected stderr: {stderr}"
    );
}

#[test]
fn metrics_with_a_bogus_format_prints_usage_and_exits_2() {
    let out = cli(&["metrics", "--format", "xml"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr_of(&out).contains("usage:"));
}

#[test]
fn top_with_a_bogus_interval_prints_usage_and_exits_2() {
    let out = cli(&["top", "-3"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr_of(&out).contains("usage:"));
}

#[test]
fn metrics_against_a_dead_daemon_fails_typed() {
    let out = cli(&["--connect", "tcp:127.0.0.1:9", "metrics"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr_of(&out).contains("connect"));
}

/// End-to-end against a live daemon: `metrics` must emit valid Prometheus
/// text (and JSON with `--format json`), `top` must run its ticks and
/// exit, and `stats` must show the uptime and plan-cache hit-rate lines.
#[test]
fn metrics_top_and_stats_work_against_a_live_daemon() {
    use ngd_core::{paper, RuleSet};
    use ngd_detect::DetectorConfig;
    use ngd_graph::persist::SnapshotWriter;
    use ngd_serve::{ServeAddr, ServeClient, Server, SnapshotStore};

    let (graph, _) = paper::figure1_g4();
    let snap_path = write_temp("metrics-live.ngds", "");
    SnapshotWriter::new()
        .write(&graph.freeze(), &snap_path)
        .expect("snapshot writes");
    let server = Server::start(
        SnapshotStore::open(&snap_path).unwrap(),
        RuleSet::from_rules(vec![paper::phi4(1, 1, 10_000)]),
        &ServeAddr::Tcp("127.0.0.1:0".into()),
        DetectorConfig::default(),
    )
    .expect("server starts");
    let connect = server.local_addr().to_string();

    // Drive one detection so the registry has matcher/detect metrics.
    let mut warm = ServeClient::connect(server.local_addr()).unwrap();
    warm.query().unwrap();
    drop(warm);

    let prom = cli(&["--connect", &connect, "metrics"]);
    assert_eq!(prom.status.code(), Some(0), "{}", stderr_of(&prom));
    let text = stdout_of(&prom);
    assert!(
        text.contains("# TYPE ngd_serve_frame_query_count counter"),
        "no per-frame counter in:\n{text}"
    );
    assert!(text.contains("ngd_matcher_plan_cache_misses"));
    assert!(text.contains("ngd_serve_frame_query_latency_ns_bucket{le=\"+Inf\"}"));

    let json = cli(&["--connect", &connect, "metrics", "--format", "json"]);
    assert_eq!(json.status.code(), Some(0));
    assert!(stdout_of(&json).contains("\"serve.frame.query.count\""));

    let top = cli(&["--connect", &connect, "top", "0.05", "2"]);
    assert_eq!(top.status.code(), Some(0), "{}", stderr_of(&top));
    let top_text = stdout_of(&top);
    assert_eq!(top_text.matches("ngd-top @").count(), 2, "{top_text}");
    assert!(top_text.contains("plan cache"), "{top_text}");

    let stats = cli(&["--connect", &connect, "stats"]);
    assert_eq!(stats.status.code(), Some(0));
    let stats_text = stdout_of(&stats);
    assert!(stats_text.contains("hit rate"), "{stats_text}");
    assert!(stats_text.contains("service    : up "), "{stats_text}");

    let shutdown = cli(&["--connect", &connect, "shutdown"]);
    assert_eq!(shutdown.status.code(), Some(0));
    server.wait();
    std::fs::remove_file(&snap_path).ok();
}
