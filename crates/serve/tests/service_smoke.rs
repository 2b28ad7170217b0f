//! Service smoke test: a daemon over a Unix-domain socket serving
//! concurrent sessions, session isolation, rule swaps, reset and graceful
//! shutdown.  (The full per-scenario byte-identity battery lives in the
//! workspace integration tests, `tests/serve_equivalence.rs`.)

#![cfg(unix)]

use ngd_core::{paper, RuleSet};
use ngd_detect::{pinc_dect, DetectorConfig};
use ngd_graph::persist::SnapshotWriter;
use ngd_graph::{intern, BatchUpdate, Dir};
use ngd_serve::protocol::err_code;
use ngd_serve::{ProtocolError, ServeAddr, ServeClient, Server, SnapshotStore};

fn temp_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "ngd-smoke-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ))
}

#[test]
fn unix_socket_daemon_serves_concurrent_sessions_byte_identically() {
    let (graph, fake) = paper::figure1_g4();
    let sigma = RuleSet::from_rules(vec![paper::phi4(1, 1, 10_000)]);
    let snap_path = temp_path("snap.ngds");
    SnapshotWriter::new()
        .write(&graph.freeze(), &snap_path)
        .expect("snapshot writes");

    let sock_path = temp_path("sock");
    let server = Server::start(
        SnapshotStore::open(&snap_path).expect("snapshot maps"),
        sigma.clone(),
        &ServeAddr::Unix(sock_path.clone()),
        DetectorConfig::with_processors(2),
    )
    .expect("server starts on a unix socket");
    let addr = server.local_addr().clone();

    // The batch every session submits: delete the fake account's status
    // edge (removes the figure-1 violation).
    let status = graph
        .neighbors(fake, Dir::Out)
        .iter()
        .find(|&&(_, l)| l == intern("status"))
        .map(|&(n, _)| n)
        .unwrap();
    let mut delta = BatchUpdate::new();
    delta.delete_edge(fake, status, intern("status"));

    let reference = pinc_dect(&sigma, &graph, &delta, &DetectorConfig::with_processors(2));

    // Three concurrent sessions, each with its own overlay over the one
    // shared mapping; all must get the byte-identical answer.
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..3)
            .map(|i| {
                let addr = addr.clone();
                let delta = delta.clone();
                let expected = reference.delta.clone();
                scope.spawn(move || {
                    let mut client = ServeClient::connect_as(&addr, &format!("smoke-{i}")).unwrap();
                    let served = client.submit_update(&delta).unwrap();
                    assert_eq!(served.delta, expected, "session {i}");
                    assert_eq!(
                        ngd_json::to_string(&served.delta),
                        ngd_json::to_string(&expected),
                        "session {i}: serialized deltas differ"
                    );
                    // Sessions are isolated: each accumulated exactly one op.
                    let stats = client.stats().unwrap();
                    assert_eq!(stats.accumulated_ops, 1, "session {i}");
                    assert_eq!(stats.batches_applied, 1, "session {i}");
                })
            })
            .collect();
        for handle in handles {
            handle.join().expect("session thread");
        }
    });

    // Server-wide counters saw all three sessions.
    let mut client = ServeClient::connect(&addr).unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(stats.updates_served, 3);
    assert!(stats.sessions_total >= 4);
    assert_eq!(stats.violations_streamed, 3 * reference.delta.len() as u64);

    // Reset + re-submit on a fresh session: same answer again.
    let served = client.submit_update(&delta).unwrap();
    assert_eq!(served.delta, reference.delta);
    // The closing summary forwards the detector's own report.
    assert_eq!(served.done.algorithm, "PIncDect");
    assert_eq!(served.done.processors, 2);
    client.reset().unwrap();
    let served = client.submit_update(&delta).unwrap();
    assert_eq!(served.delta, reference.delta);

    client.shutdown_server().unwrap();
    assert!(server.is_shutting_down());
    drop(client);
    server.wait();
    assert!(!sock_path.exists(), "socket file is cleaned up");
    std::fs::remove_file(&snap_path).ok();
}

#[test]
fn session_rule_swap_changes_answers_for_that_session_only() {
    let (graph, _) = paper::figure1_g2();
    let snap_path = temp_path("rules.ngds");
    SnapshotWriter::new()
        .write(&graph.freeze(), &snap_path)
        .expect("snapshot writes");
    // Default rules: φ2 only (one violation on G2).
    let server = Server::start(
        SnapshotStore::open(&snap_path).unwrap(),
        RuleSet::from_rules(vec![paper::phi2()]),
        &ServeAddr::Unix(temp_path("rules-sock")),
        DetectorConfig::with_processors(2),
    )
    .unwrap();

    let mut swapped = ServeClient::connect(server.local_addr()).unwrap();
    let mut vanilla = ServeClient::connect(server.local_addr()).unwrap();

    // Swap session A to a rule set with zero matches on G2.
    let message = swapped
        .set_rules(&RuleSet::from_rules(vec![paper::phi4(1, 1, 10_000)]))
        .unwrap();
    assert!(message.contains("1 rule"), "{message}");
    assert_eq!(swapped.query().unwrap().violations.len(), 0);
    // A source no parser accepts (the retired `rule name { … }` block
    // syntax reaches the `.ngdl` parser) is a typed refusal with the
    // position; the session lives on with the Σ it had — the swapped-in
    // one, not the server default.
    match swapped.set_rules_source("rule r { match (x:A); then x.v = 1; }") {
        Err(ProtocolError::Remote { code, message }) => {
            assert_eq!(code, err_code::RULES_REJECTED);
            assert!(message.contains("line 1, column 8"), "{message}");
        }
        other => panic!("expected a typed remote error, got {other:?}"),
    }
    assert_eq!(swapped.query().unwrap().violations.len(), 0);
    // Session B keeps the server default.
    assert_eq!(vanilla.query().unwrap().violations.len(), 1);

    vanilla.shutdown_server().unwrap();
    drop(vanilla);
    drop(swapped);
    server.wait();
    std::fs::remove_file(&snap_path).ok();
}

/// A plan cache serves one (Σ, epoch): plans are keyed by rule id, so a
/// `RULES` swap that reuses an id must not run the server Σ's plan for it.
/// Here both rules are `r`, with the same literal counts, and only the
/// edge label differs — the swapped session must see the `:f` match.
#[test]
fn a_rules_swap_that_reuses_a_rule_id_gets_its_own_plans() {
    use ngd_graph::{GraphBuilder, Value};
    let mut b = GraphBuilder::new();
    let a1 = b.node_with_attrs("a1", "a", [("v", Value::Int(5))]);
    let b1 = b.node("b1", "b");
    let b2 = b.node("b2", "b");
    b.edge("a1", "b1", "e");
    b.edge("a1", "b2", "f");
    let graph = b.build();
    let snap_path = temp_path("plans.ngds");
    SnapshotWriter::new()
        .write(&graph.freeze(), &snap_path)
        .expect("snapshot writes");
    let rule_on =
        |label: &str| format!("RULE r: MATCH (x:a)-[:{label}]->(y:b) WHERE x.v > 1 => false");
    let server = Server::start(
        SnapshotStore::open(&snap_path).unwrap(),
        ngd_lang::load_rules(&rule_on("e")).unwrap(),
        &ServeAddr::Unix(temp_path("plans-sock")),
        DetectorConfig::with_processors(2),
    )
    .unwrap();
    let answer = |client: &mut ServeClient| -> Vec<Vec<ngd_graph::NodeId>> {
        let served = client.query().unwrap();
        served.violations.iter().map(|v| v.nodes.clone()).collect()
    };
    let on_e = vec![vec![a1, b1]];
    let on_f = vec![vec![a1, b2]];

    let mut swapped = ServeClient::connect(server.local_addr()).unwrap();
    assert_eq!(answer(&mut swapped), on_e);
    swapped.set_rules_source(&rule_on("f")).unwrap();
    assert_eq!(answer(&mut swapped), on_f, "the swapped Σ's own plan");
    // An UPDATE runs the swapped Σ too: deleting the `:f` edge removes
    // exactly its violation.
    let mut delta = BatchUpdate::new();
    delta.delete_edge(a1, b2, intern("f"));
    let served = swapped.submit_update(&delta).unwrap();
    assert!(served.delta.added.is_empty());
    let removed: Vec<_> = served
        .delta
        .removed
        .iter()
        .map(|v| v.nodes.clone())
        .collect();
    assert_eq!(removed, on_f);
    // Another session, on the server Σ, still reads the `:e` match from
    // the store's cache.
    let mut vanilla = ServeClient::connect(server.local_addr()).unwrap();
    assert_eq!(answer(&mut vanilla), on_e);
    // Across a compaction both sessions re-root, each onto the new
    // epoch's cache for its own Σ.
    assert_eq!(swapped.compact().unwrap().epoch, 1);
    assert!(answer(&mut swapped).is_empty());
    assert_eq!(answer(&mut vanilla), on_e);
    assert_eq!(vanilla.epoch().unwrap().epoch, 1);

    vanilla.shutdown_server().unwrap();
    drop(vanilla);
    drop(swapped);
    server.wait();
    std::fs::remove_file(&snap_path).ok();
}

/// A socket file left behind by a killed daemon must not block a restart:
/// bind pings the path first, unlinks it when nothing answers, and
/// refuses to steal it from a live daemon.
#[test]
fn stale_unix_sockets_are_reclaimed_and_live_ones_are_not_stolen() {
    let (graph, _) = paper::figure1_g4();
    let sigma = RuleSet::from_rules(vec![paper::phi4(1, 1, 10_000)]);
    let snap_path = temp_path("stale.ngds");
    SnapshotWriter::new()
        .write(&graph.freeze(), &snap_path)
        .expect("snapshot writes");
    let sock_path = temp_path("stale-sock");

    // Simulate the corpse of a SIGKILLed daemon: bind a listener and drop
    // it — closing the fd leaves the socket *file* behind (the kernel
    // never unlinks it), which is exactly what a killed daemon leaves.
    drop(std::os::unix::net::UnixListener::bind(&sock_path).unwrap());
    assert!(sock_path.exists(), "stale socket file is in place");

    let server = Server::start(
        SnapshotStore::open(&snap_path).expect("snapshot maps"),
        sigma.clone(),
        &ServeAddr::Unix(sock_path.clone()),
        DetectorConfig::default(),
    )
    .expect("restart reclaims the stale socket");
    let mut client = ServeClient::connect(server.local_addr()).expect("daemon is reachable");

    // A second daemon must NOT steal the path from the live one.
    let err = Server::start(
        SnapshotStore::open(&snap_path).unwrap(),
        sigma,
        &ServeAddr::Unix(sock_path.clone()),
        DetectorConfig::default(),
    );
    assert!(err.is_err(), "live socket must not be stolen");
    let message = format!("{}", err.err().unwrap());
    assert!(message.contains("live daemon"), "{message}");
    // The live daemon is unharmed.
    assert!(client.stats().is_ok());

    client.shutdown_server().unwrap();
    drop(client);
    server.wait();
    std::fs::remove_file(&snap_path).ok();
}

/// `ServeOptions::compact_after` folds a session's overlay into a fresh
/// epoch automatically once the pending net ops cross the threshold.
#[test]
fn auto_compaction_triggers_at_the_configured_overlay_size() {
    use ngd_serve::ServeOptions;
    let (graph, fake) = paper::figure1_g4();
    let sigma = RuleSet::from_rules(vec![paper::phi4(1, 1, 10_000)]);
    let snap_path = temp_path("auto.ngds");
    SnapshotWriter::new()
        .write(&graph.freeze(), &snap_path)
        .expect("snapshot writes");

    let server = Server::start_with(
        SnapshotStore::open(&snap_path).unwrap(),
        sigma.clone(),
        &ServeAddr::Unix(temp_path("auto-sock")),
        DetectorConfig::default(),
        ServeOptions {
            compact_after: Some(2),
            ..ServeOptions::default()
        },
    )
    .expect("server starts");
    let mut client = ServeClient::connect(server.local_addr()).unwrap();

    let status = graph
        .neighbors(fake, Dir::Out)
        .iter()
        .find(|&&(_, l)| l == intern("status"))
        .map(|&(n, _)| n)
        .unwrap();
    // Batch 1: one pending op — below the threshold.
    let mut b1 = BatchUpdate::new();
    b1.delete_edge(fake, status, intern("status"));
    let done = client.submit_update(&b1).unwrap().done;
    assert_eq!(done.epoch, 0);
    assert_eq!(client.epoch().unwrap().published_epoch, 0);

    // Batch 2: second net op — crosses the threshold, daemon compacts.
    let follower = graph
        .neighbors(fake, Dir::Out)
        .iter()
        .find(|&&(_, l)| l == intern("follower"))
        .map(|&(n, _)| n)
        .unwrap();
    let mut b2 = BatchUpdate::new();
    b2.delete_edge(fake, follower, intern("follower"));
    client.submit_update(&b2).unwrap();
    let epoch = client.epoch().unwrap();
    assert_eq!(
        epoch.published_epoch, 1,
        "auto-compaction published epoch 1"
    );
    assert_eq!(epoch.epoch, 1, "the triggering session re-rooted");
    let stats = client.stats().unwrap();
    assert_eq!((stats.pending_nodes, stats.pending_edge_ops), (0, 0));
    // The session keeps answering correctly on the compacted epoch: the
    // served delta equals an uncompacted in-process session's.
    let mut b3 = BatchUpdate::new();
    b3.insert_edge(fake, status, intern("status"));
    let served = client.submit_update(&b3).unwrap();
    assert_eq!(served.done.epoch, 1);
    let snapshot = graph.freeze();
    let mut reference = ngd_detect::IncrementalSession::new(&snapshot);
    let config = DetectorConfig::default();
    for b in [&b1, &b2] {
        reference.apply(&sigma, b, &config).unwrap();
    }
    let expected = reference.apply(&sigma, &b3, &config).unwrap();
    assert_eq!(
        served.delta, expected.delta,
        "delta survives the epoch switch"
    );

    client.shutdown_server().unwrap();
    drop(client);
    server.wait();
    std::fs::remove_file(&snap_path).ok();
}

/// The `METRICS` frame round-trips the daemon's live registry snapshot:
/// after one update and one query the snapshot must carry the per-frame
/// counters and latency histograms, the plan-cache counters, the session
/// gauge and the byte counters — and render as Prometheus text.  Also
/// exercises `ServeOptions::metrics_dump`: the daemon leaves a parseable
/// JSON snapshot behind on shutdown.
#[test]
fn metrics_frame_reports_live_registry_and_dump_file_is_written() {
    use ngd_serve::ServeOptions;
    let (graph, fake) = paper::figure1_g4();
    let sigma = RuleSet::from_rules(vec![paper::phi4(1, 1, 10_000)]);
    let snap_path = temp_path("metrics.ngds");
    SnapshotWriter::new()
        .write(&graph.freeze(), &snap_path)
        .expect("snapshot writes");
    let dump_path = temp_path("metrics-dump.json");

    let server = Server::start_with(
        SnapshotStore::open(&snap_path).unwrap(),
        sigma,
        &ServeAddr::Unix(temp_path("metrics-sock")),
        DetectorConfig::with_processors(2),
        ServeOptions {
            metrics_dump: Some(dump_path.clone()),
            metrics_interval: Some(std::time::Duration::from_secs(3600)),
            ..ServeOptions::default()
        },
    )
    .expect("server starts");
    let mut client = ServeClient::connect(server.local_addr()).unwrap();

    let status = graph
        .neighbors(fake, Dir::Out)
        .iter()
        .find(|&&(_, l)| l == intern("status"))
        .map(|&(n, _)| n)
        .unwrap();
    let mut delta = BatchUpdate::new();
    delta.delete_edge(fake, status, intern("status"));
    client.submit_update(&delta).unwrap();
    client.query().unwrap();

    let snapshot = client.metrics().expect("METRICS round-trips");

    // Per-frame accounting: the frames this very session sent so far.
    for kind in ["hello", "update", "query"] {
        let count = snapshot.counter(&format!("serve.frame.{kind}.count"));
        assert!(
            count.is_some_and(|n| n >= 1),
            "serve.frame.{kind}.count missing or zero: {count:?}"
        );
        let latency = snapshot.histogram(&format!("serve.frame.{kind}.latency_ns"));
        assert!(
            latency.is_some_and(|h| h.count >= 1),
            "serve.frame.{kind}.latency_ns missing or empty"
        );
    }
    // The METRICS frame itself counts before the snapshot is taken.
    assert!(snapshot
        .counter("serve.frame.metrics.count")
        .is_some_and(|n| n >= 1));

    // Session and transport accounting.
    assert!(snapshot
        .gauge("serve.sessions.active")
        .is_some_and(|n| n >= 1));
    assert!(snapshot.counter("serve.bytes.in").is_some_and(|n| n > 0));
    assert!(snapshot.counter("serve.bytes.out").is_some_and(|n| n > 0));

    // The detection run behind the update/query folded its telemetry.
    assert!(snapshot
        .counter("matcher.plan_cache.misses")
        .is_some_and(|n| n >= 1));
    assert!(snapshot
        .counter("matcher.search.expanded")
        .is_some_and(|n| n >= 1));
    assert!(snapshot
        .histogram("detect.batch.run_ns")
        .is_some_and(|h| h.count >= 1));
    assert!(snapshot
        .histogram("detect.delta.run_ns")
        .is_some_and(|h| h.count >= 1));

    // The snapshot renders as Prometheus text with mangled names.
    let prom = ngd_obs::render_prometheus(&snapshot);
    assert!(prom.contains("# TYPE ngd_serve_frame_update_count counter"));
    assert!(prom.contains("ngd_serve_frame_update_latency_ns_bucket{le=\"+Inf\"}"));
    assert!(prom.contains("# TYPE ngd_serve_sessions_active gauge"));

    client.shutdown_server().unwrap();
    drop(client);
    server.wait();

    // The dump thread wrote a final snapshot on shutdown.
    let dumped = std::fs::read_to_string(&dump_path).expect("dump file exists");
    let parsed: ngd_obs::MetricsSnapshot =
        ngd_json::from_str(&dumped).expect("dump file is a JSON snapshot");
    assert!(parsed
        .counter("serve.frame.update.count")
        .is_some_and(|n| n >= 1));

    std::fs::remove_file(&snap_path).ok();
    std::fs::remove_file(&dump_path).ok();
}

/// Concurrent sessions across a node-adding compaction: an edge-only
/// observer must re-root onto the grown epoch and keep answering, while
/// an observer whose own added nodes collide with the published epoch's
/// must stay pinned to its old mapping — never silently adopt foreign
/// nodes — and also keep answering correctly.
#[test]
fn node_adding_compaction_reroots_edge_only_sessions_and_pins_conflicting_ones() {
    use ngd_graph::AttrMap;
    let (graph, fake) = paper::figure1_g4();
    let sigma = RuleSet::from_rules(vec![paper::phi4(1, 1, 10_000)]);
    let snap_path = temp_path("node-add.ngds");
    SnapshotWriter::new()
        .write(&graph.freeze(), &snap_path)
        .expect("snapshot writes");
    let server = Server::start(
        SnapshotStore::open(&snap_path).unwrap(),
        sigma.clone(),
        &ServeAddr::Unix(temp_path("node-add-sock")),
        DetectorConfig::default(),
    )
    .expect("server starts");

    let company = graph.nodes_with_label(intern("company"))[0];
    let status = graph
        .neighbors(fake, Dir::Out)
        .iter()
        .find(|&&(_, l)| l == intern("status"))
        .map(|&(n, _)| n)
        .unwrap();

    // Session A: edge-only overlay.
    let mut edge_only = ServeClient::connect(server.local_addr()).unwrap();
    let mut a1 = BatchUpdate::new();
    a1.delete_edge(fake, status, intern("status"));
    edge_only.submit_update(&a1).unwrap();

    // Session B: adds a node with label "account"; its view must never be
    // affected by C's compaction of a *different* node at the same id.
    let mut conflicting = ServeClient::connect(server.local_addr()).unwrap();
    let mut b1 = BatchUpdate::new();
    let b_node = b1.add_node(graph.node_count(), intern("account"), AttrMap::new());
    b1.insert_edge(b_node, company, intern("keys"));
    conflicting.submit_update(&b1).unwrap();
    let b_view_before = conflicting.query().unwrap().violations;

    // Session C compacts an overlay that adds one "boolean" node — the
    // same *count* as B's added nodes, different content.
    let mut compactor = ServeClient::connect(server.local_addr()).unwrap();
    let mut c1 = BatchUpdate::new();
    let c_node = c1.add_node(graph.node_count(), intern("boolean"), AttrMap::new());
    c1.insert_edge(fake, c_node, intern("follower"));
    compactor.submit_update(&c1).unwrap();
    let epoch = compactor.compact().expect("compaction publishes");
    assert_eq!(epoch.published_epoch, 1);

    // A (edge-only) re-roots onto the grown epoch and keeps its residue.
    let stats = edge_only.stats().unwrap();
    assert_eq!(stats.epoch, 1, "edge-only session re-roots");
    let notice = edge_only.last_epoch_switch().expect("switch announced");
    assert_eq!((notice.epoch, notice.previous_epoch), (1, 0));
    assert_eq!(notice.carried_nodes, 0);
    assert!(notice.carried_ops >= 1, "the deletion residue carries");

    // B stays pinned: published epoch moved on, B's epoch did not, and
    // B's view is unchanged (its node keeps its identity).
    let stats = conflicting.stats().unwrap();
    assert_eq!(stats.epoch, 0, "conflicting session pins to its mapping");
    assert_eq!(stats.published_epoch, 1);
    assert_eq!(
        conflicting.query().unwrap().violations,
        b_view_before,
        "a pinned session's state must be untouched by the foreign epoch"
    );

    edge_only.shutdown_server().unwrap();
    drop(edge_only);
    drop(conflicting);
    drop(compactor);
    server.wait();
    std::fs::remove_file(&snap_path).ok();
}
