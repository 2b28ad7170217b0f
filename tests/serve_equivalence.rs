//! Served-path equivalence suite.
//!
//! The acceptance bar of the `ngd-serve` subsystem: a daemon started on a
//! written snapshot file must stream `ΔVio` answers that are
//! **byte-identical** to running `pinc_dect` in-process — equality of the
//! structures *and* of their serialized JSON — on every figure-1 scenario
//! and on the 11k-node synthetic workload, over concurrent sessions,
//! across *sequences* of batches.
//!
//! One daemon per scenario graph; every update of the scenario runs through
//! a fresh session (connection) of that daemon.

use ngd_core::{paper, RuleSet};
use ngd_datagen::{
    generate_knowledge, generate_rules, generate_update, KnowledgeConfig, RuleGenConfig,
    UpdateConfig,
};
use ngd_detect::{inc_dect, pinc_dect, DetectorConfig};
use ngd_graph::persist::SnapshotWriter;
use ngd_graph::{AttrMap, BatchUpdate, Graph};
use ngd_match::DeltaViolations;
use ngd_serve::{ServeAddr, ServeClient, Server, SnapshotStore};
use std::sync::atomic::{AtomicUsize, Ordering};

static FILE_SEQ: AtomicUsize = AtomicUsize::new(0);

fn temp_snapshot_path() -> std::path::PathBuf {
    let seq = FILE_SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("ngd-serve-equiv-{}-{seq}.ngds", std::process::id()))
}

fn assert_identical_deltas(reference: &DeltaViolations, served: &DeltaViolations, context: &str) {
    assert_eq!(reference, served, "{context}: deltas differ");
    assert_eq!(
        ngd_json::to_string(reference),
        ngd_json::to_string(served),
        "{context}: serialized deltas differ"
    );
}

/// Start a daemon serving `graph` from a written snapshot file.
fn start_daemon(graph: &Graph, sigma: &RuleSet) -> (Server, std::path::PathBuf) {
    let path = temp_snapshot_path();
    SnapshotWriter::new()
        .write(&graph.freeze(), &path)
        .expect("snapshot writes");
    let addr = if cfg!(unix) {
        let seq = FILE_SEQ.fetch_add(1, Ordering::Relaxed);
        ServeAddr::Unix(
            std::env::temp_dir().join(format!("ngd-serve-equiv-{}-{seq}.sock", std::process::id())),
        )
    } else {
        ServeAddr::Tcp("127.0.0.1:0".into())
    };
    let server = Server::start(
        SnapshotStore::open(&path).expect("snapshot maps"),
        sigma.clone(),
        &addr,
        DetectorConfig::with_processors(3),
    )
    .expect("daemon starts");
    (server, path)
}

/// Every update served by a fresh session must match in-process `pinc_dect`.
fn check_served_updates(graph: &Graph, sigma: &RuleSet, updates: &[BatchUpdate], context: &str) {
    let config = DetectorConfig::with_processors(3);
    let (server, path) = start_daemon(graph, sigma);
    for (idx, delta) in updates.iter().enumerate() {
        let reference = pinc_dect(sigma, graph, delta, &config);
        let mut client = ServeClient::connect(server.local_addr()).expect("client connects");
        let served = client.submit_update(delta).expect("update serves");
        assert_identical_deltas(
            &reference.delta,
            &served.delta,
            &format!("{context} update#{idx}"),
        );
        assert_eq!(
            served.done.added_total + served.done.removed_total,
            reference.delta.len() as u64
        );
    }
    // Shut the daemon down through the protocol.
    let mut client = ServeClient::connect(server.local_addr()).expect("client connects");
    client.shutdown_server().expect("daemon shuts down");
    drop(client);
    server.wait();
    std::fs::remove_file(&path).ok();
}

fn figure1_scenarios() -> Vec<(&'static str, Graph, RuleSet)> {
    let (g1, _) = paper::figure1_g1();
    let (g2, _) = paper::figure1_g2();
    let (g3, _) = paper::figure1_g3();
    let (g4, _) = paper::figure1_g4();
    vec![
        ("figure1_g1", g1, RuleSet::from_rules(vec![paper::phi1(1)])),
        ("figure1_g2", g2, RuleSet::from_rules(vec![paper::phi2()])),
        ("figure1_g3", g3, RuleSet::from_rules(vec![paper::phi3()])),
        (
            "figure1_g4",
            g4,
            RuleSet::from_rules(vec![paper::phi4(1, 1, 10_000)]),
        ),
    ]
}

#[test]
fn served_deltas_are_identical_on_all_figure1_scenarios() {
    for (name, graph, sigma) in figure1_scenarios() {
        // One deletion-driven update per edge, plus a mixed batch — the
        // same scenarios csr_equivalence.rs pins across representations.
        let mut updates: Vec<BatchUpdate> = Vec::new();
        for edge in graph.edge_vec() {
            let mut delta = BatchUpdate::new();
            delta.delete_edge(edge.src, edge.dst, edge.label);
            updates.push(delta);
        }
        let edges = graph.edge_vec();
        if edges.len() >= 2 {
            let mut delta = BatchUpdate::new();
            delta.delete_edge(edges[0].src, edges[0].dst, edges[0].label);
            if !graph.has_edge(edges[1].src, edges[0].dst, edges[0].label) {
                delta.insert_edge(edges[1].src, edges[0].dst, edges[0].label);
            }
            updates.push(delta);
        }
        check_served_updates(&graph, &sigma, &updates, name);
    }
}

#[test]
fn served_deltas_are_identical_on_the_11k_synthetic_workload() {
    let generated = generate_knowledge(&KnowledgeConfig::dbpedia_like(50).with_seed(0xC5_A11));
    let graph = generated.graph;
    assert!(graph.node_count() >= 10_000);
    let mut rules = vec![paper::phi1(1), paper::phi2(), paper::phi3(), paper::ngd3()];
    rules.extend(
        generate_rules(
            &graph,
            &RuleGenConfig {
                wildcard_prob: 0.0,
                ..RuleGenConfig::paper_style(4, 3)
            }
            .with_seed(7),
        )
        .rules()
        .iter()
        .cloned(),
    );
    let sigma = RuleSet::from_rules(rules);
    let updates: Vec<BatchUpdate> = [3u64, 13, 21]
        .iter()
        .map(|&seed| generate_update(&graph, &UpdateConfig::fraction(0.01).with_seed(seed)))
        .collect();
    check_served_updates(&graph, &sigma, &updates, "synthetic-11k");
}

/// A *sequence* of batches through one session must match a sequence of
/// in-process `inc_dect` runs against the progressively materialised graph
/// — the property that makes the service incremental rather than
/// stateless.
#[test]
fn a_session_absorbing_a_batch_stream_matches_materialised_reruns() {
    let (graph, sigma) = {
        let (g, _) = paper::figure1_g4();
        (g, RuleSet::from_rules(vec![paper::phi4(1, 1, 10_000)]))
    };
    let (server, path) = start_daemon(&graph, &sigma);
    let mut client = ServeClient::connect(server.local_addr()).unwrap();

    let edges = graph.edge_vec();
    let mut batches: Vec<BatchUpdate> = Vec::new();
    let mut b = BatchUpdate::new();
    b.delete_edge(edges[0].src, edges[0].dst, edges[0].label);
    batches.push(b);
    let mut b = BatchUpdate::new();
    b.insert_edge(edges[0].src, edges[0].dst, edges[0].label);
    batches.push(b);
    let mut b = BatchUpdate::new();
    b.delete_edge(edges[2].src, edges[2].dst, edges[2].label);
    b.delete_edge(edges[3].src, edges[3].dst, edges[3].label);
    batches.push(b);

    let mut current = graph.clone();
    for (idx, batch) in batches.iter().enumerate() {
        let reference = inc_dect(&sigma, &current, batch);
        let served = client.submit_update(batch).expect("batch serves");
        assert_identical_deltas(
            &reference.delta,
            &served.delta,
            &format!("stream batch#{idx}"),
        );
        batch.apply(&mut current).expect("materialises");
    }

    client.shutdown_server().unwrap();
    drop(client);
    server.wait();
    std::fs::remove_file(&path).ok();
}

/// A sequential batch stream for `graph`: edge churn plus a batch that
/// introduces a node, so the compaction cut carries every update shape.
fn stream_for(graph: &Graph) -> Vec<BatchUpdate> {
    let edges = graph.edge_vec();
    let mut batches = Vec::new();
    let mut b = BatchUpdate::new();
    b.delete_edge(edges[0].src, edges[0].dst, edges[0].label);
    batches.push(b);
    let mut b = BatchUpdate::new();
    b.insert_edge(edges[0].src, edges[0].dst, edges[0].label);
    if edges.len() >= 2 {
        b.delete_edge(edges[1].src, edges[1].dst, edges[1].label);
    }
    batches.push(b);
    let mut b = BatchUpdate::new();
    let node = b.add_node(
        graph.node_count(),
        graph.label(edges[0].src),
        AttrMap::new(),
    );
    b.insert_edge(node, edges[0].dst, edges[0].label);
    batches.push(b);
    // A trailing edge-only batch, so a cut can fold the node-adding batch
    // into the compaction and still have post-cut work to serve.
    let mut b = BatchUpdate::new();
    b.delete_edge(node, edges[0].dst, edges[0].label);
    batches.push(b);
    batches
}

/// One session absorbing `batches` with a `COMPACT` after batch `cut`
/// must stream exactly what an uncompacted session streams — the
/// acceptance bar of the epoch lifecycle.
fn check_compact_mid_stream(
    graph: &Graph,
    sigma: &RuleSet,
    batches: &[BatchUpdate],
    cut: usize,
    context: &str,
) {
    // Reference daemon: no compaction.
    let (server, path) = start_daemon(graph, sigma);
    let mut client = ServeClient::connect(server.local_addr()).expect("client connects");
    let reference: Vec<DeltaViolations> = batches
        .iter()
        .map(|b| client.submit_update(b).expect("update serves").delta)
        .collect();
    client.shutdown_server().unwrap();
    drop(client);
    server.wait();
    std::fs::remove_file(&path).ok();

    // Compacting daemon: same stream, epoch switch after `cut`.
    let (server, path) = start_daemon(graph, sigma);
    let mut client = ServeClient::connect(server.local_addr()).expect("client connects");
    // A second session rides along to observe the broadcast.
    let mut observer = ServeClient::connect(server.local_addr()).expect("observer connects");
    observer
        .submit_update(&batches[0])
        .expect("observer absorbs a batch");

    let mut served = Vec::new();
    for (idx, batch) in batches.iter().enumerate() {
        if idx == cut {
            let epoch = client.compact().expect("COMPACT succeeds");
            assert_eq!(epoch.epoch, 1, "{context}: compaction bumps the epoch");
            assert_eq!(epoch.published_epoch, 1, "{context}");
            let stats = client.stats().expect("stats after compaction");
            assert_eq!(stats.epoch, 1, "{context}");
            assert_eq!(
                (stats.pending_nodes, stats.pending_edge_ops),
                (0, 0),
                "{context}: compaction empties the requester's overlay"
            );
        }
        served.push(client.submit_update(batch).expect("update serves").delta);
    }
    for (idx, (reference, served)) in reference.iter().zip(&served).enumerate() {
        assert_identical_deltas(reference, served, &format!("{context} batch#{idx}"));
    }

    // The observer re-roots at its next message boundary and is told so.
    assert!(observer.last_epoch_switch().is_none());
    let stats = observer.stats().expect("observer stats");
    let notice = observer
        .last_epoch_switch()
        .expect("observer receives EPOCH_SWITCHED at its message boundary");
    assert_eq!(notice.epoch, 1, "{context}");
    assert_eq!(notice.previous_epoch, 0, "{context}");
    assert_eq!(
        stats.epoch, 1,
        "{context}: observer now reads the new epoch"
    );
    assert_eq!(
        notice.carried_ops,
        {
            // The observer's batch#0 relative to epoch 1 (which folded
            // the *requester's* overlay, not the observer's).
            stats.pending_edge_ops
        },
        "{context}: the notice reports the carried residue"
    );

    client.shutdown_server().unwrap();
    drop(client);
    drop(observer);
    server.wait();
    std::fs::remove_file(&path).ok();
}

#[test]
fn compaction_mid_stream_is_invisible_on_all_figure1_scenarios() {
    for (name, graph, sigma) in figure1_scenarios() {
        let batches = stream_for(&graph);
        for cut in 1..batches.len() {
            check_compact_mid_stream(&graph, &sigma, &batches, cut, &format!("{name} cut={cut}"));
        }
    }
}

#[test]
fn compaction_mid_stream_is_invisible_on_the_11k_synthetic_workload() {
    let generated = generate_knowledge(&KnowledgeConfig::dbpedia_like(50).with_seed(0xC5_A11));
    let graph = generated.graph;
    assert!(graph.node_count() >= 10_000);
    let sigma = RuleSet::from_rules(vec![
        paper::phi1(1),
        paper::phi2(),
        paper::phi3(),
        paper::ngd3(),
    ]);
    let first = generate_update(&graph, &UpdateConfig::fraction(0.005).with_seed(3));
    let mut current = graph.clone();
    first.apply(&mut current).unwrap();
    let second = generate_update(&current, &UpdateConfig::fraction(0.005).with_seed(21));
    let batches = vec![first, second];
    check_compact_mid_stream(&graph, &sigma, &batches, 1, "synthetic-11k");
}
