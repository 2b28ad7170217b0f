//! Ingest once, serve forever: the full deployment pipeline across a live
//! socket.
//!
//! Extends `persist_pipeline.rs` by one hop: instead of loading the
//! snapshot in the same process, this example
//!
//! 1. **Ingest**: generates a synthetic knowledge graph, freezes it, and
//!    writes a snapshot file;
//! 2. **Daemon**: starts an `ngd-serve` [`Server`] mmapping that file
//!    (in-process here, but the same code path `ngd-serve --snapshot`
//!    runs as a standalone daemon);
//! 3. **Clients**: connects [`ServeClient`]s over a Unix-domain socket,
//!    submits a stream of `ΔG` batches, watches `ΔVio` frames arrive
//!    incrementally together with the cost ledger, and cross-checks every
//!    answer against in-process detection;
//! 4. **Shutdown**: stops the daemon through the protocol.
//!
//! Run with `cargo run -p ngd-examples --example serve_pipeline`.

use ngd_core::{paper, RuleSet};
use ngd_datagen::{generate_knowledge, generate_update, KnowledgeConfig, UpdateConfig};
use ngd_detect::{delta_neighborhood, DetectorConfig};
use ngd_examples::section;
use ngd_graph::persist::{MmapSnapshot, SnapshotWriter};
use ngd_graph::DeltaOverlay;
use ngd_serve::{ServeAddr, ServeClient, Server, Side, SnapshotStore};

fn main() {
    let dir = std::env::temp_dir();
    let snap_path = dir.join(format!("ngd-serve-pipeline-{}.ngds", std::process::id()));

    // ---- Ingest: build, freeze, persist. --------------------------------
    section("ingest: freeze once, write the snapshot file");
    let graph = generate_knowledge(&KnowledgeConfig::dbpedia_like(8).with_seed(0xF11E)).graph;
    let sigma = RuleSet::from_rules(vec![paper::phi1(1), paper::phi2(), paper::phi3()]);
    let bytes = SnapshotWriter::new()
        .write(&graph.freeze(), &snap_path)
        .expect("write snapshot");
    println!(
        "graph: |V| = {}, |E| = {}, ‖Σ‖ = {} → {} bytes on disk",
        graph.node_count(),
        graph.edge_count(),
        sigma.len(),
        bytes
    );

    // ---- Daemon: mmap the file, listen on a unix socket. ----------------
    section("daemon: mmap the snapshot, listen on a unix socket");
    let addr = if cfg!(unix) {
        ServeAddr::Unix(dir.join(format!("ngd-serve-pipeline-{}.sock", std::process::id())))
    } else {
        ServeAddr::Tcp("127.0.0.1:0".into())
    };
    let server = Server::start(
        SnapshotStore::open(&snap_path).expect("map snapshot"),
        sigma.clone(),
        &addr,
        DetectorConfig::with_processors(3),
    )
    .expect("daemon starts");
    println!("listening on {}", server.local_addr());

    // ---- Client: a stream of ΔG batches through one session. ------------
    section("client: stream ΔG batches, watch ΔVio frames arrive");
    let mut client = ServeClient::connect_as(server.local_addr(), "serve_pipeline").unwrap();
    let info = client.server_info();
    println!(
        "handshake: {} serving {} nodes / {} edges, ‖Σ‖ = {} (dΣ = {})",
        info.server, info.node_count, info.edge_count, info.rule_count, info.diameter
    );

    // Reference for the cross-check: the same snapshot mapped in-process.
    let mapped = MmapSnapshot::load(&snap_path).expect("load snapshot");
    let mut session_reference = ngd_detect::IncrementalSession::new(&mapped);

    for (round, seed) in [21u64, 22, 23].into_iter().enumerate() {
        // Each batch is generated against the session's *current* state, so
        // the stream stays valid as updates accumulate.
        let materialised = session_reference.accumulated().applied_to(&graph).unwrap();
        let delta = generate_update(&materialised, &UpdateConfig::fraction(0.02).with_seed(seed));
        let mut frames = 0usize;
        let done = client
            .submit_update_streaming(&delta, |side, violations| {
                frames += 1;
                let sign = match side {
                    Side::Added => '+',
                    Side::Removed => '-',
                };
                println!("  frame {frames}: {sign}{} violation(s)", violations.len());
            })
            .expect("update serves");
        println!(
            "round {}: |ΔG| = {} → ΔVio⁺ = {}, ΔVio⁻ = {} in {:?} \
             (dΣ-neighbourhood {} nodes, ledger: {})",
            round + 1,
            delta.len(),
            done.added_total,
            done.removed_total,
            std::time::Duration::from_nanos(done.elapsed_nanos),
            delta_neighborhood(
                &DeltaOverlay::new(&materialised, &delta),
                &delta,
                sigma.diameter()
            ),
            done.cost
        );

        // Cross-check: the in-process session must agree exactly.
        let reference = session_reference
            .apply(&sigma, &delta, &DetectorConfig::with_processors(3))
            .expect("reference applies");
        assert_eq!(
            reference.delta.added.len() as u64 + reference.delta.removed.len() as u64,
            done.added_total + done.removed_total,
            "served and in-process answers must agree"
        );
    }

    // ---- Second session: concurrent, isolated. --------------------------
    section("second client: sessions are isolated");
    let mut other = ServeClient::connect_as(server.local_addr(), "observer").unwrap();
    let stats = other.stats().expect("stats");
    println!(
        "service: {} active / {} total sessions, {} updates served, \
         {} violations streamed; this session: {} accumulated op(s)",
        stats.sessions_active,
        stats.sessions_total,
        stats.updates_served,
        stats.violations_streamed,
        stats.accumulated_ops
    );
    assert_eq!(stats.accumulated_ops, 0, "fresh session starts clean");

    // ---- Shutdown through the protocol. ---------------------------------
    section("shutdown: stop the daemon over the wire");
    let message = other.shutdown_server().expect("shutdown");
    println!("{message}");
    drop(other);
    drop(client);
    server.wait();

    std::fs::remove_file(&snap_path).ok();
    println!("\nfreeze once, serve many, update forever: the snapshot never left the page cache.");
}
