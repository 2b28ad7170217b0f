//! The C10K file-descriptor budget, in a test binary of its own: fd counts
//! are process-global, so this must not share a process with other tests
//! that open sockets.

#![cfg(all(unix, target_os = "linux"))]

use ngd_core::{paper, RuleSet};
use ngd_detect::DetectorConfig;
use ngd_graph::persist::SnapshotWriter;
use ngd_serve::{ServeAddr, ServeClient, ServeOptions, Server, SnapshotStore};
use std::time::{Duration, Instant};

fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd").expect("fd dir").count()
}

/// A connection costs the daemon exactly one fd, its accepted socket,
/// although the reactor and the worker answering it both write to it;
/// teardown gives that fd back.  The clients live in this process too, so
/// each connection is two fds here: the client's and the daemon's.
#[test]
fn each_connection_costs_the_daemon_one_fd() {
    let (graph, _) = paper::figure1_g4();
    let sigma = RuleSet::from_rules(vec![paper::phi4(1, 1, 10_000)]);
    let snap_path = std::env::temp_dir().join(format!("ngd-fdbound-{}.ngds", std::process::id()));
    SnapshotWriter::new()
        .write(&graph.freeze(), &snap_path)
        .expect("snapshot writes");
    let server = Server::start_with(
        SnapshotStore::open(&snap_path).expect("snapshot maps"),
        sigma,
        &ServeAddr::Tcp("127.0.0.1:0".into()),
        DetectorConfig::with_processors(1),
        ServeOptions {
            worker_threads: Some(2),
            ..ServeOptions::default()
        },
    )
    .expect("server starts");
    std::fs::remove_file(&snap_path).ok();
    let addr = server.local_addr().clone();

    // The reactor makes its poller on its own thread: count from a served
    // session on, once every fd the daemon itself needs is open.
    let mut first = ServeClient::connect_as(&addr, "fd-first").expect("connect");
    first.stats().expect("stats");
    let before = open_fds();
    let connections = 16;
    let mut sessions: Vec<ServeClient> = (0..connections)
        .map(|i| ServeClient::connect_as(&addr, &format!("fd-{i}")).expect("connect"))
        .collect();
    // Every session has had requests answered by a worker, so any
    // per-connection handle a worker keeps would be open now.
    for session in &mut sessions {
        let served = session.query().expect("query");
        assert!(!served.violations.is_empty());
        session.stats().expect("stats");
    }
    assert_eq!(open_fds() - before, 2 * connections);

    // Hang up: the daemon closes each one's socket.
    drop(sessions);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let open = open_fds() - before;
        if open == 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "{open} fds still open after every connection hung up"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    first.shutdown_server().expect("shutdown");
    drop(first);
    server.wait();
}
