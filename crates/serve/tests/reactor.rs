//! Reactor-specific service tests: slow-reader back-pressure, mid-stream
//! client disconnect, interleaved `EPOCH_SWITCHED` pushes, the early flush
//! of an `UPDATE`'s first violation, and the bounded-thread guarantee
//! (connections cost buffers, not OS threads).

#![cfg(unix)]

use ngd_core::{paper, RuleSet};
use ngd_datagen::{generate_social, SocialConfig};
use ngd_detect::{CostLedger, DetectorConfig, SearchStats};
use ngd_graph::persist::SnapshotWriter;
use ngd_graph::{intern, AttrMap, BatchUpdate, Graph, Value};
use ngd_serve::protocol::{
    frame, read_frame, write_frame, DoneResponse, EpochNotice, HelloRequest, HelloResponse, Side,
    VioChunk,
};
use ngd_serve::{ServeAddr, ServeClient, ServeOptions, Server, SnapshotStore};
use std::io::Write as _;
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

fn temp_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "ngd-reactor-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ))
}

/// A social graph where every non-verified account is fake: `5 ×
/// companies` φ4 violations, enough VIO_CHUNK bytes to overflow a small
/// write queue (and, scaled up, the kernel socket buffers too).
fn violation_heavy_graph(companies: usize) -> (Graph, RuleSet) {
    let config = SocialConfig {
        companies,
        accounts_per_company: 6,
        fake_rate: 1.0,
        profiles: 0,
        avg_follows: 0,
        seed: 0xC10C,
    };
    let generated = generate_social(&config);
    let sigma = RuleSet::from_rules(vec![paper::phi4(1, 1, 10_000)]);
    (generated.graph, sigma)
}

fn start_server(graph: &Graph, sigma: &RuleSet, options: ServeOptions) -> Server {
    let snap_path = temp_path("snap.ngds");
    SnapshotWriter::new()
        .write(&graph.freeze(), &snap_path)
        .expect("snapshot writes");
    let server = Server::start_with(
        SnapshotStore::open(&snap_path).expect("snapshot maps"),
        sigma.clone(),
        &ServeAddr::Tcp("127.0.0.1:0".into()),
        DetectorConfig::with_processors(2),
        options,
    )
    .expect("server starts");
    std::fs::remove_file(&snap_path).ok();
    server
}

/// A raw wire-level session: HELLO handshake only, so the test controls
/// exactly when (and whether) response bytes are consumed.
fn raw_session(addr: &ServeAddr) -> TcpStream {
    let spec = match addr {
        ServeAddr::Tcp(spec) => spec,
        other => panic!("expected tcp address, got {other}"),
    };
    let mut stream = TcpStream::connect(spec).expect("connect");
    stream.set_nodelay(true).ok();
    let hello = HelloRequest {
        client: "raw".into(),
    };
    write_frame(&mut stream, frame::HELLO, &hello.encode()).expect("hello");
    let (kind, _) = read_frame(&mut stream).expect("hello answer");
    assert_eq!(kind, frame::HELLO_OK);
    stream
}

/// Clamp a socket's receive buffer so TCP autotuning on loopback cannot
/// absorb a multi-megabyte stream for a reader that never reads — without
/// this, the kernel happily buffers the whole answer and the server-side
/// write queue never backs up.
#[cfg(target_os = "linux")]
fn shrink_rcvbuf(stream: &TcpStream) {
    use std::os::unix::io::AsRawFd;
    const SOL_SOCKET: i32 = 1;
    const SO_RCVBUF: i32 = 8;
    extern "C" {
        fn setsockopt(
            fd: i32,
            level: i32,
            name: i32,
            value: *const std::ffi::c_void,
            len: u32,
        ) -> i32;
    }
    let size: i32 = 4096;
    let rc = unsafe {
        setsockopt(
            stream.as_raw_fd(),
            SOL_SOCKET,
            SO_RCVBUF,
            (&size as *const i32).cast(),
            std::mem::size_of::<i32>() as u32,
        )
    };
    assert_eq!(rc, 0, "setsockopt(SO_RCVBUF)");
}

#[cfg(all(unix, not(target_os = "linux")))]
fn shrink_rcvbuf(_stream: &TcpStream) {}

fn counter_value(client: &mut ServeClient, name: &str) -> u64 {
    let snapshot = client.metrics().expect("metrics");
    snapshot
        .counters
        .iter()
        .find(|c| c.name == name)
        .map(|c| c.value)
        .unwrap_or(0)
}

fn histogram_count(client: &mut ServeClient, name: &str) -> u64 {
    let snapshot = client.metrics().expect("metrics");
    snapshot
        .histograms
        .iter()
        .find(|h| h.name == name)
        .map(|h| h.count)
        .unwrap_or(0)
}

/// An `UPDATE`'s first violation is flushed on its own, ahead of the
/// chunked rest, so first-violation latency does not wait for a full
/// chunk: the answer's first `VIO_CHUNK` carries exactly one violation,
/// `serve.first_vio.ns` counts one sample per such `UPDATE`, and the
/// chunks add up to `UPDATE_DONE`'s totals.  (No other test in this binary
/// sends an `UPDATE`, so the process-wide histogram moves only here.)
#[test]
fn an_update_streams_its_first_violation_alone() {
    // Each inserted `a -[e]-> b` edge adds one violation: `val`s differ.
    let mut graph = Graph::new();
    let a = graph.add_node_named("A", AttrMap::from_pairs([("val", Value::Int(1))]));
    let bs: Vec<_> = (0..8)
        .map(|_| graph.add_node_named("B", AttrMap::from_pairs([("val", Value::Int(2))])))
        .collect();
    let sigma = ngd_lang::load_rules("RULE same_val: MATCH (x:A)-[:e]->(y:B) => x.val = y.val")
        .expect("rule parses");
    let server = start_server(&graph, &sigma, ServeOptions::default());
    let mut client = ServeClient::connect_as(server.local_addr(), "first-vio").expect("connect");

    for targets in bs.chunks(4) {
        let mut batch = BatchUpdate::new();
        for &b in targets {
            batch.insert_edge(a, b, intern("e"));
        }
        let before = histogram_count(&mut client, "serve.first_vio.ns");
        let mut chunks: Vec<(Side, u64)> = Vec::new();
        let done = client
            .submit_update_streaming(&batch, |side, v| chunks.push((side, v.len() as u64)))
            .expect("served update");
        assert_eq!(chunks.first(), Some(&(Side::Added, 1)), "chunks {chunks:?}");
        let streamed = |side| {
            chunks
                .iter()
                .filter(|c| c.0 == side)
                .map(|c| c.1)
                .sum::<u64>()
        };
        assert_eq!((done.added_total, done.removed_total), (4, 0));
        assert_eq!(streamed(Side::Added), done.added_total);
        assert_eq!(streamed(Side::Removed), done.removed_total);
        assert_eq!(
            histogram_count(&mut client, "serve.first_vio.ns"),
            before + 1
        );
    }

    client.shutdown_server().expect("shutdown");
    drop(client);
    server.wait();
}

/// A slow reader must stall only its own session: its QUERY's chunk stream
/// hits the per-connection high-water mark and suspends, while another
/// session on the same daemon keeps answering, and the backlog never grows
/// past the configured bound.  Once the slow reader drains, it receives
/// the complete, correct stream.
#[test]
fn slow_reader_backpressure_does_not_stall_other_sessions() {
    // Large enough that the stream cannot hide in kernel socket buffers:
    // ~10k violations, megabytes of VIO_CHUNK frames.
    let (graph, sigma) = violation_heavy_graph(2000);
    let server = start_server(
        &graph,
        &sigma,
        ServeOptions {
            worker_threads: Some(2),
            // Tiny high-water mark so a few hundred violations overflow it
            // immediately.
            write_buffer_limit: Some(8 * 1024),
            ..ServeOptions::default()
        },
    );
    let addr = server.local_addr().clone();

    // Session A: ask for every violation, then stop reading.
    let mut slow = raw_session(&addr);
    shrink_rcvbuf(&slow);
    write_frame(&mut slow, frame::QUERY, &[]).expect("query");

    // Give the worker time to run the detection and hit the high-water
    // mark (the socket + queue can only absorb a fraction of the stream).
    let mut fast = ServeClient::connect_as(&addr, "fast").expect("fast connects");
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if counter_value(&mut fast, "serve.backpressure.stalls") >= 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "backpressure stall never recorded"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // Session B stays fully responsive while A is stalled.
    let started = Instant::now();
    for _ in 0..5 {
        let stats = fast.stats().expect("stats while A stalled");
        assert!(stats.sessions_active >= 2);
    }
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "responsive session was starved by a slow reader"
    );

    // Now drain A: the full stream arrives, bounded queue or not.
    let expected = ngd_detect::dect(&sigma, &graph).violations.len() as u64;
    assert!(expected > 500, "workload should be violation-heavy");
    let mut streamed = 0u64;
    loop {
        let (kind, payload) = read_frame(&mut slow).expect("slow drain");
        match kind {
            frame::VIO_CHUNK => {
                streamed += VioChunk::decode(&payload).expect("chunk").violations.len() as u64;
            }
            frame::QUERY_DONE => {
                let done = DoneResponse::decode(&payload).expect("done");
                assert_eq!(done.added_total, expected);
                break;
            }
            other => panic!("unexpected frame kind {other}"),
        }
    }
    assert_eq!(streamed, expected);

    fast.shutdown_server().expect("shutdown");
    drop(fast);
    drop(slow);
    server.wait();
}

/// A client that vanishes mid-stream must not take the daemon with it:
/// its session is torn down (snapshot pin released, active count drops)
/// and other sessions keep working.
#[test]
fn mid_stream_disconnect_tears_down_only_that_session() {
    let (graph, sigma) = violation_heavy_graph(150);
    let server = start_server(
        &graph,
        &sigma,
        ServeOptions {
            worker_threads: Some(2),
            write_buffer_limit: Some(8 * 1024),
            ..ServeOptions::default()
        },
    );
    let addr = server.local_addr().clone();

    // Session A: start a violation-heavy QUERY, read one chunk, vanish.
    let mut doomed = raw_session(&addr);
    write_frame(&mut doomed, frame::QUERY, &[]).expect("query");
    let (kind, _) = read_frame(&mut doomed).expect("first chunk");
    assert_eq!(kind, frame::VIO_CHUNK);
    drop(doomed);

    // Session B observes A's teardown and keeps being served.
    let mut survivor = ServeClient::connect_as(&addr, "survivor").expect("survivor connects");
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = survivor.stats().expect("stats after disconnect");
        if stats.sessions_active == 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "dead session was never torn down (sessions_active = {})",
            stats.sessions_active
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    let served = survivor.query().expect("daemon still serves");
    assert!(!served.violations.is_empty());

    survivor.shutdown_server().expect("shutdown");
    drop(survivor);
    server.wait();
}

/// `EPOCH_SWITCHED` pushes interleaved *between* the `VIO_CHUNK` frames of
/// one answer (what a compaction racing an expansion produces) must be
/// absorbed transparently: totals still verify, every notice is counted.
#[test]
fn client_absorbs_epoch_switches_between_chunks() {
    // A scripted server: no daemon, just this exact frame sequence.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = ServeAddr::Tcp(listener.local_addr().expect("addr").to_string());

    let script = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        let (kind, _) = read_frame(&mut stream).expect("hello");
        assert_eq!(kind, frame::HELLO);
        let hello = HelloResponse {
            server: "scripted".into(),
            node_count: 0,
            edge_count: 0,
            rule_count: 1,
            diameter: 1,
        };
        write_frame(&mut stream, frame::HELLO_OK, &hello.encode()).expect("hello ok");

        let (kind, _) = read_frame(&mut stream).expect("query");
        assert_eq!(kind, frame::QUERY);
        let (graph, sigma) = violation_heavy_graph(10);
        let violations: Vec<_> = ngd_detect::dect(&sigma, &graph)
            .violations
            .iter()
            .take(3)
            .cloned()
            .collect();
        assert_eq!(violations.len(), 3);
        let chunk =
            |v: &ngd_match::Violation| VioChunk::encode_refs(Side::Added, std::slice::from_ref(&v));
        let notice = |epoch: u64| {
            EpochNotice {
                epoch,
                previous_epoch: epoch - 1,
                carried_nodes: 0,
                carried_ops: 0,
            }
            .encode()
        };
        // chunk, SWITCH, chunk, SWITCH, chunk, DONE — two pushes strictly
        // inside the stream.
        write_frame(&mut stream, frame::VIO_CHUNK, &chunk(&violations[0])).unwrap();
        write_frame(&mut stream, frame::EPOCH_SWITCHED, &notice(2)).unwrap();
        write_frame(&mut stream, frame::VIO_CHUNK, &chunk(&violations[1])).unwrap();
        write_frame(&mut stream, frame::EPOCH_SWITCHED, &notice(3)).unwrap();
        write_frame(&mut stream, frame::VIO_CHUNK, &chunk(&violations[2])).unwrap();
        let done = DoneResponse {
            epoch: 3,
            algorithm: "scripted".into(),
            elapsed_nanos: 1,
            processors: 1,
            neighborhood_nodes: 0,
            added_total: 3,
            removed_total: 0,
            stats: SearchStats::default(),
            cost: CostLedger::default(),
        };
        write_frame(&mut stream, frame::QUERY_DONE, &done.encode()).unwrap();
        stream.flush().unwrap();
    });

    let mut client = ServeClient::connect_as(&addr, "interleaved").expect("connect");
    let served = client.query().expect("query survives interleaved pushes");
    assert_eq!(served.violations.len(), 3);
    assert_eq!(client.epoch_switches_seen(), 2);
    assert_eq!(client.last_epoch_switch().map(|n| n.epoch), Some(3));
    script.join().expect("script thread");
}
