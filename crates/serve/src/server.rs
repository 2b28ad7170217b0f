//! The long-lived detection daemon.
//!
//! A [`Server`] mmaps one snapshot file, compiles a default rule set, binds
//! a Unix-domain or TCP listener, and serves connections with a **reactor +
//! bounded worker pool**:
//!
//! * one `ngd-serve-reactor` thread runs the event loop
//!   (the private `poller` module — epoll on Linux, poll(2) elsewhere): it owns the
//!   listener and every connection fd in non-blocking mode, parses frames
//!   incrementally into per-connection read buffers, and drains
//!   per-connection write queues — it never blocks on any one peer;
//! * [`ServeOptions::worker_threads`] `ngd-serve-worker` threads execute
//!   requests: a connection's parked session state moves into a worker
//!   for one request and back, so **thousands of idle connections cost
//!   zero threads** and at most `worker_threads` requests run at once;
//! * answers queue on the connection's write buffer with a high-water
//!   mark ([`ServeOptions::write_buffer_limit`]): a slow reader suspends
//!   *its own* session's producer, never the loop or other sessions;
//! * `UPDATE` answers **stream during expansion** — the detect run pushes
//!   each fresh violation through a sink callback
//!   ([`ngd_detect::VioSink`]), so the first `VIO_CHUNK` reaches the
//!   socket while the matchers are still running.
//!
//! Every connection owns an incremental-detection session
//! ([`ngd_detect::IncrementalSession`]) whose [`DeltaOverlay`]s are rebased
//! on the **shared** mapped snapshot: the `GraphView` split keeps the read
//! path lock-free across sessions, so concurrency costs no copies of `G`.
//!
//! ## Epoch lifecycle
//!
//! Sessions accumulate `ΔG` forever, so a long-lived daemon would slowly
//! degrade back toward batch cost.  **Compaction** closes the loop: on a
//! `COMPACT` frame (or automatically once a session's accumulated update
//! crosses [`ServeOptions::compact_after`]) the session's net `ΔG` is
//! folded into a fresh `.ngds` file by
//! [`ngd_graph::CompactionWriter`] — a streaming merge, never a re-freeze
//! — the new mapping is **atomically published** (a mutex-guarded
//! [`Arc`] swap), and every other session re-roots its overlay onto the
//! new epoch at its next message boundary, prepending an `EPOCH_SWITCHED`
//! notice to its next answer.  A session whose overlay cannot be carried
//! (its node ids conflict with the published epoch) stays **pinned** to
//! its old mapping; old mappings are reference-counted and unmap when the
//! last pinned session disconnects.  Served `ΔVio` streams are
//! byte-identical across a swap — `tests/serve_equivalence.rs` pins that.
//!
//! Graceful shutdown: a `SHUTDOWN` frame closes the listener at once
//! (an eventfd/self-pipe waker interrupts the event loop — no polling
//! sleeps anywhere on the serve path); live sessions drain as their
//! connections close, and [`Server::wait`] / [`Server::shutdown`] join
//! the reactor and its worker pool before returning.
//!
//! ## Epoch-file garbage collection
//!
//! Compacted epochs are scratch files (`<stem>.e<epoch>-<seq>.ngds` next
//! to the snapshot) that a graceful [`Drop`] unlinks — but a killed daemon
//! leaks them forever.  Every server therefore registers its listen
//! address in a sibling `<file_name>.daemons` file, and startup runs the
//! epoch-file GC **before** binding: each registered address is
//! pinged with the same decisive-connect rule the stale-unix-socket check
//! uses (only a refused connection proves death; any murkier failure is
//! treated as "alive").  Once no registered daemon answers, every epoch
//! file next to the snapshot is an orphan and is unlinked along with the
//! registry.  While any answers, all epoch files are kept — the registry
//! does not attribute files to daemons, so GC is all-or-nothing per
//! snapshot.  Binding first would be wrong: a daemon restarted on the same
//! unix address would answer its crashed predecessor's ping itself and
//! never collect.

use crate::error::ProtocolError;
use crate::protocol::{
    err_code, frame, DoneResponse, EpochNotice, EpochResponse, ErrorResponse, HelloRequest,
    HelloResponse, MetricsResponse, OkResponse, RulesRequest, Side, StatsResponse, UpdateRequest,
    VioChunk, VIO_CHUNK_LEN,
};
use ngd_core::RuleSet;
use ngd_detect::{
    DeltaReport, DetectionReport, DetectorConfig, IncrementalSession, VioSide, VioSink,
};
use ngd_graph::persist::{CompactionWriter, MmapSnapshot, PersistError};
use ngd_graph::{BatchUpdate, DeltaOverlay, GraphView, UpdateError};
use ngd_match::{PlanCache, Violation};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::poller::{Interest, Poller, Waker};
use crate::protocol::{encode_frame, scan_frame};

/// Where a server listens / a client connects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeAddr {
    /// A Unix-domain socket path (`unix:/run/ngd.sock`).
    Unix(PathBuf),
    /// A TCP host:port (`tcp:127.0.0.1:7411`).
    Tcp(String),
}

impl ServeAddr {
    /// Parse `unix:<path>` or `tcp:<host>:<port>`.
    pub fn parse(text: &str) -> Result<ServeAddr, ProtocolError> {
        if let Some(path) = text.strip_prefix("unix:") {
            if path.is_empty() {
                return Err(ProtocolError::Corrupt("empty unix socket path".into()));
            }
            Ok(ServeAddr::Unix(PathBuf::from(path)))
        } else if let Some(addr) = text.strip_prefix("tcp:") {
            if addr.is_empty() {
                return Err(ProtocolError::Corrupt("empty tcp address".into()));
            }
            Ok(ServeAddr::Tcp(addr.to_string()))
        } else {
            Err(ProtocolError::Corrupt(format!(
                "address `{text}` must start with `unix:` or `tcp:`"
            )))
        }
    }
}

impl std::fmt::Display for ServeAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeAddr::Unix(path) => write!(f, "unix:{}", path.display()),
            ServeAddr::Tcp(addr) => write!(f, "tcp:{addr}"),
        }
    }
}

/// The mapped snapshot a server (or one epoch of a server) holds, plus the
/// path it was mapped from.
#[derive(Debug)]
pub struct SnapshotStore {
    path: PathBuf,
    snapshot: MmapSnapshot,
    /// Compiled match plans for this mapping, shared by every session that
    /// reads it.  A compaction publishes a *new* store (hence a fresh,
    /// empty cache keyed to the new epoch) — stale plans can never leak
    /// across an epoch switch.
    plan_cache: PlanCache,
}

impl SnapshotStore {
    /// Map `path`.
    pub fn open(path: &Path) -> Result<SnapshotStore, PersistError> {
        let snapshot = MmapSnapshot::load(path)?;
        Ok(SnapshotStore {
            path: path.to_path_buf(),
            plan_cache: PlanCache::for_epoch(snapshot.epoch()),
            snapshot,
        })
    }

    /// The plan cache every session on this mapping compiles into.
    pub fn plan_cache(&self) -> &PlanCache {
        &self.plan_cache
    }

    /// The file this store is mapped from.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The epoch recorded in the mapped file's header.
    pub fn epoch(&self) -> u64 {
        self.snapshot.epoch()
    }

    /// Nodes in the snapshot.
    pub fn node_count(&self) -> usize {
        GraphView::node_count(&self.snapshot)
    }

    /// Edges in the snapshot.
    pub fn edge_count(&self) -> usize {
        GraphView::edge_count(&self.snapshot)
    }

    /// Merge `net` into this store's file and map the result: the next
    /// epoch, stamped `epoch() + 1`.
    fn compact_into(&self, net: &BatchUpdate, out_path: &Path) -> Result<SnapshotStore, String> {
        let bytes = CompactionWriter::new()
            .encode(&self.snapshot, net, self.epoch() + 1)
            .map_err(|e| e.to_string())?;
        std::fs::write(out_path, &bytes)
            .map_err(|e| format!("write {}: {e}", out_path.display()))?;
        SnapshotStore::open(out_path).map_err(|e| e.to_string())
    }
}

/// Serving knobs beyond the detector configuration.
#[derive(Debug, Clone, Default)]
pub struct ServeOptions {
    /// Compact automatically once a session's *accumulated* unit updates
    /// reach this count (checked after each absorbed batch).  Raw size,
    /// not net: the per-batch overlay bookkeeping cost grows with the raw
    /// operation sequence, so an insert/delete churn workload (net ≈ 0)
    /// must still trigger — compacting resets it to an empty overlay
    /// either way.  `None` disables auto-compaction; `COMPACT` frames
    /// always work.
    pub compact_after: Option<u64>,
    /// Write a pretty-JSON metrics-registry snapshot to this path
    /// periodically and once more on shutdown.  `None` disables dumping;
    /// the `METRICS` frame works either way.
    pub metrics_dump: Option<PathBuf>,
    /// How often the dump file is rewritten (default 30 s).  Ignored
    /// without `metrics_dump`.
    pub metrics_interval: Option<Duration>,
    /// Worker threads executing requests (default
    /// `min(available_parallelism, 8)`, at least 2).  This — not the
    /// connection count — bounds the daemon's OS threads: a thousand idle
    /// connections cost a thousand fds and read buffers, never a thousand
    /// stacks.
    pub worker_threads: Option<usize>,
    /// Per-connection write-queue high-water mark in bytes (default
    /// 1 MiB).  A worker streaming `ΔVio` to a slow reader blocks once the
    /// queue crosses this mark — suspending *that session's* expansion
    /// until the reactor drains the queue below a quarter of it — so one
    /// slow reader can never balloon daemon memory or stall the loop.
    pub write_buffer_limit: Option<usize>,
}

/// Shared server state behind the `Arc` every session thread clones.
struct Shared {
    /// The currently published snapshot epoch.  Sessions clone the `Arc`
    /// at their next message boundary; superseded mappings stay alive —
    /// and mapped — exactly as long as a session still holds them.
    current: Mutex<Arc<SnapshotStore>>,
    /// The path the daemon was started on; compacted epochs are written
    /// next to it as `<stem>.e<epoch>-<seq>.ngds`.
    snapshot_path: PathBuf,
    /// Epoch files this server created (unlinked on drop).
    owned_files: Mutex<Vec<PathBuf>>,
    /// The immutable server-wide default rule set; sessions that want a
    /// different one swap their own copy via the `RULES` frame.
    sigma: Arc<RuleSet>,
    detector: DetectorConfig,
    options: ServeOptions,
    server_name: String,
    /// When the daemon started (uptime reporting).
    started: Instant,
    shutdown: AtomicBool,
    /// Wakes sleepers (the metrics-dump loop) the moment shutdown is
    /// signalled, so no thread polls the flag on a timer.
    shutdown_mu: Mutex<bool>,
    shutdown_cv: Condvar,
    sessions_active: AtomicUsize,
    sessions_total: AtomicU64,
    updates_served: AtomicU64,
    violations_streamed: AtomicU64,
    compactions: AtomicU64,
    /// Distinguishes epoch files when concurrent compactions race from the
    /// same base epoch — overwriting a path that is still mapped would be
    /// a SIGBUS hazard, so every compaction writes a fresh file.
    file_seq: AtomicU64,
}

impl Shared {
    fn published(&self) -> Arc<SnapshotStore> {
        Arc::clone(&self.current.lock().expect("current epoch lock"))
    }

    /// Set the shutdown flag and wake every sleeper watching it.
    fn signal_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        *self.shutdown_mu.lock().expect("shutdown lock") = true;
        self.shutdown_cv.notify_all();
    }
}

/// A running detection daemon; dropping it **without** calling
/// [`Server::wait`] / [`Server::shutdown`] aborts the event loop.
pub struct Server {
    shared: Arc<Shared>,
    /// The reactor thread.
    reactor: Option<std::thread::JoinHandle<()>>,
    /// Pokes the reactor's poller awake from outside (shutdown, drop).
    notify: Arc<ReactorShared>,
    /// The periodic `--metrics-dump` writer, when configured.
    metrics_dump: Option<std::thread::JoinHandle<()>>,
    local: ServeAddr,
    /// Unix socket path to unlink once the server is done.
    cleanup: Option<PathBuf>,
    /// The daemon registry this server appended its address to.
    registry: PathBuf,
    /// The exact line to strip from the registry on graceful shutdown.
    registry_line: String,
}

impl Server {
    /// Bind `addr` and start serving `store` with `sigma` as the default
    /// rule set and default [`ServeOptions`].
    ///
    /// `tcp:host:0` binds an ephemeral port; the actual address is
    /// reported by [`Server::local_addr`].
    pub fn start(
        store: SnapshotStore,
        sigma: RuleSet,
        addr: &ServeAddr,
        detector: DetectorConfig,
    ) -> Result<Server, ProtocolError> {
        Server::start_with(store, sigma, addr, detector, ServeOptions::default())
    }

    /// As [`Server::start`], with explicit [`ServeOptions`].
    pub fn start_with(
        store: SnapshotStore,
        sigma: RuleSet,
        addr: &ServeAddr,
        detector: DetectorConfig,
        options: ServeOptions,
    ) -> Result<Server, ProtocolError> {
        let snapshot_path = store.path().to_path_buf();
        // GC **before** the bind: a daemon restarted on the same unix
        // address would otherwise answer its crashed predecessor's
        // liveness ping itself and judge the leaked epoch files owned.
        gc_stale_epoch_files(&snapshot_path);
        let shared = Arc::new(Shared {
            current: Mutex::new(Arc::new(store)),
            snapshot_path,
            owned_files: Mutex::new(Vec::new()),
            sigma: Arc::new(sigma),
            detector,
            options,
            server_name: format!("ngd-serve/{}", env!("CARGO_PKG_VERSION")),
            started: Instant::now(),
            shutdown: AtomicBool::new(false),
            shutdown_mu: Mutex::new(false),
            shutdown_cv: Condvar::new(),
            sessions_active: AtomicUsize::new(0),
            sessions_total: AtomicU64::new(0),
            updates_served: AtomicU64::new(0),
            violations_streamed: AtomicU64::new(0),
            compactions: AtomicU64::new(0),
            file_seq: AtomicU64::new(0),
        });
        let (listener, local, cleanup) = AnyListener::bind(addr)?;
        // Register the *resolved* address (ephemeral TCP ports included)
        // so a later startup's GC can ping this daemon.  Best-effort: a
        // read-only directory costs the GC safety net, not the server.
        let registry = daemon_registry_path(&shared.snapshot_path);
        let registry_line = local.to_string();
        if let Ok(mut file) = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&registry)
        {
            let _ = writeln!(file, "{registry_line}");
        }
        let notify = Arc::new(ReactorShared::new().map_err(|e| ProtocolError::Io(e.to_string()))?);
        let reactor = {
            let reactor_shared = Arc::clone(&shared);
            let reactor_notify = Arc::clone(&notify);
            std::thread::Builder::new()
                .name("ngd-serve-reactor".into())
                .spawn(move || {
                    if let Err(e) = reactor_loop(reactor_shared, reactor_notify, listener) {
                        eprintln!("ngd-serve: reactor failed: {e}");
                    }
                })
                .map_err(|e| ProtocolError::Io(e.to_string()))?
        };
        let metrics_dump = match shared.options.metrics_dump.clone() {
            Some(path) => {
                let interval = shared
                    .options
                    .metrics_interval
                    .unwrap_or(Duration::from_secs(30));
                let dump_shared = Arc::clone(&shared);
                Some(
                    std::thread::Builder::new()
                        .name("ngd-serve-metrics".into())
                        .spawn(move || metrics_dump_loop(dump_shared, path, interval))
                        .map_err(|e| ProtocolError::Io(e.to_string()))?,
                )
            }
            None => None,
        };
        Ok(Server {
            shared,
            reactor: Some(reactor),
            notify,
            metrics_dump,
            local,
            cleanup,
            registry,
            registry_line,
        })
    }

    /// Poke the event loop awake so it observes a state change made from
    /// outside (shutdown request, drop).
    fn wake(&self) {
        self.notify.waker.wake();
    }

    /// The address the server actually listens on (ephemeral TCP ports
    /// resolved).
    pub fn local_addr(&self) -> &ServeAddr {
        &self.local
    }

    /// The epoch the server currently publishes.
    pub fn published_epoch(&self) -> u64 {
        self.shared.published().epoch()
    }

    /// Has a `SHUTDOWN` frame (or [`Server::shutdown`]) been processed?
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Block until the server shuts down (via a client `SHUTDOWN` frame),
    /// then join the event loop and its worker pool.
    pub fn wait(mut self) {
        if let Some(handle) = self.reactor.take() {
            let _ = handle.join();
        }
    }

    /// Request shutdown and join the event loop and its worker pool.
    pub fn shutdown(mut self) {
        self.shared.signal_shutdown();
        self.wake();
        if let Some(handle) = self.reactor.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shared.signal_shutdown();
        self.wake();
        if let Some(handle) = self.reactor.take() {
            let _ = handle.join();
        }
        if let Some(handle) = self.metrics_dump.take() {
            let _ = handle.join();
        }
        if let Some(path) = self.cleanup.take() {
            let _ = std::fs::remove_file(path);
        }
        // Epoch files this daemon created are scratch state: every session
        // has drained by now, so the mappings are gone and the files can go
        // too (the operator's original snapshot is never touched).
        for path in self
            .shared
            .owned_files
            .lock()
            .expect("owned files")
            .drain(..)
        {
            let _ = std::fs::remove_file(path);
        }
        // Deregister: strip exactly one copy of our line so the registry
        // only ever names daemons that died *un*gracefully.
        if let Ok(text) = std::fs::read_to_string(&self.registry) {
            let mut stripped = false;
            let remaining: Vec<&str> = text
                .lines()
                .filter(|line| {
                    if !stripped && *line == self.registry_line {
                        stripped = true;
                        false
                    } else {
                        !line.trim().is_empty()
                    }
                })
                .collect();
            if remaining.is_empty() {
                let _ = std::fs::remove_file(&self.registry);
            } else {
                let _ = std::fs::write(&self.registry, remaining.join("\n") + "\n");
            }
        }
    }
}

/// The daemon registry kept next to `snapshot_path`: one listen address
/// per line (`unix:…` / `tcp:…`), appended on startup, stripped on
/// graceful shutdown.
fn daemon_registry_path(snapshot_path: &Path) -> PathBuf {
    let name = snapshot_path
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or("snapshot");
    snapshot_path.with_file_name(format!("{name}.daemons"))
}

/// Is `name` a compacted-epoch sibling of a snapshot with this `stem` —
/// i.e. `<stem>.e<digits>-<digits>.ngds` as written by `compact_session`?
fn is_epoch_file_name(name: &str, stem: &str) -> bool {
    let Some(rest) = name.strip_prefix(stem) else {
        return false;
    };
    let Some(rest) = rest.strip_prefix(".e") else {
        return false;
    };
    let Some(body) = rest.strip_suffix(".ngds") else {
        return false;
    };
    let Some((epoch, seq)) = body.split_once('-') else {
        return false;
    };
    !epoch.is_empty()
        && !seq.is_empty()
        && epoch.bytes().all(|b| b.is_ascii_digit())
        && seq.bytes().all(|b| b.is_ascii_digit())
}

/// Does anything answer a connect on `addr`?  Same decisive-connect rule
/// as the stale-unix-socket check in [`AnyListener::bind`]: only a refused
/// connection (or a missing socket file) proves nothing listens; any
/// murkier failure could be a live-but-busy daemon, so it counts as alive.
fn daemon_answers(addr: &ServeAddr) -> bool {
    match addr {
        ServeAddr::Unix(path) => {
            use std::io::ErrorKind;
            match std::os::unix::net::UnixStream::connect(path) {
                Ok(_) => true,
                Err(e) => !matches!(e.kind(), ErrorKind::ConnectionRefused | ErrorKind::NotFound),
            }
        }
        ServeAddr::Tcp(spec) => match TcpStream::connect(spec) {
            Ok(_) => true,
            Err(e) => e.kind() != std::io::ErrorKind::ConnectionRefused,
        },
    }
}

/// Unlink epoch files leaked next to `snapshot_path` by crashed daemons.
///
/// Reads the sibling registry, pings every recorded address, and prunes
/// the lines that no longer answer.  Only when **no** registered daemon
/// answers are the `<stem>.e<epoch>-<seq>.ngds` siblings unlinked (and the
/// registry removed with them): the registry does not say which daemon
/// wrote which file, so while any answers every epoch file is presumed
/// owned.  Unparseable lines are kept and treated as alive — deleting
/// mapped files on a guess would SIGBUS a reader.  Best-effort and racy by
/// design (two daemons starting at once may both rewrite the registry);
/// the appends on startup re-establish every live daemon's line.
fn gc_stale_epoch_files(snapshot_path: &Path) {
    let registry = daemon_registry_path(snapshot_path);
    let Ok(text) = std::fs::read_to_string(&registry) else {
        return;
    };
    let recorded: Vec<&str> = text
        .lines()
        .map(str::trim)
        .filter(|line| !line.is_empty())
        .collect();
    let live: Vec<&str> = recorded
        .iter()
        .copied()
        .filter(|line| match ServeAddr::parse(line) {
            Ok(addr) => daemon_answers(&addr),
            Err(_) => true,
        })
        .collect();
    if live.is_empty() {
        let stem = snapshot_path
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("snapshot");
        let dir = match snapshot_path.parent() {
            Some(d) if !d.as_os_str().is_empty() => d,
            _ => Path::new("."),
        };
        if let Ok(entries) = std::fs::read_dir(dir) {
            for entry in entries.flatten() {
                let name = entry.file_name();
                if name.to_str().is_some_and(|n| is_epoch_file_name(n, stem)) {
                    let _ = std::fs::remove_file(entry.path());
                }
            }
        }
        let _ = std::fs::remove_file(&registry);
    } else if live.len() < recorded.len() {
        let _ = std::fs::write(&registry, live.join("\n") + "\n");
    }
}

enum AnyListener {
    Unix(std::os::unix::net::UnixListener),
    Tcp(TcpListener),
}

enum AnyStream {
    Unix(std::os::unix::net::UnixStream),
    Tcp(TcpStream),
}

impl Read for AnyStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            AnyStream::Unix(s) => s.read(buf),
            AnyStream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for AnyStream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            AnyStream::Unix(s) => s.write(buf),
            AnyStream::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            AnyStream::Unix(s) => s.flush(),
            AnyStream::Tcp(s) => s.flush(),
        }
    }
}

impl AnyListener {
    fn bind(addr: &ServeAddr) -> Result<(AnyListener, ServeAddr, Option<PathBuf>), ProtocolError> {
        match addr {
            ServeAddr::Unix(path) => {
                // A socket file left by a killed daemon would block the
                // bind forever.  Ping it first: if something answers the
                // connect, a live daemon owns the path and we must NOT
                // steal it; if nothing answers, the file is stale and is
                // unlinked so the bind can proceed.
                if path.exists() {
                    match std::os::unix::net::UnixStream::connect(path) {
                        Ok(_) => {
                            return Err(ProtocolError::Io(format!(
                                "{} is in use by a live daemon (connect succeeded); \
                                 refusing to steal the socket",
                                path.display()
                            )));
                        }
                        // Only a refused connection proves nothing is
                        // listening.  Any other failure (EAGAIN from a
                        // momentarily full accept backlog, EACCES, …)
                        // could be a live daemon — refuse to unlink on
                        // a guess.
                        Err(e) if e.kind() == std::io::ErrorKind::ConnectionRefused => {
                            let _ = std::fs::remove_file(path);
                        }
                        Err(e) => {
                            return Err(ProtocolError::Io(format!(
                                "{} did not answer the liveness ping decisively \
                                 ({e}); refusing to unlink it — remove the socket \
                                 manually if the daemon is really gone",
                                path.display()
                            )));
                        }
                    }
                }
                let listener = std::os::unix::net::UnixListener::bind(path)
                    .map_err(|e| ProtocolError::Io(format!("bind {}: {e}", path.display())))?;
                listener
                    .set_nonblocking(true)
                    .map_err(|e| ProtocolError::Io(e.to_string()))?;
                Ok((
                    AnyListener::Unix(listener),
                    ServeAddr::Unix(path.clone()),
                    Some(path.clone()),
                ))
            }
            ServeAddr::Tcp(spec) => {
                let listener = TcpListener::bind(spec)
                    .map_err(|e| ProtocolError::Io(format!("bind {spec}: {e}")))?;
                listener
                    .set_nonblocking(true)
                    .map_err(|e| ProtocolError::Io(e.to_string()))?;
                let local = listener
                    .local_addr()
                    .map_err(|e| ProtocolError::Io(e.to_string()))?;
                Ok((
                    AnyListener::Tcp(listener),
                    ServeAddr::Tcp(local.to_string()),
                    None,
                ))
            }
        }
    }

    /// Accept one connection for the reactor: the stream stays (becomes)
    /// non-blocking, as every reactor read/write must be.
    fn accept_nonblocking(&self) -> std::io::Result<AnyStream> {
        match self {
            AnyListener::Unix(l) => l.accept().map(|(s, _)| {
                let _ = s.set_nonblocking(true);
                AnyStream::Unix(s)
            }),
            AnyListener::Tcp(l) => l.accept().map(|(s, _)| {
                let _ = s.set_nonblocking(true);
                let _ = s.set_nodelay(true);
                AnyStream::Tcp(s)
            }),
        }
    }

    fn raw_fd(&self) -> std::os::unix::io::RawFd {
        use std::os::unix::io::AsRawFd;
        match self {
            AnyListener::Unix(l) => l.as_raw_fd(),
            AnyListener::Tcp(l) => l.as_raw_fd(),
        }
    }
}

impl AnyStream {
    fn raw_fd(&self) -> std::os::unix::io::RawFd {
        use std::os::unix::io::AsRawFd;
        match self {
            AnyStream::Unix(s) => s.as_raw_fd(),
            AnyStream::Tcp(s) => s.as_raw_fd(),
        }
    }
}

/// The `--metrics-dump` writer: rewrite `path` with a pretty-JSON registry
/// snapshot every `interval`, and once more on shutdown so the final state
/// of a graceful exit is always on disk.  Sleeps on the shutdown condvar —
/// a shutdown wakes it immediately, and an idle daemon never spins a
/// polling timer.
fn metrics_dump_loop(shared: Arc<Shared>, path: PathBuf, interval: Duration) {
    let mut guard = shared.shutdown_mu.lock().expect("shutdown lock");
    while !*guard {
        let (g, timeout) = shared
            .shutdown_cv
            .wait_timeout(guard, interval)
            .expect("shutdown lock");
        guard = g;
        if !*guard && timeout.timed_out() {
            drop(guard);
            write_metrics_dump(&path);
            guard = shared.shutdown_mu.lock().expect("shutdown lock");
        }
    }
    drop(guard);
    write_metrics_dump(&path);
}

/// Best-effort dump-file rewrite (a read-only directory costs the dump,
/// not the daemon).
fn write_metrics_dump(path: &Path) {
    let snapshot = ngd_obs::global().snapshot();
    if let Err(e) = std::fs::write(path, ngd_obs::render_json_pretty(&snapshot)) {
        eprintln!(
            "ngd-serve: cannot write metrics dump {}: {e}",
            path.display()
        );
    }
}

/// Total request bytes read off client connections.
static BYTES_IN: ngd_obs::LazyCounter = ngd_obs::LazyCounter::new("serve.bytes.in");
/// Total response bytes written to client connections.
static BYTES_OUT: ngd_obs::LazyCounter = ngd_obs::LazyCounter::new("serve.bytes.out");
/// Sessions accepted since startup (mirrors `Shared::sessions_total`).
static SESSIONS_TOTAL: ngd_obs::LazyCounter = ngd_obs::LazyCounter::new("serve.sessions.total");
/// Sessions currently connected (mirrors `Shared::sessions_active`).
static SESSIONS_ACTIVE: ngd_obs::LazyGauge = ngd_obs::LazyGauge::new("serve.sessions.active");
/// Epoch switches published (mirrors `Shared::compactions`).
static EPOCH_SWITCHES: ngd_obs::LazyCounter = ngd_obs::LazyCounter::new("serve.epoch.switches");
/// Sessions successfully re-rooted onto a newly published epoch.
static SESSION_REBASES: ngd_obs::LazyCounter = ngd_obs::LazyCounter::new("serve.session.rebases");
/// `EPOCH_SWITCHED` notices pushed to clients.
static SWITCH_NOTICES: ngd_obs::LazyCounter =
    ngd_obs::LazyCounter::new("serve.epoch.switched_notices");
/// Poller wake-ups of the reactor loop.
static LOOP_ITERATIONS: ngd_obs::LazyCounter = ngd_obs::LazyCounter::new("serve.loop.iterations");
/// Readiness events delivered across all reactor wake-ups; the ratio to
/// `serve.loop.iterations` is the loop's batching factor under load.
static LOOP_READY_EVENTS: ngd_obs::LazyCounter =
    ngd_obs::LazyCounter::new("serve.loop.ready_events");
/// Times a worker blocked on a connection's full write queue (once per
/// stall, not per retry) — a rising rate means slow readers.
static BACKPRESSURE_STALLS: ngd_obs::LazyCounter =
    ngd_obs::LazyCounter::new("serve.backpressure.stalls");
/// Requests parked in the worker-pool queue right now.
static QUEUE_DEPTH: ngd_obs::LazyGauge = ngd_obs::LazyGauge::new("serve.queue.depth");
/// Nanoseconds from accepting an `UPDATE` to handing its first violation
/// to the wire — the latency win of streaming `ΔVio` *during* expansion.
static FIRST_VIO_NS: ngd_obs::LazyHistogram = ngd_obs::LazyHistogram::new("serve.first_vio.ns");

/// The metric segment for a request frame kind (`serve.frame.<segment>.*`).
fn frame_metric_name(kind: u32) -> Option<&'static str> {
    Some(match kind {
        frame::HELLO => "hello",
        frame::RULES => "rules",
        frame::UPDATE => "update",
        frame::QUERY => "query",
        frame::STATS => "stats",
        frame::RESET => "reset",
        frame::SHUTDOWN => "shutdown",
        frame::COMPACT => "compact",
        frame::EPOCH => "epoch",
        frame::METRICS => "metrics",
        _ => return None,
    })
}

/// Counts a request on construction and records its latency on drop, so
/// the sample lands even when the dispatch arm bails early with an error
/// reply.  Two registry lookups per request — nowhere near the per-frame
/// byte path.
struct FrameTimer {
    name: &'static str,
    start: Instant,
}

impl FrameTimer {
    fn start(kind: u32) -> Option<FrameTimer> {
        if !ngd_obs::enabled() {
            return None;
        }
        let name = frame_metric_name(kind)?;
        ngd_obs::global()
            .counter(&format!("serve.frame.{name}.count"))
            .inc();
        Some(FrameTimer {
            name,
            start: Instant::now(),
        })
    }
}

impl Drop for FrameTimer {
    fn drop(&mut self) {
        ngd_obs::global()
            .histogram(&format!("serve.frame.{}.latency_ns", self.name))
            .record_duration(self.start.elapsed());
    }
}

/// Default per-connection write-queue high-water mark (1 MiB).
const DEFAULT_WRITE_BUFFER_LIMIT: usize = 1 << 20;

/// Default worker-pool size: one per core up to 8, at least 2 (so one
/// long expansion never monopolises the daemon).
fn default_worker_count() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .clamp(2, 8)
}

/// What a finished request means for its connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Disposition {
    /// Park the session and serve the next frame.
    KeepAlive,
    /// Flush queued answers, then close (SHUTDOWN's reply, fatal errors).
    Close,
}

/// Everything a connection's requests operate on: the detection session
/// plus its rule set (starts as the server-wide default; `RULES` swaps
/// it).  Parked on the connection between frames, moved into a worker for
/// the duration of one request.
struct SessionState {
    ctx: SessionCtx,
    sigma: Arc<RuleSet>,
}

impl SessionState {
    fn new(shared: &Shared) -> SessionState {
        SessionState {
            ctx: SessionCtx::new(shared.published()),
            sigma: Arc::clone(&shared.sigma),
        }
    }
}

/// Stream a violation iterator as bounded `VIO_CHUNK` frames, encoding
/// each chunk straight from the borrowed set (no per-violation clones).
fn stream_violations<'v>(
    sink: &ConnIo,
    side: Side,
    violations: impl Iterator<Item = &'v Violation>,
) -> Result<u64, ProtocolError> {
    let mut total = 0u64;
    let mut chunk: Vec<&'v Violation> = Vec::with_capacity(VIO_CHUNK_LEN);
    for violation in violations {
        chunk.push(violation);
        if chunk.len() == VIO_CHUNK_LEN {
            total += chunk.len() as u64;
            sink.send(frame::VIO_CHUNK, &VioChunk::encode_refs(side, &chunk))?;
            chunk.clear();
        }
    }
    if !chunk.is_empty() {
        total += chunk.len() as u64;
        sink.send(frame::VIO_CHUNK, &VioChunk::encode_refs(side, &chunk))?;
    }
    Ok(total)
}

// ---------------------------------------------------------------------------
// Reactor: event loop + bounded worker pool
// ---------------------------------------------------------------------------

/// State the reactor shares with worker threads and the [`Server`] handle:
/// the waker that interrupts a blocked `Poller::wait`, plus the two
/// mailboxes workers fill (flush requests and finished requests).
struct ReactorShared {
    waker: Waker,
    /// Connections whose write queues gained bytes since the last pass.
    flush: Mutex<Vec<u64>>,
    /// Finished requests waiting for the reactor to re-park their
    /// sessions.
    completions: Mutex<Vec<Completion>>,
}

impl ReactorShared {
    fn new() -> std::io::Result<ReactorShared> {
        Ok(ReactorShared {
            waker: Waker::new()?,
            flush: Mutex::new(Vec::new()),
            completions: Mutex::new(Vec::new()),
        })
    }

    fn request_flush(&self, token: u64) {
        let mut flush = self.flush.lock().expect("flush list lock");
        if !flush.contains(&token) {
            flush.push(token);
        }
        drop(flush);
        self.waker.wake();
    }

    fn complete(&self, completion: Completion) {
        self.completions
            .lock()
            .expect("completion list lock")
            .push(completion);
        self.waker.wake();
    }
}

/// The write side of one connection, shared between the reactor (which
/// drains it to the socket) and whichever worker currently serves the
/// connection (which fills it).
struct ConnIo {
    token: u64,
    reactor: Arc<ReactorShared>,
    /// High-water mark: [`ConnIo::send`] blocks while `total` is at or
    /// above this.
    limit: usize,
    write: Mutex<WriteBuf>,
    /// Signalled when the queue drains below a quarter of `limit` (and on
    /// death), releasing a stalled worker.
    drained: Condvar,
    dead: AtomicBool,
}

#[derive(Default)]
struct WriteBuf {
    queue: VecDeque<Vec<u8>>,
    /// Bytes of `queue[0]` already written to the socket.
    front_pos: usize,
    /// Unwritten bytes across the whole queue.
    total: usize,
}

impl ConnIo {
    /// Queue one frame for the reactor to write, blocking while the
    /// connection's write queue is above its high-water mark.  This is the
    /// back-pressure path: a slow reader suspends *this session's*
    /// producer (a worker or its detect threads), never the event loop.
    fn send(&self, kind: u32, payload: &[u8]) -> Result<(), ProtocolError> {
        let bytes = encode_frame(kind, payload)?;
        let mut buf = self.write.lock().expect("write queue lock");
        let mut stalled = false;
        while buf.total >= self.limit && !self.dead.load(Ordering::SeqCst) {
            if !stalled {
                BACKPRESSURE_STALLS.inc();
                stalled = true;
            }
            buf = self.drained.wait(buf).expect("write queue lock");
        }
        if self.dead.load(Ordering::SeqCst) {
            return Err(ProtocolError::Disconnected);
        }
        buf.total += bytes.len();
        buf.queue.push_back(bytes);
        drop(buf);
        self.reactor.request_flush(self.token);
        Ok(())
    }

    /// Send an `ERROR` frame (best-effort — the peer may already be gone).
    fn send_error(&self, code: u32, message: String) {
        let payload = ErrorResponse { code, message }.encode();
        let _ = self.send(frame::ERROR, &payload);
    }

    /// Queue bytes ignoring the high-water mark — reactor-only, for the
    /// ERROR answer on a broken stream (the reactor must never block).
    fn queue_unbounded(&self, bytes: Vec<u8>) {
        let mut buf = self.write.lock().expect("write queue lock");
        buf.total += bytes.len();
        buf.queue.push_back(bytes);
    }

    /// Mark the connection dead and release any stalled producer (it
    /// observes [`ProtocolError::Disconnected`] instead of blocking
    /// forever).  Taking the lock before notifying closes the window where
    /// a producer has checked `dead`, not yet parked, and would miss the
    /// wake-up.
    fn mark_dead(&self) {
        self.dead.store(true, Ordering::SeqCst);
        drop(self.write.lock().expect("write queue lock"));
        self.drained.notify_all();
    }
}

/// One request in flight from the reactor to the worker pool.
struct Job {
    token: u64,
    kind: u32,
    payload: Vec<u8>,
    state: SessionState,
    io: Arc<ConnIo>,
}

/// A finished request on its way back to the reactor.
struct Completion {
    token: u64,
    state: SessionState,
    disposition: Disposition,
}

struct PoolShared {
    queue: Mutex<VecDeque<Job>>,
    ready: Condvar,
    stop: AtomicBool,
}

/// The bounded worker pool: `worker_threads` OS threads execute requests;
/// connections beyond that wait in the queue (`serve.queue.depth`), their
/// sockets exerting TCP back-pressure because the reactor keeps their
/// read interest disarmed while a request is outstanding.
struct WorkerPool {
    inner: Arc<PoolShared>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl WorkerPool {
    fn start(
        count: usize,
        shared: &Arc<Shared>,
        reactor: &Arc<ReactorShared>,
    ) -> std::io::Result<WorkerPool> {
        let inner = Arc::new(PoolShared {
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            stop: AtomicBool::new(false),
        });
        let mut handles = Vec::with_capacity(count);
        for _ in 0..count {
            let pool = Arc::clone(&inner);
            let shared = Arc::clone(shared);
            let reactor = Arc::clone(reactor);
            handles.push(
                std::thread::Builder::new()
                    .name("ngd-serve-worker".into())
                    .spawn(move || worker_loop(pool, shared, reactor))?,
            );
        }
        Ok(WorkerPool { inner, handles })
    }

    fn submit(&self, job: Job) {
        let mut queue = self.inner.queue.lock().expect("job queue lock");
        queue.push_back(job);
        QUEUE_DEPTH.set(queue.len() as i64);
        drop(queue);
        self.inner.ready.notify_one();
    }

    /// Stop after the queue drains and join every worker.
    fn join(mut self) {
        self.inner.stop.store(true, Ordering::SeqCst);
        self.inner.ready.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(pool: Arc<PoolShared>, shared: Arc<Shared>, reactor: Arc<ReactorShared>) {
    loop {
        let job = {
            let mut queue = pool.queue.lock().expect("job queue lock");
            loop {
                if let Some(job) = queue.pop_front() {
                    QUEUE_DEPTH.set(queue.len() as i64);
                    break Some(job);
                }
                if pool.stop.load(Ordering::SeqCst) {
                    break None;
                }
                queue = pool.ready.wait(queue).expect("job queue lock");
            }
        };
        let Some(mut job) = job else { return };
        let disposition = {
            let _frame_timer = FrameTimer::start(job.kind);
            match handle_request(&shared, &mut job.state, &job.io, job.kind, &job.payload) {
                Ok(disposition) => disposition,
                // The sink failed (client gone mid-answer): nothing more
                // can be said on this connection.
                Err(_) => Disposition::Close,
            }
        };
        reactor.complete(Completion {
            token: job.token,
            state: job.state,
            disposition,
        });
    }
}

/// One connection as the reactor sees it.
struct Connection {
    stream: AnyStream,
    /// Bytes read but not yet parsed into a frame.
    read_buf: Vec<u8>,
    io: Arc<ConnIo>,
    /// The parked session; `None` while a worker runs a request on it.
    state: Option<SessionState>,
    /// Interest currently registered with the poller.
    interest: Interest,
    /// Close once the write queue drains.
    closing: bool,
    /// The last flush left unwritten bytes; keep write interest armed.
    want_write: bool,
}

struct Reactor {
    shared: Arc<Shared>,
    notify: Arc<ReactorShared>,
    poller: Poller,
    conns: std::collections::HashMap<u64, Connection>,
    next_token: u64,
    limit: usize,
}

const LISTENER_TOKEN: u64 = 0;
const WAKER_TOKEN: u64 = 1;

/// The event loop: owns the listener and every connection fd, parses
/// frames incrementally, dispatches complete requests to the worker pool,
/// and drains per-connection write queues — never blocking on any one
/// peer.
fn reactor_loop(
    shared: Arc<Shared>,
    notify: Arc<ReactorShared>,
    listener: AnyListener,
) -> std::io::Result<()> {
    let mut poller = Poller::new()?;
    poller.register(listener.raw_fd(), LISTENER_TOKEN, Interest::READ)?;
    poller.register(notify.waker.fd(), WAKER_TOKEN, Interest::READ)?;
    let workers = shared
        .options
        .worker_threads
        .unwrap_or_else(default_worker_count)
        .max(1);
    let limit = shared
        .options
        .write_buffer_limit
        .unwrap_or(DEFAULT_WRITE_BUFFER_LIMIT)
        .max(1);
    let pool = WorkerPool::start(workers, &shared, &notify)?;
    let mut reactor = Reactor {
        shared,
        notify,
        poller,
        conns: std::collections::HashMap::new(),
        next_token: 2,
        limit,
    };
    let mut listener = Some(listener);
    let mut events = Vec::new();
    loop {
        // Shutdown: close the listener at once; exit when the last
        // connection drains.
        if reactor.shared.shutdown.load(Ordering::SeqCst) {
            if let Some(l) = listener.take() {
                let _ = reactor.poller.deregister(l.raw_fd());
                // Dropping the listener closes the socket.
            }
            if reactor.conns.is_empty() {
                break;
            }
        }
        events.clear();
        reactor.poller.wait(&mut events)?;
        LOOP_ITERATIONS.inc();
        LOOP_READY_EVENTS.add(events.len() as u64);
        for event in &events {
            match event.token {
                WAKER_TOKEN => reactor.notify.waker.drain(),
                LISTENER_TOKEN => {
                    if let Some(l) = listener.as_ref() {
                        reactor.accept_ready(l);
                    }
                }
                token => {
                    if event.readable {
                        reactor.on_readable(token, &pool);
                    }
                    if event.writable {
                        reactor.try_flush(token);
                    }
                }
            }
        }
        // Worker signals (completions, flush requests) arrive at any time;
        // the waker guarantees this pass happens promptly after each.
        reactor.drain_worker_signals(&pool);
    }
    pool.join();
    Ok(())
}

impl Reactor {
    fn accept_ready(&mut self, listener: &AnyListener) {
        loop {
            match listener.accept_nonblocking() {
                Ok(stream) => {
                    let token = self.next_token;
                    self.next_token += 1;
                    let io = Arc::new(ConnIo {
                        token,
                        reactor: Arc::clone(&self.notify),
                        limit: self.limit,
                        write: Mutex::new(WriteBuf::default()),
                        drained: Condvar::new(),
                        dead: AtomicBool::new(false),
                    });
                    if self
                        .poller
                        .register(stream.raw_fd(), token, Interest::READ)
                        .is_err()
                    {
                        // Dropping the stream refuses this one connection;
                        // the daemon itself survives.
                        continue;
                    }
                    self.shared.sessions_total.fetch_add(1, Ordering::SeqCst);
                    self.shared.sessions_active.fetch_add(1, Ordering::SeqCst);
                    SESSIONS_TOTAL.inc();
                    SESSIONS_ACTIVE.add(1);
                    self.conns.insert(
                        token,
                        Connection {
                            stream,
                            read_buf: Vec::new(),
                            io,
                            state: Some(SessionState::new(&self.shared)),
                            interest: Interest::READ,
                            closing: false,
                            want_write: false,
                        },
                    );
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    fn on_readable(&mut self, token: u64, pool: &WorkerPool) {
        let closed = {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if conn.closing || conn.state.is_none() {
                // Draining to close, or a worker is busy (read interest is
                // disarmed; this event raced the modify).  Level-triggered
                // readiness will resurface once interest returns.
                return;
            }
            let mut chunk = [0u8; 64 * 1024];
            loop {
                match conn.stream.read(&mut chunk) {
                    Ok(0) => break true,
                    Ok(n) => {
                        BYTES_IN.add(n as u64);
                        conn.read_buf.extend_from_slice(&chunk[..n]);
                        if n < chunk.len() {
                            // Short read: the socket is (momentarily)
                            // drained; anything more re-notifies.
                            break false;
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break false,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => break true,
                }
            }
        };
        if closed {
            self.teardown(token);
        } else {
            self.pump(token, pool);
        }
    }

    /// Parse and dispatch buffered frames while the connection is idle.
    /// At most one request per connection is ever in flight: once a frame
    /// is handed to the pool, parsing stops (and read interest drops)
    /// until its completion returns — pipelining clients queue in their
    /// socket buffers, which is exactly the back-pressure we want.
    fn pump(&mut self, token: u64, pool: &WorkerPool) {
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if conn.closing || conn.state.is_none() || conn.read_buf.is_empty() {
                break;
            }
            match scan_frame(&conn.read_buf) {
                Ok(None) => break,
                Ok(Some((kind, payload, consumed))) => {
                    conn.read_buf.drain(..consumed);
                    let state = conn.state.take().expect("idle session state");
                    let io = Arc::clone(&conn.io);
                    pool.submit(Job {
                        token,
                        kind,
                        payload,
                        state,
                        io,
                    });
                }
                Err(e) => {
                    // Framing is broken — the stream cannot be trusted any
                    // further.  Answer why (best-effort, unbounded queue so
                    // the reactor cannot block) and close once it drains.
                    let payload = ErrorResponse {
                        code: err_code::BAD_REQUEST,
                        message: e.to_string(),
                    }
                    .encode();
                    if let Ok(bytes) = encode_frame(frame::ERROR, &payload) {
                        conn.io.queue_unbounded(bytes);
                    }
                    conn.closing = true;
                    self.try_flush(token);
                    return;
                }
            }
        }
        self.update_interest(token);
    }

    /// Write queued bytes to the socket until it would block; tears the
    /// connection down on a write error or when a draining `closing`
    /// connection empties.
    fn try_flush(&mut self, token: u64) {
        let closed = {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            let mut buf = conn.io.write.lock().expect("write queue lock");
            let mut broken = false;
            while let Some(front) = buf.queue.front() {
                let front_len = front.len();
                let n = match conn.stream.write(&front[buf.front_pos..]) {
                    Ok(0) => {
                        broken = true;
                        break;
                    }
                    Ok(n) => n,
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        broken = true;
                        break;
                    }
                };
                BYTES_OUT.add(n as u64);
                buf.front_pos += n;
                buf.total -= n;
                if buf.front_pos == front_len {
                    buf.queue.pop_front();
                    buf.front_pos = 0;
                }
            }
            conn.want_write = !broken && !buf.queue.is_empty();
            // Low-water release: wake a producer stalled on back-pressure
            // once most of the queue has reached the socket.
            if buf.total < conn.io.limit / 4 {
                conn.io.drained.notify_all();
            }
            broken || (conn.closing && buf.queue.is_empty())
        };
        if closed {
            self.teardown(token);
        } else {
            self.update_interest(token);
        }
    }

    /// Re-register the poller interest implied by the connection's state.
    fn update_interest(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let desired = Interest {
            read: conn.state.is_some() && !conn.closing,
            write: conn.want_write,
        };
        if desired != conn.interest
            && self
                .poller
                .modify(conn.stream.raw_fd(), token, desired)
                .is_ok()
        {
            conn.interest = desired;
        }
    }

    /// Remove a connection: close the socket, release any stalled
    /// producer, drop the parked session (releasing its snapshot pin).  A
    /// session held by an in-flight worker is dropped when its completion
    /// arrives and finds the connection gone.
    fn teardown(&mut self, token: u64) {
        let Some(conn) = self.conns.remove(&token) else {
            return;
        };
        conn.io.mark_dead();
        let _ = self.poller.deregister(conn.stream.raw_fd());
        self.shared.sessions_active.fetch_sub(1, Ordering::SeqCst);
        SESSIONS_ACTIVE.add(-1);
        // `conn` drops here: the stream's fd closes, and with it any
        // parked SessionState and its Arc<SnapshotStore>.
    }

    /// Drain worker mailboxes: re-park finished sessions (dispatching the
    /// next pipelined frame if one is already buffered) and flush
    /// connections whose queues gained bytes.
    fn drain_worker_signals(&mut self, pool: &WorkerPool) {
        loop {
            let completions = std::mem::take(
                &mut *self
                    .notify
                    .completions
                    .lock()
                    .expect("completion list lock"),
            );
            let flushes = std::mem::take(&mut *self.notify.flush.lock().expect("flush list lock"));
            if completions.is_empty() && flushes.is_empty() {
                break;
            }
            for completion in completions {
                self.on_completion(completion, pool);
            }
            for token in flushes {
                self.try_flush(token);
            }
        }
    }

    fn on_completion(&mut self, completion: Completion, pool: &WorkerPool) {
        let Completion {
            token,
            state,
            disposition,
        } = completion;
        let Some(conn) = self.conns.get_mut(&token) else {
            // Torn down mid-request: release the session (and its epoch
            // mapping) now.
            drop(state);
            return;
        };
        match disposition {
            Disposition::Close => {
                conn.closing = true;
                drop(state);
                self.try_flush(token);
            }
            Disposition::KeepAlive => {
                conn.state = Some(state);
                self.pump(token, pool);
            }
        }
    }
}

/// Server-side half of streaming ΔVio *during* expansion: the
/// violation-sink callback the detect run invokes from any of its worker
/// threads.  The first violation flushes immediately — first-violation
/// latency is the point — then full [`VIO_CHUNK_LEN`] chunks, leftovers at
/// [`VioStreamer::finish`].  A send failure (client gone) is remembered
/// and later offers are dropped: the detect run completes undisturbed, and
/// the worker tears the session down afterwards.
struct VioStreamer<'a> {
    io: &'a ConnIo,
    started: Instant,
    state: Mutex<StreamerState>,
}

#[derive(Default)]
struct StreamerState {
    added: Vec<Violation>,
    removed: Vec<Violation>,
    added_total: u64,
    removed_total: u64,
    sent_any: bool,
    error: Option<ProtocolError>,
}

impl<'a> VioStreamer<'a> {
    fn new(io: &'a ConnIo) -> VioStreamer<'a> {
        VioStreamer {
            io,
            started: Instant::now(),
            state: Mutex::new(StreamerState::default()),
        }
    }

    /// The `VioSink` callback.  Blocking here (a full write queue) blocks
    /// the offering detect worker — and, via this lock, this session's
    /// other detect workers — which is the intended per-session
    /// back-pressure.
    fn offer(&self, side: VioSide, violation: &Violation) {
        let mut state = self.state.lock().expect("streamer lock");
        if state.error.is_some() {
            return;
        }
        match side {
            VioSide::Added => {
                state.added.push(violation.clone());
                state.added_total += 1;
            }
            VioSide::Removed => {
                state.removed.push(violation.clone());
                state.removed_total += 1;
            }
        }
        let side_len = match side {
            VioSide::Added => state.added.len(),
            VioSide::Removed => state.removed.len(),
        };
        if !state.sent_any || side_len >= VIO_CHUNK_LEN {
            if !state.sent_any {
                FIRST_VIO_NS.record_duration(self.started.elapsed());
            }
            state.sent_any = true;
            self.flush_side(&mut state, side);
        }
    }

    fn flush_side(&self, state: &mut StreamerState, side: VioSide) {
        let (wire_side, pending) = match side {
            VioSide::Added => (Side::Added, std::mem::take(&mut state.added)),
            VioSide::Removed => (Side::Removed, std::mem::take(&mut state.removed)),
        };
        if pending.is_empty() {
            return;
        }
        let refs: Vec<&Violation> = pending.iter().collect();
        let payload = VioChunk::encode_refs(wire_side, &refs);
        if let Err(e) = self.io.send(frame::VIO_CHUNK, &payload) {
            state.error = Some(e);
        }
    }

    /// Flush leftovers and return `(added_total, removed_total)`, or the
    /// first send error if the client died mid-stream.
    fn finish(self) -> Result<(u64, u64), ProtocolError> {
        {
            let mut state = self.state.lock().expect("streamer lock");
            if state.error.is_none() {
                let state_ref = &mut *state;
                self.flush_side(state_ref, VioSide::Added);
                if state_ref.error.is_none() {
                    self.flush_side(state_ref, VioSide::Removed);
                }
            }
        }
        let state = self.state.into_inner().expect("streamer lock");
        match state.error {
            Some(e) => Err(e),
            None => Ok((state.added_total, state.removed_total)),
        }
    }
}

/// One connection's session state, owning its epoch mapping.
///
/// The detect-crate session types borrow their base, so each request
/// re-materialises one around the `Arc` — a few moves, no graph copies —
/// which is what lets the connection swap epochs between requests.
struct SessionCtx {
    store: Arc<SnapshotStore>,
    accumulated: BatchUpdate,
    batches_applied: u64,
    /// An epoch switch to announce before the next answer.
    notice: Option<EpochNotice>,
    /// The published store a re-root already failed against — the session
    /// is *pinned* to its own mapping until a different epoch appears, and
    /// this memo keeps every subsequent frame from repeating the identical
    /// doomed O(|overlay|) attempt.
    reroot_failed_for: Option<Arc<SnapshotStore>>,
    /// An auto-compaction failed (full disk, pinned session, lost race):
    /// stop re-paying the O(|file|) merge on every batch.  Cleared when a
    /// re-root or RESET changes the session's situation; explicit `COMPACT`
    /// frames are never suppressed.
    auto_compact_disabled: bool,
}

impl SessionCtx {
    fn new(store: Arc<SnapshotStore>) -> SessionCtx {
        SessionCtx {
            store,
            accumulated: BatchUpdate::new(),
            batches_applied: 0,
            notice: None,
            reroot_failed_for: None,
            auto_compact_disabled: false,
        }
    }

    fn epoch(&self) -> u64 {
        self.store.epoch()
    }

    /// The session's accumulated update as a canonical net batch.
    fn net(&self) -> BatchUpdate {
        DeltaOverlay::new(&self.store.snapshot, &self.accumulated).into_batch()
    }

    /// Apply one `ΔG` batch.  With `sink`, every fresh violation is also
    /// pushed through the callback *while the expansion runs* (the served
    /// streaming path); without it the delta is only collected into the
    /// returned report.
    fn apply(
        &mut self,
        sigma: &RuleSet,
        delta: &BatchUpdate,
        config: &DetectorConfig,
        sink: Option<VioSink<'_>>,
    ) -> Result<DeltaReport, UpdateError> {
        let accumulated = std::mem::take(&mut self.accumulated);
        let cache = self.store.plan_cache();
        let mut session =
            IncrementalSession::resume(&self.store.snapshot, accumulated, self.batches_applied);
        let result = match sink {
            Some(sink) => session.apply_streaming(sigma, delta, config, cache, sink),
            None => session.apply_with_cache(sigma, delta, config, cache),
        };
        (self.accumulated, self.batches_applied) = session.into_parts();
        result
    }

    fn detect_all(&self, sigma: &RuleSet) -> DetectionReport {
        IncrementalSession::resume(&self.store.snapshot, self.accumulated.clone(), 0)
            .detect_all_with_cache(sigma, self.store.plan_cache())
    }

    fn state_counts(&self) -> (usize, usize) {
        let view = DeltaOverlay::new(&self.store.snapshot, &self.accumulated);
        (GraphView::node_count(&view), GraphView::edge_count(&view))
    }

    /// `(net pending nodes, net pending edge ops)` of the overlay.
    fn pending(&self) -> (u64, u64) {
        let net = self.net();
        (net.new_nodes.len() as u64, net.ops.len() as u64)
    }

    fn reset(&mut self) -> BatchUpdate {
        self.batches_applied = 0;
        // The re-root refusal was about the overlay being discarded here;
        // with an empty overlay the next message boundary can adopt the
        // published epoch after all.
        self.reroot_failed_for = None;
        self.auto_compact_disabled = false;
        std::mem::take(&mut self.accumulated)
    }

    /// At a message boundary: if a newer epoch has been published, try to
    /// re-root this session's overlay onto it.  On success the old `Arc`
    /// is released (unmapping the file once the last session lets go) and
    /// an `EPOCH_SWITCHED` notice is queued; on failure the session pins
    /// to its current mapping and keeps serving correctly from it.
    fn maybe_reroot(&mut self, shared: &Shared) {
        let current = shared.published();
        if Arc::ptr_eq(&current, &self.store) {
            return;
        }
        if self
            .reroot_failed_for
            .as_ref()
            .is_some_and(|failed| Arc::ptr_eq(failed, &current))
        {
            return;
        }
        let previous_epoch = self.epoch();
        let accumulated = std::mem::take(&mut self.accumulated);
        let session =
            IncrementalSession::resume(&self.store.snapshot, accumulated, self.batches_applied);
        let rerooted: Result<BatchUpdate, BatchUpdate> =
            match session.rebase_onto(&current.snapshot) {
                Ok(moved) => Ok(moved.into_parts().0),
                Err(_) => Err(session.into_parts().0),
            };
        match rerooted {
            Ok(residue) => {
                self.notice = Some(EpochNotice {
                    epoch: current.epoch(),
                    previous_epoch,
                    carried_nodes: residue.new_nodes.len() as u64,
                    carried_ops: residue.ops.len() as u64,
                });
                self.accumulated = residue;
                self.store = current;
                self.reroot_failed_for = None;
                self.auto_compact_disabled = false;
                SESSION_REBASES.inc();
            }
            // The published epoch cannot absorb this overlay: keep serving
            // from the session's own (refcounted) mapping, and remember the
            // refusal so the attempt is not repeated until a *different*
            // epoch is published.  Clients observe the pinned state as
            // `epoch != published_epoch` in EPOCH/STATS.
            Err(kept) => {
                self.accumulated = kept;
                self.reroot_failed_for = Some(current);
            }
        }
    }
}

/// Fold `ctx`'s accumulated overlay into the next epoch file, publish the
/// new mapping server-wide, and re-root the requesting session onto it.
fn compact_session(shared: &Shared, ctx: &mut SessionCtx) -> Result<EpochResponse, String> {
    // A session not on the published epoch (pinned after a failed re-root)
    // would fail the compare-and-publish below anyway — bail before paying
    // the O(|file|) merge for it.
    if !Arc::ptr_eq(&shared.published(), &ctx.store) {
        return Err(format!(
            "session reads epoch {} but epoch {} is published; a pinned \
             session cannot publish a compaction",
            ctx.store.epoch(),
            shared.published().epoch()
        ));
    }
    let net = ctx.net();
    let new_epoch = ctx.store.epoch() + 1;
    let stem = shared
        .snapshot_path
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("snapshot");
    let seq = shared.file_seq.fetch_add(1, Ordering::SeqCst);
    let out_path = shared
        .snapshot_path
        .with_file_name(format!("{stem}.e{new_epoch}-{seq}.ngds"));
    let base = Arc::clone(&ctx.store);
    let new_store = Arc::new(ctx.store.compact_into(&net, &out_path)?);
    // Compare-and-publish: the merge happened outside the lock, so another
    // session may have published meanwhile.  Blindly overwriting would
    // silently drop that compaction's folded updates from the published
    // graph — instead the superseded attempt fails typed (and its freshly
    // written epoch file is unlinked, not orphaned); the requester
    // re-roots onto the winner at its next message boundary and can retry.
    {
        let mut current = shared.current.lock().expect("current epoch lock");
        if !Arc::ptr_eq(&current, &base) {
            let superseded_by = current.epoch();
            drop(current);
            drop(new_store);
            let _ = std::fs::remove_file(&out_path);
            return Err(format!(
                "superseded by a concurrent compaction (epoch {superseded_by} was \
                 published during the merge); re-rooted sessions may retry"
            ));
        }
        *current = Arc::clone(&new_store);
    }
    shared
        .owned_files
        .lock()
        .expect("owned files")
        .push(out_path);
    shared.compactions.fetch_add(1, Ordering::SeqCst);
    EPOCH_SWITCHES.inc();
    ctx.maybe_reroot(shared);
    Ok(EpochResponse {
        epoch: ctx.epoch(),
        published_epoch: new_store.epoch(),
        snapshot_nodes: ctx.store.node_count() as u64,
        snapshot_edges: ctx.store.edge_count() as u64,
        compactions: shared.compactions.load(Ordering::SeqCst),
    })
}

/// Serve one request frame against a session — the dispatch every worker
/// of the reactor's pool runs.
///
/// A returned `Err` means the *sink* failed (the client is gone): the
/// connection closes.  Malformed or rejected requests answer with typed
/// `ERROR` frames and keep the session alive.
fn handle_request(
    shared: &Shared,
    state: &mut SessionState,
    sink: &ConnIo,
    kind: u32,
    payload: &[u8],
) -> Result<Disposition, ProtocolError> {
    let SessionState { ctx, sigma } = state;
    // Message boundary: adopt a newly published epoch before touching
    // the request, and announce the switch ahead of the answer.
    ctx.maybe_reroot(shared);
    if let Some(notice) = ctx.notice.take() {
        SWITCH_NOTICES.inc();
        sink.send(frame::EPOCH_SWITCHED, &notice.encode())?;
    }
    match kind {
        frame::HELLO => {
            let _hello = match HelloRequest::decode(payload) {
                Ok(h) => h,
                Err(e) => {
                    sink.send_error(err_code::BAD_REQUEST, e.to_string());
                    return Ok(Disposition::KeepAlive);
                }
            };
            let response = HelloResponse {
                server: shared.server_name.clone(),
                node_count: ctx.store.node_count() as u64,
                edge_count: ctx.store.edge_count() as u64,
                rule_count: sigma.len() as u32,
                diameter: sigma.diameter() as u32,
            };
            sink.send(frame::HELLO_OK, &response.encode())?;
        }
        frame::RULES => {
            let request = match RulesRequest::decode(payload) {
                Ok(r) => r,
                Err(e) => {
                    sink.send_error(err_code::BAD_REQUEST, e.to_string());
                    return Ok(Disposition::KeepAlive);
                }
            };
            match ngd_lang::load_rules(&request.source) {
                Ok(rules) => {
                    let message = format!(
                        "compiled {} rule(s), dΣ = {}",
                        rules.len(),
                        rules.diameter()
                    );
                    *sigma = Arc::new(rules);
                    sink.send(frame::OK, &OkResponse { message }.encode())?;
                }
                Err(e) => {
                    sink.send_error(err_code::RULES_REJECTED, e.to_string());
                }
            }
        }
        frame::UPDATE => {
            let request = match UpdateRequest::decode(payload) {
                Ok(r) => r,
                Err(e) => {
                    sink.send_error(err_code::BAD_REQUEST, e.to_string());
                    return Ok(Disposition::KeepAlive);
                }
            };
            // Stream `ΔVio` chunks *while* the expansion runs — the first
            // VIO_CHUNK leaves the socket before the matchers finish.  An
            // apply error happens during validation, before any detection,
            // so no chunk precedes the ERROR frame.
            let (result, streamed) = {
                let streamer = VioStreamer::new(sink);
                let callback =
                    |side: VioSide, violation: &Violation| streamer.offer(side, violation);
                let result = ctx.apply(sigma, &request.batch, &shared.detector, Some(&callback));
                (result, streamer.finish())
            };
            match result {
                Ok(report) => {
                    let (added, removed) = streamed?;
                    shared.updates_served.fetch_add(1, Ordering::SeqCst);
                    shared
                        .violations_streamed
                        .fetch_add(added + removed, Ordering::SeqCst);
                    let done = DoneResponse {
                        epoch: ctx.epoch(),
                        algorithm: report.algorithm.label().to_string(),
                        elapsed_nanos: report.elapsed.as_nanos() as u64,
                        processors: report.processors as u32,
                        neighborhood_nodes: report.neighborhood_nodes as u64,
                        added_total: added,
                        removed_total: removed,
                        stats: report.stats,
                        cost: report.cost,
                    };
                    sink.send(frame::UPDATE_DONE, &done.encode())?;
                    // Background compaction: once the accumulated raw
                    // op sequence crosses the threshold, fold it into
                    // a new epoch (raw, not net — churn that nets to
                    // nothing still inflates per-batch bookkeeping).
                    // Other sessions keep serving and pick the epoch
                    // up at their next message boundary.
                    if let Some(limit) = shared.options.compact_after {
                        if !ctx.auto_compact_disabled && ctx.accumulated.len() as u64 >= limit {
                            if let Err(e) = compact_session(shared, ctx) {
                                eprintln!(
                                    "ngd-serve: auto-compaction failed (disabled for                                          this session until it re-roots or resets): {e}"
                                );
                                ctx.auto_compact_disabled = true;
                            }
                        }
                    }
                }
                Err(e) => {
                    // Nothing was streamed (validation precedes detection);
                    // drop the (0, 0) totals and answer typed.
                    let _ = streamed;
                    sink.send_error(err_code::UPDATE_REJECTED, e.to_string());
                }
            }
        }
        frame::QUERY => {
            let report = ctx.detect_all(sigma);
            let total = stream_violations(sink, Side::Added, report.violations.iter())?;
            shared
                .violations_streamed
                .fetch_add(total, Ordering::SeqCst);
            let done = DoneResponse {
                epoch: ctx.epoch(),
                algorithm: report.algorithm.label().to_string(),
                elapsed_nanos: report.elapsed.as_nanos() as u64,
                processors: report.processors as u32,
                neighborhood_nodes: 0,
                added_total: total,
                removed_total: 0,
                stats: report.stats,
                cost: report.cost,
            };
            sink.send(frame::QUERY_DONE, &done.encode())?;
        }
        frame::COMPACT => match compact_session(shared, ctx) {
            Ok(response) => {
                // The requester observed the switch through EPOCH_OK;
                // no separate notice needed.
                ctx.notice = None;
                sink.send(frame::EPOCH_OK, &response.encode())?;
            }
            Err(e) => {
                sink.send_error(err_code::COMPACT_FAILED, e);
            }
        },
        frame::EPOCH => {
            let response = EpochResponse {
                epoch: ctx.epoch(),
                published_epoch: shared.published().epoch(),
                snapshot_nodes: ctx.store.node_count() as u64,
                snapshot_edges: ctx.store.edge_count() as u64,
                compactions: shared.compactions.load(Ordering::SeqCst),
            };
            sink.send(frame::EPOCH_OK, &response.encode())?;
        }
        frame::STATS => {
            let (session_nodes, session_edges) = ctx.state_counts();
            let (pending_nodes, pending_edge_ops) = ctx.pending();
            let response = StatsResponse {
                epoch: ctx.epoch(),
                published_epoch: shared.published().epoch(),
                snapshot_nodes: ctx.store.node_count() as u64,
                snapshot_edges: ctx.store.edge_count() as u64,
                session_nodes: session_nodes as u64,
                session_edges: session_edges as u64,
                accumulated_ops: ctx.accumulated.len() as u64,
                pending_nodes,
                pending_edge_ops,
                batches_applied: ctx.batches_applied,
                sessions_active: shared.sessions_active.load(Ordering::SeqCst) as u32,
                sessions_total: shared.sessions_total.load(Ordering::SeqCst),
                updates_served: shared.updates_served.load(Ordering::SeqCst),
                violations_streamed: shared.violations_streamed.load(Ordering::SeqCst),
                plan_cache_hits: ctx.store.plan_cache().hits(),
                plan_cache_misses: ctx.store.plan_cache().misses(),
                uptime_secs: shared.started.elapsed().as_secs(),
            };
            sink.send(frame::STATS_OK, &response.encode())?;
        }
        frame::METRICS => {
            let response = MetricsResponse {
                snapshot: ngd_obs::global().snapshot(),
            };
            sink.send(frame::METRICS_OK, &response.encode())?;
        }
        frame::RESET => {
            let dropped = ctx.reset();
            let message = format!("dropped {} accumulated unit update(s)", dropped.len());
            sink.send(frame::OK, &OkResponse { message }.encode())?;
        }
        frame::SHUTDOWN => {
            shared.signal_shutdown();
            let message = "shutting down: accept loop stopped, sessions draining".to_string();
            sink.send(frame::OK, &OkResponse { message }.encode())?;
            return Ok(Disposition::Close);
        }
        other => {
            sink.send_error(
                err_code::BAD_REQUEST,
                ProtocolError::UnknownFrame { kind: other }.to_string(),
            );
        }
    }
    Ok(Disposition::KeepAlive)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_file_name_matcher_is_exact() {
        assert!(is_epoch_file_name("snap.e1-0.ngds", "snap"));
        assert!(is_epoch_file_name("snap.e12-345.ngds", "snap"));
        // Wrong stem, missing sequence, non-digits, wrong extension.
        assert!(!is_epoch_file_name("other.e1-0.ngds", "snap"));
        assert!(!is_epoch_file_name("snap.e1.ngds", "snap"));
        assert!(!is_epoch_file_name("snap.e1-.ngds", "snap"));
        assert!(!is_epoch_file_name("snap.e-0.ngds", "snap"));
        assert!(!is_epoch_file_name("snap.ea-b.ngds", "snap"));
        assert!(!is_epoch_file_name("snap.e1-0.ngds.bak", "snap"));
        assert!(!is_epoch_file_name("snap.ngds", "snap"));
    }

    #[test]
    fn registry_sits_next_to_the_snapshot() {
        assert_eq!(
            daemon_registry_path(Path::new("/var/ngd/snap.ngds")),
            PathBuf::from("/var/ngd/snap.ngds.daemons")
        );
        assert_eq!(
            daemon_registry_path(Path::new("snap.ngds")),
            PathBuf::from("snap.ngds.daemons")
        );
    }
}
