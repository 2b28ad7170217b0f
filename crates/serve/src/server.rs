//! The long-lived detection daemon's handle.
//!
//! A [`Server`] mmaps one snapshot file, compiles a default rule set, binds
//! a Unix-domain or TCP listener, and serves connections with a **reactor +
//! bounded worker pool** — the crate docs describe the deployment and the
//! epoch lifecycle.  This module holds only the handle, its knobs
//! ([`ServeOptions`]) and start/shutdown; each decision the daemon makes
//! lives in one private sibling module (table in `docs/architecture.md`):
//! `addr` (listener, stream, liveness probe), `store` (epoch files,
//! publish, registry, GC), `reactor` (event loop, write queue), `pool`
//! (workers), `session` (one handler per frame kind) and `streamer`
//! (`VIO_CHUNK` assembly).
//!
//! Startup order matters: the epoch-file GC runs **before** the bind (a
//! daemon restarted on its crashed predecessor's unix address would
//! otherwise answer the liveness ping itself and never collect), the
//! registry line is written after it (it carries the *resolved* address).
//!
//! Graceful shutdown: a `SHUTDOWN` frame closes the listener at once
//! (an eventfd/self-pipe waker interrupts the event loop — no polling
//! sleeps anywhere on the serve path); live sessions drain as their
//! connections close, and [`Server::wait`] / [`Server::shutdown`] join
//! the reactor and its worker pool before returning.  Dropping the handle
//! then unlinks the unix socket and the epoch files this daemon wrote.

use crate::addr::Listener;
use crate::error::ProtocolError;
use crate::reactor::{reactor_loop, ReactorShared};
use crate::store::{gc_stale_epoch_files, Epochs};
use ngd_core::RuleSet;
use ngd_detect::DetectorConfig;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

pub use crate::addr::ServeAddr;
pub use crate::store::SnapshotStore;

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

/// Shared server state behind the `Arc` the reactor and every worker
/// clone.
pub(crate) struct Shared {
    /// The published epoch and the epoch files this daemon wrote.
    pub(crate) epochs: Epochs,
    /// The immutable server-wide default rule set; sessions that want a
    /// different one swap their own copy via the `RULES` frame.
    pub(crate) sigma: Arc<RuleSet>,
    pub(crate) detector: DetectorConfig,
    pub(crate) options: ServeOptions,
    /// When the daemon started (uptime reporting).
    pub(crate) started: Instant,
    shutdown: AtomicBool,
    /// Wakes sleepers (the metrics-dump loop) the moment shutdown is
    /// signalled, so no thread polls the flag on a timer.
    shutdown_mu: Mutex<bool>,
    shutdown_cv: Condvar,
    pub(crate) sessions_active: AtomicUsize,
    pub(crate) sessions_total: AtomicU64,
    pub(crate) updates_served: AtomicU64,
    pub(crate) violations_streamed: AtomicU64,
}

impl Shared {
    /// Set the shutdown flag and wake every sleeper watching it.
    pub(crate) fn signal_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        *self.shutdown_mu.lock().expect("shutdown lock") = true;
        self.shutdown_cv.notify_all();
    }

    pub(crate) fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
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
    /// The resolved listen address: what the daemon registry names this
    /// server by and, for a Unix socket, the path to unlink once done.
    local: ServeAddr,
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
        let io_err = |e: std::io::Error| ProtocolError::Io(e.to_string());
        // Before the bind, not after (module docs).
        gc_stale_epoch_files(store.path());
        let shared = Arc::new(Shared {
            epochs: Epochs::new(store),
            sigma: Arc::new(sigma),
            detector,
            options,
            started: Instant::now(),
            shutdown: AtomicBool::new(false),
            shutdown_mu: Mutex::new(false),
            shutdown_cv: Condvar::new(),
            sessions_active: AtomicUsize::new(0),
            sessions_total: AtomicU64::new(0),
            updates_served: AtomicU64::new(0),
            violations_streamed: AtomicU64::new(0),
        });
        let (listener, local) = Listener::bind(addr)?;
        shared.epochs.register(&local);
        let notify = Arc::new(ReactorShared::new().map_err(io_err)?);
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
                .map_err(io_err)?
        };
        let metrics_dump = (shared.options.metrics_dump.clone())
            .map(|path| {
                let interval = (shared.options.metrics_interval).unwrap_or(Duration::from_secs(30));
                let dump_shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name("ngd-serve-metrics".into())
                    .spawn(move || metrics_dump_loop(dump_shared, path, interval))
            })
            .transpose()
            .map_err(io_err)?;
        Ok(Server {
            shared,
            reactor: Some(reactor),
            notify,
            metrics_dump,
            local,
        })
    }

    /// The address the server actually listens on (ephemeral TCP ports
    /// resolved).
    pub fn local_addr(&self) -> &ServeAddr {
        &self.local
    }

    /// The epoch the server currently publishes.
    pub fn published_epoch(&self) -> u64 {
        self.shared.epochs.published().epoch()
    }

    /// Has a `SHUTDOWN` frame (or [`Server::shutdown`]) been processed?
    pub fn is_shutting_down(&self) -> bool {
        self.shared.is_shutting_down()
    }

    /// Block until the server shuts down (via a client `SHUTDOWN` frame),
    /// then join the event loop and its worker pool.
    pub fn wait(mut self) {
        self.join_reactor();
    }

    /// Request shutdown and join the event loop and its worker pool.
    pub fn shutdown(self) {
        // `Drop` signals, wakes and joins.
        drop(self);
    }

    /// The one place the reactor thread (and, through it, the worker
    /// pool) is joined.
    fn join_reactor(&mut self) {
        if let Some(handle) = self.reactor.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shared.signal_shutdown();
        self.notify.wake();
        self.join_reactor();
        if let Some(handle) = self.metrics_dump.take() {
            let _ = handle.join();
        }
        if let ServeAddr::Unix(path) = &self.local {
            let _ = std::fs::remove_file(path);
        }
        // Every session has drained by now, so the epoch mappings are gone
        // and the files can go too.
        self.shared.epochs.unlink_owned_files();
        self.shared.epochs.deregister(&self.local);
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
