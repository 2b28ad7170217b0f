//! # ngd-serve
//!
//! A **long-lived incremental detection service** over memory-mapped
//! snapshots — the deployment the paper's `|ΔG|`-bounded cost result
//! (*"Catching Numeric Inconsistencies in Graphs"*, SIGMOD 2018) actually
//! pays off in: a daemon mmaps one `.ngds` snapshot and compiles a rule
//! set **once**, then absorbs a continuous stream of `ΔG` batches from
//! many concurrent clients, answering each with the violation delta it
//! causes and the cost ledger that proves the work stayed bounded by the
//! update's `dΣ`-neighbourhood.
//!
//! ```text
//!            ngd-serve daemon (one process, one mmap per epoch)
//!            ┌────────────────────────────────────────┐
//!  client A ─┤ session A: DeltaOverlay ⊕ accumulated  │
//!  client B ─┤ session B: DeltaOverlay ⊕ accumulated  ├── Arc<SnapshotStore>
//!  client C ─┤ session C: DeltaOverlay ⊕ accumulated  │   (current epoch,
//!            └──────────────────┬─────────────────────┘    shared, zero-copy)
//!                       COMPACT │ or --compact-after
//!                               ▼
//!            CompactionWriter → <stem>.eN.ngds → atomic publish;
//!            sessions re-root at their next message boundary
//! ```
//!
//! Accumulated overlays do not grow forever: **snapshot compaction**
//! folds a session's net `ΔG` into the next epoch file
//! ([`ngd_graph::CompactionWriter`] — a streaming merge, never a
//! re-freeze), the daemon atomically publishes the new mapping, and each
//! session re-roots ([`ngd_detect::IncrementalSession::rebase_onto`]) at
//! its next message boundary, announced to its client by one pushed
//! `EPOCH_SWITCHED` frame.  Old mappings are reference-counted and unmap
//! when the last session holding them disconnects.  Served `ΔVio` is
//! byte-identical across a swap (`tests/serve_equivalence.rs`).
//!
//! * [`protocol`] — the framed, versioned, length-prefixed binary wire
//!   format (header conventions borrowed from the snapshot format, same
//!   payload checksum);
//! * [`wire`] — the bounded payload codec (symbols travel as strings and
//!   are re-interned on arrival);
//! * [`error`] — [`ProtocolError`], one typed variant per damage mode,
//!   mirroring `PersistError`;
//! * [`server`] — the daemon's handle: [`Server`], [`ServeOptions`],
//!   start and graceful shutdown.  What the daemon *does* is split over
//!   private modules that each own one decision (table in
//!   `docs/architecture.md`): `addr` ([`ServeAddr`], the one Unix/TCP
//!   listener + stream pair shared with [`client`], the one liveness
//!   probe), `store` ([`SnapshotStore`], the published epoch, the **epoch
//!   files** and their GC), `reactor` (the event loop and, in
//!   `reactor::conn_io`, the per-connection **write queue**), `pool` (the
//!   bounded **worker pool**: OS threads scale with
//!   [`ServeOptions::worker_threads`], not with connections), `session`
//!   (the per-connection **session**, one handler per frame kind),
//!   `streamer` (`VIO_CHUNK` assembly during expansion);
//! * [`client`] — [`ServeClient`], the typed client used by `ngd-cli`,
//!   the benches and the equivalence tests.
//!
//! Served `ΔVio` streams are **byte-identical** to running
//! [`ngd_detect::pinc_dect`] in-process — `tests/serve_equivalence.rs`
//! (workspace integration tests) pins that on every figure-1 scenario and
//! the 11k-node synthetic workload.
//!
//! ## Quick example
//!
//! ```
//! use ngd_core::{paper, RuleSet};
//! use ngd_detect::DetectorConfig;
//! use ngd_graph::persist::SnapshotWriter;
//! use ngd_graph::{intern, BatchUpdate, Dir};
//! use ngd_serve::{ServeAddr, ServeClient, Server, SnapshotStore};
//!
//! // Ingest: freeze the figure-1 graph and write a snapshot file.
//! let (graph, fake) = paper::figure1_g4();
//! let path = std::env::temp_dir().join(format!("ngd-serve-doc-{}.ngds", std::process::id()));
//! SnapshotWriter::new().write(&graph.freeze(), &path).unwrap();
//!
//! // Serve: daemon on an ephemeral TCP port.
//! let sigma = RuleSet::from_rules(vec![paper::phi4(1, 1, 10_000)]);
//! let server = Server::start(
//!     SnapshotStore::open(&path).unwrap(),
//!     sigma,
//!     &ServeAddr::Tcp("127.0.0.1:0".into()),
//!     DetectorConfig::with_processors(2),
//! )
//! .unwrap();
//!
//! // Client: submit the status-edge deletion of Example 7.
//! let mut client = ServeClient::connect(server.local_addr()).unwrap();
//! let status = graph
//!     .neighbors(fake, Dir::Out)
//!     .iter()
//!     .find(|&&(_, l)| l == intern("status"))
//!     .map(|&(n, _)| n)
//!     .unwrap();
//! let mut delta = BatchUpdate::new();
//! delta.delete_edge(fake, status, intern("status"));
//! let served = client.submit_update(&delta).unwrap();
//! assert_eq!(served.delta.removed.len(), 1);
//!
//! client.shutdown_server().unwrap();
//! drop(client);
//! server.wait();
//! std::fs::remove_file(&path).ok();
//! ```

#[cfg(not(unix))]
compile_error!(
    "ngd-serve targets Unix (Linux and the BSD family): the reactor is built on epoll(7)/poll(2) \
     and Unix-domain sockets, and there is no other serving path"
);

mod addr;
pub mod client;
pub mod error;
mod poller;
mod pool;
pub mod protocol;
mod reactor;
pub mod server;
mod session;
mod store;
mod streamer;
pub mod wire;

pub use client::{ServeClient, ServedDelta, ServedQuery};
pub use error::ProtocolError;
pub use protocol::{DoneResponse, EpochNotice, EpochResponse, HelloResponse, Side, StatsResponse};
pub use server::{ServeAddr, ServeOptions, Server, SnapshotStore};
