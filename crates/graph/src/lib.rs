//! # ngd-graph
//!
//! Directed property-graph substrate used by the NGD (numeric graph
//! dependency) inconsistency-detection stack.
//!
//! The data model follows Section 2 of *"Catching Numeric Inconsistencies in
//! Graphs"* (SIGMOD 2018): a graph `G = (V, E, L, F_A)` where
//!
//! * `V` is a finite set of nodes,
//! * `E ⊆ V × V` is a set of labelled directed edges,
//! * every node and edge carries a label `L(·)` drawn from an alphabet `Γ`,
//! * every node `v` carries an attribute tuple `F_A(v) = (A_1 = a_1, …)`
//!   with constant values (integers, strings, booleans).
//!
//! The crate keeps **two graph representations** behind one read interface:
//!
//! * [`Graph`] — the mutable adjacency-list representation used while
//!   *building* and *updating* a graph (`add_node` / `add_edge` /
//!   [`BatchUpdate`]);
//! * [`CsrSnapshot`] — an immutable, label-partitioned compressed-sparse-row
//!   snapshot produced by [`Graph::freeze`], whose label-sorted contiguous
//!   neighbour runs and `(node label, edge label, node label)` triple index
//!   make matcher candidate selection a binary search over a slice instead
//!   of a scan over heap-allocated lists.  It is the graph's `.ngds` bytes
//!   ([`MmapSnapshot`], of which `CsrSnapshot` is an alias).
//!
//! Both (plus [`DeltaOverlay`], a snapshot composed with an *unapplied*
//! `ΔG`) implement the read-only [`GraphView`] trait that the matcher and
//! detectors consume generically.  Freeze once per loaded graph; keep
//! updating through `Graph`/`BatchUpdate`; hand snapshots (or overlays) to
//! the hot paths.
//!
//! The frozen layout has **one storage and one reader**: the `.ngds`
//! bytes, owned in memory by [`Graph::freeze`] or memory-mapped by
//! [`MmapSnapshot::load`], read by the one [`GraphView`] impl in [`csr`].
//! The table in [`csr`] lists the two backings.
//!
//! On top of the representations this crate provides:
//!
//! * [`view`] — the [`GraphView`] read abstraction;
//! * [`csr`] — the CSR reader over the frozen snapshot;
//! * [`overlay`] — [`DeltaOverlay`], `snapshot ⊕ ΔG` without
//!   materialisation (what keeps incremental detection `O(|ΔG|)`-local);
//! * [`neighborhood`] — `d`-hop neighbourhoods (`G_d(v)`), the locality
//!   primitive behind the paper's *localizable* incremental algorithm;
//! * [`update`] — batch edge insertions/deletions (`ΔG`) and their
//!   application `G ⊕ ΔG`;
//! * [`persist`] — the frozen storage: [`Graph::freeze`] lays a graph out
//!   as versioned, checksummed binary snapshot bytes, [`SnapshotWriter`]
//!   writes them to a file, and the one loader ([`MmapSnapshot`])
//!   validates bytes in memory or memory-mapped and hands their arrays to
//!   the reader in place, so a graph is frozen once on disk and read by
//!   many detector processes;
//! * [`io`] — a plain-text edge-list/attribute format plus JSON
//!   (de)serialization for graphs;
//! * [`stats`] — density, degree and component statistics used to check
//!   that simulated datasets match the paper's reported characteristics.
//!
//! Strings (labels and attribute names) are interned process-wide through
//! [`interner`], so symbols created by data generators, rule parsers and
//! detectors are always comparable.

pub mod attrs;
pub mod builder;
#[cfg(test)]
mod conformance;
pub mod csr;
pub mod graph;
pub mod hash;
pub mod interner;
pub mod io;
pub mod neighborhood;
pub mod overlay;
pub mod persist;
pub mod stats;
pub mod update;
pub mod value;
pub mod view;

pub use attrs::AttrMap;
pub use builder::GraphBuilder;
pub use csr::CsrSnapshot;
pub use graph::{Dir, EdgeRef, Graph, NodeData, NodeId};
pub use hash::{IdMap, IdSet};
pub use interner::{intern, resolve, Sym, WILDCARD};
pub use neighborhood::{d_neighbors, d_neighbors_many, Neighborhood};
pub use overlay::{DeltaOverlay, RebaseError};
pub use persist::{
    CompactError, CompactReport, CompactionWriter, MmapSnapshot, PersistError, SnapshotWriter,
};
pub use stats::GraphStats;
pub use update::{BatchUpdate, EdgeOp, NewNode, UpdateError};
pub use value::Value;
pub use view::{GraphView, SelectivityStats};

/// A convenience `Result` alias for fallible graph operations.
pub type Result<T> = std::result::Result<T, GraphError>;

/// Errors raised by graph mutation and lookup operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// A node id referenced an out-of-bounds slot.
    NodeNotFound(NodeId),
    /// The referenced edge does not exist.
    EdgeNotFound {
        /// Source node of the missing edge.
        src: NodeId,
        /// Destination node of the missing edge.
        dst: NodeId,
    },
    /// An edge with the same endpoints and label already exists.
    DuplicateEdge {
        /// Source node of the duplicate edge.
        src: NodeId,
        /// Destination node of the duplicate edge.
        dst: NodeId,
    },
    /// An attribute was re-declared with a conflicting value.
    DuplicateAttribute(String),
    /// A parse error while reading a serialized graph.
    Parse(String),
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::NodeNotFound(id) => write!(f, "node {:?} not found", id),
            GraphError::EdgeNotFound { src, dst } => {
                write!(f, "edge {:?} -> {:?} not found", src, dst)
            }
            GraphError::DuplicateEdge { src, dst } => {
                write!(f, "edge {:?} -> {:?} already exists", src, dst)
            }
            GraphError::DuplicateAttribute(name) => {
                write!(f, "attribute `{name}` declared twice")
            }
            GraphError::Parse(msg) => write!(f, "parse error: {msg}"),
        }
    }
}

impl std::error::Error for GraphError {}
