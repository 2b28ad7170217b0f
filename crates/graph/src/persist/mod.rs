//! The one frozen storage: CSR snapshots as versioned binary `.ngds`
//! bytes, owned in memory or memory-mapped from a file.
//!
//! The detectors assume a graph is frozen once and served to many batch /
//! incremental runs.  [`crate::Graph::freeze`] lays the graph out as the
//! exact bytes of a snapshot file, in memory, and reads them through the
//! one loader ([`MmapSnapshot`]).  This module extends the idea across
//! process boundaries: freeze once, write those bytes to disk
//! ([`SnapshotWriter`], which only stamps the header's epoch), then let
//! any number of detector processes [`MmapSnapshot::load`] the file and
//! read the arrays **in place** through [`crate::GraphView`] — no
//! deserialisation, no copy, RAM usage bounded by the working set the
//! kernel pages in rather than by `|G|`.
//!
//! Snapshots carry an **epoch**: a freshly frozen graph is epoch 0, and
//! [`CompactionWriter`] emits successors — the mapped file merge-joined
//! with an accumulated net `ΔG`, byte-identical to re-freezing but
//! without ever materialising the mutable graph — stamped `epoch + 1`.
//! Sessions re-root their overlays onto the new epoch via
//! [`crate::DeltaOverlay::reroot`].
//!
//! ## File layout (version 2, "v1.1")
//!
//! A snapshot file is a 64-byte header, a section table, and a sequence of
//! 64-byte-aligned little-endian sections (see [`mod@format`] for the
//! exact byte layout):
//!
//! ```text
//! header | section table | STRINGS | NODE_LABELS | NODE_ATTRS
//!        | OUT_OFFSETS | OUT_LABELS | OUT_NEIGHBORS
//!        | IN_OFFSETS  | IN_LABELS  | IN_NEIGHBORS
//!        | LABEL_ORDER | LABEL_RANGES
//!        | TRIPLE_SRC  | TRIPLE_DST | TRIPLE_RANGES
//! ```
//!
//! The array sections (`u32` arrays: CSR offsets / labels / neighbours,
//! label partition, triple arrays) are the bytes the loader reinterprets
//! as slices; the string table and range dictionaries are decoded once at
//! load time, and the attribute records are validated at load and decoded
//! in place on every read.
//!
//! ## Contract
//!
//! * **Little-endian**, 64-byte-aligned sections; a big-endian host gets a
//!   typed [`PersistError::UnsupportedHost`], never byte-swapped garbage.
//!   A frozen graph is read in place like a loaded file, so the
//!   requirement holds for [`crate::Graph::freeze`] as well as for
//!   [`MmapSnapshot::load`]: freeze panics on a big-endian host.
//! * **Versioned**: any layout change bumps [`format::VERSION`]; a reader
//!   confronted with a newer file returns
//!   [`PersistError::UnsupportedVersion`] instead of guessing.  Older
//!   versions down to [`format::MIN_VERSION`] keep loading: a version-1
//!   file (whose header word at offset 56 was reserved-as-zero) reads as
//!   **epoch 0** with no other translation.
//! * **Checksummed**: a 4-lane multiply-xor hash ([`file_checksum`])
//!   over everything after the header; a
//!   flipped bit is [`PersistError::ChecksumMismatch`], not a wrong answer.
//! * **Validated**: structural invariants (bounds, alignment, monotone
//!   offsets, sorted runs, permutations) are checked at load, so the
//!   `unsafe` slice reinterpretation can never touch out-of-range memory
//!   and the read path needs no per-access checks.
//! * **Symbol-stable**: [`crate::Sym`]s are process-local, so the file
//!   carries its own string table with ids assigned lexicographically;
//!   freeze lays every symbol-ordered structure out in that order,
//!   making the file bytes a pure function of the logical graph (the
//!   golden-format test pins them).
//! * **One file kind**: the header's kind word is
//!   [`format::file_kind::SNAPSHOT`].  Kind 2 (the sharded snapshots older
//!   builds wrote) is reserved and answered with
//!   [`PersistError::WrongKind`]; re-create such a file with
//!   `ngd-cli load`.
//!
//! ## Example
//!
//! ```
//! use ngd_graph::persist::{MmapSnapshot, SnapshotWriter};
//! use ngd_graph::{AttrMap, Graph, GraphView};
//!
//! let mut g = Graph::new();
//! let a = g.add_node_named("account", AttrMap::new());
//! let b = g.add_node_named("company", AttrMap::new());
//! g.add_edge_named(a, b, "keys").unwrap();
//!
//! let path = std::env::temp_dir().join("ngd-doc-example.snap");
//! SnapshotWriter::new().write(&g.freeze(), &path).unwrap();
//! let snapshot = MmapSnapshot::load(&path).unwrap();
//! assert_eq!(GraphView::node_count(&snapshot), 2);
//! assert!(GraphView::has_edge(&snapshot, a, b, ngd_graph::intern("keys")));
//! # std::fs::remove_file(&path).ok();
//! ```

mod compact;
pub mod format;
mod loader;
mod mmap;
mod writer;

pub use compact::{CompactError, CompactReport, CompactionWriter};
pub use format::{file_checksum, FileHeader, SectionEntry};
pub use loader::MmapSnapshot;
pub use mmap::MmapFile;
pub use writer::SnapshotWriter;

/// Errors raised while writing, mapping or validating snapshot files.
///
/// Every corruption mode maps to a distinct variant so callers (and the
/// corruption-battery tests) can tell a stale format from a damaged file
/// from an operational error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PersistError {
    /// An operating-system error (open / stat / map / read / write).
    Io(String),
    /// The file does not start with the snapshot magic.
    BadMagic {
        /// The first eight bytes actually found.
        found: [u8; 8],
    },
    /// The file's format version is not the one this build reads.
    UnsupportedVersion {
        /// Version recorded in the file.
        found: u32,
        /// Version this build supports ([`format::VERSION`]).
        supported: u32,
    },
    /// The file ends before the length its header (or a section) requires.
    Truncated {
        /// Bytes required.
        expected: u64,
        /// Bytes present.
        actual: u64,
    },
    /// The payload checksum does not match the header.
    ChecksumMismatch {
        /// Checksum recorded in the header.
        stored: u64,
        /// Checksum computed over the payload.
        computed: u64,
    },
    /// A section offset violates the 64-byte alignment contract.
    MisalignedSection {
        /// Section kind (see [`format::kind`]).
        kind: u32,
        /// The offending byte offset.
        offset: u64,
    },
    /// The file is a well-formed snapshot of a kind this build does not
    /// read (kind 2, the retired sharded layout).
    WrongKind {
        /// Kind the loader expected (see [`format::file_kind`]).
        expected: u32,
        /// Kind recorded in the file.
        found: u32,
    },
    /// The host cannot read the format (e.g. big-endian).
    UnsupportedHost(String),
    /// A structural invariant of the payload does not hold.
    Corrupt(String),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(msg) => write!(f, "io error: {msg}"),
            PersistError::BadMagic { found } => {
                write!(f, "not a snapshot file (magic {found:02x?})")
            }
            PersistError::UnsupportedVersion { found, supported } => write!(
                f,
                "snapshot format version {found} is not supported (this build reads \
                 version {supported}); re-freeze the graph or upgrade"
            ),
            PersistError::Truncated { expected, actual } => {
                write!(f, "truncated snapshot: {actual} of {expected} bytes")
            }
            PersistError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checksum mismatch (stored {stored:#018x}, computed {computed:#018x})"
            ),
            PersistError::MisalignedSection { kind, offset } => {
                write!(f, "section kind {kind} at misaligned offset {offset}")
            }
            PersistError::WrongKind { expected, found } => write!(
                f,
                "snapshot kind {found} is no longer supported (this build reads kind \
                 {expected}); re-create the file with `ngd-cli load`"
            ),
            PersistError::UnsupportedHost(msg) => write!(f, "unsupported host: {msg}"),
            PersistError::Corrupt(msg) => write!(f, "corrupt snapshot: {msg}"),
        }
    }
}

impl std::error::Error for PersistError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::AttrMap;
    use crate::conformance::assert_conforms;
    use crate::graph::Graph;
    use crate::interner::intern;
    use crate::value::Value;
    use crate::view::GraphView;
    use std::path::PathBuf;

    fn sample() -> Graph {
        let mut g = Graph::new();
        let a = g.add_node_named(
            "account",
            AttrMap::from_pairs([("name", Value::from("ann"))]),
        );
        let b = g.add_node_named("account", AttrMap::new());
        let c = g.add_node_named(
            "company",
            AttrMap::from_pairs([("active", Value::Bool(true))]),
        );
        let d = g.add_node_named("integer", AttrMap::from_pairs([("val", Value::Int(-7))]));
        g.add_edge_named(a, c, "keys").unwrap();
        g.add_edge_named(b, c, "keys").unwrap();
        g.add_edge_named(a, d, "follower").unwrap();
        g.add_edge_named(a, b, "knows").unwrap();
        g
    }

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "ngd-persist-unit-{tag}-{}.snap",
            std::process::id()
        ))
    }

    #[test]
    fn round_trip_matches_the_in_memory_snapshot() {
        let g = sample();
        let snapshot = g.freeze();
        let path = temp_path("roundtrip");
        SnapshotWriter::new().write(&snapshot, &path).unwrap();
        let mapped = MmapSnapshot::load(&path).unwrap();
        assert_conforms(&snapshot, &g, "owned bytes");
        assert_conforms(&mapped, &g, "mapped file");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_graph_round_trips() {
        let snapshot = Graph::new().freeze();
        let path = temp_path("empty");
        SnapshotWriter::new().write(&snapshot, &path).unwrap();
        let mapped = MmapSnapshot::load(&path).unwrap();
        assert_eq!(GraphView::node_count(&mapped), 0);
        assert_eq!(GraphView::edge_count(&mapped), 0);
        assert!(mapped.nodes_with_label(intern("anything")).is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn encoding_is_deterministic() {
        let g = sample();
        let writer = SnapshotWriter::new();
        let first = writer.encode(&g.freeze());
        // Interning unrelated symbols between encodes must not move a byte:
        // file symbol ids are lexicographic, not interning-ordered.
        intern("zzz-unrelated-symbol");
        intern("aaa-unrelated-symbol");
        let second = writer.encode(&g.freeze());
        assert_eq!(first, second);
    }

    #[test]
    fn wrong_kind_is_a_typed_error() {
        let g = sample();
        let path = temp_path("wrongkind");
        // No writer for the reserved kind remains: patch the header's kind
        // word (outside the checksummed range) of a shared file.
        let mut bytes = SnapshotWriter::new().encode(&g.freeze());
        bytes[12..16].copy_from_slice(&format::file_kind::SHARDED.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        match MmapSnapshot::load(&path) {
            Err(PersistError::WrongKind { expected, found }) => {
                assert_eq!(expected, format::file_kind::SNAPSHOT);
                assert_eq!(found, format::file_kind::SHARDED);
            }
            other => panic!("expected WrongKind, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = MmapSnapshot::load(std::path::Path::new("/nonexistent/ngd.snap")).unwrap_err();
        assert!(matches!(err, PersistError::Io(_)), "{err:?}");
    }
}
