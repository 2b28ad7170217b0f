//! The on-disk snapshot contract: golden-format pinning and the
//! corruption battery.
//!
//! * **Golden format** — `tests/data/golden_snapshot_v1_1.ngds` is a tiny
//!   pre-built snapshot checked into the repository.  The writer's output
//!   for the same logical graph must match it **byte for byte** (the
//!   writer canonicalises symbol order, so bytes are independent of
//!   interning history), and its pinned header fields, section offsets
//!   and checksum must decode to exactly the recorded values.  If this
//!   test fails after an intentional layout change: bump
//!   `ngd_graph::persist::format::VERSION` and re-bless the golden file
//!   with `cargo test -p ngd-integration-tests persist_format -- --ignored`.
//! * **Back-compat** — `tests/data/golden_snapshot_v1.ngds` is the same
//!   logical graph written by the *version-1* writer (whose header word at
//!   offset 56 was reserved-as-zero rather than the epoch).  It must keep
//!   loading forever, as **epoch 0** — the v1.1 compatibility contract.
//! * **Corruption battery** — a truncated file, wrong magic, a future
//!   version, a flipped payload byte and a misaligned section each fail
//!   with their own typed [`PersistError`] variant: no panics, no UB, no
//!   silently wrong answers.  Restamped files reach the validators behind
//!   the checksum, down to each fault of an attribute record that the
//!   in-place attribute reader trusts load to have refused.

use ngd_graph::persist::{
    file_checksum, format, FileHeader, MmapSnapshot, PersistError, SnapshotWriter,
};
use ngd_graph::{intern, AttrMap, Graph, GraphView, NodeId, Value};
use std::path::PathBuf;

/// Epoch stamped into the golden v1.1 file — nonzero on purpose, so the
/// pinning covers the epoch header field.
const GOLDEN_EPOCH: u64 = 3;

fn golden_path() -> PathBuf {
    PathBuf::from(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/data/golden_snapshot_v1_1.ngds"
    ))
}

fn golden_v1_path() -> PathBuf {
    PathBuf::from(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/data/golden_snapshot_v1.ngds"
    ))
}

/// The tiny fixed graph the golden file was built from — a miniature of
/// the paper's Figure-1 G4 (fake-account) scenario, with every attribute
/// value variant represented.
fn golden_graph() -> Graph {
    let mut g = Graph::new();
    let account = g.add_node_named(
        "account",
        AttrMap::from_pairs([("name", Value::from("ann"))]),
    );
    let company = g.add_node_named(
        "company",
        AttrMap::from_pairs([("active", Value::Bool(true))]),
    );
    let follower = g.add_node_named("integer", AttrMap::from_pairs([("val", Value::Int(-42))]));
    let status = g.add_node_named(
        "boolean",
        AttrMap::from_pairs([("val", Value::Bool(false))]),
    );
    g.add_edge_named(account, company, "keys").unwrap();
    g.add_edge_named(account, follower, "follower").unwrap();
    g.add_edge_named(account, status, "status").unwrap();
    g.add_edge_named(company, account, "verifies").unwrap();
    g
}

fn golden_bytes() -> Vec<u8> {
    SnapshotWriter::with_epoch(GOLDEN_EPOCH).encode(&golden_graph().freeze())
}

/// Re-generate the golden file.  Run after an intentional format change
/// (together with a VERSION bump):
/// `cargo test -p ngd-integration-tests persist_format -- --ignored`
#[test]
#[ignore = "bless tool: rewrites tests/data/golden_snapshot_v1_1.ngds"]
fn bless_golden_file() {
    std::fs::create_dir_all(golden_path().parent().unwrap()).unwrap();
    std::fs::write(golden_path(), golden_bytes()).unwrap();
}

#[test]
fn golden_file_bytes_are_pinned() {
    let checked_in = std::fs::read(golden_path())
        .expect("tests/data/golden_snapshot_v1.ngds is checked in; run the bless test if missing");
    let generated = golden_bytes();
    assert_eq!(
        checked_in.len(),
        generated.len(),
        "snapshot format drift: the writer now produces {} bytes where the golden file has {}.\n\
         If the layout change is intentional, bump persist::format::VERSION and re-bless the\n\
         golden file (cargo test -p ngd-integration-tests persist_format -- --ignored).",
        generated.len(),
        checked_in.len()
    );
    if checked_in != generated {
        let first_diff = checked_in
            .iter()
            .zip(&generated)
            .position(|(a, b)| a != b)
            .unwrap();
        panic!(
            "snapshot format drift: first differing byte at offset {first_diff}.\n\
             If the layout change is intentional, bump persist::format::VERSION and re-bless\n\
             the golden file (cargo test -p ngd-integration-tests persist_format -- --ignored)."
        );
    }
}

#[test]
fn golden_header_fields_and_sections_are_pinned() {
    let bytes = std::fs::read(golden_path()).expect("golden file present");
    let header = FileHeader::parse(&bytes).expect("golden header parses");
    assert_eq!(
        header.version, 2,
        "golden file is a v1.1 (version-2) snapshot"
    );
    assert_eq!(
        header.epoch, GOLDEN_EPOCH,
        "epoch lives at header offset 56"
    );
    assert_eq!(
        u64::from_le_bytes(bytes[56..64].try_into().unwrap()),
        GOLDEN_EPOCH
    );
    assert_eq!(header.file_kind, format::file_kind::SNAPSHOT);
    assert_eq!(header.node_count, 4);
    assert_eq!(header.edge_count, 4);
    assert_eq!(header.section_align, 64);
    assert_eq!(header.total_len, bytes.len() as u64);
    assert_eq!(
        header.checksum,
        file_checksum(&bytes[format::HEADER_LEN..]),
        "stored checksum must cover exactly bytes[64..]"
    );

    let table = format::read_section_table(&bytes, &header).expect("section table parses");
    assert_eq!(table.len(), header.section_count as usize);
    // Every global section of a shared snapshot, exactly once, 64-aligned.
    let expected_kinds = [
        format::kind::STRINGS,
        format::kind::NODE_LABELS,
        format::kind::NODE_ATTRS,
        format::kind::OUT_OFFSETS,
        format::kind::OUT_LABELS,
        format::kind::OUT_NEIGHBORS,
        format::kind::IN_OFFSETS,
        format::kind::IN_LABELS,
        format::kind::IN_NEIGHBORS,
        format::kind::LABEL_ORDER,
        format::kind::LABEL_RANGES,
        format::kind::TRIPLE_SRC,
        format::kind::TRIPLE_DST,
        format::kind::TRIPLE_RANGES,
    ];
    let mut kinds: Vec<u32> = table.iter().map(|s| s.kind).collect();
    kinds.sort_unstable();
    let mut expected = expected_kinds.to_vec();
    expected.sort_unstable();
    assert_eq!(kinds, expected);
    for section in &table {
        assert_eq!(section.owner, 0, "shared snapshots only have owner 0");
        assert_eq!(section.offset % 64, 0, "kind {}", section.kind);
    }
    // The array sections the loader serves zero-copy have exact u32 sizing.
    let by_kind = |k: u32| table.iter().find(|s| s.kind == k).unwrap();
    assert_eq!(by_kind(format::kind::OUT_OFFSETS).elem_count, 5); // |V| + 1
    assert_eq!(by_kind(format::kind::OUT_NEIGHBORS).elem_count, 4); // |E|
    assert_eq!(by_kind(format::kind::LABEL_ORDER).elem_count, 4); // |V|
    assert_eq!(by_kind(format::kind::STRINGS).elem_count, 11); // 4 node + 4 edge labels + 3 attr names
}

/// The version-1 golden file (reserved word at offset 56) must keep
/// loading as epoch 0 — a v1.1 reader never refuses a v1 file.
#[test]
fn version_1_files_load_as_epoch_0() {
    let bytes = std::fs::read(golden_v1_path()).expect(
        "tests/data/golden_snapshot_v1.ngds is the checked-in v1 back-compat fixture; \
         it is frozen history and must never be regenerated",
    );
    let header = FileHeader::parse(&bytes).expect("v1 header parses");
    assert_eq!(header.version, 1);
    assert_eq!(header.epoch, 0, "v1 reserved word reads as epoch 0");

    let snapshot = MmapSnapshot::load(&golden_v1_path()).expect("v1 file loads");
    assert_eq!(snapshot.epoch(), 0);
    let g = golden_graph();
    assert_eq!(GraphView::node_count(&snapshot), 4);
    assert_eq!(GraphView::edge_count(&snapshot), 4);
    for id in 0..4u32 {
        let id = NodeId(id);
        assert_eq!(GraphView::label(&snapshot, id), g.label(id));
        assert_eq!(&GraphView::attrs_of(&snapshot, id), g.attrs(id));
    }
    // A v1 file differs from its v1.1 epoch-0 rewrite ONLY in the header
    // version word: payload bytes (and therefore the checksum) are
    // identical.  That equality is exactly why v1 can be read forever.
    let rewrite = SnapshotWriter::new().encode(&g.freeze());
    assert_eq!(bytes[format::HEADER_LEN..], rewrite[format::HEADER_LEN..]);
    let new_header = FileHeader::parse(&rewrite).unwrap();
    assert_eq!(new_header.checksum, header.checksum);
    assert_eq!(new_header.version, 2);
}

#[test]
fn golden_file_loads_and_matches_the_graph() {
    let snapshot = MmapSnapshot::load(&golden_path()).expect("golden file loads");
    assert_eq!(snapshot.epoch(), GOLDEN_EPOCH);
    let g = golden_graph();
    assert_eq!(GraphView::node_count(&snapshot), 4);
    assert_eq!(GraphView::edge_count(&snapshot), 4);
    for id in 0..4u32 {
        let id = NodeId(id);
        assert_eq!(GraphView::label(&snapshot, id), g.label(id));
        assert_eq!(&GraphView::attrs_of(&snapshot, id), g.attrs(id));
    }
    assert!(GraphView::has_edge(
        &snapshot,
        NodeId(0),
        NodeId(1),
        intern("keys")
    ));
    assert_eq!(
        snapshot.out_neighbors_labeled(NodeId(0), intern("follower")),
        &[NodeId(2)]
    );
    assert_eq!(
        snapshot.triple_count(intern("account"), intern("keys"), intern("company")),
        1
    );
}

// ---------------------------------------------------------------------------
// Corruption battery: every damage mode is a distinct typed error.
// ---------------------------------------------------------------------------

fn temp_file(tag: &str, bytes: &[u8]) -> PathBuf {
    let path =
        std::env::temp_dir().join(format!("ngd-corruption-{tag}-{}.snap", std::process::id()));
    std::fs::write(&path, bytes).unwrap();
    path
}

fn load_err(tag: &str, bytes: &[u8]) -> PersistError {
    let path = temp_file(tag, bytes);
    let result = MmapSnapshot::load(&path);
    std::fs::remove_file(&path).ok();
    result.expect_err("corrupted file must not load")
}

/// Patch `bytes` and restore checksum validity, so the battery can reach
/// the validation layers *behind* the checksum.
fn restamp(bytes: &mut [u8]) {
    let checksum = file_checksum(&bytes[format::HEADER_LEN..]);
    bytes[32..40].copy_from_slice(&checksum.to_le_bytes());
}

#[test]
fn truncated_file_is_a_typed_error() {
    let bytes = golden_bytes();
    // Cut mid-payload: the header's total_len can no longer be satisfied.
    let cut = bytes.len() / 2;
    match load_err("truncated", &bytes[..cut]) {
        PersistError::Truncated { expected, actual } => {
            assert_eq!(expected, bytes.len() as u64);
            assert_eq!(actual, cut as u64);
        }
        other => panic!("expected Truncated, got {other:?}"),
    }
    // Even a sub-header stump fails typed, not by panic.
    assert!(matches!(
        load_err("stump", &bytes[..7]),
        PersistError::Truncated { .. }
    ));
}

#[test]
fn wrong_magic_is_a_typed_error() {
    let mut bytes = golden_bytes();
    bytes[0] = b'X';
    match load_err("magic", &bytes) {
        PersistError::BadMagic { found } => assert_eq!(&found[1..], &format::MAGIC[1..]),
        other => panic!("expected BadMagic, got {other:?}"),
    }
}

#[test]
fn future_version_is_a_typed_error() {
    let mut bytes = golden_bytes();
    let future = format::VERSION + 1;
    bytes[8..12].copy_from_slice(&future.to_le_bytes());
    match load_err("version", &bytes) {
        PersistError::UnsupportedVersion { found, supported } => {
            assert_eq!(found, future);
            assert_eq!(supported, format::VERSION);
        }
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
}

#[test]
fn flipped_payload_byte_is_a_checksum_mismatch() {
    let mut bytes = golden_bytes();
    // Flip one bit deep inside the payload (past header + section table).
    let target = bytes.len() - 5;
    bytes[target] ^= 0x40;
    match load_err("flip", &bytes) {
        PersistError::ChecksumMismatch { stored, computed } => assert_ne!(stored, computed),
        other => panic!("expected ChecksumMismatch, got {other:?}"),
    }
    // Flipping the *stored checksum* itself is caught the same way.
    let mut bytes = golden_bytes();
    bytes[33] ^= 0x01;
    assert!(matches!(
        load_err("flip-stored", &bytes),
        PersistError::ChecksumMismatch { .. }
    ));
}

#[test]
fn misaligned_section_is_a_typed_error() {
    let mut bytes = golden_bytes();
    // Knock the first section's offset off the 64-byte grid, then restamp
    // the checksum so alignment — not integrity — is what trips.
    let entry_off = format::HEADER_LEN + 8;
    let old = u64::from_le_bytes(bytes[entry_off..entry_off + 8].try_into().unwrap());
    bytes[entry_off..entry_off + 8].copy_from_slice(&(old + 4).to_le_bytes());
    restamp(&mut bytes);
    match load_err("misaligned", &bytes) {
        PersistError::MisalignedSection { offset, .. } => assert_eq!(offset, old + 4),
        other => panic!("expected MisalignedSection, got {other:?}"),
    }
}

#[test]
fn crafted_element_counts_fail_typed_not_catastrophically() {
    // A section entry whose elem_count is chosen so `elem_count * 4`
    // wraps back to the recorded byte length: the checked length test
    // must refuse it instead of letting a later slice wrap into UB.
    let bytes = golden_bytes();
    let header = FileHeader::parse(&bytes).unwrap();
    let table = format::read_section_table(&bytes, &header).unwrap();
    let offsets = table
        .iter()
        .position(|s| s.kind == format::kind::OUT_OFFSETS)
        .unwrap();
    let entry_off = format::HEADER_LEN + offsets * format::SECTION_ENTRY_LEN + 24;
    let old = u64::from_le_bytes(bytes[entry_off..entry_off + 8].try_into().unwrap());
    let mut damaged = bytes.clone();
    damaged[entry_off..entry_off + 8].copy_from_slice(&((1u64 << 62) + old).to_le_bytes());
    restamp(&mut damaged);
    assert!(matches!(
        load_err("elem-overflow", &damaged),
        PersistError::Corrupt(_)
    ));

    // The reserved kind 2 (the sharded snapshots older builds wrote): no
    // writer for it remains, so patch the kind word of a shared file — it
    // sits in the header, outside the checksummed range.  Every opener
    // must refuse it typed rather than read it as kind 1.
    let mut bytes = golden_bytes();
    bytes[12..16].copy_from_slice(&format::file_kind::SHARDED.to_le_bytes());
    let wrong_kind = PersistError::WrongKind {
        expected: format::file_kind::SNAPSHOT,
        found: format::file_kind::SHARDED,
    };
    assert_eq!(load_err("kind-2", &bytes), wrong_kind);
    assert!(wrong_kind.to_string().contains("no longer supported"));
    let path = temp_file("kind-2-store", &bytes);
    let opened = ngd_serve::SnapshotStore::open(&path);
    std::fs::remove_file(&path).ok();
    assert_eq!(opened.err(), Some(wrong_kind));
}

#[test]
fn repointed_index_ranges_fail_typed_not_silently_wrong() {
    // Swap the label-partition windows of two labels (restamped): the
    // cross-check against NODE_LABELS must refuse the file rather than
    // let candidate selection silently serve the wrong node sets.
    let bytes = golden_bytes();
    let header = FileHeader::parse(&bytes).unwrap();
    let table = format::read_section_table(&bytes, &header).unwrap();
    let ranges = table
        .iter()
        .find(|s| s.kind == format::kind::LABEL_RANGES)
        .unwrap();
    assert!(ranges.elem_count >= 2, "golden file has several labels");
    // Entry layout: (file sym u32, start u32, end u32) × elem_count —
    // entry `i` at `base + 12·i`, its window at `+4..+12`.  Swap the
    // windows of the first two entries, keeping the symbols in place.
    let base = ranges.offset as usize;
    let mut damaged = bytes.clone();
    damaged[base + 4..base + 12].copy_from_slice(&bytes[base + 16..base + 24]);
    damaged[base + 16..base + 24].copy_from_slice(&bytes[base + 4..base + 12]);
    restamp(&mut damaged);
    assert!(matches!(
        load_err("swapped-label-ranges", &damaged),
        PersistError::Corrupt(_)
    ));

    // Repoint a triple-index window (restamped): the tiling/endpoint
    // cross-check must refuse it.
    let triples = table
        .iter()
        .find(|s| s.kind == format::kind::TRIPLE_RANGES)
        .unwrap();
    assert!(triples.elem_count >= 2, "golden file has several triples");
    // Entry layout: (s, l, d, start, end) × elem_count; shift the first
    // entry's end into the second's window.
    let base = triples.offset as usize;
    let mut damaged = bytes.clone();
    let end0 = u32::from_le_bytes(bytes[base + 16..base + 20].try_into().unwrap());
    damaged[base + 16..base + 20].copy_from_slice(&(end0 + 1).to_le_bytes());
    restamp(&mut damaged);
    assert!(matches!(
        load_err("repointed-triple-range", &damaged),
        PersistError::Corrupt(_)
    ));
}

#[test]
fn structural_damage_behind_the_checksum_is_corrupt_not_ub() {
    // Out-of-range neighbour id in the out-CSR: restamped so the checksum
    // passes — the semantic validator must still refuse it.
    let bytes = golden_bytes();
    let header = FileHeader::parse(&bytes).unwrap();
    let table = format::read_section_table(&bytes, &header).unwrap();
    let neighbors = table
        .iter()
        .find(|s| s.kind == format::kind::OUT_NEIGHBORS)
        .unwrap();
    let mut damaged = bytes.clone();
    let at = neighbors.offset as usize;
    damaged[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    restamp(&mut damaged);
    assert!(matches!(
        load_err("bad-neighbor", &damaged),
        PersistError::Corrupt(_)
    ));

    // A section table pointing past the end of the file.
    let mut damaged = bytes.clone();
    let entry_off = format::HEADER_LEN + 8;
    damaged[entry_off..entry_off + 8].copy_from_slice(&((bytes.len() as u64 + 64).to_le_bytes()));
    restamp(&mut damaged);
    assert!(matches!(
        load_err("oob-section", &damaged),
        PersistError::Corrupt(_)
    ));
}

#[test]
fn an_array_section_running_past_the_file_fails_typed() {
    // OUT_NEIGHBORS keeps `byte_len == 4 · elem_count`, so the element-count
    // check passes, but now ends one element past `total_len` (restamped).
    // The snapshot keeps each array section as a slice resolved once at
    // load, so the bounds must be refused typed before any is resolved.
    let bytes = golden_bytes();
    let header = FileHeader::parse(&bytes).unwrap();
    let table = format::read_section_table(&bytes, &header).unwrap();
    let idx = table
        .iter()
        .position(|s| s.kind == format::kind::OUT_NEIGHBORS)
        .unwrap();
    let elems = (header.total_len - table[idx].offset) / 4 + 1;
    let at = format::HEADER_LEN + idx * format::SECTION_ENTRY_LEN;
    let mut damaged = bytes.clone();
    damaged[at + 16..at + 24].copy_from_slice(&(elems * 4).to_le_bytes());
    damaged[at + 24..at + 32].copy_from_slice(&elems.to_le_bytes());
    restamp(&mut damaged);
    match load_err("array-past-end", &damaged) {
        PersistError::Corrupt(msg) => assert!(msg.contains("outside the file"), "{msg}"),
        other => panic!("expected Corrupt, got {other:?}"),
    }
}

#[test]
fn with_epoch_restamps_only_the_header_epoch_word() {
    let snapshot = golden_graph().freeze();
    let epoch_0 = SnapshotWriter::new().encode(&snapshot);
    let stamped = SnapshotWriter::with_epoch(41).encode(&snapshot);
    assert_eq!(epoch_0.len(), stamped.len());
    let differing: Vec<usize> = (0..stamped.len())
        .filter(|&i| epoch_0[i] != stamped[i])
        .collect();
    assert!(!differing.is_empty());
    assert!(
        differing.iter().all(|i| (56..64).contains(i)),
        "{differing:?}"
    );
    assert_eq!(stamped[56..64], 41u64.to_le_bytes());

    // `write` puts the same bytes on disk, and they load at the epoch.
    let path = std::env::temp_dir().join(format!("ngd-with-epoch-{}.ngds", std::process::id()));
    let written = SnapshotWriter::with_epoch(41)
        .write(&snapshot, &path)
        .unwrap();
    let on_disk = std::fs::read(&path).unwrap();
    let loaded = MmapSnapshot::load(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(written, stamped.len() as u64);
    assert_eq!(on_disk, stamped);
    assert_eq!(loaded.epoch(), 41);
    assert_eq!(snapshot.epoch(), 0, "the frozen snapshot itself is epoch 0");
}

// ---------------------------------------------------------------------------
// Attribute records: every fault the in-place reader relies on load to have
// ruled out is refused at load, typed.
// ---------------------------------------------------------------------------

/// Two nodes whose attribute records cover every value tag and a record of
/// more than one entry.  File symbols are lexicographic — `a`=0, `b`=1,
/// `c`=2, `e`=3, `n`=4 — so the `NODE_ATTRS` blob is, byte by byte:
///
/// ```text
///  0  count 2 │  4  name 0 │  8  tag 0 │  9  i64 1
/// 17  name 1  │ 21  tag 1  │ 22  len 2 │ 26  "xy"
/// 28  count 1 │ 32  name 2 │ 36  tag 2 │ 37  byte 1     (38 bytes)
/// ```
fn record_graph_bytes() -> Vec<u8> {
    let mut g = Graph::new();
    let first = g.add_node_named(
        "n",
        AttrMap::from_pairs([("a", Value::Int(1)), ("b", Value::from("xy"))]),
    );
    let second = g.add_node_named("n", AttrMap::from_pairs([("c", Value::Bool(true))]));
    g.add_edge_named(first, second, "e").unwrap();
    SnapshotWriter::new().encode(&g.freeze())
}

/// `bytes` with `patch` written at `at` inside the `NODE_ATTRS` blob,
/// restamped so that the record validator, not the checksum, judges it.
fn with_attr_patch(at: usize, patch: &[u8]) -> Vec<u8> {
    let mut bytes = record_graph_bytes();
    let header = FileHeader::parse(&bytes).unwrap();
    let table = format::read_section_table(&bytes, &header).unwrap();
    let attrs = table
        .iter()
        .find(|s| s.kind == format::kind::NODE_ATTRS)
        .unwrap();
    assert_eq!(attrs.byte_len, 38, "the layout drawn above");
    let at = attrs.offset as usize + at;
    bytes[at..at + patch.len()].copy_from_slice(patch);
    restamp(&mut bytes);
    bytes
}

#[test]
fn the_crafted_record_file_loads_unpatched() {
    let path = temp_file("records-intact", &record_graph_bytes());
    let snapshot = MmapSnapshot::load(&path).expect("the unpatched file loads");
    std::fs::remove_file(&path).ok();
    let read = |id: u32, name: &str| GraphView::attr(&snapshot, NodeId(id), intern(name));
    assert_eq!(read(0, "a"), Some(Value::Int(1)));
    assert_eq!(read(0, "b"), Some(Value::from("xy")));
    assert_eq!(read(0, "c"), None);
    assert_eq!(read(1, "c"), Some(Value::Bool(true)));
}

#[test]
fn corrupt_attribute_records_fail_typed_at_load() {
    let cases: [(&str, usize, &[u8], &str); 6] = [
        (
            "duplicate-name",
            17,
            &0u32.to_le_bytes(),
            "not strictly increasing",
        ),
        (
            "unsorted-names",
            4,
            &2u32.to_le_bytes(),
            "not strictly increasing",
        ),
        ("unknown-tag", 36, &[9], "unknown attribute value tag 9"),
        ("non-utf8", 26, &[0xFF, 0xFE], "not UTF-8"),
        ("name-out-of-range", 32, &5u32.to_le_bytes(), "out of range"),
        ("record-overrun", 28, &2u32.to_le_bytes(), "past the end"),
    ];
    for (tag, at, patch, expected) in cases {
        match load_err(tag, &with_attr_patch(at, patch)) {
            PersistError::Corrupt(msg) => assert!(msg.contains(expected), "{tag}: {msg}"),
            other => panic!("{tag}: expected Corrupt, got {other:?}"),
        }
    }
}
