//! Zero-copy loading: the file-backed storage [`MmapSnapshot`].
//!
//! This module holds no reader of its own: it validates a file, hands its
//! mapped arrays to the crate's one CSR reader through the storage seam of
//! [`crate::csr`] (`CsrStore`), and the generic `GraphView` impl there does
//! the rest.
//!
//! A loaded snapshot keeps the file mapped and serves every array read —
//! CSR offsets, labels, neighbours, label partition, triple arrays —
//! directly from the mapping by reinterpreting validated byte ranges as
//! `&[u32]` / `&[NodeId]` slices.  Only the variable-length payloads that
//! cannot be viewed in place are materialised at load time: the string
//! table (bridged into the process interner) and the small range
//! dictionaries.  Per-node attribute records are validated and indexed at
//! load and decoded from the mapping on every read.
//!
//! **Safety discipline.**  All `unsafe` in this module is the slice
//! reinterpretation, and it is sound because `load` validates, before any
//! view is handed out, that every section lies inside the mapping, is
//! aligned, has a consistent element count, and satisfies the structural
//! invariants the readers rely on (monotone offsets, in-bounds neighbour
//! ids and symbol ids, sorted runs, permutation label order).  Corrupt
//! input therefore fails with a typed [`PersistError`] at load — never
//! with UB, a panic, or a silently wrong answer at read time.
//!
//! **Symbol spaces.**  File symbol ids are lexicographic by string and
//! process [`Sym`]s are interning-ordered, so the two orders differ; the
//! loader never rewrites the mapped arrays.  Instead the file symbol id is
//! the storage's run key: each query symbol is translated into file space
//! (one load from a dense `Sym → file id` table), the binary search runs
//! over the file-ordered run, and results translate back through a dense
//! `file id → Sym` table.  A symbol the file never saw has no run key and
//! simply yields an empty run, mirroring the in-memory snapshot.

use super::format::{
    file_checksum, file_kind, kind, read_section_table, AttrEntries, AttrFault, BlobReader,
    FileHeader, RawValue, SectionEntry, SymTable, HEADER_LEN, SECTION_ALIGN,
};
use super::mmap::MmapFile;
use super::PersistError;
use crate::attrs::AttrMap;
use crate::csr::{CsrStore, LabelRanges, Side, TripleRanges};
use crate::graph::NodeId;
use crate::interner::{intern, Sym};
use crate::value::Value;
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

/// Why reading a mapped attribute record cannot fail.
pub(crate) const VALIDATED: &str = "attribute record validated at load";

/// A validated `u32`-array section: byte offset + element count.
#[derive(Debug, Clone, Copy)]
struct Sect {
    off: usize,
    len: usize,
}

/// One CSR side's three array sections.
#[derive(Debug, Clone, Copy)]
struct SideSect {
    offsets: Sect,
    labels: Sect,
    neighbors: Sect,
}

/// Reinterpret a mapped byte range as `&[u32]`.
///
/// Soundness: the range was bounds-checked against the mapping and starts
/// at a [`SECTION_ALIGN`]-multiple offset of an (at least) 8-byte-aligned
/// base, so the pointer is 4-byte aligned; `u32` has no invalid bit
/// patterns; the mapping is immutable and outlives the borrow.
#[inline]
fn u32s(map: &MmapFile, s: Sect) -> &[u32] {
    let bytes = &map.bytes()[s.off..s.off + s.len * 4];
    debug_assert_eq!(bytes.as_ptr() as usize % 4, 0);
    // SAFETY: every `Sect` is built by `FileData::u32_sect` from an entry
    // that passed `read_section_table` — `offset` a multiple of
    // `SECTION_ALIGN` (`MisalignedSection` otherwise) and
    // `offset + byte_len` inside the mapping (`Corrupt` otherwise) — and
    // whose `byte_len` is `elem_count * 4` by the checked multiply there;
    // the slice index above re-checks the bounds.  The base is
    // page-aligned (mmap) or 8-aligned (the `Vec<u64>` fallback), so
    // `base + off` is 4-aligned; every bit pattern is a valid `u32`; the
    // mapping is never written and the borrow is tied to `map`.
    unsafe { std::slice::from_raw_parts(bytes.as_ptr().cast::<u32>(), s.len) }
}

/// Reinterpret a `u32` slice as node ids (`NodeId` is
/// `repr(transparent)` over `u32`).
#[inline]
fn as_node_ids(xs: &[u32]) -> &[NodeId] {
    // SAFETY: `NodeId` is `#[repr(transparent)]` over `u32` (a documented
    // contract of the type), so size, alignment and validity coincide;
    // pointer, length and lifetime are those of `xs`.
    unsafe { std::slice::from_raw_parts(xs.as_ptr().cast::<NodeId>(), xs.len()) }
}

/// A parsed, checksum-verified file: mapping + header + section directory.
///
/// `table` keeps the entries in **file (push) order** — the directory the
/// compaction writer replays when it byte-copies sections into the next
/// epoch; `sections` is the same set keyed for random access.
struct FileData {
    map: Arc<MmapFile>,
    header: FileHeader,
    table: Vec<SectionEntry>,
    sections: HashMap<(u32, u32), SectionEntry>,
}

impl FileData {
    fn open(path: &Path) -> Result<FileData, PersistError> {
        if cfg!(target_endian = "big") {
            return Err(PersistError::UnsupportedHost(
                "snapshot files are little-endian and this host is big-endian".into(),
            ));
        }
        let map = MmapFile::open(path)?;
        let bytes = map.bytes();
        let header = FileHeader::parse(bytes)?;
        if header.section_align != SECTION_ALIGN as u32 {
            return Err(PersistError::Corrupt(format!(
                "unexpected section alignment {} (expected {SECTION_ALIGN})",
                header.section_align
            )));
        }
        if header.total_len > bytes.len() as u64 {
            return Err(PersistError::Truncated {
                expected: header.total_len,
                actual: bytes.len() as u64,
            });
        }
        if header.total_len < bytes.len() as u64 {
            return Err(PersistError::Corrupt(format!(
                "{} trailing bytes past the recorded file length",
                bytes.len() as u64 - header.total_len
            )));
        }
        let computed = file_checksum(&bytes[HEADER_LEN..]);
        if computed != header.checksum {
            return Err(PersistError::ChecksumMismatch {
                stored: header.checksum,
                computed,
            });
        }
        let table = read_section_table(bytes, &header)?;
        let mut sections = HashMap::new();
        for entry in &table {
            if sections.insert((entry.kind, entry.owner), *entry).is_some() {
                return Err(PersistError::Corrupt(format!(
                    "duplicate section kind {} for owner {}",
                    entry.kind, entry.owner
                )));
            }
        }
        Ok(FileData {
            map: Arc::new(map),
            header,
            table,
            sections,
        })
    }

    /// The section of `kind` (owner 0: the only owner a shared file has).
    fn entry(&self, kind: u32) -> Result<SectionEntry, PersistError> {
        self.sections
            .get(&(kind, 0))
            .copied()
            .ok_or_else(|| PersistError::Corrupt(format!("missing section kind {kind}")))
    }

    /// A `u32`-array section (byte length must match the element count).
    fn u32_sect(&self, kind: u32) -> Result<Sect, PersistError> {
        let entry = self.entry(kind)?;
        // Checked multiply: a crafted elem_count near u64::MAX must fail
        // typed here, not wrap and defeat the length check (the slice it
        // would later describe is the module's UB contract on the line).
        if entry.elem_count.checked_mul(4) != Some(entry.byte_len) {
            return Err(PersistError::Corrupt(format!(
                "section kind {kind}: {} bytes for {} u32 elements",
                entry.byte_len, entry.elem_count
            )));
        }
        Ok(Sect {
            off: entry.offset as usize,
            len: entry.elem_count as usize,
        })
    }

    /// A blob section: raw bytes + declared element count.
    ///
    /// The element count is capped by the blob's byte length (each record
    /// of every blob kind occupies at least one byte), so decoders can use
    /// it for `with_capacity` without a crafted count forcing a huge
    /// allocation before the bounds-checked parse would catch it.
    fn blob(&self, kind: u32) -> Result<(&[u8], usize), PersistError> {
        let entry = self.entry(kind)?;
        let start = entry.offset as usize;
        let end = start + entry.byte_len as usize;
        if entry.elem_count > entry.byte_len {
            return Err(PersistError::Corrupt(format!(
                "section kind {kind}: {} records in {} bytes",
                entry.elem_count, entry.byte_len
            )));
        }
        Ok((&self.map.bytes()[start..end], entry.elem_count as usize))
    }

    fn side(&self, kinds: (u32, u32, u32)) -> Result<SideSect, PersistError> {
        Ok(SideSect {
            offsets: self.u32_sect(kinds.0)?,
            labels: self.u32_sect(kinds.1)?,
            neighbors: self.u32_sect(kinds.2)?,
        })
    }
}

fn decode_strings(blob: &[u8], declared: usize) -> Result<SymTable, PersistError> {
    let mut reader = BlobReader::new(blob, "string table");
    let count = reader.u32()? as usize;
    if count != declared {
        return Err(PersistError::Corrupt(format!(
            "string table declares {declared} entries but encodes {count}"
        )));
    }
    let mut syms = Vec::with_capacity(count);
    let mut previous: Option<String> = None;
    for fid in 0..count {
        let len = reader.u32()? as usize;
        let text = std::str::from_utf8(reader.bytes(len)?)
            .map_err(|_| PersistError::Corrupt(format!("string {fid} is not UTF-8")))?;
        if previous.as_deref() >= Some(text) {
            // Strict lexicographic order doubles as a uniqueness check —
            // two file ids must never intern to the same process symbol.
            return Err(PersistError::Corrupt(format!(
                "string table not strictly sorted at entry {fid}"
            )));
        }
        previous = Some(text.to_owned());
        syms.push(intern(text));
    }
    reader.finish()?;
    Ok(SymTable::new(syms))
}

/// The record index of the mapped attribute blob: nothing is decoded
/// ahead of a read and nothing decoded is kept.
///
/// The load-time pass *validates* every record — name ids in range and
/// strictly increasing in file-symbol order, known value tags, UTF-8
/// strings, exact blob consumption — and keeps only the record
/// boundaries.  A read decodes straight from the mapped bytes
/// ([`MmapSnapshot::attr_entries`]): `attr` walks one record up to the
/// name and copies the value out, `attrs_of` builds an owned tuple.  So a
/// cold read allocates nothing for an `Int`/`Bool` value, and dropping
/// the snapshot frees the same blocks however many nodes were read.
#[derive(Debug)]
struct LazyAttrs {
    /// Byte range of the attribute blob inside the mapping.
    off: usize,
    len: usize,
    /// Record boundaries within the blob (`count + 1` entries).
    starts: Vec<u32>,
}

impl LazyAttrs {
    /// Validate the node-attribute blob section and index its records.
    fn load(file: &FileData, count: usize, syms: &SymTable) -> Result<LazyAttrs, PersistError> {
        let what = "node attributes";
        let entry = file.entry(kind::NODE_ATTRS)?;
        let (blob, declared) = file.blob(kind::NODE_ATTRS)?;
        if declared != count {
            return Err(PersistError::Corrupt(format!(
                "{what}: {declared} attribute tuples for {count} rows"
            )));
        }
        if blob.len() > u32::MAX as usize {
            return Err(PersistError::Corrupt(format!(
                "{what}: attribute blob exceeds the 4 GiB record index"
            )));
        }
        let corrupt = |row: usize, fault: AttrFault| {
            PersistError::Corrupt(format!("{what}: row {row}: {fault}"))
        };
        let mut rest = blob;
        let mut starts = Vec::with_capacity(count + 1);
        for row in 0..count {
            starts.push((blob.len() - rest.len()) as u32);
            let mut entries = AttrEntries::new(rest).map_err(|fault| corrupt(row, fault))?;
            let mut previous = None;
            for entry in &mut entries {
                let (name, _) = entry.map_err(|fault| corrupt(row, fault))?;
                syms.sym_checked(name)?;
                // A read stops at the first matching name, so there must be
                // no later duplicate for it to miss.
                if previous >= Some(name) {
                    return Err(PersistError::Corrupt(format!(
                        "{what}: row {row}: names are not strictly increasing"
                    )));
                }
                previous = Some(name);
            }
            rest = entries.rest();
        }
        starts.push((blob.len() - rest.len()) as u32);
        if !rest.is_empty() {
            return Err(PersistError::Corrupt(format!(
                "{what}: {} trailing bytes after the last record",
                rest.len()
            )));
        }
        Ok(LazyAttrs {
            off: entry.offset as usize,
            len: entry.byte_len as usize,
            starts,
        })
    }
}

/// Validate one CSR side's invariants and return its entry count.
fn validate_side(
    map: &MmapFile,
    side: SideSect,
    rows: usize,
    sym_count: u32,
    what: &'static str,
) -> Result<usize, PersistError> {
    let offsets = u32s(map, side.offsets);
    if offsets.len() != rows + 1 || offsets.first() != Some(&0) {
        return Err(PersistError::Corrupt(format!(
            "{what}: offsets array has {} entries for {rows} rows",
            offsets.len()
        )));
    }
    let entries = *offsets.last().expect("non-empty offsets") as usize;
    if side.labels.len != entries || side.neighbors.len != entries {
        return Err(PersistError::Corrupt(format!(
            "{what}: {} labels / {} neighbours for {entries} entries",
            side.labels.len, side.neighbors.len
        )));
    }
    let labels = u32s(map, side.labels);
    let neighbors = u32s(map, side.neighbors);
    // Neighbour bound: one whole-array pass (vectorises).
    if let Some(&bad) = neighbors.iter().find(|&&n| n as usize >= rows) {
        return Err(PersistError::Corrupt(format!(
            "{what}: neighbour id {bad} out of range"
        )));
    }
    // Label bound + per-run `(label, neighbour)` ordering, fused into one
    // pass over packed 64-bit keys — this runs on every load, over every
    // edge entry, so it is written for throughput.
    let label_bound = u64::from(sym_count) << 32;
    for window in offsets.windows(2) {
        let (start, end) = (window[0] as usize, window[1] as usize);
        if start > end || end > entries {
            return Err(PersistError::Corrupt(format!(
                "{what}: offsets are not monotone ({start} > {end})"
            )));
        }
        let mut previous = 0u64;
        for i in start..end {
            let key = (u64::from(labels[i]) << 32) | u64::from(neighbors[i]);
            if key >= label_bound {
                return Err(PersistError::Corrupt(format!(
                    "{what}: label id {} out of range",
                    labels[i]
                )));
            }
            if key < previous {
                return Err(PersistError::Corrupt(format!(
                    "{what}: run of row starting at entry {start} is not sorted"
                )));
            }
            previous = key;
        }
    }
    Ok(entries)
}

/// Decode the label-partition dictionary and cross-check it against the
/// node labels: the ranges must **exactly tile** the label-order array in
/// file-symbol order, and every node inside a range must carry that
/// range's label.  A repointed, swapped or overlapping range is therefore
/// a typed error at load, never a silently wrong candidate set.
fn decode_label_ranges(
    blob: &[u8],
    declared: usize,
    node_labels: &[u32],
    label_order: &[u32],
    syms: &SymTable,
) -> Result<LabelRanges, PersistError> {
    let mut reader = BlobReader::new(blob, "label ranges");
    let mut out = LabelRanges::with_capacity_and_hasher(declared, Default::default());
    let mut previous: Option<u32> = None;
    let mut cursor = 0u32;
    for _ in 0..declared {
        let fid = reader.u32()?;
        let start = reader.u32()?;
        let end = reader.u32()?;
        if previous >= Some(fid) {
            return Err(PersistError::Corrupt(
                "label ranges are not sorted by symbol".into(),
            ));
        }
        previous = Some(fid);
        if start != cursor || start > end || end as usize > label_order.len() {
            return Err(PersistError::Corrupt(format!(
                "label range {start}..{end} does not tile the label order \
                 (expected start {cursor}, order length {})",
                label_order.len()
            )));
        }
        cursor = end;
        for &node in &label_order[start as usize..end as usize] {
            if node_labels[node as usize] != fid {
                return Err(PersistError::Corrupt(format!(
                    "label range of symbol {fid} lists node {node} whose label is {}",
                    node_labels[node as usize]
                )));
            }
        }
        out.insert(syms.sym_checked(fid)?, (start, end));
    }
    if cursor as usize != label_order.len() {
        return Err(PersistError::Corrupt(format!(
            "label ranges cover {cursor} of {} label-order entries",
            label_order.len()
        )));
    }
    reader.finish()?;
    Ok(out)
}

/// Decode the triple-index dictionary and cross-check it against the node
/// labels and the out-CSR.  The ranges must exactly tile the triple
/// arrays in key order and hold as many entries as the graph has edges;
/// inside a range, entries must be strictly `(src, dst)`-sorted with both
/// endpoints labelled as the key says, and the first and last entry of
/// every range are probed against the out-CSR to confirm the edge exists
/// under the key's edge label.  (Entries between the probes are verified
/// for endpoint labels and ordering, not re-derived edge-by-edge — a file
/// forging those is indistinguishable from one validly encoding a
/// different graph.)
#[allow(clippy::too_many_arguments)]
fn decode_triple_ranges(
    blob: &[u8],
    declared: usize,
    node_labels: &[u32],
    triple_src: &[u32],
    triple_dst: &[u32],
    edge_count: usize,
    out_side: Side<'_, u32>,
    syms: &SymTable,
) -> Result<TripleRanges, PersistError> {
    if triple_src.len() != edge_count {
        return Err(PersistError::Corrupt(format!(
            "triple arrays hold {} entries for {edge_count} edges",
            triple_src.len()
        )));
    }
    let mut reader = BlobReader::new(blob, "triple ranges");
    let mut out = TripleRanges::with_capacity_and_hasher(declared, Default::default());
    let mut previous: Option<(u32, u32, u32)> = None;
    let mut cursor = 0u32;
    for _ in 0..declared {
        let key = (reader.u32()?, reader.u32()?, reader.u32()?);
        let start = reader.u32()?;
        let end = reader.u32()?;
        if previous >= Some(key) {
            return Err(PersistError::Corrupt(
                "triple ranges are not sorted by key".into(),
            ));
        }
        previous = Some(key);
        if start != cursor || start > end || end as usize > triple_src.len() {
            return Err(PersistError::Corrupt(format!(
                "triple range {start}..{end} does not tile the triple arrays \
                 (expected start {cursor}, array length {})",
                triple_src.len()
            )));
        }
        cursor = end;
        let mut prev_pair = None;
        for i in start as usize..end as usize {
            let (src, dst) = (triple_src[i], triple_dst[i]);
            if node_labels[src as usize] != key.0 || node_labels[dst as usize] != key.2 {
                return Err(PersistError::Corrupt(format!(
                    "triple range {key:?} lists edge {src}->{dst} with other endpoint labels"
                )));
            }
            if prev_pair >= Some((src, dst)) {
                return Err(PersistError::Corrupt(format!(
                    "triple range {key:?} is not strictly (src, dst)-sorted"
                )));
            }
            prev_pair = Some((src, dst));
        }
        if start < end {
            for i in [start as usize, end as usize - 1] {
                if !out_side.contains(triple_src[i] as usize, key.1, NodeId(triple_dst[i])) {
                    return Err(PersistError::Corrupt(format!(
                        "triple range {key:?} lists edge {}->{} absent from the CSR",
                        triple_src[i], triple_dst[i]
                    )));
                }
            }
        }
        out.insert(
            (
                syms.sym_checked(key.0)?,
                syms.sym_checked(key.1)?,
                syms.sym_checked(key.2)?,
            ),
            (start, end),
        );
    }
    if cursor as usize != triple_src.len() {
        return Err(PersistError::Corrupt(format!(
            "triple ranges cover {cursor} of {} entries",
            triple_src.len()
        )));
    }
    reader.finish()?;
    Ok(out)
}

#[inline]
fn side_of(map: &MmapFile, s: SideSect) -> Side<'_, u32> {
    Side {
        offsets: u32s(map, s.offsets),
        keys: u32s(map, s.labels),
        neighbors: as_node_ids(u32s(map, s.neighbors)),
    }
}

/// A memory-mapped, read-only snapshot implementing
/// [`GraphView`](crate::GraphView).
///
/// Produced by [`MmapSnapshot::load`] from a file written by
/// [`crate::persist::SnapshotWriter`]; behaves exactly like the
/// [`crate::CsrSnapshot`] it was serialised from (same violation sets and
/// deltas through every detector), while the heavyweight arrays stay on
/// disk and are paged in on demand.
#[derive(Debug)]
pub struct MmapSnapshot {
    map: Arc<MmapFile>,
    syms: Arc<SymTable>,
    /// Per-row label ids (file symbol space).
    node_labels: Sect,
    /// Attribute record boundaries; values are decoded on each read.
    attrs: LazyAttrs,
    out: SideSect,
    inn: SideSect,
    /// The file's section directory in push order, retained so the
    /// compaction writer can byte-copy whole sections without re-encoding
    /// them.
    section_table: Vec<SectionEntry>,
    node_count: usize,
    edge_count: usize,
    epoch: u64,
    label_ranges: LabelRanges,
    triple_ranges: TripleRanges,
    label_order: Sect,
    triple_src: Sect,
    triple_dst: Sect,
}

impl MmapSnapshot {
    #[inline]
    fn arr(&self, s: Sect) -> &[u32] {
        u32s(&self.map, s)
    }

    /// Memory-map a snapshot file written by
    /// [`SnapshotWriter::write`](crate::persist::SnapshotWriter::write).
    pub fn load(path: &Path) -> Result<MmapSnapshot, PersistError> {
        let _span = ngd_obs::span!("persist.mmap_load");
        let file = FileData::open(path)?;
        if file.header.file_kind != file_kind::SNAPSHOT {
            return Err(PersistError::WrongKind {
                expected: file_kind::SNAPSHOT,
                found: file.header.file_kind,
            });
        }
        decode(&file)
    }

    /// Size of the backing file in bytes.
    pub fn file_len(&self) -> usize {
        self.map.len()
    }

    /// The snapshot epoch recorded in the file header: 0 for a freshly
    /// frozen graph (and for every version-1 file), incremented by each
    /// compaction ([`crate::persist::CompactionWriter`]).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The nodes labelled `label`, as a contiguous slice of the mapped
    /// label partition (mirrors [`crate::CsrSnapshot::nodes_with_label`]).
    pub fn nodes_with_label(&self, label: Sym) -> &[NodeId] {
        self.label_members(label)
    }

    /// Out-neighbours of `id` along `label`, as a mapped sorted slice.
    pub fn out_neighbors_labeled(&self, id: NodeId, label: Sym) -> &[NodeId] {
        self.out_run(id.index(), label)
    }

    /// In-neighbours of `id` along `label`, as a mapped sorted slice.
    pub fn in_neighbors_labeled(&self, id: NodeId, label: Sym) -> &[NodeId] {
        self.in_run(id.index(), label)
    }

    /// Number of edges matching the label triple.
    pub fn triple_count(&self, src_label: Sym, edge_label: Sym, dst_label: Sym) -> usize {
        self.triple_len((src_label, edge_label, dst_label))
    }

    /// An empty-update [`crate::DeltaOverlay`] over this snapshot (mirrors
    /// [`crate::CsrSnapshot::as_overlay`]).
    pub fn as_overlay(&self) -> crate::overlay::DeltaOverlay<'_, MmapSnapshot> {
        crate::overlay::DeltaOverlay::empty(self)
    }

    // Raw mapped-array accessors for the compaction writer
    // ([`crate::persist::CompactionWriter`]), which merge-joins these
    // file-ordered arrays with a net `ΔG` without re-freezing.  All crate
    // private: the file layout stays an implementation detail.

    /// The file's symbol table (file ids in lexicographic string order).
    pub(crate) fn sym_table(&self) -> &SymTable {
        &self.syms
    }

    /// Per-node labels as file symbol ids.
    pub(crate) fn raw_node_labels(&self) -> &[u32] {
        self.arr(self.node_labels)
    }

    /// One CSR side's `(offsets, labels, neighbors)` mapped arrays.
    pub(crate) fn raw_side_arrays(&self, out: bool) -> (&[u32], &[u32], &[u32]) {
        let side = if out { self.out } else { self.inn };
        (
            self.arr(side.offsets),
            self.arr(side.labels),
            self.arr(side.neighbors),
        )
    }

    /// The label-partition permutation array.
    pub(crate) fn raw_label_order(&self) -> &[u32] {
        self.arr(self.label_order)
    }

    /// The label-partition ranges in file order (sorted by range start,
    /// which equals file-symbol order because the ranges tile the array).
    pub(crate) fn raw_label_ranges(&self) -> Vec<(Sym, u32, u32)> {
        let mut out: Vec<(Sym, u32, u32)> = self
            .label_ranges
            .iter()
            .map(|(&sym, &(start, end))| (sym, start, end))
            .collect();
        out.sort_unstable_by_key(|&(_, start, _)| start);
        out
    }

    /// The triple-index `(src, dst)` arrays.
    pub(crate) fn raw_triple_arrays(&self) -> (&[u32], &[u32]) {
        (self.arr(self.triple_src), self.arr(self.triple_dst))
    }

    /// The triple-index ranges in file order (sorted by range start).
    pub(crate) fn raw_triple_ranges(&self) -> Vec<((Sym, Sym, Sym), u32, u32)> {
        let mut out: Vec<((Sym, Sym, Sym), u32, u32)> = self
            .triple_ranges
            .iter()
            .map(|(&key, &(start, end))| (key, start, end))
            .collect();
        out.sort_unstable_by_key(|&(_, start, _)| start);
        out
    }

    /// The raw bytes of node `idx`'s attribute record (validated at load).
    pub(crate) fn raw_attr_record(&self, idx: usize) -> &[u8] {
        let attrs = &self.attrs;
        let blob = &self.map.bytes()[attrs.off..attrs.off + attrs.len];
        &blob[attrs.starts[idx] as usize..attrs.starts[idx + 1] as usize]
    }

    /// The `(name file id, value)` entries of node `idx`'s attribute
    /// record, names strictly increasing, decoded in place.
    #[inline]
    pub(crate) fn attr_entries(&self, idx: usize) -> impl Iterator<Item = (u32, RawValue<'_>)> {
        AttrEntries::new(self.raw_attr_record(idx))
            .expect(VALIDATED)
            .map(|entry| entry.expect(VALIDATED))
    }

    /// The file's section directory in push order.  Lets the compaction
    /// writer replay unchanged sections byte-for-byte instead of
    /// re-encoding them.
    pub(crate) fn raw_section_table(&self) -> &[SectionEntry] {
        &self.section_table
    }

    /// The mapped payload bytes of a directory entry.
    pub(crate) fn raw_section_bytes(&self, entry: &SectionEntry) -> &[u8] {
        &self.map.bytes()[entry.offset as usize..][..entry.byte_len as usize]
    }
}

/// Decode and validate the sections of a verified file.
fn decode(file: &FileData) -> Result<MmapSnapshot, PersistError> {
    let n = usize::try_from(file.header.node_count)
        .map_err(|_| PersistError::Corrupt("node count exceeds address space".into()))?;
    let edge_count = usize::try_from(file.header.edge_count)
        .map_err(|_| PersistError::Corrupt("edge count exceeds address space".into()))?;

    let (blob, declared) = file.blob(kind::STRINGS)?;
    let syms = decode_strings(blob, declared)?;
    let sym_count = syms.len() as u32;

    let node_labels = file.u32_sect(kind::NODE_LABELS)?;
    if node_labels.len != n {
        return Err(PersistError::Corrupt(format!(
            "{} node labels for {n} nodes",
            node_labels.len
        )));
    }
    for &label in u32s(&file.map, node_labels) {
        if label >= sym_count {
            return Err(PersistError::Corrupt(format!(
                "node label id {label} out of range"
            )));
        }
    }

    let attrs = LazyAttrs::load(file, n, &syms)?;

    let out = file.side((kind::OUT_OFFSETS, kind::OUT_LABELS, kind::OUT_NEIGHBORS))?;
    let out_entries = validate_side(&file.map, out, n, sym_count, "out CSR")?;
    if out_entries != edge_count {
        return Err(PersistError::Corrupt(format!(
            "out CSR holds {out_entries} entries but the header claims {edge_count} edges"
        )));
    }
    let inn = file.side((kind::IN_OFFSETS, kind::IN_LABELS, kind::IN_NEIGHBORS))?;
    let in_entries = validate_side(&file.map, inn, n, sym_count, "in CSR")?;
    if in_entries != edge_count {
        return Err(PersistError::Corrupt(format!(
            "in CSR holds {in_entries} entries but the header claims {edge_count} edges"
        )));
    }

    let label_order = file.u32_sect(kind::LABEL_ORDER)?;
    if label_order.len != n {
        return Err(PersistError::Corrupt(format!(
            "label order has {} entries for {n} nodes",
            label_order.len
        )));
    }
    let mut seen = vec![false; n];
    for &id in u32s(&file.map, label_order) {
        if (id as usize) >= n || std::mem::replace(&mut seen[id as usize], true) {
            return Err(PersistError::Corrupt(
                "label order is not a permutation of the node ids".into(),
            ));
        }
    }
    let (blob, declared) = file.blob(kind::LABEL_RANGES)?;
    let label_ranges = decode_label_ranges(
        blob,
        declared,
        u32s(&file.map, node_labels),
        u32s(&file.map, label_order),
        &syms,
    )?;

    let triple_src = file.u32_sect(kind::TRIPLE_SRC)?;
    let triple_dst = file.u32_sect(kind::TRIPLE_DST)?;
    if triple_src.len != triple_dst.len {
        return Err(PersistError::Corrupt(format!(
            "triple arrays disagree: {} sources, {} destinations",
            triple_src.len, triple_dst.len
        )));
    }
    for sect in [triple_src, triple_dst] {
        for &id in u32s(&file.map, sect) {
            if id as usize >= n {
                return Err(PersistError::Corrupt(format!(
                    "triple endpoint {id} out of range"
                )));
            }
        }
    }
    let (blob, declared) = file.blob(kind::TRIPLE_RANGES)?;
    let triple_ranges = decode_triple_ranges(
        blob,
        declared,
        u32s(&file.map, node_labels),
        u32s(&file.map, triple_src),
        u32s(&file.map, triple_dst),
        edge_count,
        side_of(&file.map, out),
        &syms,
    )?;

    Ok(MmapSnapshot {
        map: Arc::clone(&file.map),
        syms: Arc::new(syms),
        node_labels,
        attrs,
        out,
        inn,
        section_table: file.table.clone(),
        node_count: n,
        edge_count,
        epoch: file.header.epoch,
        label_ranges,
        triple_ranges,
        label_order,
        triple_src,
        triple_dst,
    })
}

impl CsrStore for MmapSnapshot {
    type Key = u32;

    #[inline]
    fn out_side(&self) -> Side<'_, u32> {
        side_of(&self.map, self.out)
    }

    #[inline]
    fn in_side(&self) -> Side<'_, u32> {
        side_of(&self.map, self.inn)
    }

    #[inline]
    fn key_of(&self, label: Sym) -> Option<u32> {
        self.syms.get(label)
    }

    #[inline]
    fn sym_of(&self, key: u32) -> Sym {
        self.syms.sym(key)
    }

    #[inline]
    fn row_label(&self, row: usize) -> Sym {
        self.syms.sym(self.arr(self.node_labels)[row])
    }

    #[inline]
    fn row_attr(&self, row: usize, name: Sym) -> Option<Value> {
        let fid = self.syms.get(name)?;
        self.attr_entries(row)
            .take_while(|&(at, _)| at <= fid)
            .find(|&(at, _)| at == fid)
            .map(|(_, value)| value.into())
    }

    fn row_attrs(&self, row: usize) -> AttrMap {
        let mut attrs = AttrMap::new();
        for (fid, value) in self.attr_entries(row) {
            attrs.set(self.syms.sym(fid), value.into());
        }
        attrs
    }

    #[inline]
    fn counts(&self) -> (usize, usize) {
        (self.node_count, self.edge_count)
    }

    fn label_partition(&self) -> (&LabelRanges, &[NodeId]) {
        (&self.label_ranges, as_node_ids(self.arr(self.label_order)))
    }

    fn triple_index(&self) -> (&TripleRanges, &[NodeId], &[NodeId]) {
        (
            &self.triple_ranges,
            as_node_ids(self.arr(self.triple_src)),
            as_node_ids(self.arr(self.triple_dst)),
        )
    }
}
