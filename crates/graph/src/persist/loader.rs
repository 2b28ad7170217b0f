//! Loading: the frozen storage [`MmapSnapshot`].
//!
//! This module holds no reader of its own: it validates a snapshot's
//! bytes — a mapped `.ngds` file, or the bytes [`crate::Graph::freeze`]
//! laid out in memory — and keeps their arrays for the crate's one CSR
//! reader (the `GraphView` impl in [`crate::csr`]).
//!
//! A snapshot keeps its bytes ([`MmapFile`]) and serves every array read —
//! CSR offsets, labels, neighbours, label partition, triple arrays —
//! directly from them by reinterpreting validated byte ranges as
//! `&[u32]` / `&[NodeId]` slices.  Only the variable-length payloads that
//! cannot be viewed in place are materialised at load time: the string
//! table (bridged into the process interner) and the small range
//! dictionaries.  Per-node attribute records are validated and indexed at
//! load and decoded from the bytes on every read.
//!
//! **Safety discipline.**  The `unsafe` in this module is of two kinds.
//! The slice reinterpretation is sound because `decode` validates, before
//! any slice is kept, that every section lies inside the bytes, is
//! aligned, has a consistent element count, and satisfies the structural
//! invariants the readers rely on (monotone offsets, in-bounds neighbour
//! ids and symbol ids, sorted runs, permutation label order).  Corrupt
//! input therefore fails with a typed [`PersistError`] at load — never
//! with UB, a panic, or a silently wrong answer at read time.  And each
//! validated slice is resolved **once**, into a field beside the
//! `Arc<MmapFile>` it borrows from, so a read pays no re-slicing; that
//! self-reference has its own precondition at the one place it is built
//! (`decode`), and every accessor re-borrows it for `&self` only.
//!
//! **Symbol spaces.**  File symbol ids are lexicographic by string and
//! process [`Sym`]s are interning-ordered, so the two orders differ; the
//! loader never rewrites the arrays.  Instead the file symbol id is the
//! run key: each query symbol is translated into file space (one load
//! from a dense `Sym → file id` table), the binary search runs over the
//! file-ordered run, and results translate back through a dense
//! `file id → Sym` table.  A symbol the file never saw has no run key and
//! simply yields an empty run.

use super::format::{
    file_checksum, file_kind, kind, read_section_table, AttrEntries, AttrFault, BlobReader,
    FileHeader, RawValue, SectionEntry, SymTable, HEADER_LEN, SECTION_ALIGN,
};
use super::mmap::MmapFile;
use super::PersistError;
use crate::csr::{LabelRanges, Side, TripleRanges};
use crate::graph::{Dir, NodeId};
use crate::hash::IdMap;
use crate::interner::{intern, Sym};
use std::collections::HashMap;
use std::hash::Hash;
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;

/// Why reading an attribute record cannot fail.
pub(crate) const VALIDATED: &str = "attribute record validated at load";

/// Reinterpret a `u32` slice as node ids (`NodeId` is
/// `repr(transparent)` over `u32`).
#[inline]
fn as_node_ids(xs: &[u32]) -> &[NodeId] {
    // SAFETY: `NodeId` is `#[repr(transparent)]` over `u32` (a documented
    // contract of the type), so size, alignment and validity coincide;
    // pointer, length and lifetime are those of `xs`.
    unsafe { std::slice::from_raw_parts(xs.as_ptr().cast::<NodeId>(), xs.len()) }
}

/// A parsed, checksum-verified snapshot file: bytes + header + section
/// directory, keyed for random access.
struct FileData {
    map: Arc<MmapFile>,
    header: FileHeader,
    sections: HashMap<(u32, u32), SectionEntry>,
}

impl FileData {
    fn parse(map: MmapFile) -> Result<FileData, PersistError> {
        if cfg!(target_endian = "big") {
            return Err(PersistError::UnsupportedHost(
                "snapshot files are little-endian and this host is big-endian".into(),
            ));
        }
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
        let mut sections = HashMap::new();
        for entry in read_section_table(bytes, &header)? {
            if sections.insert((entry.kind, entry.owner), entry).is_some() {
                return Err(PersistError::Corrupt(format!(
                    "duplicate section kind {} for owner {}",
                    entry.kind, entry.owner
                )));
            }
        }
        if header.file_kind != file_kind::SNAPSHOT {
            return Err(PersistError::WrongKind {
                expected: file_kind::SNAPSHOT,
                found: header.file_kind,
            });
        }
        Ok(FileData {
            map: Arc::new(map),
            header,
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

    /// The payload bytes of a section, bounds-checked against the file.
    fn payload(&self, kind: u32) -> Result<(SectionEntry, &[u8]), PersistError> {
        let entry = self.entry(kind)?;
        let end = entry.offset.checked_add(entry.byte_len);
        match end.and_then(|end| self.map.bytes().get(entry.offset as usize..end as usize)) {
            Some(bytes) => Ok((entry, bytes)),
            None => Err(PersistError::Corrupt(format!(
                "section kind {kind} ends past the file ({} bytes)",
                self.header.total_len
            ))),
        }
    }

    /// A `u32`-array section (byte length must match the element count).
    fn u32s(&self, kind: u32) -> Result<&[u32], PersistError> {
        let (entry, bytes) = self.payload(kind)?;
        // Checked multiply: a crafted elem_count near u64::MAX must fail
        // typed here, not wrap and defeat the length check (the slice it
        // would describe is the module's UB contract on the line).
        if entry.elem_count.checked_mul(4) != Some(entry.byte_len) {
            return Err(PersistError::Corrupt(format!(
                "section kind {kind}: {} bytes for {} u32 elements",
                entry.byte_len, entry.elem_count
            )));
        }
        debug_assert_eq!(bytes.as_ptr() as usize % 4, 0);
        // SAFETY: `bytes` is in bounds (`payload` sliced it) and holds
        // exactly `elem_count * 4` bytes (checked multiply above).  Its
        // offset passed `read_section_table`, so it is a multiple of
        // `SECTION_ALIGN` (`MisalignedSection` otherwise), and the base is
        // page-aligned (mmap) or 8-aligned (`OwnedBytes`), so the pointer
        // is 4-aligned; every bit pattern is a valid `u32`; the bytes are
        // never written and the borrow is tied to `self`.
        Ok(unsafe {
            std::slice::from_raw_parts(bytes.as_ptr().cast::<u32>(), entry.elem_count as usize)
        })
    }

    /// A blob section: raw bytes + declared element count.
    ///
    /// The element count is capped by the blob's byte length (each record
    /// of every blob kind occupies at least one byte), so decoders can use
    /// it for `with_capacity` without a crafted count forcing a huge
    /// allocation before the bounds-checked parse would catch it.
    fn blob(&self, kind: u32) -> Result<(&[u8], usize), PersistError> {
        let (entry, bytes) = self.payload(kind)?;
        if entry.elem_count > entry.byte_len {
            return Err(PersistError::Corrupt(format!(
                "section kind {kind}: {} records in {} bytes",
                entry.elem_count, entry.byte_len
            )));
        }
        Ok((bytes, entry.elem_count as usize))
    }

    /// The three arrays of the CSR side read in direction `dir`.
    fn side(&self, dir: Dir) -> Result<Side<'_>, PersistError> {
        let [offsets, keys, neighbors] = match dir {
            Dir::Out => [kind::OUT_OFFSETS, kind::OUT_LABELS, kind::OUT_NEIGHBORS],
            Dir::In => [kind::IN_OFFSETS, kind::IN_LABELS, kind::IN_NEIGHBORS],
        };
        Ok(Side {
            offsets: self.u32s(offsets)?,
            keys: self.u32s(keys)?,
            neighbors: as_node_ids(self.u32s(neighbors)?),
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

/// The record index of the attribute blob: nothing is decoded ahead of a
/// read and nothing decoded is kept.
///
/// The load-time pass *validates* every record — name ids in range and
/// strictly increasing in file-symbol order, known value tags, UTF-8
/// strings, exact blob consumption — and keeps only the record
/// boundaries.  A read decodes straight from the bytes
/// ([`MmapSnapshot::attr_entries`]): `attr` walks one record up to the
/// name and copies the value out, `attrs_of` builds an owned tuple.  So a
/// cold read allocates nothing for an `Int`/`Bool` value, and dropping
/// the snapshot frees the same blocks however many nodes were read.
#[derive(Debug)]
struct AttrIndex<'a> {
    blob: &'a [u8],
    /// Where each row's record starts within the blob.
    starts: Vec<u32>,
}

impl AttrIndex<'_> {
    /// Validate the node-attribute blob section and index its records.
    fn load<'f>(
        file: &'f FileData,
        count: usize,
        syms: &SymTable,
    ) -> Result<AttrIndex<'f>, PersistError> {
        let what = "node attributes";
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
        let mut starts = Vec::with_capacity(count);
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
        if !rest.is_empty() {
            return Err(PersistError::Corrupt(format!(
                "{what}: {} trailing bytes after the last record",
                rest.len()
            )));
        }
        Ok(AttrIndex { blob, starts })
    }
}

/// Validate one CSR side's invariants and return its entry count.
fn validate_side(
    side: Side<'_>,
    rows: usize,
    sym_count: u32,
    what: &'static str,
) -> Result<usize, PersistError> {
    let Side {
        offsets,
        keys: labels,
        neighbors,
    } = side;
    if offsets.len() != rows + 1 || offsets.first() != Some(&0) {
        return Err(PersistError::Corrupt(format!(
            "{what}: offsets array has {} entries for {rows} rows",
            offsets.len()
        )));
    }
    let entries = *offsets.last().expect("non-empty offsets") as usize;
    if labels.len() != entries || neighbors.len() != entries {
        return Err(PersistError::Corrupt(format!(
            "{what}: {} labels / {} neighbours for {entries} entries",
            labels.len(),
            neighbors.len()
        )));
    }
    // Neighbour bound: one whole-array pass (vectorises).
    if let Some(&bad) = neighbors.iter().find(|&&n| n.index() >= rows) {
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
            let key = (u64::from(labels[i]) << 32) | u64::from(neighbors[i].0);
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

/// Decode a range dictionary: `declared` entries of `K` key words (file
/// symbol ids) and a `start, end` window, keys strictly increasing and
/// windows **exactly tiling** `0..len` in key order.  `check` vets each
/// entry against the array its window indexes, and `key` makes the
/// dictionary key of its process symbols.
fn decode_ranges<const K: usize, T: Eq + Hash>(
    blob: &[u8],
    declared: usize,
    len: usize,
    what: &'static str,
    syms: &SymTable,
    mut check: impl FnMut([u32; K], Range<usize>) -> Result<(), PersistError>,
    key: impl Fn([Sym; K]) -> T,
) -> Result<IdMap<T, (u32, u32)>, PersistError> {
    let mut reader = BlobReader::new(blob, what);
    let mut out = IdMap::with_capacity_and_hasher(declared, Default::default());
    let mut previous: Option<[u32; K]> = None;
    let mut cursor = 0u32;
    for _ in 0..declared {
        let mut fids = [0u32; K];
        for word in &mut fids {
            *word = reader.u32()?;
        }
        let (start, end) = (reader.u32()?, reader.u32()?);
        if previous >= Some(fids) {
            return Err(PersistError::Corrupt(format!(
                "{what} are not sorted by key"
            )));
        }
        previous = Some(fids);
        if start != cursor || start > end || end as usize > len {
            return Err(PersistError::Corrupt(format!(
                "{what}: range {start}..{end} does not tile the array it indexes \
                 (expected start {cursor}, array length {len})"
            )));
        }
        cursor = end;
        check(fids, start as usize..end as usize)?;
        let mut key_syms = [Sym(0); K];
        for (sym, fid) in key_syms.iter_mut().zip(fids) {
            *sym = syms.sym_checked(fid)?;
        }
        out.insert(key(key_syms), (start, end));
    }
    if cursor as usize != len {
        return Err(PersistError::Corrupt(format!(
            "{what} cover {cursor} of {len} entries"
        )));
    }
    reader.finish()?;
    Ok(out)
}

/// Decode the label-partition dictionary and cross-check it against the
/// node labels: every node inside a range must carry that range's label.
/// A repointed, swapped or overlapping range is therefore a typed error at
/// load, never a silently wrong candidate set.
fn decode_label_ranges(
    blob: &[u8],
    declared: usize,
    node_labels: &[u32],
    label_order: &[NodeId],
    syms: &SymTable,
) -> Result<LabelRanges, PersistError> {
    let check = |[fid]: [u32; 1], window: Range<usize>| match label_order[window]
        .iter()
        .find(|n| node_labels[n.index()] != fid)
    {
        Some(node) => Err(PersistError::Corrupt(format!(
            "label range of symbol {fid} lists node {node} whose label is {}",
            node_labels[node.index()]
        ))),
        None => Ok(()),
    };
    let len = label_order.len();
    decode_ranges(blob, declared, len, "label ranges", syms, check, |[l]| l)
}

/// Decode the triple-index dictionary and cross-check it against the node
/// labels and the out-CSR.  The ranges must hold as many entries as the
/// graph has edges; inside a range, entries must be strictly
/// `(src, dst)`-sorted with both endpoints labelled as the key says, and
/// the first and last entry of every range are probed against the out-CSR
/// to confirm the edge exists under the key's edge label.  (Entries
/// between the probes are verified for endpoint labels and ordering, not
/// re-derived edge-by-edge — a file forging those is indistinguishable
/// from one validly encoding a different graph.)
fn decode_triple_ranges(
    blob: &[u8],
    declared: usize,
    node_labels: &[u32],
    (triple_src, triple_dst): (&[NodeId], &[NodeId]),
    out_side: Side<'_>,
    syms: &SymTable,
) -> Result<TripleRanges, PersistError> {
    let edge_count = out_side.keys.len();
    if triple_src.len() != edge_count {
        return Err(PersistError::Corrupt(format!(
            "triple arrays hold {} entries for {edge_count} edges",
            triple_src.len()
        )));
    }
    let check = |key: [u32; 3], window: Range<usize>| {
        let corrupt = |why: String| PersistError::Corrupt(format!("triple range {key:?} {why}"));
        if window.is_empty() {
            return Ok(());
        }
        let mut previous = None;
        for i in window.clone() {
            let (src, dst) = (triple_src[i], triple_dst[i]);
            if node_labels[src.index()] != key[0] || node_labels[dst.index()] != key[2] {
                let why = format!("lists edge {src}->{dst} with other endpoint labels");
                return Err(corrupt(why));
            }
            if previous >= Some((src, dst)) {
                return Err(corrupt("is not strictly (src, dst)-sorted".into()));
            }
            previous = Some((src, dst));
        }
        for i in [window.start, window.end - 1] {
            let (src, dst) = (triple_src[i], triple_dst[i]);
            if !out_side.contains(src.index(), key[1], dst) {
                return Err(corrupt(format!(
                    "lists edge {src}->{dst} absent from the CSR"
                )));
            }
        }
        Ok(())
    };
    let key = |[s, l, d]: [Sym; 3]| (s, l, d);
    decode_ranges(
        blob,
        declared,
        edge_count,
        "triple ranges",
        syms,
        check,
        key,
    )
}

/// The frozen, label-partitioned CSR snapshot: a read-only
/// [`GraphView`](crate::GraphView) over the `.ngds` bytes of a graph.
///
/// [`Graph::freeze`](crate::Graph::freeze) lays those bytes out in memory;
/// [`MmapSnapshot::load`] maps a file [`SnapshotWriter`] wrote.  Both go
/// through the same validation and serve the same reads, with identical
/// answers through every detector; a mapped snapshot's arrays stay on
/// disk and are paged in on demand.
///
/// [`SnapshotWriter`]: crate::persist::SnapshotWriter
pub struct MmapSnapshot {
    syms: SymTable,
    /// Per-row label ids (file symbol space).
    node_labels: &'static [u32],
    /// Attribute record boundaries; values are decoded on each read.
    attrs: AttrIndex<'static>,
    /// The out- and in-CSR, indexed by [`Dir`].
    sides: [Side<'static>; 2],
    label_order: &'static [NodeId],
    triple_src: &'static [NodeId],
    triple_dst: &'static [NodeId],
    label_ranges: LabelRanges,
    triple_ranges: TripleRanges,
    epoch: u64,
    /// The bytes every slice above borrows from; see the `SAFETY` comment
    /// in `decode`.  Last, because fields drop in declaration order and
    /// this one must drop after every slice borrowing from it.
    map: Arc<MmapFile>,
}

impl std::fmt::Debug for MmapSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MmapSnapshot")
            .field("nodes", &self.node_labels.len())
            .field("edges", &self.side(Dir::Out).keys.len())
            .field("epoch", &self.epoch)
            .field("bytes", &self.map.len())
            .finish()
    }
}

impl MmapSnapshot {
    /// Memory-map a snapshot file written by
    /// [`SnapshotWriter::write`](crate::persist::SnapshotWriter::write).
    pub fn load(path: &Path) -> Result<MmapSnapshot, PersistError> {
        let _span = ngd_obs::span!("persist.mmap_load");
        MmapSnapshot::from_bytes(MmapFile::open(path)?)
    }

    /// Validate `bytes` as a snapshot and keep them.
    pub(crate) fn from_bytes(bytes: MmapFile) -> Result<MmapSnapshot, PersistError> {
        decode(&FileData::parse(bytes)?)
    }

    /// Size of the snapshot's bytes (of the backing file, when mapped).
    pub fn file_len(&self) -> usize {
        self.map.len()
    }

    /// The snapshot epoch recorded in the file header: 0 for a freshly
    /// frozen graph (and for every version-1 file), incremented by each
    /// compaction ([`crate::persist::CompactionWriter`]).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    // Array accessors for the reader (`crate::csr`) and the compaction
    // writer ([`crate::persist::CompactionWriter`]), which merge-joins
    // these file-ordered arrays with a net `ΔG` without re-freezing.  All
    // crate private and all bounded by `&self`: the file layout stays an
    // implementation detail, and no `'static` slice leaves this type.

    /// The snapshot's exact file bytes.
    pub(crate) fn file_bytes(&self) -> &[u8] {
        self.map.bytes()
    }

    /// The file's symbol table (file ids in lexicographic string order).
    #[inline]
    pub(crate) fn sym_table(&self) -> &SymTable {
        &self.syms
    }

    /// Per-node labels as file symbol ids.
    #[inline]
    pub(crate) fn node_labels(&self) -> &[u32] {
        self.node_labels
    }

    /// The CSR side read in direction `dir`, runs keyed by file symbol id.
    #[inline]
    pub(crate) fn side(&self, dir: Dir) -> Side<'_> {
        self.sides[dir as usize]
    }

    /// The label ranges and the node permutation they index.
    #[inline]
    pub(crate) fn label_partition(&self) -> (&LabelRanges, &[NodeId]) {
        (&self.label_ranges, self.label_order)
    }

    /// The triple ranges and the `(src, dst)` arrays they index, each
    /// group sorted by `(src, dst)`.
    #[inline]
    pub(crate) fn triple_index(&self) -> (&TripleRanges, &[NodeId], &[NodeId]) {
        (&self.triple_ranges, self.triple_src, self.triple_dst)
    }

    /// The attribute blob from node `idx`'s record on (validated at load;
    /// the record's own count says where it ends).
    #[inline]
    pub(crate) fn raw_attr_record(&self, idx: usize) -> &[u8] {
        &self.attrs.blob[self.attrs.starts[idx] as usize..]
    }

    /// The `(name file id, value)` entries of node `idx`'s attribute
    /// record, names strictly increasing, decoded in place.
    #[inline]
    pub(crate) fn attr_entries(&self, idx: usize) -> impl Iterator<Item = (u32, RawValue<'_>)> {
        AttrEntries::new(self.raw_attr_record(idx))
            .expect(VALIDATED)
            .map(|entry| entry.expect(VALIDATED))
    }
}

/// Detach a borrow of a [`FileData`]'s bytes from the borrow of the
/// `FileData`.
///
/// # Safety
///
/// `slice` must point into the bytes of an `Arc<MmapFile>`, and the result
/// must be stored only in a value that holds a clone of that `Arc` for as
/// long as it holds the result (declared after every field holding such a
/// result, so it also drops after them), and that hands it out only
/// re-borrowed for its own lifetime.
unsafe fn detach<T>(slice: &[T]) -> &'static [T] {
    // SAFETY: forwarded to the caller; pointer and length are `slice`'s.
    unsafe { std::slice::from_raw_parts(slice.as_ptr(), slice.len()) }
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

    let node_labels = file.u32s(kind::NODE_LABELS)?;
    if node_labels.len() != n {
        return Err(PersistError::Corrupt(format!(
            "{} node labels for {n} nodes",
            node_labels.len()
        )));
    }
    if let Some(&label) = node_labels.iter().find(|&&label| label >= sym_count) {
        return Err(PersistError::Corrupt(format!(
            "node label id {label} out of range"
        )));
    }

    let attrs = AttrIndex::load(file, n, &syms)?;

    let mut sides = [Side::default(); 2];
    for dir in Dir::BOTH {
        let what = match dir {
            Dir::Out => "out CSR",
            Dir::In => "in CSR",
        };
        let side = file.side(dir)?;
        let entries = validate_side(side, n, sym_count, what)?;
        if entries != edge_count {
            return Err(PersistError::Corrupt(format!(
                "{what} holds {entries} entries but the header claims {edge_count} edges"
            )));
        }
        sides[dir as usize] = side;
    }

    let label_order = as_node_ids(file.u32s(kind::LABEL_ORDER)?);
    if label_order.len() != n {
        return Err(PersistError::Corrupt(format!(
            "label order has {} entries for {n} nodes",
            label_order.len()
        )));
    }
    let mut seen = vec![false; n];
    for &id in label_order {
        if id.index() >= n || std::mem::replace(&mut seen[id.index()], true) {
            return Err(PersistError::Corrupt(
                "label order is not a permutation of the node ids".into(),
            ));
        }
    }
    let (blob, declared) = file.blob(kind::LABEL_RANGES)?;
    let label_ranges = decode_label_ranges(blob, declared, node_labels, label_order, &syms)?;

    let triple_src = as_node_ids(file.u32s(kind::TRIPLE_SRC)?);
    let triple_dst = as_node_ids(file.u32s(kind::TRIPLE_DST)?);
    if triple_src.len() != triple_dst.len() {
        return Err(PersistError::Corrupt(format!(
            "triple arrays disagree: {} sources, {} destinations",
            triple_src.len(),
            triple_dst.len()
        )));
    }
    for &id in triple_src.iter().chain(triple_dst) {
        if id.index() >= n {
            return Err(PersistError::Corrupt(format!(
                "triple endpoint {id} out of range"
            )));
        }
    }
    let (blob, declared) = file.blob(kind::TRIPLE_RANGES)?;
    let triple_ranges = decode_triple_ranges(
        blob,
        declared,
        node_labels,
        (triple_src, triple_dst),
        sides[Dir::Out as usize],
        &syms,
    )?;

    // SAFETY: `detach` is sound for every slice below.  Each was cut from
    // `file.map`'s bytes by `FileData::{u32s, blob}` and validated above.  The snapshot
    // holds a clone of that `Arc<MmapFile>` in `map` for its whole life,
    // and `map` is its last field, so it drops after every slice.  The
    // bytes never move or change while an `MmapFile` lives (its docs: a
    // mapping is never remapped, an owned buffer never reallocated), so
    // the slices stay valid for as long as the snapshot exists.  They are
    // private fields, handed out only through accessors that re-borrow
    // them for `&self`, so none outlives the `Arc`.
    let (node_labels, attr_blob, sides, label_order, triple_src, triple_dst) = unsafe {
        let side = |side: Side<'_>| Side {
            offsets: detach(side.offsets),
            keys: detach(side.keys),
            neighbors: detach(side.neighbors),
        };
        (
            detach(node_labels),
            detach(attrs.blob),
            sides.map(side),
            detach(label_order),
            detach(triple_src),
            detach(triple_dst),
        )
    };
    Ok(MmapSnapshot {
        syms,
        node_labels,
        attrs: AttrIndex {
            blob: attr_blob,
            starts: attrs.starts,
        },
        sides,
        label_order,
        triple_src,
        triple_dst,
        label_ranges,
        triple_ranges,
        epoch: file.header.epoch,
        map: Arc::clone(&file.map),
    })
}
