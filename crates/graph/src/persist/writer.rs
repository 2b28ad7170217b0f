//! Producing snapshot bytes: [`Graph::freeze`] and [`SnapshotWriter`].
//!
//! Freezing *is* encoding: [`Graph::freeze`] lays the graph out as the
//! exact bytes of a `.ngds` file, in memory, and the snapshot it returns
//! reads them through the same loader a mapped file goes through.
//! [`SnapshotWriter`] then only re-stamps the header's epoch word and
//! writes the bytes out.
//!
//! Freeze's one non-obvious job is **canonicalisation**.  [`Sym`] ids are
//! process-local and interning-ordered, so an order taken from them would
//! be an accident of process history.  The file instead assigns symbol ids
//! **lexicographically by string**, and lays every symbol-ordered
//! structure out in that file order:
//!
//! * each CSR run is sorted by `(file symbol, neighbour)`,
//! * the label partition's groups are concatenated in file-symbol order
//!   (group contents keep their id order),
//! * the triple index's groups likewise (contents keep `(src, dst)` order),
//! * attribute tuples are emitted sorted by file symbol of the name.
//!
//! The payoff: **the bytes of a snapshot are a pure function of the
//! logical graph** — independent of interning history, hash-map iteration
//! and process — which is what lets the golden-format test pin them and
//! lets two processes produce identical, diffable snapshots.

use super::format::{
    align_up, file_checksum, file_kind, kind, BlobWriter, FileHeader, SectionEntry, SymTable,
    HEADER_LEN, SECTION_ALIGN, SECTION_ENTRY_LEN, VERSION,
};
use super::loader::MmapSnapshot;
use super::mmap::{MmapFile, OwnedBytes};
use super::PersistError;
use crate::attrs::AttrMap;
use crate::graph::{Graph, NodeId};
use crate::hash::IdMap;
use crate::interner::Sym;
use crate::value::Value;
use std::hash::Hash;
use std::io::Write;
use std::path::Path;

/// Writes snapshots as `.ngds` files (see [`crate::persist`] for the
/// layout).  A snapshot already *is* the file's bytes, so the writer only
/// stamps the header.
///
/// A freshly frozen graph is written as **epoch 0**; compaction
/// ([`crate::persist::CompactionWriter`]) stamps successors with higher
/// epochs.  [`SnapshotWriter::with_epoch`] exists so tooling (and the
/// compaction-equivalence tests) can write a re-frozen graph at an
/// arbitrary epoch: the epoch word is outside the checksummed bytes, so
/// the stamp changes nothing else.
#[derive(Debug, Clone, Copy, Default)]
pub struct SnapshotWriter {
    epoch: u64,
}

impl SnapshotWriter {
    /// A writer with default settings (epoch 0).
    pub fn new() -> Self {
        SnapshotWriter::default()
    }

    /// A writer stamping `epoch` into the header of everything it writes.
    pub fn with_epoch(epoch: u64) -> Self {
        SnapshotWriter { epoch }
    }

    /// The snapshot's exact file bytes, stamped with this writer's epoch.
    pub fn encode(&self, snapshot: &MmapSnapshot) -> Vec<u8> {
        let mut bytes = snapshot.file_bytes().to_vec();
        bytes[..HEADER_LEN].copy_from_slice(&self.header(snapshot));
        bytes
    }

    /// Write a snapshot to `path`, returning the number of bytes written.
    pub fn write(&self, snapshot: &MmapSnapshot, path: &Path) -> Result<u64, PersistError> {
        let bytes = snapshot.file_bytes();
        let io = |e: std::io::Error| PersistError::Io(format!("write {}: {e}", path.display()));
        let mut file = std::fs::File::create(path).map_err(io)?;
        file.write_all(&self.header(snapshot)).map_err(io)?;
        file.write_all(&bytes[HEADER_LEN..]).map_err(io)?;
        Ok(bytes.len() as u64)
    }

    /// The snapshot's header at this writer's epoch, in the current
    /// version (a version-1 file's payload is the same bytes).
    fn header(&self, snapshot: &MmapSnapshot) -> [u8; HEADER_LEN] {
        let header = FileHeader::parse(snapshot.file_bytes()).expect("validated at load");
        FileHeader {
            version: VERSION,
            epoch: self.epoch,
            ..header
        }
        .encode()
    }
}

impl Graph {
    /// Freeze the graph into an immutable, label-partitioned
    /// snapshot: the canonical `.ngds` bytes of the graph at epoch 0,
    /// laid out in memory and read through the same loader as a mapped
    /// file, with every validation it does.
    ///
    /// Node ids are preserved (the snapshot keeps the arena order), so
    /// matches, violations and reports computed over the snapshot are
    /// directly comparable with those computed over the adjacency-list
    /// representation.
    ///
    /// Linear passes, no global sort: the symbol table is built by marking
    /// and sorts only the distinct symbols; each side's offsets are the
    /// running sum of the adjacency-list lengths and its runs are sorted one
    /// at a time; the label partition and the triple index are counting
    /// sorts (`group_by_key`) in which only the distinct keys are sorted.
    ///
    /// # Panics
    ///
    /// On a big-endian host: the snapshot format is little-endian, and a
    /// frozen graph is read in place like a loaded file
    /// ([`crate::PersistError::UnsupportedHost`] there).
    pub fn freeze(&self) -> MmapSnapshot {
        let _span = ngd_obs::span!("persist.freeze");
        MmapSnapshot::from_bytes(MmapFile::owned(self.snapshot_bytes()))
            .unwrap_or_else(|e| panic!("a frozen graph is a valid snapshot: {e}"))
    }

    /// The canonical file bytes of the graph at epoch 0.
    fn snapshot_bytes(&self) -> OwnedBytes {
        let (n, m) = (self.node_count(), self.edge_count());
        let syms = self.string_table();
        let node_labels: Vec<u32> = self
            .node_ids()
            .map(|id| syms.file_id(self.label(id)))
            .collect();
        let out = self.side_arrays(&syms, |id| self.out_neighbors(id));
        let inn = self.side_arrays(&syms, |id| self.in_neighbors(id));

        // Label partition: a counting pass over the node labels; ids are
        // placed in id order, so each group is ascending.
        let (slots, label_groups) = group_by_key(node_labels.iter().copied(), n);
        let mut label_order = vec![0u32; n];
        for (id, &slot) in slots.iter().enumerate() {
            label_order[slot as usize] = id as u32;
        }
        let mut label_ranges = BlobWriter::new();
        for &(fid, start, end) in &label_groups {
            for word in [fid, start, end] {
                label_ranges.put_u32(word);
            }
        }

        // Triple index: a count-then-place pass over the out-runs.  Sources
        // are walked in id order and each run is sorted by
        // `(edge label, dst)`, so every group comes out `(src, dst)`-sorted.
        let [offsets, labels, neighbors] = &out;
        let out_edges = || {
            (0..n).flat_map(|row| {
                (offsets[row] as usize..offsets[row + 1] as usize).map(move |i| (row, i))
            })
        };
        let keys = out_edges().map(|(src, i)| {
            let dst = neighbors[i] as usize;
            (node_labels[src], labels[i], node_labels[dst])
        });
        let (slots, triple_groups) = group_by_key(keys, m);
        let mut triple_src = vec![0u32; m];
        let mut triple_dst = vec![0u32; m];
        for (src, i) in out_edges() {
            let slot = slots[i] as usize;
            triple_src[slot] = src as u32;
            triple_dst[slot] = neighbors[i];
        }
        let mut triple_ranges = BlobWriter::new();
        for &((s, l, d), start, end) in &triple_groups {
            for word in [s, l, d, start, end] {
                triple_ranges.put_u32(word);
            }
        }

        Sections {
            node_count: n,
            edge_count: m,
            node_labels,
            node_attrs: encode_attrs(self.node_ids().map(|id| self.attrs(id)), &syms),
            syms,
            out,
            inn,
            label_order,
            label_ranges: (label_groups.len() as u64, label_ranges.into_bytes()),
            triple_src,
            triple_dst,
            triple_ranges: (triple_groups.len() as u64, triple_ranges.into_bytes()),
        }
        .into_builder(0)
        .finish_aligned()
    }

    /// The file's string table: every symbol the graph references — node
    /// labels, attribute names, edge labels — with file ids assigned
    /// lexicographically by string.  The symbols are marked in a vector
    /// indexed by `Sym.0`, so only the distinct ones are sorted.
    fn string_table(&self) -> SymTable {
        let mut used: Vec<bool> = Vec::new();
        let mut mark = |sym: Sym| {
            let at = sym.0 as usize;
            if at >= used.len() {
                used.resize(at + 1, false);
            }
            used[at] = true;
        };
        for id in self.node_ids() {
            mark(self.label(id));
            for (name, _) in self.attrs(id).iter() {
                mark(name);
            }
            for &(_, label) in self.out_neighbors(id) {
                mark(label);
            }
        }
        let mut syms: Vec<Sym> = (0..used.len() as u32)
            .map(Sym)
            .filter(|sym| used[sym.0 as usize])
            .collect();
        syms.sort_unstable_by_key(|sym| sym.as_str());
        SymTable::new(syms)
    }

    /// One CSR side's `[offsets, labels, neighbours]` arrays, laid out
    /// from the graph's own adjacency lists: the offsets are the running
    /// sum of the list lengths, and each list becomes one run translated
    /// into file symbols and sorted by `(file symbol, neighbour)`, so the
    /// lists' entry order does not matter.
    fn side_arrays<'g>(
        &'g self,
        syms: &SymTable,
        list: impl Fn(NodeId) -> &'g [(NodeId, Sym)],
    ) -> [Vec<u32>; 3] {
        let (n, m) = (self.node_count(), self.edge_count());
        let mut offsets = Vec::with_capacity(n + 1);
        let mut entries: Vec<(u32, u32)> = Vec::with_capacity(m);
        offsets.push(0);
        for id in self.node_ids() {
            let start = entries.len();
            entries.extend(
                list(id)
                    .iter()
                    .map(|&(neighbor, label)| (syms.file_id(label), neighbor.0)),
            );
            entries[start..].sort_unstable();
            offsets.push(entries.len() as u32);
        }
        let (labels, neighbors) = entries.into_iter().unzip();
        [offsets, labels, neighbors]
    }
}

/// A counting sort by key: the slot of each of the `len` items once they
/// are grouped by key (groups in key order, items in input order within
/// a group), and each key's slot range, in key order.  One hash lookup per
/// item; only the distinct keys are sorted.
fn group_by_key<K: Copy + Ord + Hash>(
    keys: impl Iterator<Item = K>,
    len: usize,
) -> (Vec<u32>, Vec<(K, u32, u32)>) {
    let mut group_of: IdMap<K, u32> = IdMap::default();
    let mut distinct: Vec<K> = Vec::new();
    let mut counts: Vec<u32> = Vec::new();
    let mut slots: Vec<u32> = Vec::with_capacity(len);
    for key in keys {
        let group = *group_of.entry(key).or_insert_with(|| {
            distinct.push(key);
            counts.push(0);
            (distinct.len() - 1) as u32
        });
        counts[group as usize] += 1;
        slots.push(group);
    }
    let mut order: Vec<usize> = (0..distinct.len()).collect();
    order.sort_unstable_by_key(|&group| distinct[group]);
    let mut next = vec![0u32; distinct.len()];
    let mut ranges = Vec::with_capacity(distinct.len());
    let mut at = 0u32;
    for group in order {
        next[group] = at;
        ranges.push((distinct[group], at, at + counts[group]));
        at += counts[group];
    }
    for slot in &mut slots {
        let group = *slot as usize;
        *slot = next[group];
        next[group] += 1;
    }
    (slots, ranges)
}

/// Accumulates sections, then lays out header + table + aligned payloads.
pub(crate) struct FileBuilder {
    node_count: u64,
    edge_count: u64,
    epoch: u64,
    sections: Vec<(SectionEntry, Payload)>,
}

/// A section's payload, held in its own type until the builder lays it
/// out: a `u32` array is encoded straight into the file bytes, never into
/// a byte buffer of its own first.
enum Payload {
    Bytes(Vec<u8>),
    U32s(Vec<u32>),
}

impl FileBuilder {
    pub(crate) fn new(node_count: u64, edge_count: u64, epoch: u64) -> FileBuilder {
        FileBuilder {
            node_count,
            edge_count,
            epoch,
            sections: Vec::new(),
        }
    }

    pub(crate) fn add_u32s(&mut self, kind: u32, data: Vec<u32>) {
        let (elem_count, byte_len) = (data.len() as u64, data.len() as u64 * 4);
        self.push(kind, elem_count, byte_len, Payload::U32s(data));
    }

    pub(crate) fn add_blob(&mut self, kind: u32, elem_count: u64, bytes: Vec<u8>) {
        let byte_len = bytes.len() as u64;
        self.push(kind, elem_count, byte_len, Payload::Bytes(bytes));
    }

    fn push(&mut self, kind: u32, elem_count: u64, byte_len: u64, payload: Payload) {
        self.sections.push((
            SectionEntry {
                kind,
                owner: 0,
                offset: 0, // assigned in lay_out()
                byte_len,
                elem_count,
            },
            payload,
        ));
    }

    /// The file's bytes.
    pub(crate) fn finish(mut self) -> Vec<u8> {
        let mut out = vec![0u8; self.lay_out()];
        self.fill(&mut out);
        out
    }

    /// The file's bytes in a `u64`-aligned buffer, ready to be read in
    /// place.
    fn finish_aligned(mut self) -> OwnedBytes {
        let mut out = OwnedBytes::zeroed(self.lay_out());
        self.fill(out.bytes_mut());
        out
    }

    /// Assign each section its offset; returns the total file length.
    fn lay_out(&mut self) -> usize {
        let table_end = HEADER_LEN + self.sections.len() * SECTION_ENTRY_LEN;
        let mut offset = align_up(table_end);
        for (entry, _) in &mut self.sections {
            entry.offset = offset as u64;
            offset = align_up(offset + entry.byte_len as usize);
        }
        offset
    }

    /// Write header, table and payloads into the zeroed `out`.
    fn fill(self, out: &mut [u8]) {
        for (idx, (entry, _)) in self.sections.iter().enumerate() {
            let at = HEADER_LEN + idx * SECTION_ENTRY_LEN;
            out[at..at + SECTION_ENTRY_LEN].copy_from_slice(&entry.encode());
        }
        for (entry, payload) in &self.sections {
            let dst = &mut out[entry.offset as usize..][..entry.byte_len as usize];
            match payload {
                Payload::Bytes(bytes) => dst.copy_from_slice(bytes),
                Payload::U32s(values) => {
                    for (slot, value) in dst.chunks_exact_mut(4).zip(values) {
                        slot.copy_from_slice(&value.to_le_bytes());
                    }
                }
            }
        }
        let header = FileHeader {
            version: VERSION,
            file_kind: file_kind::SNAPSHOT,
            section_count: self.sections.len() as u32,
            section_align: SECTION_ALIGN as u32,
            total_len: out.len() as u64,
            checksum: file_checksum(&out[HEADER_LEN..]),
            node_count: self.node_count,
            edge_count: self.edge_count,
            epoch: self.epoch,
        };
        out[..HEADER_LEN].copy_from_slice(&header.encode());
    }
}

/// Every section of a snapshot file, as the freeze lays them out and as
/// compaction merges them.
pub(crate) struct Sections {
    pub(crate) node_count: usize,
    pub(crate) edge_count: usize,
    pub(crate) syms: SymTable,
    pub(crate) node_labels: Vec<u32>,
    pub(crate) node_attrs: Vec<u8>,
    /// `[offsets, labels, neighbours]` of the out-CSR.
    pub(crate) out: [Vec<u32>; 3],
    /// `[offsets, labels, neighbours]` of the in-CSR.
    pub(crate) inn: [Vec<u32>; 3],
    pub(crate) label_order: Vec<u32>,
    /// `(entry count, blob)`.
    pub(crate) label_ranges: (u64, Vec<u8>),
    pub(crate) triple_src: Vec<u32>,
    pub(crate) triple_dst: Vec<u32>,
    /// `(entry count, blob)`.
    pub(crate) triple_ranges: (u64, Vec<u8>),
}

impl Sections {
    /// The sections in the file's one canonical order, stamped `epoch`.
    pub(crate) fn into_builder(self, epoch: u64) -> FileBuilder {
        let mut builder = FileBuilder::new(self.node_count as u64, self.edge_count as u64, epoch);
        let mut strings = BlobWriter::new();
        strings.put_u32(self.syms.len() as u32);
        for sym in self.syms.syms() {
            let text = sym.as_str();
            strings.put_u32(text.len() as u32);
            strings.put_bytes(text.as_bytes());
        }
        builder.add_blob(kind::STRINGS, self.syms.len() as u64, strings.into_bytes());
        builder.add_u32s(kind::NODE_LABELS, self.node_labels);
        builder.add_blob(kind::NODE_ATTRS, self.node_count as u64, self.node_attrs);
        let sides = [
            kind::OUT_OFFSETS,
            kind::OUT_LABELS,
            kind::OUT_NEIGHBORS,
            kind::IN_OFFSETS,
            kind::IN_LABELS,
            kind::IN_NEIGHBORS,
        ];
        for (kind, array) in sides.into_iter().zip(self.out.into_iter().chain(self.inn)) {
            builder.add_u32s(kind, array);
        }
        builder.add_u32s(kind::LABEL_ORDER, self.label_order);
        let (count, blob) = self.label_ranges;
        builder.add_blob(kind::LABEL_RANGES, count, blob);
        builder.add_u32s(kind::TRIPLE_SRC, self.triple_src);
        builder.add_u32s(kind::TRIPLE_DST, self.triple_dst);
        let (count, blob) = self.triple_ranges;
        builder.add_blob(kind::TRIPLE_RANGES, count, blob);
        builder
    }
}

/// Per-node attribute tuples, names in file-symbol order.
pub(crate) fn encode_attrs<'a>(
    tuples: impl Iterator<Item = &'a AttrMap>,
    syms: &SymTable,
) -> Vec<u8> {
    let mut blob = BlobWriter::new();
    let mut entries: Vec<(u32, &Value)> = Vec::new();
    for attrs in tuples {
        entries.clear();
        entries.extend(
            attrs
                .iter()
                .map(|(name, value)| (syms.file_id(name), value)),
        );
        entries.sort_unstable_by_key(|&(fid, _)| fid);
        blob.put_u32(entries.len() as u32);
        for &(fid, value) in &entries {
            blob.put_u32(fid);
            match value {
                Value::Int(i) => {
                    blob.put_u8(0);
                    blob.put_i64(*i);
                }
                Value::Str(s) => {
                    blob.put_u8(1);
                    blob.put_u32(s.len() as u32);
                    blob.put_bytes(s.as_bytes());
                }
                Value::Bool(b) => {
                    blob.put_u8(2);
                    blob.put_u8(u8::from(*b));
                }
            }
        }
    }
    blob.into_bytes()
}
