//! [`SnapshotWriter`] — serialise frozen snapshots into the on-disk format.
//!
//! The writer's one non-obvious job is **canonicalisation**.  In memory,
//! label order is interning order ([`Sym`] ids are process-local), so the
//! label-sorted CSR runs, the label partition and the triple index are all
//! ordered by an accident of process history.  The file instead assigns
//! symbol ids **lexicographically by string**, and re-sorts every
//! symbol-ordered structure into that file order:
//!
//! * each CSR run is re-sorted by `(file symbol, neighbour)`,
//! * the label partition's groups are concatenated in file-symbol order
//!   (group contents keep their id order),
//! * the triple index's groups likewise (contents keep `(src, dst)` order),
//! * attribute tuples are emitted sorted by file symbol of the name.
//!
//! The payoff: **the bytes of a snapshot file are a pure function of the
//! logical graph** — independent of interning history, hash-map iteration
//! and process — which is what lets the golden-format test pin them and
//! lets two processes produce identical, diffable snapshots.

use super::format::{
    align_up, file_checksum, file_kind, kind, BlobWriter, FileHeader, SectionEntry, HEADER_LEN,
    SECTION_ALIGN, SECTION_ENTRY_LEN,
};
use super::PersistError;
use crate::csr::{CsrSnapshot, CsrStore, Side};
use crate::graph::NodeData;
use crate::interner::Sym;
use crate::value::Value;
use crate::view::GraphView;
use std::collections::HashMap;
use std::path::Path;

/// Serialises [`CsrSnapshot`]s into the versioned binary snapshot format
/// (see [`crate::persist`] for the layout).
///
/// A freshly frozen graph is written as **epoch 0**; compaction
/// ([`crate::persist::CompactionWriter`]) stamps successors with higher
/// epochs.  [`SnapshotWriter::with_epoch`] exists so tooling (and the
/// compaction-equivalence tests) can write a re-frozen graph at an
/// arbitrary epoch.
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

    /// Encode a snapshot into its exact file bytes.
    pub fn encode(&self, snapshot: &CsrSnapshot) -> Vec<u8> {
        let syms = SymTable::for_snapshot(snapshot);
        let mut builder = FileBuilder::new(
            GraphView::node_count(snapshot) as u64,
            GraphView::edge_count(snapshot) as u64,
            self.epoch,
        );
        push_strings(&mut builder, &syms);
        push_snapshot_sections(&mut builder, snapshot, &syms);
        builder.finish()
    }

    /// Write a snapshot to `path`, returning the number of bytes written.
    pub fn write(&self, snapshot: &CsrSnapshot, path: &Path) -> Result<u64, PersistError> {
        let bytes = self.encode(snapshot);
        std::fs::write(path, &bytes)
            .map_err(|e| PersistError::Io(format!("write {}: {e}", path.display())))?;
        Ok(bytes.len() as u64)
    }
}

/// The file's string table: every symbol the snapshot references, with
/// file-local ids assigned lexicographically by string.
pub(crate) struct SymTable {
    strings: Vec<&'static str>,
    to_file: HashMap<Sym, u32>,
}

impl SymTable {
    /// Assemble a table from an already-merged string list (sorted,
    /// deduplicated) and its `Sym → file id` map — the constructor the
    /// compaction writer uses after merging an existing file's table with
    /// a delta's new symbols.
    pub(crate) fn from_parts(strings: Vec<&'static str>, to_file: HashMap<Sym, u32>) -> SymTable {
        debug_assert!(strings.windows(2).all(|w| w[0] < w[1]));
        SymTable { strings, to_file }
    }

    fn build(mut used: Vec<Sym>) -> SymTable {
        used.sort_unstable();
        used.dedup();
        let mut pairs: Vec<(&'static str, Sym)> = used.iter().map(|&s| (s.as_str(), s)).collect();
        pairs.sort_unstable_by_key(|&(text, _)| text);
        let mut to_file = HashMap::with_capacity(pairs.len());
        let mut strings = Vec::with_capacity(pairs.len());
        for (fid, (text, sym)) in pairs.into_iter().enumerate() {
            strings.push(text);
            to_file.insert(sym, fid as u32);
        }
        SymTable { strings, to_file }
    }

    fn for_snapshot(snapshot: &CsrSnapshot) -> SymTable {
        let mut used = Vec::new();
        for node in &snapshot.nodes {
            used.push(node.label);
            used.extend(node.attrs.iter().map(|(name, _)| name));
        }
        used.extend(snapshot.out_side().keys);
        used.extend(snapshot.in_side().keys);
        SymTable::build(used)
    }

    pub(crate) fn file_id(&self, sym: Sym) -> u32 {
        *self
            .to_file
            .get(&sym)
            .expect("symbol collected before encoding")
    }
}

/// Accumulates sections, then lays out header + table + aligned payloads.
pub(crate) struct FileBuilder {
    node_count: u64,
    edge_count: u64,
    epoch: u64,
    sections: Vec<(SectionEntry, Payload)>,
}

/// A section's payload, held in its own type until [`FileBuilder::finish`]
/// lays it out: a `u32` array is encoded straight into the file bytes,
/// never into a byte buffer of its own first.
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
                offset: 0, // assigned in finish()
                byte_len,
                elem_count,
            },
            payload,
        ));
    }

    pub(crate) fn finish(mut self) -> Vec<u8> {
        let table_end = HEADER_LEN + self.sections.len() * SECTION_ENTRY_LEN;
        let mut offset = align_up(table_end);
        for (entry, _) in &mut self.sections {
            entry.offset = offset as u64;
            offset = align_up(offset + entry.byte_len as usize);
        }
        let total_len = offset;

        let mut out = vec![0u8; total_len];
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
            version: super::format::VERSION,
            file_kind: file_kind::SNAPSHOT,
            section_count: self.sections.len() as u32,
            section_align: SECTION_ALIGN as u32,
            total_len: total_len as u64,
            checksum: file_checksum(&out[HEADER_LEN..]),
            node_count: self.node_count,
            edge_count: self.edge_count,
            epoch: self.epoch,
        };
        out[..HEADER_LEN].copy_from_slice(&header.encode());
        out
    }
}

pub(crate) fn push_strings(builder: &mut FileBuilder, syms: &SymTable) {
    let mut blob = BlobWriter::new();
    blob.put_u32(syms.strings.len() as u32);
    for text in &syms.strings {
        blob.put_u32(text.len() as u32);
        blob.put_bytes(text.as_bytes());
    }
    builder.add_blob(kind::STRINGS, syms.strings.len() as u64, blob.into_bytes());
}

/// One CSR side as file arrays: offsets verbatim, every run re-sorted into
/// `(file symbol, neighbour)` order.
fn encode_side(side: Side<'_, Sym>, syms: &SymTable) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
    let (offsets, labels, neighbors) = (side.offsets, side.keys, side.neighbors);
    let mut file_labels = Vec::with_capacity(labels.len());
    let mut file_neighbors = Vec::with_capacity(neighbors.len());
    let mut run: Vec<(u32, u32)> = Vec::new();
    for row in offsets.windows(2) {
        let (start, end) = (row[0] as usize, row[1] as usize);
        run.clear();
        run.extend((start..end).map(|i| (syms.file_id(labels[i]), neighbors[i].0)));
        run.sort_unstable();
        for &(label, neighbor) in &run {
            file_labels.push(label);
            file_neighbors.push(neighbor);
        }
    }
    (offsets.to_vec(), file_labels, file_neighbors)
}

/// Per-node attribute tuples, names in file-symbol order.
pub(crate) fn encode_attrs(nodes: &[NodeData], syms: &SymTable) -> Vec<u8> {
    let mut blob = BlobWriter::new();
    let mut entries: Vec<(u32, &Value)> = Vec::new();
    for node in nodes {
        entries.clear();
        entries.extend(
            node.attrs
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

/// Every section after the string table.
fn push_snapshot_sections(builder: &mut FileBuilder, snapshot: &CsrSnapshot, syms: &SymTable) {
    let nodes = &snapshot.nodes;
    let node_labels: Vec<u32> = nodes.iter().map(|n| syms.file_id(n.label)).collect();
    builder.add_u32s(kind::NODE_LABELS, node_labels);
    builder.add_blob(
        kind::NODE_ATTRS,
        nodes.len() as u64,
        encode_attrs(nodes, syms),
    );

    let (offsets, labels, neighbors) = encode_side(snapshot.out_side(), syms);
    builder.add_u32s(kind::OUT_OFFSETS, offsets);
    builder.add_u32s(kind::OUT_LABELS, labels);
    builder.add_u32s(kind::OUT_NEIGHBORS, neighbors);
    let (offsets, labels, neighbors) = encode_side(snapshot.in_side(), syms);
    builder.add_u32s(kind::IN_OFFSETS, offsets);
    builder.add_u32s(kind::IN_LABELS, labels);
    builder.add_u32s(kind::IN_NEIGHBORS, neighbors);

    // Label partition, groups re-ordered into file-symbol order.
    let (label_ranges, old_order) = snapshot.label_partition();
    let mut ranges: Vec<(u32, u32, u32)> = label_ranges
        .iter()
        .map(|(&sym, &(start, end))| (syms.file_id(sym), start, end))
        .collect();
    ranges.sort_unstable();
    let mut label_order = Vec::with_capacity(old_order.len());
    let mut file_ranges = BlobWriter::new();
    for &(fid, start, end) in &ranges {
        let new_start = label_order.len() as u32;
        label_order.extend(old_order[start as usize..end as usize].iter().map(|n| n.0));
        file_ranges.put_u32(fid);
        file_ranges.put_u32(new_start);
        file_ranges.put_u32(label_order.len() as u32);
    }
    builder.add_u32s(kind::LABEL_ORDER, label_order);
    builder.add_blob(
        kind::LABEL_RANGES,
        ranges.len() as u64,
        file_ranges.into_bytes(),
    );

    // Triple index, groups re-ordered into file-symbol order.
    let (old_ranges, old_src, old_dst) = snapshot.triple_index();
    let mut triples: Vec<((u32, u32, u32), u32, u32)> = old_ranges
        .iter()
        .map(|(&(s, l, d), &(start, end))| {
            (
                (syms.file_id(s), syms.file_id(l), syms.file_id(d)),
                start,
                end,
            )
        })
        .collect();
    triples.sort_unstable();
    let mut triple_src = Vec::with_capacity(old_src.len());
    let mut triple_dst = Vec::with_capacity(old_dst.len());
    let mut triple_ranges = BlobWriter::new();
    for &((s, l, d), start, end) in &triples {
        let new_start = triple_src.len() as u32;
        triple_src.extend(old_src[start as usize..end as usize].iter().map(|n| n.0));
        triple_dst.extend(old_dst[start as usize..end as usize].iter().map(|n| n.0));
        triple_ranges.put_u32(s);
        triple_ranges.put_u32(l);
        triple_ranges.put_u32(d);
        triple_ranges.put_u32(new_start);
        triple_ranges.put_u32(triple_src.len() as u32);
    }
    builder.add_u32s(kind::TRIPLE_SRC, triple_src);
    builder.add_u32s(kind::TRIPLE_DST, triple_dst);
    builder.add_blob(
        kind::TRIPLE_RANGES,
        triples.len() as u64,
        triple_ranges.into_bytes(),
    );
}
