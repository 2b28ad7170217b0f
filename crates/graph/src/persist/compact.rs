//! [`CompactionWriter`] — fold a net `ΔG` into an existing snapshot file
//! **without re-freezing** from the mutable graph.
//!
//! A long-lived serving session accumulates its `ΔG` as a
//! [`DeltaOverlay`] over an immortal mapped snapshot; per-batch cost then
//! grows with the overlay, slowly degrading back toward batch detection.
//! Compaction closes that loop: it merge-joins the *file-ordered* arrays
//! of the old `.ngds` with the canonical net update
//! ([`DeltaOverlay::into_batch`]) and emits a fresh file stamped with the
//! next **epoch**, after which sessions re-root
//! ([`DeltaOverlay::reroot`]) and restart from an empty overlay.
//!
//! The merge is streaming and sort-free on the bulk data:
//!
//! * the **string table** of the old file is already lexicographic, so the
//!   merged table is a linear merge with the delta's new symbols, and the
//!   old→new file-symbol remap is *monotone* — remapped runs stay sorted;
//! * each **CSR run** is a two-pointer merge of the old run (minus net
//!   deletions) with the row's net insertions;
//! * **attribute tuples** are rewritten record-by-record with remapped
//!   name ids (values copied verbatim);
//! * the **label partition** appends each new node to its label's group
//!   (groups stay in file-symbol order, contents in ascending-id order);
//! * the **triple index** merge-joins each `(src, edge, dst)`-label
//!   group's `(src, dst)`-sorted entries with the delta's.
//!
//! Because [`SnapshotWriter`](super::SnapshotWriter) canonicalises every
//! structure into exactly these orders, the output is **byte-identical**
//! to freezing `G ⊕ ΔG` and writing it at the same epoch — the
//! compaction-equivalence property the integration tests pin — while
//! costing linear scans of the mapped file instead of materialising
//! `G ⊕ ΔG` as a mutable graph, freezing it and re-canonicalising it.
//!
//! An all-cancelling (net-empty) delta short-circuits to a header rewrite
//! plus a straight byte-copy of every section.

use super::format::{kind, AttrEntries, BlobWriter};
use super::loader::{MmapSnapshot, VALIDATED};
use super::writer::{encode_attrs, push_strings, FileBuilder, SymTable};
use super::PersistError;
use crate::graph::{EdgeRef, NodeData};
use crate::interner::{intern, Sym};
use crate::overlay::DeltaOverlay;
use crate::update::{BatchUpdate, UpdateError};
use crate::view::GraphView;
use std::collections::{BTreeMap, HashMap};
use std::path::Path;

/// Why a compaction failed: either the input file is unusable or the
/// delta does not apply cleanly to it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompactError {
    /// Reading the old file or writing the new one failed.
    Persist(PersistError),
    /// The delta does not apply cleanly to the old snapshot.
    Update(UpdateError),
}

impl std::fmt::Display for CompactError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompactError::Persist(e) => write!(f, "{e}"),
            CompactError::Update(e) => write!(f, "delta does not apply: {e}"),
        }
    }
}

impl std::error::Error for CompactError {}

impl From<PersistError> for CompactError {
    fn from(e: PersistError) -> Self {
        CompactError::Persist(e)
    }
}

impl From<UpdateError> for CompactError {
    fn from(e: UpdateError) -> Self {
        CompactError::Update(e)
    }
}

/// What a file-level compaction produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactReport {
    /// Bytes written to the output file.
    pub bytes: u64,
    /// Epoch stamped into the new file (old epoch + 1).
    pub epoch: u64,
    /// Nodes in the compacted snapshot.
    pub node_count: u64,
    /// Edges in the compacted snapshot.
    pub edge_count: u64,
}

/// Merges an existing `.ngds` file with a canonical net [`BatchUpdate`]
/// and emits the next snapshot epoch.  See the module docs for the merge
/// strategy and the byte-determinism contract.
#[derive(Debug, Clone, Copy, Default)]
pub struct CompactionWriter;

impl CompactionWriter {
    /// A compaction writer with default settings.
    pub fn new() -> Self {
        CompactionWriter
    }

    /// Merge `delta` into the mapped snapshot `old`, returning the
    /// exact bytes of the successor file stamped with `epoch`.
    ///
    /// Byte-identical to `SnapshotWriter::with_epoch(epoch).encode(&(G ⊕
    /// ΔG).freeze())`.  `delta` is validated and canonicalised in one
    /// [`DeltaOverlay::try_new`] pass; an op that does not apply is a
    /// [`CompactError::Update`] carrying the error
    /// [`BatchUpdate::validate_against`] reports.
    pub fn encode(
        &self,
        old: &MmapSnapshot,
        delta: &BatchUpdate,
        epoch: u64,
    ) -> Result<Vec<u8>, CompactError> {
        let _span = ngd_obs::span!("persist.compact");
        let net = NetDelta::new(old, delta)?;
        if net.is_empty() {
            // Nothing changed: a fresh header over the old sections,
            // copied verbatim.  The checksum only covers the post-header
            // bytes, so this is still byte-identical to a re-encode.
            let mut builder = FileBuilder::new(
                GraphView::node_count(old) as u64,
                GraphView::edge_count(old) as u64,
                epoch,
            );
            replay_sections(old, &mut builder);
            return Ok(builder.finish());
        }
        let mut merged = merge_sections(old, &net);
        let mut builder =
            FileBuilder::new(merged.node_count as u64, merged.edge_count as u64, epoch);
        merged.push_sections(&mut builder);
        Ok(builder.finish())
    }

    /// Compact `in_path` merged with `delta` into `out_path`, stamping
    /// `old epoch + 1`.
    pub fn compact_file(
        &self,
        in_path: &Path,
        delta: &BatchUpdate,
        out_path: &Path,
    ) -> Result<CompactReport, CompactError> {
        let old = MmapSnapshot::load(in_path)?;
        let epoch = old.epoch() + 1;
        let bytes = self.encode(&old, delta, epoch)?;
        let header = super::format::FileHeader::parse(&bytes).expect("writer emits valid headers");
        std::fs::write(out_path, &bytes)
            .map_err(|e| PersistError::Io(format!("write {}: {e}", out_path.display())))?;
        Ok(CompactReport {
            bytes: bytes.len() as u64,
            epoch,
            node_count: header.node_count,
            edge_count: header.edge_count,
        })
    }
}

/// Re-emit every section of `old` verbatim, in file order.  With a fresh
/// header this reproduces the writer's bytes exactly: offsets re-derive
/// from the unchanged push order and lengths, and the checksum folds over
/// the same post-header bytes.
fn replay_sections(old: &MmapSnapshot, builder: &mut FileBuilder) {
    for entry in old.raw_section_table() {
        builder.add_blob(
            entry.kind,
            entry.elem_count,
            old.raw_section_bytes(entry).to_vec(),
        );
    }
}

/// The canonical net delta, pre-indexed for the per-section merges.
struct NetDelta {
    /// The canonical net batch (deletions sorted, then insertions sorted,
    /// then new nodes in id order) — [`DeltaOverlay::into_batch`] output.
    batch: BatchUpdate,
    /// Net deletions, sorted.
    del: Vec<EdgeRef>,
    /// Net insertions, sorted.
    ins: Vec<EdgeRef>,
}

impl NetDelta {
    /// Validate `delta` against `old` and canonicalise it, in the one
    /// pass [`DeltaOverlay::try_new`] makes.
    fn new<V: GraphView>(old: &V, delta: &BatchUpdate) -> Result<NetDelta, UpdateError> {
        let batch = DeltaOverlay::try_new(old, delta)?.into_batch();
        let del: Vec<EdgeRef> = batch.deletions().collect();
        let ins: Vec<EdgeRef> = batch.insertions().collect();
        Ok(NetDelta { batch, del, ins })
    }

    /// True when the delta nets out to no change at all — no surviving
    /// edge churn *and* no new nodes (checked explicitly:
    /// [`BatchUpdate::is_empty`] ignores node additions).
    fn is_empty(&self) -> bool {
        self.del.is_empty() && self.ins.is_empty() && self.batch.new_nodes.is_empty()
    }
}

/// Every merged section, plus the merged symbol table.
struct Merged {
    node_count: usize,
    edge_count: usize,
    syms: SymTable,
    node_labels: Vec<u32>,
    node_attrs: Vec<u8>,
    out: (Vec<u32>, Vec<u32>, Vec<u32>),
    inn: (Vec<u32>, Vec<u32>, Vec<u32>),
    label_order: Vec<u32>,
    label_ranges: Vec<u8>,
    label_range_count: u64,
    triple_src: Vec<u32>,
    triple_dst: Vec<u32>,
    triple_ranges: Vec<u8>,
    triple_range_count: u64,
}

impl Merged {
    /// Emit the sections in the exact order
    /// [`super::SnapshotWriter`] uses, so the file layout is identical.
    /// Consumes the blobs so a megabyte-scale merge is moved, not copied.
    fn push_sections(&mut self, builder: &mut FileBuilder) {
        push_strings(builder, &self.syms);
        builder.add_u32s(kind::NODE_LABELS, std::mem::take(&mut self.node_labels));
        builder.add_blob(
            kind::NODE_ATTRS,
            self.node_count as u64,
            std::mem::take(&mut self.node_attrs),
        );
        builder.add_u32s(kind::OUT_OFFSETS, std::mem::take(&mut self.out.0));
        builder.add_u32s(kind::OUT_LABELS, std::mem::take(&mut self.out.1));
        builder.add_u32s(kind::OUT_NEIGHBORS, std::mem::take(&mut self.out.2));
        builder.add_u32s(kind::IN_OFFSETS, std::mem::take(&mut self.inn.0));
        builder.add_u32s(kind::IN_LABELS, std::mem::take(&mut self.inn.1));
        builder.add_u32s(kind::IN_NEIGHBORS, std::mem::take(&mut self.inn.2));
        builder.add_u32s(kind::LABEL_ORDER, std::mem::take(&mut self.label_order));
        builder.add_blob(
            kind::LABEL_RANGES,
            self.label_range_count,
            std::mem::take(&mut self.label_ranges),
        );
        builder.add_u32s(kind::TRIPLE_SRC, std::mem::take(&mut self.triple_src));
        builder.add_u32s(kind::TRIPLE_DST, std::mem::take(&mut self.triple_dst));
        builder.add_blob(
            kind::TRIPLE_RANGES,
            self.triple_range_count,
            std::mem::take(&mut self.triple_ranges),
        );
    }
}

/// The merged symbol table and the monotone old→new file-id remap.
struct SymMerge {
    /// `old file id → new file id` (dense; every old id that survives).
    old_to_new: Vec<u32>,
    /// `Sym → new file id` for every merged symbol.
    sym_to_new: HashMap<Sym, u32>,
    /// Merged strings in new-id (lexicographic) order.
    strings: Vec<&'static str>,
}

impl SymMerge {
    fn new_fid(&self, sym: Sym) -> u32 {
        self.sym_to_new[&sym]
    }

    /// As [`SymMerge::new_fid`], but `None` for a symbol the merged table
    /// dropped (an edge label whose every edge was deleted).
    fn live_fid(&self, sym: Sym) -> Option<u32> {
        self.sym_to_new.get(&sym).copied()
    }
}

/// Merge the string tables: old strings that the merged graph still uses,
/// plus the delta's new symbols, lexicographic, with a monotone remap.
fn merge_symbols(old: &MmapSnapshot, net: &NetDelta) -> SymMerge {
    let old_strings: Vec<&'static str> = old.raw_strings().collect();
    let old_count = old_strings.len();

    // An old symbol survives iff the merged graph still references it: as
    // a node label or attribute name (nodes are never deleted), or as the
    // label of at least one surviving or inserted edge.
    let mut survives = vec![false; old_count];
    for &fid in old.raw_node_labels() {
        survives[fid as usize] = true;
    }
    for idx in 0..GraphView::node_count(old) {
        for (fid, _) in old.attr_entries(idx) {
            survives[fid as usize] = true;
        }
    }
    let mut edge_labels: Vec<i64> = vec![0; old_count];
    for &fid in old.raw_side_arrays(true).1 {
        edge_labels[fid as usize] += 1;
    }
    for e in &net.del {
        let fid = old
            .fid_of_sym(e.label)
            .expect("deleted edge label is known");
        edge_labels[fid as usize] -= 1;
    }
    for e in &net.ins {
        if let Some(fid) = old.fid_of_sym(e.label) {
            edge_labels[fid as usize] += 1;
        }
    }
    for (fid, &count) in edge_labels.iter().enumerate() {
        if count > 0 {
            survives[fid] = true;
        }
    }

    // Symbols the delta introduces that the old table never saw.
    let mut fresh: Vec<Sym> = Vec::new();
    let mut note = |sym: Sym| {
        if let Some(fid) = old.fid_of_sym(sym) {
            survives[fid as usize] = true;
        } else {
            fresh.push(sym);
        }
    };
    for node in &net.batch.new_nodes {
        note(node.label);
        for (name, _) in node.attrs.iter() {
            note(name);
        }
    }
    for e in &net.ins {
        note(e.label);
    }
    let mut fresh: Vec<&'static str> = fresh.into_iter().map(Sym::as_str).collect();
    fresh.sort_unstable();
    fresh.dedup();

    // Linear merge of the two sorted string lists; both id assignments and
    // the old→new remap fall out monotone.
    let mut strings = Vec::with_capacity(old_count + fresh.len());
    let mut old_to_new = vec![u32::MAX; old_count];
    let mut sym_to_new = HashMap::with_capacity(old_count + fresh.len());
    let mut fresh_iter = fresh.iter().peekable();
    for (fid, &text) in old_strings.iter().enumerate() {
        if !survives[fid] {
            continue;
        }
        while let Some(&&f) = fresh_iter.peek() {
            if f < text {
                sym_to_new.insert(intern(f), strings.len() as u32);
                strings.push(f);
                fresh_iter.next();
            } else {
                break;
            }
        }
        old_to_new[fid] = strings.len() as u32;
        sym_to_new.insert(old.sym_of_fid(fid as u32), strings.len() as u32);
        strings.push(text);
    }
    for &f in fresh_iter {
        sym_to_new.insert(intern(f), strings.len() as u32);
        strings.push(f);
    }
    SymMerge {
        old_to_new,
        sym_to_new,
        strings,
    }
}

/// Rewrite the old attribute blob with remapped name ids and append the
/// new nodes' tuples.  The remap is monotone, so per-record name order is
/// preserved without sorting; each value's encoded bytes are copied as
/// they are.
fn merge_attrs(old: &MmapSnapshot, net: &NetDelta, syms: &SymMerge, table: &SymTable) -> Vec<u8> {
    let mut blob = BlobWriter::new();
    for idx in 0..GraphView::node_count(old) {
        let mut entries = AttrEntries::new(old.raw_attr_record(idx)).expect(VALIDATED);
        blob.put_u32(entries.len() as u32);
        loop {
            let entry = entries.rest();
            let Some(decoded) = entries.next() else { break };
            let (fid, _) = decoded.expect(VALIDATED);
            blob.put_u32(syms.old_to_new[fid as usize]);
            // The entry minus its 4-byte name: tag and payload.
            blob.put_bytes(&entry[4..entry.len() - entries.rest().len()]);
        }
    }
    let mut out = blob.into_bytes();
    for n in &net.batch.new_nodes {
        let node = NodeData {
            label: n.label,
            attrs: n.attrs.clone(),
        };
        out.extend_from_slice(&encode_attrs(std::slice::from_ref(&node), table));
    }
    out
}

/// `(row → sorted per-row entries)` as a row-sorted list, walked with a
/// cursor in step with the row loop.  A per-row hash probe would pay a
/// SipHash for every one of `|V|` rows; the cursor pays only `O(|ΔG| log
/// |ΔG|)` once.
struct RowDeltas {
    /// `(row, start, end)` ranges into `entries`, sorted by row.
    rows: Vec<(u32, u32, u32)>,
    entries: Vec<(u32, u32)>,
    cursor: usize,
}

impl RowDeltas {
    fn build(edges: impl Iterator<Item = (u32, (u32, u32))>) -> RowDeltas {
        let mut keyed: Vec<(u32, (u32, u32))> = edges.collect();
        keyed.sort_unstable();
        let mut rows = Vec::new();
        let mut entries = Vec::with_capacity(keyed.len());
        for (row, entry) in keyed {
            match rows.last_mut() {
                Some((last, _, end)) if *last == row => {
                    entries.push(entry);
                    *end += 1;
                }
                _ => {
                    rows.push((row, entries.len() as u32, entries.len() as u32 + 1));
                    entries.push(entry);
                }
            }
        }
        RowDeltas {
            rows,
            entries,
            cursor: 0,
        }
    }

    /// The entries of `row`, assuming rows are requested in ascending
    /// order (empty slice when the row has none).
    fn advance(&mut self, row: u32) -> &[(u32, u32)] {
        while self.rows.get(self.cursor).is_some_and(|&(r, _, _)| r < row) {
            self.cursor += 1;
        }
        match self.rows.get(self.cursor) {
            Some(&(r, start, end)) if r == row => &self.entries[start as usize..end as usize],
            _ => &[],
        }
    }
}

/// Merge one CSR side: per row, the old run (minus net deletions, labels
/// remapped) two-pointer-merged with the row's net insertions.
fn merge_side(
    old: &MmapSnapshot,
    net: &NetDelta,
    syms: &SymMerge,
    out_side: bool,
    total_nodes: usize,
) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
    let (offsets, labels, neighbors) = old.raw_side_arrays(out_side);
    let old_n = GraphView::node_count(old);
    // Per-row deletions in *old* file-symbol space (a fully deleted label
    // may not survive into the new table), per-row insertions in new space.
    let row_of = |e: &EdgeRef| if out_side { e.src } else { e.dst };
    let other_of = |e: &EdgeRef| if out_side { e.dst } else { e.src };
    let mut dels = RowDeltas::build(net.del.iter().map(|e| {
        let fid = old
            .fid_of_sym(e.label)
            .expect("deleted edge label is known");
        (row_of(e).0, (fid, other_of(e).0))
    }));
    let mut inss = RowDeltas::build(
        net.ins
            .iter()
            .map(|e| (row_of(e).0, (syms.new_fid(e.label), other_of(e).0))),
    );

    let entry_estimate = labels.len() + net.ins.len();
    let mut new_offsets = Vec::with_capacity(total_nodes + 1);
    let mut new_labels = Vec::with_capacity(entry_estimate);
    let mut new_neighbors = Vec::with_capacity(entry_estimate);
    new_offsets.push(0u32);
    for row in 0..total_nodes {
        let (del, ins) = (dels.advance(row as u32), inss.advance(row as u32));
        let range = if row < old_n {
            offsets[row] as usize..offsets[row + 1] as usize
        } else {
            0..0
        };
        if del.is_empty() && ins.is_empty() {
            // Untouched row: bulk-copy the neighbours, remap the labels.
            new_neighbors.extend_from_slice(&neighbors[range.clone()]);
            new_labels.extend(range.map(|i| syms.old_to_new[labels[i] as usize]));
        } else {
            let mut ins_iter = ins.iter().peekable();
            for i in range {
                let key = (labels[i], neighbors[i]);
                if del.binary_search(&key).is_ok() {
                    continue;
                }
                let mapped = (syms.old_to_new[labels[i] as usize], neighbors[i]);
                while let Some(&&pending) = ins_iter.peek() {
                    if pending < mapped {
                        new_labels.push(pending.0);
                        new_neighbors.push(pending.1);
                        ins_iter.next();
                    } else {
                        break;
                    }
                }
                new_labels.push(mapped.0);
                new_neighbors.push(mapped.1);
            }
            for &(label, neighbor) in ins_iter {
                new_labels.push(label);
                new_neighbors.push(neighbor);
            }
        }
        new_offsets.push(new_labels.len() as u32);
    }
    (new_offsets, new_labels, new_neighbors)
}

/// Merge the label partition: every new node joins its label's group at
/// the end (ascending ids, exactly like a fresh freeze), groups stay in
/// file-symbol order.
fn merge_label_partition(
    old: &MmapSnapshot,
    net: &NetDelta,
    syms: &SymMerge,
    total_nodes: usize,
) -> (Vec<u32>, Vec<u8>, u64) {
    let old_order = old.raw_label_order();
    let old_n = GraphView::node_count(old);
    // new fid → (old range, appended new node ids)
    let mut groups: BTreeMap<u32, (std::ops::Range<usize>, Vec<u32>)> = BTreeMap::new();
    for (sym, start, end) in old.raw_label_ranges() {
        groups.insert(
            syms.new_fid(sym),
            (start as usize..end as usize, Vec::new()),
        );
    }
    for (idx, node) in net.batch.new_nodes.iter().enumerate() {
        groups
            .entry(syms.new_fid(node.label))
            .or_insert((0..0, Vec::new()))
            .1
            .push((old_n + idx) as u32);
    }
    let mut order = Vec::with_capacity(total_nodes);
    let mut ranges = BlobWriter::new();
    let mut count = 0u64;
    for (fid, (old_range, added)) in groups {
        let start = order.len() as u32;
        order.extend_from_slice(&old_order[old_range]);
        order.extend_from_slice(&added);
        ranges.put_u32(fid);
        ranges.put_u32(start);
        ranges.put_u32(order.len() as u32);
        count += 1;
    }
    (order, ranges.into_bytes(), count)
}

/// Merge the triple index: per `(src label, edge label, dst label)` group,
/// old `(src, dst)`-sorted entries minus deletions, merged with the
/// delta's insertions; groups in new-file-symbol key order.
///
/// The componentwise-monotone symbol remap preserves the lexicographic
/// order of group keys, so the old groups and the delta's groups are two
/// already-sorted streams: one merge walk, with untouched groups
/// bulk-copied straight out of the mapped arrays.
fn merge_triples(
    old: &MmapSnapshot,
    net: &NetDelta,
    syms: &SymMerge,
    node_labels: &[u32],
) -> (Vec<u32>, Vec<u32>, Vec<u8>, u64) {
    let (old_src, old_dst) = old.raw_triple_arrays();
    type Key = (u32, u32, u32);
    // Deletions and insertions in new-fid key space, each list sorted by
    // (key, src, dst).  A deletion whose edge label *died* (no edge kept
    // or inserted it) is dropped here: it can only belong to a group whose
    // every edge was deleted, and those groups are filtered out of the old
    // stream below — dropping both sides keeps every remaining key total
    // in the merged table and the streams exactly sorted.
    let mut dels: Vec<(Key, (u32, u32))> = net
        .del
        .iter()
        .filter_map(|e| {
            let label = syms.live_fid(e.label)?;
            Some((
                (
                    node_labels[e.src.index()],
                    label,
                    node_labels[e.dst.index()],
                ),
                (e.src.0, e.dst.0),
            ))
        })
        .collect();
    dels.sort_unstable();
    let mut inss: Vec<(Key, (u32, u32))> = net
        .ins
        .iter()
        .map(|e| {
            (
                (
                    node_labels[e.src.index()],
                    syms.new_fid(e.label),
                    node_labels[e.dst.index()],
                ),
                (e.src.0, e.dst.0),
            )
        })
        .collect();
    inss.sort_unstable();

    // Old groups with dead edge labels are dropped up front: dead means
    // every edge of the group was deleted, so the group contributes
    // nothing — and filtering keeps the remapped key stream *sorted*,
    // because the componentwise-monotone remap preserves lexicographic
    // order only among fully-live keys.
    let old_groups = old.raw_triple_ranges();

    let total_estimate = old_src.len() + inss.len();
    let mut triple_src: Vec<u32> = Vec::with_capacity(total_estimate);
    let mut triple_dst: Vec<u32> = Vec::with_capacity(total_estimate);
    let mut ranges = BlobWriter::new();
    let mut count = 0u64;
    let mut del_cursor = 0usize;
    let mut ins_cursor = 0usize;
    let mut emit = |key: Key, start: u32, src: &mut Vec<u32>| {
        ranges.put_u32(key.0);
        ranges.put_u32(key.1);
        ranges.put_u32(key.2);
        ranges.put_u32(start);
        ranges.put_u32(src.len() as u32);
        count += 1;
    };
    let mut old_iter = old_groups
        .into_iter()
        .filter_map(|(key, start, end)| {
            // Node-label components always survive; only the edge label
            // (key.1) can die, taking the whole group with it.
            let new_key = (
                syms.new_fid(key.0),
                syms.live_fid(key.1)?,
                syms.new_fid(key.2),
            );
            Some((new_key, start as usize, end as usize))
        })
        .peekable();
    loop {
        // Next insertion-group key, if any.
        let ins_key = inss.get(ins_cursor).map(|&(k, _)| k);
        let old_key = old_iter.peek().map(|&(k, _, _)| k);
        let Some(key) = [ins_key, old_key].into_iter().flatten().min() else {
            break;
        };
        let group_start = triple_src.len() as u32;
        if old_key == Some(key) {
            let (_, start, end) = old_iter.next().expect("peeked");
            // Deletions for this group, if any.
            let del_start = del_cursor;
            while dels.get(del_cursor).is_some_and(|&(k, _)| k <= key) {
                del_cursor += 1;
            }
            let del = &dels[del_start..del_cursor];
            let ins_start = ins_cursor;
            while inss.get(ins_cursor).is_some_and(|&(k, _)| k == key) {
                ins_cursor += 1;
            }
            let ins = &inss[ins_start..ins_cursor];
            if del.is_empty() && ins.is_empty() {
                // Untouched group: bulk-copy from the mapped arrays.
                triple_src.extend_from_slice(&old_src[start..end]);
                triple_dst.extend_from_slice(&old_dst[start..end]);
            } else {
                // Both the group and its delta slices are (src, dst)-sorted:
                // one three-way pointer walk, no per-entry scans.
                let mut ins_iter = ins.iter().map(|&(_, pair)| pair).peekable();
                let mut del_iter = del
                    .iter()
                    .filter(|&&(k, _)| k == key)
                    .map(|&(_, pair)| pair)
                    .peekable();
                for i in start..end {
                    let pair = (old_src[i], old_dst[i]);
                    while del_iter.peek().is_some_and(|&deleted| deleted < pair) {
                        del_iter.next();
                    }
                    if del_iter.peek() == Some(&pair) {
                        del_iter.next();
                        continue;
                    }
                    while let Some(&pending) = ins_iter.peek() {
                        if pending < pair {
                            triple_src.push(pending.0);
                            triple_dst.push(pending.1);
                            ins_iter.next();
                        } else {
                            break;
                        }
                    }
                    triple_src.push(pair.0);
                    triple_dst.push(pair.1);
                }
                for (src, dst) in ins_iter {
                    triple_src.push(src);
                    triple_dst.push(dst);
                }
            }
        } else {
            // A brand-new group: insertions only.
            while inss.get(ins_cursor).is_some_and(|&(k, _)| k == key) {
                let (_, (src, dst)) = inss[ins_cursor];
                triple_src.push(src);
                triple_dst.push(dst);
                ins_cursor += 1;
            }
        }
        if triple_src.len() as u32 > group_start {
            emit(key, group_start, &mut triple_src);
        }
    }
    (triple_src, triple_dst, ranges.into_bytes(), count)
}

/// Run every per-section merge.
fn merge_sections(old: &MmapSnapshot, net: &NetDelta) -> Merged {
    let old_n = GraphView::node_count(old);
    let total_nodes = old_n + net.batch.new_nodes.len();
    let edge_count = GraphView::edge_count(old) + net.ins.len() - net.del.len();

    let syms = merge_symbols(old, net);
    let mut node_labels: Vec<u32> = old
        .raw_node_labels()
        .iter()
        .map(|&fid| syms.old_to_new[fid as usize])
        .collect();
    node_labels.extend(net.batch.new_nodes.iter().map(|n| syms.new_fid(n.label)));

    let table = SymTable::from_parts(syms.strings.clone(), syms.sym_to_new.clone());
    let node_attrs = merge_attrs(old, net, &syms, &table);
    let out = merge_side(old, net, &syms, true, total_nodes);
    let inn = merge_side(old, net, &syms, false, total_nodes);
    let (label_order, label_ranges, label_range_count) =
        merge_label_partition(old, net, &syms, total_nodes);
    let (triple_src, triple_dst, triple_ranges, triple_range_count) =
        merge_triples(old, net, &syms, &node_labels);

    Merged {
        node_count: total_nodes,
        edge_count,
        syms: table,
        node_labels,
        node_attrs,
        out,
        inn,
        label_order,
        label_ranges,
        label_range_count,
        triple_src,
        triple_dst,
        triple_ranges,
        triple_range_count,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::AttrMap;
    use crate::graph::{Graph, NodeId};
    use crate::persist::SnapshotWriter;
    use crate::value::Value;
    use std::path::PathBuf;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "ngd-compact-unit-{tag}-{}.ngds",
            std::process::id()
        ))
    }

    fn sample() -> (Graph, Vec<NodeId>) {
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
        (g, vec![a, b, c, d])
    }

    fn mapped(graph: &Graph, tag: &str) -> (MmapSnapshot, PathBuf) {
        let path = temp_path(tag);
        SnapshotWriter::new().write(&graph.freeze(), &path).unwrap();
        (MmapSnapshot::load(&path).unwrap(), path)
    }

    #[test]
    fn empty_delta_reproduces_the_writer_bytes_with_a_bumped_epoch() {
        let (g, _) = sample();
        let (old, path) = mapped(&g, "identity");
        let compacted = CompactionWriter::new()
            .encode(&old, &BatchUpdate::new(), 1)
            .unwrap();
        let rewritten = SnapshotWriter::with_epoch(1).encode(&g.freeze());
        assert_eq!(compacted, rewritten);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn merged_bytes_equal_a_fresh_freeze_of_the_updated_graph() {
        let (g, n) = sample();
        let (old, path) = mapped(&g, "merge");
        let mut delta = BatchUpdate::new();
        // New node with a brand-new label and attr name, a deleted edge
        // whose label ("knows") dies with it, a new edge label ("audits"),
        // and churn that must cancel.
        let e = delta.add_node(
            g.node_count(),
            intern("regulator"),
            AttrMap::from_pairs([("strict", Value::Bool(true))]),
        );
        delta.delete_edge(n[0], n[1], intern("knows"));
        delta.insert_edge(e, n[2], intern("audits"));
        delta.insert_edge(n[1], n[3], intern("follower"));
        delta.delete_edge(n[1], n[3], intern("follower"));
        delta.insert_edge(n[1], n[3], intern("follower"));

        let compacted = CompactionWriter::new().encode(&old, &delta, 7).unwrap();
        let updated = delta.applied_to(&g).unwrap();
        let fresh = SnapshotWriter::with_epoch(7).encode(&updated.freeze());
        assert_eq!(compacted, fresh, "compaction must equal freeze→write");

        // And the result loads with the stamped epoch.
        let out = temp_path("merge-out");
        std::fs::write(&out, &compacted).unwrap();
        let loaded = MmapSnapshot::load(&out).unwrap();
        assert_eq!(loaded.epoch(), 7);
        assert_eq!(GraphView::node_count(&loaded), 5);
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&out).ok();
    }

    /// Regression: a delta that kills one edge label ("aa", which sorts
    /// *before* a surviving label "bb") while also deleting a "bb" edge.
    /// The dead group must vanish without its sentinel key swallowing the
    /// live group's deletion — the compacted triple index once kept the
    /// deleted "bb" edge alive.
    #[test]
    fn killing_a_label_does_not_corrupt_sibling_triple_groups() {
        let mut g = Graph::new();
        let n0 = g.add_node_named("N", AttrMap::new());
        let n1 = g.add_node_named("N", AttrMap::new());
        let n2 = g.add_node_named("N", AttrMap::new());
        g.add_edge_named(n0, n1, "aa").unwrap();
        g.add_edge_named(n0, n2, "bb").unwrap();
        g.add_edge_named(n1, n2, "bb").unwrap();
        let (old, path) = mapped(&g, "dead-label");

        let mut delta = BatchUpdate::new();
        delta.delete_edge(n0, n1, intern("aa")); // label "aa" dies
        delta.delete_edge(n0, n2, intern("bb")); // "bb" survives via n1→n2
        let compacted = CompactionWriter::new().encode(&old, &delta, 1).unwrap();
        let fresh = SnapshotWriter::with_epoch(1).encode(&delta.applied_to(&g).unwrap().freeze());
        assert_eq!(compacted, fresh);

        let out = temp_path("dead-label-out");
        std::fs::write(&out, &compacted).unwrap();
        let loaded = MmapSnapshot::load(&out).unwrap();
        assert_eq!(
            loaded.triple_count(intern("N"), intern("bb"), intern("N")),
            1
        );
        assert_eq!(
            loaded.triple_count(intern("N"), intern("aa"), intern("N")),
            0
        );
        assert!(!GraphView::has_edge(&loaded, n0, n2, intern("bb")));
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&out).ok();
    }

    #[test]
    fn invalid_deltas_fail_typed() {
        let (g, n) = sample();
        let (old, path) = mapped(&g, "invalid");
        let mut delta = BatchUpdate::new();
        delta.delete_edge(n[2], n[0], intern("ghost"));
        let err = CompactionWriter::new().encode(&old, &delta, 1).unwrap_err();
        assert!(matches!(err, CompactError::Update(_)), "{err:?}");
        std::fs::remove_file(&path).ok();
    }
}
