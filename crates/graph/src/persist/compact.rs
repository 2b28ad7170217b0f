//! [`CompactionWriter`] — fold a net `ΔG` into an existing snapshot file
//! **without re-freezing** from the mutable graph.
//!
//! A long-lived serving session accumulates its `ΔG` as a
//! [`DeltaOverlay`] over an immortal mapped snapshot; per-batch cost then
//! grows with the overlay, slowly degrading back toward batch detection.
//! Compaction closes that loop: it merge-joins the *file-ordered* arrays
//! of the old `.ngds` with the canonical net update (what
//! [`DeltaOverlay::into_batch`] returns, recomputed here by the update
//! rules' fold without building an overlay) and emits a fresh file
//! stamped with the next **epoch**, after which sessions re-root
//! ([`DeltaOverlay::reroot`]) and restart from an empty overlay.
//!
//! [`DeltaOverlay`]: crate::DeltaOverlay
//! [`DeltaOverlay::into_batch`]: crate::DeltaOverlay::into_batch
//! [`DeltaOverlay::reroot`]: crate::DeltaOverlay::reroot
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
//! Because [`Graph::freeze`](crate::Graph::freeze) lays every structure
//! out in exactly these orders, the output is **byte-identical** to
//! freezing `G ⊕ ΔG` and writing it at the same epoch — the
//! compaction-equivalence property the integration tests pin — while
//! costing linear scans of the mapped file instead of materialising
//! `G ⊕ ΔG` as a mutable graph and freezing it.
//!
//! An all-cancelling (net-empty) delta short-circuits to a copy of the old
//! bytes under a re-stamped header.

use super::format::{AttrEntries, BlobWriter, SymTable};
use super::loader::{MmapSnapshot, VALIDATED};
use super::writer::{encode_attrs, Sections, SnapshotWriter};
use super::PersistError;
use crate::graph::{Dir, EdgeRef};
use crate::hash::IdMap;
use crate::interner::Sym;
use crate::update::{BatchUpdate, NetEdges, NewNode, UpdateError};
use crate::view::GraphView;
use std::collections::BTreeMap;
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
    /// pass of the update rules' fold, the one
    /// [`crate::DeltaOverlay::try_new`] builds from; an op that does not
    /// apply is a [`CompactError::Update`] carrying the error
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
            // Nothing changed: the old bytes under a header stamped
            // `epoch`, which the checksum does not cover.
            return Ok(SnapshotWriter::with_epoch(epoch).encode(old));
        }
        Ok(merge_sections(old, &net).into_builder(epoch).finish())
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

/// The canonical net delta, pre-indexed for the per-section merges.
struct NetDelta<'d> {
    /// The delta's new nodes, in id order.
    new_nodes: &'d [NewNode],
    /// Net deletions, sorted.
    del: Vec<EdgeRef>,
    /// Net insertions, sorted.
    ins: Vec<EdgeRef>,
}

impl<'d> NetDelta<'d> {
    /// Validate `delta` against `old` and canonicalise it: the update
    /// rules' one fold (`BatchUpdate::net_edges`), then one sort of each
    /// net set.
    fn new<V: GraphView>(old: &V, delta: &'d BatchUpdate) -> Result<NetDelta<'d>, UpdateError> {
        let NetEdges { added, removed } = delta.net_edges(old)?;
        let mut del: Vec<EdgeRef> = removed.into_iter().collect();
        del.sort_unstable();
        let mut ins: Vec<EdgeRef> = added.into_iter().collect();
        ins.sort_unstable();
        Ok(NetDelta {
            new_nodes: &delta.new_nodes,
            del,
            ins,
        })
    }

    /// True when the delta nets out to no change at all — no surviving
    /// edge churn *and* no new nodes (checked explicitly:
    /// [`BatchUpdate::is_empty`] ignores node additions).
    fn is_empty(&self) -> bool {
        self.del.is_empty() && self.ins.is_empty() && self.new_nodes.is_empty()
    }
}

/// The merged symbol table and the monotone old→new file-id remap.
struct SymMerge {
    /// `old file id → new file id` (dense; every old id that survives).
    old_to_new: Vec<u32>,
    /// The merged table: strings in new-id (lexicographic) order.
    table: SymTable,
}

impl SymMerge {
    fn new_fid(&self, sym: Sym) -> u32 {
        self.table.file_id(sym)
    }

    /// As [`SymMerge::new_fid`], but `None` for a symbol the merged table
    /// dropped (an edge label whose every edge was deleted).
    fn live_fid(&self, sym: Sym) -> Option<u32> {
        self.table.get(sym)
    }

    /// Whether every old file id keeps its number.
    fn is_identity(&self) -> bool {
        self.old_to_new
            .iter()
            .enumerate()
            .all(|(fid, &new)| new == fid as u32)
    }
}

/// Merge the string tables: old strings that the merged graph still uses,
/// plus the delta's new symbols, lexicographic, with a monotone remap.
fn merge_symbols(old: &MmapSnapshot, net: &NetDelta) -> SymMerge {
    let old_syms = old.sym_table();
    let old_count = old_syms.len();

    // An old symbol survives iff the merged graph still references it: as
    // a node label or attribute name (nodes are never deleted), or as the
    // label of at least one surviving or inserted edge.
    let mut survives = vec![false; old_count];
    for &fid in old.node_labels() {
        survives[fid as usize] = true;
    }
    for idx in 0..GraphView::node_count(old) {
        for (fid, _) in old.attr_entries(idx) {
            survives[fid as usize] = true;
        }
    }
    let mut edge_labels: Vec<i64> = vec![0; old_count];
    for &fid in old.side(Dir::Out).keys {
        edge_labels[fid as usize] += 1;
    }
    for e in &net.del {
        let fid = old_syms.file_id(e.label);
        edge_labels[fid as usize] -= 1;
    }
    for e in &net.ins {
        if let Some(fid) = old_syms.get(e.label) {
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
        if let Some(fid) = old_syms.get(sym) {
            survives[fid as usize] = true;
        } else {
            fresh.push(sym);
        }
    };
    for node in net.new_nodes {
        note(node.label);
        for (name, _) in node.attrs.iter() {
            note(name);
        }
    }
    for e in &net.ins {
        note(e.label);
    }
    let mut fresh: Vec<(&'static str, Sym)> = fresh.into_iter().map(|s| (s.as_str(), s)).collect();
    fresh.sort_unstable();
    fresh.dedup();

    // Linear merge of the two sorted string lists; both id assignments and
    // the old→new remap fall out monotone.
    let mut syms = Vec::with_capacity(old_count + fresh.len());
    let mut old_to_new = vec![u32::MAX; old_count];
    let mut fresh_iter = fresh.iter().peekable();
    for (fid, &old_sym) in old_syms.syms().iter().enumerate() {
        if !survives[fid] {
            continue;
        }
        let text = old_sym.as_str();
        while let Some(&&(f, sym)) = fresh_iter.peek() {
            if f < text {
                syms.push(sym);
                fresh_iter.next();
            } else {
                break;
            }
        }
        old_to_new[fid] = syms.len() as u32;
        syms.push(old_sym);
    }
    syms.extend(fresh_iter.map(|&(_, sym)| sym));
    SymMerge {
        old_to_new,
        table: SymTable::new(syms),
    }
}

/// Rewrite the old attribute blob with remapped name ids and append the
/// new nodes' tuples.  The remap is monotone, so per-record name order is
/// preserved without sorting; each value's encoded bytes are copied as
/// they are.
fn merge_attrs(old: &MmapSnapshot, net: &NetDelta, syms: &SymMerge) -> Vec<u8> {
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
    let new_attrs = net.new_nodes.iter().map(|node| &node.attrs);
    out.extend_from_slice(&encode_attrs(new_attrs, &syms.table));
    out
}

/// `(row → sorted per-row entries)` as a row-sorted list, consumed with a
/// cursor in step with the row walk: building it sorts the `|ΔG|` entries
/// once, and the walk then jumps from one touched row to the next instead
/// of asking a table about each of the `|V|` rows.
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

    /// The lowest row not yet taken, if any.
    fn next_row(&self) -> Option<usize> {
        self.rows.get(self.cursor).map(|&(row, _, _)| row as usize)
    }

    /// The entries of `row` (empty when it has none), taken in ascending
    /// row order.
    fn take(&mut self, row: usize) -> &[(u32, u32)] {
        match self.rows.get(self.cursor) {
            Some(&(r, start, end)) if r as usize == row => {
                self.cursor += 1;
                &self.entries[start as usize..end as usize]
            }
            _ => &[],
        }
    }
}

/// Merge one CSR side: rows no delta touches are copied as whole spans
/// (offsets shifted, labels remapped unless the remap is the identity),
/// and each touched row's old run, minus net deletions and with labels
/// remapped, is two-pointer-merged with the row's net insertions.
fn merge_side(
    old: &MmapSnapshot,
    net: &NetDelta,
    syms: &SymMerge,
    dir: Dir,
    total_nodes: usize,
) -> [Vec<u32>; 3] {
    let side = old.side(dir);
    let (offsets, labels, neighbors) = (side.offsets, side.keys, side.neighbors);
    let old_n = GraphView::node_count(old);
    // Per-row deletions in *old* file-symbol space (a fully deleted label
    // may not survive into the new table), per-row insertions in new space.
    let old_syms = old.sym_table();
    let row_entry = |e: &EdgeRef, fid: u32| (e.end(dir).0, (fid, e.end(dir.rev()).0));
    let mut dels = RowDeltas::build(
        net.del
            .iter()
            .map(|e| row_entry(e, old_syms.file_id(e.label))),
    );
    let mut inss = RowDeltas::build(net.ins.iter().map(|e| row_entry(e, syms.new_fid(e.label))));
    let identity = syms.is_identity();

    let entry_estimate = labels.len() + net.ins.len();
    let mut new_offsets = Vec::with_capacity(total_nodes + 1);
    let mut new_labels = Vec::with_capacity(entry_estimate);
    let mut new_neighbors = Vec::with_capacity(entry_estimate);
    new_offsets.push(0u32);
    let mut row = 0;
    while row < total_nodes {
        let touched = [dels.next_row(), inss.next_row()]
            .into_iter()
            .flatten()
            .min();
        let span_end = touched.unwrap_or(total_nodes);
        if row < span_end {
            // Untouched rows `row..span_end`: the old ones as one span,
            // then the new nodes' empty runs.
            let old_end = span_end.min(old_n);
            if row < old_end {
                let (start, end) = (offsets[row] as usize, offsets[old_end] as usize);
                let shift = new_labels.len() as u32;
                new_neighbors.extend(neighbors[start..end].iter().map(|n| n.0));
                if identity {
                    new_labels.extend_from_slice(&labels[start..end]);
                } else {
                    new_labels.extend(
                        labels[start..end]
                            .iter()
                            .map(|&l| syms.old_to_new[l as usize]),
                    );
                }
                new_offsets.extend(
                    offsets[row + 1..=old_end]
                        .iter()
                        .map(|&offset| offset - start as u32 + shift),
                );
            }
            let empty_rows = span_end - row.max(old_end);
            new_offsets.extend(std::iter::repeat_n(new_labels.len() as u32, empty_rows));
            row = span_end;
            continue;
        }
        let (del, ins) = (dels.take(row), inss.take(row));
        let range = if row < old_n {
            offsets[row] as usize..offsets[row + 1] as usize
        } else {
            0..0
        };
        let mut ins_iter = ins.iter().peekable();
        for i in range {
            let key = (labels[i], neighbors[i].0);
            if del.binary_search(&key).is_ok() {
                continue;
            }
            let mapped = (syms.old_to_new[labels[i] as usize], neighbors[i].0);
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
        new_offsets.push(new_labels.len() as u32);
        row += 1;
    }
    [new_offsets, new_labels, new_neighbors]
}

/// A range dictionary's entries in file order: sorted by range start,
/// which is file-symbol key order because the ranges tile their array.
fn in_file_order<K: Copy>(ranges: &IdMap<K, (u32, u32)>) -> Vec<(K, u32, u32)> {
    let mut out: Vec<(K, u32, u32)> = ranges
        .iter()
        .map(|(&key, &(start, end))| (key, start, end))
        .collect();
    out.sort_unstable_by_key(|&(_, start, _)| start);
    out
}

/// Merge the label partition: every new node joins its label's group at
/// the end (ascending ids, exactly like a fresh freeze), groups stay in
/// file-symbol order.
fn merge_label_partition(
    old: &MmapSnapshot,
    net: &NetDelta,
    syms: &SymMerge,
    total_nodes: usize,
) -> (Vec<u32>, (u64, Vec<u8>)) {
    let old_order = old.label_partition().1;
    let old_n = GraphView::node_count(old);
    // new fid → (old range, appended new node ids)
    let mut groups: BTreeMap<u32, (std::ops::Range<usize>, Vec<u32>)> = BTreeMap::new();
    for (sym, start, end) in in_file_order(old.label_partition().0) {
        groups.insert(
            syms.new_fid(sym),
            (start as usize..end as usize, Vec::new()),
        );
    }
    for (idx, node) in net.new_nodes.iter().enumerate() {
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
        order.extend(old_order[old_range].iter().map(|n| n.0));
        order.extend_from_slice(&added);
        ranges.put_u32(fid);
        ranges.put_u32(start);
        ranges.put_u32(order.len() as u32);
        count += 1;
    }
    (order, (count, ranges.into_bytes()))
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
) -> (Vec<u32>, Vec<u32>, (u64, Vec<u8>)) {
    let (_, old_src, old_dst) = old.triple_index();
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
    let old_groups = in_file_order(old.triple_index().0);

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
                triple_src.extend(old_src[start..end].iter().map(|n| n.0));
                triple_dst.extend(old_dst[start..end].iter().map(|n| n.0));
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
                    let pair = (old_src[i].0, old_dst[i].0);
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
    (triple_src, triple_dst, (count, ranges.into_bytes()))
}

/// Run every per-section merge.
fn merge_sections(old: &MmapSnapshot, net: &NetDelta) -> Sections {
    let old_n = GraphView::node_count(old);
    let total_nodes = old_n + net.new_nodes.len();
    let edge_count = GraphView::edge_count(old) + net.ins.len() - net.del.len();

    let syms = merge_symbols(old, net);
    let mut node_labels: Vec<u32> = old
        .node_labels()
        .iter()
        .map(|&fid| syms.old_to_new[fid as usize])
        .collect();
    node_labels.extend(net.new_nodes.iter().map(|n| syms.new_fid(n.label)));

    let node_attrs = merge_attrs(old, net, &syms);
    let [out, inn] = Dir::BOTH.map(|dir| merge_side(old, net, &syms, dir, total_nodes));
    let (label_order, label_ranges) = merge_label_partition(old, net, &syms, total_nodes);
    let (triple_src, triple_dst, triple_ranges) = merge_triples(old, net, &syms, &node_labels);

    Sections {
        node_count: total_nodes,
        edge_count,
        syms: syms.table,
        node_labels,
        node_attrs,
        out,
        inn,
        label_order,
        label_ranges,
        triple_src,
        triple_dst,
        triple_ranges,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::AttrMap;
    use crate::graph::{Graph, NodeId};
    use crate::interner::intern;
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
