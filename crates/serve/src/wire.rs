//! The payload codec: bounded little-endian encoding of the domain types
//! that cross the socket.
//!
//! Mirrors the blob conventions of `ngd_graph::persist::format` (everything
//! little-endian, length-prefixed, decoded through a bounds-checked reader
//! whose every overrun is a typed error), with one addition the snapshot
//! format does not need: **symbols travel as strings**.  A [`Sym`] is a
//! process-local interned id, so the wire carries the string form and the
//! decoder re-interns on arrival — the same translation the snapshot format
//! performs through its string table.
//!
//! Encoding is canonical: sets are written in their deterministic iteration
//! order and attribute maps are sorted by attribute name, so equal values
//! encode to equal bytes on any process.

use crate::error::ProtocolError;
use ngd_detect::{CostLedger, SearchStats};
use ngd_graph::{intern, AttrMap, BatchUpdate, EdgeOp, EdgeRef, NewNode, NodeId, Sym, Value};
use ngd_match::{DeltaViolations, Violation, ViolationSet};

/// Little-endian payload writer.
#[derive(Debug, Default)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// An empty writer.
    pub fn new() -> Self {
        WireWriter::default()
    }

    /// The encoded payload.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Append a raw byte.
    pub fn u8(&mut self, value: u8) {
        self.buf.push(value);
    }

    /// Append a little-endian `u32`.
    pub fn u32(&mut self, value: u32) {
        self.buf.extend_from_slice(&value.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    pub fn u64(&mut self, value: u64) {
        self.buf.extend_from_slice(&value.to_le_bytes());
    }

    /// Append a little-endian `i64`.
    pub fn i64(&mut self, value: i64) {
        self.buf.extend_from_slice(&value.to_le_bytes());
    }

    /// Append an `f64` as its little-endian bit pattern.
    pub fn f64(&mut self, value: f64) {
        self.buf.extend_from_slice(&value.to_bits().to_le_bytes());
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn str(&mut self, value: &str) {
        self.u32(value.len() as u32);
        self.buf.extend_from_slice(value.as_bytes());
    }

    /// Append a symbol in its string form.
    pub fn sym(&mut self, value: Sym) {
        self.str(value.as_str());
    }
}

/// Bounds-checked little-endian payload reader; every overrun or malformed
/// record is a typed [`ProtocolError::Corrupt`], never a panic.
#[derive(Debug)]
pub struct WireReader<'a> {
    bytes: &'a [u8],
    pos: usize,
    what: &'static str,
}

impl<'a> WireReader<'a> {
    /// Read `bytes`, labelling errors with `what` (the payload type).
    pub fn new(bytes: &'a [u8], what: &'static str) -> Self {
        WireReader {
            bytes,
            pos: 0,
            what,
        }
    }

    fn take(&mut self, len: usize) -> Result<&'a [u8], ProtocolError> {
        let end = self.pos.checked_add(len).ok_or_else(|| self.overrun())?;
        if end > self.bytes.len() {
            return Err(self.overrun());
        }
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn overrun(&self) -> ProtocolError {
        ProtocolError::Corrupt(format!(
            "{} payload ends early at byte {} of {}",
            self.what,
            self.pos,
            self.bytes.len()
        ))
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, ProtocolError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, ProtocolError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4B")))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, ProtocolError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8B")))
    }

    /// Read a little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64, ProtocolError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("8B")))
    }

    /// Read an `f64` from its little-endian bit pattern.
    pub fn f64(&mut self) -> Result<f64, ProtocolError> {
        Ok(f64::from_bits(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8B"),
        )))
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, ProtocolError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|e| ProtocolError::Corrupt(format!("{}: non-UTF-8 string: {e}", self.what)))
    }

    /// Read a symbol from its string form, re-interning locally.
    pub fn sym(&mut self) -> Result<Sym, ProtocolError> {
        Ok(intern(&self.str()?))
    }

    /// Validate that `count` records of at least `record_size` bytes each
    /// can still follow (a crafted count must fail typed *before* it drives
    /// a `with_capacity`).
    pub fn record_count(&self, count: u32, record_size: usize) -> Result<usize, ProtocolError> {
        let count = count as usize;
        let remaining = self.bytes.len() - self.pos;
        if count
            .checked_mul(record_size)
            .is_none_or(|need| need > remaining)
        {
            return Err(ProtocolError::Corrupt(format!(
                "{}: {count} records of >= {record_size} bytes in {remaining} remaining bytes",
                self.what
            )));
        }
        Ok(count)
    }

    /// Require that the payload was consumed exactly.
    pub fn finish(self) -> Result<(), ProtocolError> {
        if self.pos != self.bytes.len() {
            return Err(ProtocolError::Corrupt(format!(
                "{} payload has {} trailing bytes",
                self.what,
                self.bytes.len() - self.pos
            )));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Domain types
// ---------------------------------------------------------------------------

const VALUE_INT: u8 = 0;
const VALUE_STR: u8 = 1;
const VALUE_BOOL: u8 = 2;

/// Encode an attribute value.
pub fn put_value(w: &mut WireWriter, value: &Value) {
    match value {
        Value::Int(i) => {
            w.u8(VALUE_INT);
            w.i64(*i);
        }
        Value::Str(s) => {
            w.u8(VALUE_STR);
            w.str(s);
        }
        Value::Bool(b) => {
            w.u8(VALUE_BOOL);
            w.u8(u8::from(*b));
        }
    }
}

/// Decode an attribute value.
pub fn get_value(r: &mut WireReader<'_>) -> Result<Value, ProtocolError> {
    match r.u8()? {
        VALUE_INT => Ok(Value::Int(r.i64()?)),
        VALUE_STR => Ok(Value::Str(r.str()?)),
        VALUE_BOOL => Ok(Value::Bool(r.u8()? != 0)),
        tag => Err(ProtocolError::Corrupt(format!("unknown Value tag {tag}"))),
    }
}

/// Encode an attribute map, sorted by attribute name for canonical bytes.
pub fn put_attrs(w: &mut WireWriter, attrs: &AttrMap) {
    let mut pairs: Vec<(Sym, &Value)> = attrs.iter().collect();
    pairs.sort_by_key(|&(name, _)| name.as_str());
    w.u32(pairs.len() as u32);
    for (name, value) in pairs {
        w.sym(name);
        put_value(w, value);
    }
}

/// Decode an attribute map.
pub fn get_attrs(r: &mut WireReader<'_>) -> Result<AttrMap, ProtocolError> {
    let raw_count = r.u32()?;
    let count = r.record_count(raw_count, 6)?;
    let mut attrs = AttrMap::new();
    for _ in 0..count {
        let name = r.sym()?;
        let value = get_value(r)?;
        attrs.set(name, value);
    }
    Ok(attrs)
}

fn put_edge(w: &mut WireWriter, edge: EdgeRef) {
    w.u32(edge.src.0);
    w.u32(edge.dst.0);
    w.sym(edge.label);
}

fn get_edge(r: &mut WireReader<'_>) -> Result<EdgeRef, ProtocolError> {
    let src = NodeId(r.u32()?);
    let dst = NodeId(r.u32()?);
    let label = r.sym()?;
    Ok(EdgeRef::new(src, dst, label))
}

const OP_INSERT: u8 = 0;
const OP_DELETE: u8 = 1;

/// Encode a batch update (`ΔG`).
pub fn put_batch(w: &mut WireWriter, batch: &BatchUpdate) {
    w.u32(batch.new_nodes.len() as u32);
    for node in &batch.new_nodes {
        w.sym(node.label);
        put_attrs(w, &node.attrs);
    }
    w.u32(batch.ops.len() as u32);
    for op in &batch.ops {
        match op {
            EdgeOp::Insert(e) => {
                w.u8(OP_INSERT);
                put_edge(w, *e);
            }
            EdgeOp::Delete(e) => {
                w.u8(OP_DELETE);
                put_edge(w, *e);
            }
        }
    }
}

/// Decode a batch update.
pub fn get_batch(r: &mut WireReader<'_>) -> Result<BatchUpdate, ProtocolError> {
    let mut batch = BatchUpdate::new();
    let raw_nodes = r.u32()?;
    let nodes = r.record_count(raw_nodes, 8)?;
    for _ in 0..nodes {
        let label = r.sym()?;
        let attrs = get_attrs(r)?;
        batch.new_nodes.push(NewNode { label, attrs });
    }
    let raw_ops = r.u32()?;
    let ops = r.record_count(raw_ops, 13)?;
    for _ in 0..ops {
        let tag = r.u8()?;
        let edge = get_edge(r)?;
        batch.ops.push(match tag {
            OP_INSERT => EdgeOp::Insert(edge),
            OP_DELETE => EdgeOp::Delete(edge),
            other => {
                return Err(ProtocolError::Corrupt(format!(
                    "unknown EdgeOp tag {other}"
                )))
            }
        });
    }
    Ok(batch)
}

/// Encode one violation.
pub fn put_violation(w: &mut WireWriter, violation: &Violation) {
    w.str(&violation.rule_id);
    w.u32(violation.nodes.len() as u32);
    for node in &violation.nodes {
        w.u32(node.0);
    }
}

/// Decode one violation.
pub fn get_violation(r: &mut WireReader<'_>) -> Result<Violation, ProtocolError> {
    let rule_id = r.str()?;
    let raw_count = r.u32()?;
    let count = r.record_count(raw_count, 4)?;
    let mut nodes = Vec::with_capacity(count);
    for _ in 0..count {
        nodes.push(NodeId(r.u32()?));
    }
    Ok(Violation::new(rule_id, nodes))
}

/// Encode a slice of violations (one streamed chunk).
pub fn put_violations(w: &mut WireWriter, violations: &[&Violation]) {
    w.u32(violations.len() as u32);
    for violation in violations {
        put_violation(w, violation);
    }
}

/// Decode a chunk of violations.
pub fn get_violations(r: &mut WireReader<'_>) -> Result<Vec<Violation>, ProtocolError> {
    let raw_count = r.u32()?;
    let count = r.record_count(raw_count, 8)?;
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        out.push(get_violation(r)?);
    }
    Ok(out)
}

/// Encode the full cost ledger, followed by one reserved `u64` (always 0;
/// it used to carry the cross-fragment fetch count).
pub fn put_cost(w: &mut WireWriter, cost: &CostLedger) {
    w.f64(cost.latency_units);
    w.u64(cost.scanned);
    w.u64(cost.splits);
    w.u64(cost.local_expansions);
    w.u64(cost.migrations);
    w.u64(0);
}

/// Decode a cost ledger (the trailing reserved `u64` is read and ignored).
pub fn get_cost(r: &mut WireReader<'_>) -> Result<CostLedger, ProtocolError> {
    let cost = CostLedger {
        latency_units: r.f64()?,
        scanned: r.u64()?,
        splits: r.u64()?,
        local_expansions: r.u64()?,
        migrations: r.u64()?,
    };
    r.u64()?;
    Ok(cost)
}

/// Encode matcher statistics.
pub fn put_stats(w: &mut WireWriter, stats: &SearchStats) {
    w.u64(stats.expanded as u64);
    w.u64(stats.candidates_inspected as u64);
    w.u64(stats.matches_found as u64);
    w.u64(stats.gallop_intersections as u64);
    w.u64(stats.plan_cache_hits);
    w.u64(stats.plan_cache_misses);
}

/// Decode matcher statistics.
pub fn get_stats(r: &mut WireReader<'_>) -> Result<SearchStats, ProtocolError> {
    Ok(SearchStats {
        expanded: r.u64()? as usize,
        candidates_inspected: r.u64()? as usize,
        matches_found: r.u64()? as usize,
        gallop_intersections: r.u64()? as usize,
        plan_cache_hits: r.u64()?,
        plan_cache_misses: r.u64()?,
    })
}

/// Rebuild a [`ViolationSet`] from streamed chunks.
pub fn collect_set(chunks: impl IntoIterator<Item = Violation>) -> ViolationSet {
    chunks.into_iter().collect()
}

/// Rebuild a [`DeltaViolations`] from streamed added/removed chunks.
pub fn collect_delta(
    added: impl IntoIterator<Item = Violation>,
    removed: impl IntoIterator<Item = Violation>,
) -> DeltaViolations {
    DeltaViolations {
        added: collect_set(added),
        removed: collect_set(removed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = WireWriter::new();
        w.u8(7);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 1);
        w.i64(-42);
        w.f64(2.5);
        w.str("héllo");
        w.sym(intern("follower"));
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes, "test");
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.i64().unwrap(), -42);
        assert_eq!(r.f64().unwrap(), 2.5);
        assert_eq!(r.str().unwrap(), "héllo");
        assert_eq!(r.sym().unwrap(), intern("follower"));
        r.finish().unwrap();
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut w = WireWriter::new();
        w.u32(1);
        w.u8(0);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes, "test");
        r.u32().unwrap();
        assert!(matches!(r.finish(), Err(ProtocolError::Corrupt(_))));
    }

    #[test]
    fn overruns_are_typed_not_panics() {
        let mut r = WireReader::new(&[1, 2], "test");
        assert!(matches!(r.u64(), Err(ProtocolError::Corrupt(_))));
        // A crafted count larger than the payload fails before allocating.
        let mut w = WireWriter::new();
        w.u32(u32::MAX);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes, "test");
        let count = r.u32().unwrap();
        assert!(matches!(
            r.record_count(count, 4),
            Err(ProtocolError::Corrupt(_))
        ));
    }

    #[test]
    fn batch_update_round_trips() {
        let mut batch = BatchUpdate::new();
        let node = batch.add_node(
            10,
            intern("account"),
            AttrMap::from_pairs([
                ("follower", Value::Int(2)),
                ("name", Value::Str("x".into())),
            ]),
        );
        batch.insert_edge(NodeId(3), node, intern("keys"));
        batch.delete_edge(NodeId(1), NodeId(2), intern("status"));
        let mut w = WireWriter::new();
        put_batch(&mut w, &batch);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes, "batch");
        let back = get_batch(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back, batch);
    }

    #[test]
    fn violations_and_reports_round_trip() {
        let violations: Vec<Violation> = vec![
            Violation::new("phi1", vec![NodeId(1), NodeId(2)]),
            Violation::new("phi2", vec![NodeId(9)]),
        ];
        let mut w = WireWriter::new();
        put_violations(&mut w, &violations.iter().collect::<Vec<_>>());
        let cost = CostLedger {
            scanned: 77,
            migrations: 5,
            ..CostLedger::default()
        };
        put_cost(&mut w, &cost);
        put_stats(
            &mut w,
            &SearchStats {
                expanded: 1,
                candidates_inspected: 2,
                matches_found: 3,
                gallop_intersections: 6,
                plan_cache_hits: 4,
                plan_cache_misses: 5,
            },
        );
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes, "report");
        assert_eq!(get_violations(&mut r).unwrap(), violations);
        let cost_back = get_cost(&mut r).unwrap();
        assert_eq!(cost_back.migrations, 5);
        assert_eq!(cost_back.scanned, 77);
        let stats = get_stats(&mut r).unwrap();
        assert_eq!(stats.matches_found, 3);
        assert_eq!(stats.plan_cache_hits, 4);
        assert_eq!(stats.plan_cache_misses, 5);
        r.finish().unwrap();
    }

    #[test]
    fn value_tags_reject_unknowns() {
        let mut r = WireReader::new(&[9], "value");
        assert!(matches!(get_value(&mut r), Err(ProtocolError::Corrupt(_))));
    }

    #[test]
    fn attr_encoding_is_canonical_regardless_of_insertion_order() {
        let mut a = AttrMap::new();
        a.set_named("zz", Value::Int(1));
        a.set_named("aa", Value::Int(2));
        let mut b = AttrMap::new();
        b.set_named("aa", Value::Int(2));
        b.set_named("zz", Value::Int(1));
        let encode = |attrs: &AttrMap| {
            let mut w = WireWriter::new();
            put_attrs(&mut w, attrs);
            w.into_bytes()
        };
        assert_eq!(encode(&a), encode(&b));
    }
}
