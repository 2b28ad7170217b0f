//! The binary layout of snapshot files: header, section table, blob
//! encoding and the checksum.
//!
//! Everything here is **little-endian** and **public contract**: the golden
//! format test pins these bytes, and any change to them must bump
//! [`VERSION`] (see the module docs of [`crate::persist`] for the policy).
//!
//! ```text
//! ┌───────────────────────────────┐ offset 0
//! │ header (64 bytes)             │
//! ├───────────────────────────────┤ offset 64
//! │ section table                 │ SECTION_ENTRY_LEN bytes per section
//! ├───────────────────────────────┤ align_up(64 + 32·k, 64)
//! │ section payloads, each padded │
//! │ to SECTION_ALIGN bytes        │
//! └───────────────────────────────┘ total_len
//! ```
//!
//! Header layout (all fields little-endian):
//!
//! | offset | size | field                                             |
//! |--------|------|---------------------------------------------------|
//! | 0      | 8    | magic `NGDSNAP\0`                                 |
//! | 8      | 4    | format version                                    |
//! | 12     | 4    | file kind (1 = snapshot; 2 reserved, rejected)     |
//! | 16     | 4    | section count                                     |
//! | 20     | 4    | section alignment (= 64)                          |
//! | 24     | 8    | total file length in bytes                        |
//! | 32     | 8    | [`file_checksum`] of `bytes[64..total_len]`       |
//! | 40     | 8    | node count                                        |
//! | 48     | 8    | edge count                                        |
//! | 56     | 8    | snapshot epoch (version ≥ 2; reserved 0 in v1)    |
//!
//! Section-table entry layout (32 bytes each):
//!
//! | offset | size | field                                             |
//! |--------|------|---------------------------------------------------|
//! | 0      | 4    | section kind ([`kind`])                           |
//! | 4      | 4    | owner (always 0)                                  |
//! | 8      | 8    | absolute byte offset (multiple of 64)             |
//! | 16     | 8    | payload length in bytes (excludes padding)        |
//! | 24     | 8    | element count                                     |

use super::PersistError;
use crate::interner::Sym;
use crate::value::Value;

/// File magic, first 8 bytes of every snapshot file.
pub const MAGIC: [u8; 8] = *b"NGDSNAP\0";

/// Current format version (the "v1.1" layout: the formerly reserved
/// header word at offset 56 now carries the snapshot **epoch** stamped by
/// compaction).  Bump on ANY byte-layout change and re-bless the golden
/// file (`cargo test -p ngd-integration-tests persist_format -- --ignored`).
pub const VERSION: u32 = 2;

/// Oldest format version this build still reads.  Version-1 files differ
/// from version 2 only by the reserved word at offset 56 (always written
/// as zero), so they load as **epoch 0** with no other translation.
pub const MIN_VERSION: u32 = 1;

/// Header length in bytes.
pub const HEADER_LEN: usize = 64;

/// Length of one section-table entry in bytes.
pub const SECTION_ENTRY_LEN: usize = 32;

/// Alignment of every section payload, in bytes.  64 covers any scalar the
/// format stores (and a cache line), so memory-mapped sections can be
/// reinterpreted as `&[u32]`/`&[u64]` without copying.
pub const SECTION_ALIGN: usize = 64;

/// A file's string table on the process side: file symbol id ↔ [`Sym`],
/// dense both ways.  File ids follow the strings' lexicographic order;
/// `Sym → file id` is a vector indexed by `Sym.0` (symbols are small
/// dense integers), so translating a symbol is one bounds-checked load.
/// The writer, the loader and the compaction writer all hold one.
#[derive(Debug)]
pub(crate) struct SymTable {
    /// File id → symbol, in file order.
    syms: Vec<Sym>,
    /// Indexed by `Sym.0`; [`NO_FILE_ID`] where the file has no such
    /// symbol (as for every symbol past the end).
    ids: Vec<u32>,
}

/// [`SymTable`] sentinel.  Never a real id: a string table's entry count
/// is itself a `u32`, so file ids stop at `u32::MAX - 1`.
const NO_FILE_ID: u32 = u32::MAX;

impl SymTable {
    /// The table whose file id `i` is `syms[i]`; `syms` must be in
    /// strictly ascending string order.
    pub(crate) fn new(syms: Vec<Sym>) -> SymTable {
        debug_assert!(syms.windows(2).all(|w| w[0].as_str() < w[1].as_str()));
        let dense_len = syms.iter().map(|sym| sym.0 as usize + 1).max();
        let mut ids = vec![NO_FILE_ID; dense_len.unwrap_or(0)];
        for (fid, sym) in syms.iter().enumerate() {
            ids[sym.0 as usize] = fid as u32;
        }
        SymTable { syms, ids }
    }

    /// Number of strings in the table.
    pub(crate) fn len(&self) -> usize {
        self.syms.len()
    }

    /// The symbols in file-id order.
    pub(crate) fn syms(&self) -> &[Sym] {
        &self.syms
    }

    /// The symbol of a file id known to be in range.
    #[inline]
    pub(crate) fn sym(&self, fid: u32) -> Sym {
        self.syms[fid as usize]
    }

    /// The symbol of a file id read from a file.
    #[inline]
    pub(crate) fn sym_checked(&self, fid: u32) -> Result<Sym, PersistError> {
        self.syms.get(fid as usize).copied().ok_or_else(|| {
            PersistError::Corrupt(format!(
                "symbol id {fid} out of range ({} strings)",
                self.syms.len()
            ))
        })
    }

    /// The file id of `sym`, if the table has it.
    #[inline]
    pub(crate) fn get(&self, sym: Sym) -> Option<u32> {
        match self.ids.get(sym.0 as usize) {
            Some(&fid) if fid != NO_FILE_ID => Some(fid),
            _ => None,
        }
    }

    /// The file id of a symbol the table was built with.
    #[inline]
    pub(crate) fn file_id(&self, sym: Sym) -> u32 {
        self.get(sym).expect("symbol is in the table")
    }
}

/// File kinds.
pub mod file_kind {
    /// A single frozen snapshot ([`crate::MmapSnapshot`]).
    pub const SNAPSHOT: u32 = 1;
    /// Reserved: the sharded snapshots older builds wrote.  No writer for it
    /// remains and every loader rejects it with
    /// [`crate::PersistError::WrongKind`]; the value is kept so it is never reused.
    pub const SHARDED: u32 = 2;
}

/// Section kinds.  `u32` sections are flat little-endian `u32` arrays;
/// `blob` sections carry their own internal layout (documented at the
/// decoder).  Kinds 15–27 belonged to the retired sharded file kind and
/// are not reused.
pub mod kind {
    /// Blob: the file-local string table (`count`, then `len + UTF-8` each).
    pub const STRINGS: u32 = 1;
    /// u32 × `node_count`: per-node label as a file symbol id.
    pub const NODE_LABELS: u32 = 2;
    /// Blob: per-node attribute tuples.
    pub const NODE_ATTRS: u32 = 3;
    /// u32 × `node_count + 1`: out-CSR row offsets.
    pub const OUT_OFFSETS: u32 = 4;
    /// u32 × `edge entries`: out-CSR edge labels (file symbol ids).
    pub const OUT_LABELS: u32 = 5;
    /// u32 × `edge entries`: out-CSR neighbour node ids.
    pub const OUT_NEIGHBORS: u32 = 6;
    /// u32 × `node_count + 1`: in-CSR row offsets.
    pub const IN_OFFSETS: u32 = 7;
    /// u32 × `edge entries`: in-CSR edge labels (file symbol ids).
    pub const IN_LABELS: u32 = 8;
    /// u32 × `edge entries`: in-CSR neighbour node ids.
    pub const IN_NEIGHBORS: u32 = 9;
    /// u32 × `node_count`: node ids permuted so equal labels are contiguous.
    pub const LABEL_ORDER: u32 = 10;
    /// Blob: `(file sym, start, end)` ranges into [`LABEL_ORDER`].
    pub const LABEL_RANGES: u32 = 11;
    /// Blob: `(src sym, edge sym, dst sym, start, end)` triple ranges.
    pub const TRIPLE_RANGES: u32 = 12;
    /// u32 × `triple entries`: edge sources grouped by label triple.
    pub const TRIPLE_SRC: u32 = 13;
    /// u32 × `triple entries`: edge destinations, aligned with TRIPLE_SRC.
    pub const TRIPLE_DST: u32 = 14;
}

/// Round `value` up to the next multiple of [`SECTION_ALIGN`].
pub const fn align_up(value: usize) -> usize {
    value.div_ceil(SECTION_ALIGN) * SECTION_ALIGN
}

/// The integrity checksum of the snapshot format: a 64-bit multiply-xor
/// hash over little-endian `u64` words, processed in **four independent
/// lanes** (striped across consecutive 32-byte blocks) that are folded
/// together at the end.  The final partial block is zero-padded and the
/// total length is folded into the seed.
///
/// The lanes exist for speed: a single multiply chain is latency-bound at
/// a few cycles per word, while four lanes pipeline to roughly memory
/// bandwidth — the checksum runs on every load, and load time is the
/// whole point of the subsystem.  Any single flipped bit changes the
/// result: each lane step xors the word in and multiplies by an odd
/// constant (a bijection on `u64`), and the lane fold is itself a chain
/// of such steps.
///
/// Exposed so external tooling (and the corruption tests) can re-stamp a
/// file after a deliberate patch.
pub fn file_checksum(payload: &[u8]) -> u64 {
    const SEED: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x9e37_79b9_7f4a_7c15;
    let word = |chunk: &[u8]| u64::from_le_bytes(chunk.try_into().expect("8B"));
    let mut lanes = [
        SEED ^ (payload.len() as u64).wrapping_mul(PRIME),
        SEED.rotate_left(17),
        SEED.rotate_left(31),
        SEED.rotate_left(47),
    ];
    let mut blocks = payload.chunks_exact(32);
    for block in &mut blocks {
        for (lane, chunk) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = (*lane ^ word(chunk)).wrapping_mul(PRIME);
        }
    }
    let tail = blocks.remainder();
    if !tail.is_empty() {
        let mut padded = [0u8; 32];
        padded[..tail.len()].copy_from_slice(tail);
        for (lane, chunk) in lanes.iter_mut().zip(padded.chunks_exact(8)) {
            *lane = (*lane ^ word(chunk)).wrapping_mul(PRIME);
        }
    }
    let mut hash = lanes[0];
    for &lane in &lanes[1..] {
        hash = (hash ^ lane).wrapping_mul(PRIME);
        hash ^= hash >> 29;
    }
    hash
}

/// The decoded fixed-size file header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileHeader {
    /// Format version ([`VERSION`] for files this build writes).
    pub version: u32,
    /// One of [`file_kind`].
    pub file_kind: u32,
    /// Number of section-table entries.
    pub section_count: u32,
    /// Section alignment recorded in the file (must equal [`SECTION_ALIGN`]).
    pub section_align: u32,
    /// Total file length in bytes.
    pub total_len: u64,
    /// [`file_checksum`] (4-lane multiply-xor) of
    /// `bytes[HEADER_LEN..total_len]`.
    pub checksum: u64,
    /// Number of nodes in the (global) snapshot.
    pub node_count: u64,
    /// Number of edges in the (global) snapshot.
    pub edge_count: u64,
    /// Snapshot epoch: 0 for a freshly frozen graph, incremented by every
    /// compaction.  Version-1 files (whose word at offset 56 was reserved
    /// as zero) decode as epoch 0.
    pub epoch: u64,
}

impl FileHeader {
    /// Serialize the header into its 64-byte form.
    pub fn encode(&self) -> [u8; HEADER_LEN] {
        let mut out = [0u8; HEADER_LEN];
        out[0..8].copy_from_slice(&MAGIC);
        out[8..12].copy_from_slice(&self.version.to_le_bytes());
        out[12..16].copy_from_slice(&self.file_kind.to_le_bytes());
        out[16..20].copy_from_slice(&self.section_count.to_le_bytes());
        out[20..24].copy_from_slice(&self.section_align.to_le_bytes());
        out[24..32].copy_from_slice(&self.total_len.to_le_bytes());
        out[32..40].copy_from_slice(&self.checksum.to_le_bytes());
        out[40..48].copy_from_slice(&self.node_count.to_le_bytes());
        out[48..56].copy_from_slice(&self.edge_count.to_le_bytes());
        out[56..64].copy_from_slice(&self.epoch.to_le_bytes());
        out
    }

    /// Parse and validate magic + version from the first
    /// [`HEADER_LEN`] bytes of a file.
    ///
    /// Only magic and version are judged here; length/checksum validation
    /// needs the whole file and happens in the loader.
    pub fn parse(bytes: &[u8]) -> Result<FileHeader, PersistError> {
        if bytes.len() < HEADER_LEN {
            return Err(PersistError::Truncated {
                expected: HEADER_LEN as u64,
                actual: bytes.len() as u64,
            });
        }
        let mut magic = [0u8; 8];
        magic.copy_from_slice(&bytes[0..8]);
        if magic != MAGIC {
            return Err(PersistError::BadMagic { found: magic });
        }
        let le32 = |off: usize| u32::from_le_bytes(bytes[off..off + 4].try_into().expect("4B"));
        let le64 = |off: usize| u64::from_le_bytes(bytes[off..off + 8].try_into().expect("8B"));
        let version = le32(8);
        if !(MIN_VERSION..=VERSION).contains(&version) {
            return Err(PersistError::UnsupportedVersion {
                found: version,
                supported: VERSION,
            });
        }
        Ok(FileHeader {
            version,
            file_kind: le32(12),
            section_count: le32(16),
            section_align: le32(20),
            total_len: le64(24),
            checksum: le64(32),
            node_count: le64(40),
            edge_count: le64(48),
            // Version 1 reserved this word as zero; reading it as "epoch 0"
            // is exactly the back-compat contract of the v1.1 layout.
            epoch: if version >= 2 { le64(56) } else { 0 },
        })
    }
}

/// One decoded section-table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SectionEntry {
    /// One of [`kind`].
    pub kind: u32,
    /// Always 0 (non-zero owners belonged to the retired sharded kind).
    pub owner: u32,
    /// Absolute byte offset of the payload (multiple of [`SECTION_ALIGN`]).
    pub offset: u64,
    /// Payload length in bytes (excludes inter-section padding).
    pub byte_len: u64,
    /// Number of elements (array entries or blob records).
    pub elem_count: u64,
}

impl SectionEntry {
    /// Serialize the entry into its 32-byte form.
    pub fn encode(&self) -> [u8; SECTION_ENTRY_LEN] {
        let mut out = [0u8; SECTION_ENTRY_LEN];
        out[0..4].copy_from_slice(&self.kind.to_le_bytes());
        out[4..8].copy_from_slice(&self.owner.to_le_bytes());
        out[8..16].copy_from_slice(&self.offset.to_le_bytes());
        out[16..24].copy_from_slice(&self.byte_len.to_le_bytes());
        out[24..32].copy_from_slice(&self.elem_count.to_le_bytes());
        out
    }

    fn parse(bytes: &[u8]) -> SectionEntry {
        let le32 = |off: usize| u32::from_le_bytes(bytes[off..off + 4].try_into().expect("4B"));
        let le64 = |off: usize| u64::from_le_bytes(bytes[off..off + 8].try_into().expect("8B"));
        SectionEntry {
            kind: le32(0),
            owner: le32(4),
            offset: le64(8),
            byte_len: le64(16),
            elem_count: le64(24),
        }
    }
}

/// Parse the section table of a file whose header has already been
/// validated, checking every entry's bounds and alignment.
pub fn read_section_table(
    bytes: &[u8],
    header: &FileHeader,
) -> Result<Vec<SectionEntry>, PersistError> {
    let count = header.section_count as usize;
    let table_end = HEADER_LEN + count * SECTION_ENTRY_LEN;
    if bytes.len() < table_end {
        return Err(PersistError::Truncated {
            expected: table_end as u64,
            actual: bytes.len() as u64,
        });
    }
    let mut entries = Vec::with_capacity(count);
    for idx in 0..count {
        let start = HEADER_LEN + idx * SECTION_ENTRY_LEN;
        let entry = SectionEntry::parse(&bytes[start..start + SECTION_ENTRY_LEN]);
        if !entry.offset.is_multiple_of(SECTION_ALIGN as u64) {
            return Err(PersistError::MisalignedSection {
                kind: entry.kind,
                offset: entry.offset,
            });
        }
        if entry.offset < table_end as u64
            || entry.offset.saturating_add(entry.byte_len) > bytes.len() as u64
        {
            return Err(PersistError::Corrupt(format!(
                "section kind {} (owner {}) spans {}..{} outside the file ({} bytes)",
                entry.kind,
                entry.owner,
                entry.offset,
                entry.offset.saturating_add(entry.byte_len),
                bytes.len()
            )));
        }
        entries.push(entry);
    }
    Ok(entries)
}

/// A little-endian blob writer used for the variable-length sections.
#[derive(Debug, Default)]
pub(crate) struct BlobWriter {
    buf: Vec<u8>,
}

impl BlobWriter {
    pub(crate) fn new() -> Self {
        BlobWriter::default()
    }

    pub(crate) fn put_u8(&mut self, value: u8) {
        self.buf.push(value);
    }

    pub(crate) fn put_u32(&mut self, value: u32) {
        self.buf.extend_from_slice(&value.to_le_bytes());
    }

    pub(crate) fn put_i64(&mut self, value: i64) {
        self.buf.extend_from_slice(&value.to_le_bytes());
    }

    pub(crate) fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    pub(crate) fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// A bounds-checked little-endian blob reader; every overrun is a typed
/// [`PersistError::Corrupt`], never a panic.
#[derive(Debug)]
pub(crate) struct BlobReader<'a> {
    bytes: &'a [u8],
    pos: usize,
    what: &'static str,
}

impl<'a> BlobReader<'a> {
    pub(crate) fn new(bytes: &'a [u8], what: &'static str) -> Self {
        BlobReader {
            bytes,
            pos: 0,
            what,
        }
    }

    fn take(&mut self, len: usize) -> Result<&'a [u8], PersistError> {
        let end = self.pos.checked_add(len).ok_or_else(|| self.overrun())?;
        if end > self.bytes.len() {
            return Err(self.overrun());
        }
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn overrun(&self) -> PersistError {
        PersistError::Corrupt(format!(
            "{} blob ends early at byte {} of {}",
            self.what,
            self.pos,
            self.bytes.len()
        ))
    }

    pub(crate) fn u32(&mut self) -> Result<u32, PersistError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4B")))
    }

    pub(crate) fn bytes(&mut self, len: usize) -> Result<&'a [u8], PersistError> {
        self.take(len)
    }

    /// Require that the blob was consumed exactly.
    pub(crate) fn finish(self) -> Result<(), PersistError> {
        if self.pos != self.bytes.len() {
            return Err(PersistError::Corrupt(format!(
                "{} blob has {} trailing bytes",
                self.what,
                self.bytes.len() - self.pos
            )));
        }
        Ok(())
    }
}

/// One attribute value of a [`kind::NODE_ATTRS`] record, borrowed from the
/// blob.
#[derive(Debug, Clone, Copy)]
pub(crate) enum RawValue<'a> {
    Int(i64),
    Str(&'a str),
    Bool(bool),
}

impl From<RawValue<'_>> for Value {
    #[inline]
    fn from(raw: RawValue<'_>) -> Value {
        match raw {
            RawValue::Int(i) => Value::Int(i),
            RawValue::Str(s) => Value::Str(s.to_owned()),
            RawValue::Bool(b) => Value::Bool(b),
        }
    }
}

/// Why a [`kind::NODE_ATTRS`] record failed to decode.
#[derive(Debug, Clone, Copy)]
pub(crate) enum AttrFault {
    /// The record ends inside an entry.
    Overrun,
    /// A value tag other than 0, 1 or 2.
    Tag(u8),
    /// A string value that is not UTF-8.
    Utf8,
}

impl std::fmt::Display for AttrFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AttrFault::Overrun => write!(f, "record runs past the end of the blob"),
            AttrFault::Tag(tag) => write!(f, "unknown attribute value tag {tag}"),
            AttrFault::Utf8 => write!(f, "string is not UTF-8"),
        }
    }
}

/// The entries of one [`kind::NODE_ATTRS`] record, decoded one at a time —
/// the only decoder of attribute records.
///
/// A record is `count: u32` followed by `count` entries, each a name (file
/// symbol id, `u32`), a tag byte and its payload: `0` → `i64`, `1` →
/// `u32` length + UTF-8 bytes, `2` → one byte, non-zero meaning `true`.
/// Records are concatenated in the blob; [`AttrEntries::rest`] is where the
/// next one starts once this one is exhausted.
#[derive(Debug)]
pub(crate) struct AttrEntries<'a> {
    rest: &'a [u8],
    left: u32,
}

impl<'a> AttrEntries<'a> {
    /// Start decoding the record at the front of `bytes`.
    #[inline]
    pub(crate) fn new(mut bytes: &'a [u8]) -> Result<AttrEntries<'a>, AttrFault> {
        let left = u32::from_le_bytes(take(&mut bytes)?);
        Ok(AttrEntries { rest: bytes, left })
    }

    /// The bytes after the entries decoded so far.
    pub(crate) fn rest(&self) -> &'a [u8] {
        self.rest
    }
}

impl<'a> Iterator for AttrEntries<'a> {
    type Item = Result<(u32, RawValue<'a>), AttrFault>;

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        Some(read_entry(&mut self.rest))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left as usize, Some(self.left as usize))
    }
}

impl ExactSizeIterator for AttrEntries<'_> {}

#[inline]
fn take<const N: usize>(bytes: &mut &[u8]) -> Result<[u8; N], AttrFault> {
    let (head, tail) = bytes.split_first_chunk::<N>().ok_or(AttrFault::Overrun)?;
    *bytes = tail;
    Ok(*head)
}

#[inline]
fn read_entry<'a>(bytes: &mut &'a [u8]) -> Result<(u32, RawValue<'a>), AttrFault> {
    let name = u32::from_le_bytes(take(bytes)?);
    let [tag] = take(bytes)?;
    let value = match tag {
        0 => RawValue::Int(i64::from_le_bytes(take(bytes)?)),
        1 => {
            let len = u32::from_le_bytes(take(bytes)?) as usize;
            if bytes.len() < len {
                return Err(AttrFault::Overrun);
            }
            let (text, tail) = bytes.split_at(len);
            *bytes = tail;
            RawValue::Str(std::str::from_utf8(text).map_err(|_| AttrFault::Utf8)?)
        }
        2 => RawValue::Bool(take::<1>(bytes)?[0] != 0),
        other => return Err(AttrFault::Tag(other)),
    };
    Ok((name, value))
}
