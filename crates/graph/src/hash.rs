//! The keyed hasher of every table keyed by fixed-width ids.
//!
//! Node ids, interned symbols and the tuples built from them ([`EdgeRef`],
//! label triples) are one to three `u32`s.  For such keys std's SipHash-1-3
//! costs several times what the table probe around it does, and the
//! graph build, the freeze, the overlay a `ΔG` is searched through and
//! the incremental matcher's edge ranks each make one lookup per node,
//! edge or op.  [`IdState`] hashes with folded multiplies instead, the
//! construction of hashbrown's default hasher (foldhash): up to 128 bits
//! of key are packed into a buffer, whose two halves, each XORed with a
//! key, are multiplied into a 128-bit product whose halves are XORed
//! together.  `finish` folds that once more with a key, because a single
//! fold leaves the low bits — a table's bucket index — of keys that differ
//! only in a few low bits (consecutive node ids) clustered: up to 10× the
//! mean bucket load under some keys, which the spread test below catches.
//!
//! The keys are drawn once per process from std's [`RandomState`], and
//! every table derives its own from them (so iterating one table into
//! another never meets the first table's bucket order), which keeps the
//! bucket of a key unpredictable from outside the process.  Keys reaching
//! these tables are node ids below `|V|` and interned symbols, both
//! validated where they enter; strings (the interner, JSON, metric and
//! plan-cache names) keep SipHash.
//!
//! [`EdgeRef`]: crate::EdgeRef

use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// A `HashMap` keyed by ids, hashed by [`IdState`].
pub type IdMap<K, V> = HashMap<K, V, IdState>;
/// A `HashSet` of ids, hashed by [`IdState`].
pub type IdSet<K> = HashSet<K, IdState>;

/// The process's two keys, drawn from std's `RandomState` on first use.
fn process_keys() -> (u64, u64) {
    static KEYS: OnceLock<(u64, u64)> = OnceLock::new();
    *KEYS.get_or_init(|| {
        let state = RandomState::new();
        (state.hash_one(0u64), state.hash_one(1u64) | 1)
    })
}

/// The 128-bit product of `a` and `b`, its two halves XORed together.
#[inline]
fn folded_multiply(a: u64, b: u64) -> u64 {
    let product = u128::from(a) * u128::from(b);
    (product as u64) ^ ((product >> 64) as u64)
}

/// The [`BuildHasher`] of [`IdMap`] and [`IdSet`]: one table's keys.
#[derive(Debug, Clone, Copy)]
pub struct IdState {
    seed: u64,
    fold: u64,
}

impl Default for IdState {
    /// The process keys, with the seed made this table's own.
    fn default() -> Self {
        static TABLES: AtomicU64 = AtomicU64::new(0);
        let (seed, fold) = process_keys();
        // A count, not a publication: `Relaxed` suffices.
        let table = TABLES.fetch_add(1, Ordering::Relaxed);
        IdState {
            seed: folded_multiply(seed ^ table, fold),
            fold,
        }
    }
}

impl BuildHasher for IdState {
    type Hasher = IdHasher;

    #[inline]
    fn build_hasher(&self) -> IdHasher {
        IdHasher {
            acc: self.seed,
            fold: self.fold,
            buffer: 0,
            bits: 0,
        }
    }
}

/// The hasher [`IdState`] builds: integers are packed into a 128-bit
/// buffer, which is folded into the accumulator whenever it is full and
/// by `finish`, which folds the result once more.
#[derive(Debug, Clone)]
pub struct IdHasher {
    acc: u64,
    fold: u64,
    buffer: u128,
    bits: u32,
}

impl IdHasher {
    #[inline]
    fn fold_buffer(&self) -> u64 {
        folded_multiply(
            self.buffer as u64 ^ self.acc,
            (self.buffer >> 64) as u64 ^ self.fold,
        )
    }

    #[inline]
    fn push(&mut self, value: u64, bits: u32) {
        if self.bits + bits > 128 {
            self.acc = self.fold_buffer();
            self.buffer = u128::from(value);
            self.bits = bits;
        } else {
            self.buffer |= u128::from(value) << self.bits;
            self.bits += bits;
        }
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        folded_multiply(self.fold_buffer(), self.fold)
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.push(u64::from_le_bytes(word), 64);
        }
    }

    #[inline]
    fn write_u32(&mut self, value: u32) {
        self.push(u64::from(value), 32);
    }

    #[inline]
    fn write_u64(&mut self, value: u64) {
        self.push(value, 64);
    }

    #[inline]
    fn write_usize(&mut self, value: usize) {
        self.push(value as u64, 64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{EdgeRef, NodeId};
    use crate::interner::Sym;
    use std::hash::Hash;

    /// How evenly `keys` spread over the two parts of a hash a SwissTable
    /// uses: the top 7 bits (the tag compared in a probe group) and the
    /// low 16 bits (the bucket of a 64k-slot table).  Uniform hashing puts
    /// `n / 128` keys under each tag and `n / 65 536` in each bucket.
    fn assert_spread<K: Hash>(what: &str, keys: impl Iterator<Item = K>) {
        let state = IdState::default();
        let mut tags = vec![0u32; 128];
        let mut buckets = vec![0u32; 1 << 16];
        let mut n = 0u32;
        for key in keys {
            let hash = state.hash_one(key);
            tags[(hash >> 57) as usize] += 1;
            buckets[(hash & 0xffff) as usize] += 1;
            n += 1;
        }
        // Every tag within a factor 1.5 of its share (≥ 8 standard
        // deviations at n = 262 144 keys).
        let share = f64::from(n) / 128.0;
        for (tag, &count) in tags.iter().enumerate() {
            let ratio = f64::from(count) / share;
            assert!(
                (1.0 / 1.5..=1.5).contains(&ratio),
                "{what}: tag {tag} holds {count} keys, {ratio:.2}x its share"
            );
        }
        // Buckets: at most 6x the mean load (4 keys), and at least 90 %
        // of them used (98 % under uniform hashing).
        let mean = f64::from(n) / 65_536.0;
        let fullest = buckets.iter().copied().max().unwrap_or(0);
        assert!(
            f64::from(fullest) <= 6.0 * mean,
            "{what}: a bucket holds {fullest} keys, mean {mean}"
        );
        let used = buckets.iter().filter(|&&count| count > 0).count();
        assert!(
            used as f64 >= 0.9 * 65_536.0,
            "{what}: {used} of 65 536 buckets used"
        );
    }

    #[test]
    fn structured_id_keys_spread_like_uniform_hashing() {
        assert_eq!(1 << 18, 256 * 256 * 4);
        let grid = (0..256u32).flat_map(|src| {
            (0..256u32).flat_map(move |dst| {
                (0..4u32).map(move |label| EdgeRef::new(NodeId(src), NodeId(dst), Sym(label + 1)))
            })
        });
        assert_spread("edge grid", grid);
        assert_spread("consecutive node ids", (0..1u32 << 18).map(NodeId));
        let triples = (0..64u32)
            .flat_map(|s| (0..64u32).flat_map(move |l| (0..64u32).map(move |d| (s, l, d))))
            .map(|(s, l, d)| (Sym(s), Sym(l), Sym(d)));
        assert_spread("label triples", triples);
    }

    #[test]
    fn tables_use_their_own_seeds_and_equal_keys_hash_equally() {
        let (a, b) = (IdState::default(), IdState::default());
        let key = EdgeRef::new(NodeId(3), NodeId(9), Sym(2));
        assert_eq!(a.hash_one(key), a.hash_one(key));
        assert_ne!(a.hash_one(key), b.hash_one(key));
        let set: IdSet<EdgeRef> = [key, key].into_iter().collect();
        assert_eq!(set.len(), 1);
    }
}
