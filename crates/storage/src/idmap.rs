//! The engine's one fast hash. Unseeded, it keys the id-keyed tables: locks,
//! the buffer pool's LRU index and live transactions, whose keys are ids the
//! engine mints and index-key hashes that are already fixed-key SipHash.
//! Seeded per query, it keys the SQL executor's group table, whose keys are
//! tenant data.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

pub(crate) type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<FoldHasher>>;

/// Folds each word into the state with a 64×64 → 128-bit multiply whose
/// halves are XORed (the "folded multiply" of foldhash and aHash). The
/// carries between the halves depend on the whole state, so under a secret
/// seed a difference in any input bit — the top bit included — moves the
/// low bits that pick a bucket, in a way the input cannot steer.
#[derive(Default)]
pub struct FoldHasher(u64);

impl FoldHasher {
    /// A hasher whose state starts at `seed`.
    #[inline]
    pub fn with_seed(seed: u64) -> Self {
        FoldHasher(seed)
    }
}

#[inline]
fn fold(a: u64, b: u64) -> u64 {
    let p = u128::from(a) * u128::from(b);
    p as u64 ^ (p >> 64) as u64
}

impl Hasher for FoldHasher {
    /// Eight bytes at a time, after the length (so that a zero-padded tail
    /// is not the same input as one with zero bytes).
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        self.write_usize(bytes.len());
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.write_u64(u64::from_le_bytes(word.try_into().expect("8 bytes")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut word = [0; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, byte: u8) {
        self.write_u64(byte.into());
    }

    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.0 = fold(self.0 ^ word, 0x517c_c1b7_2722_0a95);
    }

    #[inline]
    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::RandomState;
    use std::hash::{BuildHasher, Hash};

    /// The longest run of `keys` that share a bucket of `2^bits`, under
    /// a fresh secret seed.
    fn longest_bucket<K: Hash>(keys: impl Iterator<Item = K>, bits: u32) -> usize {
        let seed = RandomState::new().hash_one(0u8);
        let mut buckets = vec![0; 1 << bits];
        for k in keys {
            let mut h = FoldHasher::with_seed(seed);
            k.hash(&mut h);
            buckets[(h.finish() & ((1 << bits) - 1)) as usize] += 1;
        }
        buckets.into_iter().max().unwrap_or(0)
    }

    /// Keys that differ only in high bits still spread, and the top-bit
    /// differential that collides a multiply-rotate hash whatever its seed
    /// (`(a, b)` and `(a ^ 1 << 63, b ^ 1 << 4)`) collides none.
    #[test]
    fn chosen_keys_spread_across_buckets() {
        for _ in 0..8 {
            assert!(longest_bucket((0..4096i64).map(|j| j << 51), 12) <= 12);
            assert!(longest_bucket((0..4096u64).map(|j| j << 52), 12) <= 12);
        }
        let seed = RandomState::new().hash_one(0u8);
        let hash = |key: (u64, u64)| {
            let mut h = FoldHasher::with_seed(seed);
            key.hash(&mut h);
            h.finish()
        };
        for a in 0..64 {
            assert_ne!(hash((a, 0)), hash((a ^ 1 << 63, 1 << 4)));
        }
    }

    #[test]
    fn a_zero_padded_tail_is_not_its_zero_bytes() {
        let hash = |bytes: &[u8]| {
            let mut h = FoldHasher::with_seed(7);
            h.write(bytes);
            h.finish()
        };
        assert_ne!(hash(b"ab"), hash(b"ab\0"));
        assert_ne!(hash(b""), hash(b"\0"));
    }
}
