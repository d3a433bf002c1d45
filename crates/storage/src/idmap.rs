//! The hash map of the engine's id-keyed tables: locks, the buffer pool's
//! LRU index and live transactions. Their keys are ids the engine mints and
//! index-key hashes that are already fixed-key SipHash, never raw outside
//! input, so FxHash's multiply-rotate step is enough and flooding is moot.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

pub(crate) type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

#[derive(Default)]
pub(crate) struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(b.into()));
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}
