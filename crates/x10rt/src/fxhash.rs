//! A small, fast, non-cryptographic hasher for runtime-generated integer
//! keys (the Fx hash: rotate, xor, multiply per word).
//!
//! The per-message maps of the runtime — a coalescer's destination buffers,
//! a place's finish proxies, a proxy's per-peer spawn and receipt tallies —
//! are keyed by place indices and finish ids the runtime mints itself. No
//! adversary chooses those keys, so the HashDoS resistance that `std`'s
//! SipHash pays for buys nothing there, while its cost lands on every
//! message. One multiply per key word is enough for well-spread buckets.
//!
//! Over the TCP back-end a finish id can arrive from another process of the
//! same launch; those peers passed the handshake and can already run any
//! registered command, so they are inside the trust boundary. Keep `std`'s
//! hasher for keys from anything outside it.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// The multiplier of the Fx hash (an odd constant with well-mixed bits).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Fx-style hasher: each written word is folded in with a rotate, an xor
/// and one multiply.
#[derive(Copy, Clone, Default, Debug)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `BuildHasher` for [`FxHasher`] (stateless, so every map hashes alike).
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` hashed with [`FxHasher`]. Build with `FxHashMap::default()`.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: T) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn equal_keys_hash_equal_and_neighbours_differ() {
        assert_eq!(hash_of(7u32), hash_of(7u32));
        assert_eq!(hash_of((3u32, 9u64)), hash_of((3u32, 9u64)));
        let hashes: std::collections::HashSet<u64> = (0..4096u32).map(hash_of).collect();
        assert_eq!(hashes.len(), 4096, "consecutive ids must not collide");
    }

    #[test]
    fn byte_writes_cover_partial_words() {
        let mut a = FxHasher::default();
        a.write(&[1, 2, 3]);
        let mut b = FxHasher::default();
        b.write(&[1, 2, 4]);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn map_round_trips() {
        let mut m: FxHashMap<usize, u64> = FxHashMap::default();
        for i in 0..1000 {
            *m.entry(i % 37).or_insert(0) += 1;
        }
        assert_eq!(m.len(), 37);
        assert_eq!(m.values().sum::<u64>(), 1000);
    }
}
