//! The hash policy of every table the engine touches per edge or per match.
//!
//! [`FastMap`] is a `std` `HashMap` keyed through [`FastState`], a
//! folded-multiply hasher: each word written is XORed into a 64-bit state
//! that is then multiplied by a constant, with the 128-bit product folded
//! back to 64 bits. An integer key costs one multiply, where SipHash-1-3
//! runs several rounds per word.
//!
//! Vertex ids come from the stream (e.g. flow endpoints) and can be chosen
//! by whoever sends the traffic, so the hash must not be predictable: a
//! fixed function would let a sender pick ids that all land in one bucket.
//! The state is therefore seeded once per process from `std`'s
//! `RandomState`, which draws its keys from the operating system.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasher, Hasher};
use std::sync::OnceLock;

/// A `HashMap` using [`FastState`].
pub type FastMap<K, V> = HashMap<K, V, FastState>;

/// Odd multiplier of the state update (the PCG LCG constant).
const MULTIPLE: u64 = 0x5851_f42d_4c95_7f2d;

#[inline]
fn folded_multiply(a: u64, b: u64) -> u64 {
    let full = u128::from(a) * u128::from(b);
    (full as u64) ^ ((full >> 64) as u64)
}

/// Builds [`FastHasher`]s from a seed drawn once per process.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct FastState {
    start: u64,
    pad: u64,
}

/// Like `RandomState`, the seed is not printed: it is what keeps the
/// hashes unpredictable.
impl fmt::Debug for FastState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FastState").finish_non_exhaustive()
    }
}

impl Default for FastState {
    /// The process-wide seed: every call in one process returns the same
    /// state, so maps built apart hash alike.
    fn default() -> Self {
        static SEED: OnceLock<FastState> = OnceLock::new();
        *SEED.get_or_init(|| {
            let keys = RandomState::new();
            FastState {
                start: keys.hash_one(0u64),
                pad: keys.hash_one(1u64),
            }
        })
    }
}

impl BuildHasher for FastState {
    type Hasher = FastHasher;

    #[inline]
    fn build_hasher(&self) -> FastHasher {
        FastHasher {
            state: self.start,
            pad: self.pad,
        }
    }
}

/// The hasher behind [`FastState`].
#[derive(Clone)]
pub struct FastHasher {
    state: u64,
    pad: u64,
}

impl fmt::Debug for FastHasher {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FastHasher").finish_non_exhaustive()
    }
}

impl FastHasher {
    #[inline]
    fn update(&mut self, word: u64) {
        self.state = folded_multiply(self.state ^ word, MULTIPLE);
    }
}

impl Hasher for FastHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.update(u64::from_le_bytes(word.try_into().expect("8-byte chunk")));
        }
        let mut tail = [0u8; 8];
        tail[..words.remainder().len()].copy_from_slice(words.remainder());
        self.update(u64::from_le_bytes(tail) ^ ((bytes.len() as u64) << 56));
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.update(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.update(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.update(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.update(n as u64);
    }

    /// Mixes the state with the seed's second half; the rotation moves the
    /// well-mixed middle bits into both the low bits (the bucket index) and
    /// the top bits (the table's control byte).
    #[inline]
    fn finish(&self) -> u64 {
        folded_multiply(self.state, self.pad).rotate_left((self.state & 63) as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EdgeId, VertexId};
    use std::hash::Hash;

    /// Largest count over `buckets` of the hashes `bucket_of` maps into
    /// them, divided by the mean count.
    fn max_over_mean(hashes: &[u64], buckets: usize, bucket_of: impl Fn(u64) -> usize) -> f64 {
        let mut load = vec![0usize; buckets];
        for &h in hashes {
            load[bucket_of(h)] += 1;
        }
        let mean = hashes.len() as f64 / buckets as f64;
        *load.iter().max().unwrap() as f64 / mean
    }

    /// Checks the low bits (the bucket index of a 1024-bucket table) and
    /// the top 7 bits (the control byte) of the keys' hashes.
    fn assert_spreads<K: Hash>(keys: impl Iterator<Item = K>) {
        let state = FastState::default();
        let hashes: Vec<u64> = keys.map(|k| state.hash_one(k)).collect();
        let low = max_over_mean(&hashes, 1024, |h| (h & 1023) as usize);
        let top = max_over_mean(&hashes, 128, |h| (h >> 57) as usize);
        assert!(low <= 2.0, "low bits: max bucket load {low:.2}x the mean");
        assert!(top <= 2.0, "top 7 bits: max bucket load {top:.2}x the mean");
    }

    #[test]
    fn sequential_vertex_ids_spread() {
        assert_spreads((0..100_000u64).map(VertexId));
    }

    #[test]
    fn sequential_edge_ids_spread() {
        assert_spreads((0..100_000u64).map(EdgeId));
    }

    #[test]
    fn seed_is_drawn_once_per_process() {
        let (a, b) = (FastState::default(), FastState::default());
        assert_eq!(a, b);
        assert_eq!(a.hash_one(VertexId(7)), b.hash_one(VertexId(7)));
        assert_eq!(format!("{a:?}"), "FastState { .. }");
    }

    #[test]
    fn byte_tails_of_different_length_differ() {
        let state = FastState::default();
        let hash_bytes = |bytes: &[u8]| {
            let mut h = state.build_hasher();
            h.write(bytes);
            h.finish()
        };
        assert_ne!(hash_bytes(&[1, 2]), hash_bytes(&[1, 2, 0]));
        assert_ne!(hash_bytes(&[0; 8]), hash_bytes(&[0; 9]));
    }
}
