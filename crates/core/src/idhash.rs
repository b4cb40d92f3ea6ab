//! A cheap hash for keys the server makes itself.
//!
//! The encoder's identity maps are keyed by addresses of `Arc`s the
//! server allocated and by [`kem::HandlerId`]'s precomputed path hash.
//! No client chooses those keys, so they need spreading, not SipHash's
//! resistance to chosen collisions: one multiply, with the high half of
//! the 128-bit product folded into the low half. The fold matters for
//! addresses: they are 8- or 16-byte aligned, so a product's low bits
//! alone would leave most buckets empty. Maps keyed by content a client
//! chooses — strings, value trees — keep std's hasher.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` over keys the server makes itself.
pub(crate) type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A multiply-fold hasher for integer-like keys; see the module doc.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        // An odd constant with well-mixed bits (2^64 / φ).
        let product = u128::from(self.0 ^ v) * 0x9e37_79b9_7f4a_7c15;
        self.0 = (product as u64) ^ ((product >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn aligned_addresses_fill_the_low_bits() {
        let build = BuildHasherDefault::<IdHasher>::default();
        for align in [8usize, 16] {
            let buckets: std::collections::HashSet<u64> = (0..1024usize)
                .map(|i| build.hash_one(0x7f00_0000_0000 + i * align) & 1023)
                .collect();
            // Uniform hashing fills 1 - 1/e ≈ 63 % of the buckets.
            assert!(buckets.len() > 550, "{align}: {} buckets", buckets.len());
        }
    }
}
