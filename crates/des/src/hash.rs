//! Stable content hashing.
//!
//! The simulator's determinism story extends to artifacts derived from
//! configurations: a result cache keyed by "the same experiment" needs a
//! hash that is identical across runs, processes, and platforms. Rust's
//! `DefaultHasher` is explicitly *not* stable across releases, so this
//! module provides a tiny fixed-algorithm alternative: 64-bit FNV-1a.
//!
//! FNV-1a is not cryptographic; callers that cannot tolerate collisions
//! must store (and compare) the full key alongside the digest, as
//! `astra-sweep`'s result cache does.
//!
//! The module also provides [`IdHasher`], the one hasher every per-event
//! map in the simulator uses: its keys are integer ids and small tuples of
//! them that the simulator mints itself, so the DoS resistance of the
//! standard SipHash buys nothing and its cost lands on every event.
//!
//! # Example
//!
//! ```
//! use astra_des::hash::fnv1a_64;
//!
//! // The digest is a constant of the input, not of the process.
//! assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
//! ```

/// FNV-1a 64-bit offset basis.
const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// One-shot 64-bit FNV-1a digest of `bytes`.
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(OFFSET_BASIS, |state, &b| {
        (state ^ u64::from(b)).wrapping_mul(PRIME)
    })
}

/// Odd multiplier of [`IdHasher`] (the FxHash constant).
const ID_MUL: u64 = 0x517c_c1b7_2722_0a95;

/// A multiplicative hasher for integer ids: one rotate, xor and multiply
/// per integer written.
///
/// Only for keys the simulator mints itself (message, collective and
/// callback ids, link coordinates): unlike the standard library's default
/// it offers no protection against keys crafted to collide. Map iteration
/// order under it is fixed but arbitrary, so nothing may iterate such a map
/// into an output.
///
/// ```
/// use astra_des::hash::IdMap;
///
/// let mut inflight: IdMap<u64, &str> = IdMap::default();
/// inflight.insert(7, "msg");
/// assert_eq!(inflight.get(&7), Some(&"msg"));
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct IdHasher {
    hash: u64,
}

impl IdHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(ID_MUL);
    }
}

impl std::hash::Hasher for IdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

/// `BuildHasher` of [`IdHasher`].
pub type IdBuildHasher = std::hash::BuildHasherDefault<IdHasher>;
/// A `HashMap` keyed by simulator-minted ids; see [`IdHasher`].
pub type IdMap<K, V> = std::collections::HashMap<K, V, IdBuildHasher>;
/// A `HashSet` of simulator-minted ids; see [`IdHasher`].
pub type IdSet<K> = std::collections::HashSet<K, IdBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn id_hasher_separates_dense_ids_and_tuples() {
        use std::hash::{BuildHasher, Hash, Hasher};
        let build = IdBuildHasher::default();
        let digest = |k: &dyn Fn(&mut IdHasher)| {
            let mut h = build.build_hasher();
            k(&mut h);
            h.finish()
        };
        // Sequential ids land on distinct hashes, in the low bits too
        // (hashbrown picks buckets from them).
        let low: IdSet<u64> = (0..4096u64)
            .map(|id| digest(&|h| id.hash(h)) & 0xfff)
            .collect();
        assert_eq!(low.len(), 4096);
        // Field order matters for tuple keys.
        assert_ne!(
            digest(&|h| (1u64, 2usize).hash(h)),
            digest(&|h| (2u64, 1usize).hash(h))
        );
        let mut m: IdMap<(u64, usize), u32> = IdMap::default();
        m.insert((3, 1), 9);
        assert_eq!(m.get(&(3, 1)), Some(&9));
        assert_eq!(m.get(&(1, 3)), None);
    }
}
