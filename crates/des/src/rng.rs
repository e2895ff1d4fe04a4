//! A tiny deterministic RNG (SplitMix64).
//!
//! The simulator core is deterministic and does not use randomness, but a few
//! peripheral components (synthetic traffic generators in the garnet backend
//! tests, workload jitter experiments) want a reproducible stream without
//! pulling `rand` into every crate.

/// SplitMix64 pseudo-random generator.
///
/// Passes BigCrush when used as a 64-bit stream; perfectly adequate for
/// generating reproducible synthetic workloads.
///
/// # Example
///
/// ```
/// use astra_des::rng::SplitMix64;
/// let mut a = SplitMix64::new(42);
/// let mut b = SplitMix64::new(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_stream() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut r = SplitMix64::new(3);
        for _ in 0..1000 {
            let v = r.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn rough_uniformity() {
        let mut r = SplitMix64::new(1234);
        let mut buckets = [0u32; 10];
        for _ in 0..10_000 {
            buckets[(r.next_f64() * 10.0) as usize] += 1;
        }
        for &b in &buckets {
            assert!((700..1300).contains(&b), "bucket count {b} far from 1000");
        }
    }
}
