//! Exact non-negative rational arithmetic for data-scale bookkeeping.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::Mul;

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// An exact non-negative fraction `num/den`.
///
/// Used for the planner's data-scale bookkeeping, where floating point would
/// silently drift: the traffic factors the paper quotes (e.g. `126/64·N`)
/// must come out exact.
///
/// # Example
///
/// ```
/// use astra_collectives::Ratio;
/// let r = Ratio::new(2, 8) * Ratio::new(4, 1);
/// assert_eq!(r, Ratio::ONE);
/// assert_eq!(Ratio::new(7, 8).apply(1024), 896);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Ratio {
    num: u64,
    den: u64,
}

impl Ratio {
    /// Zero.
    pub const ZERO: Ratio = Ratio { num: 0, den: 1 };
    /// One.
    pub const ONE: Ratio = Ratio { num: 1, den: 1 };

    /// Creates a reduced fraction.
    ///
    /// # Panics
    ///
    /// Panics if `den == 0`.
    pub fn new(num: u64, den: u64) -> Self {
        assert!(den != 0, "ratio denominator must be nonzero");
        if num == 0 {
            return Ratio::ZERO;
        }
        let g = gcd(num, den);
        Ratio {
            num: num / g,
            den: den / g,
        }
    }

    /// Numerator (reduced form).
    pub fn num(&self) -> u64 {
        self.num
    }

    /// Denominator (reduced form).
    pub fn den(&self) -> u64 {
        self.den
    }

    /// Adds two ratios (also available via the `+` operator).
    ///
    /// # Panics
    ///
    /// Panics if the reduced sum no longer fits in `u64` terms. Traffic
    /// factors are short sums of per-dimension fractions whose terms are
    /// bounded by the NPU count, so this is unreachable for any
    /// representable topology.
    pub fn checked_sum(self, other: Ratio) -> Ratio {
        // Cross-multiply in u128 to dodge overflow, then reduce.
        let num = self.num as u128 * other.den as u128 + other.num as u128 * self.den as u128;
        let den = self.den as u128 * other.den as u128;
        let g = {
            let (mut a, mut b) = (num, den);
            while b != 0 {
                (a, b) = (b, a % b);
            }
            a.max(1)
        };
        Ratio {
            num: u64::try_from(num / g).expect("ratio numerator overflow"),
            den: u64::try_from(den / g).expect("ratio denominator overflow"),
        }
    }

    /// Applies the ratio to a byte count, rounding up (a fractional byte
    /// still occupies the wire).
    ///
    /// # Panics
    ///
    /// Panics if the scaled count exceeds `u64::MAX` bytes — only possible
    /// when the ratio is a blow-up factor (`num > den`) applied to an
    /// already absurd payload.
    pub fn apply(self, bytes: u64) -> u64 {
        ((bytes as u128 * self.num as u128).div_ceil(self.den as u128))
            .try_into()
            .expect("scaled bytes overflow")
    }

    /// The ratio as an `f64` (for reporting only).
    pub fn to_f64(self) -> f64 {
        self.num as f64 / self.den as f64
    }
}

impl std::ops::Add for Ratio {
    type Output = Ratio;
    fn add(self, rhs: Ratio) -> Ratio {
        self.checked_sum(rhs)
    }
}

impl Mul for Ratio {
    type Output = Ratio;
    fn mul(self, rhs: Ratio) -> Ratio {
        // Reduce cross terms first to keep within u64.
        let g1 = gcd(self.num, rhs.den).max(1);
        let g2 = gcd(rhs.num, self.den).max(1);
        Ratio::new(
            (self.num / g1) * (rhs.num / g2),
            (self.den / g2) * (rhs.den / g1),
        )
    }
}

impl Default for Ratio {
    fn default() -> Self {
        Ratio::ONE
    }
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduces_on_construction() {
        let r = Ratio::new(4, 8);
        assert_eq!((r.num(), r.den()), (1, 2));
        assert_eq!(Ratio::new(0, 5), Ratio::ZERO);
    }

    #[test]
    fn multiplication_reduces() {
        let r = Ratio::new(3, 4) * Ratio::new(8, 9);
        assert_eq!((r.num(), r.den()), (2, 3));
    }

    #[test]
    fn addition() {
        let r = Ratio::new(1, 3) + Ratio::new(1, 6);
        assert_eq!((r.num(), r.den()), (1, 2));
        assert_eq!(Ratio::ZERO + Ratio::ONE, Ratio::ONE);
    }

    #[test]
    fn apply_rounds_up() {
        assert_eq!(Ratio::new(1, 3).apply(10), 4);
        assert_eq!(Ratio::new(1, 2).apply(10), 5);
        assert_eq!(Ratio::ONE.apply(10), 10);
        assert_eq!(Ratio::ZERO.apply(10), 0);
    }

    #[test]
    fn no_overflow_on_large_products() {
        let r =
            Ratio::new(u64::MAX / 2, u64::MAX / 2 + 1) * Ratio::new(u64::MAX / 2 + 1, u64::MAX / 2);
        assert_eq!(r, Ratio::ONE);
    }

    #[test]
    fn display() {
        assert_eq!(Ratio::new(28, 8).to_string(), "7/2");
        assert_eq!(Ratio::new(4, 2).to_string(), "2");
    }

    #[test]
    #[should_panic(expected = "denominator")]
    fn zero_denominator_panics() {
        Ratio::new(1, 0);
    }
}
