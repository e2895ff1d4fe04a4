//! Simulation time.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulation time, measured in clock cycles.
///
/// `Time` doubles as a duration: the difference of two `Time`s is a `Time`,
/// and durations add onto points. At the default 1 GHz clock used by the
/// evaluation harness, one cycle equals one nanosecond, so a link bandwidth
/// of 25 GB/s is exactly 25 bytes/cycle (see [`crate::Clock`]).
///
/// One overflow rule holds in every build profile: `+`, `+=`, `Sum` and
/// [`Time::scale`] saturate at [`Time::MAX`], which stands for "overflowed"
/// (see there). `-` must take an earlier time from a later one, which
/// debug builds check.
///
/// # Example
///
/// ```
/// use astra_des::Time;
/// let t = Time::from_cycles(100) + Time::from_cycles(20);
/// assert_eq!(t.cycles(), 120);
/// assert!(t > Time::ZERO);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Time(u64);

impl Time {
    /// The origin of simulation time (also the zero duration).
    pub const ZERO: Time = Time(0);

    /// The overflow value, where `+`, `+=`, `Sum` and [`Time::scale`]
    /// saturate. No event may happen at it: the system layer's event loop
    /// fails with a typed overflow error when it pops one, so the last
    /// valid cycle is `u64::MAX - 1`.
    pub const MAX: Time = Time(u64::MAX);

    /// Creates a time from a raw cycle count.
    #[inline]
    pub const fn from_cycles(cycles: u64) -> Self {
        Time(cycles)
    }

    /// Returns the raw cycle count.
    #[inline]
    pub const fn cycles(self) -> u64 {
        self.0
    }

    /// Saturating subtraction: `self - rhs`, clamped at zero.
    ///
    /// Useful for "exposed time" style accounting where a negative stall
    /// simply means no stall.
    #[inline]
    pub const fn saturating_sub(self, rhs: Time) -> Time {
        Time(self.0.saturating_sub(rhs.0))
    }

    /// Interprets this value as a duration and scales it by `num/den`,
    /// rounding up and saturating at [`Time::MAX`]. Panics if `den == 0`.
    ///
    /// This is used for compute-power sweeps (e.g. Fig 18 of the paper scales
    /// every layer's compute delay by 0.5×–4×).
    #[inline]
    pub fn scale(self, num: u64, den: u64) -> Time {
        assert!(den != 0, "scale denominator must be nonzero");
        let v = (self.0 as u128 * num as u128).div_ceil(den as u128);
        Time(u64::try_from(v).unwrap_or(u64::MAX))
    }
}

impl Add for Time {
    type Output = Time;
    #[inline]
    fn add(self, rhs: Time) -> Time {
        Time(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for Time {
    #[inline]
    fn add_assign(&mut self, rhs: Time) {
        *self = *self + rhs;
    }
}

impl Sub for Time {
    type Output = Time;
    #[inline]
    fn sub(self, rhs: Time) -> Time {
        Time(self.0 - rhs.0)
    }
}

impl Sum for Time {
    fn sum<I: Iterator<Item = Time>>(iter: I) -> Time {
        iter.fold(Time::ZERO, Add::add)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} cyc", self.0)
    }
}

impl From<u64> for Time {
    fn from(cycles: u64) -> Self {
        Time(cycles)
    }
}

impl From<Time> for u64 {
    fn from(t: Time) -> u64 {
        t.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_roundtrip() {
        let a = Time::from_cycles(7);
        let b = Time::from_cycles(3);
        assert_eq!((a + b).cycles(), 10);
        assert_eq!((a - b).cycles(), 4);
        let mut c = a;
        c += b;
        assert_eq!(c.cycles(), 10);
    }

    #[test]
    fn saturating_sub_clamps() {
        assert_eq!(
            Time::from_cycles(3).saturating_sub(Time::from_cycles(10)),
            Time::ZERO
        );
        assert_eq!(
            Time::from_cycles(10).saturating_sub(Time::from_cycles(3)),
            Time::from_cycles(7)
        );
    }

    #[test]
    fn ordering_and_minmax() {
        let a = Time::from_cycles(1);
        let b = Time::from_cycles(2);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }

    #[test]
    fn scale_rounds_up() {
        assert_eq!(Time::from_cycles(10).scale(1, 3), Time::from_cycles(4));
        assert_eq!(Time::from_cycles(10).scale(2, 1), Time::from_cycles(20));
        assert_eq!(Time::from_cycles(0).scale(7, 2), Time::ZERO);
    }

    #[test]
    #[should_panic(expected = "denominator")]
    fn scale_zero_den_panics() {
        let _ = Time::from_cycles(1).scale(1, 0);
    }

    #[test]
    fn sum_of_times() {
        let total: Time = [1u64, 2, 3].iter().map(|&c| Time::from_cycles(c)).sum();
        assert_eq!(total, Time::from_cycles(6));
    }

    #[test]
    fn display_shows_cycles() {
        assert_eq!(Time::from_cycles(42).to_string(), "42 cyc");
    }

    #[test]
    fn conversions() {
        let t: Time = 9u64.into();
        let raw: u64 = t.into();
        assert_eq!(raw, 9);
    }

    #[test]
    fn arithmetic_saturates_at_max() {
        let big = Time::from_cycles(u64::MAX - 1);
        assert_eq!(big + Time::from_cycles(2), Time::MAX);
        let mut t = big;
        t += big;
        assert_eq!(t, Time::MAX);
        assert_eq!([big, big, Time::ZERO].into_iter().sum::<Time>(), Time::MAX);
        assert_eq!(Time::from_cycles(1 << 60).scale(16, 1), Time::MAX);
        assert_eq!(Time::MAX.scale(1, 2), Time::from_cycles(1 << 63));
        assert_eq!(big + Time::from_cycles(1), Time::MAX);
    }
}
