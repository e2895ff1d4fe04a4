//! Frequency / bandwidth conversions between physical units and cycles.

use crate::Time;
use serde::{Deserialize, Serialize};

/// Conversion helper between wall-clock units and simulation cycles.
///
/// The evaluation in the paper quotes link bandwidth in GB/s and latencies in
/// cycles (Table IV). A `Clock` pins down the cycle duration so the two can
/// be combined: at the default 1 GHz, a 25 GB/s link moves 25 bytes per
/// cycle and serializing a 1 MiB message takes 41 944 cycles.
///
/// # Example
///
/// ```
/// use astra_des::Clock;
/// let clk = Clock::GHZ1;
/// // 1 MiB over 25 GB/s.
/// let t = clk.serialization_time(1 << 20, 25.0);
/// assert_eq!(t.cycles(), 41944);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Clock {
    /// Clock frequency in GHz.
    freq_ghz: f64,
}

impl Clock {
    /// A 1 GHz clock: 1 cycle == 1 ns. This is the reference clock used by
    /// the bench harness.
    pub const GHZ1: Clock = Clock { freq_ghz: 1.0 };

    /// The clock frequency in GHz, as configured (a deserialized clock is
    /// unchecked: `NetworkConfig::validate` rejects a non-positive or
    /// non-finite one).
    pub fn freq_ghz(&self) -> f64 {
        self.freq_ghz
    }

    /// Converts a bandwidth in GB/s into bytes per cycle.
    ///
    /// GB here is 10^9 bytes (as in link datasheets), and 1 GHz is 10^9
    /// cycles/s, so at 1 GHz the numeric value is unchanged.
    pub fn bytes_per_cycle(&self, gbps: f64) -> f64 {
        gbps / self.freq_ghz
    }

    /// Number of cycles (rounded up, minimum 1 for a non-empty payload) to
    /// serialize `bytes` over a link of `gbps` GB/s.
    ///
    /// # Panics
    ///
    /// Panics if `gbps` is not strictly positive.
    pub fn serialization_time(&self, bytes: u64, gbps: f64) -> Time {
        assert!(gbps > 0.0, "bandwidth must be positive, got {gbps}");
        if bytes == 0 {
            return Time::ZERO;
        }
        let bpc = self.bytes_per_cycle(gbps);
        let cycles = (bytes as f64 / bpc).ceil() as u64;
        Time::from_cycles(cycles.max(1))
    }
}

impl Default for Clock {
    fn default() -> Self {
        Clock::GHZ1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_ghz_identity() {
        let c = Clock::GHZ1;
        assert_eq!(c.bytes_per_cycle(25.0), 25.0);
        assert_eq!(c.serialization_time(250, 25.0).cycles(), 10);
    }

    #[test]
    fn two_ghz_halves_bytes_per_cycle() {
        let c = Clock { freq_ghz: 2.0 };
        assert_eq!(c.bytes_per_cycle(25.0), 12.5);
        // 250 bytes at 12.5 B/cyc = 20 cycles.
        assert_eq!(c.serialization_time(250, 25.0).cycles(), 20);
    }

    #[test]
    fn serialization_of_zero_bytes_is_zero() {
        assert_eq!(Clock::GHZ1.serialization_time(0, 25.0), Time::ZERO);
    }

    #[test]
    fn tiny_message_takes_at_least_one_cycle() {
        assert_eq!(Clock::GHZ1.serialization_time(1, 200.0).cycles(), 1);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn negative_bandwidth_panics() {
        let _ = Clock::GHZ1.serialization_time(1, -1.0);
    }
}
