//! Packet/flit decomposition (Table II's lower rungs).

use astra_des::SlabKey;

/// A flit waiting at a link transmitter: 8 bytes, because the source
/// queues hold every flit of every message in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct QueuedFlit {
    /// Slot of the flit's packet.
    pub packet: SlabKey,
    /// The link whose downstream buffer the flit occupies: that link's
    /// credit for the packet's VC returns when this flit is serialized
    /// onward. `NO_LINK` for flits still in the source injection queue.
    pub upstream: u32,
}

/// Per-packet bookkeeping.
#[derive(Debug)]
pub(crate) struct PacketState {
    /// Slot of the owning message.
    pub msg: SlabKey,
    /// Virtual channel the packet uses on every hop.
    pub vc: u32,
    /// Flits not yet consumed at the destination.
    pub flits_remaining: u64,
}

/// Decomposition of a message into packets and flits: each packet carries up
/// to `packet_bytes` of payload in `ceil(payload/flit_bytes)` data flits
/// plus one header flit.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FlitsOf {
    full_packets: u64,
    tail_payload: u64,
    packet_bytes: u64,
    flit_bytes: u64,
}

impl FlitsOf {
    pub fn new(msg_bytes: u64, packet_bytes: u64, flit_bytes: u64) -> Self {
        debug_assert!(msg_bytes > 0 && packet_bytes > 0 && flit_bytes > 0);
        FlitsOf {
            full_packets: msg_bytes / packet_bytes,
            tail_payload: msg_bytes % packet_bytes,
            packet_bytes,
            flit_bytes,
        }
    }

    fn flits_for(&self, payload: u64) -> u64 {
        payload.div_ceil(self.flit_bytes) + 1 // +1 header flit
    }

    /// Total flits across all packets.
    pub fn total_flits(&self) -> u64 {
        let full = self.full_packets * self.flits_for(self.packet_bytes);
        let tail = if self.tail_payload > 0 {
            self.flits_for(self.tail_payload)
        } else {
            0
        };
        full + tail
    }

    /// Iterates over per-packet flit counts.
    pub fn packets(&self) -> impl Iterator<Item = u64> + '_ {
        let full = self.flits_for(self.packet_bytes);
        let tail = (self.tail_payload > 0).then(|| self.flits_for(self.tail_payload));
        (0..self.full_packets).map(move |_| full).chain(tail)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_packets() {
        // 512 B message, 256 B packets, 128 B flits: 2 packets x (2+1) flits.
        let f = FlitsOf::new(512, 256, 128);
        assert_eq!(f.total_flits(), 6);
        assert_eq!(f.packets().collect::<Vec<_>>(), vec![3, 3]);
    }

    #[test]
    fn tail_packet() {
        // 300 B: one full 256 B packet (3 flits) + 44 B tail (1 data + 1 hdr).
        let f = FlitsOf::new(300, 256, 128);
        assert_eq!(f.packets().collect::<Vec<_>>(), vec![3, 2]);
        assert_eq!(f.total_flits(), 5);
    }

    #[test]
    fn tiny_message() {
        let f = FlitsOf::new(1, 256, 128);
        assert_eq!(f.packets().collect::<Vec<_>>(), vec![2]);
    }

    #[test]
    fn queued_flits_are_8_bytes() {
        assert_eq!(std::mem::size_of::<QueuedFlit>(), 8);
    }

    #[test]
    fn totals_match_iteration() {
        for bytes in [1u64, 100, 256, 257, 1000, 4096] {
            let f = FlitsOf::new(bytes, 256, 128);
            assert_eq!(f.total_flits(), f.packets().sum::<u64>(), "bytes={bytes}");
        }
    }
}
