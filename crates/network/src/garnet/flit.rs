//! Packet/flit decomposition (Table II's lower rungs) and the entries of a
//! link's VC queues.

use astra_des::SlabKey;

/// An entry of a link's VC queue; each VC serves its entries in FIFO
/// order, one flit per transmit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Queued {
    /// A flit forwarded from upstream.
    Flit {
        /// Slot of the flit's packet.
        packet: SlabKey,
        /// The link whose downstream buffer the flit occupies: that link's
        /// credit for the packet's VC returns when this flit is serialized
        /// onward.
        upstream: u32,
    },
    /// One message's packets not yet sent on this VC of its source link.
    Run(SourceRun),
}

/// A message's packets `k, k + V, k + 2V, …` (`V` VCs) waiting at its
/// source link. Only the packet whose head flit is on the wire has state
/// in the packet slab.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SourceRun {
    /// Slot of the owning message.
    pub msg: SlabKey,
    /// The packet whose flits are going on the wire; `None` between
    /// packets.
    pub packet: Option<SlabKey>,
    /// Flits not yet sent, the current packet's included. Every packet but
    /// the message's last is full-size, so the next packet has
    /// `min(full packet, flits)` flits.
    pub flits: u64,
    /// Flits of `packet` not yet sent.
    pub packet_flits: u64,
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

/// Flits of a packet carrying `payload` bytes: `ceil(payload/flit_bytes)`
/// data flits plus one header flit.
pub(crate) fn packet_flits(payload: u64, flit_bytes: u64) -> u64 {
    payload.div_ceil(flit_bytes) + 1
}

/// Decomposition of a message into packets of up to `packet_bytes` of
/// payload; only the last packet may be short.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FlitsOf {
    /// Packets in the message.
    pub packets: u64,
    full: u64,
    last: u64,
}

impl FlitsOf {
    pub fn new(msg_bytes: u64, packet_bytes: u64, flit_bytes: u64) -> Self {
        debug_assert!(msg_bytes > 0 && packet_bytes > 0 && flit_bytes > 0);
        let packets = msg_bytes.div_ceil(packet_bytes);
        FlitsOf {
            packets,
            full: packet_flits(packet_bytes, flit_bytes),
            last: packet_flits(msg_bytes - (packets - 1) * packet_bytes, flit_bytes),
        }
    }

    /// Total flits across all packets.
    pub fn total_flits(&self) -> u64 {
        (self.packets - 1) * self.full + self.last
    }

    /// Flits of packets `first, first + stride, …` below `packets`.
    pub fn run_flits(&self, first: u64, stride: u64) -> u64 {
        debug_assert!(first < self.packets);
        let span = self.packets - 1 - first;
        let flits = (span / stride + 1) * self.full;
        // The run ends with the message's last packet, which may be short.
        if span.is_multiple_of(stride) {
            flits - (self.full - self.last)
        } else {
            flits
        }
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
        assert_eq!((f.run_flits(0, 2), f.run_flits(1, 2)), (3, 3));
    }

    #[test]
    fn tail_packet() {
        // 300 B: one full 256 B packet (3 flits) + 44 B tail (1 data + 1 hdr).
        let f = FlitsOf::new(300, 256, 128);
        assert_eq!((f.run_flits(0, 2), f.run_flits(1, 2)), (3, 2));
        assert_eq!(f.total_flits(), 5);
    }

    #[test]
    fn tiny_message() {
        let f = FlitsOf::new(1, 256, 128);
        assert_eq!((f.packets, f.run_flits(0, 50)), (1, 2));
    }

    #[test]
    fn queue_entries_are_32_bytes() {
        assert_eq!(std::mem::size_of::<Queued>(), 32);
    }

    #[test]
    fn totals_match_iteration() {
        for bytes in [1u64, 100, 256, 257, 1000, 4096] {
            let f = FlitsOf::new(bytes, 256, 128);
            for stride in [1, 2, 3, 50] {
                let runs = (0..f.packets.min(stride)).map(|k| f.run_flits(k, stride));
                assert_eq!(f.total_flits(), runs.sum::<u64>(), "bytes={bytes}");
            }
        }
    }
}
