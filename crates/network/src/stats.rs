//! Network statistics.

use crate::Arrival;
use astra_des::stats::RunningStats;
use astra_des::Time;
use astra_topology::LinkClass;
use serde::{Deserialize, Serialize};

/// Per-link counters.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct LinkStats {
    /// Wire bytes serialized onto the link.
    pub bytes: u64,
    /// Cycles the link spent busy serializing.
    pub busy_cycles: u64,
    /// Messages (analytical) or flits (garnet) that traversed the link.
    pub traversals: u64,
}

impl LinkStats {
    /// Utilization over an observation window of `elapsed` cycles (0 if the
    /// window is empty).
    pub fn utilization(&self, elapsed: Time) -> f64 {
        if elapsed == Time::ZERO {
            0.0
        } else {
            self.busy_cycles as f64 / elapsed.cycles() as f64
        }
    }
}

/// Aggregate backend statistics.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct NetStats {
    /// Messages fully delivered.
    pub delivered: u64,
    /// Payload bytes delivered end-to-end.
    pub payload_bytes: u64,
    /// Payload bytes that crossed intra-package links (counted per hop).
    pub local_link_bytes: u64,
    /// Payload bytes that crossed inter-package links (counted per hop).
    pub package_link_bytes: u64,
    /// Payload bytes that crossed scale-out (inter-pod) links.
    pub scale_out_link_bytes: u64,
    /// End-to-end message latency distribution (cycles).
    pub latency: RunningStats,
    /// Source queueing delay distribution (cycles).
    pub source_queueing: RunningStats,
    /// Cycles transmissions spent stalled behind hard-down fault windows
    /// (0 unless a fault plan with link outages is installed).
    pub fault_stall_cycles: u64,
    /// Per-link counters, indexed by the backend's dense link index.
    pub links: Vec<LinkStats>,
}

impl NetStats {
    /// Creates stats with `num_links` zeroed per-link slots.
    pub fn with_links(num_links: usize) -> Self {
        NetStats {
            links: vec![LinkStats::default(); num_links],
            ..NetStats::default()
        }
    }

    /// Records a hop traversal.
    pub fn record_hop(&mut self, link: usize, class: LinkClass, payload: u64, busy: Time) {
        let l = &mut self.links[link];
        l.bytes += payload;
        l.busy_cycles += busy.cycles();
        l.traversals += 1;
        match class {
            LinkClass::Local => self.local_link_bytes += payload,
            LinkClass::Package => self.package_link_bytes += payload,
            LinkClass::ScaleOut => self.scale_out_link_bytes += payload,
        }
    }

    /// Records a completed delivery: its payload, its end-to-end latency
    /// (`delivered - injected`) and its source queueing.
    pub fn record_delivery(&mut self, arrival: &Arrival) {
        self.delivered += 1;
        self.payload_bytes += arrival.message.bytes;
        self.latency
            .record_time(arrival.delivered - arrival.injected);
        self.source_queueing.record_time(arrival.source_queueing());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Message;
    use astra_topology::NodeId;

    #[test]
    fn hop_and_delivery_accounting() {
        let mut s = NetStats::with_links(2);
        s.record_hop(0, LinkClass::Local, 100, Time::from_cycles(4));
        s.record_hop(1, LinkClass::Package, 100, Time::from_cycles(10));
        s.record_delivery(&Arrival {
            message: Message::new(0, NodeId(0), NodeId(1), 100, 0),
            injected: Time::from_cycles(10),
            first_tx_start: Time::from_cycles(15),
            delivered: Time::from_cycles(60),
        });
        assert_eq!(s.local_link_bytes, 100);
        assert_eq!(s.package_link_bytes, 100);
        assert_eq!(s.delivered, 1);
        assert_eq!(s.payload_bytes, 100);
        assert_eq!(s.latency.mean(), 50.0);
        assert_eq!(s.source_queueing.mean(), 5.0);
    }

    #[test]
    fn utilization_bounds() {
        let l = LinkStats {
            bytes: 0,
            busy_cycles: 50,
            traversals: 1,
        };
        assert_eq!(l.utilization(Time::from_cycles(100)), 0.5);
        assert_eq!(l.utilization(Time::ZERO), 0.0);
    }
}
