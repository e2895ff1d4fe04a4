//! The analytical link-level backend.
//!
//! Every directed physical link is modeled as a FIFO server: a message
//! occupies the link for `wire_bytes / (bandwidth)` cycles (wire bytes fold
//! in the packet/header efficiency of Table III rows 17–21) and is available
//! at the next node one propagation latency later. Multi-hop routes are
//! relayed store-and-forward, matching the paper's *software routing*
//! setting, where intermediate NPUs forward whole messages; under
//! hardware routing the same hop function lets them cut through.
//!
//! This is the same level of abstraction the real ASTRA-sim project ships as
//! its "analytical" backend, and it is exact for the paper's bandwidth-test
//! experiments: with FIFO links and deterministic routes, queueing is fully
//! determined by injection order.

use crate::faults::FaultPlan;
use crate::link_index::LinkIndex;
use crate::message::{InFlight, InFlightMsg};
use crate::{
    Arrival, Backend, Message, NetEvent, NetScheduler, NetStats, NetworkConfig, NetworkError,
};
use astra_des::{SlabKey, Time};
use astra_topology::{LinkClass, LogicalTopology, Route};

#[derive(Debug)]
struct LinkState {
    class: LinkClass,
    busy_until: Time,
}

/// A message's progress along its path.
#[derive(Debug, Default)]
struct Hops {
    hop: usize,
    /// When the message's tail arrives at the end of its latest hop (zero
    /// before the first hop starts).
    tail_arrival: Time,
}

/// The analytical link-level network backend; the module documentation
/// above describes the model.
#[derive(Debug)]
pub struct AnalyticalNet {
    links: Links,
    /// In-flight messages; a `HopArrive` names its message's slot.
    messages: InFlight<Hops>,
}

/// The link servers and their accounting, kept apart from the in-flight
/// messages so a hop can start on a message borrowed from them.
#[derive(Debug)]
struct Links {
    config: NetworkConfig,
    links: Vec<LinkState>,
    index: LinkIndex,
    stats: NetStats,
}

impl AnalyticalNet {
    /// Builds the backend for a topology's physical links.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails validation (see
    /// [`NetworkConfig::validate`]), or if the topology has `u32::MAX` or
    /// more physical links.
    pub fn new(topo: &LogicalTopology, config: &NetworkConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid network config: {e}");
        }
        let index = LinkIndex::new(topo);
        let links: Vec<_> = index
            .classes()
            .iter()
            .map(|&class| LinkState {
                class,
                busy_until: Time::ZERO,
            })
            .collect();
        AnalyticalNet {
            links: Links {
                config: *config,
                stats: NetStats::with_links(links.len()),
                links,
                index,
            },
            messages: InFlight::default(),
        }
    }
}

impl Links {
    /// Starts serializing the current hop of message `s` and schedules the
    /// message's next event. Links are work-conserving FIFO servers, and a
    /// hop due inside a hard-down window starts when the window ends.
    ///
    /// Under software routing (store-and-forward) a hop starts only once
    /// the whole message has arrived, and the next event is the tail's
    /// arrival downstream. Under hardware routing (cut-through) the next
    /// hop wakes when the *head* reaches its transmitter (one propagation
    /// latency plus one router delay after this hop started), so
    /// downstream serialization overlaps upstream serialization; a hop may
    /// not finish before the tail has arrived from the previous hop
    /// (wormhole tail constraint, which also covers a fast link after a
    /// slow one). Store-and-forward hops start after that arrival, so the
    /// constraint never binds for them.
    fn start_hop(&mut self, q: &mut dyn NetScheduler, s: &mut InFlightMsg<Hops>, msg: SlabKey) {
        let path = s.path.as_slice();
        let (link_idx, hop, bytes) = (path[s.state.hop] as usize, s.state.hop, s.msg.bytes);
        let class = self.links[link_idx].class;
        let params = *self.config.link(class);
        let raw_start = q.now().max(self.links[link_idx].busy_until);
        let (start, factor) = self.index.fault_release(link_idx, raw_start);
        self.stats.fault_stall_cycles += (start - raw_start).cycles();
        let ser = self
            .config
            .clock
            .serialization_time(params.wire_bytes(bytes), params.gbps * factor);
        let finish = (start + ser).max(s.state.tail_arrival);
        self.links[link_idx].busy_until = finish;
        s.first_tx_start = s.first_tx_start.min(start);
        s.state.tail_arrival = finish + params.latency;
        self.stats.record_hop(link_idx, class, bytes, ser);
        let cut_through =
            self.config.routing == crate::RoutingMode::Hardware && hop + 1 < path.len();
        let next = if cut_through {
            start + params.latency + self.config.router_latency
        } else {
            s.state.tail_arrival
        };
        q.schedule_at(next, NetEvent::HopArrive { msg });
    }
}

impl Backend for AnalyticalNet {
    fn send(
        &mut self,
        queue: &mut dyn NetScheduler,
        msg: Message,
        route: Route,
    ) -> Result<(), NetworkError> {
        let (slot, m) = self
            .messages
            .admit(&self.links.index, msg, &route, queue.now())?;
        self.links.start_hop(queue, m, slot);
        Ok(())
    }

    fn handle(
        &mut self,
        queue: &mut dyn NetScheduler,
        event: NetEvent,
        arrivals: &mut Vec<Arrival>,
    ) {
        let NetEvent::HopArrive { msg } = event else {
            // Garnet events never reach an analytical backend.
            unreachable!("analytical backend received a garnet event: {event:?}");
        };
        let m = self.messages.get_mut(msg).expect("HopArrive's message");
        m.state.hop += 1;
        if m.state.hop < m.path.as_slice().len() {
            self.links.start_hop(queue, m, msg);
            return;
        }
        self.messages
            .deliver(msg, queue.now(), &mut self.links.stats, arrivals);
    }

    fn stats(&self) -> &NetStats {
        &self.links.stats
    }

    fn in_flight(&self) -> usize {
        self.messages.len()
    }

    fn audit_quiescent(&self) -> Result<(), String> {
        self.messages.audit("analytical")
    }

    fn install_link_faults(&mut self, plan: &FaultPlan) {
        self.links.index.install_faults(plan);
    }
}

#[cfg(test)]
mod fault_tests {
    use crate::backend_tests::{
        check_degrade_window, check_down_window, check_empty_plan, one_send, plan, ANALYTICAL,
    };
    use crate::faults::FaultKind;
    use astra_des::Time;

    #[test]
    fn empty_plan_is_bit_identical() {
        check_empty_plan(&ANALYTICAL);
    }

    #[test]
    fn down_window_delays_hop_start() {
        check_down_window(&ANALYTICAL);
    }

    #[test]
    fn degrade_window_scales_bandwidth() {
        check_degrade_window(&ANALYTICAL);
    }

    #[test]
    fn fault_is_directional() {
        // 0 -> 1 is unaffected by the reverse-direction outage.
        let reverse_down = plan(1, 0, FaultKind::Down, 0, 1_000);
        let (arr, stalls) = one_send(&ANALYTICAL, Some(&reverse_down));
        assert_eq!(arr.delivered, Time::from_cycles(15));
        assert_eq!(stalls, 0);
    }

    #[test]
    fn expired_window_has_no_effect() {
        // The message injects at cycle 0; a window that ended "earlier"
        // can't exist before 0, so use a window that starts after the
        // transmission already began.
        let late_down = plan(0, 1, FaultKind::Down, 50, 100);
        let (arr, stalls) = one_send(&ANALYTICAL, Some(&late_down));
        // Hop starts at 0, before the outage: unaffected.
        assert_eq!(arr.delivered, Time::from_cycles(15));
        assert_eq!(stalls, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend_tests::{
        analytical_ring, drain, one_send, send_and_drain, send_pairs_to_quiescence, ANALYTICAL,
    };
    use crate::MsgId;
    use astra_des::EventQueue;
    use astra_topology::{Dim, LogicalTopology, NodeId};

    #[test]
    fn single_hop_latency_is_serialization_plus_propagation() {
        let (arr, _) = one_send(&ANALYTICAL, None);
        // 100 B at 10 B/cyc = 10 cyc serialize + 5 cyc latency.
        assert_eq!(arr.delivered, Time::from_cycles(15));
        assert_eq!(arr.source_queueing(), Time::ZERO);
    }

    #[test]
    fn two_messages_on_one_link_queue_fifo() {
        let (topo, cfg) = analytical_ring();
        let mut net = AnalyticalNet::new(&topo, &cfg);
        let arr = send_and_drain(&mut net, &topo, &[(0, 0, 1, 100), (1, 0, 1, 100)]);
        assert_eq!(arr.len(), 2);
        let m0 = arr.iter().find(|a| a.message.id == MsgId(0)).unwrap();
        let m1 = arr.iter().find(|a| a.message.id == MsgId(1)).unwrap();
        assert_eq!(m0.delivered, Time::from_cycles(15));
        // Second message waits 10 cycles for the link.
        assert_eq!(m1.delivered, Time::from_cycles(25));
        assert_eq!(m1.source_queueing(), Time::from_cycles(10));
    }

    #[test]
    fn multi_hop_is_store_and_forward() {
        let (topo, cfg) = analytical_ring();
        let mut net = AnalyticalNet::new(&topo, &cfg);
        // Distance-2 software-routed send: 0 -> 1 -> 2.
        let arr = send_and_drain(&mut net, &topo, &[(0, 0, 2, 100)]);
        // Two hops, each 10 + 5 cycles, sequentially.
        assert_eq!(arr[0].delivered, Time::from_cycles(30));
        assert_eq!(arr[0].message.dst, NodeId(2));
    }

    #[test]
    fn disjoint_links_do_not_contend() {
        let (topo, cfg) = analytical_ring();
        let mut net = AnalyticalNet::new(&topo, &cfg);
        // 0 -> 1 and 1 -> 2.
        let arr = send_and_drain(&mut net, &topo, &[(0, 0, 1, 100), (1, 1, 1, 100)]);
        assert!(arr.iter().all(|a| a.delivered == Time::from_cycles(15)));
    }

    #[test]
    fn efficiency_and_packets_inflate_wire_time() {
        let (topo, mut cfg) = analytical_ring();
        cfg.package.efficiency = 0.5;
        cfg.package.packet_bytes = 64;
        let mut net = AnalyticalNet::new(&topo, &cfg);
        let arr = send_and_drain(&mut net, &topo, &[(0, 0, 1, 100)]);
        // 100/0.5 = 200 -> round to 256 wire bytes -> 26 cyc ser (ceil) + 5.
        assert_eq!(arr[0].delivered, Time::from_cycles(26 + 5));
    }

    #[test]
    fn unknown_link_rejected() {
        // Build net on a 4-ring, then ask for a vertical route from another topo.
        let (topo, cfg) = analytical_ring();
        let mut net = AnalyticalNet::new(&topo, &cfg);
        let other = LogicalTopology::torus(1, 1, 4, 1, 1, 1).unwrap();
        let route = other.ring_route(Dim::Vertical, 0, NodeId(0), 1).unwrap();
        let mut q = EventQueue::new();
        assert!(matches!(
            net.send(&mut q, Message::new(0, NodeId(0), NodeId(1), 10, 0), route),
            Err(NetworkError::UnknownLink { .. })
        ));
    }

    #[test]
    fn stats_accumulate() {
        let (topo, cfg) = analytical_ring();
        let mut net = AnalyticalNet::new(&topo, &cfg);
        let mut q = EventQueue::new();
        let route = topo.ring_route(Dim::Horizontal, 0, NodeId(0), 2).unwrap();
        net.send(&mut q, Message::new(0, NodeId(0), NodeId(2), 100, 0), route)
            .unwrap();
        assert_eq!(net.in_flight(), 1);
        drain(&mut net, &mut q);
        assert_eq!(net.in_flight(), 0);
        let s = net.stats();
        assert_eq!(s.delivered, 1);
        assert_eq!(s.payload_bytes, 100);
        // Two package-class hops of 100 payload bytes each.
        assert_eq!(s.package_link_bytes, 200);
        assert_eq!(s.local_link_bytes, 0);
    }

    #[test]
    fn delivered_messages_free_their_slots_for_reuse() {
        let (topo, cfg) = analytical_ring();
        let mut net = AnalyticalNet::new(&topo, &cfg);
        send_pairs_to_quiescence(&mut net, &topo, 100);
        // Six messages, never more than two in flight.
        assert_eq!(net.messages.capacity_used(), 2);
    }
}

#[cfg(test)]
mod hardware_routing_tests {
    use super::*;
    use crate::backend_tests::{analytical_ring, send_and_drain};
    use crate::{MsgId, RoutingMode};
    use astra_topology::LogicalTopology;

    /// The analytical ring's links on an 8-NPU ring, with `routing`.
    fn ring(routing: RoutingMode) -> (LogicalTopology, NetworkConfig) {
        let topo = LogicalTopology::torus(1, 8, 1, 1, 1, 1).unwrap();
        let (_, mut cfg) = analytical_ring();
        cfg.routing = routing;
        cfg.router_latency = Time::from_cycles(1);
        (topo, cfg)
    }

    fn deliver_one(routing: RoutingMode, hops: usize, bytes: u64) -> Arrival {
        let (topo, cfg) = ring(routing);
        let mut net = AnalyticalNet::new(&topo, &cfg);
        let out = send_and_drain(&mut net, &topo, &[(0, 0, hops, bytes)]);
        assert_eq!(out.len(), 1);
        out[0]
    }

    #[test]
    fn cut_through_pipelines_hops() {
        // 100 B over 3 hops at 10 B/cyc, 5 cyc latency, 1 cyc router.
        // Software: 3 x (10 + 5) = 45.
        // Hardware: start_i = i * (5 + 1); delivery = 12 + 10 + 5 = 27.
        let sw = deliver_one(RoutingMode::Software, 3, 100);
        let hw = deliver_one(RoutingMode::Hardware, 3, 100);
        assert_eq!(sw.delivered, Time::from_cycles(45));
        assert_eq!(hw.delivered, Time::from_cycles(27));
    }

    #[test]
    fn routes_longer_than_the_inline_path_keep_their_timing() {
        // Store-and-forward over 4 (inline) and 7 (heap) hops: 15 cyc each.
        for hops in [crate::link_index::INLINE_HOPS, 7] {
            let sw = deliver_one(RoutingMode::Software, hops, 100);
            assert_eq!(sw.delivered, Time::from_cycles(15 * hops as u64));
        }
    }

    #[test]
    fn single_hop_identical_under_both_modes() {
        let sw = deliver_one(RoutingMode::Software, 1, 100);
        let hw = deliver_one(RoutingMode::Hardware, 1, 100);
        assert_eq!(sw.delivered, hw.delivered);
    }

    #[test]
    fn hardware_never_slower_than_software() {
        for hops in 1..=7 {
            for bytes in [1u64, 64, 1000, 100_000] {
                let sw = deliver_one(RoutingMode::Software, hops, bytes);
                let hw = deliver_one(RoutingMode::Hardware, hops, bytes);
                assert!(
                    hw.delivered <= sw.delivered,
                    "hw {} > sw {} at {hops} hops, {bytes} B",
                    hw.delivered,
                    sw.delivered
                );
            }
        }
    }

    #[test]
    fn cut_through_respects_link_fifo() {
        let (topo, cfg) = ring(RoutingMode::Hardware);
        let mut net = AnalyticalNet::new(&topo, &cfg);
        // Two messages sharing the first link; the second must queue.
        let out = send_and_drain(&mut net, &topo, &[(0, 0, 2, 100), (1, 0, 2, 100)]);
        let m0 = out.iter().find(|a| a.message.id == MsgId(0)).unwrap();
        let m1 = out.iter().find(|a| a.message.id == MsgId(1)).unwrap();
        assert_eq!(m1.source_queueing(), Time::from_cycles(10));
        assert!(m1.delivered > m0.delivered);
    }
}
