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

use crate::faults::{FaultPlan, LinkWindows};
use crate::link_index::{LinkIndex, LinkPath};
use crate::message::{check_send, SentIds};
use crate::{
    Arrival, Backend, Message, NetEvent, NetScheduler, NetStats, NetworkConfig, NetworkError,
};
use astra_des::{Slab, SlabKey, Time};
use astra_topology::{LinkClass, LogicalTopology, Route};

#[derive(Debug)]
struct LinkState {
    class: LinkClass,
    busy_until: Time,
}

#[derive(Debug)]
struct MsgState {
    msg: Message,
    path: LinkPath,
    hop: usize,
    injected: Time,
    first_tx_start: Time,
    /// When the message's tail arrives at the end of its latest hop (zero
    /// before the first hop starts).
    tail_arrival: Time,
}

/// The analytical link-level network backend; the module documentation
/// above describes the model.
#[derive(Debug)]
pub struct AnalyticalNet {
    links: Links,
    index: LinkIndex,
    /// The duplicate-id check at `send`, over the live `slots`.
    ids: SentIds,
    /// In-flight message states; a `HopArrive` names its message's slot.
    slots: Slab<MsgState>,
}

/// The link servers and their accounting, kept apart from the in-flight
/// slots so a hop can start on a message state borrowed from them.
#[derive(Debug)]
struct Links {
    config: NetworkConfig,
    links: Vec<LinkState>,
    stats: NetStats,
    /// Per-link fault windows, parallel to `links`. Empty (the default)
    /// means no fault plan is installed and every fault check is skipped,
    /// keeping fault-free timing bit-identical to the pre-fault model.
    fault_windows: Vec<LinkWindows>,
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
        let stats = NetStats::with_links(links.len());
        AnalyticalNet {
            links: Links {
                config: *config,
                links,
                stats,
                fault_windows: Vec::new(),
            },
            index,
            ids: SentIds::default(),
            slots: Slab::new(),
        }
    }
}

impl Links {
    /// Fault adjustment at a hop start: pushes `start` past any hard-down
    /// window (accounting the stall) and returns the bandwidth factor in
    /// effect at the adjusted start. No-op `(start, 1.0)` when no plan is
    /// installed.
    fn apply_link_faults(&mut self, link_idx: usize, start: Time) -> (Time, f64) {
        if self.fault_windows.is_empty() {
            return (start, 1.0);
        }
        let w = &self.fault_windows[link_idx];
        if w.is_empty() {
            return (start, 1.0);
        }
        let released = w.release_after(start);
        self.stats.fault_stall_cycles += (released - start).cycles();
        (released, w.factor_at(released))
    }

    /// Starts serializing the current hop of message `s` and schedules the
    /// message's next event. Links are work-conserving FIFO servers.
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
    fn start_hop(&mut self, q: &mut dyn NetScheduler, s: &mut MsgState, msg: SlabKey) {
        let path = s.path.as_slice();
        let (link_idx, hop, bytes) = (path[s.hop] as usize, s.hop, s.msg.bytes);
        let class = self.links[link_idx].class;
        let params = *self.config.link(class);
        let raw_start = q.now().max(self.links[link_idx].busy_until);
        let (start, factor) = self.apply_link_faults(link_idx, raw_start);
        let ser = self
            .config
            .clock
            .serialization_time(params.wire_bytes(bytes), params.gbps * factor);
        let finish = (start + ser).max(s.tail_arrival);
        self.links[link_idx].busy_until = finish;
        if hop == 0 {
            s.first_tx_start = start;
        }
        s.tail_arrival = finish + params.latency;
        self.stats.record_hop(link_idx, class, bytes, ser);
        let cut_through =
            self.config.routing == crate::RoutingMode::Hardware && hop + 1 < path.len();
        let next = if cut_through {
            start + params.latency + self.config.router_latency
        } else {
            s.tail_arrival
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
        let in_flight = self.slots.values().map(|s| &s.msg);
        let path = check_send(&mut self.ids, &self.index, &msg, &route, in_flight)?;
        let now = queue.now();
        let slot = self.slots.insert(MsgState {
            msg,
            path,
            hop: 0,
            injected: now,
            first_tx_start: now,
            tail_arrival: Time::ZERO,
        });
        let state = self.slots.get_mut(slot).expect("just inserted");
        self.links.start_hop(queue, state, slot);
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
        let Some(state) = self.slots.get_mut(msg) else {
            panic!("HopArrive for empty in-flight slot {}", msg.index());
        };
        state.hop += 1;
        if state.hop < state.path.as_slice().len() {
            self.links.start_hop(queue, state, msg);
            return;
        }
        let state = self.slots.remove(msg).expect("slot checked above");
        self.ids.delivered(state.msg.id);
        let arrival = Arrival {
            message: state.msg,
            injected: state.injected,
            first_tx_start: state.first_tx_start,
            delivered: queue.now(),
        };
        self.links.stats.record_delivery(&arrival);
        arrivals.push(arrival);
    }

    fn stats(&self) -> &NetStats {
        &self.links.stats
    }

    fn in_flight(&self) -> usize {
        self.slots.len()
    }

    fn audit_quiescent(&self) -> Result<(), String> {
        if !self.slots.is_empty() || self.ids.tracked() > 0 {
            return Err(format!(
                "analytical: {} message(s) still in flight ({} id(s) tracked)",
                self.slots.len(),
                self.ids.tracked()
            ));
        }
        self.slots
            .audit()
            .map_err(|e| format!("analytical: message {e}"))
    }

    fn install_link_faults(&mut self, plan: &FaultPlan) {
        self.links.fault_windows = self.index.fault_windows(plan);
    }
}

#[cfg(test)]
mod fault_tests {
    use super::tests::{drain, simple_ring};
    use super::*;
    use crate::faults::{FaultKind, LinkFault};
    use astra_des::EventQueue;
    use astra_topology::{Dim, NodeId};

    fn one_send(plan: Option<&FaultPlan>) -> (Arrival, u64) {
        let (topo, cfg) = simple_ring();
        let mut net = AnalyticalNet::new(&topo, &cfg);
        if let Some(p) = plan {
            net.install_link_faults(p);
        }
        let mut q = EventQueue::new();
        let route = topo.ring_route(Dim::Horizontal, 0, NodeId(0), 1).unwrap();
        net.send(&mut q, Message::new(0, NodeId(0), NodeId(1), 100, 0), route)
            .unwrap();
        let out = drain(&mut net, &mut q);
        assert_eq!(out.len(), 1);
        (out[0], net.stats().fault_stall_cycles)
    }

    fn fault(kind: FaultKind, start: u64, end: u64) -> LinkFault {
        LinkFault {
            from: NodeId(0),
            to: NodeId(1),
            kind,
            start: Time::from_cycles(start),
            end: Time::from_cycles(end),
        }
    }

    #[test]
    fn empty_plan_is_bit_identical() {
        let (clean, _) = one_send(None);
        let (with_empty, stalls) = one_send(Some(&FaultPlan::default()));
        assert_eq!(clean, with_empty);
        assert_eq!(stalls, 0);
    }

    #[test]
    fn down_window_delays_hop_start() {
        let plan = FaultPlan {
            link_faults: vec![fault(FaultKind::Down, 0, 100)],
            ..FaultPlan::default()
        };
        let (arr, stalls) = one_send(Some(&plan));
        // Transmission starts when the link comes back at cycle 100:
        // 100 + 10 ser + 5 latency.
        assert_eq!(arr.first_tx_start, Time::from_cycles(100));
        assert_eq!(arr.delivered, Time::from_cycles(115));
        assert_eq!(stalls, 100);
    }

    #[test]
    fn degrade_window_scales_bandwidth() {
        let plan = FaultPlan {
            link_faults: vec![fault(FaultKind::Degrade { factor: 0.5 }, 0, 1_000)],
            ..FaultPlan::default()
        };
        let (arr, stalls) = one_send(Some(&plan));
        // 100 B at 5 B/cyc = 20 cyc ser + 5 latency.
        assert_eq!(arr.delivered, Time::from_cycles(25));
        assert_eq!(stalls, 0);
    }

    #[test]
    fn fault_is_directional() {
        let plan = FaultPlan {
            link_faults: vec![LinkFault {
                from: NodeId(1),
                to: NodeId(0),
                kind: FaultKind::Down,
                start: Time::ZERO,
                end: Time::from_cycles(1_000),
            }],
            ..FaultPlan::default()
        };
        // 0 -> 1 is unaffected by the reverse-direction outage.
        let (arr, stalls) = one_send(Some(&plan));
        assert_eq!(arr.delivered, Time::from_cycles(15));
        assert_eq!(stalls, 0);
    }

    #[test]
    fn expired_window_has_no_effect() {
        // The message injects at cycle 0; a window that ended "earlier"
        // can't exist before 0, so use a window that starts after the
        // transmission already began.
        let plan = FaultPlan {
            link_faults: vec![fault(FaultKind::Down, 50, 100)],
            ..FaultPlan::default()
        };
        let (arr, stalls) = one_send(Some(&plan));
        // Hop starts at 0, before the outage: unaffected.
        assert_eq!(arr.delivered, Time::from_cycles(15));
        assert_eq!(stalls, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MsgId;
    use astra_des::{Clock, EventQueue};
    use astra_topology::{Dim, NodeId, Torus3d};

    /// A 1x4x1 ring with easy numbers: 10 GB/s (10 B/cyc), zero-ish latency.
    pub(super) fn simple_ring() -> (LogicalTopology, NetworkConfig) {
        let topo = LogicalTopology::torus(Torus3d::new(1, 4, 1, 1, 1, 1).unwrap());
        let mut cfg = NetworkConfig {
            clock: Clock::GHZ1,
            ..NetworkConfig::default()
        };
        cfg.package.gbps = 10.0;
        cfg.package.latency = Time::from_cycles(5);
        cfg.package.efficiency = 1.0;
        cfg.package.packet_bytes = 1;
        (topo, cfg)
    }

    pub(super) fn drain(net: &mut AnalyticalNet, q: &mut EventQueue<NetEvent>) -> Vec<Arrival> {
        let mut out = Vec::new();
        while let Some((_, ev)) = q.pop() {
            net.handle(q, ev, &mut out);
        }
        out
    }

    #[test]
    fn single_hop_latency_is_serialization_plus_propagation() {
        let (topo, cfg) = simple_ring();
        let mut net = AnalyticalNet::new(&topo, &cfg);
        let mut q = EventQueue::new();
        let route = topo.ring_route(Dim::Horizontal, 0, NodeId(0), 1).unwrap();
        net.send(&mut q, Message::new(0, NodeId(0), NodeId(1), 100, 0), route)
            .unwrap();
        let arr = drain(&mut net, &mut q);
        assert_eq!(arr.len(), 1);
        // 100 B at 10 B/cyc = 10 cyc serialize + 5 cyc latency.
        assert_eq!(arr[0].delivered, Time::from_cycles(15));
        assert_eq!(arr[0].source_queueing(), Time::ZERO);
    }

    #[test]
    fn two_messages_on_one_link_queue_fifo() {
        let (topo, cfg) = simple_ring();
        let mut net = AnalyticalNet::new(&topo, &cfg);
        let mut q = EventQueue::new();
        let route = topo.ring_route(Dim::Horizontal, 0, NodeId(0), 1).unwrap();
        net.send(
            &mut q,
            Message::new(0, NodeId(0), NodeId(1), 100, 0),
            route.clone(),
        )
        .unwrap();
        net.send(&mut q, Message::new(1, NodeId(0), NodeId(1), 100, 0), route)
            .unwrap();
        let arr = drain(&mut net, &mut q);
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
        let (topo, cfg) = simple_ring();
        let mut net = AnalyticalNet::new(&topo, &cfg);
        let mut q = EventQueue::new();
        // Distance-2 software-routed send: 0 -> 1 -> 2.
        let route = topo.ring_route(Dim::Horizontal, 0, NodeId(0), 2).unwrap();
        net.send(&mut q, Message::new(0, NodeId(0), NodeId(2), 100, 0), route)
            .unwrap();
        let arr = drain(&mut net, &mut q);
        // Two hops, each 10 + 5 cycles, sequentially.
        assert_eq!(arr[0].delivered, Time::from_cycles(30));
        assert_eq!(arr[0].message.dst, NodeId(2));
    }

    #[test]
    fn disjoint_links_do_not_contend() {
        let (topo, cfg) = simple_ring();
        let mut net = AnalyticalNet::new(&topo, &cfg);
        let mut q = EventQueue::new();
        let r01 = topo.ring_route(Dim::Horizontal, 0, NodeId(0), 1).unwrap();
        let r12 = topo.ring_route(Dim::Horizontal, 0, NodeId(1), 1).unwrap();
        net.send(&mut q, Message::new(0, NodeId(0), NodeId(1), 100, 0), r01)
            .unwrap();
        net.send(&mut q, Message::new(1, NodeId(1), NodeId(2), 100, 0), r12)
            .unwrap();
        let arr = drain(&mut net, &mut q);
        assert!(arr.iter().all(|a| a.delivered == Time::from_cycles(15)));
    }

    #[test]
    fn delivered_messages_free_their_slots_for_reuse() {
        let (topo, cfg) = simple_ring();
        let mut net = AnalyticalNet::new(&topo, &cfg);
        let mut q = EventQueue::new();
        let route = topo.ring_route(Dim::Horizontal, 0, NodeId(0), 2).unwrap();
        let msg = |id| Message::new(id, NodeId(0), NodeId(2), 100, 0);
        for round in 0..3u64 {
            for id in [2 * round, 2 * round + 1] {
                net.send(&mut q, msg(id), route.clone()).unwrap();
            }
            assert_eq!(net.in_flight(), 2);
            let arr = drain(&mut net, &mut q);
            let mut ids: Vec<u64> = arr.iter().map(|a| a.message.id.0).collect();
            ids.sort_unstable();
            assert_eq!(ids, [2 * round, 2 * round + 1]);
            net.audit_quiescent().unwrap();
        }
        // Six messages, never more than two in flight: two slots.
        assert_eq!(net.slots.capacity_used(), 2);
    }

    #[test]
    fn efficiency_and_packets_inflate_wire_time() {
        let (topo, mut cfg) = simple_ring();
        cfg.package.efficiency = 0.5;
        cfg.package.packet_bytes = 64;
        let mut net = AnalyticalNet::new(&topo, &cfg);
        let mut q = EventQueue::new();
        let route = topo.ring_route(Dim::Horizontal, 0, NodeId(0), 1).unwrap();
        net.send(&mut q, Message::new(0, NodeId(0), NodeId(1), 100, 0), route)
            .unwrap();
        let arr = drain(&mut net, &mut q);
        // 100/0.5 = 200 -> round to 256 wire bytes -> 26 cyc ser (ceil) + 5.
        assert_eq!(arr[0].delivered, Time::from_cycles(26 + 5));
    }

    #[test]
    fn unknown_link_rejected() {
        // Build net on a 4-ring, then ask for a vertical route from another topo.
        let (topo, cfg) = simple_ring();
        let mut net = AnalyticalNet::new(&topo, &cfg);
        let other = LogicalTopology::torus(Torus3d::new(1, 1, 4, 1, 1, 1).unwrap());
        let route = other.ring_route(Dim::Vertical, 0, NodeId(0), 1).unwrap();
        let mut q = EventQueue::new();
        assert!(matches!(
            net.send(&mut q, Message::new(0, NodeId(0), NodeId(1), 10, 0), route),
            Err(NetworkError::UnknownLink { .. })
        ));
    }

    #[test]
    fn stats_accumulate() {
        let (topo, cfg) = simple_ring();
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
}

#[cfg(test)]
mod hardware_routing_tests {
    use super::tests::drain;
    use super::*;
    use crate::{MsgId, RoutingMode};
    use astra_des::{Clock, EventQueue};
    use astra_topology::{Dim, NodeId, Torus3d};

    fn ring(routing: RoutingMode) -> (LogicalTopology, NetworkConfig) {
        let topo = LogicalTopology::torus(Torus3d::new(1, 8, 1, 1, 1, 1).unwrap());
        let mut cfg = NetworkConfig {
            clock: Clock::GHZ1,
            routing,
            ..NetworkConfig::default()
        };
        cfg.package.gbps = 10.0;
        cfg.package.latency = Time::from_cycles(5);
        cfg.package.efficiency = 1.0;
        cfg.package.packet_bytes = 1;
        cfg.router_latency = Time::from_cycles(1);
        (topo, cfg)
    }

    fn deliver_one(routing: RoutingMode, hops: usize, bytes: u64) -> Arrival {
        let (topo, cfg) = ring(routing);
        let mut net = AnalyticalNet::new(&topo, &cfg);
        let mut q = EventQueue::new();
        let route = topo
            .ring_route(Dim::Horizontal, 0, NodeId(0), hops)
            .unwrap();
        let dst = route.dst();
        net.send(&mut q, Message::new(0, NodeId(0), dst, bytes, 0), route)
            .unwrap();
        let out = drain(&mut net, &mut q);
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
        let mut q = EventQueue::new();
        // Two messages sharing the first link; the second must queue.
        for id in 0..2u64 {
            let route = topo.ring_route(Dim::Horizontal, 0, NodeId(0), 2).unwrap();
            net.send(
                &mut q,
                Message::new(id, NodeId(0), NodeId(2), 100, 0),
                route,
            )
            .unwrap();
        }
        let out = drain(&mut net, &mut q);
        let m0 = out.iter().find(|a| a.message.id == MsgId(0)).unwrap();
        let m1 = out.iter().find(|a| a.message.id == MsgId(1)).unwrap();
        assert_eq!(m1.source_queueing(), Time::from_cycles(10));
        assert!(m1.delivered > m0.delivered);
    }
}
