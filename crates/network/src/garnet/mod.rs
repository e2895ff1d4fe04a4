//! A Garnet-like flit-level network backend.
//!
//! The paper runs its system layer on Garnet 2.0 in standalone mode. This
//! module reproduces the mechanisms Garnet contributes to the paper's
//! results, at flit granularity:
//!
//! * messages decompose into **packets** (per-class packet size, Table IV)
//!   and packets into **flits** (flit width) plus one header flit — the
//!   data-flit/header-flit ratio is the physical origin of the "link
//!   efficiency" parameter the analytical backend folds in;
//! * each directed link serializes one flit at a time
//!   (`flit_bytes / link bytes-per-cycle` cycles per flit) and arbitrates
//!   **round-robin across virtual channels**;
//! * downstream buffers are finite (`buffers_per_vc`); a flit may only be
//!   put on the wire when its VC holds a **credit**, and the credit returns
//!   when the flit vacates the downstream buffer — i.e. real wormhole
//!   back-pressure;
//! * intermediate routers forward flits after a configurable pipeline
//!   latency (`router_latency`), modeling the paper's *hardware routing*
//!   option (packets cross multi-hop routes without NPU involvement).
//!
//! The model intentionally stops short of gem5 details that do not influence
//! the paper's experiments (VC reallocation per hop, switch allocation
//! stages): a packet keeps one VC index end-to-end, and the router pipeline
//! is a fixed delay. Injection queues at the source NI are unbounded, as in
//! Garnet standalone mode.
//!
//! **In-flight state** sits in reused slots, not maps: a packet's state is
//! named by its slot, which [`NetEvent::FlitArrive`] carries, and the
//! packet holds its message's slot. A message's link path is stored once,
//! in the message state. Queued flits are 8 bytes (packet slot, upstream
//! link): a packet keeps one VC end to end, so the upstream credit's VC is
//! the packet's.
//!
//! **Deadlock note**: like real wormhole networks, cyclic routes plus
//! exhausted buffers could deadlock; gem5's Garnet breaks such cycles with
//! escape VCs / datelines, which this model does not implement. Table IV's
//! buffer depth (5000 flits per VC ≈ 640 KB) makes the cycle unreachable
//! for the message sizes the evaluation simulates; reduce `buffers_per_vc`
//! on multi-hop ring traffic with care.

mod flit;

use crate::faults::{FaultPlan, LinkWindows};
use crate::link_index::{LinkIndex, LinkPath, NO_LINK};
use crate::{
    Arrival, Backend, Message, NetEvent, NetScheduler, NetStats, NetworkConfig, NetworkError,
};
use astra_des::hash::IdSet;
use astra_des::{Slab, SlabKey, Time};
use astra_topology::{LinkClass, LogicalTopology, Route};
use flit::{FlitsOf, PacketState, QueuedFlit};
use std::collections::VecDeque;

#[derive(Debug)]
struct VcState {
    queue: VecDeque<QueuedFlit>,
    credits: usize,
}

#[derive(Debug)]
struct GLink {
    class: LinkClass,
    /// Serialization time of one flit at the nominal bandwidth.
    flit_time: Time,
    busy: bool,
    rr_cursor: usize,
    vcs: Vec<VcState>,
    /// End of the latest hard-down window a transmit attempt has already
    /// been rescheduled past (deduplicates retry probes and stall
    /// accounting while the link is out).
    stalled_until: Time,
}

#[derive(Debug)]
struct GMsgState {
    msg: Message,
    path: LinkPath,
    injected: Time,
    first_tx_start: Option<Time>,
    flits_remaining: u64,
}

/// The flit-level backend; the module documentation above describes the
/// model.
#[derive(Debug)]
pub struct GarnetNet {
    config: NetworkConfig,
    links: Vec<GLink>,
    index: LinkIndex,
    /// Ids of the messages in flight, for the duplicate check at `send`.
    inflight: IdSet<u64>,
    messages: Slab<GMsgState>,
    packets: Slab<PacketState>,
    /// Packets ever injected; a packet's VC is its serial modulo the VC
    /// count, so arbitration does not depend on slot reuse.
    next_packet_id: u64,
    stats: NetStats,
    /// Per-link fault windows, parallel to `links`; empty means no plan is
    /// installed and the fault path is never taken.
    fault_windows: Vec<LinkWindows>,
}

/// Serialization time of one flit on `class` links at `factor` × the
/// nominal bandwidth (`factor` is 1.0 outside degradation windows).
fn flit_ser_time(config: &NetworkConfig, class: LinkClass, factor: f64) -> Time {
    let bpc = config
        .clock
        .bytes_per_cycle(config.link(class).gbps * factor);
    Time::from_cycles(((config.flit_bytes as f64) / bpc).ceil().max(1.0) as u64)
}

impl GarnetNet {
    /// Builds the backend for a topology's physical links.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails validation, or if the topology has
    /// `u32::MAX` or more physical links.
    pub fn new(topo: &LogicalTopology, config: &NetworkConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid network config: {e}");
        }
        let index = LinkIndex::new(topo);
        let links: Vec<_> = index
            .classes()
            .iter()
            .map(|&class| GLink {
                class,
                flit_time: flit_ser_time(config, class, 1.0),
                busy: false,
                rr_cursor: 0,
                vcs: (0..config.vcs_per_vnet)
                    .map(|_| VcState {
                        queue: VecDeque::new(),
                        credits: config.buffers_per_vc,
                    })
                    .collect(),
                stalled_until: Time::ZERO,
            })
            .collect();
        let stats = NetStats::with_links(links.len());
        GarnetNet {
            config: *config,
            links,
            index,
            inflight: IdSet::default(),
            messages: Slab::new(),
            packets: Slab::new(),
            next_packet_id: 0,
            stats,
            fault_windows: Vec::new(),
        }
    }

    /// Fault gate for a transmit attempt at `now`: inside a hard-down window
    /// the link transmits nothing — a retry probe is scheduled for the end
    /// of the outage (once; `stalled_until` deduplicates) — otherwise the
    /// active bandwidth factor is returned.
    fn fault_gate(&mut self, q: &mut dyn NetScheduler, link: u32) -> Option<f64> {
        if self.fault_windows.is_empty() {
            return Some(1.0);
        }
        let w = &self.fault_windows[link as usize];
        if w.is_empty() {
            return Some(1.0);
        }
        let now = q.now();
        let released = w.release_after(now);
        if released > now {
            let st = &mut self.links[link as usize];
            let has_work = st
                .vcs
                .iter()
                .any(|vc| !vc.queue.is_empty() && vc.credits > 0);
            if has_work && st.stalled_until < released {
                st.stalled_until = released;
                self.stats.fault_stall_cycles += (released - now).cycles();
                q.schedule_at(released, NetEvent::LinkReady { link });
            }
            return None;
        }
        Some(w.factor_at(now))
    }

    /// Attempts to put the next flit on the wire of `link`.
    fn try_transmit(&mut self, q: &mut dyn NetScheduler, link: u32) {
        if self.links[link as usize].busy {
            return;
        }
        let Some(factor) = self.fault_gate(q, link) else {
            return;
        };
        let st = &mut self.links[link as usize];
        let nvcs = st.vcs.len();
        let start = st.rr_cursor;
        let Some(vc) = (0..nvcs)
            .map(|off| (start + off) % nvcs)
            .find(|&vc| !st.vcs[vc].queue.is_empty() && st.vcs[vc].credits > 0)
        else {
            return;
        };
        st.rr_cursor = (vc + 1) % nvcs;
        let flit = st.vcs[vc].queue.pop_front().expect("non-empty checked");
        st.vcs[vc].credits -= 1;
        st.busy = true;
        let class = st.class;
        let ser = if factor == 1.0 {
            st.flit_time
        } else {
            flit_ser_time(&self.config, class, factor)
        };
        self.stats
            .record_hop(link as usize, class, self.config.flit_bytes, ser);

        if flit.upstream == NO_LINK {
            // A message's first flit on the wire leaves its source queue.
            let pkt = self.packets.get(flit.packet).expect("queued flit's packet");
            let msg = self.messages.get_mut(pkt.msg).expect("packet's message");
            msg.first_tx_start.get_or_insert(q.now());
        } else {
            // Leaving the upstream buffer returns a credit upstream after
            // one cycle of credit-wire delay.
            q.schedule_in(
                Time::from_cycles(1),
                NetEvent::Credit {
                    link: flit.upstream,
                    // Below the VC count, which fits a `u32` (see `send`).
                    vc: vc as u32,
                },
            );
        }

        q.schedule_in(ser, NetEvent::LinkReady { link });
        q.schedule_at(
            q.now() + ser + self.config.link(class).latency,
            NetEvent::FlitArrive {
                link,
                packet: flit.packet,
            },
        );
    }

    fn on_flit_arrive(
        &mut self,
        q: &mut dyn NetScheduler,
        link: u32,
        packet: SlabKey,
        arrivals: &mut Vec<Arrival>,
    ) {
        let pkt = self.packets.get(packet).expect("arriving flit's packet");
        let (msg_slot, vc) = (pkt.msg, pkt.vc);
        let msg = self.messages.get(msg_slot).expect("packet's message");
        let path = msg.path.as_slice();
        let hop = path
            .iter()
            .position(|&l| l == link)
            .expect("arrived on a link of its own path");
        if let Some(&next) = path.get(hop + 1) {
            // Forward onto the next link's queue at once; the router
            // pipeline delays only the transmit attempt this triggers. The
            // flit keeps occupying this link's downstream buffer until it
            // is serialized onto the next link, which returns the credit.
            self.links[next as usize].vcs[vc as usize]
                .queue
                .push_back(QueuedFlit {
                    packet,
                    upstream: link,
                });
            let delay = self.config.router_latency;
            if delay == Time::ZERO {
                self.try_transmit(q, next);
            } else {
                q.schedule_in(delay, NetEvent::LinkReady { link: next });
            }
            return;
        }
        // Consume at destination: the buffer vacates after the ejection
        // takes one cycle; the credit returns upstream.
        q.schedule_in(Time::from_cycles(1), NetEvent::Credit { link, vc });
        let pkt = self.packets.get_mut(packet).expect("checked above");
        pkt.flits_remaining -= 1;
        if pkt.flits_remaining == 0 {
            self.packets.remove(packet);
        }
        let msg = self.messages.get_mut(msg_slot).expect("checked above");
        msg.flits_remaining -= 1;
        if msg.flits_remaining == 0 {
            let done = self.messages.remove(msg_slot).expect("checked above");
            self.inflight.remove(&done.msg.id.0);
            let delivered = q.now();
            let first_tx = done.first_tx_start.unwrap_or(done.injected);
            self.stats.record_delivery(
                done.msg.bytes,
                delivered - done.injected,
                first_tx - done.injected,
            );
            arrivals.push(Arrival {
                message: done.msg,
                injected: done.injected,
                first_tx_start: first_tx,
                delivered,
            });
        }
    }
}

impl Backend for GarnetNet {
    fn send(
        &mut self,
        queue: &mut dyn NetScheduler,
        msg: Message,
        route: Route,
    ) -> Result<(), NetworkError> {
        if msg.bytes == 0 {
            return Err(NetworkError::EmptyMessage);
        }
        if route.src() != msg.src || route.dst() != msg.dst {
            return Err(NetworkError::RouteMismatch {
                msg_src: msg.src,
                msg_dst: msg.dst,
                route_src: route.src(),
                route_dst: route.dst(),
            });
        }
        let path = self.index.resolve(&route)?;
        if !self.inflight.insert(msg.id.0) {
            return Err(NetworkError::DuplicateMessage { id: msg.id.0 });
        }

        // Packetize by the first hop's link class (messages are packetized
        // once, at injection).
        let first_link = path.as_slice()[0];
        let class = self.links[first_link as usize].class;
        let packet_bytes = self.config.link(class).packet_bytes;
        let flits = FlitsOf::new(msg.bytes, packet_bytes, self.config.flit_bytes);
        let msg_slot = self.messages.insert(GMsgState {
            msg,
            path,
            injected: queue.now(),
            first_tx_start: None,
            flits_remaining: flits.total_flits(),
        });

        let nvcs = self.config.vcs_per_vnet as u64;
        for pkt_flits in flits.packets() {
            // Below the VC count, which fits a `u32`: every link allocates
            // a queue per VC.
            let vc = (self.next_packet_id % nvcs) as usize;
            self.next_packet_id += 1;
            let packet = self.packets.insert(PacketState {
                msg: msg_slot,
                vc: vc as u32,
                flits_remaining: pkt_flits,
            });
            let flit = QueuedFlit {
                packet,
                upstream: NO_LINK,
            };
            let source = &mut self.links[first_link as usize].vcs[vc].queue;
            source.extend(std::iter::repeat_n(flit, pkt_flits as usize));
        }
        self.try_transmit(queue, first_link);
        Ok(())
    }

    fn handle(
        &mut self,
        queue: &mut dyn NetScheduler,
        event: NetEvent,
        arrivals: &mut Vec<Arrival>,
    ) {
        match event {
            NetEvent::LinkReady { link } => {
                self.links[link as usize].busy = false;
                self.try_transmit(queue, link);
            }
            NetEvent::FlitArrive { link, packet } => {
                self.on_flit_arrive(queue, link, packet, arrivals);
            }
            NetEvent::Credit { link, vc } => {
                let credits = &mut self.links[link as usize].vcs[vc as usize].credits;
                #[cfg(feature = "conform-checks")]
                assert!(
                    *credits < self.config.buffers_per_vc,
                    "conform-checks: credit overflow on link {link} vc {vc}: \
                     returning a credit would exceed buffers_per_vc={}",
                    self.config.buffers_per_vc
                );
                *credits += 1;
                self.try_transmit(queue, link);
            }
            NetEvent::HopArrive { .. } => {
                unreachable!("garnet backend received an analytical event")
            }
        }
    }

    fn stats(&self) -> &NetStats {
        &self.stats
    }

    fn in_flight(&self) -> usize {
        self.inflight.len()
    }

    fn audit_quiescent(&self) -> Result<(), String> {
        if !self.inflight.is_empty() {
            return Err(format!(
                "garnet: {} message(s) still in flight",
                self.inflight.len()
            ));
        }
        if !self.packets.is_empty() {
            return Err(format!(
                "garnet: {} packet(s) leaked after all messages delivered",
                self.packets.len()
            ));
        }
        if !self.messages.is_empty() {
            return Err(format!(
                "garnet: {} message state(s) leaked with no id in flight",
                self.messages.len()
            ));
        }
        self.messages
            .audit()
            .map_err(|e| format!("garnet: message {e}"))?;
        self.packets
            .audit()
            .map_err(|e| format!("garnet: packet {e}"))?;
        for (idx, link) in self.links.iter().enumerate() {
            if link.busy {
                return Err(format!("garnet: link {idx} still busy at quiescence"));
            }
            for (vc, st) in link.vcs.iter().enumerate() {
                if !st.queue.is_empty() {
                    return Err(format!(
                        "garnet: link {idx} vc {vc} holds {} undelivered flit(s)",
                        st.queue.len()
                    ));
                }
                if st.credits != self.config.buffers_per_vc {
                    return Err(format!(
                        "garnet: link {idx} vc {vc} credit imbalance: {} of {} restored",
                        st.credits, self.config.buffers_per_vc
                    ));
                }
            }
        }
        Ok(())
    }

    fn install_link_faults(&mut self, plan: &FaultPlan) {
        self.fault_windows = self.index.fault_windows(plan);
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use crate::faults::{FaultKind, LinkFault};
    use astra_des::{Clock, EventQueue};
    use astra_topology::{Dim, NodeId, Torus3d};

    fn ring_cfg() -> (LogicalTopology, NetworkConfig) {
        let topo = LogicalTopology::torus(Torus3d::new(1, 4, 1, 1, 1, 1).unwrap());
        let cfg = NetworkConfig {
            clock: Clock::GHZ1,
            package: crate::LinkParams {
                gbps: 32.0, // 32 B/cyc -> 4 cycles per 128 B flit
                latency: Time::from_cycles(10),
                efficiency: 0.94,
                packet_bytes: 256,
            },
            vcs_per_vnet: 2,
            buffers_per_vc: 4,
            router_latency: Time::from_cycles(1),
            ..NetworkConfig::default()
        };
        (topo, cfg)
    }

    fn one_send(plan: Option<&FaultPlan>) -> (Arrival, u64) {
        let (topo, cfg) = ring_cfg();
        let mut net = GarnetNet::new(&topo, &cfg);
        if let Some(p) = plan {
            net.install_link_faults(p);
        }
        let mut q = EventQueue::new();
        let route = topo.ring_route(Dim::Horizontal, 0, NodeId(0), 1).unwrap();
        net.send(&mut q, Message::new(0, NodeId(0), NodeId(1), 1, 0), route)
            .unwrap();
        let mut out = Vec::new();
        while let Some((_, ev)) = q.pop() {
            net.handle(&mut q, ev, &mut out);
        }
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
    fn down_window_postpones_flits() {
        let plan = FaultPlan {
            link_faults: vec![fault(FaultKind::Down, 0, 50)],
            ..FaultPlan::default()
        };
        let (arr, stalls) = one_send(Some(&plan));
        // The fault-free delivery is at cycle 18 (see the main test module);
        // with the link down for the first 50 cycles everything shifts by 50.
        assert_eq!(arr.delivered, Time::from_cycles(68));
        assert_eq!(stalls, 50);
    }

    #[test]
    fn degrade_window_slows_flits() {
        let plan = FaultPlan {
            link_faults: vec![fault(FaultKind::Degrade { factor: 0.5 }, 0, 1_000)],
            ..FaultPlan::default()
        };
        let (arr, stalls) = one_send(Some(&plan));
        // Half bandwidth: 8 cyc per flit. flit0 [0,8) arrives 18;
        // flit1 [8,16) arrives 26.
        assert_eq!(arr.delivered, Time::from_cycles(26));
        assert_eq!(stalls, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use astra_des::{Clock, EventQueue};
    use astra_topology::{Dim, NodeId, Torus3d};

    fn ring_cfg() -> (LogicalTopology, NetworkConfig) {
        let topo = LogicalTopology::torus(Torus3d::new(1, 4, 1, 1, 1, 1).unwrap());
        let cfg = NetworkConfig {
            clock: Clock::GHZ1,
            package: crate::LinkParams {
                gbps: 32.0, // 32 B/cyc -> 4 cycles per 128 B flit
                latency: Time::from_cycles(10),
                efficiency: 0.94,
                packet_bytes: 256,
            },
            vcs_per_vnet: 2,
            buffers_per_vc: 4,
            router_latency: Time::from_cycles(1),
            ..NetworkConfig::default()
        };
        (topo, cfg)
    }

    fn drain(net: &mut GarnetNet, q: &mut EventQueue<NetEvent>) -> Vec<Arrival> {
        let mut out = Vec::new();
        let mut guard = 0u64;
        while let Some((_, ev)) = q.pop() {
            net.handle(q, ev, &mut out);
            guard += 1;
            assert!(guard < 10_000_000, "garnet drain did not converge");
        }
        out
    }

    #[test]
    fn single_flit_message_latency() {
        let (topo, cfg) = ring_cfg();
        let mut net = GarnetNet::new(&topo, &cfg);
        let mut q = EventQueue::new();
        let route = topo.ring_route(Dim::Horizontal, 0, NodeId(0), 1).unwrap();
        // 1 byte -> 1 packet -> 1 data flit + 1 header flit.
        net.send(&mut q, Message::new(0, NodeId(0), NodeId(1), 1, 0), route)
            .unwrap();
        let arr = drain(&mut net, &mut q);
        assert_eq!(arr.len(), 1);
        // 2 flits x 4 cyc serialization, pipelined with 10 cyc latency:
        // flit0 on wire [0,4), arrives 14; flit1 [4,8), arrives 18.
        assert_eq!(arr[0].delivered, Time::from_cycles(18));
    }

    #[test]
    fn multi_hop_pipelines_flits() {
        let (topo, cfg) = ring_cfg();
        let mut net = GarnetNet::new(&topo, &cfg);
        let mut q = EventQueue::new();
        let route = topo.ring_route(Dim::Horizontal, 0, NodeId(0), 2).unwrap();
        net.send(&mut q, Message::new(0, NodeId(0), NodeId(2), 256, 0), route)
            .unwrap();
        let arr = drain(&mut net, &mut q);
        assert_eq!(arr.len(), 1);
        // Wormhole pipelining: the total must be far less than 2x the
        // store-and-forward time of (3 flits * 4 cyc + 10) per hop.
        let t = arr[0].delivered.cycles();
        assert!(t < 2 * (3 * 4 + 10) + 10, "no pipelining? t = {t}");
        assert!(t > 14, "faster than physics allows: {t}");
    }

    #[test]
    fn finite_buffers_backpressure() {
        let (topo, mut cfg) = ring_cfg();
        cfg.buffers_per_vc = 1;
        cfg.vcs_per_vnet = 1;
        let mut net = GarnetNet::new(&topo, &cfg);
        let mut q = EventQueue::new();
        let route = topo.ring_route(Dim::Horizontal, 0, NodeId(0), 2).unwrap();
        net.send(
            &mut q,
            Message::new(0, NodeId(0), NodeId(2), 1024, 0),
            route,
        )
        .unwrap();
        let arr = drain(&mut net, &mut q);
        assert_eq!(arr.len(), 1);
        // With 1 buffer per VC, every flit must wait for a credit round trip;
        // delivery is much slower than the unconstrained case.
        let (topo2, mut cfg2) = ring_cfg();
        cfg2.vcs_per_vnet = 1;
        cfg2.buffers_per_vc = 1000;
        let mut net2 = GarnetNet::new(&topo2, &cfg2);
        let mut q2 = EventQueue::new();
        let route2 = topo2.ring_route(Dim::Horizontal, 0, NodeId(0), 2).unwrap();
        net2.send(
            &mut q2,
            Message::new(0, NodeId(0), NodeId(2), 1024, 0),
            route2,
        )
        .unwrap();
        let arr2 = drain(&mut net2, &mut q2);
        assert!(
            arr[0].delivered > arr2[0].delivered,
            "credit starvation should slow delivery: {} vs {}",
            arr[0].delivered,
            arr2[0].delivered
        );
    }

    #[test]
    fn vcs_interleave_two_messages() {
        let (topo, cfg) = ring_cfg();
        let mut net = GarnetNet::new(&topo, &cfg);
        let mut q = EventQueue::new();
        let route = topo.ring_route(Dim::Horizontal, 0, NodeId(0), 1).unwrap();
        net.send(
            &mut q,
            Message::new(0, NodeId(0), NodeId(1), 512, 0),
            route.clone(),
        )
        .unwrap();
        net.send(&mut q, Message::new(1, NodeId(0), NodeId(1), 512, 0), route)
            .unwrap();
        let arr = drain(&mut net, &mut q);
        assert_eq!(arr.len(), 2);
        // Both used the same link; total wire time is the sum of all flits.
        assert_eq!(net.stats().delivered, 2);
    }

    #[test]
    fn conservation_of_flits() {
        let (topo, cfg) = ring_cfg();
        let mut net = GarnetNet::new(&topo, &cfg);
        let mut q = EventQueue::new();
        for i in 0..4u64 {
            let src = NodeId((i % 4) as usize);
            let route = topo.ring_route(Dim::Horizontal, 0, src, 1).unwrap();
            let dst = route.dst();
            net.send(&mut q, Message::new(i, src, dst, 300, 0), route)
                .unwrap();
        }
        let arr = drain(&mut net, &mut q);
        assert_eq!(arr.len(), 4);
        assert_eq!(net.in_flight(), 0);
        assert!(net.packets.is_empty(), "leaked packet state");
    }

    #[test]
    fn delivered_messages_free_their_slots_for_reuse() {
        let (topo, cfg) = ring_cfg();
        let mut net = GarnetNet::new(&topo, &cfg);
        let mut q = EventQueue::new();
        let route = topo.ring_route(Dim::Horizontal, 0, NodeId(0), 2).unwrap();
        // 512 B in 256 B packets: two packets per message.
        let msg = |id| Message::new(id, NodeId(0), NodeId(2), 512, 0);
        for round in 0..3u64 {
            for id in [2 * round, 2 * round + 1] {
                net.send(&mut q, msg(id), route.clone()).unwrap();
            }
            assert_eq!(net.in_flight(), 2);
            assert_eq!(drain(&mut net, &mut q).len(), 2);
            net.audit_quiescent().unwrap();
        }
        // Six messages, never more than two in flight.
        assert_eq!(net.messages.capacity_used(), 2);
        assert_eq!(net.packets.capacity_used(), 4);
    }

    #[test]
    fn audit_catches_message_state_with_no_id_in_flight() {
        let (topo, cfg) = ring_cfg();
        let mut net = GarnetNet::new(&topo, &cfg);
        let mut q = EventQueue::new();
        let route = topo.ring_route(Dim::Horizontal, 0, NodeId(0), 1).unwrap();
        net.send(&mut q, Message::new(0, NodeId(0), NodeId(1), 300, 0), route)
            .unwrap();
        drain(&mut net, &mut q);
        net.audit_quiescent().unwrap();

        let orphan = net.messages.insert(GMsgState {
            msg: Message::new(1, NodeId(0), NodeId(1), 8, 0),
            path: LinkPath::Spilled(Vec::new()),
            injected: Time::ZERO,
            first_tx_start: None,
            flits_remaining: 1,
        });
        let err = net.audit_quiescent().unwrap_err();
        assert!(err.contains("1 message state(s) leaked"), "{err}");
        net.messages.remove(orphan);
        net.audit_quiescent().unwrap();
    }

    #[test]
    fn rejects_duplicate_and_empty() {
        let (topo, cfg) = ring_cfg();
        let mut net = GarnetNet::new(&topo, &cfg);
        let mut q = EventQueue::new();
        let route = topo.ring_route(Dim::Horizontal, 0, NodeId(0), 1).unwrap();
        assert!(net
            .send(
                &mut q,
                Message::new(0, NodeId(0), NodeId(1), 0, 0),
                route.clone()
            )
            .is_err());
        net.send(
            &mut q,
            Message::new(1, NodeId(0), NodeId(1), 8, 0),
            route.clone(),
        )
        .unwrap();
        assert!(matches!(
            net.send(&mut q, Message::new(1, NodeId(0), NodeId(1), 8, 0), route),
            Err(NetworkError::DuplicateMessage { .. })
        ));
    }
}
