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
//! packet holds its message's slot in the in-flight message table both
//! backends share, which stores the message's link path once. A VC queue
//! entry is either a flit forwarded from upstream (packet slot, upstream
//! link: a packet keeps one VC end to end, so the upstream credit's VC is
//! the packet's) or a *source run*: one message's packets not yet sent on
//! that VC of its source link.
//! `send` reserves the message's packet serials and queues at most one run
//! per VC; a packet's state is created when its head flit goes on the
//! wire. So the packet slots hold only the packets on the wire or in
//! downstream buffers, never a whole message's.
//!
//! **Deadlock note**: like real wormhole networks, cyclic routes plus
//! exhausted buffers could deadlock; gem5's Garnet breaks such cycles with
//! escape VCs / datelines, which this model does not implement. Table IV's
//! buffer depth (5000 flits per VC ≈ 640 KB) makes the cycle unreachable
//! for the message sizes the evaluation simulates; reduce `buffers_per_vc`
//! on multi-hop ring traffic with care.

mod flit;

use crate::faults::FaultPlan;
use crate::link_index::LinkIndex;
use crate::message::InFlight;
use crate::{
    Arrival, Backend, Message, NetEvent, NetScheduler, NetStats, NetworkConfig, NetworkError,
};
use astra_des::{Slab, SlabKey, Time};
use astra_topology::{LinkClass, LogicalTopology, Route};
use flit::{packet_flits, FlitsOf, PacketState, Queued, SourceRun};
use std::collections::VecDeque;

#[derive(Debug)]
struct VcState {
    queue: VecDeque<Queued>,
    credits: usize,
}

#[derive(Debug)]
struct GLink {
    class: LinkClass,
    /// Serialization time of one flit at the nominal bandwidth.
    flit_time: Time,
    /// Flits of a full packet of this link's class.
    packet_flits: u64,
    busy: bool,
    rr_cursor: usize,
    vcs: Vec<VcState>,
    /// End of the latest hard-down window a transmit attempt has already
    /// been rescheduled past (deduplicates retry probes and stall
    /// accounting while the link is out).
    stalled_until: Time,
}

/// The flit-level backend; the module documentation above describes the
/// model.
#[derive(Debug)]
pub struct GarnetNet {
    config: NetworkConfig,
    links: Vec<GLink>,
    index: LinkIndex,
    /// In-flight messages, each with its flits not yet consumed.
    messages: InFlight<u64>,
    packets: Slab<PacketState>,
    /// Packets ever injected; a packet's VC is its serial modulo the VC
    /// count, so arbitration does not depend on slot reuse.
    next_packet_id: u64,
    stats: NetStats,
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
                packet_flits: packet_flits(config.link(class).packet_bytes, config.flit_bytes),
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
        GarnetNet {
            config: *config,
            stats: NetStats::with_links(links.len()),
            links,
            index,
            messages: InFlight::default(),
            packets: Slab::new(),
            next_packet_id: 0,
        }
    }

    /// Attempts to put the next flit on the wire of `link`.
    fn try_transmit(&mut self, q: &mut dyn NetScheduler, link: u32) {
        let st = &self.links[link as usize];
        if st.busy {
            return;
        }
        let nvcs = st.vcs.len();
        let start = st.rr_cursor;
        let Some(vc) = (0..nvcs)
            .map(|off| (start + off) % nvcs)
            .find(|&vc| !st.vcs[vc].queue.is_empty() && st.vcs[vc].credits > 0)
        else {
            return;
        };
        // Inside a hard-down window the link transmits nothing and probes
        // again when the outage ends (once: `stalled_until` deduplicates).
        let now = q.now();
        let (released, factor) = self.index.fault_release(link as usize, now);
        if released > now {
            let st = &mut self.links[link as usize];
            if st.stalled_until < released {
                st.stalled_until = released;
                self.stats.fault_stall_cycles += (released - now).cycles();
                q.schedule_at(released, NetEvent::LinkReady { link });
            }
            return;
        }
        let st = &mut self.links[link as usize];
        st.rr_cursor = (vc + 1) % nvcs;
        st.vcs[vc].credits -= 1;
        st.busy = true;
        let class = st.class;
        let queue = &mut st.vcs[vc].queue;
        let (packet, upstream) = match queue.front_mut().expect("non-empty checked") {
            &mut Queued::Flit { packet, upstream } => {
                queue.pop_front();
                (packet, Some(upstream))
            }
            Queued::Run(run) => {
                let packet = match run.packet {
                    Some(packet) => packet,
                    None => {
                        // A head flit: the packet's state exists from here
                        // until its tail flit is consumed.
                        let msg = self.messages.get_mut(run.msg).expect("run's message");
                        msg.first_tx_start = msg.first_tx_start.min(now);
                        run.packet_flits = st.packet_flits.min(run.flits);
                        self.packets.insert(PacketState {
                            msg: run.msg,
                            // Below the VC count, which fits a `u32` (see `send`).
                            vc: vc as u32,
                            flits_remaining: run.packet_flits,
                        })
                    }
                };
                run.flits -= 1;
                run.packet_flits -= 1;
                run.packet = (run.packet_flits > 0).then_some(packet);
                if run.flits == 0 {
                    queue.pop_front();
                }
                (packet, None)
            }
        };
        let ser = if factor == 1.0 {
            st.flit_time
        } else {
            flit_ser_time(&self.config, class, factor)
        };
        self.stats
            .record_hop(link as usize, class, self.config.flit_bytes, ser);

        if let Some(upstream) = upstream {
            // Leaving the upstream buffer returns a credit upstream after
            // one cycle of credit-wire delay.
            q.schedule_in(
                Time::from_cycles(1),
                NetEvent::Credit {
                    link: upstream,
                    vc: vc as u32,
                },
            );
        }

        q.schedule_in(ser, NetEvent::LinkReady { link });
        q.schedule_at(
            now + ser + self.config.link(class).latency,
            NetEvent::FlitArrive { link, packet },
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
                .push_back(Queued::Flit {
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
        let flits_left = &mut self
            .messages
            .get_mut(msg_slot)
            .expect("checked above")
            .state;
        *flits_left -= 1;
        if *flits_left == 0 {
            self.messages
                .deliver(msg_slot, q.now(), &mut self.stats, arrivals);
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
        let (msg_slot, m) = self.messages.admit(&self.index, msg, &route, queue.now())?;

        // Packetize by the first hop's link class (messages are packetized
        // once, at injection).
        let first_link = m.path.as_slice()[0];
        let class = self.links[first_link as usize].class;
        let packet_bytes = self.config.link(class).packet_bytes;
        let flits = FlitsOf::new(msg.bytes, packet_bytes, self.config.flit_bytes);
        m.state = flits.total_flits();

        // Packet k rides VC (first serial + k) mod V; the packets sharing
        // a VC wait there as one run.
        let nvcs = self.config.vcs_per_vnet as u64;
        let first = self.next_packet_id;
        self.next_packet_id += flits.packets;
        for k in 0..flits.packets.min(nvcs) {
            // Below the VC count, which fits a `u32`: every link allocates
            // a queue per VC.
            let vc = ((first + k) % nvcs) as usize;
            self.links[first_link as usize].vcs[vc]
                .queue
                .push_back(Queued::Run(SourceRun {
                    msg: msg_slot,
                    packet: None,
                    flits: flits.run_flits(k, nvcs),
                    packet_flits: 0,
                }));
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
                debug_assert!(
                    *credits < self.config.buffers_per_vc,
                    "credit overflow on link {link} vc {vc}: \
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
        self.messages.len()
    }

    fn audit_quiescent(&self) -> Result<(), String> {
        self.messages.audit("garnet")?;
        if !self.packets.is_empty() {
            return Err(format!(
                "garnet: {} packet(s) leaked after all messages delivered",
                self.packets.len()
            ));
        }
        self.packets
            .audit()
            .map_err(|e| format!("garnet: packet {e}"))?;
        for (idx, link) in self.links.iter().enumerate() {
            if link.busy {
                return Err(format!("garnet: link {idx} still busy at quiescence"));
            }
            for (vc, st) in link.vcs.iter().enumerate() {
                if !st.queue.is_empty() {
                    let flits = st.queue.iter().map(|entry| match entry {
                        Queued::Flit { .. } => 1,
                        Queued::Run(run) => run.flits,
                    });
                    return Err(format!(
                        "garnet: link {idx} vc {vc} holds {} undelivered flit(s)",
                        flits.sum::<u64>()
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
        self.index.install_faults(plan);
    }
}

#[cfg(test)]
mod fault_tests {
    use crate::backend_tests::{check_degrade_window, check_down_window, check_empty_plan, GARNET};

    #[test]
    fn empty_plan_is_bit_identical() {
        check_empty_plan(&GARNET);
    }

    #[test]
    fn down_window_postpones_flits() {
        check_down_window(&GARNET);
    }

    #[test]
    fn degrade_window_slows_flits() {
        check_degrade_window(&GARNET);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend_tests::{
        garnet_ring, one_send, send_and_drain, send_pairs_to_quiescence, GARNET,
    };
    use astra_des::EventQueue;
    use astra_topology::LogicalTopology;

    #[test]
    fn single_flit_message_latency() {
        // 1 byte -> 1 packet -> 1 data flit + 1 header flit.
        let (arr, _) = one_send(&GARNET, None);
        // 2 flits x 4 cyc serialization, pipelined with 10 cyc latency:
        // flit0 on wire [0,4), arrives 14; flit1 [4,8), arrives 18.
        assert_eq!(arr.delivered, Time::from_cycles(18));
    }

    #[test]
    fn multi_hop_pipelines_flits() {
        let (topo, cfg) = garnet_ring();
        let mut net = GarnetNet::new(&topo, &cfg);
        let arr = send_and_drain(&mut net, &topo, &[(0, 0, 2, 256)]);
        assert_eq!(arr.len(), 1);
        // Wormhole pipelining: the total must be far less than 2x the
        // store-and-forward time of (3 flits * 4 cyc + 10) per hop.
        let t = arr[0].delivered.cycles();
        assert!(t < 2 * (3 * 4 + 10) + 10, "no pipelining? t = {t}");
        assert!(t > 14, "faster than physics allows: {t}");
    }

    #[test]
    fn finite_buffers_backpressure() {
        // With 1 buffer per VC, every flit must wait for a credit round trip;
        // delivery is much slower than the unconstrained case.
        let delivered = [1, 1000].map(|buffers_per_vc| {
            let (topo, mut cfg) = garnet_ring();
            cfg.vcs_per_vnet = 1;
            cfg.buffers_per_vc = buffers_per_vc;
            let mut net = GarnetNet::new(&topo, &cfg);
            let arr = send_and_drain(&mut net, &topo, &[(0, 0, 2, 1024)]);
            assert_eq!(arr.len(), 1);
            arr[0].delivered
        });
        assert!(
            delivered[0] > delivered[1],
            "credit starvation should slow delivery: {delivered:?}"
        );
    }

    #[test]
    fn vcs_interleave_two_messages() {
        let (topo, cfg) = garnet_ring();
        let mut net = GarnetNet::new(&topo, &cfg);
        let arr = send_and_drain(&mut net, &topo, &[(0, 0, 1, 512), (1, 0, 1, 512)]);
        assert_eq!(arr.len(), 2);
        // Both used the same link; total wire time is the sum of all flits.
        assert_eq!(net.stats().delivered, 2);
    }

    #[test]
    fn conservation_of_flits() {
        let (topo, cfg) = garnet_ring();
        let mut net = GarnetNet::new(&topo, &cfg);
        // One 300 B message from each node to its neighbour.
        let msgs = [0, 1, 2, 3].map(|i| (i, i as usize, 1, 300));
        let arr = send_and_drain(&mut net, &topo, &msgs);
        assert_eq!(arr.len(), 4);
        assert_eq!(net.in_flight(), 0);
        assert!(net.packets.is_empty(), "leaked packet state");
    }

    #[test]
    fn delivered_messages_free_their_slots_for_reuse() {
        let (topo, cfg) = garnet_ring();
        let mut net = GarnetNet::new(&topo, &cfg);
        // 512 B in 256 B packets: two packets per message.
        send_pairs_to_quiescence(&mut net, &topo, 512);
        // Six messages, never more than two in flight.
        assert_eq!(net.messages.capacity_used(), 2);
        assert_eq!(net.packets.capacity_used(), 4);
    }

    #[test]
    fn in_flight_state_does_not_grow_with_message_size() {
        let topo = LogicalTopology::torus(1, 4, 1, 1, 1, 1).unwrap();
        let cfg = NetworkConfig::default();
        for hops in [1, 2] {
            let mut queue_capacity = Vec::new();
            for bytes in [1 << 20, 16 << 20] {
                let mut net = GarnetNet::new(&topo, &cfg);
                let out = send_and_drain(&mut net, &topo, &[(0, 0, hops, bytes)]);
                assert_eq!(out.len(), 1);
                let peak = net.packets.capacity_used();
                assert!(
                    peak <= cfg.vcs_per_vnet * hops,
                    "{bytes} B over {hops} hop(s) peaked at {peak} packet slots"
                );
                let vcs = net.links.iter().flat_map(|l| &l.vcs);
                queue_capacity.push(vcs.map(|vc| vc.queue.capacity()).sum::<usize>());
            }
            assert!(
                queue_capacity[1] <= queue_capacity[0],
                "VC queues grew with message size over {hops} hop(s): {queue_capacity:?}"
            );
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "credit overflow")]
    fn surplus_credit_to_a_full_vc_panics() {
        let (topo, cfg) = garnet_ring();
        let mut net = GarnetNet::new(&topo, &cfg);
        let mut q = EventQueue::new();
        // Every VC starts with all `buffers_per_vc` credits.
        net.handle(&mut q, NetEvent::Credit { link: 0, vc: 0 }, &mut Vec::new());
    }
}
