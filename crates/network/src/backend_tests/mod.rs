//! Checks every backend must pass. A row keeps its backend's ring config,
//! probe size and exact expected cycles; each backend's tests run the
//! checks on its row.

mod drain;

pub(crate) use drain::drain;

use crate::faults::{FaultKind, LinkFault};
use crate::{
    AnalyticalNet, Arrival, Backend, FaultPlan, GarnetNet, LinkParams, Message, NetEvent,
    NetworkConfig,
};
use astra_des::{Clock, EventQueue, Time};
use astra_topology::{Dim, LogicalTopology, NodeId};

/// A 1x4x1 ring with easy analytical numbers: 10 GB/s (10 B/cyc), 5 cycles
/// of latency, no packet overhead.
pub(crate) fn analytical_ring() -> (LogicalTopology, NetworkConfig) {
    let topo = LogicalTopology::torus(1, 4, 1, 1, 1, 1).unwrap();
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

/// A 1x4x1 ring with easy garnet numbers: 4 cycles per 128 B flit, 10
/// cycles of latency, two VCs of four buffers each.
pub(crate) fn garnet_ring() -> (LogicalTopology, NetworkConfig) {
    let topo = LogicalTopology::torus(1, 4, 1, 1, 1, 1).unwrap();
    let cfg = NetworkConfig {
        clock: Clock::GHZ1,
        package: LinkParams {
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

/// A backend on its own ring, and the delivery cycles of its one-hop probe
/// of `bytes` from node 0 to node 1: behind a hard-down window over
/// `[0, down.0)`, and at half bandwidth.
pub(crate) struct Row {
    name: &'static str,
    ring: fn() -> (LogicalTopology, NetworkConfig),
    build: fn(&LogicalTopology, &NetworkConfig) -> Box<dyn Backend>,
    bytes: u64,
    down: (u64, u64),
    half_bandwidth: u64,
}

pub(crate) const ANALYTICAL: Row = Row {
    name: "analytical",
    ring: analytical_ring,
    build: |topo, cfg| Box::new(AnalyticalNet::new(topo, cfg)),
    bytes: 100,
    // Transmission starts when the link comes back: 100 + 10 ser + 5 latency.
    down: (100, 115),
    // 100 B at 5 B/cyc = 20 cyc ser + 5 latency.
    half_bandwidth: 25,
};

pub(crate) const GARNET: Row = Row {
    name: "garnet",
    ring: garnet_ring,
    build: |topo, cfg| Box::new(GarnetNet::new(topo, cfg)),
    // One data flit plus the header flit.
    bytes: 1,
    // The fault-free delivery is at cycle 18 (flit0 on the wire [0,4),
    // arrives 14; flit1 [4,8), arrives 18); the outage shifts it by 50.
    down: (50, 68),
    // 8 cyc per flit: flit0 [0,8) arrives 18; flit1 [8,16) arrives 26.
    half_bandwidth: 26,
};

/// Sends each `(id, src, hops, bytes)` message at cycle 0 along `topo`'s
/// first horizontal ring, in order, then drains `net`; returns the arrivals.
pub(crate) fn send_and_drain(
    net: &mut dyn Backend,
    topo: &LogicalTopology,
    msgs: &[(u64, usize, usize, u64)],
) -> Vec<Arrival> {
    let mut q = EventQueue::new();
    for &(id, src, hops, bytes) in msgs {
        let route = topo
            .ring_route(Dim::Horizontal, 0, NodeId(src), hops)
            .unwrap();
        let msg = Message::new(id, NodeId(src), route.dst(), bytes, 0);
        net.send(&mut q, msg, route).unwrap();
    }
    drain(net, &mut q)
}

/// Sends `row`'s probe with `plan` installed (if any); returns its arrival
/// and the cycles transmissions stalled behind outages.
pub(crate) fn one_send(row: &Row, plan: Option<&FaultPlan>) -> (Arrival, u64) {
    let (topo, cfg) = (row.ring)();
    let mut net = (row.build)(&topo, &cfg);
    if let Some(p) = plan {
        net.install_link_faults(p);
    }
    let out = send_and_drain(net.as_mut(), &topo, &[(0, 0, 1, row.bytes)]);
    assert_eq!(out.len(), 1, "{}", row.name);
    (out[0], net.stats().fault_stall_cycles)
}

/// A plan of one fault on the link from `from` to `to` over `[start, end)`.
pub(crate) fn plan(from: usize, to: usize, kind: FaultKind, start: u64, end: u64) -> FaultPlan {
    FaultPlan {
        link_faults: vec![LinkFault {
            from: NodeId(from),
            to: NodeId(to),
            kind,
            start: Time::from_cycles(start),
            end: Time::from_cycles(end),
        }],
        ..FaultPlan::default()
    }
}

/// With an empty plan installed, `row`'s probe arrives exactly as without
/// one and stalls nowhere.
pub(crate) fn check_empty_plan(row: &Row) {
    let (clean, _) = one_send(row, None);
    let (with_empty, stalls) = one_send(row, Some(&FaultPlan::default()));
    assert_eq!(clean, with_empty, "{}", row.name);
    assert_eq!(stalls, 0, "{}", row.name);
}

/// Behind a hard-down window, `row`'s probe first transmits when the link
/// comes back and arrives at the row's exact cycle.
pub(crate) fn check_down_window(row: &Row) {
    let (end, delivered) = row.down;
    let (arr, stalls) = one_send(row, Some(&plan(0, 1, FaultKind::Down, 0, end)));
    assert_eq!(arr.first_tx_start, Time::from_cycles(end), "{}", row.name);
    assert_eq!(arr.delivered, Time::from_cycles(delivered), "{}", row.name);
    assert_eq!(stalls, end, "{}", row.name);
}

/// At half bandwidth, `row`'s probe arrives at the row's exact cycle.
pub(crate) fn check_degrade_window(row: &Row) {
    let half = FaultKind::Degrade { factor: 0.5 };
    let (arr, stalls) = one_send(row, Some(&plan(0, 1, half, 0, 1_000)));
    let expected = Time::from_cycles(row.half_bandwidth);
    assert_eq!(arr.delivered, expected, "{}", row.name);
    assert_eq!(stalls, 0, "{}", row.name);
}

/// Sends six `bytes`-byte messages from node 0 to node 2 of `topo` in three
/// rounds of two; each round must deliver both ids and leave `net` quiescent.
pub(crate) fn send_pairs_to_quiescence(net: &mut dyn Backend, topo: &LogicalTopology, bytes: u64) {
    let route = topo.ring_route(Dim::Horizontal, 0, NodeId(0), 2).unwrap();
    let mut q = EventQueue::new();
    for round in 0..3u64 {
        for id in [2 * round, 2 * round + 1] {
            let msg = Message::new(id, NodeId(0), NodeId(2), bytes, 0);
            net.send(&mut q, msg, route.clone()).unwrap();
        }
        assert_eq!(net.in_flight(), 2);
        let mut ids: Vec<u64> = drain(net, &mut q).iter().map(|a| a.message.id.0).collect();
        ids.sort_unstable();
        assert_eq!(ids, [2 * round, 2 * round + 1]);
        net.audit_quiescent().unwrap();
    }
}
