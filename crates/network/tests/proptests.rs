//! Property tests for the network backends: conservation, FIFO ordering,
//! and software/hardware routing consistency.

use astra_des::EventQueue;
use astra_network::{
    AnalyticalNet, Arrival, Backend, GarnetNet, Message, NetEvent, NetworkConfig, RoutingMode,
};
use astra_topology::{Dim, LogicalTopology, NodeId};
use proptest::prelude::*;

#[path = "../src/backend_tests/drain.rs"]
mod drain;
use drain::drain;

/// (source node, ring distance 1..=7, bytes)
fn traffic_strategy() -> impl Strategy<Value = Vec<(usize, usize, u64)>> {
    proptest::collection::vec((0usize..8, 1usize..8, 1u64..100_000), 1..40)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every injected message is delivered exactly once, to the right
    /// destination, with sane timestamps — under both routing modes.
    #[test]
    fn analytical_delivers_everything(msgs in traffic_strategy(), hardware in any::<bool>()) {
        let topo = LogicalTopology::torus(1, 8, 1, 1, 2, 1).unwrap();
        let cfg = NetworkConfig {
            routing: if hardware { RoutingMode::Hardware } else { RoutingMode::Software },
            ..NetworkConfig::default()
        };
        let mut net = AnalyticalNet::new(&topo, &cfg);
        let mut q = EventQueue::new();
        let mut expected = Vec::new();
        for (id, &(src, dist, bytes)) in msgs.iter().enumerate() {
            let route = topo.ring_route(Dim::Horizontal, 0, NodeId(src), dist).unwrap();
            let dst = route.dst();
            expected.push((id as u64, dst, bytes));
            net.send(&mut q, Message::new(id as u64, NodeId(src), dst, bytes, 0), route)
                .unwrap();
        }
        let arrivals = drain(&mut net, &mut q);
        prop_assert_eq!(arrivals.len(), msgs.len());
        prop_assert_eq!(net.in_flight(), 0);
        let mut got: Vec<(u64, NodeId, u64)> = arrivals
            .iter()
            .map(|a| (a.message.id.0, a.message.dst, a.message.bytes))
            .collect();
        got.sort_unstable();
        prop_assert_eq!(got, expected);
        for a in &arrivals {
            prop_assert!(a.first_tx_start >= a.injected);
            prop_assert!(a.delivered > a.first_tx_start);
        }
        // Payload accounting matches.
        prop_assert_eq!(
            net.stats().payload_bytes,
            msgs.iter().map(|m| m.2).sum::<u64>()
        );
    }

    /// Hardware (cut-through) routing never delivers later than software
    /// routing for a single uncontended message.
    #[test]
    fn cut_through_dominates_uncontended(dist in 1usize..8, bytes in 1u64..1_000_000) {
        let topo = LogicalTopology::torus(1, 8, 1, 1, 2, 1).unwrap();
        let run = |routing| {
            let cfg = NetworkConfig { routing, ..NetworkConfig::default() };
            let mut net = AnalyticalNet::new(&topo, &cfg);
            let mut q = EventQueue::new();
            let route = topo.ring_route(Dim::Horizontal, 0, NodeId(0), dist).unwrap();
            let dst = route.dst();
            net.send(&mut q, Message::new(0, NodeId(0), dst, bytes, 0), route).unwrap();
            drain(&mut net, &mut q)[0].delivered
        };
        let sw = run(RoutingMode::Software);
        let hw = run(RoutingMode::Hardware);
        prop_assert!(hw <= sw, "hw {hw} > sw {sw}");
    }

    /// Messages between the same pair on the same route deliver in
    /// injection order (FIFO links).
    #[test]
    fn same_route_is_fifo(count in 2usize..20, bytes in 1u64..50_000, dist in 1usize..4) {
        let topo = LogicalTopology::torus(1, 8, 1, 1, 2, 1).unwrap();
        let mut net = AnalyticalNet::new(&topo, &NetworkConfig::default());
        let mut q = EventQueue::new();
        for id in 0..count {
            let route = topo.ring_route(Dim::Horizontal, 0, NodeId(0), dist).unwrap();
            let dst = route.dst();
            net.send(&mut q, Message::new(id as u64, NodeId(0), dst, bytes, 0), route)
                .unwrap();
        }
        let arrivals = drain(&mut net, &mut q);
        let order: Vec<u64> = arrivals.iter().map(|a| a.message.id.0).collect();
        let sorted: Vec<u64> = (0..count as u64).collect();
        prop_assert_eq!(order, sorted);
    }

    /// The garnet backend conserves messages too (smaller cases — it is a
    /// flit-level model).
    #[test]
    fn garnet_delivers_everything(
        msgs in proptest::collection::vec((0usize..4, 1u64..4_096), 1..12)
    ) {
        let topo = LogicalTopology::torus(1, 4, 1, 1, 1, 1).unwrap();
        let cfg = NetworkConfig {
            vcs_per_vnet: 4,
            buffers_per_vc: 8,
            ..NetworkConfig::default()
        };
        let mut net = GarnetNet::new(&topo, &cfg);
        let mut q = EventQueue::new();
        for (id, &(src, bytes)) in msgs.iter().enumerate() {
            let route = topo.ring_route(Dim::Horizontal, 0, NodeId(src), 1).unwrap();
            let dst = route.dst();
            net.send(&mut q, Message::new(id as u64, NodeId(src), dst, bytes, 0), route)
                .unwrap();
        }
        let arrivals = drain(&mut net, &mut q);
        prop_assert_eq!(arrivals.len(), msgs.len());
        prop_assert_eq!(net.in_flight(), 0);
    }
}
