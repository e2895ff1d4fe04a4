//! Exact garnet timing on small cases: every `Arrival` and the `NetStats`
//! that matter for timing (per-link bytes, busy cycles and traversals, and
//! the fault stall cycles). The values were captured from the model and
//! pin its packetization, VC assignment, round-robin arbitration, credit
//! flow and fault gating, so a change to how the source queues or packet
//! state are stored must leave every number here unchanged.

use astra_des::{EventQueue, Time};
use astra_network::{Backend, GarnetNet, Message, NetworkConfig};
use astra_network::{FaultKind, FaultPlan, LinkFault, LinkParams};
use astra_topology::{Dim, LogicalTopology, NodeId};
use std::fmt::Write;

/// The `1x4x1` ring: 4 cycles per 128-byte flit, 256-byte packets (two
/// data flits and a header), 10 cycles of wire latency, 3 VCs.
fn config() -> NetworkConfig {
    NetworkConfig {
        package: LinkParams {
            gbps: 32.0,
            latency: Time::from_cycles(10),
            efficiency: 0.94,
            packet_bytes: 256,
        },
        vcs_per_vnet: 3,
        buffers_per_vc: 4,
        router_latency: Time::from_cycles(1),
        ..NetworkConfig::default()
    }
}

/// One message on the clockwise ring, sent once `after` events have been
/// handled.
struct Send {
    id: u64,
    src: usize,
    hops: usize,
    bytes: u64,
    after: usize,
}

fn send(id: u64, src: usize, hops: usize, bytes: u64, after: usize) -> Send {
    Send {
        id,
        src,
        hops,
        bytes,
        after,
    }
}

/// Runs `sends` until the network drains, and renders the arrivals and
/// link statistics.
fn run(cfg: &NetworkConfig, plan: Option<FaultPlan>, sends: &[Send]) -> String {
    let topo = LogicalTopology::torus(1, 4, 1, 1, 1, 1).unwrap();
    let mut net = GarnetNet::new(&topo, cfg);
    if let Some(plan) = plan {
        net.install_link_faults(&plan);
    }
    let mut q = EventQueue::new();
    let (mut arrivals, mut handled, mut next) = (Vec::new(), 0, 0);
    loop {
        while let Some(s) = sends.get(next).filter(|s| s.after == handled) {
            let route = topo
                .ring_route(Dim::Horizontal, 0, NodeId(s.src), s.hops)
                .unwrap();
            let msg = Message::new(s.id, NodeId(s.src), route.dst(), s.bytes, 0);
            net.send(&mut q, msg, route).unwrap();
            next += 1;
        }
        let Some((_, ev)) = q.pop() else { break };
        net.handle(&mut q, ev, &mut arrivals);
        handled += 1;
    }
    assert_eq!(next, sends.len(), "a send came after the network drained");
    net.audit_quiescent().unwrap();

    let mut out = String::new();
    for a in &arrivals {
        writeln!(
            out,
            "m{} injected {} first_tx {} delivered {}",
            a.message.id.0,
            a.injected.cycles(),
            a.first_tx_start.cycles(),
            a.delivered.cycles()
        )
        .unwrap();
    }
    let stats = net.stats();
    for (i, l) in stats.links.iter().enumerate() {
        if l.traversals > 0 {
            writeln!(
                out,
                "link {i}: {} B, {} busy, {} flits",
                l.bytes, l.busy_cycles, l.traversals
            )
            .unwrap();
        }
    }
    writeln!(out, "stall {}", stats.fault_stall_cycles).unwrap();
    out
}

fn check(got: &str, want: &str) {
    assert_eq!(got, want, "\n--- got ---\n{got}");
}

fn window(from: usize, to: usize, kind: FaultKind, start: u64, end: u64) -> LinkFault {
    LinkFault {
        from: NodeId(from),
        to: NodeId(to),
        kind,
        start: Time::from_cycles(start),
        end: Time::from_cycles(end),
    }
}

#[test]
fn tail_packet_with_packets_not_a_multiple_of_the_vcs() {
    // 1100 B: four full packets and a 76-byte tail (one data flit and a
    // header), five packets over three VCs.
    check(
        &run(&config(), None, &[send(0, 0, 1, 1100, 0)]),
        "\
        m0 injected 0 first_tx 0 delivered 66\n\
        link 0: 1792 B, 56 busy, 14 flits\n\
        stall 0\n\
        ",
    );
}

#[test]
fn back_to_back_messages_carry_the_packet_serials_over() {
    // Five packets, then three: the second message starts on VC 2.
    check(
        &run(
            &config(),
            None,
            &[send(0, 0, 1, 1100, 0), send(1, 0, 1, 700, 0)],
        ),
        "\
        m0 injected 0 first_tx 0 delivered 74\n\
        m1 injected 0 first_tx 44 delivered 102\n\
        link 0: 2944 B, 92 busy, 23 flits\n\
        stall 0\n\
        ",
    );
}

#[test]
fn forwarded_flits_share_a_vc_with_source_packets() {
    // m0 crosses 0 -> 1 -> 2. m1 starts on link 1 -> 2 at once, so m0's
    // forwarded flits queue behind its source packets; m2 starts there
    // once m0's flits are arriving, so its packets queue behind them.
    check(
        &run(
            &config(),
            None,
            &[
                send(0, 0, 2, 1100, 0),
                send(1, 1, 1, 900, 0),
                send(2, 1, 1, 700, 12),
            ],
        ),
        "\
        m1 injected 0 first_tx 0 delivered 45\n\
        m2 injected 16 first_tx 23 delivered 57\n\
        m0 injected 0 first_tx 0 delivered 80\n\
        link 0: 1792 B, 56 busy, 14 flits\n\
        link 1: 4480 B, 140 busy, 35 flits\n\
        stall 0\n\
        ",
    );
}

#[test]
fn one_buffer_per_vc() {
    let cfg = NetworkConfig {
        buffers_per_vc: 1,
        ..config()
    };
    check(
        &run(
            &cfg,
            None,
            &[
                send(0, 0, 2, 1100, 0),
                send(1, 1, 1, 600, 0),
                send(2, 1, 1, 300, 12),
            ],
        ),
        "\
        m1 injected 0 first_tx 0 delivered 52\n\
        m2 injected 18 first_tx 53 delivered 97\n\
        m0 injected 0 first_tx 0 delivered 164\n\
        link 0: 1792 B, 56 busy, 14 flits\n\
        link 1: 3456 B, 108 busy, 27 flits\n\
        stall 0\n\
        ",
    );
}

#[test]
fn down_and_degrade_windows() {
    let plan = FaultPlan {
        link_faults: vec![
            window(0, 1, FaultKind::Down, 20, 60),
            window(1, 2, FaultKind::Degrade { factor: 0.5 }, 0, 120),
        ],
        ..FaultPlan::default()
    };
    check(
        &run(
            &config(),
            Some(plan),
            &[
                send(0, 0, 2, 1100, 0),
                send(1, 1, 1, 700, 0),
                send(2, 1, 1, 500, 12),
            ],
        ),
        "\
        m1 injected 0 first_tx 0 delivered 45\n\
        m2 injected 19 first_tx 31 delivered 61\n\
        m0 injected 0 first_tx 0 delivered 124\n\
        link 0: 1792 B, 56 busy, 14 flits\n\
        link 1: 3712 B, 232 busy, 29 flits\n\
        stall 40\n\
        ",
    );
}
