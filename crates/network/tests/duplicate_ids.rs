//! The send checks both backends share: the duplicate-id rule (increasing
//! ids pass on the highest id ever sent; the first lower id switches to a
//! set of the ids in flight), with `in_flight()` and `audit_quiescent`
//! checked after each step, and the rejection of empty and misrouted
//! messages.

use astra_des::EventQueue;
use astra_network::{AnalyticalNet, GarnetNet};
use astra_network::{Arrival, Backend, Message, NetEvent, NetworkConfig, NetworkError};
use astra_topology::{Dim, LogicalTopology, NodeId};

type Net = Box<dyn Backend>;

fn ring() -> LogicalTopology {
    LogicalTopology::torus(1, 4, 1, 1, 1, 1).unwrap()
}

fn send(net: &mut Net, q: &mut EventQueue<NetEvent>, id: u64) -> Result<(), NetworkError> {
    send_from(net, q, Message::new(id, NodeId(0), NodeId(1), 4096, 0))
}

/// Sends `msg` on the one-hop route 0 -> 1.
fn send_from(
    net: &mut Net,
    q: &mut EventQueue<NetEvent>,
    msg: Message,
) -> Result<(), NetworkError> {
    let route = ring().ring_route(Dim::Horizontal, 0, NodeId(0), 1).unwrap();
    net.send(q, msg, route)
}

/// `in_flight()` reads `n`, and the audit passes exactly when it is 0.
fn holds(net: &Net, n: usize) {
    assert_eq!(net.in_flight(), n);
    match net.audit_quiescent() {
        Ok(()) => assert_eq!(n, 0, "audit passed with {n} in flight"),
        Err(e) => assert!(
            e.contains(&format!("{n} message(s) still in flight")),
            "{e}"
        ),
    }
}

fn check_rule(mut net: Net) {
    let (mut q, mut out) = (EventQueue::new(), Vec::<Arrival>::new());
    // Increasing ids are accepted.
    send(&mut net, &mut q, 5).unwrap();
    send(&mut net, &mut q, 6).unwrap();
    holds(&net, 2);
    // An in-flight id sent again is rejected, the highest one included.
    for id in [6, 5] {
        let err = send(&mut net, &mut q, id).unwrap_err();
        assert!(matches!(err, NetworkError::DuplicateMessage { id: dup } if dup == id));
        holds(&net, 2);
    }
    // A lower id that is not in flight is accepted.
    send(&mut net, &mut q, 3).unwrap();
    holds(&net, 3);
    // An id sent again after its delivery is accepted.
    for (resend, in_flight) in [(6, 1), (3, 1)] {
        while let Some((_, ev)) = q.pop() {
            net.handle(&mut q, ev, &mut out);
        }
        holds(&net, 0);
        send(&mut net, &mut q, resend).unwrap();
        holds(&net, in_flight);
    }
    let mut ids: Vec<u64> = out.iter().map(|a| a.message.id.0).collect();
    ids.sort_unstable();
    assert_eq!(ids, [3, 5, 6, 6]);
}

#[test]
fn analytical_duplicate_id_rule() {
    let cfg = NetworkConfig::default();
    check_rule(Box::new(AnalyticalNet::new(&ring(), &cfg)));
}

#[test]
fn garnet_duplicate_id_rule() {
    let cfg = NetworkConfig::default();
    check_rule(Box::new(GarnetNet::new(&ring(), &cfg)));
}

/// An empty message and a route that does not join the message's endpoints
/// are rejected, and neither leaves state behind: the id is sent again.
fn check_bad_inputs(mut net: Net) {
    let mut q = EventQueue::new();
    let empty = Message::new(0, NodeId(0), NodeId(1), 0, 0);
    let err = send_from(&mut net, &mut q, empty).unwrap_err();
    assert!(matches!(err, NetworkError::EmptyMessage), "{err}");
    let misrouted = Message::new(0, NodeId(3), NodeId(1), 10, 0);
    let err = send_from(&mut net, &mut q, misrouted).unwrap_err();
    assert!(matches!(err, NetworkError::RouteMismatch { .. }), "{err}");
    holds(&net, 0);
    send(&mut net, &mut q, 0).unwrap();
    holds(&net, 1);
}

#[test]
fn analytical_rejects_bad_inputs() {
    let cfg = NetworkConfig::default();
    check_bad_inputs(Box::new(AnalyticalNet::new(&ring(), &cfg)));
}

#[test]
fn garnet_rejects_bad_inputs() {
    let cfg = NetworkConfig::default();
    check_bad_inputs(Box::new(GarnetNet::new(&ring(), &cfg)));
}
