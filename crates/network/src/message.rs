//! Messages and delivery records.

use astra_des::Time;
use astra_topology::NodeId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Unique id of an in-flight message, assigned by the sender (the system
/// layer uses it to correlate deliveries with collective state machines).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct MsgId(pub u64);

impl fmt::Display for MsgId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// A network message: the unit the collective algorithms exchange
/// (Table II: one chunk decomposes into messages proportional to the number
/// of nodes; messages decompose into packets inside the network backend).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Message {
    /// Sender-assigned unique id.
    pub id: MsgId,
    /// Originating NPU.
    pub src: NodeId,
    /// Destination NPU.
    pub dst: NodeId,
    /// Payload size in bytes.
    pub bytes: u64,
    /// Opaque correlation tag owned by the sender (the network never
    /// interprets it).
    pub tag: u64,
}

impl Message {
    /// Convenience constructor.
    pub fn new(id: u64, src: NodeId, dst: NodeId, bytes: u64, tag: u64) -> Self {
        Message {
            id: MsgId(id),
            src,
            dst,
            bytes,
            tag,
        }
    }
}

/// A completed delivery, with the timestamps the system layer needs for its
/// queue-delay vs network-delay breakdown (Fig 12b / Fig 16).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Arrival {
    /// The delivered message.
    pub message: Message,
    /// When the sender called `send`.
    pub injected: Time,
    /// When the first link actually began serializing the message — the gap
    /// `first_tx_start - injected` is queueing delay at the source.
    pub first_tx_start: Time,
    /// When the last byte reached the destination.
    pub delivered: Time,
}

impl Arrival {
    /// Time spent waiting for the first link to free up.
    pub fn source_queueing(&self) -> Time {
        self.first_tx_start - self.injected
    }

    /// Time spent on the wire (serialization + propagation + relaying).
    pub fn wire_time(&self) -> Time {
        self.delivered - self.first_tx_start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrival_decomposition_adds_up() {
        let a = Arrival {
            message: Message::new(1, NodeId(0), NodeId(1), 64, 0),
            injected: Time::from_cycles(10),
            first_tx_start: Time::from_cycles(25),
            delivered: Time::from_cycles(100),
        };
        assert_eq!(a.source_queueing(), Time::from_cycles(15));
        assert_eq!(a.wire_time(), Time::from_cycles(75));
        assert_eq!(a.source_queueing() + a.wire_time(), a.delivered - a.injected);
    }

    #[test]
    fn display_of_ids() {
        assert_eq!(MsgId(7).to_string(), "m7");
    }
}
