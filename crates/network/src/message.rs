//! Messages, the in-flight message table and delivery records.

use crate::link_index::{LinkIndex, LinkPath};
use crate::{NetStats, NetworkError};
use astra_des::hash::IdSet;
use astra_des::{Slab, SlabKey, Time};
use astra_topology::{NodeId, Route};
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

/// The duplicate-id check both backends share. The system layer numbers
/// messages in increasing order, so an id above every id sent before cannot
/// be in flight: it passes in O(1), and no per-message state is kept. The
/// first id that is not above them (a paced send or retransmission that
/// waited in the transport arena, or a caller's reuse) switches the check
/// to a set of the ids in flight, built once from the backend's messages
/// and updated on every send and delivery after that. Scanning the
/// messages in flight for each such id instead made a paced all-to-all on
/// 64 NPUs about 40× slower.
#[derive(Debug, Default)]
struct SentIds {
    highest: Option<u64>,
    in_flight: Option<IdSet<u64>>,
}

impl SentIds {
    /// Admits `id` unless a message in flight carries it. `in_flight`
    /// yields the backend's messages; it is read once, to build the set.
    fn admit<'a>(
        &mut self,
        id: MsgId,
        in_flight: impl Iterator<Item = &'a Message>,
    ) -> Result<(), NetworkError> {
        let fresh = self.highest.is_none_or(|highest| id.0 > highest);
        if fresh {
            self.highest = Some(id.0);
            if self.in_flight.is_none() {
                return Ok(());
            }
        }
        let set = self
            .in_flight
            .get_or_insert_with(|| in_flight.map(|m| m.id.0).collect());
        if set.insert(id.0) {
            Ok(())
        } else {
            Err(NetworkError::DuplicateMessage { id: id.0 })
        }
    }

    /// Forgets a delivered message's id.
    fn delivered(&mut self, id: MsgId) {
        if let Some(set) = &mut self.in_flight {
            set.remove(&id.0);
        }
    }

    /// Ids still tracked as in flight (0 until the set exists).
    fn tracked(&self) -> usize {
        self.in_flight.as_ref().map_or(0, |set| set.len())
    }
}

/// A message in flight, with its resolved link path and the backend's own
/// progress `S` (the analytical hop, garnet's flits left).
#[derive(Debug)]
pub(crate) struct InFlightMsg<S> {
    pub(crate) msg: Message,
    pub(crate) path: LinkPath,
    pub(crate) injected: Time,
    /// The earliest transmission start so far: `Time::MAX`, which no event
    /// reaches, until the first.
    pub(crate) first_tx_start: Time,
    pub(crate) state: S,
}

/// The in-flight message table both backends hold: reused slots (a backend
/// event names its message by slot) and the duplicate-id check over them.
#[derive(Debug, Default)]
pub(crate) struct InFlight<S> {
    ids: SentIds,
    slots: Slab<InFlightMsg<S>>,
}

impl<S: Default> InFlight<S> {
    /// Checks a send (a non-empty message, a route between its endpoints
    /// over existing links, then a fresh id, so a rejected send leaves no
    /// id behind) and stores it with a default `S` for the backend to start.
    ///
    /// `#[inline]`: an out-of-line call here cost `sweep_fig10` ~3% of its
    /// events/s (perfbench, alternating runs).
    #[inline]
    pub(crate) fn admit(
        &mut self,
        index: &LinkIndex,
        msg: Message,
        route: &Route,
        now: Time,
    ) -> Result<(SlabKey, &mut InFlightMsg<S>), NetworkError> {
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
        let path = index.resolve(route)?;
        self.ids
            .admit(msg.id, self.slots.values().map(|m| &m.msg))?;
        let slot = self.slots.insert(InFlightMsg {
            msg,
            path,
            injected: now,
            first_tx_start: Time::MAX,
            state: S::default(),
        });
        Ok((slot, self.slots.get_mut(slot).expect("just inserted")))
    }

    #[inline]
    pub(crate) fn get(&self, slot: SlabKey) -> Option<&InFlightMsg<S>> {
        self.slots.get(slot)
    }

    #[inline]
    pub(crate) fn get_mut(&mut self, slot: SlabKey) -> Option<&mut InFlightMsg<S>> {
        self.slots.get_mut(slot)
    }

    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    /// Slots ever used: the peak number of messages in flight.
    #[cfg(test)]
    pub(crate) fn capacity_used(&self) -> usize {
        self.slots.capacity_used()
    }

    /// Delivers the message in `slot` at `now`: frees its slot, then its
    /// id, records the [`Arrival`] in `stats` and appends it to `arrivals`.
    #[inline]
    pub(crate) fn deliver(
        &mut self,
        slot: SlabKey,
        now: Time,
        stats: &mut NetStats,
        arrivals: &mut Vec<Arrival>,
    ) {
        let done = self.slots.remove(slot).expect("delivered message's slot");
        self.ids.delivered(done.msg.id);
        let arrival = Arrival {
            message: done.msg,
            injected: done.injected,
            first_tx_start: done.first_tx_start,
            delivered: now,
        };
        stats.record_delivery(&arrival);
        arrivals.push(arrival);
    }

    /// The message part of a backend's quiescence audit: no message or id
    /// left in flight, and the slots consistent. Errors name `backend`.
    pub(crate) fn audit(&self, backend: &str) -> Result<(), String> {
        if !self.slots.is_empty() || self.ids.tracked() > 0 {
            return Err(format!(
                "{backend}: {} message(s) still in flight ({} id(s) tracked)",
                self.slots.len(),
                self.ids.tracked()
            ));
        }
        self.slots
            .audit()
            .map_err(|e| format!("{backend}: message {e}"))
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
        assert_eq!(
            a.source_queueing() + a.wire_time(),
            a.delivered - a.injected
        );
    }

    #[test]
    fn increasing_ids_keep_no_set_until_one_arrives_out_of_order() {
        let msgs: Vec<Message> = (0..4)
            .map(|i| Message::new(i, NodeId(0), NodeId(1), 8, 0))
            .collect();
        let mut ids = SentIds::default();
        for m in &msgs[..3] {
            ids.admit(m.id, msgs[..0].iter()).unwrap();
        }
        assert!(ids.in_flight.is_none(), "the O(1) path keeps no state");
        // Id 1 is not above 2: the set is built from the messages in flight.
        let err = ids.admit(MsgId(1), msgs[..3].iter()).unwrap_err();
        assert!(matches!(err, NetworkError::DuplicateMessage { id: 1 }));
        assert_eq!(ids.tracked(), 3);
        ids.delivered(MsgId(1));
        ids.admit(MsgId(1), msgs[..0].iter()).unwrap();
        ids.admit(MsgId(3), msgs[..0].iter()).unwrap();
        assert_eq!(ids.tracked(), 4, "once built, every send is tracked");
    }

    #[test]
    fn display_of_ids() {
        assert_eq!(MsgId(7).to_string(), "m7");
    }
}
