//! The central event queue.

use crate::{Slab, SlabKey, Time};
use std::cmp::{Ordering, Reverse};
use std::collections::binary_heap::{BinaryHeap, PeekMut};
use std::fmt;

struct Entry<E> {
    time: Time,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.time.cmp(&other.time).then(self.seq.cmp(&other.seq))
    }
}

/// An event stored on a FIFO lane, linked to the lane's next (later)
/// event.
struct LaneNode<E> {
    time: Time,
    seq: u64,
    next: Option<SlabKey>,
    payload: E,
}

/// The slab keys of a lane's oldest and newest events (both `None` when
/// the lane is empty) and the newest event's time.
#[derive(Debug, Clone, Copy, Default)]
struct Lane {
    head: Option<SlabKey>,
    tail: Option<SlabKey>,
    last: Time,
}

/// The key of a non-empty lane in the lane-head heap: its oldest event's
/// `(time, seq)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct LaneHead {
    time: Time,
    seq: u64,
    lane: u32,
}

/// A deterministic future-event list.
///
/// Events are `(Time, E)` pairs ordered by time; same-time events pop in
/// scheduling order (stable FIFO tie-break). The queue tracks the current
/// simulation time [`EventQueue::now`], which advances monotonically as
/// events are popped.
///
/// Besides the heap every [`EventQueue::schedule_at`] goes to, the queue
/// has FIFO *lanes* ([`EventQueue::schedule_on`]) for producers whose
/// events come in nondecreasing time order, such as a FIFO link server's
/// arrivals. A lane is a linked list, and only its oldest event sits in a
/// second, small heap, so a deep backlog of lane events costs no heap
/// depth. Both paths share one sequence counter, so the pop order is the
/// same `(time, seq)` order whichever path an event took.
///
/// # Example
///
/// ```
/// use astra_des::{EventQueue, Time};
///
/// let mut q = EventQueue::new();
/// q.schedule_in(Time::from_cycles(3), 1u32);
/// q.schedule_in(Time::ZERO, 2u32); // fires "now"
/// q.schedule_on(0, Time::from_cycles(3), 3u32); // lane 0, after event 1
/// assert_eq!(q.pop(), Some((Time::ZERO, 2)));
/// assert_eq!(q.pop(), Some((Time::from_cycles(3), 1)));
/// assert_eq!(q.pop(), Some((Time::from_cycles(3), 3)));
/// assert_eq!(q.pop(), None);
/// ```
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    /// One entry per non-empty lane, keyed by the lane's oldest event.
    lane_heads: BinaryHeap<Reverse<LaneHead>>,
    lanes: Vec<Lane>,
    /// Every lane's events, each linked to the next one of its lane.
    lane_events: Slab<LaneNode<E>>,
    seq: u64,
    now: Time,
    popped: u64,
    /// `(time, seq)` of the most recent pop, for the conformance harness's
    /// monotonicity / FIFO-stability invariant (see `conform-checks`).
    #[cfg(feature = "conform-checks")]
    last_pop: Option<(Time, u64)>,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            lane_heads: BinaryHeap::new(),
            lanes: Vec::new(),
            lane_events: Slab::new(),
            seq: 0,
            now: Time::ZERO,
            popped: 0,
            #[cfg(feature = "conform-checks")]
            last_pop: None,
        }
    }

    /// The current simulation time: the timestamp of the most recently
    /// popped event (zero before the first pop).
    pub fn now(&self) -> Time {
        self.now
    }

    /// Schedules `payload` to fire at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past (before [`EventQueue::now`]); a DES must
    /// never schedule backwards in time.
    pub fn schedule_at(&mut self, at: Time, payload: E) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: now={}, at={}",
            self.now,
            at
        );
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Entry {
            time: at,
            seq,
            payload,
        }));
    }

    /// Schedules `payload` to fire at absolute time `at`, appended to FIFO
    /// lane `lane`. The event pops exactly when [`EventQueue::schedule_at`]
    /// would have popped it; the lane only makes it cheaper when the
    /// lane's events arrive in nondecreasing time order. An event earlier
    /// than the lane's newest one goes to the heap instead, so the order
    /// never depends on the caller keeping that promise.
    ///
    /// Lanes are dense indices: the queue keeps a small record for every
    /// lane up to the highest one used.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past, as [`EventQueue::schedule_at`] does.
    pub fn schedule_on(&mut self, lane: u32, at: Time, payload: E) {
        let idx = lane as usize;
        if idx >= self.lanes.len() {
            self.lanes.resize(idx + 1, Lane::default());
        }
        if self.lanes[idx].tail.is_some() && at < self.lanes[idx].last {
            return self.schedule_at(at, payload);
        }
        assert!(
            at >= self.now,
            "cannot schedule into the past: now={}, at={}",
            self.now,
            at
        );
        let seq = self.seq;
        self.seq += 1;
        let ends = &mut self.lanes[idx];
        let key = self.lane_events.insert(LaneNode {
            time: at,
            seq,
            next: None,
            payload,
        });
        match ends.tail {
            Some(tail) => {
                self.lane_events
                    .get_mut(tail)
                    .expect("a lane's tail is a stored event")
                    .next = Some(key);
            }
            None => {
                ends.head = Some(key);
                self.lane_heads.push(Reverse(LaneHead {
                    time: at,
                    seq,
                    lane,
                }));
            }
        }
        ends.tail = Some(key);
        ends.last = at;
    }

    /// Schedules `payload` to fire `delay` after the current time.
    pub fn schedule_in(&mut self, delay: Time, payload: E) {
        let at = self
            .now
            .checked_add(delay)
            .expect("simulation time overflow");
        self.schedule_at(at, payload);
    }

    /// Removes and returns the earliest event, advancing [`EventQueue::now`]
    /// to its timestamp. Returns `None` when the queue is empty.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        let lane_first = self.lane_heads.peek().is_some_and(|Reverse(l)| {
            let direct = self.heap.peek();
            direct.is_none_or(|Reverse(d)| (l.time, l.seq) < (d.time, d.seq))
        });
        let popped = if lane_first {
            self.pop_lane()
        } else {
            self.heap.pop()
        };
        let Reverse(entry) = popped?;
        debug_assert!(entry.time >= self.now, "event queue yielded a past event");
        #[cfg(feature = "conform-checks")]
        {
            if let Some((last_time, last_seq)) = self.last_pop {
                assert!(
                    (entry.time, entry.seq) > (last_time, last_seq),
                    "conform-checks: event queue pop order violated: \
                     popped (t={}, seq={}) after (t={}, seq={})",
                    entry.time,
                    entry.seq,
                    last_time,
                    last_seq
                );
            }
            self.last_pop = Some((entry.time, entry.seq));
        }
        self.now = entry.time;
        self.popped += 1;
        Some((entry.time, entry.payload))
    }

    /// Unlinks the oldest event of the lane on top of the lane-head heap
    /// and re-keys that lane by its next event (one sift), or drops it from
    /// the heap when it empties. It answers in the heap's own `pop` type,
    /// and stays out of line, so that both paths of [`EventQueue::pop`]
    /// fill one result slot: a merged copy of the result measurably slowed
    /// queues that never use a lane.
    #[inline(never)]
    fn pop_lane(&mut self) -> Option<Reverse<Entry<E>>> {
        let mut top = self
            .lane_heads
            .peek_mut()
            .expect("pop_lane is called with a lane pending");
        let lane = top.0.lane;
        let ends = &mut self.lanes[lane as usize];
        let key = ends.head.expect("a lane in the head heap is non-empty");
        let node = self
            .lane_events
            .remove(key)
            .expect("a lane's head is a stored event");
        ends.head = node.next;
        match node.next {
            Some(next) => {
                let next = self
                    .lane_events
                    .get(next)
                    .expect("a lane's chain links stored events");
                top.0 = LaneHead {
                    time: next.time,
                    seq: next.seq,
                    lane,
                };
            }
            None => {
                ends.tail = None;
                PeekMut::pop(top);
            }
        }
        Some(Reverse(Entry {
            time: node.time,
            seq: node.seq,
            payload: node.payload,
        }))
    }

    /// Timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<Time> {
        let direct = self.heap.peek().map(|Reverse(e)| e.time);
        let lane = self.lane_heads.peek().map(|Reverse(h)| h.time);
        direct.into_iter().chain(lane).min()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len() + self.lane_events.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty() && self.lane_events.is_empty()
    }

    /// Total number of events popped since construction (a cheap progress /
    /// throughput metric for the bench harness).
    pub fn events_processed(&self) -> u64 {
        self.popped
    }

    /// Checks the lane bookkeeping (an O(pending) pass, for end-of-run
    /// audits): every lane's chain runs from its head to its tail in
    /// increasing `(time, seq)` order over stored events, the chains
    /// together hold every stored lane event, and the lane-head heap holds
    /// exactly one entry per non-empty lane, keyed by that lane's head.
    ///
    /// # Errors
    ///
    /// The first inconsistency found.
    pub fn audit(&self) -> Result<(), String> {
        self.lane_events
            .audit()
            .map_err(|e| format!("event queue lane storage: {e}"))?;
        let mut chained = 0usize;
        let mut non_empty = 0usize;
        for (lane, ends) in self.lanes.iter().enumerate() {
            let Some(mut key) = ends.head else {
                if ends.tail.is_some() {
                    return Err(format!("event queue: lane {lane} has a tail but no head"));
                }
                continue;
            };
            non_empty += 1;
            let mut prev: Option<(Time, u64)> = None;
            loop {
                let node = self.lane_events.get(key).ok_or_else(|| {
                    format!(
                        "event queue: lane {lane} links to a free slot {}",
                        key.index()
                    )
                })?;
                if prev.is_some_and(|p| (node.time, node.seq) <= p) {
                    return Err(format!(
                        "event queue: lane {lane} is out of order at t={}, seq={}",
                        node.time, node.seq
                    ));
                }
                prev = Some((node.time, node.seq));
                chained += 1;
                if chained > self.lane_events.len() {
                    return Err(format!("event queue: lane {lane}'s chain does not end"));
                }
                match node.next {
                    Some(next) => key = next,
                    None => break,
                }
            }
            if ends.tail != Some(key) || prev.map(|(t, _)| t) != Some(ends.last) {
                return Err(format!(
                    "event queue: lane {lane}'s tail is not its last event"
                ));
            }
        }
        if chained != self.lane_events.len() {
            return Err(format!(
                "event queue: lane chains hold {chained} of {} stored lane events",
                self.lane_events.len()
            ));
        }
        if self.lane_heads.len() != non_empty {
            return Err(format!(
                "event queue: {} lane-head entries for {non_empty} non-empty lanes",
                self.lane_heads.len()
            ));
        }
        let mut seen = vec![false; self.lanes.len()];
        for Reverse(h) in &self.lane_heads {
            let head = self
                .lanes
                .get(h.lane as usize)
                .and_then(|ends| ends.head)
                .and_then(|key| self.lane_events.get(key));
            if head.map(|n| (n.time, n.seq)) != Some((h.time, h.seq)) {
                return Err(format!(
                    "event queue: lane-head entry (t={}, seq={}) is not lane {}'s head",
                    h.time, h.seq, h.lane
                ));
            }
            if std::mem::replace(&mut seen[h.lane as usize], true) {
                return Err(format!(
                    "event queue: lane {} is in the head heap twice",
                    h.lane
                ));
            }
        }
        Ok(())
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EventQueue")
            .field("now", &self.now)
            .field("pending", &self.len())
            .field("lanes", &self.lane_heads.len())
            .field("processed", &self.popped)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(Time::from_cycles(30), 'c');
        q.schedule_at(Time::from_cycles(10), 'a');
        q.schedule_at(Time::from_cycles(20), 'b');
        let out: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(out, vec!['a', 'b', 'c']);
    }

    #[test]
    fn same_time_is_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule_at(Time::from_cycles(5), i);
        }
        let out: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(out, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn now_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule_in(Time::from_cycles(7), ());
        assert_eq!(q.now(), Time::ZERO);
        q.pop();
        assert_eq!(q.now(), Time::from_cycles(7));
        // schedule_in is now relative to t=7.
        q.schedule_in(Time::from_cycles(3), ());
        assert_eq!(q.peek_time(), Some(Time::from_cycles(10)));
    }

    #[test]
    #[should_panic(expected = "past")]
    fn scheduling_into_past_panics() {
        let mut q = EventQueue::new();
        q.schedule_at(Time::from_cycles(10), ());
        q.pop();
        q.schedule_at(Time::from_cycles(5), ());
    }

    #[test]
    fn len_and_counters() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule_in(Time::ZERO, 1);
        q.schedule_in(Time::ZERO, 2);
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.events_processed(), 1);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn interleaved_schedule_and_pop_keeps_order() {
        let mut q = EventQueue::new();
        q.schedule_at(Time::from_cycles(1), 1);
        q.schedule_at(Time::from_cycles(5), 5);
        assert_eq!(q.pop().unwrap().1, 1);
        q.schedule_at(Time::from_cycles(3), 3);
        assert_eq!(q.pop().unwrap().1, 3);
        assert_eq!(q.pop().unwrap().1, 5);
    }

    #[test]
    fn lanes_merge_with_the_heap_in_schedule_order() {
        let mut q = EventQueue::new();
        q.schedule_on(3, Time::from_cycles(5), 'a');
        q.schedule_at(Time::from_cycles(5), 'b');
        q.schedule_on(3, Time::from_cycles(5), 'c');
        q.schedule_on(0, Time::from_cycles(2), 'd');
        q.schedule_at(Time::from_cycles(9), 'e');
        q.schedule_on(3, Time::from_cycles(7), 'f');
        assert_eq!(q.len(), 6);
        assert_eq!(q.peek_time(), Some(Time::from_cycles(2)));
        let out: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(out, vec!['d', 'a', 'b', 'c', 'f', 'e']);
        assert!(q.is_empty());
        q.audit().unwrap();
    }

    #[test]
    fn an_out_of_order_lane_push_falls_back_to_the_heap() {
        let mut q = EventQueue::new();
        q.schedule_on(1, Time::from_cycles(10), 1);
        q.schedule_on(1, Time::from_cycles(4), 2);
        assert_eq!(q.lane_events.len(), 1);
        assert_eq!(q.heap.len(), 1);
        q.audit().unwrap();
        assert_eq!(q.pop(), Some((Time::from_cycles(4), 2)));
        assert_eq!(q.pop(), Some((Time::from_cycles(10), 1)));
    }

    #[test]
    #[should_panic(expected = "past")]
    fn scheduling_a_lane_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule_at(Time::from_cycles(10), ());
        q.pop();
        q.schedule_on(0, Time::from_cycles(5), ());
    }

    #[test]
    fn audit_catches_corrupt_lane_bookkeeping() {
        let filled = || {
            let mut q = EventQueue::new();
            for i in 0..4u64 {
                q.schedule_on(0, Time::from_cycles(i), i);
                q.schedule_on(2, Time::from_cycles(i + 1), i);
            }
            q.pop();
            q.audit().unwrap();
            q
        };

        let mut q = filled();
        let extra = *q.lane_heads.peek().unwrap();
        q.lane_heads.push(extra);
        let err = q.audit().unwrap_err();
        assert!(
            err.contains("3 lane-head entries for 2 non-empty lanes"),
            "{err}"
        );

        let mut q = filled();
        let head = q.lanes[2].head.unwrap();
        q.lanes[2].head = q.lane_events.get(head).unwrap().next;
        let err = q.audit().unwrap_err();
        assert!(err.contains("lane chains hold 6 of 7"), "{err}");

        let mut q = filled();
        q.lanes[0].tail = None;
        q.lanes[0].head = None;
        let err = q.audit().unwrap_err();
        assert!(err.contains("lane chains hold 4 of 7"), "{err}");
    }
}
