//! The central event queue.

use crate::Time;
use std::collections::VecDeque;
use std::fmt;

struct Entry<E> {
    time: Time,
    seq: u64,
    payload: E,
}

/// Entry slots per block: a bucket's chain grows a block at a time.
const BLOCK: u32 = 32;
/// Entry slots per arena chunk (32 blocks).
const CHUNK: usize = 1024;
/// "No block": the end of a chain or of the free list.
const NIL: u32 = u32::MAX;

/// One of buckets 1..=64: a chain of blocks from `head`, linked through
/// `EventQueue::links`, whose entries fill every slot from the head
/// block's first one up to slot `end` (exclusive) in the last block.
#[derive(Debug, Clone, Copy)]
struct Chain {
    head: u32,
    end: u32,
    /// The earliest entry's time (`Time::MAX` when empty).
    min: Time,
}

impl Chain {
    const EMPTY: Chain = Chain {
        head: NIL,
        end: 0,
        min: Time::MAX,
    };
}

/// The bucket an event at `t` belongs in while the clock reads `now`: 0
/// for `t == now`, else one more than the highest bit in which `t` and
/// `now` differ.
fn bucket_of(t: Time, now: Time) -> usize {
    64 - (t.cycles() ^ now.cycles()).leading_zeros() as usize
}

/// A deterministic future-event list.
///
/// Events are `(Time, E)` pairs ordered by time; same-time events pop in
/// scheduling order (stable FIFO tie-break). The queue tracks the current
/// simulation time [`EventQueue::now`], which advances monotonically as
/// events are popped.
///
/// It is a radix queue: since the clock never runs backwards, an event is
/// filed by the highest bit in which its time differs from `now`. Bucket 0
/// holds the events at `now`, in scheduling order, and pops from the
/// front. When it runs dry, the lowest non-empty bucket's earliest time
/// becomes `now` and that bucket's events are re-filed, in order, into
/// lower buckets. No push or pop compares two events, and an event moves
/// at most 64 times.
///
/// # Example
///
/// ```
/// use astra_des::{EventQueue, Time};
///
/// let mut q = EventQueue::new();
/// q.schedule_in(Time::from_cycles(3), 1u32);
/// q.schedule_in(Time::ZERO, 2u32); // fires "now"
/// q.schedule_at(Time::from_cycles(3), 3u32); // same time, after event 1
/// assert_eq!(q.pop(), Some((Time::ZERO, 2)));
/// assert_eq!(q.pop(), Some((Time::from_cycles(3), 1)));
/// assert_eq!(q.pop(), Some((Time::from_cycles(3), 3)));
/// assert_eq!(q.pop(), None);
/// ```
pub struct EventQueue<E> {
    /// Bucket 0: the events at exactly `now`.
    current: VecDeque<Entry<E>>,
    /// Buckets 1..=64; bucket `b` is `far[b - 1]`.
    far: [Chain; 64],
    /// Bit `b - 1` is set when bucket `b` is non-empty.
    occupied: u64,
    /// The entry slots: slot `s` is `chunks[s / CHUNK][s % CHUNK]`, and
    /// block `k` is slots `k * BLOCK..(k + 1) * BLOCK`. A chunk is
    /// allocated whole and never reallocated, so the arena follows the
    /// peak number of pending events.
    chunks: Vec<Box<[Option<Entry<E>>; CHUNK]>>,
    /// Per block: the next block of its chain or of the free list.
    links: Vec<u32>,
    /// Head of the free-block list.
    free: u32,
    len: usize,
    seq: u64,
    now: Time,
    popped: u64,
    /// `(time, seq)` of the most recent pop, for the debug-build
    /// monotonicity / FIFO-stability check in [`EventQueue::pop`].
    #[cfg(debug_assertions)]
    last_pop: Option<(Time, u64)>,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            current: VecDeque::new(),
            far: [Chain::EMPTY; 64],
            occupied: 0,
            chunks: Vec::new(),
            links: Vec::new(),
            free: NIL,
            len: 0,
            seq: 0,
            now: Time::ZERO,
            popped: 0,
            #[cfg(debug_assertions)]
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
        self.len += 1;
        self.place(Entry {
            time: at,
            seq,
            payload,
        });
    }

    /// Schedules `payload` to fire `delay` after the current time; the sum
    /// saturates at [`Time::MAX`].
    pub fn schedule_in(&mut self, delay: Time, payload: E) {
        self.schedule_at(self.now + delay, payload);
    }

    /// Removes and returns the earliest event, advancing [`EventQueue::now`]
    /// to its timestamp. Returns `None` when the queue is empty.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        if self.current.is_empty() {
            if self.occupied == 0 {
                return None;
            }
            self.refill();
        }
        let entry = self.current.pop_front()?;
        debug_assert_eq!(entry.time, self.now, "bucket 0 holds a stray event");
        #[cfg(debug_assertions)]
        {
            if let Some((last_time, last_seq)) = self.last_pop {
                assert!(
                    (entry.time, entry.seq) > (last_time, last_seq),
                    "event queue pop order violated: \
                     popped (t={}, seq={}) after (t={}, seq={})",
                    entry.time,
                    entry.seq,
                    last_time,
                    last_seq
                );
            }
            self.last_pop = Some((entry.time, entry.seq));
        }
        self.len -= 1;
        self.popped += 1;
        Some((entry.time, entry.payload))
    }

    /// Advances `now` to the lowest non-empty bucket's earliest time and
    /// re-files that bucket's events, in order, into lower buckets. Those
    /// are all empty, so each stays in scheduling order, and the earliest
    /// events land in bucket 0.
    fn refill(&mut self) {
        let k = self.occupied.trailing_zeros() as usize;
        self.occupied &= self.occupied - 1;
        let Chain { head, end, min } = std::mem::replace(&mut self.far[k], Chain::EMPTY);
        self.now = min;
        let mut blk = head;
        loop {
            let first = blk * BLOCK;
            let last = (end - 1) / BLOCK == blk;
            for s in first..if last { end } else { first + BLOCK } {
                let entry = self.slot_mut(s).take().expect("a chain's slots are filled");
                self.place(entry);
            }
            let next = self.links[blk as usize];
            self.links[blk as usize] = self.free;
            self.free = blk;
            if last {
                break;
            }
            blk = next;
        }
    }

    /// Files `entry` in its bucket, after the entries already there.
    /// Always inlined: as a call, it measurably slowed every push and
    /// every re-filed event.
    #[inline(always)]
    fn place(&mut self, entry: Entry<E>) {
        let b = bucket_of(entry.time, self.now);
        if b == 0 {
            return self.current.push_back(entry);
        }
        self.occupied |= 1 << (b - 1);
        let chain = &mut self.far[b - 1];
        chain.min = chain.min.min(entry.time);
        let mut end = chain.end;
        if end.is_multiple_of(BLOCK) {
            end = self.grow(b - 1);
        }
        self.far[b - 1].end = end + 1;
        *self.slot_mut(end) = Some(entry);
    }

    /// Appends a free block to `far[k]`'s chain (the bucket is empty, or
    /// its last block is full) and returns the block's first slot. A
    /// chunk is added when no block is free.
    #[inline(never)]
    fn grow(&mut self, k: usize) -> u32 {
        if self.free == NIL {
            assert!(
                self.chunks.len() < (NIL / CHUNK as u32) as usize,
                "event queue arena overflow"
            );
            let base = self.links.len() as u32;
            let blocks = CHUNK as u32 / BLOCK;
            self.links.extend((base + 1..base + blocks).chain([NIL]));
            let chunk: Box<[_]> = (0..CHUNK).map(|_| None).collect();
            self.chunks
                .push(chunk.try_into().unwrap_or_else(|_| unreachable!()));
            self.free = base;
        }
        let blk = self.free;
        self.free = std::mem::replace(&mut self.links[blk as usize], NIL);
        let chain = &mut self.far[k];
        match chain.head {
            NIL => chain.head = blk,
            _ => self.links[(chain.end / BLOCK - 1) as usize] = blk,
        }
        blk * BLOCK
    }

    fn slot(&self, s: u32) -> &Option<Entry<E>> {
        &self.chunks[s as usize / CHUNK][s as usize % CHUNK]
    }

    fn slot_mut(&mut self, s: u32) -> &mut Option<Entry<E>> {
        &mut self.chunks[s as usize / CHUNK][s as usize % CHUNK]
    }

    /// Timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<Time> {
        if !self.current.is_empty() {
            return Some(self.now);
        }
        (self.occupied != 0).then(|| self.far[self.occupied.trailing_zeros() as usize].min)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total number of events popped since construction (a cheap progress /
    /// throughput metric for the bench harness).
    pub fn events_processed(&self) -> u64 {
        self.popped
    }

    /// Checks the bucket bookkeeping (an O(pending + arena) pass, for
    /// end-of-run audits): every entry sits in the bucket its time belongs
    /// in, each bucket is in scheduling (`seq`) order, each bucket's
    /// recorded minimum is its earliest entry, the occupancy mask marks
    /// exactly the non-empty buckets, the buckets hold every pending event
    /// and no slot outside them is filled, and every block is in one chain
    /// or on the free list.
    ///
    /// # Errors
    ///
    /// The first inconsistency found.
    pub fn audit(&self) -> Result<(), String> {
        let check = |b: usize, e: &Entry<E>, prev: &mut Option<u64>| {
            let home = bucket_of(e.time, self.now);
            if e.time < self.now || home != b {
                return Err(format!(
                    "event queue: entry (t={}, seq={}) is in bucket {b} but belongs in bucket {home}",
                    e.time, e.seq
                ));
            }
            if prev.is_some_and(|p| e.seq <= p) || e.seq >= self.seq {
                return Err(format!(
                    "event queue: bucket {b} is out of seq order at seq={}",
                    e.seq
                ));
            }
            *prev = Some(e.seq);
            Ok(())
        };
        let mut prev = None;
        for e in &self.current {
            check(0, e, &mut prev)?;
        }
        let blocks = self.links.len();
        let (mut pending, mut chained) = (self.current.len(), 0usize);
        for (k, chain) in self.far.iter().enumerate() {
            let b = k + 1;
            let (mut blk, mut min, mut prev) = (chain.head, Time::MAX, None);
            while blk != NIL {
                chained += 1;
                if chained > blocks {
                    return Err(format!("event queue: bucket {b}'s chain does not end"));
                }
                let (first, last) = (blk * BLOCK, chain.end.wrapping_sub(1) / BLOCK == blk);
                for s in first..if last { chain.end } else { first + BLOCK } {
                    let Some(e) = self.slot(s) else {
                        return Err(format!("event queue: bucket {b}'s slot {s} is empty"));
                    };
                    check(b, e, &mut prev)?;
                    min = min.min(e.time);
                    pending += 1;
                }
                blk = if last { NIL } else { self.links[blk as usize] };
            }
            if chain.min != min {
                return Err(format!(
                    "event queue: bucket {b}'s minimum is {} but its earliest entry is at {min}",
                    chain.min
                ));
            }
            let bit = self.occupied >> k & 1;
            if (bit == 1) != (chain.head != NIL) {
                let state = if chain.head == NIL {
                    "empty"
                } else {
                    "non-empty"
                };
                return Err(format!(
                    "event queue: bucket {b}'s occupancy bit is {bit} but the bucket is {state}"
                ));
            }
        }
        let stored = self.chunks.iter().flat_map(|c| c.iter()).flatten().count();
        if pending != self.len || self.current.len() + stored != self.len {
            return Err(format!(
                "event queue: {} pending events, but the buckets hold {pending} and the slots {stored}",
                self.len
            ));
        }
        let (mut free, mut blk) = (0usize, self.free);
        while blk != NIL && free <= blocks {
            free += 1;
            blk = self.links[blk as usize];
        }
        if chained + free != blocks {
            return Err(format!(
                "event queue: {chained} chained and {free} free of {blocks} blocks"
            ));
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
            .field("pending", &self.len)
            .field("occupied", &format_args!("{:#x}", self.occupied))
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
    fn a_refill_keeps_ties_in_schedule_order_across_blocks() {
        // 100 events at t=9 span four blocks of bucket 4; a push at t=9
        // after the first pop at t=1 joins them, and all pop FIFO.
        let mut q = EventQueue::new();
        q.schedule_at(Time::from_cycles(1), 0);
        for i in 1..=100 {
            q.schedule_at(Time::from_cycles(9), i);
        }
        assert_eq!(q.pop(), Some((Time::from_cycles(1), 0)));
        q.schedule_at(Time::from_cycles(9), 101);
        q.audit().unwrap();
        let out: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(out, (1..=101).collect::<Vec<_>>());
        assert_eq!(q.now(), Time::from_cycles(9));
        q.audit().unwrap();
    }

    #[test]
    fn audit_catches_corrupt_bucket_bookkeeping() {
        // At now=0: t=4,5 sit in bucket 3 and t=6 in bucket 3 after them;
        // t=16 sits in bucket 5.
        let filled = || {
            let mut q = EventQueue::new();
            for t in [4u64, 5, 6, 16] {
                q.schedule_at(Time::from_cycles(t), t);
            }
            q.audit().unwrap();
            q
        };
        fn slot(q: &mut EventQueue<u64>, b: usize, i: u32) -> &mut Option<Entry<u64>> {
            let s = q.far[b - 1].head * BLOCK + i;
            q.slot_mut(s)
        }

        let mut q = filled();
        slot(&mut q, 3, 1).as_mut().unwrap().time = Time::from_cycles(8);
        let err = q.audit().unwrap_err();
        assert!(
            err.contains("(t=8 cyc, seq=1) is in bucket 3 but belongs in bucket 4"),
            "{err}"
        );

        let mut q = filled();
        q.far[4].min = Time::from_cycles(17);
        let err = q.audit().unwrap_err();
        assert!(
            err.contains("bucket 5's minimum is 17 cyc but its earliest entry is at 16 cyc"),
            "{err}"
        );

        let mut q = filled();
        q.occupied ^= 1 << 1;
        let err = q.audit().unwrap_err();
        assert!(
            err.contains("bucket 2's occupancy bit is 1 but the bucket is empty"),
            "{err}"
        );

        let mut q = filled();
        let first = slot(&mut q, 3, 0).take();
        *slot(&mut q, 3, 0) = std::mem::replace(slot(&mut q, 3, 2), first);
        let err = q.audit().unwrap_err();
        assert!(
            err.contains("bucket 3 is out of seq order at seq=1"),
            "{err}"
        );
    }
}
