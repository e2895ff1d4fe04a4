//! Property tests for the DES kernel's ordering guarantees.

use astra_des::{EventQueue, Time};
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

proptest! {
    /// Events always pop in nondecreasing time order, regardless of
    /// scheduling order.
    #[test]
    fn pops_are_time_ordered(delays in proptest::collection::vec(0u64..10_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &d) in delays.iter().enumerate() {
            q.schedule_at(Time::from_cycles(d), i);
        }
        let mut last = Time::ZERO;
        let mut seen = 0;
        while let Some((t, _)) = q.pop() {
            prop_assert!(t >= last);
            last = t;
            seen += 1;
        }
        prop_assert_eq!(seen, delays.len());
    }

    /// Same-timestamp events pop in scheduling (FIFO) order.
    #[test]
    fn ties_break_fifo(groups in proptest::collection::vec((0u64..50, 1usize..10), 1..30)) {
        let mut q = EventQueue::new();
        let mut idx = 0usize;
        for &(t, count) in &groups {
            for _ in 0..count {
                q.schedule_at(Time::from_cycles(t), (t, idx));
                idx += 1;
            }
        }
        let mut per_time: std::collections::HashMap<u64, usize> = Default::default();
        while let Some((t, (raw, i))) = q.pop() {
            prop_assert_eq!(t.cycles(), raw);
            let last = per_time.entry(raw).or_insert(0);
            // Indices at the same timestamp must be increasing.
            prop_assert!(i >= *last);
            *last = i;
        }
    }

    /// Interleaving schedule/pop never loses or duplicates events.
    #[test]
    fn conservation_under_interleaving(
        ops in proptest::collection::vec((any::<bool>(), 0u64..1000), 1..300)
    ) {
        let mut q = EventQueue::new();
        let mut scheduled = 0u64;
        let mut popped = 0u64;
        for &(do_pop, delay) in &ops {
            if do_pop {
                if q.pop().is_some() {
                    popped += 1;
                }
            } else {
                q.schedule_in(Time::from_cycles(delay), ());
                scheduled += 1;
            }
        }
        while q.pop().is_some() {
            popped += 1;
        }
        prop_assert_eq!(scheduled, popped);
        prop_assert_eq!(q.events_processed(), popped);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The queue pops exactly the sequence a `BinaryHeap` over
    /// `(time, seq)` pops, for any interleaving of `schedule_at`,
    /// `schedule_in` and `pop`: same-time ties, zero delays, delays of
    /// every power of two up to 2^63, times near `u64::MAX` and delays
    /// that saturate there included.
    /// `len`, `is_empty`, `peek_time` and `now` agree with the reference,
    /// and `audit` passes, after every operation.
    #[test]
    fn pops_like_a_binary_heap(
        ops in proptest::collection::vec((0u8..6, 0u32..64, 0u64..4), 1..400)
    ) {
        let mut q = EventQueue::new();
        let mut heap = BinaryHeap::new();
        let (mut seq, mut now_ref) = (0u64, 0u64);
        for (i, &(kind, shift, small)) in ops.iter().enumerate() {
            let now = q.now().cycles();
            let at = match kind {
                // A tie with pending events, or a zero delay.
                0 => Some(now.saturating_add(small)),
                // A power-of-two delay through `schedule_in`, which
                // saturates at the end of time.
                1 => {
                    let delay = 1u64 << shift;
                    q.schedule_in(Time::from_cycles(delay), i);
                    heap.push(Reverse((now.saturating_add(delay), seq, i)));
                    seq += 1;
                    None
                }
                // Just past a power-of-two delay.
                2 => Some(now.saturating_add(1 << shift).saturating_add(small)),
                // Near the end of time.
                3 => Some((u64::MAX - (small << shift.min(61))).max(now)),
                _ => {
                    let want = heap.pop().map(|Reverse((t, _, p))| (Time::from_cycles(t), p));
                    prop_assert_eq!(q.pop(), want);
                    now_ref = want.map_or(now_ref, |(t, _)| t.cycles());
                    None
                }
            };
            if let Some(at) = at {
                q.schedule_at(Time::from_cycles(at), i);
                heap.push(Reverse((at, seq, i)));
                seq += 1;
            }
            prop_assert_eq!(q.now().cycles(), now_ref);
            prop_assert_eq!(q.len(), heap.len());
            prop_assert_eq!(q.is_empty(), heap.is_empty());
            let head = heap.peek().map(|Reverse((t, _, _))| Time::from_cycles(*t));
            prop_assert_eq!(q.peek_time(), head);
            prop_assert!(q.audit().is_ok(), "{:?}", q.audit());
        }
        while let Some(Reverse((t, _, p))) = heap.pop() {
            prop_assert_eq!(q.pop(), Some((Time::from_cycles(t), p)));
            prop_assert!(q.audit().is_ok(), "{:?}", q.audit());
        }
        prop_assert_eq!(q.pop(), None);
    }
}
