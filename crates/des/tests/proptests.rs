//! Property tests for the DES kernel's ordering guarantees.

use astra_des::{EventQueue, Time};
use proptest::prelude::*;

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
    /// FIFO lanes never change the pop order: any interleaving of heap
    /// pushes, in-order and out-of-order lane pushes and pops yields the
    /// same `(time, payload)` sequence as a queue fed through
    /// `schedule_at` alone, and `len`, `is_empty` and `peek_time` agree
    /// with it after every operation.
    #[test]
    fn lanes_pop_like_the_heap_alone(
        ops in proptest::collection::vec((0u8..4, 0u32..40, 0u64..6), 1..400)
    ) {
        let mut q = EventQueue::new();
        let mut reference = EventQueue::new();
        let mut lane_last = [0u64; 40];
        for (i, &(kind, lane, delay)) in ops.iter().enumerate() {
            let now = q.now().cycles();
            match kind {
                0 => {
                    let at = Time::from_cycles(now + delay);
                    q.schedule_at(at, i);
                    reference.schedule_at(at, i);
                }
                // Lane pushes near `now`: same-time ties, and pushes before
                // the lane's newest event that take the heap fallback.
                1 | 2 => {
                    let at = if kind == 1 {
                        now + delay
                    } else {
                        now.max(lane_last[lane as usize]) + delay
                    };
                    lane_last[lane as usize] = lane_last[lane as usize].max(at);
                    q.schedule_on(lane, Time::from_cycles(at), i);
                    reference.schedule_at(Time::from_cycles(at), i);
                }
                _ => prop_assert_eq!(q.pop(), reference.pop()),
            }
            prop_assert_eq!(q.len(), reference.len());
            prop_assert_eq!(q.is_empty(), reference.is_empty());
            prop_assert_eq!(q.peek_time(), reference.peek_time());
            prop_assert!(q.audit().is_ok(), "{:?}", q.audit());
        }
        while let Some(popped) = reference.pop() {
            prop_assert_eq!(q.pop(), Some(popped));
        }
        prop_assert_eq!(q.pop(), None);
        prop_assert!(q.audit().is_ok(), "{:?}", q.audit());
    }
}
