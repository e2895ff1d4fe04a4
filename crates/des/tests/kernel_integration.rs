//! Integration tests for the DES kernel primitives: the determinism
//! contracts the whole simulator rests on, checked from outside the crate.

use astra_des::hash::fnv1a_64;
use astra_des::rng::SplitMix64;
use astra_des::{EventQueue, Slab, Time};

/// Events scheduled for the same timestamp pop in scheduling (FIFO) order,
/// regardless of how they interleave with other timestamps.
#[test]
fn equal_time_events_pop_in_scheduling_order() {
    let mut q = EventQueue::new();
    // Three batches at the same instant, interleaved with other times.
    q.schedule_at(Time::from_cycles(50), "t50-a");
    q.schedule_at(Time::from_cycles(10), "t10-a");
    q.schedule_at(Time::from_cycles(50), "t50-b");
    q.schedule_at(Time::from_cycles(10), "t10-b");
    q.schedule_at(Time::from_cycles(50), "t50-c");
    q.schedule_at(Time::from_cycles(10), "t10-c");

    let mut order = Vec::new();
    while let Some((_, payload)) = q.pop() {
        order.push(payload);
    }
    assert_eq!(
        order,
        ["t10-a", "t10-b", "t10-c", "t50-a", "t50-b", "t50-c"]
    );
}

/// The FIFO tie-break survives events scheduled *while draining*: a handler
/// scheduling at the current time goes behind everything already queued
/// for that time.
#[test]
fn ties_scheduled_mid_drain_go_to_the_back() {
    let mut q = EventQueue::new();
    q.schedule_at(Time::from_cycles(5), 0u32);
    q.schedule_at(Time::from_cycles(5), 1u32);
    let (t, first) = q.pop().unwrap();
    assert_eq!(first, 0);
    q.schedule_at(t, 2u32);
    let drained: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
    assert_eq!(drained, [1, 2]);
}

/// Slab keys are stable across unrelated removals, and freed slots are
/// reused LIFO so hot paths stay cache-friendly.
#[test]
fn slab_key_reuse_and_stability() {
    let mut slab = Slab::new();
    let a = slab.insert("a");
    let b = slab.insert("b");
    let c = slab.insert("c");

    assert_eq!(slab.remove(b), Some("b"));
    // Untouched keys still resolve after the removal.
    assert_eq!(slab.get(a), Some(&"a"));
    assert_eq!(slab.get(c), Some(&"c"));

    // The freed slot is reused first (LIFO free list), with the same index.
    let d = slab.insert("d");
    assert_eq!(d.index(), b.index());
    assert_eq!(slab.get(d), Some(&"d"));
    assert_eq!(slab.len(), 3);

    // A fresh insert after the free list drains extends the arena instead.
    let e = slab.insert("e");
    assert_eq!(e.index(), 3);
}

/// FNV-1a against the published reference vectors.
#[test]
fn fnv1a_known_vectors() {
    assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
    assert_eq!(fnv1a_64(b"foobar"), 0x8594_4171_f739_67e8);
}

/// Re-seeding reproduces the exact stream; distinct seeds diverge
/// immediately.
#[test]
fn rng_reseed_determinism() {
    let stream = |seed: u64, n: usize| -> Vec<u64> {
        let mut r = SplitMix64::new(seed);
        (0..n).map(|_| r.next_u64()).collect()
    };
    assert_eq!(stream(0xDEAD_BEEF, 64), stream(0xDEAD_BEEF, 64));
    assert_ne!(stream(1, 4), stream(2, 4));
}
