//! Property tests pinning [`ReadyQueue`] to the seed implementation's
//! semantics.
//!
//! The seed system layer kept one `VecDeque` per NPU and matched the
//! policy enum at every admit site: FIFO appended the batch, LIFO
//! `push_front`ed it in reverse. For *any* interleaving of admits and
//! pops, the ready queue must yield exactly the chunks the seed queue
//! would have, in the same order. Priority (which the seed lacked) is
//! pinned against an obviously-correct linear-scan reference instead.

use astra_des::Time;
use astra_system::{QueuedChunk, ReadyQueue, SchedulingPolicy};
use proptest::prelude::*;
use std::collections::VecDeque;

/// A faithful reimplementation of the seed's ready queue.
#[derive(Debug)]
struct SeedQueue {
    policy: SchedulingPolicy,
    queue: VecDeque<QueuedChunk>,
}

impl SeedQueue {
    fn new(policy: SchedulingPolicy) -> Self {
        SeedQueue {
            policy,
            queue: VecDeque::new(),
        }
    }

    fn admit(&mut self, batch: &[QueuedChunk]) {
        match self.policy {
            SchedulingPolicy::Fifo => self.queue.extend(batch.iter().copied()),
            SchedulingPolicy::Lifo => {
                for q in batch.iter().rev() {
                    self.queue.push_front(*q);
                }
            }
            SchedulingPolicy::Priority => {
                unreachable!("the seed had no priority policy")
            }
        }
    }

    fn pop(&mut self) -> Option<QueuedChunk> {
        self.queue.pop_front()
    }
}

/// Linear-scan shortest-job-first: pops the minimum (bytes, coll, chunk).
#[derive(Debug, Default)]
struct ScanQueue {
    items: Vec<QueuedChunk>,
}

impl ScanQueue {
    fn admit(&mut self, batch: &[QueuedChunk]) {
        self.items.extend(batch.iter().copied());
    }

    fn pop(&mut self) -> Option<QueuedChunk> {
        let best = self
            .items
            .iter()
            .enumerate()
            .min_by_key(|(_, q)| (q.bytes, q.coll, q.chunk))?
            .0;
        Some(self.items.remove(best))
    }
}

/// One step of an interleaved schedule: admit a batch or pop `n` chunks.
#[derive(Debug, Clone)]
enum Step {
    Admit { chunks: u32, bytes: u64 },
    Pop(u8),
}

fn steps() -> impl Strategy<Value = Vec<Step>> {
    let step = prop_oneof![
        (1u32..=8, 1u64..=1 << 20).prop_map(|(chunks, bytes)| Step::Admit { chunks, bytes }),
        (1u8..=12).prop_map(Step::Pop),
    ];
    proptest::collection::vec(step, 1..40)
}

fn batch(coll: u64, chunks: u32, bytes: u64) -> Vec<QueuedChunk> {
    (0..chunks)
        .map(|chunk| QueuedChunk {
            coll,
            chunk,
            bytes,
            queued_at: Time::from_cycles(coll),
        })
        .collect()
}

/// Drives the ready queue and a reference through the same schedule,
/// comparing every popped chunk, interleaved lengths, and the final drain.
fn lockstep(
    schedule: &[Step],
    mut sched: ReadyQueue,
    mut reference: impl FnMut(&mut dyn FnMut() -> RefOp),
) {
    // The closure-based plumbing below keeps one generic driver for both
    // reference shapes without a second trait.
    let mut ops: Vec<RefOp> = Vec::new();
    let mut coll = 0u64;
    for step in schedule {
        match *step {
            Step::Admit { chunks, bytes } => {
                let b = batch(coll, chunks, bytes);
                coll += 1;
                sched.admit(&b);
                ops.push(RefOp::Admit(b));
            }
            Step::Pop(n) => {
                for _ in 0..n {
                    ops.push(RefOp::PopExpect(sched.pop()));
                }
            }
        }
        ops.push(RefOp::LenExpect(sched.len()));
    }
    // Final drain: the ready queue must empty in reference order too.
    loop {
        let got = sched.pop();
        let done = got.is_none();
        ops.push(RefOp::PopExpect(got));
        if done {
            break;
        }
    }
    let mut iter = ops.into_iter();
    reference(&mut move || iter.next().unwrap_or(RefOp::Done));
}

/// The recorded interaction, replayed against a reference queue.
#[derive(Debug, Clone)]
enum RefOp {
    Admit(Vec<QueuedChunk>),
    PopExpect(Option<QueuedChunk>),
    LenExpect(usize),
    Done,
}

proptest! {
    /// FIFO and LIFO match the seed `VecDeque` pop-for-pop on arbitrary
    /// interleavings of admits and pops.
    #[test]
    fn fifo_lifo_match_seed_queue(schedule in steps()) {
        for policy in [SchedulingPolicy::Fifo, SchedulingPolicy::Lifo] {
            let mut seed = SeedQueue::new(policy);
            let mut live = 0usize;
            lockstep(&schedule, ReadyQueue::new(policy), |next| loop {
                match next() {
                    RefOp::Admit(b) => {
                        seed.admit(&b);
                        live += b.len();
                    }
                    RefOp::PopExpect(got) => {
                        let want = seed.pop();
                        assert_eq!(got, want, "{policy:?} diverged from seed");
                        live -= usize::from(want.is_some());
                    }
                    RefOp::LenExpect(len) => {
                        assert_eq!(len, live, "{policy:?} miscounted its queue");
                    }
                    RefOp::Done => return,
                }
            });
        }
    }

    /// Priority matches a linear-scan shortest-job-first reference (min by
    /// bytes, ties by issue order) on the same schedules.
    #[test]
    fn priority_matches_linear_scan(schedule in steps()) {
        let mut scan = ScanQueue::default();
        let mut live = 0usize;
        lockstep(&schedule, ReadyQueue::new(SchedulingPolicy::Priority), |next| loop {
            match next() {
                RefOp::Admit(b) => {
                    scan.admit(&b);
                    live += b.len();
                }
                RefOp::PopExpect(got) => {
                    let want = scan.pop();
                    assert_eq!(got, want, "priority diverged from linear scan");
                    live -= usize::from(want.is_some());
                }
                RefOp::LenExpect(len) => {
                    assert_eq!(len, live, "priority miscounted its queue");
                }
                RefOp::Done => return,
            }
        });
    }
}
