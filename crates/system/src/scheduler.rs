//! Per-NPU chunk scheduling: the ready queue behind Fig 7's dispatcher.
//!
//! When a collective is issued, its chunks are *admitted* to every NPU's
//! ready queue; the dispatcher later *pops* chunks one at a time whenever
//! fewer than `T` chunks sit in the first phase of their plan. The order in
//! which queued chunks pop is the `scheduling-policy` knob (Table III
//! row 7). Every policy pops from the front of one [`ReadyQueue`]; the
//! policy only decides where [`ReadyQueue::admit`] files a batch, so a new
//! policy is one `admit` arm.

use crate::SchedulingPolicy;
use astra_des::Time;
use std::collections::VecDeque;

/// One chunk waiting for dispatch on one NPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueuedChunk {
    /// The collective the chunk belongs to.
    pub coll: u64,
    /// Chunk index within the collective.
    pub chunk: u32,
    /// Chunk payload size (scheduling policies may rank by it).
    pub bytes: u64,
    /// When the chunk entered the ready queue (for ready-delay stats).
    pub queued_at: Time,
}

/// One NPU's ready queue under one [`SchedulingPolicy`].
///
/// [`admit`](ReadyQueue::admit) receives *all* chunks of a newly issued
/// collective as one batch in chunk order, and [`pop`](ReadyQueue::pop)
/// yields the next chunk the dispatcher should issue. Equal admit
/// sequences produce equal pop sequences.
///
/// ```
/// use astra_des::Time;
/// use astra_system::{QueuedChunk, ReadyQueue, SchedulingPolicy};
///
/// let chunk = |coll, bytes| QueuedChunk { coll, chunk: 0, bytes, queued_at: Time::ZERO };
/// let order = |policy| {
///     let mut q = ReadyQueue::new(policy);
///     for (coll, bytes) in [(0, 4096), (1, 1024), (2, 2048)] {
///         q.admit(&[chunk(coll, bytes)]);
///     }
///     std::iter::from_fn(|| q.pop()).map(|c| c.coll).collect::<Vec<_>>()
/// };
/// assert_eq!(order(SchedulingPolicy::Fifo), [0, 1, 2]);
/// assert_eq!(order(SchedulingPolicy::Lifo), [2, 1, 0]);
/// assert_eq!(order(SchedulingPolicy::Priority), [1, 2, 0]);
/// ```
#[derive(Debug)]
pub struct ReadyQueue {
    policy: SchedulingPolicy,
    queue: VecDeque<QueuedChunk>,
}

impl ReadyQueue {
    /// An empty queue ordered by `policy`.
    pub fn new(policy: SchedulingPolicy) -> Self {
        ReadyQueue {
            policy,
            queue: VecDeque::new(),
        }
    }

    /// Admits all chunks of a newly issued collective, in chunk order.
    /// FIFO appends the batch; LIFO puts it in front of everything queued,
    /// keeping its chunk order (§III-E's back-propagation argument);
    /// priority files each chunk by `(bytes, coll, chunk)`, so the smallest
    /// chunk dispatches first and ties go in issue order.
    pub fn admit(&mut self, batch: &[QueuedChunk]) {
        match self.policy {
            SchedulingPolicy::Fifo => self.queue.extend(batch.iter().copied()),
            SchedulingPolicy::Lifo => {
                for q in batch.iter().rev() {
                    self.queue.push_front(*q);
                }
            }
            SchedulingPolicy::Priority => {
                let key = |q: &QueuedChunk| (q.bytes, q.coll, q.chunk);
                for q in batch {
                    let at = self.queue.partition_point(|p| key(p) < key(q));
                    self.queue.insert(at, *q);
                }
            }
        }
    }

    /// Removes and returns the next chunk to dispatch, if any.
    pub fn pop(&mut self) -> Option<QueuedChunk> {
        self.queue.pop_front()
    }

    /// Number of chunks currently queued.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether no chunks are queued.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn drain(q: &mut ReadyQueue) -> Vec<(u64, u32)> {
        std::iter::from_fn(|| q.pop())
            .map(|c| (c.coll, c.chunk))
            .collect()
    }

    #[test]
    fn fifo_preserves_issue_and_chunk_order() {
        let mut q = ReadyQueue::new(SchedulingPolicy::Fifo);
        q.admit(&batch(0, 3, 100));
        q.admit(&batch(1, 2, 100));
        assert_eq!(q.len(), 5);
        assert_eq!(drain(&mut q), [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1)]);
        assert!(q.is_empty());
    }

    #[test]
    fn lifo_prioritizes_newest_collective_keeping_chunk_order() {
        let mut q = ReadyQueue::new(SchedulingPolicy::Lifo);
        q.admit(&batch(0, 3, 100));
        q.admit(&batch(1, 2, 100));
        assert_eq!(drain(&mut q), [(1, 0), (1, 1), (0, 0), (0, 1), (0, 2)]);
    }

    #[test]
    fn lifo_batch_admitted_mid_drain_still_jumps_queue() {
        let mut q = ReadyQueue::new(SchedulingPolicy::Lifo);
        q.admit(&batch(0, 2, 100));
        assert_eq!(q.pop().map(|c| c.coll), Some(0));
        q.admit(&batch(1, 2, 100));
        assert_eq!(drain(&mut q), [(1, 0), (1, 1), (0, 1)]);
    }

    #[test]
    fn priority_ranks_by_bytes_then_issue_order() {
        let mut q = ReadyQueue::new(SchedulingPolicy::Priority);
        q.admit(&batch(0, 2, 4096));
        q.admit(&batch(1, 2, 512));
        q.admit(&batch(2, 1, 4096));
        assert_eq!(
            drain(&mut q),
            [(1, 0), (1, 1), (0, 0), (0, 1), (2, 0)],
            "small collective first; equal sizes fall back to issue order"
        );
    }

    #[test]
    fn queued_at_travels_with_the_chunk() {
        let mut q = ReadyQueue::new(SchedulingPolicy::Lifo);
        q.admit(&batch(7, 1, 10));
        assert_eq!(q.pop().map(|c| c.queued_at), Some(Time::from_cycles(7)));
    }
}
