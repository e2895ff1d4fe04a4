//! Per-NPU, per-chunk, per-phase runtime state machines.
//!
//! The system layer owns timing (endpoint delays, reduction cost, message
//! injection); a [`PhaseMachine`] owns the *algorithm*: what to send when
//! the phase starts, how to react to each received message, and when the
//! phase completes on this NPU.
//!
//! Message sizes follow §II-B:
//!
//! * ring reduce-scatter / all-reduce / all-to-all exchange `input/n`-sized
//!   messages (the chunk is partitioned into one message per participant);
//! * ring all-gather relays whole `input`-sized shards;
//! * direct (alltoall-dimension) algorithms blast `n−1` messages in one
//!   step: `input/n` each for RS/AR/A2A, `input` each for the AG broadcast.

use crate::{CollectiveError, PhaseAlgo, PhaseOp, PhaseSpec};
use serde::{Deserialize, Serialize};

/// Where a [`SendCmd`] is aimed, relative to this NPU's position on the
/// phase's ring/group. The system layer resolves targets to node ids and
/// routes (distance-`i` ring sends become `i`-hop software routes; group
/// offsets go through the phase's assigned global switch).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Target {
    /// The downstream ring neighbor.
    RingNext,
    /// The ring member `distance` hops downstream (ring all-to-all).
    RingDistance(usize),
    /// The group member `offset` positions ahead (direct algorithms).
    GroupOffset(usize),
    /// The group member whose position is `my position XOR mask`
    /// (halving-doubling exchanges).
    GroupXor(usize),
}

/// One message the phase wants injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SendCmd {
    /// Destination, relative to this NPU.
    pub target: Target,
    /// Payload bytes.
    pub bytes: u64,
    /// Algorithm step the message belongs to (receivers hand it back to
    /// [`PhaseMachine::on_receive`]).
    pub step: u32,
}

/// Runtime state machine for one phase of one chunk on one NPU: the
/// phase's algorithm run over `n` members for its op.
///
/// # Example
///
/// ```
/// use astra_collectives::{PhaseAlgo, PhaseMachine, PhaseOp, Target};
///
/// // Ring all-reduce over 4 nodes, 4 KiB entering the phase.
/// let mut m = PhaseMachine::with_algo(PhaseAlgo::Ring, PhaseOp::AllReduce, 4, 4096);
/// // Sends are appended to a caller-owned buffer, so a caller that reuses
/// // one buffer drives the machine without allocating.
/// let mut sends = Vec::new();
/// m.start(&mut sends);
/// assert_eq!(sends.len(), 1);
/// assert_eq!(sends[0].target, Target::RingNext);
/// assert_eq!(sends[0].bytes, 1024); // input / n
/// assert_eq!(m.expected_receives(), 6); // 2(n-1) steps
/// sends.clear();
/// assert!(!m.on_receive(0, &mut sends)?);
/// assert_eq!(sends[0].step, 1);
/// # Ok::<(), astra_collectives::CollectiveError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseMachine {
    algo: PhaseAlgo,
    op: PhaseOp,
    n: usize,
    input_bytes: u64,
    recvs: u32,
    started: bool,
    completed: bool,
}

impl PhaseMachine {
    /// Builds the machine for `spec` given the chunk's set size in bytes.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_bytes == 0` (validated upstream by the system
    /// layer) or on any shape [`PhaseMachine::with_algo`] rejects.
    pub fn new(spec: &PhaseSpec, chunk_bytes: u64) -> Self {
        assert!(chunk_bytes > 0, "chunk must be non-empty");
        let input = spec.input_scale.apply(chunk_bytes).max(1);
        Self::with_algo(spec.algo, spec.op, spec.size, input)
    }

    /// Builds the machine running `algo` for `op` over `n` members, with
    /// `input_bytes` entering the phase.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`, `input_bytes == 0`, or, for halving-doubling, if
    /// `n` is not a power of two or `op` is all-to-all (no halving-doubling
    /// variant exists).
    pub fn with_algo(algo: PhaseAlgo, op: PhaseOp, n: usize, input_bytes: u64) -> Self {
        match algo {
            PhaseAlgo::Ring => assert!(n >= 2, "ring needs at least 2 members"),
            PhaseAlgo::Direct => assert!(n >= 2, "group needs at least 2 members"),
            PhaseAlgo::HalvingDoubling => assert!(
                n >= 2 && n.is_power_of_two(),
                "halving-doubling needs a power-of-two group, got {n}"
            ),
        }
        assert!(input_bytes > 0, "phase input must be non-empty");
        assert!(
            !(algo == PhaseAlgo::HalvingDoubling && op == PhaseOp::AllToAll),
            "halving-doubling has no all-to-all variant"
        );
        PhaseMachine {
            algo,
            op,
            n,
            input_bytes,
            recvs: 0,
            started: false,
            completed: false,
        }
    }

    /// Receives in one stage of the algorithm: `log2 n` rounds for
    /// halving-doubling, `n − 1` peers otherwise. All-reduce runs two
    /// stages (reduce-scatter, then all-gather).
    fn stage_receives(&self) -> u32 {
        match self.algo {
            PhaseAlgo::HalvingDoubling => self.n.trailing_zeros(),
            _ => (self.n - 1) as u32,
        }
    }

    /// The reduce-scatter or all-gather round a halving-doubling `step`
    /// runs: an all-reduce's second stage is an all-gather.
    fn hd_round(&self, step: u32) -> (PhaseOp, u32) {
        let rounds = self.stage_receives();
        match self.op {
            PhaseOp::AllReduce if step < rounds => (PhaseOp::ReduceScatter, step),
            PhaseOp::AllReduce => (PhaseOp::AllGather, step - rounds),
            op => (op, step),
        }
    }

    /// XOR mask exchanged at halving-doubling step `step`: reduce-scatter
    /// pairs far-to-near (n/2, n/4, ..., 1); all-gather mirrors it.
    fn hd_mask(&self, step: u32) -> usize {
        match self.hd_round(step) {
            (PhaseOp::ReduceScatter, r) => self.n >> (r + 1),
            (_, r) => 1 << r,
        }
    }

    /// Bytes of each message this machine sends (uniform within a phase for
    /// ring/direct algorithms; see [`PhaseMachine::message_bytes_for`] for
    /// step-dependent halving-doubling sizes).
    pub fn message_bytes(&self) -> u64 {
        match (self.algo, self.op) {
            (PhaseAlgo::HalvingDoubling, _) => self.message_bytes_for(0),
            (_, PhaseOp::AllGather) => self.input_bytes,
            _ => self.input_bytes.div_ceil(self.n as u64).max(1),
        }
    }

    /// Bytes of the message exchanged at `step` (halving-doubling sizes
    /// change per round; other algorithms are uniform).
    pub fn message_bytes_for(&self, step: u32) -> u64 {
        if self.algo != PhaseAlgo::HalvingDoubling {
            return self.message_bytes();
        }
        // Reduce-scatter halves each round (input/2, input/4, ...);
        // all-gather doubles each round up to input/2.
        let shift = match self.hd_round(step) {
            (PhaseOp::ReduceScatter, r) => r + 1,
            (_, r) => self.stage_receives() - r,
        };
        (self.input_bytes >> shift.min(63)).max(1)
    }

    /// Total messages this NPU will receive during the phase.
    pub fn expected_receives(&self) -> u32 {
        match self.op {
            PhaseOp::AllReduce => 2 * self.stage_receives(),
            _ => self.stage_receives(),
        }
    }

    /// Whether a message of `step` carries data that must be locally
    /// reduced on receipt (the system layer charges the local-update cost).
    pub fn reduces_on(&self, step: u32) -> bool {
        match (self.algo, self.op) {
            (_, PhaseOp::ReduceScatter) => true,
            // A direct all-reduce numbers its two stages 0 and 1.
            (PhaseAlgo::Direct, PhaseOp::AllReduce) => step == 0,
            (_, PhaseOp::AllReduce) => step < self.stage_receives(),
            _ => false,
        }
    }

    /// Whether the phase has completed on this NPU.
    pub fn is_complete(&self) -> bool {
        self.completed
    }

    /// Kicks off the phase: appends the initial sends to `sends`.
    ///
    /// # Panics
    ///
    /// Panics if called twice.
    pub fn start(&mut self, sends: &mut Vec<SendCmd>) {
        assert!(!self.started, "phase already started");
        self.started = true;
        match (self.algo, self.op) {
            (PhaseAlgo::Ring, PhaseOp::AllToAll) => {
                let msg = self.message_bytes();
                sends.extend((1..self.n).map(|d| SendCmd {
                    target: Target::RingDistance(d),
                    bytes: msg,
                    step: d as u32,
                }));
            }
            (PhaseAlgo::Direct, _) => self.push_broadcast(sends, 0),
            _ => sends.push(self.step_send(0)),
        }
    }

    /// The one message a ring (other than all-to-all) or halving-doubling
    /// machine sends at `step`.
    fn step_send(&self, step: u32) -> SendCmd {
        let target = match self.algo {
            PhaseAlgo::HalvingDoubling => Target::GroupXor(self.hd_mask(step)),
            _ => Target::RingNext,
        };
        SendCmd {
            target,
            bytes: self.message_bytes_for(step),
            step,
        }
    }

    /// Appends one `step` message to every other group member.
    fn push_broadcast(&self, sends: &mut Vec<SendCmd>, step: u32) {
        let msg = self.message_bytes();
        sends.extend((1..self.n).map(|off| SendCmd {
            target: Target::GroupOffset(off),
            bytes: msg,
            step,
        }));
    }

    /// Whether [`PhaseMachine::on_receive`] would accept `step` now. A
    /// message that overtook its predecessor is not accepted yet; the
    /// system layer holds it back until the machine catches up.
    pub fn accepts(&self, step: u32) -> bool {
        let n1 = self.stage_receives();
        !self.completed
            && match (self.algo, self.op) {
                (PhaseAlgo::Ring, PhaseOp::AllToAll) => (1..=n1).contains(&step),
                (PhaseAlgo::Direct, PhaseOp::AllReduce) => step == u32::from(self.recvs >= n1),
                (PhaseAlgo::Direct, _) => step == 0,
                _ => step == self.recvs,
            }
    }

    /// The error for a `step` that [`PhaseMachine::accepts`] rejects.
    fn unexpected(&self, step: u32) -> CollectiveError {
        let n1 = self.stage_receives();
        let expected = if self.completed {
            "none: phase already complete".to_string()
        } else {
            match (self.algo, self.op) {
                (PhaseAlgo::Ring, PhaseOp::AllToAll) => format!("distance in 1..={n1}"),
                (PhaseAlgo::Direct, PhaseOp::AllReduce) => {
                    format!("stage {}", u32::from(self.recvs >= n1))
                }
                (PhaseAlgo::Direct, _) => "step 0".to_string(),
                _ => format!("in-order step {}", self.recvs),
            }
        };
        CollectiveError::UnexpectedStep { step, expected }
    }

    /// Processes a received (and, if applicable, already-reduced) message of
    /// `step`: appends the follow-up sends to `sends` and returns whether
    /// the phase just completed on this NPU.
    ///
    /// # Errors
    ///
    /// Fails if the step is outside what the algorithm can accept at this
    /// point (see [`PhaseMachine::accepts`]); nothing is appended then.
    pub fn on_receive(
        &mut self,
        step: u32,
        sends: &mut Vec<SendCmd>,
    ) -> Result<bool, CollectiveError> {
        if !self.accepts(step) {
            return Err(self.unexpected(step));
        }
        self.recvs += 1;
        let total = self.expected_receives();
        match (self.algo, self.op) {
            (PhaseAlgo::Direct, PhaseOp::AllReduce) => {
                if self.recvs == total / 2 {
                    // Reduce-scatter stage done: broadcast the reduced shard.
                    self.push_broadcast(sends, 1);
                }
            }
            (PhaseAlgo::Direct, _) | (PhaseAlgo::Ring, PhaseOp::AllToAll) => {}
            // In-order algorithms: receiving step `s` releases step `s + 1`.
            _ => {
                if self.recvs < total {
                    sends.push(self.step_send(self.recvs));
                }
            }
        }
        self.completed = self.recvs == total;
        Ok(self.completed)
    }

    /// Total bytes this NPU sends over the whole phase: one message per
    /// expected receive.
    pub fn bytes_sent_total(&self) -> u64 {
        (0..self.expected_receives())
            .map(|s| self.message_bytes_for(s))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use PhaseAlgo::{Direct, Ring};

    /// The initial sends of a fresh `start`.
    pub(super) fn start(m: &mut PhaseMachine) -> Vec<SendCmd> {
        let mut sends = Vec::new();
        m.start(&mut sends);
        sends
    }

    /// `on_receive` into a fresh buffer: (completed, sends).
    pub(super) fn recv(
        m: &mut PhaseMachine,
        step: u32,
    ) -> Result<(bool, Vec<SendCmd>), CollectiveError> {
        let mut sends = Vec::new();
        m.on_receive(step, &mut sends).map(|done| (done, sends))
    }

    /// Runs a single machine against a loopback harness: we simulate a
    /// symmetric system by feeding back the steps this node itself emits
    /// (every peer runs the identical program).
    pub(super) fn run_symmetric(algo: PhaseAlgo, op: PhaseOp, n: usize, input: u64) -> (u64, u32) {
        let mut m = PhaseMachine::with_algo(algo, op, n, input);
        let mut pending: Vec<u32> = start(&mut m).iter().map(|s| s.step).collect();
        let mut sent: u64 = pending.len() as u64 * m.message_bytes();
        let mut recvs = 0;
        while let Some(step) = pending.pop() {
            let (completed, sends) = recv(&mut m, step).unwrap();
            recvs += 1;
            for s in sends {
                sent += s.bytes;
                pending.push(s.step);
            }
            if completed {
                break;
            }
            pending.sort_unstable_by(|a, b| b.cmp(a)); // process lowest step first
        }
        assert!(m.is_complete());
        (sent, recvs)
    }

    #[test]
    fn ring_rs_counts() {
        let (sent, recvs) = run_symmetric(Ring, PhaseOp::ReduceScatter, 4, 4096);
        assert_eq!(recvs, 3);
        assert_eq!(sent, 3 * 1024); // (n-1)/n of input
    }

    #[test]
    fn ring_ag_counts() {
        let (sent, recvs) = run_symmetric(Ring, PhaseOp::AllGather, 4, 1024);
        assert_eq!(recvs, 3);
        assert_eq!(sent, 3 * 1024); // (n-1) shards of input size
    }

    #[test]
    fn ring_ar_counts() {
        let (sent, recvs) = run_symmetric(Ring, PhaseOp::AllReduce, 4, 4096);
        assert_eq!(recvs, 6); // 2(n-1)
        assert_eq!(sent, 6 * 1024); // 2(n-1)/n of input
    }

    #[test]
    fn ring_a2a_is_one_shot() {
        let mut m = PhaseMachine::with_algo(Ring, PhaseOp::AllToAll, 4, 4096);
        let sends = start(&mut m);
        assert_eq!(sends.len(), 3);
        let targets: Vec<Target> = sends.iter().map(|s| s.target).collect();
        assert_eq!(
            targets,
            vec![
                Target::RingDistance(1),
                Target::RingDistance(2),
                Target::RingDistance(3)
            ]
        );
        // Receives arrive in any order.
        assert!(!recv(&mut m, 2).unwrap().0);
        assert!(!recv(&mut m, 3).unwrap().0);
        assert!(recv(&mut m, 1).unwrap().0);
    }

    #[test]
    fn direct_ar_two_stages() {
        let mut m = PhaseMachine::with_algo(Direct, PhaseOp::AllReduce, 4, 4096);
        let first = start(&mut m);
        assert_eq!(first.len(), 3);
        assert!(first.iter().all(|s| s.step == 0 && s.bytes == 1024));
        assert!(m.reduces_on(0));
        assert!(!m.reduces_on(1));
        // Stage 0: three reduced receives; the third triggers the broadcast.
        assert!(recv(&mut m, 0).unwrap().1.is_empty());
        assert!(recv(&mut m, 0).unwrap().1.is_empty());
        let (done, sends) = recv(&mut m, 0).unwrap();
        assert_eq!(sends.len(), 3);
        assert!(sends.iter().all(|s| s.step == 1));
        assert!(!done);
        // Stage 1: three more receives complete the phase.
        recv(&mut m, 1).unwrap();
        recv(&mut m, 1).unwrap();
        assert!(recv(&mut m, 1).unwrap().0);
        assert_eq!(m.bytes_sent_total(), 6 * 1024);
    }

    #[test]
    fn direct_ag_broadcasts_full_input() {
        let mut m = PhaseMachine::with_algo(Direct, PhaseOp::AllGather, 3, 500);
        let sends = start(&mut m);
        assert_eq!(sends.len(), 2);
        assert!(sends.iter().all(|s| s.bytes == 500));
    }

    #[test]
    fn reduce_flags_match_op() {
        assert!(PhaseMachine::with_algo(Ring, PhaseOp::ReduceScatter, 4, 64).reduces_on(2));
        assert!(!PhaseMachine::with_algo(Ring, PhaseOp::AllGather, 4, 64).reduces_on(0));
        let ar = PhaseMachine::with_algo(Ring, PhaseOp::AllReduce, 4, 64);
        assert!(ar.reduces_on(2)); // RS half
        assert!(!ar.reduces_on(3)); // AG half
        assert!(!PhaseMachine::with_algo(Ring, PhaseOp::AllToAll, 4, 64).reduces_on(1));
    }

    #[test]
    fn protocol_violations_rejected() {
        let mut m = PhaseMachine::with_algo(Ring, PhaseOp::ReduceScatter, 4, 64);
        start(&mut m);
        assert!(recv(&mut m, 2).is_err()); // out of order
        let mut a2a = PhaseMachine::with_algo(Ring, PhaseOp::AllToAll, 4, 64);
        start(&mut a2a);
        assert!(recv(&mut a2a, 0).is_err()); // distance 0 invalid
        assert!(recv(&mut a2a, 9).is_err());
    }

    #[test]
    fn accepts_matches_on_receive_and_rejections_append_nothing() {
        let mut m = PhaseMachine::with_algo(Direct, PhaseOp::AllReduce, 3, 300);
        let mut sends = Vec::new();
        m.start(&mut sends);
        for step in [0, 0, 1, 1] {
            let other = 1 - step;
            assert!(m.accepts(step) && !m.accepts(other));
            sends.clear();
            assert!(m.on_receive(other, &mut sends).is_err());
            assert!(sends.is_empty(), "a rejected step must not send");
            m.on_receive(step, &mut sends).unwrap();
        }
        assert!(m.is_complete() && !m.accepts(0) && !m.accepts(1));
        let mut ring = PhaseMachine::with_algo(Ring, PhaseOp::AllReduce, 4, 64);
        ring.start(&mut sends);
        assert!(ring.accepts(0) && !ring.accepts(1));
    }

    #[test]
    fn receive_after_complete_is_error() {
        let mut m = PhaseMachine::with_algo(Direct, PhaseOp::ReduceScatter, 2, 64);
        start(&mut m);
        assert!(recv(&mut m, 0).unwrap().0);
        assert!(recv(&mut m, 0).is_err());
    }

    #[test]
    fn tiny_inputs_never_send_zero_bytes() {
        let m = PhaseMachine::with_algo(Ring, PhaseOp::ReduceScatter, 8, 3);
        assert!(m.message_bytes() >= 1);
    }

    #[test]
    #[should_panic(expected = "already started")]
    fn double_start_panics() {
        let mut m = PhaseMachine::with_algo(Ring, PhaseOp::AllGather, 2, 64);
        start(&mut m);
        start(&mut m);
    }
}

#[cfg(test)]
mod hd_tests {
    use super::tests::{recv, run_symmetric, start};
    use super::*;
    use PhaseAlgo::HalvingDoubling as Hd;

    #[test]
    fn hd_rs_structure() {
        // n = 8: 3 rounds, masks 4, 2, 1; sizes input/2, input/4, input/8.
        let mut m = PhaseMachine::with_algo(Hd, PhaseOp::ReduceScatter, 8, 8192);
        assert_eq!(m.expected_receives(), 3);
        let s = start(&mut m);
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].target, Target::GroupXor(4));
        assert_eq!(s[0].bytes, 4096);
        let (_, sends) = recv(&mut m, 0).unwrap();
        assert_eq!(sends[0].target, Target::GroupXor(2));
        assert_eq!(sends[0].bytes, 2048);
        let (_, sends) = recv(&mut m, 1).unwrap();
        assert_eq!(sends[0].target, Target::GroupXor(1));
        assert_eq!(sends[0].bytes, 1024);
        assert!(recv(&mut m, 2).unwrap().0);
        // Total sent = input * (1 - 1/n).
        assert_eq!(m.bytes_sent_total(), 4096 + 2048 + 1024);
    }

    #[test]
    fn hd_ag_mirrors_rs() {
        // AG doubles toward the gathered size: masks 1, 2, 4 and sizes
        // input/8, input/4, input/2.
        let mut m = PhaseMachine::with_algo(Hd, PhaseOp::AllGather, 8, 1024);
        let s = start(&mut m);
        assert_eq!(s[0].target, Target::GroupXor(1));
        // hd_bytes(0) = input >> (rounds - 0) = 1024 >> 3 = 128.
        // Total sent over 3 rounds = 128 + 256 + 512 = 896 = input*(n-1)/n.
        assert_eq!(m.bytes_sent_total(), 896);
        recv(&mut m, 0).unwrap();
        recv(&mut m, 1).unwrap();
        assert!(recv(&mut m, 2).unwrap().0);
    }

    #[test]
    fn hd_ar_is_bandwidth_optimal() {
        let input = 1 << 20;
        let m = PhaseMachine::with_algo(Hd, PhaseOp::AllReduce, 16, input);
        assert_eq!(m.expected_receives(), 8); // 2 * log2(16)
                                              // 2(n-1)/n of input.
        assert_eq!(
            m.bytes_sent_total() as f64,
            input as f64 * 2.0 * 15.0 / 16.0
        );
        assert!(m.reduces_on(3));
        assert!(!m.reduces_on(4));
    }

    #[test]
    fn hd_ar_runs_to_completion_symmetrically() {
        let (sent, recvs) = run_symmetric(Hd, PhaseOp::AllReduce, 4, 4096);
        assert_eq!(recvs, 4);
        assert_eq!(sent, 2 * (2048 + 1024));
    }

    #[test]
    fn hd_out_of_order_rejected() {
        let mut m = PhaseMachine::with_algo(Hd, PhaseOp::ReduceScatter, 8, 64);
        start(&mut m);
        assert!(recv(&mut m, 1).is_err());
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn hd_requires_power_of_two() {
        PhaseMachine::with_algo(Hd, PhaseOp::AllReduce, 6, 64);
    }

    #[test]
    #[should_panic(expected = "all-to-all")]
    fn hd_has_no_a2a() {
        PhaseMachine::with_algo(Hd, PhaseOp::AllToAll, 4, 64);
    }

    #[test]
    fn tiny_hd_messages_never_zero() {
        let m = PhaseMachine::with_algo(Hd, PhaseOp::ReduceScatter, 8, 3);
        for step in 0..3 {
            assert!(m.message_bytes_for(step) >= 1);
        }
    }
}
