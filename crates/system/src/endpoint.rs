//! Endpoint modeling: per-chunk phase state, endpoint delay, and local
//! reduction cost.
//!
//! Every received message is charged a constant `endpoint-delay` plus — on
//! reducing steps — a local-update cost proportional to the payload
//! (Table IV, Fig 8's per-layer "local update time"). This module owns the
//! chunk/collective runtime state the event loop advances and the
//! machine-stepping logic, so [`crate::SystemSim`] only sequences events.

use crate::{CollReport, SystemError};
use astra_collectives::{CollectivePlan, PhaseMachine, SendCmd};
use astra_des::Time;

/// Per-chunk runtime state on one NPU: only what every arrival and
/// endpoint event reads, 32 bytes (DESIGN.md "hot-path conventions").
/// State the rare paths need lives in [`CollState`]'s side lists.
#[derive(Debug, Clone, Default)]
pub(crate) struct ChunkState {
    pub(crate) machine: Option<PhaseMachine>,
    pub(crate) phase: u8,
    pub(crate) done: bool,
}

/// Drains the early-arrived messages buffered for chunk `at` in `phase`, in
/// step order, leaving every other message queued. Allocates nothing when
/// no such message arrived early (an empty `collect` does not).
pub(crate) fn take_early(early: &mut Vec<(usize, u8, u32)>, at: usize, phase: u8) -> Vec<u32> {
    let mine = |&(a, p, _): &(usize, u8, u32)| a == at && p == phase;
    let mut steps: Vec<u32> = early.iter().filter(|e| mine(e)).map(|e| e.2).collect();
    early.retain(|e| !mine(e));
    steps.sort_unstable();
    steps
}

/// Global state of an in-flight collective.
pub(crate) struct CollState {
    pub(crate) plan: CollectivePlan,
    pub(crate) update_per_kb: Time,
    /// Payload of each chunk; the same on every NPU.
    pub(crate) chunk_bytes: Vec<u64>,
    /// Every NPU's chunks in one table: NPU `n`'s chunk `c` sits at
    /// `n * chunks + c` ([`CollState::at`]).
    pub(crate) chunks: Vec<ChunkState>,
    /// Chunks retired per NPU.
    pub(crate) chunks_done: Vec<u32>,
    /// When each chunk entered its current phase, indexed like `chunks`;
    /// kept only while tracing, for [`crate::PhaseSpan`]s.
    pub(crate) entered_phase_at: Vec<Time>,
    /// Messages that arrived before their chunk entered their phase
    /// (neighbors can run ahead): (flat index, phase, step), drained at
    /// phase entry.
    pub(crate) early: Vec<(usize, u8, u32)>,
    /// Current-phase steps that overtook a predecessor still in flight:
    /// (flat index, step); see [`absorb_step`].
    pub(crate) deferred: Vec<(usize, u32)>,
    pub(crate) npus_done: usize,
    pub(crate) report: CollReport,
}

impl CollState {
    /// Fresh state for a collective of `chunk_bytes` chunks issued at
    /// `now` on `num_npus` NPUs; `tracing` keeps phase entry times.
    pub(crate) fn new(
        plan: CollectivePlan,
        update_per_kb: Time,
        num_npus: usize,
        chunk_bytes: Vec<u64>,
        set_bytes: u64,
        now: Time,
        tracing: bool,
    ) -> Self {
        let total = num_npus * chunk_bytes.len();
        let phases = plan.phases().len();
        let chunks = chunk_bytes.len() as u32;
        CollState {
            plan,
            update_per_kb,
            chunk_bytes,
            chunks: vec![ChunkState::default(); total],
            chunks_done: vec![0; num_npus],
            entered_phase_at: vec![Time::ZERO; if tracing { total } else { 0 }],
            early: Vec::new(),
            deferred: Vec::new(),
            npus_done: 0,
            report: CollReport {
                set_bytes,
                chunks,
                phases,
                issued_at: now,
                first_npu_done: Time::ZERO,
                finished_at: Time::ZERO,
                ready_delay: Default::default(),
                phase_queue: Vec::new(),
                phase_network: Vec::new(),
            },
        }
    }

    /// Flat index of `npu`'s `chunk` in [`CollState::chunks`].
    pub(crate) fn at(&self, npu: usize, chunk: u32) -> usize {
        debug_assert!((chunk as usize) < self.chunk_bytes.len());
        npu * self.chunk_bytes.len() + chunk as usize
    }

    /// Folds one message's source-queueing and in-network delay into the
    /// report's per-phase histograms.
    pub(crate) fn record_arrival(&mut self, phase: usize, queueing: Time, wire: Time) {
        let r = &mut self.report;
        if phase >= r.phase_queue.len() {
            r.phase_queue.resize_with(phase + 1, Default::default);
            r.phase_network.resize_with(phase + 1, Default::default);
        }
        r.phase_queue[phase].record_time(queueing);
        r.phase_network[phase].record_time(wire);
    }
}

/// One slot of the collective table, indexed by the dense sequential
/// collective id: the runtime state while the collective runs, its report
/// once every NPU is done.
pub(crate) enum Coll {
    Live(CollState),
    Done(CollReport),
}

/// The in-flight collective `coll` from the collective table.
pub(crate) fn live(colls: &[Coll], coll: u64) -> Result<&CollState, SystemError> {
    match usize::try_from(coll).ok().and_then(|i| colls.get(i)) {
        Some(Coll::Live(cs)) => Ok(cs),
        _ => Err(SystemError::UnknownCollective { coll }),
    }
}

/// Mutable form of [`live`].
pub(crate) fn live_mut(colls: &mut [Coll], coll: u64) -> Result<&mut CollState, SystemError> {
    match usize::try_from(coll).ok().and_then(|i| colls.get_mut(i)) {
        Some(Coll::Live(cs)) => Ok(cs),
        _ => Err(SystemError::UnknownCollective { coll }),
    }
}

/// Endpoint processing time for receiving `step`: the constant endpoint
/// delay, plus the local-update cost of reducing the step's payload when
/// the step reduces.
pub(crate) fn receive_cost(
    endpoint_delay: Time,
    update_per_kb: Time,
    machine: &PhaseMachine,
    step: u32,
) -> Time {
    let mut delay = endpoint_delay;
    if machine.reduces_on(step) {
        let kb = machine.message_bytes_for(step).div_ceil(1024);
        delay += update_per_kb.scale(kb, 1);
    }
    delay
}

/// Feeds a received `step` into the chunk's phase machine, appending the
/// sends it triggers to `sends`, and drains any previously deferred steps
/// it unblocks.
///
/// A step the machine does not accept yet overtook its predecessor: under
/// a fault plan the predecessor may be stalled behind a retransmission
/// timeout or a longer rerouted path, and in garnet flit-level arbitration
/// can deliver one chunk's step `k + 1` before step `k`. Such a step is
/// held back in `deferred` under the chunk's flat index `at` and retried
/// once the machine advances; other chunks' entries are left alone.
///
/// Returns whether the phase completed.
///
/// # Errors
///
/// [`SystemError::Protocol`] if the phase completes while steps of this
/// chunk are still deferred (they can never be accepted).
pub(crate) fn absorb_step(
    machine: &mut PhaseMachine,
    deferred: &mut Vec<(usize, u32)>,
    at: usize,
    step: u32,
    sends: &mut Vec<SendCmd>,
) -> Result<bool, SystemError> {
    if !machine.accepts(step) {
        deferred.push((at, step));
        return Ok(false);
    }
    let mut completed = receive(machine, step, sends)?;
    // Each accepted step may unblock held-back successors; drain until
    // a full sweep makes no progress.
    loop {
        let mut progressed = false;
        let mut i = 0;
        while i < deferred.len() {
            if deferred[i].0 == at && machine.accepts(deferred[i].1) {
                let step = deferred.swap_remove(i).1;
                completed |= receive(machine, step, sends)?;
                progressed = true;
            } else {
                i += 1;
            }
        }
        if !progressed {
            break;
        }
    }
    if completed && deferred.iter().any(|d| d.0 == at) {
        let held: Vec<u32> = deferred.iter().filter(|d| d.0 == at).map(|d| d.1).collect();
        return Err(SystemError::Protocol {
            what: format!("phase completed with steps {held:?} still deferred"),
        });
    }
    Ok(completed)
}

/// [`PhaseMachine::on_receive`] with its error surfaced as the system-layer
/// protocol violation it is.
fn receive(
    machine: &mut PhaseMachine,
    step: u32,
    sends: &mut Vec<SendCmd>,
) -> Result<bool, SystemError> {
    machine
        .on_receive(step, sends)
        .map_err(|e| SystemError::Protocol {
            what: format!("phase machine rejected a receive: {e}"),
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_early_filters_and_sorts_one_phase() {
        let mut early = vec![
            (0, 1, 5),
            (0, 0, 3),
            (0, 1, 2),
            (0, 2, 0),
            (0, 1, 9),
            (1, 1, 4),
        ];
        assert_eq!(take_early(&mut early, 0, 1), [2, 5, 9]);
        assert_eq!(early, [(0, 0, 3), (0, 2, 0), (1, 1, 4)]);
        assert_eq!(take_early(&mut early, 0, 3), Vec::<u32>::new());
        early.clear();
        assert_eq!(
            take_early(&mut early, 0, 0).capacity(),
            0,
            "no allocation when nothing is early"
        );
    }

    #[test]
    fn absorb_step_defers_overtaking_steps_until_unblocked() {
        use astra_collectives::{PhaseAlgo, PhaseOp};
        let mut m = PhaseMachine::with_algo(PhaseAlgo::Ring, PhaseOp::ReduceScatter, 4, 4096);
        // Another chunk's held-back step shares the list and stays there.
        let mut deferred = vec![(9, 3)];
        let mut sends = Vec::new();
        m.start(&mut sends);
        sends.clear();
        // Step 2 and step 1 overtake step 0: both are held back.
        assert!(!absorb_step(&mut m, &mut deferred, 0, 2, &mut sends).unwrap());
        assert!(!absorb_step(&mut m, &mut deferred, 0, 1, &mut sends).unwrap());
        assert_eq!(deferred, [(9, 3), (0, 2), (0, 1)]);
        assert!(sends.is_empty());
        // Step 0 unblocks both; the phase completes with all three sends
        // it owes (steps 1 and 2; step 3 does not exist in a 4-ring RS).
        assert!(absorb_step(&mut m, &mut deferred, 0, 0, &mut sends).unwrap());
        assert_eq!(deferred, [(9, 3)]);
        assert_eq!(sends.iter().map(|s| s.step).collect::<Vec<_>>(), [1, 2]);
    }

    #[test]
    fn steps_deferred_past_completion_are_a_protocol_error() {
        use astra_collectives::{PhaseAlgo, PhaseOp};
        let mut m = PhaseMachine::with_algo(PhaseAlgo::Direct, PhaseOp::ReduceScatter, 2, 64);
        let mut sends = Vec::new();
        m.start(&mut sends);
        // Step 5 never becomes acceptable: completing with it held back is
        // a typed error, not a silent drop.
        let mut deferred = vec![(0, 5)];
        assert!(matches!(
            absorb_step(&mut m, &mut deferred, 0, 0, &mut sends),
            Err(SystemError::Protocol { .. })
        ));
    }

    #[test]
    fn record_arrival_grows_phase_histograms_on_demand() {
        use astra_collectives::{plan, Algorithm, CollectiveOp};
        use astra_topology::LogicalTopology;
        let topo = LogicalTopology::torus(1, 4, 1, 1, 1, 1).unwrap();
        let p = plan(&topo, CollectiveOp::AllReduce, Algorithm::Baseline, None).unwrap();
        let mut cs = CollState::new(
            p,
            Time::from_cycles(2),
            4,
            vec![512, 512],
            1024,
            Time::ZERO,
            false,
        );
        cs.record_arrival(2, Time::from_cycles(7), Time::from_cycles(11));
        assert_eq!(cs.report.phase_queue.len(), 3);
        assert_eq!(cs.report.phase_queue[2].count(), 1);
        assert_eq!(cs.report.phase_network[2].count(), 1);
        assert_eq!(cs.report.phase_queue[0].count(), 0);
        assert_eq!(cs.report.chunks, 2);
        // One flat chunk table over all NPUs; no phase times untraced.
        assert_eq!((cs.chunks.len(), cs.at(3, 1)), (8, 7));
        assert!(cs.entered_phase_at.is_empty());
    }
}
