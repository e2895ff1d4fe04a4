//! System-layer statistics: the paper's Queue P0–P4 / Network P1–P4
//! breakdowns (Figs 12b and 16).

use astra_des::stats::RunningStats;
use astra_des::Time;
use serde::{Deserialize, Serialize};

/// Aggregate statistics across all collectives.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SystemStats {
    /// Ready-queue wait per chunk — the paper's Queue P0.
    pub ready_delay: RunningStats,
    /// Per-phase source-queueing delay of messages — Queue P1..Pk
    /// (index 0 = phase 1).
    pub phase_queue: Vec<RunningStats>,
    /// Per-phase in-network delay of messages — Network P1..Pk.
    pub phase_network: Vec<RunningStats>,
    /// Collectives fully completed (all NPUs).
    pub collectives_completed: u64,
    /// Messages delivered.
    pub messages: u64,
    /// Scale-out messages dropped by lossy transport (0 without a fault
    /// plan; each drop still consumed wire bandwidth).
    pub drops: u64,
    /// Retransmissions issued to recover dropped scale-out messages.
    pub retransmits: u64,
    /// Sends rerouted around hard-down links.
    pub reroutes: u64,
}

impl SystemStats {
    fn slot(v: &mut Vec<RunningStats>, phase: usize) -> &mut RunningStats {
        if phase >= v.len() {
            v.resize(phase + 1, RunningStats::new());
        }
        &mut v[phase]
    }

    /// Records one delivered message's delays for `phase`.
    pub fn record_message(&mut self, phase: usize, queueing: Time, network: Time) {
        Self::slot(&mut self.phase_queue, phase).record_time(queueing);
        Self::slot(&mut self.phase_network, phase).record_time(network);
        self.messages += 1;
    }

    /// Records a chunk's ready-queue wait (P0).
    pub fn record_ready_delay(&mut self, wait: Time) {
        self.ready_delay.record_time(wait);
    }
}

/// One chunk-phase execution span on one NPU, recorded when tracing is
/// enabled (see `SystemSim::enable_tracing`). Convertible to Chrome
/// trace-viewer JSON via `astra_core::output::chrome_trace`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseSpan {
    /// The NPU the span executed on.
    pub npu: u32,
    /// Collective id.
    pub coll: u64,
    /// Chunk index.
    pub chunk: u32,
    /// Phase index within the plan.
    pub phase: u8,
    /// When the chunk entered the phase.
    pub start: Time,
    /// When the phase completed on this NPU.
    pub end: Time,
}

/// Per-collective report, archived when the collective completes on every
/// NPU. The workload layer aggregates these per layer.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CollReport {
    /// Set size per NPU in bytes.
    pub set_bytes: u64,
    /// Number of chunks the set was split into.
    pub chunks: u32,
    /// Number of phases in the plan.
    pub phases: usize,
    /// When the collective was issued.
    pub issued_at: Time,
    /// When the first NPU finished.
    pub first_npu_done: Time,
    /// When the last NPU finished (the collective's completion time).
    pub finished_at: Time,
    /// Ready-queue wait of this collective's chunks (Queue P0).
    pub ready_delay: RunningStats,
    /// Per-phase message queueing delay (Queue P1..Pk).
    pub phase_queue: Vec<RunningStats>,
    /// Per-phase message network delay (Network P1..Pk).
    pub phase_network: Vec<RunningStats>,
}

impl CollReport {
    /// Wall-clock duration from issue to last-NPU completion.
    pub fn duration(&self) -> Time {
        self.finished_at - self.issued_at
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_slots_grow_on_demand() {
        let mut s = SystemStats::default();
        s.record_message(2, Time::from_cycles(5), Time::from_cycles(50));
        assert_eq!(s.phase_queue.len(), 3);
        assert_eq!(s.phase_queue[2].count(), 1);
        assert_eq!(s.phase_network[2].mean(), 50.0);
        assert_eq!(s.phase_queue[0].count(), 0);
        assert_eq!(s.messages, 1);
    }

    #[test]
    fn report_duration() {
        let r = CollReport {
            set_bytes: 1,
            chunks: 1,
            phases: 1,
            issued_at: Time::from_cycles(10),
            first_npu_done: Time::from_cycles(50),
            finished_at: Time::from_cycles(60),
            ready_delay: RunningStats::new(),
            phase_queue: vec![],
            phase_network: vec![],
        };
        assert_eq!(r.duration(), Time::from_cycles(50));
    }
}
