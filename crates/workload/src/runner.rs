//! The training-loop driver: per-NPU programs over the system layer.
//!
//! Every NPU runs the same program (synchronous training, §II): forward
//! pass layer by layer, then back-propagation from the last layer to the
//! first, for `passes` iterations. Communication semantics follow §III-E:
//!
//! * forward/input-gradient collectives **block** the next step (strict
//!   dependency in model/hybrid parallelism);
//! * weight-gradient collectives are **asynchronous**, but layer `i`'s
//!   weight-gradient all-reduce must complete before layer `i`'s forward
//!   pass of the *next* iteration — time spent stalled there is the
//!   **exposed communication** of Figs 15, 17 and 18.
//!
//! A collective is issued into the system layer when the *last* NPU reaches
//! its issue point (the semantics of a synchronous collective call); each
//! NPU then independently waits for its own completion notification where
//! the dependency rules require it.
//!
//! Each NPU is always in one of three states: computing one phase of one
//! layer, waiting for one collective, or done. After the last pass an NPU
//! runs the forward pass of iteration `passes` without compute: it only
//! waits for the final weight-gradient collectives, layer by layer.

use crate::{CommSpec, LayerReport, TrainingReport, Workload};
use astra_des::Time;
use astra_system::{CollId, CollectiveRequest, Notification, SystemError, SystemSim};

/// Which training phase a compute step or collective belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CommKind {
    Fwd,
    Ig,
    Wg,
}

/// The most training passes one run may take. Every run in the
/// repository takes a few; a pass count near `u32::MAX` would otherwise
/// run without bound.
pub const MAX_PASSES: u32 = 1_000;

/// Phases per layer: the stride of [`TrainingRunner::gate`].
const KINDS: usize = 3;

/// One phase of one layer in one iteration. It names both a point in an
/// NPU's program (the start of that phase) and the collective the phase
/// issues when its compute ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Step {
    iter: u32,
    layer: u32,
    kind: CommKind,
}

impl Step {
    fn new(iter: u32, layer: u32, kind: CommKind) -> Self {
        Step { iter, layer, kind }
    }
}

/// Program counter of one NPU's training loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NpuState {
    /// The step's compute callback is in flight.
    Computing(Step),
    /// Stalled until the collective `on` completes on this NPU; the
    /// program then resumes at `then`.
    Waiting { on: Step, then: Step },
    /// All passes finished on this NPU.
    Done,
}

/// Issue gate of one collective.
#[derive(Debug, Clone, Copy, Default)]
struct Gate {
    /// NPUs that have reached the issue point; at `n` it is issued.
    arrived: usize,
    issued: Option<CollId>,
}

/// Drives a [`SystemSim`] through a full training run; see the module
/// documentation above for the training-loop semantics.
#[derive(Debug)]
pub struct TrainingRunner {
    sim: SystemSim,
    workload: Workload,
    passes: u32,
    n: usize,
    states: Vec<NpuState>,
    /// `gate_of[coll]`: the gate that issued collective `coll` (ids are
    /// the system layer's dense collective indices). `None` for ids this
    /// runner did not issue, such as those issued before it was built.
    gate_of: Vec<Option<usize>>,
    /// Issue gates indexed by [`TrainingRunner::gate`], grown one
    /// iteration at a time.
    gates: Vec<Gate>,
    /// `done[gate * n + npu]`: the gate's collective completed on `npu`.
    done: Vec<bool>,
    /// Per-NPU compute-slowdown factor from the sim's fault plan
    /// (1.0 everywhere without stragglers).
    slowdowns: Vec<f64>,
    /// Per-NPU stall start time while waiting.
    stall_start: Vec<Time>,
    /// exposed[npu][layer], accumulated across iterations.
    exposed: Vec<Vec<Time>>,
    finish: Vec<Time>,
    done_count: usize,
    /// Fig 1's framework knob: when `false`, weight-gradient collectives
    /// block back-propagation instead of overlapping with it.
    overlap: bool,
}

impl TrainingRunner {
    /// Creates a runner for `passes` iterations of `workload` on `sim`.
    ///
    /// # Errors
    ///
    /// Fails with [`SystemError::InvalidWorkload`] if the workload is
    /// malformed, and with [`SystemError::InvalidConfig`] if `passes` is
    /// outside `1..=`[`MAX_PASSES`].
    pub fn new(sim: SystemSim, workload: Workload, passes: u32) -> Result<Self, SystemError> {
        workload
            .validate()
            .map_err(|what| SystemError::InvalidWorkload { what })?;
        if !(1..=MAX_PASSES).contains(&passes) {
            return Err(SystemError::InvalidConfig {
                field: "passes",
                value: u64::from(passes),
                expected: format!("1..={MAX_PASSES}"),
            });
        }
        let n = sim.topology().num_npus();
        let layers = workload.layers.len();
        let slowdowns = (0..n)
            .map(|npu| sim.faults().compute_slowdown(npu))
            .collect();
        Ok(TrainingRunner {
            sim,
            workload,
            passes,
            n,
            states: vec![NpuState::Done; n], // overwritten in run()
            gate_of: Vec::new(),
            gates: Vec::new(),
            done: Vec::new(),
            slowdowns,
            stall_start: vec![Time::ZERO; n],
            exposed: vec![vec![Time::ZERO; layers]; n],
            finish: vec![Time::ZERO; n],
            done_count: 0,
            overlap: true,
        })
    }

    /// Disables compute/communication overlap: every weight-gradient
    /// collective blocks until complete (Fig 1's "overlap vs no overlap").
    /// Useful for quantifying what overlap buys.
    pub fn without_overlap(mut self) -> Self {
        self.overlap = false;
        self
    }

    /// Runs the training loop to completion and assembles the report.
    ///
    /// # Errors
    ///
    /// Propagates system-layer failures (plan synthesis, routing).
    pub fn run(self) -> Result<TrainingReport, SystemError> {
        self.run_instrumented().map(|(report, _)| report)
    }

    /// Like [`run`](TrainingRunner::run), but also returns the number of
    /// discrete events the underlying simulation processed — the host-side
    /// throughput denominator (events/sec). Never part of the report, which
    /// must stay a pure function of the configuration.
    ///
    /// # Errors
    ///
    /// Propagates system-layer failures (plan synthesis, routing), and
    /// fails with [`SystemError::Protocol`] if the drained simulation is not
    /// quiescent (see [`SystemSim::audit_quiescent`]).
    pub fn run_instrumented(mut self) -> Result<(TrainingReport, u64), SystemError> {
        for npu in 0..self.n {
            self.advance(npu, Step::new(0, 0, CommKind::Fwd));
        }
        while self.done_count < self.n {
            let Some(note) = self.sim.run_until_notification()? else {
                return Err(SystemError::Protocol {
                    what: format!(
                        "training deadlocked: {} of {} NPUs done, states {:?}",
                        self.done_count, self.n, self.states
                    ),
                });
            };
            match note {
                Notification::Callback { token, .. } => self.on_compute_done(token)?,
                Notification::CollectiveDone { coll, npu, .. } => {
                    self.on_coll_done(coll, npu.index())?;
                }
            }
        }
        self.sim.drain_and_audit()?;
        let events = self.sim.events_processed();
        Ok((self.assemble(), events))
    }

    // ---- state machine ------------------------------------------------

    fn layer(&self, layer: u32) -> &crate::LayerSpec {
        &self.workload.layers[layer as usize]
    }

    /// Index of `key`'s collective in the gate table.
    fn gate(&self, key: Step) -> usize {
        (key.iter as usize * self.workload.layers.len() + key.layer as usize) * KINDS
            + key.kind as usize
    }

    /// Is `key`'s collective issued *and* complete on `npu`?
    fn is_done(&self, key: Step, npu: usize) -> bool {
        self.done.get(self.gate(key) * self.n + npu) == Some(&true)
    }

    /// Registers an NPU at `key`'s issue point; issues the collective when
    /// the last NPU arrives.
    fn register(&mut self, key: Step, spec: CommSpec) -> Result<(), SystemError> {
        let g = self.gate(key);
        if g >= self.gates.len() {
            let len = (key.iter as usize + 1) * self.workload.layers.len() * KINDS;
            self.gates.resize(len, Gate::default());
            self.done.resize(len * self.n, false);
        }
        let gate = &mut self.gates[g];
        gate.arrived += 1;
        debug_assert!(gate.arrived <= self.n, "over-registered collective {key:?}");
        if gate.arrived == self.n {
            let dims = match key.kind {
                CommKind::Wg => self.workload.parallelism.weight_grad_dims(),
                CommKind::Fwd | CommKind::Ig => self.workload.parallelism.activation_dims(),
            }
            .map(<[_]>::to_vec);
            let req = CollectiveRequest {
                op: spec.op,
                bytes: spec.bytes,
                dims,
                algorithm: None,
                local_update_per_kb: Some(self.layer(key.layer).local_update_per_kb),
            };
            let id = self.sim.issue_collective(req)?;
            self.gates[g].issued = Some(id);
            let slot = id.0 as usize;
            if slot >= self.gate_of.len() {
                self.gate_of.resize(slot + 1, None);
            }
            self.gate_of[slot] = Some(g);
        }
        Ok(())
    }

    /// Runs `npu`'s program from `next` until it schedules compute, waits
    /// for a collective or finishes.
    fn advance(&mut self, npu: usize, mut next: Step) {
        let layers = self.workload.layers.len() as u32;
        loop {
            let Step { iter, layer, kind } = next;
            if kind != CommKind::Fwd {
                return self.compute(npu, next);
            }
            if layer == layers {
                if iter == self.passes {
                    self.states[npu] = NpuState::Done;
                    self.finish[npu] = self.sim.now();
                    self.done_count += 1;
                    return;
                }
                // Forward pass done: back-propagate from the last layer.
                return self.compute(npu, Step::new(iter, layers - 1, CommKind::Ig));
            }
            if iter > 0 && self.layer(layer).wg_comm.is_some() {
                let wg = Step::new(iter - 1, layer, CommKind::Wg);
                if !self.is_done(wg, npu) {
                    return self.wait_for(npu, wg, next);
                }
            }
            if iter < self.passes {
                return self.compute(npu, next);
            }
            next.layer += 1;
        }
    }

    /// Stalls `npu` until `on`'s collective completes on it, then resumes
    /// at `then`. The only place a stall starts.
    fn wait_for(&mut self, npu: usize, on: Step, then: Step) {
        self.states[npu] = NpuState::Waiting { on, then };
        self.stall_start[npu] = self.sim.now();
    }

    fn compute(&mut self, npu: usize, step: Step) {
        let l = self.layer(step.layer);
        let delay = match step.kind {
            CommKind::Fwd => l.fwd_compute,
            CommKind::Ig => l.ig_compute,
            CommKind::Wg => l.wg_compute,
        };
        // Straggler NPUs (fault plan) run every compute phase slower. The
        // scale is skipped entirely at 1.0 so fault-free runs stay
        // bit-identical to builds without the fault subsystem.
        let slowdown = self.slowdowns.get(npu).copied().unwrap_or(1.0);
        let delay = if slowdown > 1.0 {
            Time::from_cycles((delay.cycles() as f64 * slowdown).round() as u64)
        } else {
            delay
        };
        self.sim.schedule_callback(delay, npu as u64);
        self.states[npu] = NpuState::Computing(step);
    }

    /// `npu`'s compute callback (scheduled with the NPU as its token) fired.
    fn on_compute_done(&mut self, token: u64) -> Result<(), SystemError> {
        let state = usize::try_from(token).ok().and_then(|i| self.states.get(i));
        let Some(&NpuState::Computing(step)) = state else {
            return Err(SystemError::Protocol {
                what: format!("compute callback fired for NPU {token} in state {state:?}"),
            });
        };
        let npu = token as usize; // in range: `states` has an entry for it
        let Step { iter, layer, kind } = step;
        let l = self.layer(layer);
        let (comm, then) = match kind {
            CommKind::Fwd => (l.fwd_comm, Step::new(iter, layer + 1, kind)),
            CommKind::Ig => (l.ig_comm, Step::new(iter, layer, CommKind::Wg)),
            CommKind::Wg if layer > 0 => (l.wg_comm, Step::new(iter, layer - 1, CommKind::Ig)),
            CommKind::Wg => (l.wg_comm, Step::new(iter + 1, 0, CommKind::Fwd)),
        };
        if let Some(spec) = comm {
            self.register(step, spec)?;
            // Weight gradients block only in no-overlap mode.
            let blocks = kind != CommKind::Wg || !self.overlap;
            if blocks && !self.is_done(step, npu) {
                self.wait_for(npu, step, then);
                return Ok(());
            }
        }
        self.advance(npu, then);
        Ok(())
    }

    fn on_coll_done(&mut self, coll: CollId, npu: usize) -> Result<(), SystemError> {
        let gate = self
            .gate_of
            .get(coll.0 as usize)
            .copied()
            .flatten()
            .ok_or_else(|| SystemError::Protocol {
                what: format!("completion for collective {coll:?} the runner never issued"),
            })?;
        self.done[gate * self.n + npu] = true;
        let NpuState::Waiting { on, then } = self.states[npu] else {
            return Ok(()); // overlapped completion, nobody stalled
        };
        if self.gate(on) != gate {
            return Ok(());
        }
        self.exposed[npu][on.layer as usize] += self.sim.now() - self.stall_start[npu];
        self.advance(npu, then);
        Ok(())
    }

    // ---- reporting ----------------------------------------------------

    fn assemble(self) -> TrainingReport {
        let faults = crate::FaultImpact::from_stats(self.sim.stats(), self.sim.net_stats());
        let layers = self
            .workload
            .layers
            .iter()
            .enumerate()
            .map(|(i, l)| {
                let mut fwd = Time::ZERO;
                let mut ig = Time::ZERO;
                let mut wg = Time::ZERO;
                let mut ready = astra_des::stats::RunningStats::new();
                let mut queue: Vec<astra_des::stats::RunningStats> = Vec::new();
                let mut network: Vec<astra_des::stats::RunningStats> = Vec::new();
                for iter in 0..self.passes {
                    for (kind, slot) in [
                        (CommKind::Fwd, &mut fwd),
                        (CommKind::Ig, &mut ig),
                        (CommKind::Wg, &mut wg),
                    ] {
                        let gate = self.gates.get(self.gate(Step::new(iter, i as u32, kind)));
                        let issued = gate.and_then(|g| g.issued);
                        if let Some(r) = issued.and_then(|id| self.sim.report(id)) {
                            *slot += r.duration();
                            ready.merge(&r.ready_delay);
                            for (p, s) in r.phase_queue.iter().enumerate() {
                                if p >= queue.len() {
                                    queue.resize_with(p + 1, Default::default);
                                    network.resize_with(p + 1, Default::default);
                                }
                                queue[p].merge(s);
                                network[p].merge(&r.phase_network[p]);
                            }
                        }
                    }
                }
                let exposed_mean = Time::from_cycles(
                    self.exposed
                        .iter()
                        .map(|per_npu| per_npu[i])
                        .sum::<Time>()
                        .cycles()
                        / self.n as u64,
                );
                LayerReport {
                    name: l.name.clone(),
                    compute: (l.fwd_compute + l.ig_compute + l.wg_compute)
                        .scale(u64::from(self.passes), 1),
                    fwd_comm: fwd,
                    ig_comm: ig,
                    wg_comm: wg,
                    exposed: exposed_mean,
                    ready_delay_mean: ready.mean(),
                    phase_queue_mean: queue.iter().map(|s| s.mean()).collect(),
                    phase_network_mean: network.iter().map(|s| s.mean()).collect(),
                }
            })
            .collect::<Vec<_>>();
        let total_exposed = Time::from_cycles(
            self.exposed
                .iter()
                .flatten()
                .copied()
                .sum::<Time>()
                .cycles()
                / self.n as u64,
        );
        TrainingReport {
            workload: self.workload.name.clone(),
            passes: self.passes,
            layers,
            total_time: self.finish.iter().copied().max().unwrap_or(Time::ZERO),
            total_compute: self
                .workload
                .compute_per_iteration()
                .scale(u64::from(self.passes), 1),
            total_exposed,
            faults,
        }
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo;
    use astra_network::NetworkConfig;
    use astra_system::{BackendKind, SystemConfig};
    use astra_topology::LogicalTopology;

    fn sim(m: usize, n: usize, k: usize) -> SystemSim {
        SystemSim::new(
            LogicalTopology::torus(m, n, k, 2, 2, 2).unwrap(),
            SystemConfig::default(),
            &NetworkConfig::default(),
            BackendKind::Analytical,
        )
    }

    #[test]
    fn tiny_mlp_trains_to_completion() {
        let report = TrainingRunner::new(sim(2, 2, 1), zoo::tiny_mlp(), 2)
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(report.passes, 2);
        assert_eq!(report.layers.len(), 3);
        assert!(report.total_time > Time::ZERO);
        // Weight gradients were actually communicated.
        assert!(report.layers.iter().any(|l| l.wg_comm > Time::ZERO));
    }

    #[test]
    fn exposed_grows_when_compute_shrinks() {
        // Same workload, same network; scaling compute down 8x leaves less
        // room to hide communication (Fig 18's argument).
        let slow = TrainingRunner::new(sim(2, 2, 2), zoo::tiny_mlp(), 2)
            .unwrap()
            .run()
            .unwrap();
        let mut fast_wl = zoo::tiny_mlp();
        for l in &mut fast_wl.layers {
            l.fwd_compute = l.fwd_compute.scale(1, 8);
            l.ig_compute = l.ig_compute.scale(1, 8);
            l.wg_compute = l.wg_compute.scale(1, 8);
        }
        let fast = TrainingRunner::new(sim(2, 2, 2), fast_wl, 2)
            .unwrap()
            .run()
            .unwrap();
        assert!(
            fast.exposed_ratio() > slow.exposed_ratio(),
            "fast NPU should expose more comm: {} vs {}",
            fast.exposed_ratio(),
            slow.exposed_ratio()
        );
    }

    #[test]
    fn single_pass_single_layer() {
        let wl = Workload {
            name: "one".into(),
            parallelism: crate::Parallelism::Data,
            layers: vec![crate::LayerSpec {
                name: "solo".into(),
                fwd_compute: Time::from_cycles(100),
                fwd_comm: None,
                ig_compute: Time::from_cycles(100),
                ig_comm: None,
                wg_compute: Time::from_cycles(100),
                wg_comm: Some(CommSpec::new(
                    astra_collectives::CollectiveOp::AllReduce,
                    1 << 16,
                )),
                local_update_per_kb: Time::from_cycles(1),
            }],
        };
        let report = TrainingRunner::new(sim(2, 2, 1), wl, 1)
            .unwrap()
            .run()
            .unwrap();
        // One pass: fwd + ig + wg compute = 300 cycles, then the drain wait
        // for the weight-gradient all-reduce is fully exposed.
        assert_eq!(report.total_compute, Time::from_cycles(300));
        assert!(report.total_exposed > Time::ZERO);
        assert!(report.total_time >= Time::from_cycles(300) + report.total_exposed);
    }

    #[test]
    fn compute_only_workload_has_no_comm() {
        let wl = Workload {
            name: "dry".into(),
            parallelism: crate::Parallelism::Data,
            layers: vec![
                crate::LayerSpec::compute_only(
                    "a",
                    Time::from_cycles(10),
                    Time::from_cycles(10),
                    Time::from_cycles(10),
                ),
                crate::LayerSpec::compute_only(
                    "b",
                    Time::from_cycles(20),
                    Time::from_cycles(20),
                    Time::from_cycles(20),
                ),
            ],
        };
        let report = TrainingRunner::new(sim(2, 1, 1), wl, 3)
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(report.total_exposed, Time::ZERO);
        assert_eq!(report.total_comm(), Time::ZERO);
        // 3 passes x 90 cycles of compute.
        assert_eq!(report.total_time, Time::from_cycles(270));
    }

    #[test]
    fn hybrid_parallelism_runs_blocking_collectives() {
        let report = TrainingRunner::new(sim(2, 2, 2), zoo::tiny_hybrid(), 1)
            .unwrap()
            .run()
            .unwrap();
        // Activation collectives happened and were (at least partly) exposed.
        assert!(report.layers.iter().any(|l| l.fwd_comm > Time::ZERO));
        assert!(report.total_exposed > Time::ZERO);
    }

    #[test]
    fn runs_on_a_simulator_that_already_issued_collectives() {
        let mut earlier = sim(2, 2, 1);
        for _ in 0..2 {
            let req = CollectiveRequest {
                op: astra_collectives::CollectiveOp::AllReduce,
                bytes: 1 << 12,
                dims: None,
                algorithm: None,
                local_update_per_kb: None,
            };
            earlier.complete_collective(req).unwrap();
        }
        let start = earlier.now();
        let late = TrainingRunner::new(earlier, zoo::tiny_mlp(), 2)
            .unwrap()
            .run()
            .unwrap();
        let fresh = TrainingRunner::new(sim(2, 2, 1), zoo::tiny_mlp(), 2)
            .unwrap()
            .run()
            .unwrap();
        // The runner's collectives are ids 2 and up; the idle network makes
        // the run the fresh one shifted by the earlier collectives' time.
        assert_eq!(late.layers, fresh.layers);
        assert_eq!(late.total_time, start + fresh.total_time);
    }

    #[test]
    fn zero_passes_rejected() {
        for passes in [0, MAX_PASSES + 1, u32::MAX] {
            let err = TrainingRunner::new(sim(2, 1, 1), zoo::tiny_mlp(), passes).unwrap_err();
            assert!(
                matches!(
                    err,
                    SystemError::InvalidConfig {
                        field: "passes",
                        ..
                    }
                ),
                "{err:?}"
            );
            assert!(
                err.to_string().contains(&format!("passes = {passes},")),
                "{err}"
            );
        }
        assert!(TrainingRunner::new(sim(2, 1, 1), zoo::tiny_mlp(), MAX_PASSES).is_ok());
    }

    #[test]
    fn malformed_workload_error_keeps_its_message() {
        let mut wl = zoo::tiny_mlp();
        wl.layers.clear();
        let err = TrainingRunner::new(sim(2, 1, 1), wl, 1).unwrap_err();
        assert_eq!(err.to_string(), "invalid workload: workload has no layers");
    }

    #[test]
    fn deterministic_training() {
        let run = || {
            TrainingRunner::new(sim(2, 2, 1), zoo::tiny_mlp(), 2)
                .unwrap()
                .run()
                .unwrap()
                .total_time
        };
        assert_eq!(run(), run());
    }
}

#[cfg(test)]
mod overlap_tests {
    use super::*;
    use crate::zoo;
    use astra_network::NetworkConfig;
    use astra_system::{BackendKind, SystemConfig};
    use astra_topology::LogicalTopology;

    fn sim() -> SystemSim {
        SystemSim::new(
            LogicalTopology::torus(2, 2, 2, 1, 1, 1).unwrap(),
            SystemConfig::default(),
            &NetworkConfig::default(),
            BackendKind::Analytical,
        )
    }

    #[test]
    fn no_overlap_is_slower_and_more_exposed() {
        let with = TrainingRunner::new(sim(), zoo::tiny_mlp(), 2)
            .unwrap()
            .run()
            .unwrap();
        let without = TrainingRunner::new(sim(), zoo::tiny_mlp(), 2)
            .unwrap()
            .without_overlap()
            .run()
            .unwrap();
        assert!(
            without.total_time >= with.total_time,
            "overlap must not hurt: {} vs {}",
            without.total_time,
            with.total_time
        );
        assert!(
            without.total_exposed > with.total_exposed,
            "no-overlap exposes every collective: {} vs {}",
            without.total_exposed,
            with.total_exposed
        );
        // In no-overlap mode essentially all comm is exposed: wall time ~
        // compute + exposed exactly (no hidden slack).
        assert_eq!(
            without.total_time,
            without.total_compute + without.total_exposed
        );
    }

    #[test]
    fn straggler_npu_slows_training() {
        use astra_network::{FaultPlan, Straggler};
        let clean = TrainingRunner::new(sim(), zoo::tiny_mlp(), 2)
            .unwrap()
            .run()
            .unwrap();
        let plan = FaultPlan {
            stragglers: vec![Straggler {
                npu: 3,
                slowdown: 4.0,
            }],
            ..FaultPlan::default()
        };
        let mut slow_sim = sim();
        slow_sim.install_faults(&plan).unwrap();
        let slowed = TrainingRunner::new(slow_sim, zoo::tiny_mlp(), 2)
            .unwrap()
            .run()
            .unwrap();
        // Synchronous training moves at the pace of its slowest NPU.
        assert!(
            slowed.total_time > clean.total_time,
            "straggler must slow the run: {} vs {}",
            slowed.total_time,
            clean.total_time
        );
    }

    #[test]
    fn straggler_run_is_deterministic() {
        use astra_network::{FaultPlan, Straggler};
        let run = || {
            let plan = FaultPlan {
                stragglers: vec![Straggler {
                    npu: 0,
                    slowdown: 2.5,
                }],
                ..FaultPlan::default()
            };
            let mut s = sim();
            s.install_faults(&plan).unwrap();
            TrainingRunner::new(s, zoo::tiny_mlp(), 2)
                .unwrap()
                .run()
                .unwrap()
                .total_time
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn empty_fault_plan_is_inert_for_training() {
        use astra_network::FaultPlan;
        let clean = TrainingRunner::new(sim(), zoo::tiny_mlp(), 2)
            .unwrap()
            .run()
            .unwrap();
        let mut s = sim();
        s.install_faults(&FaultPlan::default()).unwrap();
        let with_plan = TrainingRunner::new(s, zoo::tiny_mlp(), 2)
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(clean.total_time, with_plan.total_time);
        assert_eq!(clean.total_exposed, with_plan.total_exposed);
    }

    #[test]
    fn no_overlap_is_deterministic() {
        let run = || {
            TrainingRunner::new(sim(), zoo::tiny_mlp(), 1)
                .unwrap()
                .without_overlap()
                .run()
                .unwrap()
                .total_time
        };
        assert_eq!(run(), run());
    }
}
