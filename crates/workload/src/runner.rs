//! The training-loop driver: per-NPU state machines over the system layer.
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

use crate::{CommSpec, LayerReport, TrainingReport, Workload};
use astra_des::hash::{IdMap, IdSet};
use astra_des::Time;
use astra_system::{
    CallbackId, CollId, CollectiveRequest, Notification, SystemError, SystemSim,
};

/// Which training phase a collective belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum CommKind {
    Fwd,
    Ig,
    Wg,
}

/// Identity of one collective instance: (iteration, layer, phase).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct CollKey {
    iter: u32,
    layer: u32,
    kind: CommKind,
}

/// Program counter of one NPU's training loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NpuState {
    /// Stalled at the top of layer `layer`'s forward pass, waiting for its
    /// previous-iteration weight-gradient collective.
    FwdWaitWg { iter: u32, layer: u32 },
    /// Forward compute callback in flight.
    FwdComputing { iter: u32, layer: u32 },
    /// Blocked on the layer's forward (activation) collective.
    FwdCommWaiting { iter: u32, layer: u32 },
    /// Input-gradient compute callback in flight.
    IgComputing { iter: u32, layer: u32 },
    /// Blocked on the layer's input-gradient collective.
    IgCommWaiting { iter: u32, layer: u32 },
    /// Weight-gradient compute callback in flight.
    WgComputing { iter: u32, layer: u32 },
    /// Blocked on the layer's weight-gradient collective (only in
    /// no-overlap mode, Fig 1's "overlap vs no overlap" knob).
    WgCommWaiting { iter: u32, layer: u32 },
    /// After the last pass: waiting for layer `layer`'s final
    /// weight-gradient collective.
    FinalDraining { layer: u32 },
    /// All passes finished on this NPU.
    Done,
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
    // Per-event lookups keyed by simulator-minted ids: `IdHasher` maps.
    // Nothing iterates them, so their order never reaches the report.
    cb_map: IdMap<CallbackId, usize>,
    /// Issue gates: how many NPUs have reached each collective's issue
    /// point; at `n` the collective is issued.
    gates: IdMap<CollKey, usize>,
    issued: IdMap<CollKey, CollId>,
    keys: IdMap<CollId, CollKey>,
    completed: IdSet<(u64, usize)>,
    /// Per-NPU compute-slowdown factor from the sim's fault plan
    /// (1.0 everywhere without stragglers).
    slowdowns: Vec<f64>,
    /// Per-NPU stall start time while in a waiting state.
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
    /// Fails if the workload is malformed or `passes == 0`.
    pub fn new(sim: SystemSim, workload: Workload, passes: u32) -> Result<Self, SystemError> {
        if workload.validate().is_err() || passes == 0 {
            return Err(SystemError::EmptySet);
        }
        let n = sim.topology().num_npus();
        let layers = workload.layers.len();
        let slowdowns = (0..n).map(|npu| sim.faults().compute_slowdown(npu)).collect();
        Ok(TrainingRunner {
            sim,
            workload,
            passes,
            n,
            states: vec![NpuState::Done; n], // overwritten in run()
            cb_map: IdMap::default(),
            gates: IdMap::default(),
            issued: IdMap::default(),
            keys: IdMap::default(),
            completed: IdSet::default(),
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
            self.start_fwd(npu, 0, 0)?;
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
                Notification::Callback { id, .. } => {
                    let npu = self.cb_map.remove(&id).ok_or_else(|| SystemError::Protocol {
                        what: format!("callback {id:?} does not belong to any NPU"),
                    })?;
                    self.on_compute_done(npu)?;
                }
                Notification::CollectiveDone { coll, npu, .. } => {
                    self.completed.insert((coll.0, npu.index()));
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

    fn num_layers(&self) -> u32 {
        self.workload.layers.len() as u32
    }

    /// Is `key`'s collective issued *and* complete on `npu`?
    fn coll_done_for(&self, key: CollKey, npu: usize) -> bool {
        match self.issued.get(&key) {
            Some(id) => self.completed.contains(&(id.0, npu)),
            None => false,
        }
    }

    /// Registers `npu` at a collective's issue point; issues it when the
    /// last NPU arrives.
    fn register(&mut self, key: CollKey, spec: CommSpec, layer: u32) -> Result<(), SystemError> {
        let count = self.gates.entry(key).or_insert(0);
        *count += 1;
        debug_assert!(*count <= self.n, "over-registered collective {key:?}");
        if *count == self.n {
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
                local_update_per_kb: Some(self.layer(layer).local_update_per_kb),
            };
            let id = self.sim.issue_collective(req)?;
            self.issued.insert(key, id);
            self.keys.insert(id, key);
        }
        Ok(())
    }

    fn schedule_compute(
        &mut self,
        npu: usize,
        delay: Time,
        next: NpuState,
    ) -> Result<(), SystemError> {
        // Straggler NPUs (fault plan) run every compute phase slower. The
        // scale is skipped entirely at 1.0 so fault-free runs stay
        // bit-identical to builds without the fault subsystem.
        let slowdown = self.slowdowns.get(npu).copied().unwrap_or(1.0);
        let delay = if slowdown > 1.0 {
            Time::from_cycles((delay.cycles() as f64 * slowdown).round() as u64)
        } else {
            delay
        };
        let cb = self.sim.schedule_callback(delay)?;
        self.cb_map.insert(cb, npu);
        self.states[npu] = next;
        Ok(())
    }

    /// Begins the forward pass of `layer` (or transitions to back-prop /
    /// next iteration when past the last layer).
    fn start_fwd(&mut self, npu: usize, iter: u32, layer: u32) -> Result<(), SystemError> {
        if layer == self.num_layers() {
            // Forward pass done: back-propagate from the last layer.
            return self.start_bwd(npu, iter, self.num_layers() - 1);
        }
        if iter > 0 && self.layer(layer).wg_comm.is_some() {
            let key = CollKey {
                iter: iter - 1,
                layer,
                kind: CommKind::Wg,
            };
            if !self.coll_done_for(key, npu) {
                self.states[npu] = NpuState::FwdWaitWg { iter, layer };
                self.stall_start[npu] = self.sim.now();
                return Ok(());
            }
        }
        let delay = self.layer(layer).fwd_compute;
        self.schedule_compute(npu, delay, NpuState::FwdComputing { iter, layer })
    }

    /// Begins back-propagation of `layer`: input-gradient compute first.
    fn start_bwd(&mut self, npu: usize, iter: u32, layer: u32) -> Result<(), SystemError> {
        let delay = self.layer(layer).ig_compute;
        self.schedule_compute(npu, delay, NpuState::IgComputing { iter, layer })
    }

    /// After back-prop of `layer` finishes, move to the previous layer or
    /// wrap up the iteration.
    fn after_bwd_layer(&mut self, npu: usize, iter: u32, layer: u32) -> Result<(), SystemError> {
        if layer > 0 {
            self.start_bwd(npu, iter, layer - 1)
        } else if iter + 1 < self.passes {
            self.start_fwd(npu, iter + 1, 0)
        } else {
            self.final_drain(npu, 0)
        }
    }

    /// After the last pass: wait for every outstanding weight-gradient
    /// collective, layer by layer.
    fn final_drain(&mut self, npu: usize, from_layer: u32) -> Result<(), SystemError> {
        for layer in from_layer..self.num_layers() {
            if self.layer(layer).wg_comm.is_some() {
                let key = CollKey {
                    iter: self.passes - 1,
                    layer,
                    kind: CommKind::Wg,
                };
                if !self.coll_done_for(key, npu) {
                    self.states[npu] = NpuState::FinalDraining { layer };
                    self.stall_start[npu] = self.sim.now();
                    return Ok(());
                }
            }
        }
        self.states[npu] = NpuState::Done;
        self.finish[npu] = self.sim.now();
        self.done_count += 1;
        Ok(())
    }

    fn on_compute_done(&mut self, npu: usize) -> Result<(), SystemError> {
        match self.states[npu] {
            NpuState::FwdComputing { iter, layer } => {
                if let Some(spec) = self.layer(layer).fwd_comm {
                    let key = CollKey {
                        iter,
                        layer,
                        kind: CommKind::Fwd,
                    };
                    self.register(key, spec, layer)?;
                    if self.coll_done_for(key, npu) {
                        self.start_fwd(npu, iter, layer + 1)
                    } else {
                        self.states[npu] = NpuState::FwdCommWaiting { iter, layer };
                        self.stall_start[npu] = self.sim.now();
                        Ok(())
                    }
                } else {
                    self.start_fwd(npu, iter, layer + 1)
                }
            }
            NpuState::IgComputing { iter, layer } => {
                if let Some(spec) = self.layer(layer).ig_comm {
                    let key = CollKey {
                        iter,
                        layer,
                        kind: CommKind::Ig,
                    };
                    self.register(key, spec, layer)?;
                    if self.coll_done_for(key, npu) {
                        self.start_wg_compute(npu, iter, layer)
                    } else {
                        self.states[npu] = NpuState::IgCommWaiting { iter, layer };
                        self.stall_start[npu] = self.sim.now();
                        Ok(())
                    }
                } else {
                    self.start_wg_compute(npu, iter, layer)
                }
            }
            NpuState::WgComputing { iter, layer } => {
                if let Some(spec) = self.layer(layer).wg_comm {
                    let key = CollKey {
                        iter,
                        layer,
                        kind: CommKind::Wg,
                    };
                    self.register(key, spec, layer)?;
                    if !self.overlap {
                        // No-overlap mode: block until this layer's
                        // all-reduce completes.
                        if self.coll_done_for(key, npu) {
                            return self.after_bwd_layer(npu, iter, layer);
                        }
                        self.states[npu] = NpuState::WgCommWaiting { iter, layer };
                        self.stall_start[npu] = self.sim.now();
                        return Ok(());
                    }
                }
                self.after_bwd_layer(npu, iter, layer)
            }
            other => Err(SystemError::Protocol {
                what: format!("compute callback fired for NPU {npu} in non-compute state {other:?}"),
            }),
        }
    }

    fn start_wg_compute(&mut self, npu: usize, iter: u32, layer: u32) -> Result<(), SystemError> {
        let delay = self.layer(layer).wg_compute;
        self.schedule_compute(npu, delay, NpuState::WgComputing { iter, layer })
    }

    fn on_coll_done(&mut self, coll: CollId, npu: usize) -> Result<(), SystemError> {
        let key = *self.keys.get(&coll).ok_or_else(|| SystemError::Protocol {
            what: format!("completion for collective {coll:?} the runner never issued"),
        })?;
        let resume = match self.states[npu] {
            NpuState::FwdWaitWg { iter, layer } => {
                (key
                    == CollKey {
                        iter: iter - 1,
                        layer,
                        kind: CommKind::Wg,
                    })
                .then_some((layer, NpuResume::Fwd { iter, layer }))
            }
            NpuState::FwdCommWaiting { iter, layer } => {
                (key
                    == CollKey {
                        iter,
                        layer,
                        kind: CommKind::Fwd,
                    })
                .then_some((layer, NpuResume::AfterFwdComm { iter, layer }))
            }
            NpuState::IgCommWaiting { iter, layer } => {
                (key
                    == CollKey {
                        iter,
                        layer,
                        kind: CommKind::Ig,
                    })
                .then_some((layer, NpuResume::Wg { iter, layer }))
            }
            NpuState::WgCommWaiting { iter, layer } => {
                (key
                    == CollKey {
                        iter,
                        layer,
                        kind: CommKind::Wg,
                    })
                .then_some((layer, NpuResume::AfterBwd { iter, layer }))
            }
            NpuState::FinalDraining { layer } => {
                (key
                    == CollKey {
                        iter: self.passes - 1,
                        layer,
                        kind: CommKind::Wg,
                    })
                .then_some((layer, NpuResume::Drain { layer }))
            }
            _ => None,
        };
        let Some((layer, resume)) = resume else {
            return Ok(()); // overlapped completion, nobody stalled
        };
        let stall = self.sim.now() - self.stall_start[npu];
        self.exposed[npu][layer as usize] += stall;
        match resume {
            NpuResume::Fwd { iter, layer } => {
                let delay = self.layer(layer).fwd_compute;
                self.schedule_compute(npu, delay, NpuState::FwdComputing { iter, layer })
            }
            NpuResume::AfterFwdComm { iter, layer } => self.start_fwd(npu, iter, layer + 1),
            NpuResume::Wg { iter, layer } => self.start_wg_compute(npu, iter, layer),
            NpuResume::AfterBwd { iter, layer } => self.after_bwd_layer(npu, iter, layer),
            NpuResume::Drain { layer } => self.final_drain(npu, layer + 1),
        }
    }

    // ---- reporting ----------------------------------------------------

    fn assemble(self) -> TrainingReport {
        let faults =
            crate::FaultImpact::from_stats(self.sim.stats(), self.sim.net_stats());
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
                        let key = CollKey {
                            iter,
                            layer: i as u32,
                            kind,
                        };
                        if let Some(id) = self.issued.get(&key) {
                            if let Some(r) = self.sim.report(*id) {
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
                }
                let exposed_mean = Time::from_cycles(
                    self.exposed
                        .iter()
                        .map(|per_npu| per_npu[i].cycles())
                        .sum::<u64>()
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
                .map(|per_npu| per_npu.iter().map(|t| t.cycles()).sum::<u64>())
                .sum::<u64>()
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

/// What to do after a stall clears.
#[derive(Debug, Clone, Copy)]
enum NpuResume {
    Fwd { iter: u32, layer: u32 },
    AfterFwdComm { iter: u32, layer: u32 },
    Wg { iter: u32, layer: u32 },
    AfterBwd { iter: u32, layer: u32 },
    Drain { layer: u32 },
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo;
    use astra_network::NetworkConfig;
    use astra_system::{BackendKind, SystemConfig};
    use astra_topology::{LogicalTopology, Torus3d};

    fn sim(m: usize, n: usize, k: usize) -> SystemSim {
        SystemSim::new(
            LogicalTopology::torus(Torus3d::new(m, n, k, 2, 2, 2).unwrap()),
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
        let report = TrainingRunner::new(sim(2, 2, 1), wl, 1).unwrap().run().unwrap();
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
        let report = TrainingRunner::new(sim(2, 1, 1), wl, 3).unwrap().run().unwrap();
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
    fn zero_passes_rejected() {
        assert!(TrainingRunner::new(sim(2, 1, 1), zoo::tiny_mlp(), 0).is_err());
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
    use astra_topology::{LogicalTopology, Torus3d};

    fn sim() -> SystemSim {
        SystemSim::new(
            LogicalTopology::torus(Torus3d::new(2, 2, 2, 1, 1, 1).unwrap()),
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
            stragglers: vec![Straggler { npu: 3, slowdown: 4.0 }],
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
                stragglers: vec![Straggler { npu: 0, slowdown: 2.5 }],
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
