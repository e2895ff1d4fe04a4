//! The end-to-end simulator facade.

use crate::{CoreError, SimConfig};
use astra_des::Time;
use astra_network::NetStats;
use astra_system::{CollId, CollReport, CollectiveRequest, SystemSim, SystemStats};
use astra_topology::{LogicalTopology, Mapping};
use astra_workload::{TrainingReport, TrainingRunner, Workload};
use serde::{Deserialize, Serialize};

/// Result of a bandwidth test: one collective, issue to last-NPU finish.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CollectiveRunReport {
    /// Issue-to-completion wall time.
    pub duration: Time,
    /// The system layer's per-collective report (phase breakdowns).
    pub coll: CollReport,
    /// Aggregate system stats of the run.
    pub system: SystemStats,
    /// Network backend stats of the run.
    pub network: NetStats,
}

impl CollectiveRunReport {
    /// The report of collective `id` on a simulation that has completed it
    /// (see [`SystemSim::complete_collective`]), with the run's aggregate
    /// system and network stats.
    ///
    /// # Errors
    ///
    /// [`CoreError::MissingReport`] if `sim` has no report for `id`.
    pub fn from_sim(sim: &SystemSim, id: CollId) -> Result<Self, CoreError> {
        let coll = sim.report(id).ok_or(CoreError::MissingReport(id.0))?.clone();
        Ok(CollectiveRunReport {
            duration: coll.duration(),
            coll,
            system: sim.stats().clone(),
            network: sim.net_stats().clone(),
        })
    }

    /// The run's fault-recovery counters (all zero without a fault plan).
    pub fn fault_impact(&self) -> astra_workload::FaultImpact {
        astra_workload::FaultImpact::from_stats(&self.system, &self.network)
    }
}

/// One experiment: the paper's two evaluation shapes behind a single entry
/// point ([`Simulator::run`]). Bandwidth tests drive Figs 9–12, training
/// runs drive Figs 13–18.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Experiment {
    /// Issue one collective and measure issue-to-last-NPU completion.
    Collective(CollectiveRequest),
    /// Simulate full forward/backward training iterations of a DNN.
    Training(Workload),
}

impl Experiment {
    /// An all-reduce bandwidth test — the most common experiment.
    pub fn all_reduce(bytes: u64) -> Self {
        Experiment::Collective(CollectiveRequest::all_reduce(bytes))
    }

    /// A one-line description ("all-reduce 1048576B" / "training resnet50")
    /// used in sweep-point labels and log lines.
    pub fn describe(&self) -> String {
        match self {
            Experiment::Collective(req) => format!("{} {}B", req.op, req.bytes),
            Experiment::Training(wl) => format!("training {}", wl.name),
        }
    }
}

/// The result of [`Simulator::run`]: a tagged union of the two experiment
/// report shapes with shared accessors for the cross-cutting metrics
/// (duration, fault impact).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RunReport {
    /// A bandwidth test's report (boxed: it is several times larger than
    /// a training report).
    Collective(Box<CollectiveRunReport>),
    /// A training run's report.
    Training(TrainingReport),
}

impl RunReport {
    /// End-to-end simulated duration of the experiment.
    pub fn duration(&self) -> Time {
        match self {
            RunReport::Collective(r) => r.duration,
            RunReport::Training(r) => r.total_time,
        }
    }

    /// Fault-recovery counters of the run (all zero without a fault plan).
    pub fn fault_impact(&self) -> astra_workload::FaultImpact {
        match self {
            RunReport::Collective(r) => r.fault_impact(),
            RunReport::Training(r) => r.faults,
        }
    }
}

/// The end-to-end simulator: a validated configuration plus experiment
/// drivers. See the [crate docs](crate) for an example.
#[derive(Debug, Clone, PartialEq)]
pub struct Simulator {
    cfg: SimConfig,
}

impl Simulator {
    /// Validates `cfg` and builds the simulator.
    ///
    /// # Errors
    ///
    /// Fails if the topology, the overlay's physical fabric or its
    /// permutation cannot be built, the overlay's NPU counts differ, the
    /// network or system parameters are out of range, or the fault plan
    /// is internally inconsistent. (Fault
    /// node indices are bounds-checked against the fabric when the plan is
    /// installed into a concrete simulation.)
    pub fn new(cfg: SimConfig) -> Result<Self, CoreError> {
        let topo = cfg.topology.build()?; // validate eagerly
        build_overlay(&cfg, &topo)?;
        cfg.network.validate()?;
        cfg.system.validate()?;
        if let Some(plan) = &cfg.faults {
            plan.validate().map_err(astra_system::SystemError::from)?;
        }
        Ok(Simulator { cfg })
    }

    /// The configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Builds a fresh system-layer simulation (one experiment = one
    /// instance; they are cheap).
    pub fn system_sim(&self) -> Result<SystemSim, CoreError> {
        let topo = self.cfg.topology.build()?;
        let mut sim = match build_overlay(&self.cfg, &topo)? {
            None => SystemSim::new(
                topo,
                self.cfg.system,
                &self.cfg.network,
                self.cfg.backend,
            ),
            Some((physical, mapping)) => SystemSim::with_overlay(
                topo,
                &physical,
                mapping,
                self.cfg.system,
                &self.cfg.network,
                self.cfg.backend,
            )
            .map_err(CoreError::System)?,
        };
        if let Some(plan) = &self.cfg.faults {
            sim.install_faults(plan).map_err(CoreError::System)?;
        }
        Ok(sim)
    }

    /// Runs one [`Experiment`] — the single entry point the sweep engine
    /// and the CLI share. Bandwidth tests issue one collective and simulate
    /// until every NPU completes it; training runs simulate
    /// `self.config().passes` iterations of the workload. Either way the
    /// drained simulation must pass its quiescence audit
    /// ([`SystemSim::audit_quiescent`]).
    ///
    /// # Errors
    ///
    /// Fails on empty collective requests, malformed workloads, or
    /// system-layer errors, including a run that drains before completing
    /// or leaves state behind.
    pub fn run(&self, experiment: Experiment) -> Result<RunReport, CoreError> {
        self.run_instrumented(experiment).map(|(report, _)| report)
    }

    /// Like [`run`](Simulator::run), but also returns the number of
    /// discrete events the simulation processed. The event count is a
    /// host-side throughput observation (events per wall-clock second is
    /// the sweep engine's perf metric); it is deliberately **not** part of
    /// [`RunReport`], which must stay a pure function of the configuration.
    ///
    /// # Errors
    ///
    /// As [`run`](Simulator::run).
    pub fn run_instrumented(
        &self,
        experiment: Experiment,
    ) -> Result<(RunReport, u64), CoreError> {
        match experiment {
            Experiment::Collective(req) => {
                let mut sim = self.system_sim()?;
                let id = sim.complete_collective(req)?;
                let report = CollectiveRunReport::from_sim(&sim, id)?;
                Ok((RunReport::Collective(Box::new(report)), sim.events_processed()))
            }
            Experiment::Training(workload) => {
                let sim = self.system_sim()?;
                let runner = TrainingRunner::new(sim, workload, self.cfg.passes)
                    .map_err(CoreError::System)?;
                let (report, events) =
                    runner.run_instrumented().map_err(CoreError::System)?;
                Ok((RunReport::Training(report), events))
            }
        }
    }

    /// Runs a bandwidth test. Thin wrapper over
    /// [`run`](Simulator::run)`(Experiment::Collective(req))`.
    ///
    /// # Errors
    ///
    /// Fails if the request is empty or no fabric dimension matches it.
    pub fn run_collective(
        &self,
        req: CollectiveRequest,
    ) -> Result<CollectiveRunReport, CoreError> {
        match self.run(Experiment::Collective(req))? {
            RunReport::Collective(r) => Ok(*r),
            RunReport::Training(_) => unreachable!("collective experiment"),
        }
    }

    /// Runs `self.config().passes` training iterations of `workload`. Thin
    /// wrapper over [`run`](Simulator::run)`(Experiment::Training(..))`.
    ///
    /// # Errors
    ///
    /// Fails on malformed workloads or system-layer errors.
    pub fn run_training(&self, workload: Workload) -> Result<TrainingReport, CoreError> {
        match self.run(Experiment::Training(workload))? {
            RunReport::Training(r) => Ok(r),
            RunReport::Collective(_) => unreachable!("training experiment"),
        }
    }
}

/// Builds `cfg`'s overlay, if any: its physical fabric and the mapping of
/// `topo`'s logical NPUs onto it (the identity without a permutation),
/// checked to cover exactly the NPUs of both.
fn build_overlay(
    cfg: &SimConfig,
    topo: &LogicalTopology,
) -> Result<Option<(LogicalTopology, Mapping)>, CoreError> {
    let Some(overlay) = &cfg.overlay else {
        return Ok(None);
    };
    let physical = overlay.physical.build()?;
    let mapping = match &overlay.permutation {
        None => Mapping::identity(topo.num_npus()),
        Some(perm) => Mapping::from_permutation(perm.clone())?,
    };
    SystemSim::check_overlay(topo, &physical, &mapping)?;
    Ok(Some((physical, mapping)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use astra_workload::zoo;

    #[test]
    fn bandwidth_test_on_paper_1d_topologies() {
        // Fig 9's two fabrics at one message size; torus should win the
        // all-reduce at large sizes (more usable links: 8 vs 7). Fig 9 gives
        // each NAM 8 links: 4 per ring neighbor (4 bidirectional rings) on
        // the torus, one per global switch (7 switches) on the alltoall.
        let msg = 1 << 22;
        let torus = Simulator::new(SimConfig::torus(1, 8, 1).horizontal_rings(4)).unwrap();
        let a2a = Simulator::new(SimConfig::alltoall(1, 8, 7)).unwrap();
        let t_torus = torus
            .run_collective(CollectiveRequest::all_reduce(msg))
            .unwrap();
        let t_a2a = a2a
            .run_collective(CollectiveRequest::all_reduce(msg))
            .unwrap();
        assert!(
            t_torus.duration < t_a2a.duration,
            "torus {} vs alltoall {}",
            t_torus.duration,
            t_a2a.duration
        );
        // And the alltoall topology should win all-to-all (direct delivery
        // vs multi-hop ring relays).
        let torus_a2a = torus
            .run_collective(CollectiveRequest::all_to_all(msg))
            .unwrap();
        let a2a_a2a = a2a
            .run_collective(CollectiveRequest::all_to_all(msg))
            .unwrap();
        assert!(
            a2a_a2a.duration < torus_a2a.duration,
            "alltoall {} vs torus {}",
            a2a_a2a.duration,
            torus_a2a.duration
        );
    }

    #[test]
    fn training_run_produces_layer_reports() {
        let sim = Simulator::new(SimConfig::torus(2, 2, 1)).unwrap();
        let report = sim.run_training(zoo::tiny_mlp()).unwrap();
        assert_eq!(report.layers.len(), 3);
        assert_eq!(report.passes, 2);
        assert!(report.total_time > Time::ZERO);
    }

    #[test]
    fn invalid_workload_rejected() {
        let sim = Simulator::new(SimConfig::torus(2, 2, 1)).unwrap();
        let empty = Workload {
            name: "none".into(),
            parallelism: astra_workload::Parallelism::Data,
            layers: vec![],
        };
        let err = sim.run_training(empty).unwrap_err();
        assert!(matches!(
            err,
            CoreError::System(astra_system::SystemError::InvalidWorkload { .. })
        ));
        assert!(err.to_string().starts_with("system layer error: invalid workload: "));
    }

    #[test]
    fn unified_run_matches_dedicated_entry_points() {
        let sim = Simulator::new(SimConfig::torus(1, 4, 1)).unwrap();
        let via_run = sim.run(Experiment::all_reduce(1 << 16)).unwrap();
        let via_old = sim
            .run_collective(CollectiveRequest::all_reduce(1 << 16))
            .unwrap();
        assert_eq!(via_run.duration(), via_old.duration);
        match &via_run {
            RunReport::Collective(r) => assert_eq!(**r, via_old),
            RunReport::Training(_) => panic!("collective experiment gave a training report"),
        }
        assert!(via_run.fault_impact().is_clean());

        let sim = Simulator::new(SimConfig::torus(2, 2, 1)).unwrap();
        let via_run = sim.run(Experiment::Training(zoo::tiny_mlp())).unwrap();
        let via_old = sim.run_training(zoo::tiny_mlp()).unwrap();
        assert_eq!(via_run.duration(), via_old.total_time);
        match &via_run {
            RunReport::Training(r) => assert_eq!(*r, via_old),
            RunReport::Collective(_) => panic!("training experiment gave a collective report"),
        }
    }

    #[test]
    fn reports_serialize_to_json() {
        let sim = Simulator::new(SimConfig::torus(1, 4, 1)).unwrap();
        let out = sim
            .run_collective(CollectiveRequest::all_reduce(1 << 16))
            .unwrap();
        let json = serde_json::to_string(&out).unwrap();
        assert!(json.contains("duration"));
    }
}
