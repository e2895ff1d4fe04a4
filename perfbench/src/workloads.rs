//! The benchmark's workloads, their seed variants, the pinned simulated
//! outputs, and one unit of each, run plainly or traced.
//!
//! All workloads use Table IV links and the default `SystemConfig` (LIFO).
//! The simulator has no randomness, so the seed picks one of [`VARIANTS`]
//! inputs at the same scale; variant 0 is the reference configuration.

use crate::alloc::allocations;
use crate::probe::{NetProbe, NetTotals, TimedBackend};
use crate::trace::{SpanId, Tracer};
use astra_bench::{scale_compute_power, SIZE_SWEEP};
use astra_core::compute::ComputeModel;
use astra_core::des::hash::fnv1a_64;
use astra_core::network::{AnalyticalNet, Backend, GarnetNet};
use astra_core::system::{BackendKind, CollectiveRequest, SystemSim};
use astra_core::workload::{zoo, TrainingReport, TrainingRunner, Workload as Dnn};
use astra_core::{CollectiveRunReport, Experiment, RunReport, SimConfig, Simulator};
use astra_sweep::{Axis, PointMetrics, SweepEngine, SweepRun, SweepSpec};
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Duration;

/// Number of input variants a seed selects from (`seed % VARIANTS`).
pub const VARIANTS: usize = 4;

/// ResNet-50 minibatch per variant. Data parallelism makes the gradient
/// all-reduces independent of the minibatch, so only compute delays move.
const TRAIN_MINIBATCH: [u64; VARIANTS] = [32, 31, 33, 34];

/// Garnet all-reduce size per variant: 4 MiB plus a few KiB.
const GARNET_BYTES: [u64; VARIANTS] = [
    4 << 20,
    (4 << 20) + 4096,
    (4 << 20) + 8192,
    (4 << 20) + 12288,
];

/// Added to every Fig 10 message size, per variant.
const SWEEP_SIZE_DELTA: [u64; VARIANTS] = [0, 1024, 2048, 3072];

/// Simulated outputs a unit must reproduce exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pin {
    /// Simulated duration in cycles (summed over points for the sweep).
    pub cycles: u64,
    /// Discrete events processed.
    pub events: u64,
    /// FNV-1a digest of the full report and the event count.
    pub digest: u64,
}

/// Pins per workload ([`Kind::ALL`] order) and variant.
const PINS: [[Pin; VARIANTS]; 3] = [
    [
        Pin {
            cycles: 5957408,
            events: 4524800,
            digest: 0x47025f5446033f10,
        },
        Pin {
            cycles: 5925144,
            events: 4524800,
            digest: 0xf198e32b0dfb286b,
        },
        Pin {
            cycles: 5953058,
            events: 4524800,
            digest: 0x1dd84abe8cfb3523,
        },
        Pin {
            cycles: 6005706,
            events: 4524800,
            digest: 0x1aa0668c34ad8526,
        },
    ],
    [
        Pin {
            cycles: 135552,
            events: 3343104,
            digest: 0x33e516362a07fd06,
        },
        Pin {
            cycles: 136740,
            events: 3347712,
            digest: 0x9cc32efe3f7f87b4,
        },
        Pin {
            cycles: 136758,
            events: 3350016,
            digest: 0xa7116a1a1f45edd8,
        },
        Pin {
            cycles: 136546,
            events: 3353856,
            digest: 0xe556ef5b2ba30d01,
        },
    ],
    [
        Pin {
            cycles: 12201222,
            events: 2383872,
            digest: 0xe79514ef3ef99397,
        },
        Pin {
            cycles: 12201482,
            events: 2383872,
            digest: 0x6cf1c06c69eaf5d1,
        },
        Pin {
            cycles: 12201482,
            events: 2383872,
            digest: 0xf0c10773f5b63897,
        },
        Pin {
            cycles: 12201592,
            events: 2383872,
            digest: 0x43c33600e0e049e9,
        },
    ],
];

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Calibrated ResNet-50, 2 passes, 2x8x4 torus, analytical backend.
    TrainResnet50,
    /// One 4 MiB all-reduce on a 2x2x2 torus, garnet backend.
    AllreduceGarnet,
    /// The Fig 10 grid (6 sizes x 4 shapes), cold, through `SweepEngine`.
    SweepFig10,
}

impl Kind {
    /// Every workload, in pin-table order.
    pub const ALL: [Kind; 3] = [Kind::TrainResnet50, Kind::AllreduceGarnet, Kind::SweepFig10];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::TrainResnet50 => "train_resnet50",
            Kind::AllreduceGarnet => "allreduce_garnet",
            Kind::SweepFig10 => "sweep_fig10",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// A workload at one seed variant.
#[derive(Debug, Clone, Copy)]
pub struct Bench {
    /// The workload.
    pub kind: Kind,
    /// The input variant, `seed % VARIANTS`.
    pub variant: usize,
}

/// The simulated result of one unit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// Simulated duration in cycles (summed over points for the sweep).
    pub cycles: u64,
    /// Discrete events processed.
    pub events: u64,
    /// FNV-1a digest of the full report and the event count.
    pub digest: u64,
    /// The quiescence audit, where the public API reaches the simulator
    /// after the unit (`None` where it does not).
    pub audit: Option<Result<(), String>>,
}

/// Host-side per-layer measurements of one traced unit, by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

/// A traced unit's result.
#[derive(Debug)]
pub struct Traced {
    /// The simulated result, checked against the same pin.
    pub outcome: Outcome,
    /// Host time of the unit, excluding set-up.
    pub unit: Duration,
    /// Per-layer metrics.
    pub layers: Layers,
}

/// A set-up unit, ready to run.
// Only one lives at a time, so the variants' size difference costs nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum Prepared {
    /// A training runner over a fresh simulator.
    Train(TrainingRunner),
    /// A fresh simulator and the collective to issue on it.
    Collective(SystemSim, CollectiveRequest),
    /// A sweep spec whose points were all validated and built once.
    Sweep(SweepSpec),
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn train_config() -> SimConfig {
    SimConfig::torus(2, 8, 4)
}

/// The calibrated ResNet-50 of `astra_bench` at the variant's minibatch.
fn train_workload(variant: usize) -> Dnn {
    let model = ComputeModel::tpu_like_256();
    scale_compute_power(zoo::resnet50(&model, TRAIN_MINIBATCH[variant]), 14, 1)
}

fn garnet_config() -> SimConfig {
    SimConfig::torus(2, 2, 2).with_backend(BackendKind::Garnet)
}

/// The Fig 10 grid of `crates/bench/benches/fig10_torus_scaling.rs`:
/// all-reduce, symmetric links, 6 sizes x {1x64x1, 1x8x8, 2x8x4, 4x4x4}.
fn sweep_spec(variant: usize) -> SweepSpec {
    let shape = |m, n, k, lr| {
        SimConfig::torus(m, n, k)
            .local_rings(lr)
            .horizontal_rings(2)
            .vertical_rings(2)
            .topology
    };
    let topologies = vec![
        SimConfig::torus(1, 64, 1)
            .local_rings(1)
            .horizontal_rings(2)
            .vertical_rings(1)
            .topology,
        shape(1, 8, 8, 1),
        shape(2, 8, 4, 4),
        shape(4, 4, 4, 4),
    ];
    let sizes = SIZE_SWEEP.map(|s| s + SWEEP_SIZE_DELTA[variant]).to_vec();
    SweepSpec::new(
        "fig10_torus_scaling",
        SimConfig::torus(1, 64, 1).symmetric_links(),
        Experiment::all_reduce(1 << 20),
    )
    .axis(Axis::MessageSizes(sizes))
    .axis(Axis::Topologies(topologies))
}

fn digest(report_json: &str, events: u64) -> u64 {
    fnv1a_64(format!("{report_json}\nevents={events}").as_bytes())
}

impl Outcome {
    fn collective(report: &CollectiveRunReport, events: u64, audit: Result<(), String>) -> Self {
        let json = serde_json::to_string(report).expect("reports serialise");
        Outcome {
            cycles: report.duration.cycles(),
            events,
            digest: digest(&json, events),
            audit: Some(audit),
        }
    }

    fn training(report: &TrainingReport, events: u64, audit: Option<Result<(), String>>) -> Self {
        let json = serde_json::to_string(report).expect("reports serialise");
        Outcome {
            cycles: report.total_time.cycles(),
            events,
            digest: digest(&json, events),
            audit,
        }
    }

    fn sweep(run: &SweepRun) -> Self {
        let events = run.stats.events;
        Outcome {
            cycles: (0..run.report.points.len())
                .map(|i| run.report.duration_cycles(i))
                .sum(),
            events,
            digest: digest(&run.report.to_json(), events),
            audit: None,
        }
    }
}

/// Runs `f` and counts the allocations it makes (on every thread), so that
/// the tracer's own bookkeeping stays outside the count.
pub fn counting_allocs<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = allocations();
    let out = f();
    (out, allocations() - before)
}

/// Collects the report of a completed collective the way `Simulator::run`
/// does.
fn finish_collective(
    sim: &SystemSim,
    id: astra_core::system::CollId,
) -> Result<CollectiveRunReport, String> {
    let coll = sim
        .report(id)
        .cloned()
        .ok_or_else(|| format!("collective {id} never completed"))?;
    Ok(CollectiveRunReport {
        duration: coll.duration(),
        coll,
        system: sim.stats().clone(),
        network: sim.net_stats().clone(),
    })
}

impl Bench {
    /// The workload at the variant `seed` selects.
    pub fn new(kind: Kind, seed: u64) -> Self {
        Bench {
            kind,
            variant: (seed % VARIANTS as u64) as usize,
        }
    }

    /// The pinned outputs of this workload and variant.
    fn pin(&self) -> Pin {
        PINS[self.kind as usize][self.variant]
    }

    /// Fails unless `outcome` matches the pin and passed its audit.
    pub fn check(&self, outcome: &Outcome) -> Result<(), String> {
        if let Some(Err(e)) = &outcome.audit {
            return Err(format!("quiescence audit failed: {e}"));
        }
        let pin = self.pin();
        let got = Pin {
            cycles: outcome.cycles,
            events: outcome.events,
            digest: outcome.digest,
        };
        if got != pin {
            return Err(format!(
                "simulated output {got:?} differs from the pin {pin:?}"
            ));
        }
        Ok(())
    }

    /// Everything before the first event: config validation, topology
    /// build, workload generation and simulator construction. For the
    /// sweep that is the grid expansion plus every point's simulator.
    ///
    /// # Errors
    ///
    /// Any set-up error, as text.
    pub fn setup(&self) -> Result<Prepared, String> {
        match self.kind {
            Kind::TrainResnet50 => {
                let workload = train_workload(self.variant);
                let cfg = train_config();
                let sim = Simulator::new(cfg).map_err(err)?;
                let system = sim.system_sim().map_err(err)?;
                let runner =
                    TrainingRunner::new(system, workload, sim.config().passes).map_err(err)?;
                Ok(Prepared::Train(runner))
            }
            Kind::AllreduceGarnet => {
                let system = Simulator::new(garnet_config())
                    .and_then(|s| s.system_sim())
                    .map_err(err)?;
                let req = CollectiveRequest::all_reduce(GARNET_BYTES[self.variant]);
                Ok(Prepared::Collective(system, req))
            }
            Kind::SweepFig10 => {
                let spec = sweep_spec(self.variant);
                for point in spec.expand().map_err(err)? {
                    Simulator::new(point.config)
                        .and_then(|s| s.system_sim())
                        .map_err(err)?;
                }
                Ok(Prepared::Sweep(spec))
            }
        }
    }

    /// One traced unit: set-up split by crate, the unit itself with the
    /// network backend behind [`TimedBackend`], and spans under `parent`.
    ///
    /// # Errors
    ///
    /// Any set-up or simulation error, or a traced sweep point whose result
    /// differs from the same point run untraced.
    pub fn run_traced(&self, tracer: &mut Tracer, parent: SpanId) -> Result<Traced, String> {
        match self.kind {
            Kind::TrainResnet50 => self.traced_train(tracer, parent),
            Kind::AllreduceGarnet => {
                let req = CollectiveRequest::all_reduce(GARNET_BYTES[self.variant]);
                let t = traced_collective(&garnet_config(), req, tracer, parent)?;
                Ok(Traced {
                    unit: t.split.issue + t.split.steps,
                    layers: t.split.layers(),
                    outcome: Outcome::collective(&t.report, t.split.events, t.audit),
                })
            }
            Kind::SweepFig10 => self.traced_sweep(tracer, parent),
        }
    }

    fn traced_train(&self, tracer: &mut Tracer, parent: SpanId) -> Result<Traced, String> {
        let p = Some(parent);
        let (workload, gen) =
            tracer.time("compute.workload_gen", p, || train_workload(self.variant));
        let cfg = train_config();
        let (sim, sim_new) = tracer.time("core.sim_new", p, || Simulator::new(cfg.clone()));
        sim.map_err(err)?;
        let (system, probe, setup) = traced_system(&cfg, tracer, parent)?;
        let callbacks = (system.topology().num_npus() * workload.layers.len() * 3) as u64
            * u64::from(cfg.passes);
        let collectives = u64::from(cfg.passes)
            * workload
                .layers
                .iter()
                .map(|l| [l.fwd_comm, l.ig_comm, l.wg_comm].iter().flatten().count() as u64)
                .sum::<u64>();
        let (runner, runner_new) = tracer.time("workload.runner_new", p, || {
            TrainingRunner::new(system, workload, cfg.passes)
        });
        let runner = runner.map_err(err)?;
        let ((result, allocs), run) = tracer.time("workload.run", p, || {
            counting_allocs(|| runner.run_instrumented())
        });
        let (report, events) = result.map_err(err)?;
        // The runner dropped the simulator, and with it the timed backend.
        let net = probe.totals();
        let outcome = Outcome::training(&report, events, probe.audit());
        let mut layers = common_layers(&net, run, events, allocs, sim_new, setup);
        layers.insert("compute.workload_gen_s", gen.as_secs_f64());
        layers.insert("workload.runner_new_s", runner_new.as_secs_f64());
        layers.insert("workload.run_s", run.as_secs_f64());
        layers.insert(
            "workload.self_plus_system_s",
            run.saturating_sub(net.time()).as_secs_f64(),
        );
        layers.insert("workload.callbacks", callbacks as f64);
        layers.insert("workload.collectives", collectives as f64);
        Ok(Traced {
            outcome,
            unit: run,
            layers,
        })
    }

    fn traced_sweep(&self, tracer: &mut Tracer, parent: SpanId) -> Result<Traced, String> {
        let p = Some(parent);
        let spec = sweep_spec(self.variant);
        let engine = SweepEngine::new(spec.clone());
        let (run, run_s) = tracer.time("sweep.run", p, || engine.run());
        let run = run.map_err(err)?;
        let points = spec.expand().map_err(err)?;

        // Every point once more, one at a time, exactly as the engine runs it.
        let serial = tracer.open("sweep.points_serial", p);
        let mut point_times = Vec::with_capacity(points.len());
        for point in &points {
            let id = tracer.open(format!("point {}", point.label), Some(serial));
            let result =
                Simulator::new(point.config.clone()).and_then(|s| s.run(point.experiment.clone()));
            point_times.push(tracer.close(id));
            result.map_err(err)?;
        }
        let serial_s = tracer.close(serial);

        // And once more behind the timing backend, for the layer split.
        let traced = tracer.open("sweep.points_traced", p);
        let mut sum = HostSplit::default();
        let mut traced_s = Duration::ZERO;
        for (i, point) in points.iter().enumerate() {
            let Experiment::Collective(req) = &point.experiment else {
                return Err(format!("sweep point {} is not a collective", point.label));
            };
            let id = tracer.open(format!("traced point {}", point.label), Some(traced));
            let t = traced_collective(&point.config, req.clone(), tracer, id)?;
            traced_s += tracer.close(id);
            t.audit.map_err(|e| format!("{}: {e}", point.label))?;
            let metrics = PointMetrics::from_report(&RunReport::Collective(Box::new(t.report)));
            if run.report.points[i].outcome.metrics() != Some(&metrics) {
                return Err(format!(
                    "traced point {} differs from the sweep's",
                    point.label
                ));
            }
            sum.add(&t.split);
        }
        tracer.close(traced);

        point_times.sort();
        let points_serial: Duration = point_times.iter().sum();
        let workers = run.stats.workers as f64;
        let outcome = Outcome::sweep(&run);
        let mut layers = sum.layers();
        layers.insert("sweep.run_s", run_s.as_secs_f64());
        layers.insert("sweep.points_serial_s", points_serial.as_secs_f64());
        layers.insert(
            "sweep.point_max_s",
            point_times[point_times.len() - 1].as_secs_f64(),
        );
        layers.insert(
            "sweep.point_median_s",
            point_times[point_times.len() / 2].as_secs_f64(),
        );
        layers.insert(
            "sweep.parallel_eff",
            points_serial.as_secs_f64() / (workers * run_s.as_secs_f64()),
        );
        layers.insert("sweep.workers", workers);
        layers.insert(
            "trace_overhead_frac",
            traced_s.as_secs_f64() / serial_s.as_secs_f64() - 1.0,
        );
        Ok(Traced {
            outcome,
            unit: run_s,
            layers,
        })
    }
}

impl Prepared {
    /// Runs the unit to completion.
    ///
    /// # Errors
    ///
    /// Any simulation error, as text.
    pub fn run(self) -> Result<Outcome, String> {
        match self {
            Prepared::Train(runner) => {
                let (report, events) = runner.run_instrumented().map_err(err)?;
                Ok(Outcome::training(&report, events, None))
            }
            Prepared::Collective(mut sim, req) => {
                let id = sim.issue_collective(req).map_err(err)?;
                sim.run_until_idle().map_err(err)?;
                let report = finish_collective(&sim, id)?;
                Ok(Outcome::collective(
                    &report,
                    sim.events_processed(),
                    sim.audit_quiescent(),
                ))
            }
            Prepared::Sweep(spec) => {
                let run = SweepEngine::new(spec).run().map_err(err)?;
                if run.stats.computed != run.stats.points {
                    return Err(format!(
                        "cold sweep computed {} of {} points",
                        run.stats.computed, run.stats.points
                    ));
                }
                Ok(Outcome::sweep(&run))
            }
        }
    }
}

/// Set-up times of the traced simulator construction.
#[derive(Debug, Default, Clone, Copy)]
struct SetupSplit {
    topology_build: Duration,
    network_construct: Duration,
    system_construct: Duration,
}

/// Builds what `Simulator::system_sim` builds for a plain configuration,
/// step by step, with the backend behind a [`TimedBackend`].
fn traced_system(
    cfg: &SimConfig,
    tracer: &mut Tracer,
    parent: SpanId,
) -> Result<(SystemSim, Rc<NetProbe>, SetupSplit), String> {
    if cfg.overlay.is_some() || cfg.faults.is_some() {
        return Err("the traced set-up covers configurations without overlay or faults".into());
    }
    let p = Some(parent);
    let (topo, topology_build) = tracer.time("topology.build", p, || cfg.topology.build());
    let topo = topo.map_err(err)?;
    let (inner, network_construct) = tracer.time("network.construct", p, || -> Box<dyn Backend> {
        match cfg.backend {
            BackendKind::Analytical => Box::new(AnalyticalNet::new(&topo, &cfg.network)),
            BackendKind::Garnet => Box::new(GarnetNet::new(&topo, &cfg.network)),
        }
    });
    let (backend, probe) = TimedBackend::new(inner);
    let (sim, system_construct) = tracer.time("system.construct", p, || {
        SystemSim::with_backend(topo, cfg.system, &cfg.network, Box::new(backend))
    });
    let split = SetupSplit {
        topology_build,
        network_construct,
        system_construct,
    };
    Ok((sim, probe, split))
}

/// The per-layer metrics every workload reports.
fn common_layers(
    net: &NetTotals,
    unit: Duration,
    events: u64,
    allocs: u64,
    sim_new: Duration,
    setup: SetupSplit,
) -> Layers {
    BTreeMap::from([
        ("network.send_s", net.send.as_secs_f64()),
        ("network.sends", net.sends as f64),
        ("network.handle_s", net.handle.as_secs_f64()),
        ("network.handles", net.handles as f64),
        ("network.arrivals", net.arrivals as f64),
        ("network.allocs", net.allocs as f64),
        ("network.delivered", net.delivered as f64),
        (
            "system.self_s",
            unit.saturating_sub(net.time()).as_secs_f64(),
        ),
        ("system.events", events.saturating_sub(net.handles) as f64),
        ("system.allocs", allocs.saturating_sub(net.allocs) as f64),
        ("core.sim_new_s", sim_new.as_secs_f64()),
        ("topology.build_s", setup.topology_build.as_secs_f64()),
        ("network.construct_s", setup.network_construct.as_secs_f64()),
        ("system.construct_s", setup.system_construct.as_secs_f64()),
    ])
}

/// Host-side measurements of traced collective simulations (one, or the
/// sum over a sweep's points).
#[derive(Debug, Default)]
struct HostSplit {
    events: u64,
    allocs: u64,
    net: NetTotals,
    sim_new: Duration,
    setup: SetupSplit,
    issue: Duration,
    steps: Duration,
    messages: u64,
    collectives: u64,
}

impl HostSplit {
    fn layers(&self) -> Layers {
        let mut layers = common_layers(
            &self.net,
            self.issue + self.steps,
            self.events,
            self.allocs,
            self.sim_new,
            self.setup,
        );
        layers.insert("system.issue_s", self.issue.as_secs_f64());
        layers.insert("system.messages", self.messages as f64);
        layers.insert("system.collectives", self.collectives as f64);
        layers
    }

    fn add(&mut self, t: &HostSplit) {
        self.events += t.events;
        self.allocs += t.allocs;
        let (a, b) = (&mut self.net, &t.net);
        a.send += b.send;
        a.sends += b.sends;
        a.handle += b.handle;
        a.handles += b.handles;
        a.arrivals += b.arrivals;
        a.allocs += b.allocs;
        a.delivered += b.delivered;
        self.sim_new += t.sim_new;
        self.setup.topology_build += t.setup.topology_build;
        self.setup.network_construct += t.setup.network_construct;
        self.setup.system_construct += t.setup.system_construct;
        self.issue += t.issue;
        self.steps += t.steps;
        self.messages += t.messages;
        self.collectives += t.collectives;
    }
}

/// One traced collective simulation.
#[derive(Debug)]
struct CollTrace {
    report: CollectiveRunReport,
    audit: Result<(), String>,
    split: HostSplit,
}

/// Runs `req` on `cfg` the way `Simulator::run` does, with set-up split by
/// crate and the backend behind a [`TimedBackend`].
fn traced_collective(
    cfg: &SimConfig,
    req: CollectiveRequest,
    tracer: &mut Tracer,
    parent: SpanId,
) -> Result<CollTrace, String> {
    let p = Some(parent);
    let (sim, sim_new) = tracer.time("core.sim_new", p, || Simulator::new(cfg.clone()));
    sim.map_err(err)?;
    let (mut sim, probe, setup) = traced_system(cfg, tracer, parent)?;
    let ((id, issue_allocs), issue) = tracer.time("system.issue", p, || {
        counting_allocs(|| sim.issue_collective(req))
    });
    let id = id.map_err(err)?;
    let ((idle, step_allocs), steps) = tracer.time("system.steps", p, || {
        counting_allocs(|| sim.run_until_idle())
    });
    idle.map_err(err)?;
    let allocs = issue_allocs + step_allocs;
    let report = finish_collective(&sim, id)?;
    let events = sim.events_processed();
    let audit = sim.audit_quiescent();
    drop(sim);
    let split = HostSplit {
        events,
        allocs,
        net: probe.totals(),
        sim_new,
        setup,
        issue,
        steps,
        messages: report.system.messages,
        collectives: report.system.collectives_completed,
    };
    Ok(CollTrace {
        report,
        audit,
        split,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::thread_allocations;

    fn small(backend: BackendKind) -> SimConfig {
        SimConfig::torus(2, 2, 1).with_backend(backend)
    }

    #[test]
    fn timed_backend_is_transparent_for_collectives() {
        for backend in [BackendKind::Analytical, BackendKind::Garnet] {
            let cfg = small(backend);
            let req = CollectiveRequest::all_reduce(64 << 10);
            let (plain, events) = Simulator::new(cfg.clone())
                .unwrap()
                .run_instrumented(Experiment::Collective(req.clone()))
                .unwrap();
            let mut tracer = Tracer::default();
            let root = tracer.open("test", None);
            let t = traced_collective(&cfg, req, &mut tracer, root).unwrap();
            assert_eq!(t.split.events, events, "{backend:?}");
            assert_eq!(
                t.split.net.delivered, t.report.network.delivered,
                "{backend:?}"
            );
            assert_eq!(
                t.split.net.arrivals, t.report.network.delivered,
                "{backend:?}"
            );
            assert_eq!(
                RunReport::Collective(Box::new(t.report)),
                plain,
                "{backend:?}"
            );
            t.audit.unwrap();
        }
    }

    #[test]
    fn timed_backend_is_transparent_for_training() {
        // Garnet training on wider shapes fails in the simulator itself
        // (out-of-order steps) with or without the wrapper, so garnet runs
        // on a 1x2x1 ring here.
        let garnet = SimConfig::torus(1, 2, 1).with_backend(BackendKind::Garnet);
        for cfg in [small(BackendKind::Analytical), garnet] {
            let backend = cfg.backend;
            let (plain, events) = Simulator::new(cfg.clone())
                .unwrap()
                .run_instrumented(Experiment::Training(zoo::tiny_mlp()))
                .unwrap();
            let mut tracer = Tracer::default();
            let root = tracer.open("test", None);
            let (system, probe, _) = traced_system(&cfg, &mut tracer, root).unwrap();
            let (report, traced_events) = TrainingRunner::new(system, zoo::tiny_mlp(), cfg.passes)
                .unwrap()
                .run_instrumented()
                .unwrap();
            assert_eq!(traced_events, events, "{backend:?}");
            assert_eq!(RunReport::Training(report), plain, "{backend:?}");
            assert!(probe.totals().handles > 0 && probe.totals().sends > 0);
            assert_eq!(
                probe.audit(),
                Some(Ok(())),
                "audited when the runner dropped it"
            );
        }
    }

    #[test]
    fn allocations_per_event_repeat_exactly() {
        let run = || {
            let sim = Simulator::new(small(BackendKind::Garnet)).unwrap();
            let prepared = Prepared::Collective(
                sim.system_sim().unwrap(),
                CollectiveRequest::all_reduce(64 << 10),
            );
            let before = thread_allocations();
            let outcome = prepared.run().unwrap();
            (thread_allocations() - before, outcome.events)
        };
        let (allocs, events) = run();
        assert!(allocs > 0 && events > 0);
        assert_eq!(run(), (allocs, events));
    }

    #[test]
    fn variant_zero_is_the_reference_configuration() {
        assert_eq!(train_workload(0), astra_bench::calibrated_resnet50());
        assert_eq!(GARNET_BYTES[0], 4 << 20);
        assert_eq!(sweep_spec(0).num_points(), 24);
        for kind in Kind::ALL {
            assert_eq!(Kind::parse(kind.name()), Some(kind));
        }
    }
}
