//! Declarative sweep specifications and their expansion into experiment
//! points.

use crate::SweepError;
use astra_core::collectives::{Algorithm, CollectiveOp};
use astra_core::system::SchedulingPolicy;
use astra_core::{Experiment, FaultPlan, SimConfig, TopologyConfig};
use astra_des::hash::fnv1a_64;
use serde::{Deserialize, Serialize};

/// A point's identity. The FNV-1a digest of its canonical JSON rendering
/// — fixed field order, insertion-ordered maps — is the point's
/// [`hash`](SweepPoint::hash): the report's `key_hash` and the engine's
/// in-run dedupe key.
#[derive(Serialize)]
struct PointIdentity {
    schema: u32,
    config: SimConfig,
    experiment: Experiment,
}

/// One axis of a sweep: a knob and the values it takes. The cartesian
/// product of all axes (in order, later axes varying fastest) is the
/// experiment grid.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Axis {
    /// Collective message sizes in bytes (collective experiments only).
    MessageSizes(Vec<u64>),
    /// Collective operations (collective experiments only).
    Ops(Vec<CollectiveOp>),
    /// Logical topologies — this is how NPU-count scaling sweeps are
    /// expressed (each shape implies its NPU count).
    Topologies(Vec<TopologyConfig>),
    /// Multi-phase planner variants (Table III row 3).
    Algorithms(Vec<Algorithm>),
    /// Training iteration counts.
    Passes(Vec<u32>),
    /// Fault plans; `None` is the fault-free configuration.
    Faults(Vec<Option<FaultPlan>>),
    /// Ready-queue chunk-scheduling policies (Table III row 7), the order
    /// in which the system layer's `ReadyQueue` dispatches chunks.
    Scheduling(Vec<SchedulingPolicy>),
}

impl Axis {
    /// Number of values on this axis.
    pub fn len(&self) -> usize {
        match self {
            Axis::MessageSizes(v) => v.len(),
            Axis::Ops(v) => v.len(),
            Axis::Topologies(v) => v.len(),
            Axis::Algorithms(v) => v.len(),
            Axis::Passes(v) => v.len(),
            Axis::Faults(v) => v.len(),
            Axis::Scheduling(v) => v.len(),
        }
    }

    /// Whether the axis has no values (an invalid spec).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The axis's knob name, for error messages and labels.
    fn knob(&self) -> &'static str {
        match self {
            Axis::MessageSizes(_) => "size",
            Axis::Ops(_) => "op",
            Axis::Topologies(_) => "topo",
            Axis::Algorithms(_) => "alg",
            Axis::Passes(_) => "passes",
            Axis::Faults(_) => "faults",
            Axis::Scheduling(_) => "sched",
        }
    }

    /// Applies value `i` of this axis to a point under construction,
    /// returning the `knob=value` label fragment.
    fn apply(
        &self,
        i: usize,
        cfg: &mut SimConfig,
        exp: &mut Experiment,
    ) -> Result<String, SweepError> {
        match self {
            Axis::MessageSizes(sizes) => {
                let Experiment::Collective(req) = exp else {
                    return Err(SweepError::Spec(
                        "a message-size axis requires a collective base experiment".into(),
                    ));
                };
                req.bytes = sizes[i];
                Ok(format!("size={}", sizes[i]))
            }
            Axis::Ops(ops) => {
                let Experiment::Collective(req) = exp else {
                    return Err(SweepError::Spec(
                        "an op axis requires a collective base experiment".into(),
                    ));
                };
                req.op = ops[i];
                Ok(format!("op={}", ops[i]))
            }
            Axis::Topologies(topos) => {
                cfg.topology = topos[i].clone();
                Ok(format!("topo={}", topos[i].shape()))
            }
            Axis::Algorithms(algs) => {
                cfg.system.algorithm = algs[i];
                Ok(format!("alg={}", algs[i]))
            }
            Axis::Passes(passes) => {
                cfg.passes = passes[i];
                Ok(format!("passes={}", passes[i]))
            }
            Axis::Faults(plans) => {
                cfg.faults = plans[i].clone();
                Ok(match &plans[i] {
                    None => "faults=none".into(),
                    Some(_) => format!("faults=plan#{i}"),
                })
            }
            Axis::Scheduling(policies) => {
                cfg.system.scheduling = policies[i];
                Ok(format!("sched={}", policies[i]))
            }
        }
    }
}

/// A declarative parameter sweep: a base configuration and experiment plus
/// the axes to vary. Serializable, so sweeps can live in JSON files and be
/// run through the CLI `sweep` subcommand.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepSpec {
    /// Sweep name; the report file is `BENCH_<name>.json`.
    pub name: String,
    /// The configuration every point starts from.
    pub base: SimConfig,
    /// The experiment every point starts from; axes mutate copies of it.
    pub experiment: Experiment,
    /// Axes, outermost first (the last axis varies fastest).
    pub axes: Vec<Axis>,
}

/// Grid-size guard: a spec whose cartesian product exceeds this many
/// points is rejected as almost certainly a mistake.
pub const MAX_POINTS: usize = 1 << 20;

impl SweepSpec {
    /// A sweep of `experiment` on `base` with no axes (a single point);
    /// chain [`axis`](SweepSpec::axis) calls to grow the grid.
    pub fn new(name: impl Into<String>, base: SimConfig, experiment: Experiment) -> Self {
        SweepSpec {
            name: name.into(),
            base,
            experiment,
            axes: Vec::new(),
        }
    }

    /// Appends an axis (later axes vary fastest in the grid).
    #[must_use]
    pub fn axis(mut self, axis: Axis) -> Self {
        self.axes.push(axis);
        self
    }

    /// The grid size: the product of all axis lengths.
    pub fn num_points(&self) -> usize {
        self.axes.iter().map(Axis::len).product()
    }

    /// Expands the spec into its experiment grid, in row-major order
    /// (first axis outermost).
    ///
    /// # Errors
    ///
    /// Fails on an empty axis, a grid larger than [`MAX_POINTS`], or an
    /// axis incompatible with the base experiment (e.g. message sizes on
    /// a training run).
    pub fn expand(&self) -> Result<Vec<SweepPoint>, SweepError> {
        for axis in &self.axes {
            if axis.is_empty() {
                return Err(SweepError::Spec(format!(
                    "axis `{}` has no values",
                    axis.knob()
                )));
            }
        }
        let n = self.num_points();
        if n > MAX_POINTS {
            return Err(SweepError::Spec(format!(
                "sweep expands to {n} points (limit {MAX_POINTS})"
            )));
        }
        let mut points = Vec::with_capacity(n);
        for index in 0..n {
            // Decompose `index` into per-axis coordinates, first axis
            // outermost (most significant).
            let mut coords = vec![0usize; self.axes.len()];
            let mut rest = index;
            for (slot, axis) in coords.iter_mut().zip(&self.axes).rev() {
                *slot = rest % axis.len();
                rest /= axis.len();
            }
            let mut cfg = self.base.clone();
            let mut exp = self.experiment.clone();
            let mut fragments = Vec::with_capacity(self.axes.len());
            for (axis, &i) in self.axes.iter().zip(&coords) {
                fragments.push(axis.apply(i, &mut cfg, &mut exp)?);
            }
            let label = if fragments.is_empty() {
                exp.describe()
            } else {
                fragments.join(" ")
            };
            points.push(SweepPoint::new(index, label, cfg, exp));
        }
        Ok(points)
    }
}

/// One fully resolved experiment point of a sweep grid.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Position in the grid (row-major over the axes).
    pub index: usize,
    /// Human-readable `knob=value` summary of the point's coordinates.
    pub label: String,
    /// The point's complete configuration.
    pub config: SimConfig,
    /// The point's experiment.
    pub experiment: Experiment,
    /// FNV-1a digest of the canonical JSON of (schema, config,
    /// experiment): equal for points with the same config and experiment.
    pub hash: u64,
}

impl SweepPoint {
    fn new(index: usize, label: String, config: SimConfig, experiment: Experiment) -> Self {
        let identity = PointIdentity {
            schema: crate::SCHEMA_VERSION,
            config,
            experiment,
        };
        let key = serde_json::to_string(&identity).expect("config serialization is infallible");
        let PointIdentity {
            config, experiment, ..
        } = identity;
        SweepPoint {
            index,
            label,
            config,
            experiment,
            hash: fnv1a_64(key.as_bytes()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> SweepSpec {
        SweepSpec::new(
            "t",
            SimConfig::torus(1, 4, 1),
            Experiment::all_reduce(1 << 10),
        )
    }

    #[test]
    fn grid_is_row_major_with_last_axis_fastest() {
        let s = spec()
            .axis(Axis::Ops(vec![
                CollectiveOp::AllReduce,
                CollectiveOp::AllToAll,
            ]))
            .axis(Axis::MessageSizes(vec![1, 2, 3]));
        let pts = s.expand().unwrap();
        assert_eq!(pts.len(), 6);
        assert_eq!(pts[0].label, "op=all-reduce size=1");
        assert_eq!(pts[1].label, "op=all-reduce size=2");
        assert_eq!(pts[3].label, "op=all-to-all size=1");
        let Experiment::Collective(req) = &pts[4].experiment else {
            panic!("collective expected");
        };
        assert_eq!((req.op, req.bytes), (CollectiveOp::AllToAll, 2));
        assert!(pts.iter().enumerate().all(|(i, p)| p.index == i));
    }

    #[test]
    fn identical_coordinates_hash_identically_and_others_differ() {
        let s = spec().axis(Axis::MessageSizes(vec![7, 7, 8]));
        let pts = s.expand().unwrap();
        assert_eq!(pts[0].hash, pts[1].hash);
        assert_ne!(pts[0].hash, pts[2].hash);
    }

    #[test]
    fn size_axis_on_training_is_rejected() {
        let s = SweepSpec::new(
            "t",
            SimConfig::torus(2, 2, 1),
            Experiment::Training(astra_core::workload::zoo::tiny_mlp()),
        )
        .axis(Axis::MessageSizes(vec![1]));
        assert!(matches!(s.expand(), Err(SweepError::Spec(_))));
    }

    #[test]
    fn empty_axis_is_rejected() {
        let s = spec().axis(Axis::MessageSizes(vec![]));
        assert!(matches!(s.expand(), Err(SweepError::Spec(_))));
    }

    #[test]
    fn no_axes_is_a_single_point() {
        let pts = spec().expand().unwrap();
        assert_eq!(pts.len(), 1);
        assert_eq!(pts[0].label, "all-reduce 1024B");
    }

    #[test]
    fn scheduling_axis_applies_policy_and_labels() {
        let s = spec().axis(Axis::Scheduling(vec![
            SchedulingPolicy::Lifo,
            SchedulingPolicy::Fifo,
            SchedulingPolicy::Priority,
        ]));
        let pts = s.expand().unwrap();
        assert_eq!(pts.len(), 3);
        assert_eq!(pts[0].label, "sched=lifo");
        assert_eq!(pts[2].label, "sched=priority");
        assert_eq!(pts[1].config.system.scheduling, SchedulingPolicy::Fifo);
        // Distinct policies are distinct points.
        assert_ne!(pts[0].hash, pts[1].hash);
    }

    #[test]
    fn spec_round_trips_through_json() {
        let s = spec()
            .axis(Axis::Algorithms(vec![Algorithm::Baseline, Algorithm::Enhanced]))
            .axis(Axis::Faults(vec![None]));
        let json = serde_json::to_string(&s).unwrap();
        let back: SweepSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }
}
