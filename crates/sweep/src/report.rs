//! Sweep results: the stable `BENCH_*.json` schema and run statistics.
//!
//! The serialized [`SweepReport`] is a pure function of the sweep spec —
//! it contains only simulated quantities, never wall-clock measurements,
//! so a parallel run and a sequential run of the same spec produce
//! byte-identical files. Host-side observations (elapsed time, worker
//! count, events) live in [`SweepStats`], which is reported separately
//! and never written into the bench artifact.

use astra_core::{RunReport, Simulator};
use serde::{Deserialize, Serialize};
use std::io;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Version of the `BENCH_*.json` schema (the report's `schema` field).
/// Bump on any change to the serialized shape. It is also the first field
/// of the canonical JSON that each point's `key_hash` digests.
pub const SCHEMA_VERSION: u32 = 1;

/// Which experiment shape a point ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExperimentKind {
    /// A bandwidth test (one collective).
    Collective,
    /// A training run.
    Training,
}

/// The deterministic, simulation-side metrics of one completed point.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PointMetrics {
    /// Experiment shape.
    pub kind: ExperimentKind,
    /// End-to-end simulated duration in cycles.
    pub duration_cycles: u64,
    /// Per-NPU compute cycles (training runs; 0 for collectives).
    pub compute_cycles: u64,
    /// Exposed-communication cycles (training runs; 0 for collectives).
    pub exposed_cycles: u64,
    /// Messages delivered (collectives; 0 for training runs).
    pub messages: u64,
    /// Scale-out messages dropped by the lossy transport.
    pub drops: u64,
    /// Retransmissions issued to recover those drops.
    pub retransmits: u64,
    /// Sends rerouted around hard-down links.
    pub reroutes: u64,
    /// Cycles messages spent stalled behind down-link windows.
    pub fault_stall_cycles: u64,
}

impl PointMetrics {
    /// Extracts the deterministic metrics from a run report.
    pub fn from_report(report: &RunReport) -> Self {
        let impact = report.fault_impact();
        let (kind, compute, exposed, messages) = match report {
            RunReport::Collective(r) => {
                (ExperimentKind::Collective, 0, 0, r.system.messages)
            }
            RunReport::Training(r) => (
                ExperimentKind::Training,
                r.total_compute.cycles(),
                r.total_exposed.cycles(),
                0,
            ),
        };
        PointMetrics {
            kind,
            duration_cycles: report.duration().cycles(),
            compute_cycles: compute,
            exposed_cycles: exposed,
            messages,
            drops: impact.drops,
            retransmits: impact.retransmits,
            reroutes: impact.reroutes,
            fault_stall_cycles: impact.fault_stall_cycles,
        }
    }

    /// Exposed-communication share of a training point (Figs 17/18's
    /// metric); 0 for collectives and all-compute runs.
    pub fn exposed_ratio(&self) -> f64 {
        let denom = (self.compute_cycles + self.exposed_cycles) as f64;
        if denom == 0.0 {
            0.0
        } else {
            self.exposed_cycles as f64 / denom
        }
    }
}

/// How one point ended: metrics, or a deterministic error message (a point
/// that cannot simulate — say, a degenerate topology on one axis value —
/// fails alone without sinking the sweep).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum PointOutcome {
    /// The point simulated to completion.
    Ok(PointMetrics),
    /// The point failed; the message is the typed error's rendering.
    Error {
        /// Display form of the underlying [`astra_core::CoreError`].
        message: String,
    },
}

impl PointOutcome {
    /// Runs one point, capturing any error as an outcome. Also returns the
    /// number of discrete events the simulation processed — a host-side
    /// throughput observation accumulated into [`SweepStats::events`],
    /// never into the serialized outcome.
    pub(crate) fn run(point: &crate::SweepPoint) -> (Self, u64) {
        let result = Simulator::new(point.config.clone())
            .and_then(|sim| sim.run_instrumented(point.experiment.clone()));
        match result {
            Ok((report, events)) => {
                (PointOutcome::Ok(PointMetrics::from_report(&report)), events)
            }
            Err(e) => (
                PointOutcome::Error {
                    message: e.to_string(),
                },
                0,
            ),
        }
    }

    /// The metrics, when the point succeeded.
    pub fn metrics(&self) -> Option<&PointMetrics> {
        match self {
            PointOutcome::Ok(m) => Some(m),
            PointOutcome::Error { .. } => None,
        }
    }
}

/// One grid point of a [`SweepReport`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PointReport {
    /// Position in the grid (row-major over the spec's axes).
    pub index: u64,
    /// `knob=value` summary of the point's coordinates.
    pub label: String,
    /// Hex FNV-1a digest of the point's canonical (schema, config,
    /// experiment) JSON: equal digests mark points the run simulated once.
    pub key_hash: String,
    /// Metrics or error.
    pub outcome: PointOutcome,
}

/// The machine-readable result of a sweep, serialized as
/// `BENCH_<name>.json`. See `EXPERIMENTS.md` for the documented schema.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SweepReport {
    /// Schema version ([`SCHEMA_VERSION`]).
    pub schema: u32,
    /// Sweep name.
    pub name: String,
    /// Points in grid order.
    pub points: Vec<PointReport>,
}

impl SweepReport {
    /// The stable JSON rendering (pretty-printed, trailing newline).
    pub fn to_json(&self) -> String {
        let mut s = serde_json::to_string_pretty(self).expect("report serialization");
        s.push('\n');
        s
    }

    /// Writes `BENCH_<name>.json` into `dir` (non-alphanumeric name
    /// characters become `_`), returning the path written.
    ///
    /// # Errors
    ///
    /// Fails when the file cannot be written.
    pub fn write_bench_json(&self, dir: impl AsRef<Path>) -> io::Result<PathBuf> {
        let stem: String = self
            .name
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() || c == '-' || c == '_' { c } else { '_' })
            .collect();
        let path = dir.as_ref().join(format!("BENCH_{stem}.json"));
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }

    /// The metrics of point `index`.
    ///
    /// # Panics
    ///
    /// Panics (with the point's label and error) when the point is out of
    /// range or failed — sweep consumers like the figure benches must fail
    /// loudly.
    pub fn expect_metrics(&self, index: usize) -> &PointMetrics {
        let point = self
            .points
            .get(index)
            .unwrap_or_else(|| panic!("sweep `{}` has no point {index}", self.name));
        match &point.outcome {
            PointOutcome::Ok(m) => m,
            PointOutcome::Error { message } => {
                panic!("sweep `{}` point {index} ({}): {message}", self.name, point.label)
            }
        }
    }

    /// Shorthand for `expect_metrics(i).duration_cycles`.
    pub fn duration_cycles(&self, index: usize) -> u64 {
        self.expect_metrics(index).duration_cycles
    }
}

/// Host-side observations of one engine run. Deliberately **not** part of
/// [`SweepReport`]: wall-clock time and worker count vary run to run,
/// and the bench artifact must not.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepStats {
    /// Total grid points.
    pub points: usize,
    /// Points actually simulated this run.
    pub computed: usize,
    /// Points that duplicated an earlier point of the same run and reused
    /// its in-flight result.
    pub deduped: usize,
    /// Worker threads used.
    pub workers: usize,
    /// Wall-clock time of the run.
    pub wall: Duration,
    /// Discrete events processed across the points simulated this run
    /// (in-run duplicates contribute nothing). Divide by
    /// [`wall`](SweepStats::wall) for the engine's events/sec throughput.
    pub events: u64,
}

impl SweepStats {
    /// Simulation throughput of the run in events per wall-clock second
    /// (0.0 when nothing was simulated).
    pub fn events_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.events as f64 / secs
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> SweepReport {
        SweepReport {
            schema: SCHEMA_VERSION,
            name: "unit/test".into(),
            points: vec![
                PointReport {
                    index: 0,
                    label: "size=1".into(),
                    key_hash: "00".into(),
                    outcome: PointOutcome::Ok(PointMetrics {
                        kind: ExperimentKind::Collective,
                        duration_cycles: 42,
                        compute_cycles: 0,
                        exposed_cycles: 0,
                        messages: 7,
                        drops: 0,
                        retransmits: 0,
                        reroutes: 0,
                        fault_stall_cycles: 0,
                    }),
                },
                PointReport {
                    index: 1,
                    label: "size=0".into(),
                    key_hash: "01".into(),
                    outcome: PointOutcome::Error {
                        message: "empty collective".into(),
                    },
                },
            ],
        }
    }

    #[test]
    fn json_round_trips_and_carries_schema() {
        let r = report();
        let json = r.to_json();
        assert!(json.contains("\"schema\": 1"));
        let back: SweepReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn accessors_surface_metrics() {
        let r = report();
        assert_eq!(r.duration_cycles(0), 42);
        assert_eq!(r.expect_metrics(0).messages, 7);
    }

    #[test]
    #[should_panic(expected = "empty collective")]
    fn failed_point_panics_with_its_error() {
        report().expect_metrics(1);
    }

    #[test]
    fn bench_filename_is_sanitized() {
        let dir = std::env::temp_dir();
        let path = report().write_bench_json(&dir).unwrap();
        assert!(path.ends_with("BENCH_unit_test.json"));
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn exposed_ratio_is_guarded() {
        let m = PointMetrics {
            kind: ExperimentKind::Training,
            duration_cycles: 10,
            compute_cycles: 75,
            exposed_cycles: 25,
            messages: 0,
            drops: 0,
            retransmits: 0,
            reroutes: 0,
            fault_stall_cycles: 0,
        };
        assert!((m.exposed_ratio() - 0.25).abs() < 1e-12);
    }
}
