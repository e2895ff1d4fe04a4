//! The parallel sweep executor.
//!
//! Points are independent seeded simulations, so the engine parallelizes
//! freely: a hand-rolled pool of scoped `std::thread` workers pulls point
//! indices from a shared injector queue and writes outcomes into
//! per-point slots. Because a point's outcome is a pure function of its
//! (config, experiment) key, the assembled report is identical for any
//! worker count — parallel runs are bit-identical to sequential ones.

use crate::report::{PointOutcome, PointReport, SweepReport, SweepStats};
use crate::{SweepError, SweepSpec};
use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::Instant;

/// A configured sweep execution: spec + worker count.
#[derive(Debug)]
pub struct SweepEngine {
    spec: SweepSpec,
    workers: usize,
}

/// The result of [`SweepEngine::run`]: the deterministic report plus the
/// host-side run statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRun {
    /// The deterministic, serializable report.
    pub report: SweepReport,
    /// Host-side observations (never serialized into the report).
    pub stats: SweepStats,
}

impl SweepEngine {
    /// An engine for `spec` with one worker per available core.
    pub fn new(spec: SweepSpec) -> Self {
        let workers = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        SweepEngine { spec, workers }
    }

    /// Sets the worker-thread count (clamped to at least 1).
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// The spec this engine will run.
    pub fn spec(&self) -> &SweepSpec {
        &self.spec
    }

    /// Expands the spec and executes every point.
    ///
    /// Within one run, points with identical (config, experiment) are
    /// simulated once and share the result. Per-point simulation failures
    /// are recorded as point outcomes, not engine errors.
    ///
    /// # Errors
    ///
    /// Fails on an invalid spec.
    pub fn run(&self) -> Result<SweepRun, SweepError> {
        let started = Instant::now();
        let points = self.spec.expand()?;
        let n = points.len();
        let mut outcomes: Vec<Option<PointOutcome>> = vec![None; n];

        // Simulate each distinct point once.
        let mut first_of_key: HashMap<u64, usize> = HashMap::new();
        let mut duplicates: Vec<(usize, usize)> = Vec::new(); // (dup, first)
        let mut pending: Vec<usize> = Vec::new();
        for point in &points {
            match first_of_key.entry(point.hash) {
                std::collections::hash_map::Entry::Occupied(first) => {
                    duplicates.push((point.index, *first.get()));
                }
                std::collections::hash_map::Entry::Vacant(slot) => {
                    slot.insert(point.index);
                    pending.push(point.index);
                }
            }
        }

        let computed = pending.len();
        let workers = self.workers.min(computed.max(1));
        let mut events = 0u64;
        let injector = Mutex::new(pending.into_iter().collect::<VecDeque<usize>>());
        let slots = Mutex::new(&mut outcomes);
        let event_total = Mutex::new(&mut events);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let Some(index) = injector.lock().expect("injector lock").pop_front()
                    else {
                        break;
                    };
                    let (outcome, point_events) = PointOutcome::run(&points[index]);
                    slots.lock().expect("slots lock")[index] = Some(outcome);
                    accumulate_events(
                        *event_total.lock().expect("events lock"),
                        point_events,
                    );
                });
            }
        });

        // Propagate computed results to in-run duplicates.
        for (dup, first) in &duplicates {
            outcomes[*dup] = outcomes[*first].clone();
        }

        let report = SweepReport {
            schema: crate::SCHEMA_VERSION,
            name: self.spec.name.clone(),
            points: points
                .iter()
                .zip(outcomes)
                .map(|(point, outcome)| PointReport {
                    index: point.index as u64,
                    label: point.label.clone(),
                    key_hash: format!("{:016x}", point.hash),
                    outcome: outcome.expect("every point resolved"),
                })
                .collect(),
        };
        let stats = SweepStats {
            points: n,
            computed,
            deduped: duplicates.len(),
            workers,
            wall: started.elapsed(),
            events,
        };
        Ok(SweepRun { report, stats })
    }
}

/// Folds one point's event count into the sweep total, saturating at
/// `u64::MAX`. Huge sweeps legitimately approach the counter's range; a
/// pegged total is a usable diagnostic, a wrapped (or, in debug builds,
/// panicking) one is not.
fn accumulate_events(total: &mut u64, point_events: u64) {
    *total = total.saturating_add(point_events);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Axis;
    use astra_core::{Experiment, SimConfig};

    #[test]
    fn event_accumulation_saturates_instead_of_wrapping() {
        let mut total = 0u64;
        accumulate_events(&mut total, 10);
        accumulate_events(&mut total, 32);
        assert_eq!(total, 42);
        accumulate_events(&mut total, u64::MAX - 1);
        assert_eq!(total, u64::MAX, "overflow must peg, not wrap or panic");
        accumulate_events(&mut total, 1);
        assert_eq!(total, u64::MAX, "the pegged total stays pegged");
    }

    fn small_spec() -> SweepSpec {
        SweepSpec::new(
            "engine-test",
            SimConfig::torus(1, 4, 1),
            Experiment::all_reduce(1 << 10),
        )
        .axis(Axis::MessageSizes(vec![1 << 10, 1 << 16, 1 << 10]))
    }

    #[test]
    fn duplicates_within_a_run_are_computed_once() {
        let run = SweepEngine::new(small_spec()).workers(2).run().unwrap();
        assert_eq!(run.stats.points, 3);
        assert_eq!(run.stats.computed, 2);
        assert_eq!(run.stats.deduped, 1);
        assert_eq!(
            run.report.points[0].outcome, run.report.points[2].outcome,
            "identical coordinates share one result"
        );
        assert_ne!(run.report.points[0].outcome, run.report.points[1].outcome);
    }

    #[test]
    fn failing_points_do_not_sink_the_sweep() {
        let spec = SweepSpec::new(
            "partial",
            SimConfig::torus(1, 4, 1),
            Experiment::all_reduce(1 << 10),
        )
        .axis(Axis::MessageSizes(vec![0, 1 << 10]));
        let run = SweepEngine::new(spec).workers(1).run().unwrap();
        assert!(
            matches!(
                run.report.points[0].outcome,
                crate::PointOutcome::Error { .. }
            ),
            "zero-byte collective must fail alone"
        );
        assert!(run.report.points[1].outcome.metrics().is_some());
    }

    #[test]
    fn computed_points_accumulate_event_counts() {
        let run = SweepEngine::new(small_spec()).workers(1).run().unwrap();
        assert!(run.stats.events > 0, "simulated points must process events");
        // Deterministic: the same spec always costs the same events.
        let again = SweepEngine::new(small_spec()).workers(4).run().unwrap();
        assert_eq!(run.stats.events, again.stats.events);
    }

    /// Runs `small_spec` over a base config that `edit` breaks and returns
    /// the first point's error message.
    fn bad_base_error(edit: impl FnOnce(&mut SimConfig)) -> String {
        let mut spec = small_spec();
        edit(&mut spec.base);
        let run = SweepEngine::new(spec).workers(1).run().unwrap();
        match &run.report.points[0].outcome {
            crate::PointOutcome::Error { message } => message.clone(),
            other => panic!("expected a point error, got {other:?}"),
        }
    }

    #[test]
    fn zero_set_splits_is_a_point_error() {
        let err = bad_base_error(|c| c.system.set_splits = 0);
        assert!(err.contains("set_splits = 0"), "{err}");
    }

    #[test]
    fn set_splits_past_the_tag_budget_is_a_point_error() {
        let err = bad_base_error(|c| c.system.set_splits = 5000);
        assert_eq!(
            err,
            "system layer error: invalid set_splits = 5000, expected 1..=4096"
        );
    }

    #[test]
    fn zero_dispatcher_threshold_or_batch_is_a_point_error() {
        let err = bad_base_error(|c| c.system.dispatcher_batch = 0);
        assert!(err.contains("dispatcher_batch = 0"), "{err}");
        let err = bad_base_error(|c| c.system.dispatcher_threshold = 0);
        assert!(err.contains("dispatcher_threshold = 0"), "{err}");
    }

    #[test]
    fn non_positive_clock_is_a_point_error() {
        for (bad, shown) in [("0.0", "got 0"), ("-1.0", "got -1")] {
            let err = bad_base_error(|c| {
                let json = serde_json::to_string(&c.network.clock).unwrap();
                c.network.clock = serde_json::from_str(&json.replace("1.0", bad)).unwrap();
            });
            assert!(
                err.contains("clock freq_ghz") && err.ends_with(shown),
                "{err}"
            );
        }
    }

    #[test]
    fn worker_count_does_not_change_the_report() {
        let one = SweepEngine::new(small_spec()).workers(1).run().unwrap();
        let four = SweepEngine::new(small_spec()).workers(4).run().unwrap();
        assert_eq!(one.report.to_json(), four.report.to_json());
    }
}
