//! Ablation — chunk-scheduling policy (paper Fig 5, §III-B / §V-F).
//!
//! The system layer's ready queue orders chunks from *different*
//! collectives contending for the same phase; Fig 5 sketches the FIFO and
//! LIFO variants and §V-F observes "similar behavior for both FIFO and
//! LIFO scheduling schemes" on real workloads. This ablation runs a
//! ResNet-50 training iteration (whose backward pass keeps several
//! weight-gradient all-reduces in flight at once) on a 2x4x2 torus under
//! all three [`SchedulingPolicy`] variants, expressed as a one-axis
//! `sched` sweep through the parallel engine; the series lands in
//! `target/BENCH_ablation_sched.json` and the engine's events/sec
//! throughput is reported from the host-side [`SweepStats`].
//!
//! Checks:
//! * every policy — including the new shortest-job-first `priority` —
//!   simulates to completion through the sweep engine;
//! * FIFO and LIFO behave near-identically end to end (<5%), the paper's
//!   §V-F observation;
//! * priority stays in the same envelope: reordering chunks cannot change
//!   the total work, only overlap, so it lands within 10% of FIFO;
//! * replaying the priority point on a fresh, uncached engine is
//!   cycle-identical (determinism, not a cache round-trip).
//!
//! [`SweepStats`]: astra_sweep::SweepStats

use astra_bench::{calibrated_resnet50, check, emit, header, run_grid_stats};
use astra_core::output::Table;
use astra_core::{Experiment, SimConfig};
use astra_sweep::{Axis, SweepEngine, SweepSpec};
use astra_system::SchedulingPolicy;

const POLICIES: [SchedulingPolicy; 3] = [
    SchedulingPolicy::Lifo,
    SchedulingPolicy::Fifo,
    SchedulingPolicy::Priority,
];

fn spec(name: &str, policies: Vec<SchedulingPolicy>) -> SweepSpec {
    SweepSpec::new(
        name,
        SimConfig::torus(2, 4, 2),
        Experiment::Training(calibrated_resnet50()),
    )
    .axis(Axis::Scheduling(policies))
}

fn main() {
    header(
        "Ablation — scheduling",
        "chunk-scheduling policy sweep: ResNet-50 iteration on 2x4x2 (Fig 5 / §V-F)",
    );
    let run = run_grid_stats(spec("ablation_sched", POLICIES.to_vec()));
    println!(
        "[sweep] engine throughput: {:.0} events/s ({} events in {:.2?})",
        run.stats.events_per_sec(),
        run.stats.events,
        run.stats.wall
    );
    let report = run.report;

    let mut t = Table::new(
        ["policy", "cycles", "compute", "exposed", "exposed_ratio"]
            .map(String::from)
            .to_vec(),
    );
    let mut cycles = Vec::new();
    for (i, policy) in POLICIES.iter().enumerate() {
        let m = report.expect_metrics(i);
        t.row(vec![
            policy.to_string(),
            m.duration_cycles.to_string(),
            m.compute_cycles.to_string(),
            m.exposed_cycles.to_string(),
            format!("{:.3}", m.exposed_ratio()),
        ]);
        cycles.push(m.duration_cycles);
    }
    emit(&t);
    let (lifo, fifo, prio) = (cycles[0], cycles[1], cycles[2]);

    check(
        "every scheduling policy simulates to completion through the sweep engine",
        cycles.iter().all(|&c| c > 0),
    );
    let ratio = lifo as f64 / fifo as f64;
    check(
        "FIFO and LIFO behave near-identically end to end (<5% difference, §V-F)",
        (0.95..1.05).contains(&ratio),
    );
    let prio_ratio = prio as f64 / fifo as f64;
    check(
        "priority scheduling stays within 10% of FIFO (reordering, not new work)",
        (0.90..1.10).contains(&prio_ratio),
    );
    // A fresh, uncached engine must re-simulate the priority point to the
    // same cycle count — the determinism claim for the new policy.
    let replay = SweepEngine::new(spec(
        "ablation_sched_replay",
        vec![SchedulingPolicy::Priority],
    ))
    .workers(1)
    .run()
    .expect("replay sweep runs");
    check(
        "replaying the priority point uncached is cycle-identical",
        replay.report.expect_metrics(0).duration_cycles == prio,
    );
}
