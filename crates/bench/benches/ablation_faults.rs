//! Ablation — the fault-injection subsystem: how gracefully does the
//! platform degrade as the scale-out transport loses messages and scale-up
//! links lose bandwidth?
//!
//! Two pods of a 1x4x1 torus joined by one scale-out switch run a 1 MiB
//! all-reduce under a drop-rate × link-degradation sweep, expressed as a
//! 13-point fault axis through the parallel sweep engine (the fault-free
//! `None` point plus every (degrade, drop-rate) cell); the series lands in
//! `target/BENCH_ablation_faults.json`. Every cell is deterministic: the
//! same (seed, plan) replays cycle-identically.
//!
//! Checks:
//! * the fault-free corner of the sweep equals the run with no plan at all
//!   (an empty plan is inert);
//! * completion time grows monotonically along the drop-rate axis at fixed
//!   degradation, and drops are matched 1:1 by retransmits;
//! * degrading the scale-up links compounds with transport loss;
//! * replaying the heaviest cell (fresh engine, no cache) is
//!   cycle-identical.

use astra_bench::{check, emit, header, run_grid};
use astra_core::output::Table;
use astra_core::{FaultKind, FaultPlan, LinkFault, LossSpec, SimConfig};
use astra_des::Time;
use astra_sweep::{Axis, PointMetrics, SweepEngine, SweepSpec};
use astra_topology::NodeId;

fn base_cfg() -> SimConfig {
    SimConfig::torus(1, 4, 1)
        .local_rings(1)
        .horizontal_rings(1)
        .vertical_rings(1)
        .pods(2, 1)
}

/// A plan combining lossy scale-out transport with degraded intra-pod
/// links. `degrade = 1.0` leaves links untouched; `drop_rate = 0` leaves
/// the transport lossless.
fn plan(drop_rate: f64, degrade: f64) -> FaultPlan {
    let mut p = FaultPlan {
        seed: 2020,
        ..FaultPlan::default()
    };
    if drop_rate > 0.0 {
        p.loss = Some(LossSpec {
            drop_rate,
            timeout: Time::from_cycles(2_000),
            max_retries: 32,
        });
    }
    if degrade < 1.0 {
        // Degrade every forward ring link of both pods for the whole run.
        for pod in 0..2usize {
            for i in 0..4usize {
                p.link_faults.push(LinkFault {
                    from: NodeId(pod * 4 + i),
                    to: NodeId(pod * 4 + (i + 1) % 4),
                    kind: FaultKind::Degrade { factor: degrade },
                    start: Time::ZERO,
                    end: Time::from_cycles(u64::MAX / 2),
                });
            }
        }
    }
    p
}

const DROP_RATES: [f64; 4] = [0.0, 0.01, 0.05, 0.1];
const DEGRADES: [f64; 3] = [1.0, 0.5, 0.25];

fn spec(name: &str, plans: Vec<Option<FaultPlan>>) -> SweepSpec {
    SweepSpec::new(
        name,
        base_cfg(),
        astra_core::Experiment::all_reduce(1 << 20),
    )
    .axis(Axis::Faults(plans))
}

fn triple(m: &PointMetrics) -> (u64, u64, u64) {
    (m.duration_cycles, m.drops, m.retransmits)
}

fn main() {
    header(
        "Ablation — faults",
        "drop-rate x degradation sweep: 1 MiB all-reduce on 2 pods over 1 switch",
    );
    // Point 0 is the no-plan run; points 1.. are the (degrade, drop-rate)
    // grid, degradation outermost.
    let mut plans: Vec<Option<FaultPlan>> = vec![None];
    for &deg in &DEGRADES {
        for &dr in &DROP_RATES {
            plans.push(Some(plan(dr, deg)));
        }
    }
    let report = run_grid(spec("ablation_faults", plans));
    let bare = triple(report.expect_metrics(0));
    let cell =
        |deg: usize, dr: usize| triple(report.expect_metrics(1 + deg * DROP_RATES.len() + dr));

    let mut t = Table::new(
        ["drop_rate", "degrade", "cycles", "drops", "retransmits"]
            .map(String::from)
            .to_vec(),
    );
    let mut grid = Vec::new();
    for (di, &deg) in DEGRADES.iter().enumerate() {
        let mut row = Vec::new();
        for (ri, &dr) in DROP_RATES.iter().enumerate() {
            let (cycles, drops, retransmits) = cell(di, ri);
            t.row(vec![
                format!("{dr}"),
                format!("{deg}"),
                cycles.to_string(),
                drops.to_string(),
                retransmits.to_string(),
            ]);
            row.push((cycles, drops, retransmits));
        }
        grid.push(row);
    }
    emit(&t);

    check(
        "the fault-free corner equals the run with no plan at all",
        grid[0][0] == bare,
    );
    check(
        "drops are recovered 1:1 by retransmits in every cell",
        grid.iter().flatten().all(|c| c.1 == c.2),
    );
    check(
        "completion time grows with drop rate at full link bandwidth",
        grid[0]
            .windows(2)
            .all(|w| w[1].0 > w[0].0 || w[0].1 == w[1].1),
    );
    check(
        "lossless runs never drop or retransmit",
        grid.iter().all(|row| row[0].1 == 0 && row[0].2 == 0),
    );
    // Mild degradation can hide behind the scale-out bottleneck (Ethernet
    // is the critical path at this size); a 4x cut cannot.
    check(
        "4x-degraded scale-up links cost time even without loss",
        grid[2][0].0 > grid[0][0].0,
    );
    check(
        "loss and degradation compound: the worst cell is the slowest",
        grid[2][3].0 > grid[0][0].0 && grid[2][3].0 >= grid[0][3].0 && grid[2][3].0 >= grid[2][0].0,
    );
    // A fresh, uncached engine must re-simulate to the same cycle count —
    // the determinism claim, not a cache round-trip.
    let replay = SweepEngine::new(spec("ablation_faults_replay", vec![Some(plan(0.1, 0.25))]))
        .workers(1)
        .run()
        .expect("replay sweep runs");
    check(
        "replaying the heaviest cell is cycle-identical",
        triple(replay.report.expect_metrics(0)) == grid[2][3],
    );
}
