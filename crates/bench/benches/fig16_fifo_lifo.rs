//! Fig 16 — ResNet-50 layer-wise communication time breakdown, FIFO vs
//! LIFO.
//!
//! §V-F's observation: "we observe similar behavior for both FIFO and LIFO
//! scheduling schemes" — the 8× local bandwidth drains phase 1 so fast that
//! chunks effectively execute in order regardless of policy, and "the
//! majority of delay is in Queue P2 waiting for the scale-up fabric".
//!
//! Checks:
//! * end-to-end time under FIFO and LIFO differs by < 5%;
//! * per-layer exposed times are close between the two policies;
//! * among the queue delays P1..P3 of the (baseline, 3-phase) all-reduce,
//!   P2 — the first inter-package phase — dominates.

use astra_bench::{calibrated_resnet50, check, emit, header, training};
use astra_core::output::Table;
use astra_core::SimConfig;
use astra_system::SchedulingPolicy;

fn main() {
    header("Fig 16", "ResNet-50 breakdown under FIFO vs LIFO (2x4x4)");
    let mut reports = Vec::new();
    for policy in [SchedulingPolicy::Lifo, SchedulingPolicy::Fifo] {
        let cfg = SimConfig::torus(2, 4, 4).scheduling(policy);
        reports.push(training(&cfg, calibrated_resnet50()));
    }
    let (lifo, fifo) = (&reports[0], &reports[1]);

    let mut t = Table::new(
        [
            "layer",
            "lifo_qP1",
            "lifo_qP2",
            "lifo_qP3",
            "lifo_nP2",
            "fifo_qP2",
            "lifo_exposed",
            "fifo_exposed",
        ]
        .map(String::from)
        .to_vec(),
    );
    let get = |v: &[f64], i: usize| v.get(i).copied().unwrap_or(0.0);
    for (l, f) in lifo.layers.iter().zip(&fifo.layers) {
        t.row(vec![
            l.name.clone(),
            format!("{:.0}", get(&l.phase_queue_mean, 0)),
            format!("{:.0}", get(&l.phase_queue_mean, 1)),
            format!("{:.0}", get(&l.phase_queue_mean, 2)),
            format!("{:.0}", get(&l.phase_network_mean, 1)),
            format!("{:.0}", get(&f.phase_queue_mean, 1)),
            l.exposed.cycles().to_string(),
            f.exposed.cycles().to_string(),
        ]);
    }
    emit(&t);
    println!(
        "totals: LIFO {}  FIFO {}",
        lifo.total_time.cycles(),
        fifo.total_time.cycles()
    );

    let ratio = lifo.total_time.cycles() as f64 / fifo.total_time.cycles() as f64;
    check(
        "LIFO and FIFO behave near-identically end to end (<5% difference)",
        (0.95..1.05).contains(&ratio),
    );
    // Aggregate queue means over layers, weighted equally.
    let mean_of = |r: &astra_workload::TrainingReport, phase: usize| {
        let vals: Vec<f64> = r
            .layers
            .iter()
            .map(|l| get(&l.phase_queue_mean, phase))
            .collect();
        vals.iter().sum::<f64>() / vals.len() as f64
    };
    let p1 = mean_of(lifo, 0);
    let p2 = mean_of(lifo, 1);
    let p3 = mean_of(lifo, 2);
    println!("aggregate queue means: P1 {p1:.0}  P2 {p2:.0}  P3 {p3:.0}");
    check(
        "Queue P2 (first inter-package phase) dominates the queueing delays",
        p2 > p1 && p2 > p3,
    );
}
