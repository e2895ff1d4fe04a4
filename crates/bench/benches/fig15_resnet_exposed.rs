//! Fig 15 — ResNet-50 layer-wise compute and exposed communication time.
//!
//! Same run as Fig 14, now including per-layer compute and the *exposed*
//! communication latency: "the amount of communication time that is not
//! overlapped and the training algorithm is forced to stop" (§V-F).
//!
//! Checks:
//! * overlap works: total exposed time is far below total raw
//!   communication time;
//! * exposure concentrates in the *early* layers: their weight-gradient
//!   all-reduces are issued last during back-propagation but needed first
//!   in the next forward pass (§III-E).

use astra_bench::{calibrated_resnet50, check, emit, header, training};
use astra_core::output::Table;
use astra_core::SimConfig;
use astra_des::Time;

fn main() {
    header(
        "Fig 15",
        "ResNet-50 layer-wise compute / comm / exposed comm (2x4x4, data parallel)",
    );
    let cfg = SimConfig::torus(2, 4, 4);
    let report = training(&cfg, calibrated_resnet50());

    let mut t = Table::new(
        ["layer", "compute", "total_comm", "exposed"]
            .map(String::from)
            .to_vec(),
    );
    for l in &report.layers {
        t.row(vec![
            l.name.clone(),
            l.compute.cycles().to_string(),
            l.total_comm().cycles().to_string(),
            l.exposed.cycles().to_string(),
        ]);
    }
    emit(&t);
    println!(
        "totals: compute {}  raw comm {}  exposed {}  (exposed ratio {:.1}%)",
        report.total_compute.cycles(),
        report.total_comm().cycles(),
        report.total_exposed.cycles(),
        report.exposed_ratio() * 100.0
    );

    let total_comm = report.total_comm();
    check(
        "most communication is overlapped: exposed < 50% of raw comm time",
        report.total_exposed.cycles() * 2 < total_comm.cycles(),
    );
    let n = report.layers.len();
    let first_quarter: Time = report.layers[..n / 4].iter().map(|l| l.exposed).sum();
    let last_quarter: Time = report.layers[3 * n / 4..].iter().map(|l| l.exposed).sum();
    check(
        "exposure concentrates in early layers (first quarter >> last quarter)",
        first_quarter > last_quarter,
    );
    check(
        "some layers are fully overlapped (zero exposed)",
        report.layers.iter().any(|l| l.exposed == Time::ZERO),
    );
}
