//! Fig 18 — ResNet-50 exposed communication vs NPU compute power.
//!
//! Compute power sweeps 0.5× to 4× of the baseline 256x256 array on the
//! 2x4x4 system: faster NPUs leave less compute to hide communication
//! behind. The paper reports <1% exposed at 0.5× and 63.9% of latency from
//! communication at 4× — "diminishing effect of further improving the
//! compute efficiency".
//!
//! Checks:
//! * exposed ratio rises monotonically with compute power;
//! * the 0.5× system hides almost everything (<5%);
//! * at 4× communication dominates (>40% of end-to-end latency).

use astra_bench::{calibrated_resnet50, check, emit, header, scale_compute_power, training};
use astra_core::output::Table;
use astra_core::SimConfig;

fn main() {
    header(
        "Fig 18",
        "ResNet-50 exposed-communication ratio vs compute power (0.5x .. 4x, 2x4x4)",
    );
    let base = calibrated_resnet50();
    let cfg = SimConfig::torus(2, 4, 4);

    let mut t = Table::new(
        ["compute_power", "compute", "exposed", "exposed_ratio_pct"]
            .map(String::from)
            .to_vec(),
    );
    let mut ratios = Vec::new();
    for (label, num, den) in [("0.5x", 1u64, 2u64), ("1x", 1, 1), ("2x", 2, 1), ("4x", 4, 1)] {
        let wl = scale_compute_power(base.clone(), num, den);
        let report = training(&cfg, wl);
        let ratio = report.exposed_ratio();
        ratios.push(ratio);
        t.row(vec![
            label.into(),
            report.total_compute.cycles().to_string(),
            report.total_exposed.cycles().to_string(),
            format!("{:.1}", ratio * 100.0),
        ]);
    }
    emit(&t);
    println!("paper: <1% at 0.5x, 63.9% at 4x");

    check(
        "exposed ratio rises monotonically with compute power",
        ratios.windows(2).all(|w| w[1] > w[0]),
    );
    check(
        "at 0.5x compute power almost all communication is hidden (<5%)",
        ratios[0] < 0.05,
    );
    check(
        "at 4x compute power communication dominates (>40%)",
        ratios[3] > 0.40,
    );
}
