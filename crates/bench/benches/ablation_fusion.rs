//! Ablation — Fig 1's framework-level design space: message fusion and
//! compute/communication overlap.
//!
//! The paper's design-space figure lists "fusion vs. splitting of
//! messages" and "overlap vs no overlap" as framework-level choices but
//! does not evaluate them; this ablation does, on the calibrated ResNet-50
//! (2x4x4 torus, data parallel):
//!
//! * gradient bucketing sweep (PyTorch-DDP style): tiny buckets pay
//!   per-collective overheads; the whole model in one bucket destroys the
//!   overlap window;
//! * overlap on/off: turning overlap off exposes every all-reduce fully.

use astra_bench::{calibrated_resnet50, check, emit, header};
use astra_core::output::Table;
use astra_core::{SimConfig, Simulator};
use astra_workload::{transform, TrainingRunner};

fn main() {
    header(
        "Ablation",
        "gradient fusion (bucket sweep) + overlap on/off, ResNet-50 on 2x4x4",
    );
    let cfg = SimConfig::torus(2, 4, 4);
    let base = calibrated_resnet50();

    let mut t = Table::new(
        [
            "bucket",
            "collectives",
            "total_cycles",
            "exposed_cycles",
            "exposed_pct",
        ]
        .map(String::from)
        .to_vec(),
    );
    let mut series = Vec::new();
    let buckets: [(&str, Option<u64>); 5] = [
        ("none (per-layer)", None),
        ("1MB", Some(1 << 20)),
        ("25MB", Some(25 << 20)),
        ("100MB", Some(100 << 20)),
        ("whole model", Some(u64::MAX)),
    ];
    for (label, bucket) in buckets {
        let wl = match bucket {
            None => base.clone(),
            Some(b) => transform::fuse_weight_gradients(&base, b),
        };
        let colls = wl.layers.iter().filter(|l| l.wg_comm.is_some()).count();
        let report = Simulator::new(cfg.clone())
            .expect("valid config")
            .run_training(wl)
            .expect("trains");
        t.row(vec![
            label.into(),
            colls.to_string(),
            report.total_time.cycles().to_string(),
            report.total_exposed.cycles().to_string(),
            format!("{:.1}", report.exposed_ratio() * 100.0),
        ]);
        series.push((report.total_time.cycles(), report.total_exposed.cycles()));
    }
    emit(&t);

    check(
        "fusing the whole model into one bucket is worse than per-layer collectives \
         (overlap window destroyed)",
        series[4].0 > series[0].0,
    );
    check(
        "moderate bucketing (25MB) is within 10% of the best configuration",
        {
            let best = series.iter().map(|s| s.0).min().unwrap() as f64;
            (series[2].0 as f64) < 1.1 * best
        },
    );

    // Overlap on/off.
    let sim = Simulator::new(cfg.clone()).expect("valid config");
    let with = sim.run_training(base.clone()).expect("trains");
    let without = {
        let ssim = Simulator::new(cfg)
            .expect("valid config")
            .system_sim()
            .expect("builds");
        TrainingRunner::new(ssim, base, 2)
            .expect("valid workload")
            .without_overlap()
            .run()
            .expect("trains")
    };
    println!(
        "\noverlap ON : total {}  exposed {:.1}%",
        with.total_time.cycles(),
        with.exposed_ratio() * 100.0
    );
    println!(
        "overlap OFF: total {}  exposed {:.1}%",
        without.total_time.cycles(),
        without.exposed_ratio() * 100.0
    );
    check(
        "disabling overlap costs >25% end-to-end time",
        without.total_time.cycles() as f64 > 1.25 * with.total_time.cycles() as f64,
    );
    check(
        "without overlap, wall time == compute + exposed exactly",
        without.total_time == without.total_compute + without.total_exposed,
    );
}
