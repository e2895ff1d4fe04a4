//! Extension — the scale-out fabric of §VII ("we also plan to extend it to
//! a scale-out fabric (modeling the transport layer, e.g., Ethernet) as
//! part of future work"), implemented here.
//!
//! Pods of a 2x2x2 scale-up torus (Table IV links) are joined by 100GbE
//! scale-out switches (12.5 GB/s, 1.5 µs transport latency, 1500 B MTU).
//! All-reduce sweeps the pod count at a fixed per-NPU gradient size.
//!
//! Checks:
//! * crossing pods is expensive: 2 pods cost far more than the 2x NPU
//!   count alone would suggest (Ethernet bandwidth ≪ scale-up bandwidth);
//! * the enhanced algorithm's benefit extends to the scale-out dimension
//!   (its reduce-scatter bracketing divides Ethernet traffic by the local
//!   dimension size);
//! * scale-out bytes grow with pod count while intra-pod bytes per NPU
//!   stay fixed.

use astra_bench::{check, emit, header};
use astra_collectives::Algorithm;
use astra_core::output::{fmt_bytes, Table};
use astra_core::{SimConfig, Simulator};
use astra_system::CollectiveRequest;

fn pods_cfg(pods: usize, switches: usize, algorithm: Algorithm) -> SimConfig {
    SimConfig::torus(2, 2, 2)
        .horizontal_rings(1)
        .vertical_rings(1)
        .pods(pods, switches)
        .algorithm(algorithm)
}

fn main() {
    header(
        "Extension (§VII)",
        "scale-out fabric: 2x2x2 pods over 100GbE switches, all-reduce",
    );
    let bytes = 4 << 20;
    let mut t = Table::new(
        [
            "pods",
            "npus",
            "baseline_cycles",
            "enhanced_cycles",
            "scale_out_MB_total",
        ]
        .map(String::from)
        .to_vec(),
    );
    let mut rows = Vec::new();
    for pods in [1usize, 2, 4, 8] {
        let switches = if pods > 1 { 2 } else { 0 };
        let base = Simulator::new(pods_cfg(pods, switches, Algorithm::Baseline))
            .expect("valid config")
            .run_collective(CollectiveRequest::all_reduce(bytes))
            .expect("completes");
        let enh = Simulator::new(pods_cfg(pods, switches, Algorithm::Enhanced))
            .expect("valid config")
            .run_collective(CollectiveRequest::all_reduce(bytes))
            .expect("completes");
        t.row(vec![
            pods.to_string(),
            (8 * pods).to_string(),
            base.duration.cycles().to_string(),
            enh.duration.cycles().to_string(),
            format!(
                "{:.1}",
                base.network.scale_out_link_bytes as f64 / 1e6
            ),
        ]);
        rows.push((
            base.duration.cycles(),
            enh.duration.cycles(),
            base.network.scale_out_link_bytes,
        ));
    }
    emit(&t);
    println!("per-NPU gradient size: {}", fmt_bytes(bytes));

    // Ethernet-dominance check: 16 NPUs as 2 pods of 8 vs the same 16 NPUs
    // as one scale-up 2x4x2 torus.
    let t_scale_up = Simulator::new(SimConfig::torus(2, 4, 2))
        .expect("valid config")
        .run_collective(CollectiveRequest::all_reduce(bytes))
        .expect("completes")
        .duration
        .cycles();
    println!("16 NPUs as one 2x4x2 scale-up torus: {t_scale_up} cycles");
    check(
        "16 NPUs across 2 pods cost >2x the same 16 NPUs in one scale-up torus",
        rows[1].0 > 2 * t_scale_up,
    );
    check(
        "adding a second pod costs >1.5x a single pod",
        (rows[1].0 as f64) > 1.5 * rows[0].0 as f64,
    );
    check(
        "the enhanced algorithm also wins across pods at every pod count > 1",
        rows[1..].iter().all(|r| r.1 < r.0),
    );
    check(
        "scale-out traffic grows with pod count",
        rows.windows(2).all(|w| w[1].2 > w[0].2),
    );
    check(
        "a single pod touches no scale-out links",
        rows[0].2 == 0,
    );
}
