//! Fig 12 — Impact of scaling on the torus topology.
//!
//! All-reduce with the 4-phase algorithm as the module count grows 8 → 64
//! (2x2x2, 2x4x2, 2x4x4, 2x4x8), asymmetric links. Panel (a) is total
//! communication time; panel (b) breaks it into Queue P0 (ready queue),
//! Queue P1–P4 (per-phase message queueing) and Network P1–P4 (per-phase
//! in-network time) — §IV-B / Fig 7 terminology.
//!
//! The paper plots one (unstated) message size; we print a latency-bound
//! size (256 KiB) and a bandwidth-bound size (16 MiB) and check each claim
//! in the regime that drives it:
//!
//! * communication time increases with module count (both sizes);
//! * growth from 2x4x2 to 2x4x4 is *slower* than from 2x4x4 to 2x4x8: the
//!   bottleneck ring size stays 4 in the first step (it merely shifts from
//!   horizontal to vertical), then jumps to 8 — a step-count effect,
//!   checked at the latency-bound size;
//! * for 2x4x4 the shifted bottleneck shows up as Queue P2 (the vertical
//!   phase) dominating the queueing delays — checked at the
//!   bandwidth-bound size where queueing is substantial.

use astra_bench::{check, emit, header};
use astra_collectives::Algorithm;
use astra_core::output::{fmt_bytes, Table};
use astra_core::{SimConfig, Simulator};
use astra_system::CollectiveRequest;

const SHAPES: [(&str, usize, usize, usize); 4] = [
    ("2x2x2", 2, 2, 2),
    ("2x4x2", 2, 4, 2),
    ("2x4x4", 2, 4, 4),
    ("2x4x8", 2, 4, 8),
];

/// Runs the sweep at one size; returns (totals, P2-dominates-for-2x4x4).
fn sweep(bytes: u64) -> (Vec<u64>, bool) {
    let mut totals = Vec::new();
    let mut p2_dominates = false;
    let mut t = Table::new(
        [
            "shape", "modules", "total", "queueP0", "queueP1", "queueP2", "queueP3", "queueP4",
            "netP1", "netP2", "netP3", "netP4",
        ]
        .map(String::from)
        .to_vec(),
    );
    for (name, m, n, k) in SHAPES {
        let cfg = SimConfig::torus(m, n, k).algorithm(Algorithm::Enhanced);
        let out = Simulator::new(cfg)
            .expect("valid config")
            .run_collective(CollectiveRequest::all_reduce(bytes))
            .expect("collective completes");
        totals.push(out.duration.cycles());
        let fmt = |v: Option<f64>| v.map(|x| format!("{x:.0}")).unwrap_or_else(|| "-".into());
        let mut row = vec![
            name.to_owned(),
            (m * n * k).to_string(),
            out.duration.cycles().to_string(),
            format!("{:.0}", out.coll.ready_delay.mean()),
        ];
        for i in 0..4 {
            row.push(fmt(out.coll.phase_queue.get(i).map(|s| s.mean())));
        }
        for i in 0..4 {
            row.push(fmt(out.coll.phase_network.get(i).map(|s| s.mean())));
        }
        t.row(row);
        if name == "2x4x4" {
            let means: Vec<f64> = out.coll.phase_queue.iter().map(|s| s.mean()).collect();
            let p2 = means[1]; // phase index 1 = P2, the vertical phase
            p2_dominates = means.iter().all(|&v| v <= p2);
        }
    }
    println!("\n-- message size {} --", fmt_bytes(bytes));
    emit(&t);
    (totals, p2_dominates)
}

fn main() {
    header(
        "Fig 12",
        "4-phase all-reduce, 8 -> 64 modules: total time + queue/network breakdown",
    );
    let (small_totals, _) = sweep(256 << 10);
    let (large_totals, p2_dom_large) = sweep(16 << 20);

    check(
        "communication time increases with module count (both regimes)",
        small_totals.windows(2).all(|w| w[1] > w[0])
            && large_totals.windows(2).all(|w| w[1] > w[0]),
    );
    let g23 = small_totals[2] as f64 / small_totals[1] as f64;
    let g34 = small_totals[3] as f64 / small_totals[2] as f64;
    check(
        "growth 2x4x2 -> 2x4x4 is slower than 2x4x4 -> 2x4x8 (bottleneck ring 4 -> 4 vs 4 -> 8)",
        g23 < g34,
    );
    check(
        "for 2x4x4 at bandwidth-bound sizes, Queue P2 (vertical phase) dominates queueing",
        p2_dom_large,
    );
}
