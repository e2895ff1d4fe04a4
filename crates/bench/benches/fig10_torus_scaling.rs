//! Fig 10 — Impact of 2D/3D Torus topology at 64 packages.
//!
//! All-reduce with the baseline algorithm over **symmetric** links ("links
//! with same BW", §V-B). The four shapes: 1x64x1, 1x8x8, 2x8x4, 4x4x4.
//! Each node keeps the same link budget as dimensions are added (we give
//! every active inter-package dimension one bidirectional ring and the
//! local dimension two unidirectional rings).
//!
//! The figure is a 6 sizes × 4 shapes grid, run through the parallel sweep
//! engine; the series land in `target/BENCH_fig10_*.json`.
//!
//! Paper claims reproduced:
//! * 1D → 2D (1x64x1 → 1x8x8) is a big win at small/medium sizes (63 hops
//!   vs 14 dominate), despite sending more data (126/64·N vs 28/8·N);
//! * 2x8x4 is worse than 1x8x8 (more data, same bottleneck ring of 8);
//! * 4x4x4 beats 2x8x4 (worst-case hops go down) and beats 1x8x8 for
//!   messages up to ~4 MB;
//! * at the largest sizes everything is bandwidth-bound and data volume
//!   decides: 1x8x8 (28/8·N) overtakes 4x4x4 (36/8·N).

use astra_bench::{check, emit, header, run_grid, SIZE_SWEEP};
use astra_core::output::{fmt_bytes, Table};
use astra_core::{Experiment, SimConfig};
use astra_sweep::{Axis, SweepSpec};

fn main() {
    header(
        "Fig 10",
        "64 packages: 1x64x1 vs 1x8x8 vs 2x8x4 vs 4x4x4 (all-reduce, baseline, symmetric links)",
    );
    // Ring counts: Table IV's two bidirectional rings per inter-package
    // dimension; the local dimension gets four unidirectional rings so the
    // per-node link budget stays comparable as dimensions are added (the
    // paper: "adding extra dimensions without increasing the number of
    // links or BW per link").
    let shape = |m, n, k, lr| {
        SimConfig::torus(m, n, k)
            .local_rings(lr)
            .horizontal_rings(2)
            .vertical_rings(2)
            .topology
    };
    let names = ["1x64x1", "1x8x8", "2x8x4", "4x4x4"];
    let topologies = vec![
        SimConfig::torus(1, 64, 1)
            .local_rings(1)
            .horizontal_rings(2)
            .vertical_rings(1)
            .topology,
        shape(1, 8, 8, 1),
        shape(2, 8, 4, 4),
        shape(4, 4, 4, 4),
    ];

    let spec = SweepSpec::new(
        "fig10_torus_scaling",
        SimConfig::torus(1, 64, 1).symmetric_links(),
        Experiment::all_reduce(1 << 20),
    )
    .axis(Axis::MessageSizes(SIZE_SWEEP.to_vec()))
    .axis(Axis::Topologies(topologies));
    let report = run_grid(spec);

    let mut t = Table::new(
        ["size", "1x64x1", "1x8x8", "2x8x4", "4x4x4"]
            .map(String::from)
            .to_vec(),
    );
    let mut series: Vec<[u64; 4]> = Vec::new();
    for (si, bytes) in SIZE_SWEEP.into_iter().enumerate() {
        let mut row = vec![fmt_bytes(bytes)];
        let mut vals = [0u64; 4];
        for (i, val) in vals.iter_mut().enumerate() {
            *val = report.duration_cycles(si * names.len() + i);
            row.push(val.to_string());
        }
        t.row(row);
        series.push(vals);
    }
    emit(&t);

    let small = series.first().unwrap();
    let large = series.last().unwrap();
    check(
        "2D (1x8x8) beats 1D (1x64x1) at small messages (63 vs 14 hops dominate)",
        small[1] < small[0],
    );
    check(
        "2x8x4 is worse than 1x8x8 in the mid range (256KB): more data, same bottleneck ring",
        series[1][2] > series[1][1],
    );
    check(
        "adding the 3rd dimension (2x8x4) never helps over 1x8x8 beyond noise (>=256KB)",
        series[1..].iter().all(|v| v[2] as f64 > 0.95 * v[1] as f64),
    );
    check(
        "3D (4x4x4) beats 2x8x4 in the latency-bound region (worst-case hops go down)",
        small[3] < small[2],
    );
    check("4x4x4 beats 1x8x8 at small messages", small[3] < small[1]);
    check(
        "1x8x8 overtakes 4x4x4 at the largest size (bandwidth-bound: 28/8·N vs 36/8·N)",
        large[1] < large[3],
    );
    println!(
        "\nNote: in this pure-bandwidth analytical model the 1x64x1 ring wins at very large\n\
         messages on raw volume (126/64·N per node, fewest bytes); the paper's Garnet runs\n\
         keep 2D ahead across their sweep. See EXPERIMENTS.md."
    );
}
