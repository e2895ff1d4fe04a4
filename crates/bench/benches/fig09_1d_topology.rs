//! Fig 9 — 1D topology: alltoall vs. Torus comparison.
//!
//! 8 NAPs, 1 NAM each. "Each NAM has 8 links with one link per peer NAM for
//! alltoall topology (through 7 global switches, leaving 1 link unused) and
//! four links per peer NAM for Torus topology (1D ring)." (§V-A)
//!
//! The figure is a 2 ops × 6 sizes × 2 topologies grid, run through the
//! parallel sweep engine; the series land in `target/BENCH_fig09_*.json`.
//!
//! Paper claims reproduced:
//! * all-to-all collective: the alltoall topology always outperforms the
//!   torus;
//! * all-reduce: the torus overtakes the alltoall topology as the message
//!   size grows (8 usable links vs 7, better pipelining).

use astra_bench::{check, emit, header, run_grid, SIZE_SWEEP};
use astra_collectives::CollectiveOp;
use astra_core::output::{fmt_bytes, Table};
use astra_core::{Experiment, SimConfig};
use astra_sweep::{Axis, SweepSpec};

fn main() {
    header("Fig 9", "1D topology: 1x8 alltoall vs 1x8x1 torus");
    // 4 links per ring neighbor = 4 bidirectional rings; 7 global switches
    // leave one of 8 links unused on the alltoall fabric.
    let base = SimConfig::torus(1, 8, 1)
        .local_rings(1)
        .horizontal_rings(4)
        .vertical_rings(1);
    let a2a = SimConfig::alltoall(1, 8, 7).local_rings(1).topology;
    let torus = base.topology.clone();

    let spec = SweepSpec::new("fig09_1d_topology", base, Experiment::all_reduce(1 << 20))
        .axis(Axis::Ops(vec![
            CollectiveOp::AllReduce,
            CollectiveOp::AllToAll,
        ]))
        .axis(Axis::MessageSizes(SIZE_SWEEP.to_vec()))
        .axis(Axis::Topologies(vec![a2a, torus]));
    let report = run_grid(spec);
    // Grid order: op outermost, size next, topology fastest (alltoall,
    // then torus).
    let cell = |op: usize, size: usize, topo: usize| {
        report.duration_cycles((op * SIZE_SWEEP.len() + size) * 2 + topo)
    };

    let mut t = Table::new(
        ["collective", "size", "alltoall_cycles", "torus_cycles"]
            .map(String::from)
            .to_vec(),
    );
    let mut rows: Vec<(&str, u64, u64, u64)> = Vec::new();
    for (oi, name) in ["all-reduce", "all-to-all"].into_iter().enumerate() {
        for (si, bytes) in SIZE_SWEEP.into_iter().enumerate() {
            let ta = cell(oi, si, 0);
            let tt = cell(oi, si, 1);
            t.row(vec![
                name.into(),
                fmt_bytes(bytes),
                ta.to_string(),
                tt.to_string(),
            ]);
            rows.push((name, bytes, ta, tt));
        }
    }
    emit(&t);

    let a2a_rows: Vec<_> = rows.iter().filter(|r| r.0 == "all-to-all").collect();
    check(
        "all-to-all collective: alltoall topology wins at every size",
        a2a_rows.iter().all(|r| r.2 < r.3),
    );
    let ar_rows: Vec<_> = rows.iter().filter(|r| r.0 == "all-reduce").collect();
    check(
        "all-reduce: torus wins at the largest message size",
        ar_rows.last().unwrap().3 < ar_rows.last().unwrap().2,
    );
    check(
        "all-reduce: torus's relative advantage grows with message size",
        {
            let first = ar_rows.first().unwrap();
            let last = ar_rows.last().unwrap();
            (last.3 as f64 / last.2 as f64) < (first.3 as f64 / first.2 as f64)
        },
    );
}
