//! Topology co-design study: how fabric shape changes collective latency.
//!
//! A compact version of the paper's §V-A/B analysis: compares the 1D
//! alltoall against the 1D torus (Fig 9), then sweeps 2D/3D torus shapes at
//! 64 packages (Fig 10), for both all-reduce and all-to-all.
//!
//! ```text
//! cargo run --release --example topology_study
//! ```

use astra_sim::output::{fmt_bytes, fmt_time, Table};
use astra_sim::system::CollectiveRequest;
use astra_sim::{CoreError, SimConfig, Simulator};

fn torus(local: usize, horizontal: usize, vertical: usize, bi_rings: usize) -> SimConfig {
    SimConfig::torus(local, horizontal, vertical)
        .horizontal_rings(bi_rings)
        .vertical_rings(bi_rings)
}

fn main() -> Result<(), CoreError> {
    let sizes = [64 << 10, 1 << 20, 16 << 20];

    // ---- Fig 9 flavor: 8 NAPs as alltoall vs 1D ring ----
    println!("== 1D topology: 1x8 alltoall vs 1x8x1 torus (8 links/NAM) ==\n");
    let fabrics = [
        (
            "1x8 alltoall",
            Simulator::new(SimConfig::alltoall(1, 8, 7))?,
        ),
        ("1x8x1 torus", Simulator::new(torus(1, 8, 1, 4))?),
    ];
    let mut t = Table::new(vec![
        "collective".into(),
        "size".into(),
        fabrics[0].0.into(),
        fabrics[1].0.into(),
    ]);
    for (op, make) in [
        ("all-reduce", CollectiveRequest::all_reduce as fn(u64) -> _),
        ("all-to-all", CollectiveRequest::all_to_all as fn(u64) -> _),
    ] {
        for bytes in sizes {
            let mut cells = vec![op.to_owned(), fmt_bytes(bytes)];
            for (_, sim) in &fabrics {
                cells.push(fmt_time(sim.run_collective(make(bytes))?.duration));
            }
            t.row(cells);
        }
    }
    print!("{}", t.render());

    // ---- Fig 10 flavor: 64 packages, 1D vs 2D vs 3D ----
    println!("\n== 64 packages: torus dimensionality (all-reduce, baseline) ==\n");
    let shapes = [(1, 64, 1), (1, 8, 8), (2, 8, 4), (4, 4, 4)];
    let mut t = Table::new(vec![
        "size".into(),
        "1x64x1".into(),
        "1x8x8".into(),
        "2x8x4".into(),
        "4x4x4".into(),
    ]);
    for bytes in sizes {
        let mut cells = vec![fmt_bytes(bytes)];
        for &(m, n, k) in &shapes {
            let sim = Simulator::new(torus(m, n, k, 2))?;
            cells.push(fmt_time(
                sim.run_collective(CollectiveRequest::all_reduce(bytes))?
                    .duration,
            ));
        }
        t.row(cells);
    }
    print!("{}", t.render());
    println!(
        "\nNote the paper's shape: 2D >> 1D; 2x8x4 loses to 1x8x8; 4x4x4 wins at small sizes."
    );
    Ok(())
}
