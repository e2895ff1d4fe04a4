//! Logical vs physical topology mapping, and routing modes.
//!
//! §IV-B: the system layer "deals with the logical topology, that might be
//! completely different from the actual physical network topology". This
//! example maps a logical 3D torus onto progressively thinner physical
//! fabrics and measures how all-reduce suffers, then contrasts software
//! (store-and-forward) vs hardware (cut-through) packet routing on a
//! multi-hop all-to-all.
//!
//! ```text
//! cargo run --release --example logical_physical_mapping
//! ```

use astra_sim::network::RoutingMode;
use astra_sim::output::{fmt_bytes, fmt_time, Table};
use astra_sim::system::CollectiveRequest;
use astra_sim::{CoreError, OverlayConfig, SimConfig, Simulator, TopologyConfig};

fn torus_topo(l: usize, h: usize, v: usize) -> TopologyConfig {
    SimConfig::torus(l, h, v).topology
}

fn main() -> Result<(), CoreError> {
    let bytes = 1 << 20;

    // ---- logical 2x4x4 on three physical fabrics ----
    println!("== logical 2x4x4 torus (32 NPUs) mapped onto physical fabrics ==\n");
    let mut t = Table::new(vec!["physical fabric".into(), "all-reduce".into()]);
    let physicals: [(&str, Option<TopologyConfig>); 3] = [
        ("native (2x4x4)", None),
        ("2D torus (1x8x4... 2x16x1)", Some(torus_topo(2, 16, 1))),
        ("1D ring (1x32x1)", Some(torus_topo(1, 32, 1))),
    ];
    for (name, physical) in physicals {
        let mut cfg = SimConfig::torus(2, 4, 4);
        cfg.overlay = physical.map(|p| OverlayConfig {
            physical: p,
            permutation: None,
        });
        let out = Simulator::new(cfg)?.run_collective(CollectiveRequest::all_reduce(bytes))?;
        t.row(vec![name.into(), fmt_time(out.duration)]);
    }
    print!("{}", t.render());
    println!("thinner physical fabrics stretch logical neighbor-sends over more hops.\n");

    // ---- software vs hardware routing on multi-hop traffic ----
    println!("== packet routing: software (store-and-forward) vs hardware (cut-through) ==\n");
    let mut t = Table::new(vec!["size".into(), "software".into(), "hardware".into()]);
    for bytes in [2 << 10, 16 << 10, 256 << 10] {
        let mut row = vec![fmt_bytes(bytes)];
        for mode in [RoutingMode::Software, RoutingMode::Hardware] {
            let mut cfg = SimConfig::torus(1, 8, 1);
            cfg.network.routing = mode;
            cfg.system.set_splits = 1; // one chunk: expose per-hop latency
                                       // All-to-all on a ring sends distance-i messages: multi-hop,
                                       // where the routing mode matters.
            let out = Simulator::new(cfg)?.run_collective(CollectiveRequest::all_to_all(bytes))?;
            row.push(fmt_time(out.duration));
        }
        t.row(row);
    }
    print!("{}", t.render());
    println!(
        "cut-through pipelines hops instead of serializing at every relay NPU;\n\
         the gap is a latency effect, so it fades once links saturate."
    );
    Ok(())
}
