//! Ablation — per-dimension collective algorithm: ring vs direct vs
//! halving-doubling.
//!
//! The paper fixes ring on ring dimensions and direct on the switch
//! dimension; the upstream ASTRA-sim project also ships halving-doubling.
//! This ablation compares the three on the 1×8 switch fabric (7 switches,
//! Fig 9's alltoall) and ring vs HD on the 1×8×1 torus, across message
//! sizes, for all-reduce.
//!
//! Checks:
//! * all three algorithms move the same bandwidth-optimal volume
//!   (2(n−1)/n per node) — completion differences are pure scheduling;
//! * on the torus, ring beats halving-doubling at large sizes: XOR
//!   partners average n/2 software-routed hops, ring neighbors one.

use astra_bench::{check, emit, header, SIZE_SWEEP};
use astra_collectives::IntraAlgo;
use astra_core::output::{fmt_bytes, Table};
use astra_core::{SimConfig, Simulator};
use astra_system::CollectiveRequest;

fn run(cfg: &SimConfig, intra: IntraAlgo, bytes: u64) -> (u64, u64) {
    let mut cfg = cfg.clone();
    cfg.system.intra_algo = intra;
    let out = Simulator::new(cfg)
        .expect("valid config")
        .run_collective(CollectiveRequest::all_reduce(bytes))
        .expect("completes");
    (out.duration.cycles(), out.network.payload_bytes)
}

fn main() {
    header(
        "Ablation",
        "intra-dimension algorithm: direct vs halving-doubling (1x8@7) and ring vs HD (1x8x1)",
    );
    let switch_fabric = SimConfig::alltoall(1, 8, 7).local_rings(1);
    let torus = SimConfig::torus(1, 8, 1)
        .local_rings(1)
        .horizontal_rings(4)
        .vertical_rings(1);

    let mut t = Table::new(
        ["size", "switch_direct", "switch_hd", "torus_ring", "torus_hd"]
            .map(String::from)
            .to_vec(),
    );
    let mut rows = Vec::new();
    for bytes in SIZE_SWEEP {
        let (sd, sd_bytes) = run(&switch_fabric, IntraAlgo::Auto, bytes);
        let (sh, sh_bytes) = run(&switch_fabric, IntraAlgo::HalvingDoubling, bytes);
        let (tr, _) = run(&torus, IntraAlgo::Auto, bytes);
        let (th, _) = run(&torus, IntraAlgo::HalvingDoubling, bytes);
        t.row(vec![
            fmt_bytes(bytes),
            sd.to_string(),
            sh.to_string(),
            tr.to_string(),
            th.to_string(),
        ]);
        rows.push((sd, sh, tr, th, sd_bytes, sh_bytes));
    }
    emit(&t);

    check(
        "direct and halving-doubling move the same volume on the switch fabric",
        rows.iter().all(|r| {
            let ratio = r.4 as f64 / r.5 as f64;
            (0.95..1.05).contains(&ratio)
        }),
    );
    check(
        "ring beats halving-doubling on the torus at the largest size (1 vs n/2 hops)",
        rows.last().unwrap().2 < rows.last().unwrap().3,
    );
    check(
        "every variant completes within 10x of the best at every size (sanity)",
        rows.iter().all(|r| {
            let best = r.0.min(r.1).min(r.2).min(r.3) as f64;
            [r.0, r.1, r.2, r.3].iter().all(|&v| (v as f64) < 10.0 * best)
        }),
    );
}
