//! Fig 11 — Impact of asymmetric hierarchical topology.
//!
//! 64 modules: 4 NAMs per NAP × 16 NAPs as a 4x4x4 torus, "two
//! uni-directional rings within the package and four bi-directional rings
//! across packages" (§V-C). Symmetric = local links same 25 GB/s as
//! inter-package; asymmetric = local links 8× (200 GB/s, Table IV).
//!
//! Paper claims reproduced:
//! * switching symmetric → asymmetric improves all-reduce and all-to-all
//!   significantly (fast local rings feed the inter-package links);
//! * the 4-phase (enhanced) algorithm further improves the asymmetric
//!   all-reduce by cutting inter-package volume 4×.

use astra_bench::{check, collective_cycles, emit, header, SIZE_SWEEP};
use astra_collectives::Algorithm;
use astra_core::output::{fmt_bytes, Table};
use astra_core::SimConfig;
use astra_system::CollectiveRequest;

fn main() {
    header(
        "Fig 11",
        "64 modules (4 NAM/NAP x 16 NAP, 4x4x4): symmetric vs asymmetric vs 4-phase",
    );
    let sym = SimConfig::torus(4, 4, 4).symmetric_links();
    let asym = SimConfig::torus(4, 4, 4);
    let mut asym_enh = asym.clone();
    asym_enh.system.algorithm = Algorithm::Enhanced;

    let mut t = Table::new(
        [
            "collective",
            "size",
            "sym_baseline",
            "asym_baseline",
            "asym_enhanced",
        ]
        .map(String::from)
        .to_vec(),
    );
    let mut ar: Vec<[u64; 3]> = Vec::new();
    let mut a2a: Vec<[u64; 2]> = Vec::new();
    for bytes in SIZE_SWEEP {
        let s = collective_cycles(&sym, CollectiveRequest::all_reduce(bytes));
        let a = collective_cycles(&asym, CollectiveRequest::all_reduce(bytes));
        let e = collective_cycles(&asym_enh, CollectiveRequest::all_reduce(bytes));
        t.row(vec![
            "all-reduce".into(),
            fmt_bytes(bytes),
            s.to_string(),
            a.to_string(),
            e.to_string(),
        ]);
        ar.push([s, a, e]);
    }
    for bytes in SIZE_SWEEP {
        let s = collective_cycles(&sym, CollectiveRequest::all_to_all(bytes));
        let a = collective_cycles(&asym, CollectiveRequest::all_to_all(bytes));
        t.row(vec![
            "all-to-all".into(),
            fmt_bytes(bytes),
            s.to_string(),
            a.to_string(),
            "-".into(),
        ]);
        a2a.push([s, a]);
    }
    emit(&t);

    check(
        "asymmetric (8x local BW) beats symmetric for all-reduce at every size",
        ar.iter().all(|v| v[1] < v[0]),
    );
    check(
        "the 4-phase enhanced algorithm further beats the asymmetric baseline at every size",
        ar.iter().all(|v| v[2] < v[1]),
    );
    check(
        "asymmetric beats symmetric for all-to-all at every size",
        a2a.iter().all(|v| v[1] < v[0]),
    );
    let last = ar.last().unwrap();
    check(
        "at large messages the enhanced algorithm saves >= 30% over the 3-phase baseline",
        (last[2] as f64) < 0.7 * last[1] as f64,
    );
}
