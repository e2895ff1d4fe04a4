//! Ablation — chunking (`preferred-set-splits`, Table III row 16).
//!
//! DESIGN.md calls out chunk pipelining as a load-bearing design choice:
//! the set is split into chunks "and begins processing & scheduling of each
//! chunk individually and in a pipelined manner" (§IV-A). This ablation
//! sweeps the split count for a 16 MiB all-reduce on the asymmetric 4x4x4
//! fabric with the 4-phase algorithm, where pipelining lets the local
//! all-gather of early chunks overlap the inter-package phases of later
//! ones.
//!
//! Checks:
//! * multiple chunks beat a single monolithic chunk;
//! * returns diminish: going 16 -> 64 chunks changes little.

use astra_bench::{check, collective_cycles, emit, header};
use astra_collectives::Algorithm;
use astra_core::output::Table;
use astra_core::SimConfig;
use astra_system::CollectiveRequest;

fn main() {
    header(
        "Ablation",
        "preferred-set-splits sweep (16MB all-reduce, 4x4x4 asymmetric, 4-phase)",
    );
    let bytes = 16 << 20;
    let mut t = Table::new(["set_splits", "cycles"].map(String::from).to_vec());
    let mut series = Vec::new();
    for splits in [1u32, 2, 4, 8, 16, 32, 64] {
        let mut cfg = SimConfig::torus(4, 4, 4).algorithm(Algorithm::Enhanced);
        cfg.system.set_splits = splits;
        let cycles = collective_cycles(&cfg, CollectiveRequest::all_reduce(bytes));
        t.row(vec![splits.to_string(), cycles.to_string()]);
        series.push(cycles);
    }
    emit(&t);

    check(
        "16 chunks beat a single monolithic chunk (pipelining across phases)",
        series[4] < series[0],
    );
    check(
        "returns diminish: the speedup from 1 -> 4 chunks exceeds that from 16 -> 64",
        (series[0] as f64 / series[2] as f64) > (series[4] as f64 / series[6] as f64),
    );
    check(
        "more chunks never hurt across the sweep",
        series.windows(2).all(|w| w[1] <= w[0]),
    );
}
