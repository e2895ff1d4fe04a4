//! Ablation — dispatcher threshold `T` and batch `P` (§IV-B / §V-F).
//!
//! The dispatcher issues `P` chunks whenever fewer than `T` chunks remain
//! in the first phase. With many chunks (64 splits here), a tiny
//! threshold/batch strangles concurrency; the paper's T=8/P=16 keeps the
//! fabric fed.
//!
//! Checks:
//! * the paper's T=8/P=16 beats a fully serialized dispatcher (T=1/P=1);
//! * an effectively unbounded dispatcher is no better than T=8/P=16 by a
//!   large margin (the threshold exists to bound resource use, not to gain
//!   speed).

use astra_bench::{check, collective_cycles, emit, header};
use astra_collectives::Algorithm;
use astra_core::output::Table;
use astra_core::SimConfig;
use astra_system::CollectiveRequest;

fn main() {
    header(
        "Ablation",
        "dispatcher T/P sweep (16MB all-reduce, 64 chunks, 4x4x4 asymmetric)",
    );
    let bytes = 16 << 20;
    let mut t = Table::new(["T", "P", "cycles"].map(String::from).to_vec());
    let mut results = Vec::new();
    for (threshold, batch) in [
        (1usize, 1usize),
        (2, 4),
        (4, 8),
        (8, 16),
        (16, 32),
        (64, 64),
    ] {
        let mut cfg = SimConfig::torus(4, 4, 4).algorithm(Algorithm::Enhanced);
        cfg.system.set_splits = 64;
        cfg.system.dispatcher_threshold = threshold;
        cfg.system.dispatcher_batch = batch;
        let cycles = collective_cycles(&cfg, CollectiveRequest::all_reduce(bytes));
        t.row(vec![
            threshold.to_string(),
            batch.to_string(),
            cycles.to_string(),
        ]);
        results.push(cycles);
    }
    emit(&t);

    check(
        "the paper's T=8/P=16 beats the serialized dispatcher T=1/P=1",
        results[3] < results[0],
    );
    check(
        "an unbounded dispatcher gains < 10% over T=8/P=16",
        (results[3] as f64) < 1.1 * results[5] as f64,
    );
}
