//! Fig 14 — ResNet-50 layer-wise total raw communication time.
//!
//! Two training iterations on a 2x4x4 torus, data-parallel, LIFO, local
//! minibatch 32 (§V-E): only weight gradients are communicated, during
//! back-propagation, and collectives across layers overlap.
//!
//! Checks:
//! * every layer's communication is a weight-gradient all-reduce only;
//! * communication time tracks the layer's gradient volume: the largest
//!   convolutions cost more than the smallest;
//! * unlike the hybrid-parallel Transformer, layer comm times are *not*
//!   uniform — they follow parameter counts.

use astra_bench::{calibrated_resnet50, check, emit, header, training};
use astra_core::output::Table;
use astra_core::SimConfig;
use astra_des::Time;

fn main() {
    header(
        "Fig 14",
        "ResNet-50, 2x4x4 torus, data parallel, LIFO, minibatch 32, 2 passes",
    );
    let cfg = SimConfig::torus(2, 4, 4);
    let workload = calibrated_resnet50();
    let grad_bytes: Vec<u64> = workload.layers.iter().map(|l| l.comm_bytes()).collect();
    let report = training(&cfg, workload);

    let mut t = Table::new(
        ["layer", "grad_bytes", "wg_comm_cycles"]
            .map(String::from)
            .to_vec(),
    );
    for (l, &g) in report.layers.iter().zip(&grad_bytes) {
        t.row(vec![
            l.name.clone(),
            g.to_string(),
            l.wg_comm.cycles().to_string(),
        ]);
    }
    emit(&t);

    check(
        "all communication is weight-gradient only (data parallelism, Table I)",
        report
            .layers
            .iter()
            .all(|l| l.fwd_comm == Time::ZERO && l.ig_comm == Time::ZERO && l.wg_comm > Time::ZERO),
    );
    let heaviest = grad_bytes
        .iter()
        .enumerate()
        .max_by_key(|(_, &g)| g)
        .unwrap()
        .0;
    let lightest = grad_bytes
        .iter()
        .enumerate()
        .min_by_key(|(_, &g)| g)
        .unwrap()
        .0;
    check(
        "the heaviest-gradient layer spends more comm time than the lightest",
        report.layers[heaviest].wg_comm > report.layers[lightest].wg_comm,
    );
    let times: Vec<u64> = report.layers.iter().map(|l| l.wg_comm.cycles()).collect();
    let max = *times.iter().max().unwrap() as f64;
    let min = *times.iter().min().unwrap() as f64;
    check(
        "layer comm times are non-uniform (contrast with Fig 13): >2x spread",
        max / min > 2.0,
    );
}
