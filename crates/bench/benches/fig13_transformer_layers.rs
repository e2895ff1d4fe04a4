//! Fig 13 — Transformer layer-wise total raw communication time.
//!
//! Two training iterations of the Transformer on a 2x2x2 torus,
//! hybrid-parallel (data-parallel across local+horizontal, model-parallel
//! across vertical), LIFO scheduling, local minibatch 32 (§V-E).
//!
//! Paper claims reproduced:
//! * the six structurally identical encoder layers show uniform
//!   communication time — the strict dependencies of hybrid parallelism
//!   serialize each layer's collectives;
//! * layers can lack some communications entirely depending on type (the
//!   embedding layer here only all-reduces weight gradients).

use astra_bench::{check, emit, header, training};
use astra_compute::ComputeModel;
use astra_core::output::Table;
use astra_core::SimConfig;
use astra_des::Time;
use astra_workload::zoo;

fn main() {
    header(
        "Fig 13",
        "Transformer, 2x2x2 torus, hybrid parallel, LIFO, minibatch 32, 2 passes",
    );
    let cfg = SimConfig::torus(2, 2, 2);
    let report = training(&cfg, zoo::transformer(&ComputeModel::tpu_like_256(), 32, 64));

    let mut t = Table::new(
        ["layer", "fwd_comm", "ig_comm", "wg_comm", "total_comm"]
            .map(String::from)
            .to_vec(),
    );
    for l in &report.layers {
        t.row(vec![
            l.name.clone(),
            l.fwd_comm.cycles().to_string(),
            l.ig_comm.cycles().to_string(),
            l.wg_comm.cycles().to_string(),
            l.total_comm().cycles().to_string(),
        ]);
    }
    emit(&t);

    let encoders: Vec<Time> = report
        .layers
        .iter()
        .filter(|l| l.name.starts_with("encoder"))
        .map(|l| l.total_comm())
        .collect();
    assert_eq!(encoders.len(), 6, "transformer has 6 encoder layers");
    let max = encoders.iter().map(|t| t.cycles()).max().unwrap() as f64;
    let min = encoders.iter().map(|t| t.cycles()).min().unwrap() as f64;
    check(
        "communication time is uniform across the 6 identical encoder layers (<20% spread)",
        max / min < 1.20,
    );
    let blocking: Vec<(Time, Time)> = report
        .layers
        .iter()
        .filter(|l| l.name.starts_with("encoder"))
        .map(|l| (l.fwd_comm, l.ig_comm))
        .collect();
    check(
        "blocking activation / input-gradient collectives are exactly uniform (strict dependencies)",
        blocking.windows(2).all(|w| w[0] == w[1]),
    );
    check(
        "the embedding layer has no activation communication (layer-type dependent comms)",
        report.layers[0].fwd_comm == Time::ZERO && report.layers[0].ig_comm == Time::ZERO,
    );
    check(
        "every encoder layer communicates in all three phases",
        report
            .layers
            .iter()
            .filter(|l| l.name.starts_with("encoder"))
            .all(|l| {
                l.fwd_comm > Time::ZERO && l.ig_comm > Time::ZERO && l.wg_comm > Time::ZERO
            }),
    );
}
