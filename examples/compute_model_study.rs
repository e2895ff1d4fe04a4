//! Study of the analytical NPU compute model (§IV-A's green box): how
//! dataflow choice, GEMM shape, and DRAM bandwidth shape per-layer delays.
//!
//! ```text
//! cargo run --release --example compute_model_study
//! ```

use astra_sim::compute::{ComputeModel, Dataflow, DramModel, Gemm, SystolicArray};
use astra_sim::des::Clock;
use astra_sim::output::Table;

fn main() {
    // 1. Dataflow comparison on representative training GEMMs.
    println!("== 256x256 systolic array: cycles by dataflow ==\n");
    let shapes = [
        ("ResNet conv1 (im2col)", Gemm::new(32 * 112 * 112, 147, 64)),
        ("ResNet conv3_1a", Gemm::new(32 * 56 * 56, 256, 128)),
        ("Transformer FFN1", Gemm::new(32 * 64, 512, 2048)),
        ("Classifier fc1000", Gemm::new(32, 2048, 1000)),
        ("Square 2048^3", Gemm::new(2048, 2048, 2048)),
    ];
    let mut t = Table::new(
        ["GEMM", "M", "K", "N", "WS", "OS", "IS", "WS util%"]
            .map(String::from)
            .to_vec(),
    );
    for (name, g) in shapes {
        let mut cells = vec![
            name.to_owned(),
            g.m.to_string(),
            g.k.to_string(),
            g.n.to_string(),
        ];
        for df in [
            Dataflow::WeightStationary,
            Dataflow::OutputStationary,
            Dataflow::InputStationary,
        ] {
            let arr = SystolicArray::new(256, 256, df);
            cells.push(arr.gemm_cycles(g).to_string());
        }
        let ws = SystolicArray::new(256, 256, Dataflow::WeightStationary);
        cells.push(format!("{:.1}", ws.utilization(g) * 100.0));
        t.row(cells);
    }
    print!("{}", t.render());
    println!("\nsmall-K/small-N layers underutilize a 256-wide array badly — the reason");
    println!("the bench harness calibrates compute power against SIGMA-class mapping.\n");

    // 2. DRAM roofline: where memory bandwidth, not the array, sets latency.
    println!("== DRAM roofline (fp16) ==\n");
    let mut t = Table::new(
        ["DRAM GB/s", "compute cyc", "stream cyc", "bound by"]
            .map(String::from)
            .to_vec(),
    );
    let g = Gemm::new(4096, 64, 4096); // skinny contraction: memory hungry
    let arr = SystolicArray::new(256, 256, Dataflow::WeightStationary);
    let compute = arr.gemm_cycles(g);
    for gbps in [100.0, 400.0, 900.0, 3200.0] {
        let dram = DramModel::new(gbps, 2, Clock::GHZ1);
        let stream = dram.stream_cycles(g);
        t.row(vec![
            format!("{gbps}"),
            compute.to_string(),
            stream.to_string(),
            if stream > compute {
                "memory"
            } else {
                "compute"
            }
            .into(),
        ]);
    }
    print!("{}", t.render());

    // 3. Compute-power scaling (Fig 18's knob): a `num/den`x faster NPU
    // takes `den/num` of the time, as `transform::scale_compute_power`
    // applies to a whole workload.
    println!("\n== compute power scaling (Fig 18's knob) ==\n");
    let base = ComputeModel::tpu_like_256().gemm_time(Gemm::new(32 * 56 * 56, 576, 64));
    for (label, num, den) in [
        ("0.5x", 1u64, 2u64),
        ("1x", 1, 1),
        ("2x", 2, 1),
        ("4x", 4, 1),
    ] {
        println!("  {label:>4}: {} cycles", base.scale(den, num).cycles());
    }
}
