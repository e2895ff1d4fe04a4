//! Framework-level workload transformations — the "framework" row of the
//! paper's design space (Fig 1: "fusion vs. splitting of messages, overlap
//! vs no overlap").
//!
//! [`fuse_weight_gradients`] implements gradient bucketing (PyTorch-DDP
//! style): consecutive layers' weight-gradient all-reduces are merged, in
//! back-propagation order, into buckets of at least `bucket_bytes`. Fewer,
//! larger collectives amortize per-collective latency; over-fusing delays
//! the first gradients and shrinks the overlap window — the classic
//! trade-off the `ablation_fusion` bench sweeps.
//!
//! [`scale_compute_power`] models a faster or slower NPU by scaling every
//! compute delay of a built workload — the knob Fig 18 sweeps.

use crate::{CommSpec, Workload};
use astra_collectives::CollectiveOp;

/// Fuses adjacent weight-gradient **all-reduce** collectives into buckets
/// of at least `bucket_bytes`, walking layers in back-propagation order
/// (last layer first). Each bucket's total size lands on the *earliest*
/// (in forward order) layer of the bucket — the layer whose next-iteration
/// forward pass must wait for it — preserving dependency correctness.
///
/// Layers whose weight-gradient collective is not an all-reduce flush the
/// current bucket and are left untouched; other communication (forward /
/// input-gradient) is never modified.
///
/// # Panics
///
/// Panics if `bucket_bytes == 0`.
///
/// # Example
///
/// ```
/// use astra_workload::{transform, zoo};
/// let base = zoo::resnet50(&astra_compute::ComputeModel::tpu_like_256(), 32);
/// let fused = transform::fuse_weight_gradients(&base, 25 << 20);
/// let n = |w: &astra_workload::Workload| {
///     w.layers.iter().filter(|l| l.wg_comm.is_some()).count()
/// };
/// assert!(n(&fused) < n(&base));
/// ```
pub fn fuse_weight_gradients(workload: &Workload, bucket_bytes: u64) -> Workload {
    assert!(bucket_bytes > 0, "bucket size must be positive");
    let mut out = workload.clone();
    let mut acc: u64 = 0;
    let mut bucket_start: Option<usize> = None; // index the bucket will land on
    let flush = |layers: &mut [crate::LayerSpec], at: Option<usize>, acc: u64| {
        if let (Some(idx), true) = (at, acc > 0) {
            layers[idx].wg_comm = Some(CommSpec::new(CollectiveOp::AllReduce, acc));
        }
    };
    for i in (0..out.layers.len()).rev() {
        match out.layers[i].wg_comm {
            Some(CommSpec {
                op: CollectiveOp::AllReduce,
                bytes,
            }) => {
                acc += bytes;
                out.layers[i].wg_comm = None;
                bucket_start = Some(i);
                if acc >= bucket_bytes {
                    flush(&mut out.layers, bucket_start, acc);
                    acc = 0;
                    bucket_start = None;
                }
            }
            _ => {
                // Non-all-reduce (or no) weight gradient: bucket boundary.
                flush(&mut out.layers, bucket_start, acc);
                acc = 0;
                bucket_start = None;
            }
        }
    }
    flush(&mut out.layers, bucket_start, acc);
    out
}

/// Scales every compute delay of a workload by `den/num` — i.e. `num/den`×
/// compute *power* (Fig 18's knob). Delays round up.
///
/// # Panics
///
/// Panics if `num == 0`.
pub fn scale_compute_power(mut wl: Workload, num: u64, den: u64) -> Workload {
    for l in &mut wl.layers {
        l.fwd_compute = l.fwd_compute.scale(den, num);
        l.ig_compute = l.ig_compute.scale(den, num);
        l.wg_compute = l.wg_compute.scale(den, num);
    }
    wl
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{zoo, LayerSpec, Parallelism};
    use astra_des::Time;

    fn mlp(sizes: &[u64]) -> Workload {
        Workload {
            name: "fuse-test".into(),
            parallelism: Parallelism::Data,
            layers: sizes
                .iter()
                .enumerate()
                .map(|(i, &b)| {
                    let mut l = LayerSpec::compute_only(
                        format!("l{i}"),
                        Time::from_cycles(10),
                        Time::from_cycles(10),
                        Time::from_cycles(10),
                    );
                    if b > 0 {
                        l.wg_comm = Some(CommSpec::new(CollectiveOp::AllReduce, b));
                    }
                    l
                })
                .collect(),
        }
    }

    fn wg_bytes(w: &Workload) -> Vec<u64> {
        w.layers
            .iter()
            .map(|l| l.wg_comm.map(|c| c.bytes).unwrap_or(0))
            .collect()
    }

    #[test]
    fn fusion_preserves_total_bytes() {
        let base = mlp(&[100, 200, 300, 400]);
        for bucket in [1, 250, 500, 10_000] {
            let fused = fuse_weight_gradients(&base, bucket);
            assert_eq!(
                wg_bytes(&fused).iter().sum::<u64>(),
                1000,
                "bucket {bucket}"
            );
        }
    }

    #[test]
    fn buckets_fill_in_backprop_order() {
        // Backprop order: 400, 300, 200, 100 with bucket 600:
        // bucket1 = 400+300 = 700 lands on layer 2; bucket2 = 200+100 = 300
        // (remainder) lands on layer 0.
        let fused = fuse_weight_gradients(&mlp(&[100, 200, 300, 400]), 600);
        assert_eq!(wg_bytes(&fused), vec![300, 0, 700, 0]);
    }

    #[test]
    fn tiny_bucket_is_identity() {
        let base = mlp(&[100, 200, 300]);
        assert_eq!(
            wg_bytes(&fuse_weight_gradients(&base, 1)),
            vec![100, 200, 300]
        );
    }

    #[test]
    fn huge_bucket_fuses_everything_onto_first_layer() {
        let fused = fuse_weight_gradients(&mlp(&[100, 200, 300]), u64::MAX);
        assert_eq!(wg_bytes(&fused), vec![600, 0, 0]);
    }

    #[test]
    fn non_all_reduce_layers_are_boundaries() {
        let mut base = mlp(&[100, 0, 300]);
        base.layers[1].wg_comm = Some(CommSpec::new(CollectiveOp::ReduceScatter, 50));
        let fused = fuse_weight_gradients(&base, u64::MAX);
        // Layer 2 flushes alone (boundary at layer 1), layer 0 alone.
        assert_eq!(wg_bytes(&fused), vec![100, 50, 300]);
        assert_eq!(
            fused.layers[1].wg_comm.unwrap().op,
            CollectiveOp::ReduceScatter
        );
    }

    #[test]
    fn fused_resnet_still_trains() {
        use astra_network::NetworkConfig;
        use astra_system::{BackendKind, SystemConfig, SystemSim};
        use astra_topology::LogicalTopology;
        let base = zoo::resnet50(&astra_compute::ComputeModel::tpu_like_256(), 32);
        let fused = fuse_weight_gradients(&base, 25 << 20);
        assert!(fused.validate().is_ok());
        let sim = SystemSim::new(
            LogicalTopology::torus(2, 2, 1, 1, 1, 1).unwrap(),
            SystemConfig::default(),
            &NetworkConfig::default(),
            BackendKind::Analytical,
        );
        let report = crate::TrainingRunner::new(sim, fused, 1)
            .unwrap()
            .run()
            .unwrap();
        assert!(report.total_time > Time::ZERO);
        // Bucketed layers report zero comm; bucket holders report it all.
        assert!(report.layers.iter().any(|l| l.wg_comm > Time::ZERO));
        assert!(report.layers.iter().any(|l| l.wg_comm == Time::ZERO));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_bucket_panics() {
        fuse_weight_gradients(&mlp(&[1]), 0);
    }
}
