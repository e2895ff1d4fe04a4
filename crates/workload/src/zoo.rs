//! Built-in workloads: the models the paper evaluates (§V-E/F) plus small
//! test models.
//!
//! Compute delays come from an [`astra_compute::ComputeModel`] — the paper's
//! "analytical DNN accelerator simulator to model a 256x256 TPU-like
//! Systolic Array" — by mapping every layer to its forward GEMM and deriving
//! the two backward GEMMs. Communication sizes follow Table I:
//! data-parallel layers all-reduce their weight gradients (bytes = params ×
//! dtype); model/hybrid-parallel layers also all-gather activations forward
//! and all-reduce input gradients backward.

use crate::{CommSpec, LayerSpec, Parallelism, Workload};
use astra_collectives::CollectiveOp;
use astra_compute::{ComputeModel, Gemm};
use astra_des::Time;
use astra_topology::Dim;
use std::fmt;

/// Bytes per tensor element (fp32, giving ResNet-50 its familiar ~100 MB of
/// gradients).
pub const DTYPE_BYTES: u64 = 4;

/// Default local-update (reduction) cost per KiB of received data.
const UPDATE_PER_KB: Time = Time::from_cycles(2);

/// The largest per-NPU minibatch [`by_name`] builds a model for.
pub const MAX_MINIBATCH: u64 = 1 << 16;

/// Why [`by_name`] built no model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ZooError {
    /// No built-in model has this name.
    UnknownModel(String),
    /// The minibatch is zero or above [`MAX_MINIBATCH`].
    Minibatch(u64),
}

impl fmt::Display for ZooError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ZooError::UnknownModel(name) => write!(f, "unknown model '{name}'"),
            ZooError::Minibatch(n) => write!(
                f,
                "minibatch {n} is out of range: a model takes 1 to {MAX_MINIBATCH} samples per NPU"
            ),
        }
    }
}

impl std::error::Error for ZooError {}

/// Builds the built-in model `name` (`resnet50`, `vgg16`, `transformer`,
/// `gpt`, `dlrm` or `tiny_mlp`) at `minibatch` samples per NPU, with
/// compute times from the paper's 256x256 TPU-like accelerator.
///
/// # Errors
///
/// [`ZooError::Minibatch`] for a minibatch of zero or above
/// [`MAX_MINIBATCH`] (whatever the model), and [`ZooError::UnknownModel`]
/// for any other name.
pub fn by_name(name: &str, minibatch: u64) -> Result<Workload, ZooError> {
    if !(1..=MAX_MINIBATCH).contains(&minibatch) {
        return Err(ZooError::Minibatch(minibatch));
    }
    let model = ComputeModel::tpu_like_256();
    Ok(match name {
        "resnet50" => resnet50(&model, minibatch),
        "vgg16" => vgg16(&model, minibatch),
        "transformer" => transformer(&model, minibatch, 64),
        "gpt" => gpt_decoder(&model, minibatch, 128, 1024, 12),
        "dlrm" => dlrm(&model, minibatch),
        "tiny_mlp" => tiny_mlp(),
        other => return Err(ZooError::UnknownModel(other.into())),
    })
}

/// A 3-layer data-parallel MLP with hand-picked delays — fast to simulate,
/// used by tests and the quickstart example.
pub fn tiny_mlp() -> Workload {
    let layer = |name: &str, compute: u64, params_bytes: u64| LayerSpec {
        name: name.into(),
        fwd_compute: Time::from_cycles(compute),
        fwd_comm: None,
        ig_compute: Time::from_cycles(compute),
        ig_comm: None,
        wg_compute: Time::from_cycles(compute),
        wg_comm: Some(CommSpec::new(CollectiveOp::AllReduce, params_bytes)),
        local_update_per_kb: UPDATE_PER_KB,
    };
    Workload {
        name: "tiny_mlp".into(),
        parallelism: Parallelism::Data,
        layers: vec![
            layer("fc1", 2_000, 64 << 10),
            layer("fc2", 4_000, 256 << 10),
            layer("fc3", 1_000, 32 << 10),
        ],
    }
}

/// A 2-layer hybrid-parallel test model (data over local+horizontal, model
/// over vertical) exercising blocking activation collectives.
pub fn tiny_hybrid() -> Workload {
    let layer = |name: &str| LayerSpec {
        name: name.into(),
        fwd_compute: Time::from_cycles(3_000),
        fwd_comm: Some(CommSpec::new(CollectiveOp::AllGather, 32 << 10)),
        ig_compute: Time::from_cycles(3_000),
        ig_comm: Some(CommSpec::new(CollectiveOp::AllReduce, 32 << 10)),
        wg_compute: Time::from_cycles(3_000),
        wg_comm: Some(CommSpec::new(CollectiveOp::AllReduce, 128 << 10)),
        local_update_per_kb: UPDATE_PER_KB,
    };
    Workload {
        name: "tiny_hybrid".into(),
        parallelism: Parallelism::Hybrid {
            data_dims: vec![Dim::Local, Dim::Horizontal],
            model_dims: vec![Dim::Vertical],
        },
        layers: vec![layer("block1"), layer("block2")],
    }
}

/// One convolution described in network terms.
struct ConvDef {
    name: String,
    cin: u64,
    cout: u64,
    kernel: u64,
    stride: u64,
    in_hw: u64,
}

impl ConvDef {
    fn out_hw(&self) -> u64 {
        self.in_hw / self.stride
    }

    fn gemm(&self, minibatch: u64) -> Gemm {
        // im2col: M = B*Ho*Wo, K = Cin*kh*kw, N = Cout.
        Gemm::new(
            minibatch * self.out_hw() * self.out_hw(),
            self.cin * self.kernel * self.kernel,
            self.cout,
        )
    }

    fn params(&self) -> u64 {
        self.cin * self.kernel * self.kernel * self.cout
    }
}

fn data_parallel_layer(model: &ComputeModel, name: String, gemm: Gemm, params: u64) -> LayerSpec {
    let t = model.layer_timing(gemm);
    LayerSpec {
        name,
        fwd_compute: t.forward,
        fwd_comm: None,
        ig_compute: t.input_grad,
        ig_comm: None,
        wg_compute: t.weight_grad,
        wg_comm: Some(CommSpec::new(CollectiveOp::AllReduce, params * DTYPE_BYTES)),
        local_update_per_kb: UPDATE_PER_KB,
    }
}

/// ResNet-50 \[16\] under data parallelism: 53 convolutions plus the final
/// fully-connected layer, each all-reducing its weight gradients during
/// back-propagation (the Fig 14/15/16 workload).
pub fn resnet50(model: &ComputeModel, minibatch: u64) -> Workload {
    let mut convs: Vec<ConvDef> = vec![ConvDef {
        name: "conv1".into(),
        cin: 3,
        cout: 64,
        kernel: 7,
        stride: 2,
        in_hw: 224,
    }];
    // (blocks, mid channels, out channels, input spatial size after pooling)
    let stages: [(u64, u64, u64, u64); 4] = [
        (3, 64, 256, 56),
        (4, 128, 512, 56),
        (6, 256, 1024, 28),
        (3, 512, 2048, 14),
    ];
    let mut cin = 64;
    for (s, &(blocks, mid, cout, in_hw)) in stages.iter().enumerate() {
        for b in 0..blocks {
            // First block of stages 3-5 downsamples spatially.
            let stride = if s > 0 && b == 0 { 2 } else { 1 };
            let hw = if b == 0 { in_hw } else { in_hw / stride.max(1) };
            let hw_mid = hw / stride;
            let tag = format!("conv{}_{}", s + 2, b + 1);
            convs.push(ConvDef {
                name: format!("{tag}a"),
                cin,
                cout: mid,
                kernel: 1,
                stride: 1,
                in_hw: hw,
            });
            convs.push(ConvDef {
                name: format!("{tag}b"),
                cin: mid,
                cout: mid,
                kernel: 3,
                stride,
                in_hw: hw,
            });
            convs.push(ConvDef {
                name: format!("{tag}c"),
                cin: mid,
                cout,
                kernel: 1,
                stride: 1,
                in_hw: hw_mid,
            });
            cin = cout;
        }
    }
    let mut layers: Vec<LayerSpec> = convs
        .iter()
        .map(|c| data_parallel_layer(model, c.name.clone(), c.gemm(minibatch), c.params()))
        .collect();
    // Final classifier: 2048 -> 1000.
    layers.push(data_parallel_layer(
        model,
        "fc1000".into(),
        Gemm::new(minibatch, 2048, 1000),
        2048 * 1000,
    ));
    Workload {
        name: "resnet50".into(),
        parallelism: Parallelism::Data,
        layers,
    }
}

/// The Transformer \[8\] (base: 6 encoder layers, d_model 512, d_ff 2048)
/// under hybrid parallelism: data-parallel across the local and horizontal
/// dimensions, model-parallel across the vertical dimension (§V-E, the
/// Fig 13 workload).
pub fn transformer(model: &ComputeModel, minibatch: u64, seq: u64) -> Workload {
    let d: u64 = 512;
    let ff: u64 = 2048;
    let tokens = minibatch * seq;
    let act_bytes = tokens * d * DTYPE_BYTES;

    // Per-encoder-layer GEMM work: Q,K,V and output projections (4 d x d)
    // plus the two FFN matrices (d x ff, ff x d).
    let qkv = model.layer_timing(Gemm::new(tokens, d, 3 * d));
    let proj = model.layer_timing(Gemm::new(tokens, d, d));
    let ffn1 = model.layer_timing(Gemm::new(tokens, d, ff));
    let ffn2 = model.layer_timing(Gemm::new(tokens, ff, d));
    let params = (4 * d * d + 2 * d * ff) * DTYPE_BYTES;

    let mut layers = vec![LayerSpec {
        // Embedding lookup: negligible GEMM work, weight gradients
        // all-reduced over the data-parallel dims only.
        name: "embedding".into(),
        fwd_compute: Time::from_cycles(1_000),
        fwd_comm: None,
        ig_compute: Time::ZERO,
        ig_comm: None,
        wg_compute: Time::from_cycles(1_000),
        wg_comm: Some(CommSpec::new(
            CollectiveOp::AllReduce,
            32_768 * d * DTYPE_BYTES / 8,
        )),
        local_update_per_kb: UPDATE_PER_KB,
    }];
    for i in 1..=6 {
        layers.push(LayerSpec {
            name: format!("encoder{i}"),
            fwd_compute: qkv.forward + proj.forward + ffn1.forward + ffn2.forward,
            fwd_comm: Some(CommSpec::new(CollectiveOp::AllGather, act_bytes)),
            ig_compute: qkv.input_grad + proj.input_grad + ffn1.input_grad + ffn2.input_grad,
            ig_comm: Some(CommSpec::new(CollectiveOp::AllReduce, act_bytes)),
            wg_compute: qkv.weight_grad + proj.weight_grad + ffn1.weight_grad + ffn2.weight_grad,
            wg_comm: Some(CommSpec::new(CollectiveOp::AllReduce, params)),
            local_update_per_kb: UPDATE_PER_KB,
        });
    }
    Workload {
        name: "transformer".into(),
        parallelism: Parallelism::Hybrid {
            data_dims: vec![Dim::Local, Dim::Horizontal],
            model_dims: vec![Dim::Vertical],
        },
        layers,
    }
}

/// VGG-16 \[Simonyan & Zisserman\] under data parallelism: 13 convolutions
/// plus 3 enormous fully-connected layers — the classic communication-heavy
/// counterpoint to ResNet-50 (its fc layers alone hold ~120M parameters).
pub fn vgg16(model: &ComputeModel, minibatch: u64) -> Workload {
    let stages: [(u64, u64, u64); 13] = [
        // (cin, cout, spatial input size)
        (3, 64, 224),
        (64, 64, 224),
        (64, 128, 112),
        (128, 128, 112),
        (128, 256, 56),
        (256, 256, 56),
        (256, 256, 56),
        (256, 512, 28),
        (512, 512, 28),
        (512, 512, 28),
        (512, 512, 14),
        (512, 512, 14),
        (512, 512, 14),
    ];
    let mut layers: Vec<LayerSpec> = stages
        .iter()
        .enumerate()
        .map(|(i, &(cin, cout, hw))| {
            let gemm = Gemm::new(minibatch * hw * hw, cin * 9, cout);
            data_parallel_layer(model, format!("conv{}", i + 1), gemm, cin * 9 * cout)
        })
        .collect();
    for (name, k, n) in [
        ("fc6", 512 * 7 * 7, 4096u64),
        ("fc7", 4096, 4096),
        ("fc8", 4096, 1000),
    ] {
        layers.push(data_parallel_layer(
            model,
            name.into(),
            Gemm::new(minibatch, k, n),
            k * n,
        ));
    }
    Workload {
        name: "vgg16".into(),
        parallelism: Parallelism::Data,
        layers,
    }
}

/// A GPT-style decoder stack under hybrid parallelism (tensor-parallel
/// across the vertical dimension, data-parallel elsewhere): `layers`
/// decoder blocks of width `d_model` with 4x FFN expansion.
pub fn gpt_decoder(
    model: &ComputeModel,
    minibatch: u64,
    seq: u64,
    d_model: u64,
    num_layers: usize,
) -> Workload {
    let tokens = minibatch * seq;
    let ff = 4 * d_model;
    let act_bytes = tokens * d_model * DTYPE_BYTES;
    let qkv = model.layer_timing(Gemm::new(tokens, d_model, 3 * d_model));
    let proj = model.layer_timing(Gemm::new(tokens, d_model, d_model));
    let ffn1 = model.layer_timing(Gemm::new(tokens, d_model, ff));
    let ffn2 = model.layer_timing(Gemm::new(tokens, ff, d_model));
    let params = (4 * d_model * d_model + 2 * d_model * ff) * DTYPE_BYTES;
    let layers = (1..=num_layers)
        .map(|i| LayerSpec {
            name: format!("decoder{i}"),
            fwd_compute: qkv.forward + proj.forward + ffn1.forward + ffn2.forward,
            fwd_comm: Some(CommSpec::new(CollectiveOp::AllGather, act_bytes)),
            ig_compute: qkv.input_grad + proj.input_grad + ffn1.input_grad + ffn2.input_grad,
            ig_comm: Some(CommSpec::new(CollectiveOp::AllReduce, act_bytes)),
            wg_compute: qkv.weight_grad + proj.weight_grad + ffn1.weight_grad + ffn2.weight_grad,
            wg_comm: Some(CommSpec::new(CollectiveOp::AllReduce, params)),
            local_update_per_kb: UPDATE_PER_KB,
        })
        .collect();
    Workload {
        name: "gpt_decoder".into(),
        parallelism: Parallelism::Hybrid {
            data_dims: vec![Dim::Local, Dim::Horizontal],
            model_dims: vec![Dim::Vertical],
        },
        layers,
    }
}

/// A DLRM-style recommendation model \[17\]: bottom MLP, an embedding layer
/// whose lookups travel by **all-to-all** (the distributed key/value tables
/// of §II-B), and a top MLP; data-parallel MLPs.
pub fn dlrm(model: &ComputeModel, minibatch: u64) -> Workload {
    let emb_dim: u64 = 64;
    let num_tables: u64 = 8;
    let mlp = |name: &str, k: u64, n: u64| {
        data_parallel_layer(model, name.into(), Gemm::new(minibatch, k, n), k * n)
    };
    let a2a_bytes = minibatch * num_tables * emb_dim * DTYPE_BYTES;
    let layers = vec![
        mlp("bot_mlp1", 13, 512),
        mlp("bot_mlp2", 512, 256),
        mlp("bot_mlp3", 256, 64),
        LayerSpec {
            name: "embeddings".into(),
            fwd_compute: Time::from_cycles(2_000),
            fwd_comm: Some(CommSpec::new(CollectiveOp::AllToAll, a2a_bytes)),
            ig_compute: Time::from_cycles(2_000),
            ig_comm: Some(CommSpec::new(CollectiveOp::AllToAll, a2a_bytes)),
            wg_compute: Time::ZERO,
            wg_comm: None,
            local_update_per_kb: UPDATE_PER_KB,
        },
        mlp("top_mlp1", 512, 256),
        mlp("top_mlp2", 256, 128),
        mlp("top_mlp3", 128, 1),
    ];
    Workload {
        name: "dlrm".into(),
        parallelism: Parallelism::Data,
        layers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resnet50_shape() {
        let w = resnet50(&ComputeModel::tpu_like_256(), 32);
        // 1 stem + 16 bottlenecks x 3 convs + 1 fc = the canonical 50.
        assert_eq!(w.layers.len(), 50);
        assert!(w.validate().is_ok());
        // Total parameters ~ 25.5M (conv + fc only, no BN): gradients at
        // fp32 should be roughly 90-110 MB.
        let bytes: u64 = w.layers.iter().map(|l| l.comm_bytes()).sum();
        let mb = bytes as f64 / 1e6;
        assert!((80.0..130.0).contains(&mb), "gradient volume {mb} MB");
        // Every layer is data-parallel: wg comm only.
        assert!(w
            .layers
            .iter()
            .all(|l| l.fwd_comm.is_none() && l.ig_comm.is_none() && l.wg_comm.is_some()));
    }

    #[test]
    fn resnet50_compute_nonzero_and_varied() {
        let w = resnet50(&ComputeModel::tpu_like_256(), 32);
        assert!(w.layers.iter().all(|l| l.fwd_compute > Time::ZERO));
        let first = w.layers[0].fwd_compute;
        assert!(w.layers.iter().any(|l| l.fwd_compute != first));
    }

    #[test]
    fn transformer_shape() {
        let w = transformer(&ComputeModel::tpu_like_256(), 32, 64);
        assert_eq!(w.layers.len(), 7);
        assert!(w.validate().is_ok());
        // Encoder layers 1-6 are structurally identical (Fig 13's premise).
        let enc: Vec<_> = w.layers[1..].iter().collect();
        assert!(enc.windows(2).all(|p| {
            p[0].fwd_compute == p[1].fwd_compute && p[0].comm_bytes() == p[1].comm_bytes()
        }));
        assert!(matches!(w.parallelism, Parallelism::Hybrid { .. }));
    }

    #[test]
    fn dlrm_has_all_to_all() {
        let w = dlrm(&ComputeModel::tpu_like_256(), 32);
        assert!(w.layers.iter().any(|l| matches!(
            l.fwd_comm,
            Some(CommSpec {
                op: CollectiveOp::AllToAll,
                ..
            })
        )));
        assert!(w.validate().is_ok());
    }

    #[test]
    fn vgg16_shape_and_gradient_volume() {
        let w = vgg16(&ComputeModel::tpu_like_256(), 32);
        assert_eq!(w.layers.len(), 16);
        assert!(w.validate().is_ok());
        // ~138M params at fp32 -> ~550 MB of gradients.
        let bytes: u64 = w.layers.iter().map(|l| l.comm_bytes()).sum();
        let mb = bytes as f64 / 1e6;
        assert!((450.0..650.0).contains(&mb), "gradient volume {mb} MB");
        // fc6 dominates: 512*7*7*4096 ~ 103M params.
        let fc6 = w.layers.iter().find(|l| l.name == "fc6").unwrap();
        assert!(w.layers.iter().all(|l| l.comm_bytes() <= fc6.comm_bytes()));
    }

    #[test]
    fn gpt_decoder_scales_with_depth_and_width() {
        let m = ComputeModel::tpu_like_256();
        let small = gpt_decoder(&m, 8, 128, 512, 4);
        let large = gpt_decoder(&m, 8, 128, 1024, 8);
        assert_eq!(small.layers.len(), 4);
        assert_eq!(large.layers.len(), 8);
        assert!(large.compute_per_iteration() > small.compute_per_iteration());
        assert!(small.validate().is_ok());
        assert!(matches!(small.parallelism, Parallelism::Hybrid { .. }));
    }

    #[test]
    fn minibatch_scales_compute() {
        let m = ComputeModel::tpu_like_256();
        let small = resnet50(&m, 8).compute_per_iteration();
        let large = resnet50(&m, 64).compute_per_iteration();
        assert!(large > small);
    }

    #[test]
    fn by_name_builds_every_model_up_to_the_minibatch_cap() {
        for name in [
            "resnet50",
            "vgg16",
            "transformer",
            "gpt",
            "dlrm",
            "tiny_mlp",
        ] {
            for minibatch in [1, 32, MAX_MINIBATCH] {
                let w = by_name(name, minibatch).unwrap();
                assert!(w.validate().is_ok(), "{name} at {minibatch}");
                assert!(w.compute_per_iteration() > Time::ZERO);
            }
        }
        assert_eq!(
            by_name("resnet50", 32).unwrap().layers,
            resnet50(&ComputeModel::tpu_like_256(), 32).layers
        );
        assert_eq!(
            by_name("lenet", 32).unwrap_err(),
            ZooError::UnknownModel("lenet".into())
        );
    }

    #[test]
    fn by_name_rejects_zero_and_huge_minibatches() {
        for n in [0, MAX_MINIBATCH + 1, u64::MAX] {
            let err = by_name("resnet50", n).unwrap_err();
            assert_eq!(err, ZooError::Minibatch(n));
            assert!(
                err.to_string().contains(&format!("minibatch {n} ")),
                "{err}"
            );
        }
    }
}
