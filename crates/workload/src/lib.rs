//! # astra-workload
//!
//! The workload layer of the ASTRA-sim reproduction (§IV-A of the paper).
//!
//! The workload layer "runs the training loop algorithm for different
//! networks and generates the sets of data to be communicated at different
//! steps of training". It consumes per-layer compute delays (from
//! [`astra_compute`]) and communication sizes, and drives the system layer
//! through forward and backward passes:
//!
//! * **Data parallelism** — only weight gradients are communicated
//!   (all-reduce), overlapped with back-propagation compute; a layer's
//!   all-reduce must finish before *its* forward pass in the next iteration,
//!   which is where *exposed* communication appears (§III-E);
//! * **Model parallelism** — output activations (all-gather) and input
//!   gradients (all-reduce) are communicated on the critical path: the next
//!   layer cannot start until they finish;
//! * **Hybrid parallelism** — weight gradients travel over the
//!   data-parallel dimensions, activations/input-gradients over the
//!   model-parallel dimensions (the paper's Transformer study uses
//!   data-parallel local+horizontal, model-parallel vertical).
//!
//! Contents:
//!
//! * [`LayerSpec`] / [`Workload`] — DNN descriptions (Table I semantics);
//! * [`parser`] — the Fig-8 text format, read and write;
//! * [`zoo`] — built-in ResNet-50, Transformer and DLRM-style models whose
//!   compute times come from the analytical accelerator model;
//! * [`TrainingRunner`] — the per-NPU training-loop state machines driving a
//!   [`astra_system::SystemSim`], producing a [`TrainingReport`] with the
//!   layer-wise compute / communication / exposed-communication breakdowns
//!   of Figs 13–18.
//!
//! ## Example
//!
//! ```
//! use astra_network::NetworkConfig;
//! use astra_system::{BackendKind, SystemConfig, SystemSim};
//! use astra_topology::LogicalTopology;
//! use astra_workload::{zoo, TrainingRunner};
//!
//! let topo = LogicalTopology::torus(2, 2, 2, 1, 1, 1)?;
//! let sim = SystemSim::new(
//!     topo,
//!     SystemConfig::default(),
//!     &NetworkConfig::default(),
//!     BackendKind::Analytical,
//! );
//! let workload = zoo::tiny_mlp(); // 3-layer data-parallel test model
//! let report = TrainingRunner::new(sim, workload, 1)?.run()?;
//! assert!(report.total_time.cycles() > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod layer;
pub mod parser;
mod report;
mod runner;
pub mod transform;
pub mod zoo;

pub use layer::{CommSpec, LayerSpec, Parallelism};
pub use report::{FaultImpact, LayerReport, TrainingReport};
pub use runner::{TrainingRunner, MAX_PASSES};

use serde::{Deserialize, Serialize};

/// A complete training workload: an ordered stack of layers plus the
/// parallelization strategy (the content of the Fig-8 input file).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Workload {
    /// Model name (`DNN_name`, Table III row 1).
    pub name: String,
    /// Parallelization strategy (first line of the input file).
    pub parallelism: Parallelism,
    /// Layers in forward order.
    pub layers: Vec<LayerSpec>,
}

impl Workload {
    /// Validates basic well-formedness.
    ///
    /// # Errors
    ///
    /// Fails (with a description) on an empty layer list or a layer whose
    /// communication size is zero while a collective is requested.
    pub fn validate(&self) -> Result<(), String> {
        if self.layers.is_empty() {
            return Err("workload has no layers".into());
        }
        for l in &self.layers {
            for (what, c) in [
                ("forward", &l.fwd_comm),
                ("input-grad", &l.ig_comm),
                ("weight-grad", &l.wg_comm),
            ] {
                if let Some(c) = c {
                    if c.bytes == 0 {
                        return Err(format!("layer {}: zero-byte {what} collective", l.name));
                    }
                }
            }
        }
        Ok(())
    }

    /// Total compute time of one iteration on one NPU.
    pub fn compute_per_iteration(&self) -> astra_des::Time {
        self.layers
            .iter()
            .map(|l| l.fwd_compute + l.ig_compute + l.wg_compute)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use astra_des::Time;

    #[test]
    fn validation_catches_empty_and_zero_comm() {
        let empty = Workload {
            name: "x".into(),
            parallelism: Parallelism::Data,
            layers: vec![],
        };
        assert!(empty.validate().is_err());

        let mut w = zoo::tiny_mlp();
        assert!(w.validate().is_ok());
        w.layers[0].wg_comm = Some(CommSpec {
            op: astra_collectives::CollectiveOp::AllReduce,
            bytes: 0,
        });
        assert!(w.validate().is_err());
    }

    #[test]
    fn compute_per_iteration_sums_phases() {
        let w = zoo::tiny_mlp();
        let total = w.compute_per_iteration();
        let manual: Time = w
            .layers
            .iter()
            .map(|l| l.fwd_compute + l.ig_compute + l.wg_compute)
            .sum();
        assert_eq!(total, manual);
        assert!(total > Time::ZERO);
    }
}
