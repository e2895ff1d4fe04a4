//! # astra-compute
//!
//! The analytical NPU compute model of the ASTRA-sim reproduction.
//!
//! The paper feeds per-layer compute delays into its workload layer from "an
//! analytical DNN accelerator simulator \[12\] to model a 256x256 TPU-like
//! Systolic Array accelerator", adding "additional parameterized delays to
//! model the rest of the DNN layer computations" and accounting "for any
//! stalls that would result due to limited DRAM bandwidth" (§IV-A). This
//! crate rebuilds that stack:
//!
//! * [`SystolicArray`] — analytical GEMM delay formulas for a weight-,
//!   output- or input-stationary systolic array (the same family of closed
//!   forms SCALE-sim uses);
//! * [`DramModel`] — a bandwidth roofline: a GEMM can never finish faster
//!   than its operand traffic can stream from DRAM;
//! * [`Gemm`] — GEMM shapes, plus the standard mapping from a training
//!   layer's forward pass to its two backward GEMMs;
//! * [`ComputeModel`] — the facade combining all of the above plus the
//!   paper's parameterized non-GEMM overhead. Fig 18's compute-power sweep
//!   scales the delays of a built workload
//!   (`astra_workload::transform::scale_compute_power`).
//!
//! ## Example
//!
//! ```
//! use astra_compute::{ComputeModel, Gemm};
//!
//! let model = ComputeModel::tpu_like_256(); // the paper's 256x256 array
//! let gemm = Gemm::new(1024, 1024, 1024);
//! let t = model.gemm_time(gemm);
//! assert!(t.cycles() > 0);
//! // Backward GEMMs of the same layer:
//! let (ig, wg) = gemm.backward();
//! assert_eq!(ig.flops(), gemm.flops());
//! assert_eq!(wg.flops(), gemm.flops());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod gemm;
mod memory;
mod model;
mod systolic;

pub use gemm::Gemm;
pub use memory::DramModel;
pub use model::{ComputeModel, LayerTiming};
pub use systolic::{Dataflow, SystolicArray};
