//! The compute-model facade.

use crate::{Dataflow, DramModel, Gemm, SystolicArray};
use astra_des::{Clock, Time};
use serde::{Deserialize, Serialize};

/// Per-layer training compute times produced by the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LayerTiming {
    /// Forward-pass delay.
    pub forward: Time,
    /// Input-gradient (error back-propagation) delay.
    pub input_grad: Time,
    /// Weight-gradient delay.
    pub weight_grad: Time,
}

/// The full NPU compute model: systolic GEMM estimate, DRAM roofline, and
/// the paper's parameterized non-GEMM overhead.
///
/// # Example
///
/// ```
/// use astra_compute::{ComputeModel, Gemm};
/// let m = ComputeModel::tpu_like_256();
/// let t = m.layer_timing(Gemm::new(3136 * 32, 1152, 256));
/// assert!(t.forward.cycles() > 0);
/// assert!(t.weight_grad.cycles() > 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ComputeModel {
    array: SystolicArray,
    dram: DramModel,
    /// Extra delay added to every GEMM for non-GEMM layer work
    /// (activations, normalization, optimizer), as parts-per-1024 of the
    /// GEMM time.
    non_gemm_overhead_per_1024: u64,
}

impl ComputeModel {
    /// The paper's evaluation accelerator: a 256×256 weight-stationary
    /// TPU-like array, HBM-class DRAM (900 GB/s), fp16 operands, 12.5%
    /// non-GEMM overhead.
    pub fn tpu_like_256() -> Self {
        ComputeModel {
            array: SystolicArray::new(256, 256, Dataflow::WeightStationary),
            dram: DramModel::new(900.0, 2, Clock::GHZ1),
            non_gemm_overhead_per_1024: 128, // 12.5%
        }
    }

    /// Builds a custom model.
    pub fn new(array: SystolicArray, dram: DramModel, non_gemm_overhead_per_1024: u64) -> Self {
        ComputeModel {
            array,
            dram,
            non_gemm_overhead_per_1024,
        }
    }

    /// The systolic array.
    pub fn array(&self) -> &SystolicArray {
        &self.array
    }

    /// The DRAM model.
    pub fn dram(&self) -> &DramModel {
        &self.dram
    }

    /// Effective delay of one GEMM: systolic estimate, DRAM roofline,
    /// non-GEMM overhead.
    pub fn gemm_time(&self, gemm: Gemm) -> Time {
        let compute = self.array.gemm_cycles(gemm);
        let rooflined = self.dram.roofline(gemm, compute);
        let with_overhead = rooflined + rooflined * self.non_gemm_overhead_per_1024 / 1024;
        Time::from_cycles(with_overhead)
    }

    /// Per-phase timing of a training layer whose forward GEMM is `forward`.
    pub fn layer_timing(&self, forward: Gemm) -> LayerTiming {
        let (ig, wg) = forward.backward();
        LayerTiming {
            forward: self.gemm_time(forward),
            input_grad: self.gemm_time(ig),
            weight_grad: self.gemm_time(wg),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_inflates_time() {
        let base = ComputeModel::new(
            SystolicArray::new(16, 16, Dataflow::WeightStationary),
            DramModel::new(10_000.0, 2, Clock::GHZ1),
            0,
        );
        let with = ComputeModel::new(
            SystolicArray::new(16, 16, Dataflow::WeightStationary),
            DramModel::new(10_000.0, 2, Clock::GHZ1),
            512, // +50%
        );
        let g = Gemm::new(64, 64, 64);
        let t0 = base.gemm_time(g).cycles();
        let t1 = with.gemm_time(g).cycles();
        assert_eq!(t1, t0 + t0 / 2);
    }

    #[test]
    fn memory_bound_gemm_hits_roofline() {
        // A skinny GEMM (tiny K) is memory bound on any fast array.
        let m = ComputeModel::tpu_like_256();
        let g = Gemm::new(1 << 16, 1, 1 << 10);
        let t = m.gemm_time(g).cycles();
        let stream = m.dram().stream_cycles(g);
        assert!(t >= stream);
    }
}
