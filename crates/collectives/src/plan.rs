//! Multi-phase collective plan synthesis (§III-D).

use crate::{Algorithm, CollectiveError, CollectiveOp, Ratio};
use astra_topology::{Dim, DimSpec, LinkClass, LogicalTopology};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The primitive operation one phase performs on its dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PhaseOp {
    /// Reduce-scatter over the dimension.
    ReduceScatter,
    /// All-gather over the dimension.
    AllGather,
    /// Full all-reduce over the dimension (internally RS followed by AG).
    AllReduce,
    /// All-to-all over the dimension.
    AllToAll,
}

impl fmt::Display for PhaseOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PhaseOp::ReduceScatter => "RS",
            PhaseOp::AllGather => "AG",
            PhaseOp::AllReduce => "AR",
            PhaseOp::AllToAll => "A2A",
        })
    }
}

/// The primitive algorithm a phase executes on its dimension.
///
/// Ring and direct are the paper's pair (§II-B); halving-doubling is the
/// classic recursive-halving alternative (Thakur et al. \[23\], also
/// shipped by the upstream ASTRA-sim project), attractive on switch-based
/// dimensions where it needs only `log2 n` rounds of larger messages
/// instead of one round of `n-1` small ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PhaseAlgo {
    /// Neighbor exchanges around a ring, `n-1` steps.
    Ring,
    /// Direct sends to every peer through a global switch, 1 round.
    Direct,
    /// Recursive halving/doubling with XOR partners, `log2 n` rounds
    /// (requires a power-of-two dimension).
    HalvingDoubling,
}

impl fmt::Display for PhaseAlgo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PhaseAlgo::Ring => "ring",
            PhaseAlgo::Direct => "direct",
            PhaseAlgo::HalvingDoubling => "halving-doubling",
        })
    }
}

/// Per-dimension algorithm selection policy for the planner.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum IntraAlgo {
    /// The paper's choices: ring on ring dimensions, direct on switch
    /// dimensions.
    #[default]
    Auto,
    /// Prefer halving-doubling wherever the dimension size is a power of
    /// two (falls back to `Auto` elsewhere and for all-to-all phases).
    HalvingDoubling,
}

/// One phase of a multi-phase collective.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseSpec {
    /// Dimension the phase runs over.
    pub dim: Dim,
    /// Primitive operation.
    pub op: PhaseOp,
    /// The algorithm executing this phase.
    pub algo: PhaseAlgo,
    /// Whether the dimension is ring-connected (`true`) or switch-connected
    /// (`false`) — decides how the system layer routes the algorithm's
    /// sends and how hops are accounted.
    pub on_rings: bool,
    /// Number of participants along the dimension.
    pub size: usize,
    /// Independent channels (rings / switches) chunks can be spread over —
    /// the LSQ count of the phase (§IV-B).
    pub concurrency: usize,
    /// Link class of the dimension (for traffic accounting).
    pub class: LinkClass,
    /// Fraction of the chunk's set size each participant feeds into this
    /// phase. The enhanced all-reduce's inter-package phases run at
    /// `1/local_size`, which is exactly where its 4× traffic saving on a
    /// 4-NAM package comes from (§V-C).
    pub input_scale: Ratio,
}

impl PhaseSpec {
    fn from_dim(spec: &DimSpec, op: PhaseOp, input_scale: Ratio, intra: IntraAlgo) -> Self {
        let auto = if spec.is_ring {
            PhaseAlgo::Ring
        } else {
            PhaseAlgo::Direct
        };
        let algo = match intra {
            IntraAlgo::Auto => auto,
            IntraAlgo::HalvingDoubling => {
                if spec.size.is_power_of_two() && spec.size >= 2 && op != PhaseOp::AllToAll {
                    PhaseAlgo::HalvingDoubling
                } else {
                    auto
                }
            }
        };
        PhaseSpec {
            dim: spec.dim,
            op,
            algo,
            on_rings: spec.is_ring,
            size: spec.size,
            concurrency: spec.concurrency,
            class: spec.class,
            input_scale,
        }
    }
}

/// A synthesized multi-phase collective program.
///
/// Produced by [`plan`]; executed chunk-by-chunk by the system layer via
/// [`crate::PhaseMachine`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CollectivePlan {
    op: CollectiveOp,
    algorithm: Algorithm,
    phases: Vec<PhaseSpec>,
}

impl CollectivePlan {
    /// The collective this plan implements.
    pub fn op(&self) -> CollectiveOp {
        self.op
    }

    /// The planner variant that produced it.
    pub fn algorithm(&self) -> Algorithm {
        self.algorithm
    }

    /// The phases, in execution order.
    pub fn phases(&self) -> &[PhaseSpec] {
        &self.phases
    }

    /// Total participants: the product of the distinct dimension sizes.
    pub fn participants(&self) -> usize {
        let mut seen: Vec<Dim> = Vec::new();
        let mut total = 1;
        for p in &self.phases {
            if !seen.contains(&p.dim) {
                seen.push(p.dim);
                total *= p.size;
            }
        }
        total
    }

    /// The distinct dimensions the plan touches, in first-use order.
    pub fn dims(&self) -> Vec<Dim> {
        let mut seen = Vec::new();
        for p in &self.phases {
            if !seen.contains(&p.dim) {
                seen.push(p.dim);
            }
        }
        seen
    }
}

impl fmt::Display for CollectivePlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}]:", self.op, self.algorithm)?;
        for p in &self.phases {
            write!(f, " {}({},x{})", p.op, p.dim, p.input_scale)?;
        }
        Ok(())
    }
}

/// Synthesizes the multi-phase plan for `op` on `topo` using `algorithm`.
///
/// `dims` restricts the collective to a subset of the fabric's dimensions —
/// hybrid parallelism runs weight-gradient all-reduce over the data-parallel
/// dimensions only (§V-E: "data-parallel across local and horizontal
/// dimension, and model-parallel across vertical dimension"). `None` means
/// all active dimensions, in the paper's order.
///
/// # Errors
///
/// Fails if no active dimension remains, or a requested dimension is not
/// active on the topology.
pub fn plan(
    topo: &LogicalTopology,
    op: CollectiveOp,
    algorithm: Algorithm,
    dims: Option<&[Dim]>,
) -> Result<CollectivePlan, CollectiveError> {
    plan_with_intra(topo, op, algorithm, dims, IntraAlgo::Auto)
}

/// Like [`plan`], but with an explicit per-dimension algorithm policy.
///
/// # Errors
///
/// Same conditions as [`plan`].
pub fn plan_with_intra(
    topo: &LogicalTopology,
    op: CollectiveOp,
    algorithm: Algorithm,
    dims: Option<&[Dim]>,
    intra: IntraAlgo,
) -> Result<CollectivePlan, CollectiveError> {
    let all = topo.dims();
    let selected: Vec<DimSpec> = match dims {
        None => all,
        Some(wanted) => {
            for d in wanted {
                if !all.iter().any(|s| s.dim == *d) {
                    return Err(CollectiveError::InactiveDim { dim: *d });
                }
            }
            all.into_iter()
                .filter(|s| wanted.contains(&s.dim))
                .collect()
        }
    };
    if selected.is_empty() {
        return Err(CollectiveError::NoActiveDims);
    }

    let phases = match op {
        CollectiveOp::AllReduce => plan_all_reduce(&selected, algorithm, intra),
        CollectiveOp::ReduceScatter => plan_reduce_scatter(&selected, intra),
        CollectiveOp::AllGather => plan_all_gather(&selected, intra),
        CollectiveOp::AllToAll => selected
            .iter()
            .map(|d| PhaseSpec::from_dim(d, PhaseOp::AllToAll, Ratio::ONE, intra))
            .collect(),
    };
    Ok(CollectivePlan {
        op,
        algorithm,
        phases,
    })
}

/// Baseline: full all-reduce per dimension on full-size data.
/// Enhanced: RS on the first (innermost/local) dimension, all-reduce on the
/// remaining dimensions at `1/first_size`, AG on the first dimension last.
fn plan_all_reduce(dims: &[DimSpec], algorithm: Algorithm, intra: IntraAlgo) -> Vec<PhaseSpec> {
    match algorithm {
        Algorithm::Baseline => dims
            .iter()
            .map(|d| PhaseSpec::from_dim(d, PhaseOp::AllReduce, Ratio::ONE, intra))
            .collect(),
        Algorithm::Enhanced => {
            if dims.len() < 2 {
                // Nothing to bracket; identical to baseline.
                return plan_all_reduce(dims, Algorithm::Baseline, intra);
            }
            let first = &dims[0];
            let inner = Ratio::new(1, first.size as u64);
            let mut phases = vec![PhaseSpec::from_dim(
                first,
                PhaseOp::ReduceScatter,
                Ratio::ONE,
                intra,
            )];
            phases.extend(
                dims[1..]
                    .iter()
                    .map(|d| PhaseSpec::from_dim(d, PhaseOp::AllReduce, inner, intra)),
            );
            phases.push(PhaseSpec::from_dim(first, PhaseOp::AllGather, inner, intra));
            phases
        }
    }
}

/// Hierarchical reduce-scatter: RS per dimension in order, each phase on the
/// shard the previous phases left behind.
fn plan_reduce_scatter(dims: &[DimSpec], intra: IntraAlgo) -> Vec<PhaseSpec> {
    let mut scale = Ratio::ONE;
    let mut phases = Vec::with_capacity(dims.len());
    for d in dims {
        phases.push(PhaseSpec::from_dim(d, PhaseOp::ReduceScatter, scale, intra));
        scale = scale * Ratio::new(1, d.size as u64);
    }
    phases
}

/// Hierarchical all-gather: AG per dimension in reverse order, each phase on
/// the ever-growing gathered data — the local dimension goes last, so the
/// largest transfers ride the fastest links.
fn plan_all_gather(dims: &[DimSpec], intra: IntraAlgo) -> Vec<PhaseSpec> {
    let mut scale = Ratio::ONE;
    let mut phases = Vec::with_capacity(dims.len());
    for d in dims.iter().rev() {
        phases.push(PhaseSpec::from_dim(d, PhaseOp::AllGather, scale, intra));
        scale = scale * Ratio::new(d.size as u64, 1);
    }
    phases
}

#[cfg(test)]
mod tests {
    use super::*;
    use astra_topology::LogicalTopology;

    fn torus(m: usize, n: usize, k: usize) -> LogicalTopology {
        LogicalTopology::torus(m, n, k, 2, 2, 2).unwrap()
    }

    #[test]
    fn baseline_all_reduce_one_ar_per_dim() {
        let p = plan(
            &torus(4, 4, 4),
            CollectiveOp::AllReduce,
            Algorithm::Baseline,
            None,
        )
        .unwrap();
        assert_eq!(p.phases().len(), 3);
        assert!(p.phases().iter().all(|ph| ph.op == PhaseOp::AllReduce));
        assert!(p.phases().iter().all(|ph| ph.input_scale == Ratio::ONE));
        let dims: Vec<Dim> = p.phases().iter().map(|ph| ph.dim).collect();
        assert_eq!(dims, vec![Dim::Local, Dim::Vertical, Dim::Horizontal]);
        assert_eq!(p.participants(), 64);
    }

    #[test]
    fn enhanced_all_reduce_is_four_phase() {
        let p = plan(
            &torus(4, 4, 4),
            CollectiveOp::AllReduce,
            Algorithm::Enhanced,
            None,
        )
        .unwrap();
        let ops: Vec<PhaseOp> = p.phases().iter().map(|ph| ph.op).collect();
        assert_eq!(
            ops,
            vec![
                PhaseOp::ReduceScatter,
                PhaseOp::AllReduce,
                PhaseOp::AllReduce,
                PhaseOp::AllGather
            ]
        );
        assert_eq!(p.phases()[1].input_scale, Ratio::new(1, 4));
        assert_eq!(p.phases()[3].input_scale, Ratio::new(1, 4));
        assert_eq!(p.phases()[0].dim, Dim::Local);
        assert_eq!(p.phases()[3].dim, Dim::Local);
    }

    #[test]
    fn enhanced_on_single_dim_degenerates_to_baseline() {
        let topo = torus(1, 8, 1);
        let p = plan(&topo, CollectiveOp::AllReduce, Algorithm::Enhanced, None).unwrap();
        assert_eq!(p.phases().len(), 1);
        assert_eq!(p.phases()[0].op, PhaseOp::AllReduce);
    }

    #[test]
    fn enhanced_on_alltoall_topology() {
        // §III-D: RS local, AR on the alltoall dimension, AG local.
        let topo = LogicalTopology::alltoall(4, 16, 2, 4).unwrap();
        let p = plan(&topo, CollectiveOp::AllReduce, Algorithm::Enhanced, None).unwrap();
        assert_eq!(p.phases().len(), 3);
        assert_eq!(p.phases()[0].op, PhaseOp::ReduceScatter);
        assert_eq!(p.phases()[1].dim, Dim::Package);
        assert_eq!(p.phases()[1].algo, PhaseAlgo::Direct);
        assert_eq!(p.phases()[2].op, PhaseOp::AllGather);
    }

    #[test]
    fn reduce_scatter_scales_shrink() {
        let p = plan(
            &torus(2, 4, 8),
            CollectiveOp::ReduceScatter,
            Algorithm::Baseline,
            None,
        )
        .unwrap();
        let scales: Vec<Ratio> = p.phases().iter().map(|ph| ph.input_scale).collect();
        // Order: local(2), vertical(8), horizontal(4).
        assert_eq!(
            scales,
            vec![Ratio::ONE, Ratio::new(1, 2), Ratio::new(1, 16)]
        );
    }

    #[test]
    fn all_gather_reverses_and_grows() {
        let p = plan(
            &torus(2, 4, 8),
            CollectiveOp::AllGather,
            Algorithm::Baseline,
            None,
        )
        .unwrap();
        let dims: Vec<Dim> = p.phases().iter().map(|ph| ph.dim).collect();
        assert_eq!(dims, vec![Dim::Horizontal, Dim::Vertical, Dim::Local]);
        let scales: Vec<Ratio> = p.phases().iter().map(|ph| ph.input_scale).collect();
        assert_eq!(
            scales,
            vec![Ratio::ONE, Ratio::new(4, 1), Ratio::new(32, 1)]
        );
    }

    #[test]
    fn all_to_all_per_dim_full_scale() {
        let p = plan(
            &torus(2, 2, 3),
            CollectiveOp::AllToAll,
            Algorithm::Baseline,
            None,
        )
        .unwrap();
        assert_eq!(p.phases().len(), 3);
        assert!(p.phases().iter().all(|ph| ph.input_scale == Ratio::ONE));
        assert!(p.phases().iter().all(|ph| ph.op == PhaseOp::AllToAll));
    }

    #[test]
    fn dim_subset_for_hybrid_parallel() {
        // Weight gradients over local+horizontal only (Transformer, §V-E).
        let p = plan(
            &torus(2, 2, 2),
            CollectiveOp::AllReduce,
            Algorithm::Baseline,
            Some(&[Dim::Local, Dim::Horizontal]),
        )
        .unwrap();
        let dims: Vec<Dim> = p.phases().iter().map(|ph| ph.dim).collect();
        assert_eq!(dims, vec![Dim::Local, Dim::Horizontal]);
        assert_eq!(p.participants(), 4);
    }

    #[test]
    fn inactive_dim_rejected() {
        let topo = torus(1, 8, 1);
        assert!(matches!(
            plan(
                &topo,
                CollectiveOp::AllReduce,
                Algorithm::Baseline,
                Some(&[Dim::Local])
            ),
            Err(CollectiveError::InactiveDim { dim: Dim::Local })
        ));
        let single = torus(1, 1, 1);
        assert!(matches!(
            plan(&single, CollectiveOp::AllReduce, Algorithm::Baseline, None),
            Err(CollectiveError::NoActiveDims)
        ));
    }

    #[test]
    fn display_is_readable() {
        let p = plan(
            &torus(4, 4, 4),
            CollectiveOp::AllReduce,
            Algorithm::Enhanced,
            None,
        )
        .unwrap();
        let s = p.to_string();
        assert!(s.contains("all-reduce") && s.contains("enhanced") && s.contains("RS(local"));
    }
}
