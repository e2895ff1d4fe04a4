//! # astra-collectives
//!
//! Topology-aware collective communication for the ASTRA-sim reproduction —
//! the heart of the paper's contribution.
//!
//! The paper (§II-B, §III-D) builds every training communication out of four
//! collectives — reduce-scatter, all-gather, all-reduce, all-to-all — and
//! maps them onto hierarchical fabrics as **multi-phase** algorithms: each
//! phase runs a primitive algorithm (ring, or direct/switch-based) over one
//! fabric dimension. Two planner variants matter for the evaluation:
//!
//! * **baseline** — all-reduce runs a full ring all-reduce over every
//!   dimension in turn (local → vertical → horizontal), each phase on the
//!   full data;
//! * **enhanced** — reduce-scatter on the local dimension first, all-reduce
//!   over the inter-package dimensions on `1/M` of the data, all-gather on
//!   the local dimension last. This "helps reduce the volume of data across
//!   inter-package links by (local size)×" (§V-C, Fig 11).
//!
//! This crate provides:
//!
//! * [`CollectivePlan`] / [`plan`] — synthesis of per-chunk phase programs
//!   from a topology, an operation, an algorithm choice, and (for hybrid
//!   parallelism) a subset of dimensions;
//! * [`PhaseMachine`] — the per-NPU runtime state machine for one phase of
//!   one chunk, telling the system layer what to send and when a phase
//!   completes;
//! * [`traffic`] — exact per-node / per-link-class byte accounting, used to
//!   check the paper's analytical factors (e.g. `28/8·N` for a 1×8×8 torus);
//! * [`semantics`] — a functional (non-timed) executor that runs a plan at
//!   shard granularity and proves it delivers the collective's semantics on
//!   every node; the property tests lean on it.
//!
//! ## Example
//!
//! ```
//! use astra_collectives::{plan, Algorithm, CollectiveOp};
//! use astra_topology::LogicalTopology;
//!
//! // Fig 11's 4x4x4 torus, enhanced all-reduce: 4 phases.
//! let topo = LogicalTopology::torus(4, 4, 4, 2, 2, 2)?;
//! let plan = plan(&topo, CollectiveOp::AllReduce, Algorithm::Enhanced, None)?;
//! assert_eq!(plan.phases().len(), 4);
//! // The enhanced plan moves 4x less data over inter-package links than
//! // baseline (local size = 4).
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod error;
mod machine;
mod plan;
mod ratio;
pub mod semantics;
pub mod traffic;

pub use error::CollectiveError;
pub use machine::{PhaseMachine, SendCmd, Target};
pub use plan::{plan, plan_with_intra, CollectivePlan, IntraAlgo, PhaseAlgo, PhaseOp, PhaseSpec};
pub use ratio::Ratio;

use serde::{Deserialize, Serialize};
use std::fmt;

/// The four collective operations of Fig 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CollectiveOp {
    /// Reduce-scatter: every node ends with one globally reduced shard.
    ReduceScatter,
    /// All-gather: every node ends with every node's shard.
    AllGather,
    /// All-reduce: reduce-scatter followed by all-gather (§II-B).
    AllReduce,
    /// All-to-all: personalized exchange (used by distributed embedding
    /// tables, §II-B).
    AllToAll,
}

impl fmt::Display for CollectiveOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CollectiveOp::ReduceScatter => "reduce-scatter",
            CollectiveOp::AllGather => "all-gather",
            CollectiveOp::AllReduce => "all-reduce",
            CollectiveOp::AllToAll => "all-to-all",
        })
    }
}

impl std::str::FromStr for CollectiveOp {
    type Err = String;

    /// Parses the [`Display`](fmt::Display) spelling (`all-reduce`, ...).
    fn from_str(s: &str) -> Result<Self, String> {
        use CollectiveOp::*;
        [ReduceScatter, AllGather, AllReduce, AllToAll]
            .into_iter()
            .find(|op| op.to_string() == s)
            .ok_or_else(|| format!("unknown collective '{s}'"))
    }
}

/// Multi-phase planner variant (Table III row 3: `baseline`/`enhanced`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum Algorithm {
    /// One full collective per dimension, all on full-size data.
    #[default]
    Baseline,
    /// Reduce-scatter/all-gather bracketing on the local dimension to cut
    /// inter-package traffic (the 4-phase algorithm of §V-C).
    Enhanced,
}

impl fmt::Display for Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Algorithm::Baseline => "baseline",
            Algorithm::Enhanced => "enhanced",
        })
    }
}

impl std::str::FromStr for Algorithm {
    type Err = String;

    /// Parses the [`Display`](fmt::Display) spelling (`baseline`,
    /// `enhanced`).
    fn from_str(s: &str) -> Result<Self, String> {
        [Algorithm::Baseline, Algorithm::Enhanced]
            .into_iter()
            .find(|a| a.to_string() == s)
            .ok_or_else(|| format!("unknown algorithm '{s}'"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_and_algorithm_round_trip_through_display() {
        use CollectiveOp::*;
        for op in [ReduceScatter, AllGather, AllReduce, AllToAll] {
            assert_eq!(op.to_string().parse(), Ok(op));
        }
        for a in [Algorithm::Baseline, Algorithm::Enhanced] {
            assert_eq!(a.to_string().parse(), Ok(a));
        }
        assert!("Enhanced".parse::<Algorithm>().is_err());
    }
}
