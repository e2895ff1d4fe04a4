//! The workload-facing vocabulary of the system layer: handles, requests,
//! and notifications exchanged across the [`crate::SystemSim`] boundary.

use astra_collectives::{Algorithm, CollectiveOp};
use astra_des::Time;
use astra_topology::{Dim, NodeId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Handle of an issued collective.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CollId(pub u64);

impl fmt::Display for CollId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "coll{}", self.0)
    }
}

/// A collective the workload layer wants executed.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CollectiveRequest {
    /// Which collective.
    pub op: CollectiveOp,
    /// Set size per NPU, in bytes.
    pub bytes: u64,
    /// Restrict to these fabric dimensions (hybrid parallelism); `None`
    /// means all.
    pub dims: Option<Vec<Dim>>,
    /// Override the planner variant for this collective (defaults to the
    /// system-wide [`crate::SystemConfig::algorithm`]).
    pub algorithm: Option<Algorithm>,
    /// Override the local-reduction cost per KiB for this collective (the
    /// per-layer "local update time" of the workload file, Fig 8).
    pub local_update_per_kb: Option<Time>,
}

impl CollectiveRequest {
    /// An all-reduce over all dimensions with defaults — the common case.
    pub fn all_reduce(bytes: u64) -> Self {
        CollectiveRequest {
            op: CollectiveOp::AllReduce,
            bytes,
            dims: None,
            algorithm: None,
            local_update_per_kb: None,
        }
    }

    /// An all-to-all over all dimensions with defaults.
    pub fn all_to_all(bytes: u64) -> Self {
        CollectiveRequest {
            op: CollectiveOp::AllToAll,
            bytes,
            dims: None,
            algorithm: None,
            local_update_per_kb: None,
        }
    }
}

/// What the system layer reports back to the workload layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Notification {
    /// `npu`'s participation in `coll` finished at `time`.
    CollectiveDone {
        /// The collective.
        coll: CollId,
        /// The NPU that finished.
        npu: NodeId,
        /// Completion time.
        time: Time,
    },
    /// A workload callback (e.g. "compute done") fired.
    Callback {
        /// The token passed to [`crate::SystemSim::schedule_callback`].
        token: u64,
        /// Fire time.
        time: Time,
    },
}
