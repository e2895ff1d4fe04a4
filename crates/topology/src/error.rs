//! Topology error type.

use crate::{Dim, NodeId, MAX_NPUS, MAX_SWITCH_LINKS};
use std::error::Error;
use std::fmt;

/// Errors produced by topology construction and queries.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TopologyError {
    /// A dimension size or ring/switch count was zero.
    InvalidShape {
        /// Human-readable description naming the offending parameter.
        what: String,
    },
    /// The queried dimension does not exist / is inactive on this topology.
    InactiveDim {
        /// The dimension asked for.
        dim: Dim,
    },
    /// Ring or switch index out of range.
    ChannelOutOfRange {
        /// The dimension asked for.
        dim: Dim,
        /// The requested channel index.
        requested: usize,
        /// Number of channels available.
        available: usize,
    },
    /// The node is not a member of the queried ring.
    NotOnRing {
        /// The offending node.
        node: NodeId,
    },
    /// A ring needs at least two members.
    DegenerateRing {
        /// The offending size.
        size: usize,
    },
    /// Ring-route distance outside `1..ring_size`.
    BadDistance {
        /// The requested distance.
        steps: usize,
        /// Size of the ring.
        ring_size: usize,
    },
    /// A switch route was requested on a fabric without switches.
    NoSwitches,
    /// The fabric has more than [`MAX_NPUS`] NPUs.
    TooManyNpus {
        /// The NPU count, or `None` if it overflows `usize`.
        npus: Option<usize>,
    },
    /// The rings of a fabric's active torus dimensions would build more
    /// than [`MAX_SWITCH_LINKS`] links.
    TooManyRings {
        /// The local, horizontal and vertical ring counts.
        rings: [usize; 3],
        /// The number of NPUs.
        npus: usize,
    },
    /// A switched fabric has more than [`MAX_SWITCH_LINKS`] NPU–switch
    /// links.
    TooManySwitches {
        /// The number of global switches.
        switches: usize,
        /// The number of NPUs.
        npus: usize,
    },
    /// Node id outside the topology.
    NodeOutOfRange {
        /// The offending node.
        node: NodeId,
        /// Number of NPUs in the topology.
        num_npus: usize,
    },
    /// A logical→physical mapping was not a permutation.
    InvalidMapping {
        /// Human-readable description.
        what: String,
    },
    /// No physical path connects two endpoints (e.g. every route is blocked
    /// by down links).
    Unreachable {
        /// The route's source.
        from: NodeId,
        /// The route's destination.
        to: NodeId,
    },
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::InvalidShape { what } => write!(f, "invalid topology shape: {what}"),
            TopologyError::InactiveDim { dim } => {
                write!(f, "dimension {dim} is inactive on this topology")
            }
            TopologyError::ChannelOutOfRange {
                dim,
                requested,
                available,
            } => write!(
                f,
                "channel {requested} out of range for dimension {dim} ({available} available)"
            ),
            TopologyError::NotOnRing { node } => write!(f, "node {node} is not on this ring"),
            TopologyError::DegenerateRing { size } => {
                write!(f, "ring must have at least 2 members, got {size}")
            }
            TopologyError::BadDistance { steps, ring_size } => write!(
                f,
                "ring distance {steps} invalid for ring of size {ring_size}"
            ),
            TopologyError::NoSwitches => write!(f, "topology has no global switches"),
            TopologyError::TooManyNpus { npus: Some(n) } => {
                write!(f, "{n} NPUs exceed the cap of {MAX_NPUS} NPUs per fabric")
            }
            TopologyError::TooManyNpus { npus: None } => {
                write!(f, "the NPU count overflows usize (cap: {MAX_NPUS} NPUs)")
            }
            TopologyError::TooManyRings {
                rings: [local, horizontal, vertical],
                npus,
            } => write!(
                f,
                "{local} local, {horizontal} horizontal and {vertical} vertical rings on \
                 {npus} NPUs exceed the cap of {MAX_SWITCH_LINKS} ring links per fabric \
                 (one per NPU and local ring, two per inter-package ring)"
            ),
            TopologyError::TooManySwitches { switches, npus } => write!(
                f,
                "{switches} switches on {npus} NPUs exceed the cap of {MAX_SWITCH_LINKS} \
                 NPU-switch links per fabric (two per NPU and switch)"
            ),
            TopologyError::NodeOutOfRange { node, num_npus } => {
                write!(f, "node {node} out of range ({num_npus} NPUs)")
            }
            TopologyError::InvalidMapping { what } => write!(f, "invalid mapping: {what}"),
            TopologyError::Unreachable { from, to } => write!(
                f,
                "no usable physical path from {from} to {to} (all routes down or absent)"
            ),
        }
    }
}

impl Error for TopologyError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_informative() {
        let e = TopologyError::ChannelOutOfRange {
            dim: Dim::Local,
            requested: 5,
            available: 2,
        };
        let s = e.to_string();
        assert!(s.contains('5') && s.contains("local") && s.contains('2'));
    }

    #[test]
    fn implements_error_trait() {
        fn assert_err<E: Error + Send + Sync + 'static>() {}
        assert_err::<TopologyError>();
    }
}
