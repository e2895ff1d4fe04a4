//! Collective planning/runtime errors.

use astra_topology::Dim;
use std::error::Error;
use std::fmt;

/// Errors from plan synthesis or phase-machine misuse.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CollectiveError {
    /// No active dimension to communicate over (single-node "collective").
    NoActiveDims,
    /// A requested dimension is inactive on the topology.
    InactiveDim {
        /// The offending dimension.
        dim: Dim,
    },
    /// A phase machine received a message for an unexpected step.
    UnexpectedStep {
        /// Step carried by the message.
        step: u32,
        /// What the machine could accept.
        expected: String,
    },
}

impl fmt::Display for CollectiveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CollectiveError::NoActiveDims => {
                write!(f, "collective has no active dimensions to run over")
            }
            CollectiveError::InactiveDim { dim } => {
                write!(f, "dimension {dim} is inactive on this topology")
            }
            CollectiveError::UnexpectedStep { step, expected } => {
                write!(f, "unexpected step {step} (expected {expected})")
            }
        }
    }
}

impl Error for CollectiveError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_error_impl() {
        fn assert_err<E: Error + Send + Sync + 'static>() {}
        assert_err::<CollectiveError>();
        assert!(CollectiveError::NoActiveDims.to_string().contains("active"));
    }
}
