//! Facade error type.

use astra_network::ConfigError;
use astra_system::SystemError;
use astra_topology::TopologyError;
use std::error::Error;
use std::fmt;

/// Errors from end-to-end simulation setup or execution.
#[derive(Debug)]
#[non_exhaustive]
pub enum CoreError {
    /// The topology configuration was invalid.
    Topology(TopologyError),
    /// The network configuration was invalid.
    Network(ConfigError),
    /// The system layer rejected the experiment.
    System(SystemError),
    /// A collective reported completion but the system layer had no report
    /// for it — an internal invariant violation, never caused by user
    /// input. The payload is the raw collective id.
    MissingReport(u64),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Topology(e) => write!(f, "topology configuration invalid: {e}"),
            CoreError::Network(e) => write!(f, "network configuration invalid: {e}"),
            CoreError::System(e) => write!(f, "system layer error: {e}"),
            CoreError::MissingReport(id) => write!(
                f,
                "internal error: completed collective coll{id} has no report"
            ),
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Topology(e) => Some(e),
            CoreError::Network(e) => Some(e),
            CoreError::System(e) => Some(e),
            CoreError::MissingReport(_) => None,
        }
    }
}

#[doc(hidden)]
impl From<ConfigError> for CoreError {
    fn from(e: ConfigError) -> Self {
        CoreError::Network(e)
    }
}

#[doc(hidden)]
impl From<TopologyError> for CoreError {
    fn from(e: TopologyError) -> Self {
        CoreError::Topology(e)
    }
}

#[doc(hidden)]
impl From<SystemError> for CoreError {
    fn from(e: SystemError) -> Self {
        CoreError::System(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = CoreError::from(TopologyError::NoSwitches);
        assert!(e.source().is_some());
        assert!(e.to_string().contains("topology"));
        fn assert_err<E: Error + Send + Sync + 'static>() {}
        assert_err::<CoreError>();
    }
}
