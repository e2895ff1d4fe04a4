//! Logical → physical node mapping.

use crate::{Hop, NodeId, Route, TopologyError};
use serde::{Deserialize, Serialize};

/// A permutation mapping logical NPU ids to physical NPU ids.
///
/// The system layer "deals with the logical topology, that might be
/// completely different from the actual physical network topology" (§IV-B).
/// In the default configuration the mapping is the identity; a non-identity
/// permutation lets users study how re-labeling NPUs changes which physical
/// links each collective phase stresses.
///
/// Switch ids (≥ the permutation length) pass through unchanged.
///
/// # Example
///
/// ```
/// use astra_topology::{Mapping, NodeId};
/// let m = Mapping::from_permutation(vec![2, 0, 1])?;
/// assert_eq!(m.apply(NodeId(0)), NodeId(2));
/// assert_eq!(m.apply(NodeId(3)), NodeId(3)); // switch: passthrough
/// # Ok::<(), astra_topology::TopologyError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Mapping {
    logical_to_physical: Vec<usize>,
}

impl Mapping {
    /// The identity mapping over `n` NPUs.
    pub fn identity(n: usize) -> Self {
        Mapping {
            logical_to_physical: (0..n).collect(),
        }
    }

    /// Builds a mapping from an explicit permutation vector.
    ///
    /// # Errors
    ///
    /// Fails if the vector is not a permutation of `0..len`.
    pub fn from_permutation(perm: Vec<usize>) -> Result<Self, TopologyError> {
        let n = perm.len();
        let mut seen = vec![false; n];
        for &p in &perm {
            if p >= n {
                return Err(TopologyError::InvalidMapping {
                    what: format!("index {p} out of range for {n} nodes"),
                });
            }
            if seen[p] {
                return Err(TopologyError::InvalidMapping {
                    what: format!("index {p} appears twice"),
                });
            }
            seen[p] = true;
        }
        Ok(Mapping {
            logical_to_physical: perm,
        })
    }

    /// Number of NPUs covered by the mapping.
    pub fn len(&self) -> usize {
        self.logical_to_physical.len()
    }

    /// Whether the mapping covers zero nodes.
    pub fn is_empty(&self) -> bool {
        self.logical_to_physical.is_empty()
    }

    /// Maps a logical node to its physical id (switches pass through).
    pub fn apply(&self, node: NodeId) -> NodeId {
        match self.logical_to_physical.get(node.index()) {
            Some(&p) => NodeId(p),
            None => node,
        }
    }

    /// Maps every endpoint of a route.
    pub fn map_route(&self, route: &Route) -> Route {
        Route::new(
            route
                .hops()
                .iter()
                .map(|h| Hop {
                    from: self.apply(h.from),
                    to: self.apply(h.to),
                    channel: h.channel,
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Channel, Dim};

    #[test]
    fn identity_is_identity() {
        let m = Mapping::identity(4);
        assert_eq!(m.len(), 4);
        for i in 0..4 {
            assert_eq!(m.apply(NodeId(i)), NodeId(i));
        }
    }

    #[test]
    fn rejects_non_permutations() {
        assert!(Mapping::from_permutation(vec![0, 0]).is_err());
        assert!(Mapping::from_permutation(vec![0, 2]).is_err());
        assert!(Mapping::from_permutation(vec![1, 0]).is_ok());
    }

    #[test]
    fn maps_route_endpoints() {
        let m = Mapping::from_permutation(vec![1, 2, 0]).unwrap();
        let ch = Channel {
            dim: Dim::Local,
            ring: 0,
        };
        let route = Route::new(vec![
            Hop {
                from: NodeId(0),
                to: NodeId(1),
                channel: ch,
            },
            Hop {
                from: NodeId(1),
                to: NodeId(2),
                channel: ch,
            },
        ]);
        let mapped = m.map_route(&route);
        assert_eq!(mapped.src(), NodeId(1));
        assert_eq!(mapped.dst(), NodeId(0));
    }
}
