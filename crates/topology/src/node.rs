//! Node identity.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a network endpoint.
///
/// Ids `0..num_npus` are NPUs; in the alltoall and pod fabrics, ids
/// `num_npus..num_npus+switches` are switches.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct NodeId(pub usize);

impl NodeId {
    /// The raw index.
    #[inline]
    pub const fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<usize> for NodeId {
    fn from(v: usize) -> Self {
        NodeId(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Dim, LogicalTopology};

    /// The `(l, h, v)` coordinates of a torus NPU.
    fn lhv(t: &LogicalTopology, id: usize) -> [usize; 3] {
        [Dim::Local, Dim::Horizontal, Dim::Vertical].map(|d| t.coord(NodeId(id), d).unwrap())
    }

    #[test]
    fn id_coord_roundtrip_exhaustive() {
        // Ids linearize as l + M * (h + N * v).
        let (m, n, k) = (2, 3, 4);
        let t = LogicalTopology::torus(m, n, k, 1, 1, 1).unwrap();
        for id in 0..m * n * k {
            let [l, h, v] = lhv(&t, id);
            assert!(l < m && h < n && v < k);
            assert_eq!(l + m * (h + n * v), id);
        }
    }

    #[test]
    fn local_varies_fastest() {
        // Consecutive ids within a package differ only in l.
        let t = LogicalTopology::torus(4, 2, 2, 1, 1, 1).unwrap();
        let ([la, ha, va], [lb, hb, vb]) = (lhv(&t, 0), lhv(&t, 1));
        assert_eq!((ha, va), (hb, vb));
        assert_eq!(lb, la + 1);
    }

    #[test]
    fn display_formats() {
        assert_eq!(NodeId(3).to_string(), "n3");
    }
}
