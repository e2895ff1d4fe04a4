//! The hierarchical alltoall fabric (Fig 3b).

use crate::switched::Switched;
use crate::{Dim, LinkClass, LinkSpec, NodeId, TopologyError, Torus3d};

/// A hierarchical `M × N` alltoall fabric.
///
/// `M` NPUs per package connected by `local_rings` unidirectional rings;
/// `N` packages whose NPUs reach each other through `switches` global
/// switches — "each NPU is connected to all of the global switches using
/// inter-package links" (§III-C).
///
/// NPU ids linearize as `l + M*p` for local index `l` and package `p`;
/// switch `s` gets network id `M*N + s`.
///
/// # Example
///
/// ```
/// use astra_topology::{Dim, HierAllToAll, LogicalTopology, NodeId};
/// // Fig 3b: local size 2, 3 packages, 2 global switches.
/// let a = HierAllToAll::new(2, 3, 1, 2)?;
/// assert_eq!(a.num_npus(), 6);
/// // NPUs with the same local index work together on the package dimension.
/// let group = LogicalTopology::alltoall(a).ring(Dim::Package, 0, NodeId(0))?;
/// assert_eq!(group.members(), &[NodeId(0), NodeId(2), NodeId(4)]);
/// # Ok::<(), astra_topology::TopologyError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HierAllToAll(pub(crate) Switched);

impl HierAllToAll {
    /// Creates a hierarchical alltoall fabric.
    ///
    /// # Errors
    ///
    /// Fails if any size is zero where the dimension is active: `local` and
    /// `packages` must be ≥ 1; a local dimension > 1 needs `local_rings ≥ 1`;
    /// a package dimension > 1 needs `switches ≥ 1`.
    pub fn new(
        local: usize,
        packages: usize,
        local_rings: usize,
        switches: usize,
    ) -> Result<Self, TopologyError> {
        if local == 0 || packages == 0 {
            return Err(TopologyError::InvalidShape {
                what: "local size and package count must be >= 1",
            });
        }
        if local > 1 && local_rings == 0 {
            return Err(TopologyError::InvalidShape {
                what: "active local dimension needs at least one ring",
            });
        }
        if packages > 1 && switches == 0 {
            return Err(TopologyError::InvalidShape {
                what: "active package dimension needs at least one switch",
            });
        }
        // A package is a 1-D torus of unidirectional local rings.
        let package = Torus3d::new(local, 1, 1, local_rings, 0, 0)?;
        Ok(HierAllToAll(Switched {
            block: package,
            groups: packages,
            switches,
            dim: Dim::Package,
            class: LinkClass::Package,
        }))
    }

    /// NPUs per package `M`.
    pub fn local(&self) -> usize {
        self.0.block.local()
    }

    /// Number of packages `N`.
    pub fn packages(&self) -> usize {
        self.0.groups
    }

    /// Number of global switches.
    pub fn switches(&self) -> usize {
        self.0.switches
    }

    /// Total NPUs (`M*N`).
    pub fn num_npus(&self) -> usize {
        self.0.num_npus()
    }

    /// Network id of global switch `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s >= switches`.
    pub fn switch_id(&self, s: usize) -> NodeId {
        self.0.switch_id(s)
    }

    /// `(local index, package)` of an NPU.
    ///
    /// # Errors
    ///
    /// Fails if `node` is out of range.
    pub fn split(&self, node: NodeId) -> Result<(usize, usize), TopologyError> {
        self.0.split(node)
    }

    /// Enumerates all physical links ring by ring — local ring 0 of every
    /// package, then ring 1, … — then, switch by switch, an up-link and a
    /// down-link per NPU.
    pub fn links(&self) -> Vec<LinkSpec> {
        let s = &self.0;
        let mut out = Vec::new();
        for spec in s.block.dims() {
            for ring_idx in 0..spec.concurrency {
                let ring = s.block.ring(spec.dim, ring_idx, NodeId(0));
                let links = ring.expect("package ring").links(spec.class);
                for p in 0..s.groups {
                    out.extend(s.offset_links(&links, p));
                }
            }
        }
        s.push_switch_links(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LogicalTopology;

    fn fig3b() -> LogicalTopology {
        LogicalTopology::alltoall(HierAllToAll::new(2, 3, 1, 2).unwrap())
    }

    #[test]
    fn split_roundtrip() {
        let a = HierAllToAll::new(2, 3, 1, 2).unwrap();
        for id in 0..a.num_npus() {
            let (l, p) = a.split(NodeId(id)).unwrap();
            assert_eq!(l + a.local() * p, id);
        }
        assert!(a.split(NodeId(6)).is_err());
        assert_eq!(a.switch_id(1), NodeId(7));
    }

    #[test]
    fn dims_local_then_package() {
        let dims = fig3b().dims();
        assert_eq!(dims.len(), 2);
        assert_eq!((dims[0].dim, dims[0].size, dims[0].concurrency), (Dim::Local, 2, 1));
        assert_eq!(
            (dims[1].dim, dims[1].size, dims[1].concurrency),
            (Dim::Package, 3, 2)
        );
        assert!(!dims[1].is_ring);
    }

    #[test]
    fn one_nam_per_nap_has_only_package_dim() {
        // Fig 9's 1x8 alltoall.
        let a = LogicalTopology::alltoall(HierAllToAll::new(1, 8, 0, 7).unwrap());
        let dims = a.dims();
        assert_eq!(dims.len(), 1);
        assert_eq!(dims[0].dim, Dim::Package);
        assert_eq!(dims[0].concurrency, 7);
    }

    #[test]
    fn package_group_members() {
        let g = fig3b().ring(Dim::Package, 1, NodeId(3)).unwrap();
        // Node 3 has local index 1; group = {1, 3, 5}.
        assert_eq!(g.members(), &[NodeId(1), NodeId(3), NodeId(5)]);
    }

    #[test]
    fn local_ring_stays_in_package() {
        let r = fig3b().ring(Dim::Local, 0, NodeId(5)).unwrap();
        assert_eq!(r.members(), &[NodeId(4), NodeId(5)]);
        assert!(fig3b().ring(Dim::Local, 1, NodeId(0)).is_err());
        assert!(fig3b().ring(Dim::Horizontal, 0, NodeId(0)).is_err());
    }

    #[test]
    fn switch_route_shape() {
        let a = fig3b();
        let r = a.switch_route(NodeId(0), NodeId(4), 1).unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r.src(), NodeId(0));
        assert_eq!(r.dst(), NodeId(4));
        assert_eq!(r.hops()[0].to, NodeId(7));
        assert!(a.switch_route(NodeId(0), NodeId(0), 0).is_err());
        assert!(a.switch_route(NodeId(0), NodeId(1), 5).is_err());
    }

    #[test]
    fn link_enumeration_counts() {
        // local: 1 ring * 3 packages * 2 links = 6
        // package: 2 switches * 6 npus * 2 directions = 24
        assert_eq!(fig3b().links().len(), 30);
    }

    #[test]
    fn invalid_shapes_rejected() {
        assert!(HierAllToAll::new(0, 3, 1, 1).is_err());
        assert!(HierAllToAll::new(2, 3, 0, 1).is_err());
        assert!(HierAllToAll::new(2, 3, 1, 0).is_err());
        assert!(HierAllToAll::new(1, 3, 0, 1).is_ok());
        assert!(HierAllToAll::new(2, 1, 1, 0).is_ok());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn switch_id_out_of_range_panics() {
        HierAllToAll::new(2, 3, 1, 2).unwrap().switch_id(2);
    }
}
