//! The hierarchical alltoall fabric (Fig 3b).

use crate::{Block, Dim, LinkClass, LogicalTopology, TopologyError};

impl LogicalTopology {
    /// A hierarchical `M × N` alltoall fabric: `M` NPUs per package
    /// connected by `local_rings` unidirectional rings; `N` packages whose
    /// NPUs reach each other through `switches` global switches — "each NPU
    /// is connected to all of the global switches using inter-package
    /// links" (§III-C).
    ///
    /// NPU ids linearize as `l + M*p` for local index `l` and package `p`;
    /// switch `s` gets network id `M*N + s`. Its links go ring by ring —
    /// local ring 0 of every package, then ring 1, … — then switch by
    /// switch.
    ///
    /// # Example
    ///
    /// ```
    /// use astra_topology::{Dim, LogicalTopology, NodeId};
    /// // Fig 3b: local size 2, 3 packages, 2 global switches.
    /// let a = LogicalTopology::alltoall(2, 3, 1, 2)?;
    /// assert_eq!(a.num_npus(), 6);
    /// // NPUs with the same local index work together on the package dimension.
    /// let group = a.ring(Dim::Package, 0, NodeId(0))?;
    /// assert_eq!(group.members(), &[NodeId(0), NodeId(2), NodeId(4)]);
    /// # Ok::<(), astra_topology::TopologyError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Fails if any size is zero where the dimension is active: `local` and
    /// `packages` must be ≥ 1; a local dimension > 1 needs `local_rings ≥ 1`;
    /// a package dimension > 1 needs `switches ≥ 1`; `local * packages`
    /// may not exceed [`MAX_NPUS`](crate::MAX_NPUS), nor its ring or switch
    /// links [`MAX_SWITCH_LINKS`](crate::MAX_SWITCH_LINKS).
    pub fn alltoall(
        local: usize,
        packages: usize,
        local_rings: usize,
        switches: usize,
    ) -> Result<Self, TopologyError> {
        Self::stack(vec![
            Block::rings(Dim::Local, local, LinkClass::Local, local_rings, false),
            Block::switches(Dim::Package, packages, LinkClass::Package, switches, false),
        ])
    }
}

#[cfg(test)]
mod tests {
    use crate::{Dim, LogicalTopology, NodeId};

    fn fig3b() -> LogicalTopology {
        LogicalTopology::alltoall(2, 3, 1, 2).unwrap()
    }

    #[test]
    fn split_roundtrip() {
        let a = fig3b();
        for id in 0..a.num_npus() {
            let l = a.coord(NodeId(id), Dim::Local).unwrap();
            let p = a.coord(NodeId(id), Dim::Package).unwrap();
            assert_eq!(l + 2 * p, id);
        }
        assert!(a.coord(NodeId(6), Dim::Local).is_err());
        let r = a.switch_route(NodeId(0), NodeId(1), 1).unwrap();
        assert_eq!(r.hops()[0].to, NodeId(7));
    }

    #[test]
    fn dims_local_then_package() {
        let dims = fig3b().dims();
        assert_eq!(dims.len(), 2);
        assert_eq!(
            (dims[0].dim, dims[0].size, dims[0].concurrency),
            (Dim::Local, 2, 1)
        );
        assert_eq!(
            (dims[1].dim, dims[1].size, dims[1].concurrency),
            (Dim::Package, 3, 2)
        );
        assert!(!dims[1].is_ring);
    }

    #[test]
    fn one_nam_per_nap_has_only_package_dim() {
        // Fig 9's 1x8 alltoall.
        let a = LogicalTopology::alltoall(1, 8, 0, 7).unwrap();
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
        assert!(LogicalTopology::alltoall(0, 3, 1, 1).is_err());
        assert!(LogicalTopology::alltoall(2, 3, 0, 1).is_err());
        assert!(LogicalTopology::alltoall(2, 3, 1, 0).is_err());
        assert!(LogicalTopology::alltoall(1, 3, 0, 1).is_ok());
        assert!(LogicalTopology::alltoall(2, 1, 1, 0).is_ok());
    }

    #[test]
    #[should_panic(expected = "requested: 2, available: 2")]
    fn switch_id_out_of_range_panics() {
        fig3b().switch_route(NodeId(0), NodeId(1), 2).unwrap();
    }
}
