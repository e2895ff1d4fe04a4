//! The hierarchical 3D torus fabric (Fig 3a).

use crate::{Block, Dim, LinkClass, LogicalTopology, TopologyError};

impl LogicalTopology {
    /// A hierarchical `M × N × K` torus:
    ///
    /// * `M` — local dimension: NPUs inside a package, connected by
    ///   `local_rings` fast **unidirectional** rings;
    /// * `N` — horizontal dimension: `horizontal_rings` **bidirectional**
    ///   inter-package rings (each modeled as two unidirectional rings);
    /// * `K` — vertical dimension, like horizontal.
    ///
    /// NPU ids linearize as `l + M*(h + N*v)`.
    ///
    /// # Example
    ///
    /// ```
    /// use astra_topology::{Dim, LogicalTopology, NodeId};
    /// // The paper's 2x4x4 ResNet-50 system: 2 local, 4 horizontal, 4 vertical.
    /// let t = LogicalTopology::torus(2, 4, 4, 2, 2, 2)?;
    /// assert_eq!(t.num_npus(), 32);
    /// // NPU 0 and NPU 1 share a package.
    /// let ring = t.ring(Dim::Local, 0, NodeId(1))?;
    /// assert_eq!(ring.members(), &[NodeId(0), NodeId(1)]);
    /// # Ok::<(), astra_topology::TopologyError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Fails if any dimension size is zero, if an active dimension
    /// (size > 1) has zero rings, if `local * horizontal * vertical`
    /// exceeds [`MAX_NPUS`](crate::MAX_NPUS), or if the rings of the active
    /// dimensions would build more than
    /// [`MAX_SWITCH_LINKS`](crate::MAX_SWITCH_LINKS) links.
    pub fn torus(
        local: usize,
        horizontal: usize,
        vertical: usize,
        local_rings: usize,
        horizontal_rings: usize,
        vertical_rings: usize,
    ) -> Result<Self, TopologyError> {
        Self::stack(vec![
            Block::rings(Dim::Local, local, LinkClass::Local, local_rings, false),
            Block::rings(
                Dim::Horizontal,
                horizontal,
                LinkClass::Package,
                horizontal_rings,
                true,
            ),
            Block::rings(
                Dim::Vertical,
                vertical,
                LinkClass::Package,
                vertical_rings,
                true,
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use crate::{Dim, LogicalTopology, NodeId};

    fn paper_fig3a() -> LogicalTopology {
        // Fig 3a: local=2, horizontal=2, vertical=3.
        LogicalTopology::torus(2, 2, 3, 1, 1, 1).unwrap()
    }

    #[test]
    fn shape_accessors() {
        let t = paper_fig3a();
        assert_eq!(
            (t.shape_string().as_str(), t.num_npus()),
            ("2x2x3 torus", 12)
        );
        let last = NodeId(11);
        let coords = [Dim::Local, Dim::Horizontal, Dim::Vertical].map(|d| t.coord(last, d));
        assert_eq!(coords, [Ok(1), Ok(1), Ok(2)]);
    }

    #[test]
    fn dims_skip_size_one_and_keep_paper_order() {
        let t = LogicalTopology::torus(1, 8, 1, 1, 2, 1).unwrap();
        let dims = t.dims();
        assert_eq!(dims.len(), 1);
        assert_eq!(dims[0].dim, Dim::Horizontal);
        assert_eq!(dims[0].size, 8);
        assert_eq!(dims[0].concurrency, 4); // 2 bidirectional rings

        let t = LogicalTopology::torus(4, 4, 4, 2, 2, 2).unwrap();
        let order: Vec<Dim> = t.dims().iter().map(|d| d.dim).collect();
        assert_eq!(order, vec![Dim::Local, Dim::Vertical, Dim::Horizontal]);
    }

    #[test]
    fn local_ring_members_share_package() {
        let t = paper_fig3a();
        let r = t.ring(Dim::Local, 0, NodeId(5)).unwrap();
        // Node 5 = coord (l=1, h=0, v=1); its local ring is {4, 5}.
        assert_eq!(r.members(), &[NodeId(4), NodeId(5)]);
    }

    #[test]
    fn vertical_ring_spans_packages() {
        let t = paper_fig3a();
        let r = t.ring(Dim::Vertical, 0, NodeId(0)).unwrap();
        // Same l=0, h=0, v=0..3: ids 0, 4, 8.
        assert_eq!(r.members(), &[NodeId(0), NodeId(4), NodeId(8)]);
    }

    #[test]
    fn odd_inter_package_ring_is_reversed() {
        let t = LogicalTopology::torus(1, 4, 1, 1, 1, 1).unwrap();
        let fwd = t.ring(Dim::Horizontal, 0, NodeId(0)).unwrap();
        let rev = t.ring(Dim::Horizontal, 1, NodeId(0)).unwrap();
        assert_eq!(fwd.next(NodeId(0)).unwrap(), NodeId(1));
        assert_eq!(rev.next(NodeId(0)).unwrap(), NodeId(3));
    }

    #[test]
    fn local_rings_all_forward() {
        let t = LogicalTopology::torus(4, 1, 1, 2, 1, 1).unwrap();
        let r0 = t.ring(Dim::Local, 0, NodeId(0)).unwrap();
        let r1 = t.ring(Dim::Local, 1, NodeId(0)).unwrap();
        assert_eq!(r0.members(), r1.members());
        assert_ne!(r0.channel(), r1.channel());
    }

    #[test]
    fn ring_is_consistent_across_members() {
        let t = paper_fig3a();
        let from0 = t.ring(Dim::Vertical, 0, NodeId(0)).unwrap();
        let from8 = t.ring(Dim::Vertical, 0, NodeId(8)).unwrap();
        assert_eq!(from0.members(), from8.members());
    }

    #[test]
    fn link_count_matches_formula() {
        // Links per dim = concurrency * (#rings in dim) * ring_size.
        let t = LogicalTopology::torus(2, 4, 4, 2, 2, 2).unwrap();
        let links = t.links();
        // local: 2 rings * 16 packages * 2 nodes = 64
        // vertical: 4 uni rings * (2*4 anchor positions) * 4 = 128
        // horizontal: 4 uni rings * (2*4) * 4 = 128
        assert_eq!(links.len(), 64 + 128 + 128);
        // No duplicate (from, to, channel) triples.
        let mut keys: Vec<_> = links.iter().map(|l| (l.from, l.to, l.channel)).collect();
        keys.sort_by_key(|k| (k.0, k.1, k.2.dim.index(), k.2.ring));
        let before = keys.len();
        keys.dedup();
        assert_eq!(keys.len(), before);
    }

    #[test]
    fn invalid_shapes_rejected() {
        assert!(LogicalTopology::torus(0, 2, 2, 1, 1, 1).is_err());
        assert!(LogicalTopology::torus(2, 2, 2, 0, 1, 1).is_err());
        // Inactive dims may have zero rings.
        assert!(LogicalTopology::torus(1, 2, 2, 0, 1, 1).is_ok());
    }

    #[test]
    fn out_of_range_queries_rejected() {
        let t = paper_fig3a();
        assert!(t.ring(Dim::Local, 5, NodeId(0)).is_err());
        assert!(t.ring(Dim::Local, 0, NodeId(99)).is_err());
        assert!(t.coord(NodeId(12), Dim::Local).is_err());
    }
}
