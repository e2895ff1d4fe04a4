//! The scale-out extension (§VII): pods of scale-up fabric connected by a
//! switch-based scale-out network.
//!
//! The paper's future work: "we also plan to extend it to a scale-out
//! fabric (modeling the transport layer, e.g., Ethernet)". A pod fabric
//! replicates one hierarchical torus (the scale-up *pod*) `pods` times and
//! stacks a [`Dim::ScaleOut`] dimension on it: every NPU connects to
//! `switches` scale-out switches over [`LinkClass::ScaleOut`] links
//! (Ethernet-class bandwidth, transport-protocol overheads folded into
//! latency/efficiency). Multi-phase collectives extend naturally: the
//! enhanced all-reduce becomes reduce-scatter on local, all-reduce over the
//! inter-package and scale-out dimensions on the shard, all-gather on local.

use crate::{Block, Dim, Kind, LinkClass, LogicalTopology, TopologyError};

impl LogicalTopology {
    /// `pods` copies of the scale-up torus `pod`, joined by `switches`
    /// scale-out switches.
    ///
    /// NPU ids linearize as `intra + pod_size * pod`; scale-out switch `s`
    /// has network id `num_npus + s`. Its links go pod by pod — all of pod
    /// 0's links in the torus's own order, then pod 1's, … — then switch by
    /// switch.
    ///
    /// # Example
    ///
    /// ```
    /// use astra_topology::{Dim, LogicalTopology, NodeId};
    /// // Four 2x2x2 pods behind 2 scale-out switches: 32 NPUs.
    /// let f = LogicalTopology::pods(LogicalTopology::torus(2, 2, 2, 2, 1, 1)?, 4, 2)?;
    /// assert_eq!(f.num_npus(), 32);
    /// // NPU 0's scale-out group: same intra-pod slot in every pod.
    /// let group = f.ring(Dim::ScaleOut, 0, NodeId(0))?;
    /// assert_eq!(group.members(), &[NodeId(0), NodeId(8), NodeId(16), NodeId(24)]);
    /// # Ok::<(), astra_topology::TopologyError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Fails if `pod` has switches (it must be a torus), if `pods == 0`, if
    /// more than one pod is requested without any scale-out switch, if the
    /// pods hold more than [`MAX_NPUS`](crate::MAX_NPUS) NPUs in all, or if
    /// their ring or switch links exceed
    /// [`MAX_SWITCH_LINKS`](crate::MAX_SWITCH_LINKS).
    pub fn pods(pod: LogicalTopology, pods: usize, switches: usize) -> Result<Self, TopologyError> {
        let switched = |b: &Block| matches!(b.kind, Kind::Switches { .. });
        if pod.blocks.iter().any(switched) {
            return Err(TopologyError::InvalidShape {
                what: "pods must be built from torus scale-up fabrics".into(),
            });
        }
        let mut blocks = pod.blocks;
        let scale_out = Block::switches(Dim::ScaleOut, pods, LinkClass::ScaleOut, switches, true);
        blocks.push(scale_out);
        Self::stack(blocks)
    }
}

#[cfg(test)]
mod tests {
    use crate::{Dim, LinkClass, LogicalTopology, NodeId};

    fn pod() -> LogicalTopology {
        LogicalTopology::torus(2, 2, 1, 1, 1, 1).unwrap()
    }

    fn topo() -> LogicalTopology {
        LogicalTopology::pods(pod(), 3, 2).unwrap()
    }

    #[test]
    fn shape_and_split() {
        let f = topo();
        assert_eq!(f.num_npus(), 12);
        let split = |n| {
            let pod = f.coord(NodeId(n), Dim::ScaleOut).unwrap();
            (n - 4 * pod, pod)
        };
        assert_eq!(split(5), (1, 1));
        assert_eq!(split(11), (3, 2));
        assert!(f.coord(NodeId(12), Dim::ScaleOut).is_err());
        assert_eq!(f.num_network_nodes(), 14);
        let r = f.switch_route(NodeId(0), NodeId(4), 1).unwrap();
        assert_eq!(r.hops()[0].to, NodeId(13));
    }

    #[test]
    fn dims_append_scale_out() {
        let dims = topo().dims();
        let last = dims.last().unwrap();
        assert_eq!(last.dim, Dim::ScaleOut);
        assert_eq!(last.size, 3);
        assert_eq!(last.concurrency, 2);
        assert_eq!(last.class, LinkClass::ScaleOut);
        assert!(!last.is_ring);
        // Pod dims come first, in paper order.
        assert_eq!(dims[0].dim, Dim::Local);
    }

    #[test]
    fn pod_rings_are_offset_into_pods() {
        let t = topo();
        // NPU 6 is intra 2 of pod 1; intra 2 has coords (l=0, h=1), so its
        // local ring is {intra 2, intra 3} + offset 4.
        let r = t.ring(Dim::Local, 0, NodeId(6)).unwrap();
        assert_eq!(r.members(), &[NodeId(6), NodeId(7)]);
        let r = t.ring(Dim::Horizontal, 0, NodeId(5)).unwrap();
        assert_eq!(r.members(), &[NodeId(5), NodeId(7)]);
    }

    #[test]
    fn scale_out_group_spans_pods() {
        let g = topo().ring(Dim::ScaleOut, 1, NodeId(7)).unwrap();
        assert_eq!(g.members(), &[NodeId(3), NodeId(7), NodeId(11)]);
    }

    #[test]
    fn switch_routes_cross_pods() {
        let t = topo();
        let r = t.switch_route(NodeId(0), NodeId(8), 0).unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r.hops()[0].to, NodeId(12));
        assert!(t.switch_route(NodeId(0), NodeId(0), 0).is_err());
        assert!(t.switch_route(NodeId(0), NodeId(1), 5).is_err());
    }

    #[test]
    fn links_count() {
        // Per 2x2x1 pod: local 1 ring x 2 packages x 2 links = 4, horizontal
        // 2 uni rings x 2 anchors x 2 links = 8; 12 x 3 pods = 36.
        // Scale-out: 2 switches x 12 NPUs x 2 dirs = 48.
        assert_eq!(topo().links().len(), 36 + 48);
    }

    #[test]
    fn single_pod_has_no_scale_out() {
        let t = LogicalTopology::pods(pod(), 1, 0).unwrap();
        assert!(t.dims().iter().all(|d| d.dim != Dim::ScaleOut));
        assert!(t.ring(Dim::ScaleOut, 0, NodeId(0)).is_err());
    }

    #[test]
    fn invalid_shapes_rejected() {
        assert!(LogicalTopology::pods(pod(), 0, 1).is_err());
        assert!(LogicalTopology::pods(pod(), 2, 0).is_err());
        // The scale-up fabric must be a torus.
        for alltoall in [(2, 2, 1, 1), (2, 1, 1, 0)] {
            let (m, n, lr, s) = alltoall;
            let alltoall = LogicalTopology::alltoall(m, n, lr, s).unwrap();
            assert!(LogicalTopology::pods(alltoall, 2, 1).is_err());
        }
        assert!(LogicalTopology::pods(topo(), 2, 1).is_err());
    }
}
