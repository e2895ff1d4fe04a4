//! The scale-out extension (§VII): pods of scale-up fabric connected by a
//! switch-based scale-out network.
//!
//! The paper's future work: "we also plan to extend it to a scale-out
//! fabric (modeling the transport layer, e.g., Ethernet)". A [`PodFabric`]
//! replicates one hierarchical torus (the scale-up *pod*) `pods` times and
//! adds a [`Dim::ScaleOut`] dimension: every NPU connects to `switches`
//! scale-out switches over [`LinkClass::ScaleOut`] links (Ethernet-class
//! bandwidth, transport-protocol overheads folded into latency/efficiency).
//! Multi-phase collectives extend naturally: the enhanced all-reduce
//! becomes reduce-scatter on local, all-reduce over the inter-package and
//! scale-out dimensions on the shard, all-gather on local.

use crate::switched::Switched;
use crate::{Dim, LinkClass, LinkSpec, NodeId, TopologyError, Torus3d};

/// `pods` copies of a scale-up torus, joined by scale-out switches.
///
/// NPU ids linearize as `intra + pod_size * pod`; scale-out switch `s` has
/// network id `num_npus + s`.
///
/// # Example
///
/// ```
/// use astra_topology::{Dim, LogicalTopology, NodeId, PodFabric, Torus3d};
/// // Four 2x2x2 pods behind 2 scale-out switches: 32 NPUs.
/// let f = PodFabric::new(Torus3d::new(2, 2, 2, 2, 1, 1)?, 4, 2)?;
/// assert_eq!(f.num_npus(), 32);
/// // NPU 0's scale-out group: same intra-pod slot in every pod.
/// let group = LogicalTopology::pods(f).ring(Dim::ScaleOut, 0, NodeId(0))?;
/// assert_eq!(group.members(), &[NodeId(0), NodeId(8), NodeId(16), NodeId(24)]);
/// # Ok::<(), astra_topology::TopologyError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PodFabric(pub(crate) Switched);

impl PodFabric {
    /// Creates a pod fabric.
    ///
    /// # Errors
    ///
    /// Fails if `pods == 0`, or if more than one pod is requested without
    /// any scale-out switch.
    pub fn new(pod: Torus3d, pods: usize, switches: usize) -> Result<Self, TopologyError> {
        if pods == 0 {
            return Err(TopologyError::InvalidShape {
                what: "need at least one pod",
            });
        }
        if pods > 1 && switches == 0 {
            return Err(TopologyError::InvalidShape {
                what: "multiple pods need at least one scale-out switch",
            });
        }
        Ok(PodFabric(Switched {
            block: pod,
            groups: pods,
            switches,
            dim: Dim::ScaleOut,
            class: LinkClass::ScaleOut,
        }))
    }

    /// The scale-up pod template.
    pub fn pod(&self) -> &Torus3d {
        &self.0.block
    }

    /// Number of pods.
    pub fn pods(&self) -> usize {
        self.0.groups
    }

    /// Number of scale-out switches.
    pub fn switches(&self) -> usize {
        self.0.switches
    }

    /// Total NPUs across all pods.
    pub fn num_npus(&self) -> usize {
        self.0.num_npus()
    }

    /// `(intra-pod id, pod index)` of an NPU.
    ///
    /// # Errors
    ///
    /// Fails if `node` is out of range.
    pub fn split(&self, node: NodeId) -> Result<(usize, usize), TopologyError> {
        self.0.split(node)
    }

    /// Every physical link pod by pod — all of pod 0's links in the torus's
    /// own order, then pod 1's, … — then, switch by switch, a scale-out
    /// up-link and down-link per NPU.
    pub fn links(&self) -> Vec<LinkSpec> {
        let s = &self.0;
        let pod_links = s.block.links();
        let mut out = Vec::new();
        for pod_idx in 0..s.groups {
            out.extend(s.offset_links(&pod_links, pod_idx));
        }
        s.push_switch_links(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LogicalTopology;

    fn fabric() -> PodFabric {
        PodFabric::new(Torus3d::new(2, 2, 1, 1, 1, 1).unwrap(), 3, 2).unwrap()
    }

    fn topo() -> LogicalTopology {
        LogicalTopology::pods(fabric())
    }

    #[test]
    fn shape_and_split() {
        let f = fabric();
        assert_eq!(f.num_npus(), 12);
        assert_eq!(f.split(NodeId(5)).unwrap(), (1, 1));
        assert_eq!(f.split(NodeId(11)).unwrap(), (3, 2));
        assert!(f.split(NodeId(12)).is_err());
        assert_eq!(topo().num_network_nodes(), 14);
        let r = topo().switch_route(NodeId(0), NodeId(4), 1).unwrap();
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
        assert_eq!(fabric().links().len(), 36 + 48);
    }

    #[test]
    fn single_pod_has_no_scale_out() {
        let f = PodFabric::new(Torus3d::new(2, 2, 1, 1, 1, 1).unwrap(), 1, 0).unwrap();
        let t = LogicalTopology::pods(f);
        assert!(t.dims().iter().all(|d| d.dim != Dim::ScaleOut));
        assert!(t.ring(Dim::ScaleOut, 0, NodeId(0)).is_err());
    }

    #[test]
    fn invalid_shapes_rejected() {
        let pod = Torus3d::new(2, 2, 1, 1, 1, 1).unwrap();
        assert!(PodFabric::new(pod.clone(), 0, 1).is_err());
        assert!(PodFabric::new(pod, 2, 0).is_err());
    }
}
