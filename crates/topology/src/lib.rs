//! # astra-topology
//!
//! Logical and physical topology machinery for the ASTRA-sim reproduction.
//!
//! The paper (§III-C) studies two families of hierarchical scale-up fabrics,
//! and this crate adds the scale-out extension the paper leaves to future
//! work (§VII):
//!
//! * a **hierarchical 3D torus** `M × N × K` (Fig 3a) with a *local*
//!   dimension of `M` NPUs inside a package connected by fast unidirectional
//!   rings, plus *horizontal* (`N`) and *vertical* (`K`) dimensions of
//!   bidirectional inter-package rings;
//! * a **hierarchical alltoall** `M × N` (Fig 3b) with the same local rings
//!   inside each of `N` packages and global switches providing alltoall
//!   connectivity between packages;
//! * **pods**: `P` copies of a torus joined by scale-out switches.
//!
//! The alltoall and the pods share one switch tier: copies of a torus block
//! (a package's local rings, or a whole pod) whose same-slot NPUs meet
//! through switches. Its id layout, groups, routes and switch links are
//! written once, in a crate-private module.
//!
//! This crate provides:
//!
//! * [`NodeId`] / [`Coord`] — node identity and 3-D coordinates;
//! * [`Dim`] — the named dimensions collectives iterate over;
//! * [`Torus3d`], [`HierAllToAll`] and [`PodFabric`] — the three fabrics,
//!   unified under [`LogicalTopology`];
//! * ring enumeration ([`LogicalTopology::ring`]) and route computation
//!   ([`LogicalTopology::ring_route`], [`LogicalTopology::switch_route`]) for
//!   the network backends;
//! * physical link enumeration ([`LogicalTopology::links`]) used to build a
//!   network;
//! * [`Mapping`] — the logical→physical node permutation the paper's system
//!   layer supports ("map a single logical topology on different physical
//!   topologies", §IV-B); identity by default.
//!
//! ## Example
//!
//! ```
//! use astra_topology::{Dim, LogicalTopology, NodeId, Torus3d};
//!
//! // Fig 3a: 2 (local) x 2 (horizontal) x 3 (vertical).
//! let topo = LogicalTopology::torus(Torus3d::new(2, 2, 3, 2, 1, 1)?);
//! assert_eq!(topo.num_npus(), 12);
//! let ring = topo.ring(Dim::Vertical, 0, NodeId(0))?;
//! assert_eq!(ring.members().len(), 3);
//! # Ok::<(), astra_topology::TopologyError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod alltoall;
mod dim;
mod error;
mod mapping;
mod node;
mod pathfind;
mod pods;
mod route;
mod switched;
mod torus;

pub use alltoall::HierAllToAll;
pub use dim::{Dim, DimSpec};
pub use error::TopologyError;
pub use mapping::Mapping;
pub use node::{Coord, NodeId};
pub use pathfind::PathFinder;
pub use pods::PodFabric;
pub use route::{Channel, Hop, LinkClass, LinkSpec, Ring, Route};
pub use torus::Torus3d;

/// The most NPUs one fabric may have. Every constructor rejects a larger
/// shape with [`TopologyError::TooManyNpus`] before it allocates anything:
/// the simulator's per-NPU state and link lists grow with the count, and a
/// shape such as `4000x4000x4000` would otherwise run without bound. Every
/// fabric the repository's tests, examples and sweeps build is far smaller.
pub const MAX_NPUS: usize = 1 << 16;

/// The most NPU–switch links, and the most ring links, one fabric may
/// have. A switched fabric joins every NPU to every global switch with an
/// up- and a down-link, so its constructors reject `2 × NPUs × switches`
/// above this with [`TopologyError::TooManySwitches`], and ring links
/// above it with [`TopologyError::TooManyRings`], before they allocate
/// anything.
pub const MAX_SWITCH_LINKS: usize = 1 << 20;

/// Checks the product of `sizes` against [`MAX_NPUS`], then the ring links
/// and the links to `switches` global switches against
/// [`MAX_SWITCH_LINKS`]. `rings` gives the (size, ring count) of the local,
/// horizontal and vertical torus dimension every NPU sits on: each NPU
/// drives one link per local ring and two per inter-package ring, and a
/// dimension of size 1 builds no ring whatever its count.
fn check_fabric_size(
    sizes: &[usize],
    rings: [(usize, usize); 3],
    switches: usize,
) -> Result<(), TopologyError> {
    let npus = match sizes.iter().try_fold(1usize, |n, &s| n.checked_mul(s)) {
        Some(n) if n <= MAX_NPUS => n,
        npus => return Err(TopologyError::TooManyNpus { npus }),
    };
    let ring_links = rings
        .iter()
        .zip([1, 2, 2])
        .filter(|&(&(size, _), _)| size > 1)
        .try_fold(0usize, |sum, (&(_, count), links)| {
            sum.checked_add(count.checked_mul(links)?)
        })
        .and_then(|per_npu| per_npu.checked_mul(npus));
    if ring_links.is_none_or(|links| links > MAX_SWITCH_LINKS) {
        return Err(TopologyError::TooManyRings {
            rings: rings.map(|(_, count)| count),
            npus,
        });
    }
    match (2 * npus).checked_mul(switches) {
        Some(links) if links <= MAX_SWITCH_LINKS => Ok(()),
        _ => Err(TopologyError::TooManySwitches { switches, npus }),
    }
}

/// A logical topology: the fabric shape the collective algorithms are
/// synthesized against.
///
/// The system layer "deals with the logical topology, that might be
/// completely different from the actual physical network topology" (§IV-B).
/// In the default configuration there is a one-to-one mapping between the
/// two; see [`Mapping`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogicalTopology {
    /// Hierarchical 3D torus (`M × N × K`, Fig 3a).
    Torus3d(Torus3d),
    /// Hierarchical alltoall (`M × N` with global switches, Fig 3b).
    AllToAll(HierAllToAll),
    /// Pods of scale-up torus joined by a scale-out network (the paper's
    /// §VII future work).
    Pods(PodFabric),
}

impl LogicalTopology {
    /// Wraps a torus. Convenience alias for `LogicalTopology::Torus3d(t)`.
    pub fn torus(t: Torus3d) -> Self {
        Self::Torus3d(t)
    }

    /// Wraps a hierarchical alltoall.
    pub fn alltoall(a: HierAllToAll) -> Self {
        Self::AllToAll(a)
    }

    /// Wraps a pod (scale-out) fabric.
    pub fn pods(f: PodFabric) -> Self {
        Self::Pods(f)
    }

    /// Total number of NPUs (excludes switches).
    pub fn num_npus(&self) -> usize {
        match self {
            Self::Torus3d(t) => t.num_npus(),
            Self::AllToAll(HierAllToAll(s)) | Self::Pods(PodFabric(s)) => s.num_npus(),
        }
    }

    /// Total number of network endpoints: NPUs plus (for the alltoall and
    /// pod fabrics) switches. Switch node ids start at
    /// [`LogicalTopology::num_npus`].
    pub fn num_network_nodes(&self) -> usize {
        match self {
            Self::Torus3d(t) => t.num_npus(),
            Self::AllToAll(HierAllToAll(s)) | Self::Pods(PodFabric(s)) => s.num_npus() + s.switches,
        }
    }

    /// The dimensions a multi-phase collective traverses, in the paper's
    /// order (torus: local → vertical → horizontal, §III-D; alltoall:
    /// local → package). Dimensions of size 1 are omitted — there is nobody
    /// to talk to.
    pub fn dims(&self) -> Vec<DimSpec> {
        match self {
            Self::Torus3d(t) => t.dims(),
            Self::AllToAll(HierAllToAll(s)) | Self::Pods(PodFabric(s)) => s.dims(),
        }
    }

    /// The ring of `ring_idx` (< concurrency of that dim) through `node` in
    /// `dim`. For the alltoall package dimension this is the *group* of
    /// same-local-index NPUs (used by direct algorithms); it is returned as a
    /// [`Ring`] whose order is package order.
    ///
    /// # Errors
    ///
    /// Returns an error if the dimension is inactive for this topology or
    /// `ring_idx` is out of range.
    pub fn ring(&self, dim: Dim, ring_idx: usize, node: NodeId) -> Result<Ring, TopologyError> {
        match self {
            Self::Torus3d(t) => t.ring(dim, ring_idx, node),
            Self::AllToAll(HierAllToAll(s)) | Self::Pods(PodFabric(s)) => {
                s.ring(dim, ring_idx, node)
            }
        }
    }

    /// The route (sequence of directed links) a message takes when `src`
    /// sends to the peer `steps` positions ahead of it on ring `ring_idx` of
    /// `dim`. With the paper's *software routing*, a distance-`steps` send is
    /// relayed over `steps` consecutive ring links.
    ///
    /// # Errors
    ///
    /// Returns an error for inactive dimensions, out-of-range ring index, or
    /// `steps` outside `1..ring_size`.
    pub fn ring_route(
        &self,
        dim: Dim,
        ring_idx: usize,
        src: NodeId,
        steps: usize,
    ) -> Result<Route, TopologyError> {
        let ring = self.ring(dim, ring_idx, src)?;
        ring.route_from(src, steps)
    }

    /// The 2-hop route `src → switch → dst` through switch `switch_idx`
    /// (alltoall and pod fabrics only).
    ///
    /// # Errors
    ///
    /// Returns an error on torus fabrics or out-of-range indices.
    pub fn switch_route(
        &self,
        src: NodeId,
        dst: NodeId,
        switch_idx: usize,
    ) -> Result<Route, TopologyError> {
        match self {
            Self::Torus3d(_) => Err(TopologyError::NoSwitches),
            Self::AllToAll(HierAllToAll(s)) | Self::Pods(PodFabric(s)) => {
                s.switch_route(src, dst, switch_idx)
            }
        }
    }

    /// Enumerates every physical link implied by the topology; the network
    /// backends build their link tables from this.
    pub fn links(&self) -> Vec<LinkSpec> {
        match self {
            Self::Torus3d(t) => t.links(),
            Self::AllToAll(a) => a.links(),
            Self::Pods(f) => f.links(),
        }
    }

    /// Human-readable shape, e.g. `"2x4x4 torus"` or `"4x16 alltoall"`.
    pub fn shape_string(&self) -> String {
        match self {
            Self::Torus3d(t) => {
                format!("{}x{}x{} torus", t.local(), t.horizontal(), t.vertical())
            }
            Self::AllToAll(a) => {
                format!("{}x{} alltoall", a.local(), a.packages())
            }
            Self::Pods(f) => format!(
                "{}x{}x{} torus x {} pods",
                f.pod().local(),
                f.pod().horizontal(),
                f.pod().vertical(),
                f.pods()
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn npu_counts_above_the_cap_are_rejected() {
        let too_many = |npus| Err(TopologyError::TooManyNpus { npus });
        let torus = |m, n, k| Torus3d::new(m, n, k, 1, 1, 1);
        assert_eq!(torus(4000, 4000, 4000), too_many(Some(64_000_000_000)));
        assert_eq!(torus(usize::MAX, 2, 1), too_many(None));
        assert_eq!(torus(1, MAX_NPUS, 1).unwrap().num_npus(), MAX_NPUS);
        assert_eq!(torus(1, MAX_NPUS + 1, 1), too_many(Some(MAX_NPUS + 1)));
        assert_eq!(
            HierAllToAll::new(1 << 9, 1 << 9, 1, 1),
            Err(TopologyError::TooManyNpus {
                npus: Some(1 << 18)
            })
        );
        assert_eq!(
            HierAllToAll::new(1 << 8, 1 << 8, 1, 1).unwrap().num_npus(),
            MAX_NPUS
        );
        let pod = torus(2, 2, 2).unwrap();
        assert_eq!(
            PodFabric::new(pod.clone(), usize::MAX / 4, 1),
            Err(TopologyError::TooManyNpus { npus: None })
        );
        let msg = torus(4000, 4000, 4000).unwrap_err().to_string();
        assert!(msg.contains("64000000000 NPUs"), "{msg}");
        // Switched fabrics: 2 × NPUs × switches links.
        let too_many = |switches, npus| Err(TopologyError::TooManySwitches { switches, npus });
        let max = MAX_SWITCH_LINKS / 16;
        assert!(HierAllToAll::new(1, 8, 1, max).is_ok());
        assert_eq!(HierAllToAll::new(1, 8, 1, max + 1), too_many(max + 1, 8));
        assert_eq!(HierAllToAll::new(1, 8, 1, usize::MAX), too_many(usize::MAX, 8));
        assert!(matches!(
            PodFabric::new(pod, 2, max),
            Err(TopologyError::TooManySwitches { npus: 16, .. })
        ));
        let msg = HierAllToAll::new(1, 8, 1, 100_000_000).unwrap_err().to_string();
        assert!(msg.contains("100000000 switches"), "{msg}");
        // Rings: one link per NPU and local ring, two per inter-package
        // ring, on active dimensions only.
        let rings = |rings, npus| TopologyError::TooManyRings { rings, npus };
        let err = Torus3d::new(2, 2, 2, 100_000_000, 2, 2).unwrap_err();
        assert_eq!(err, rings([100_000_000, 2, 2], 8));
        assert!(err.to_string().contains("100000000 local"), "{err}");
        let max = MAX_SWITCH_LINKS / 16;
        assert!(Torus3d::new(1, 8, 1, usize::MAX, max, usize::MAX).is_ok());
        let err = Torus3d::new(1, 8, 1, 1, max + 1, 1).unwrap_err();
        assert_eq!(err, rings([1, max + 1, 1], 8));
        let err = Torus3d::new(1, 8, 1, 1, usize::MAX, 1).unwrap_err();
        assert_eq!(err, rings([1, usize::MAX, 1], 8));
        // Default rings at the NPU cap: 10 links per NPU, 655,360 in all.
        assert!(Torus3d::new(16, 64, 64, 2, 2, 2).is_ok());
        let err = HierAllToAll::new(4, 2, 1 << 20, 1).unwrap_err();
        assert_eq!(err, rings([1 << 20, 0, 0], 8));
        let pod = Torus3d::new(1, 2, 1, 1, 1 << 17, 1).unwrap();
        assert_eq!(PodFabric::new(pod, 4, 1).unwrap_err(), rings([1, 1 << 17, 1], 8));
    }

    #[test]
    fn shape_strings() {
        let t = LogicalTopology::torus(Torus3d::new(2, 4, 4, 2, 2, 2).unwrap());
        assert_eq!(t.shape_string(), "2x4x4 torus");
        let a = LogicalTopology::alltoall(HierAllToAll::new(1, 8, 1, 7).unwrap());
        assert_eq!(a.shape_string(), "1x8 alltoall");
    }

    #[test]
    fn network_nodes_include_switches() {
        let a = LogicalTopology::alltoall(HierAllToAll::new(2, 3, 1, 2).unwrap());
        assert_eq!(a.num_npus(), 6);
        assert_eq!(a.num_network_nodes(), 8);
        let t = LogicalTopology::torus(Torus3d::new(2, 2, 2, 1, 1, 1).unwrap());
        assert_eq!(t.num_network_nodes(), t.num_npus());
    }

    #[test]
    fn switch_route_on_torus_fails() {
        let t = LogicalTopology::torus(Torus3d::new(2, 2, 2, 1, 1, 1).unwrap());
        assert!(matches!(
            t.switch_route(NodeId(0), NodeId(1), 0),
            Err(TopologyError::NoSwitches)
        ));
    }
}
