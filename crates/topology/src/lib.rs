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
