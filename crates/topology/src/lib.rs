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
//! All three are one type, [`LogicalTopology`]: a stack of one-dimensional
//! blocks, as ASTRA-sim 2.0 describes any hierarchical network. A block is
//! one [`Dim`] of the fabric with a size and a [`LinkClass`], built of
//! rings (uni- or bidirectional) or of switches that every NPU reaches. A
//! torus stacks three ring blocks; the alltoall stacks a package switch
//! block on a local ring block; pods stack a scale-out switch block on a
//! torus. Links, rings, routes, coordinates and the fabric-size caps are
//! each one loop over the blocks.
//!
//! This crate provides:
//!
//! * [`NodeId`] — node identity, and [`LogicalTopology::coord`] — a node's
//!   coordinate along one dimension;
//! * [`Dim`] — the named dimensions collectives iterate over;
//! * [`LogicalTopology`] — the fabric, built by [`LogicalTopology::torus`],
//!   [`LogicalTopology::alltoall`] and [`LogicalTopology::pods`];
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
//! use astra_topology::{Dim, LogicalTopology, NodeId};
//!
//! // Fig 3a: 2 (local) x 2 (horizontal) x 3 (vertical).
//! let topo = LogicalTopology::torus(2, 2, 3, 2, 1, 1)?;
//! assert_eq!(topo.num_npus(), 12);
//! let ring = topo.ring(Dim::Vertical, 0, NodeId(0))?;
//! assert_eq!(ring.members().len(), 3);
//! assert_eq!(topo.coord(NodeId(5), Dim::Vertical)?, 1);
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
mod torus;

pub use dim::{Dim, DimSpec};
pub use error::TopologyError;
pub use mapping::Mapping;
pub use node::NodeId;
pub use pathfind::PathFinder;
pub use route::{Channel, Hop, LinkClass, LinkSpec, Ring, Route};

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

/// One dimension of a fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Block {
    dim: Dim,
    /// NPUs along the dimension; a block of size 1 is inactive.
    size: usize,
    /// Id distance between neighbours on the block: a node's coordinate on
    /// it is `id / stride % size`. Set by [`LogicalTopology::stack`].
    stride: usize,
    class: LinkClass,
    kind: Kind,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// `count` rings through every node. A bidirectional ring is two
    /// unidirectional channels, even index forward and odd reversed (§III-C:
    /// "each bidirectional ring is divided into two unidirectional rings").
    Rings { count: usize, bidirectional: bool },
    /// `count` switches that every NPU reaches over an up- and a down-link;
    /// the NPUs that share every other coordinate form the block's group.
    ///
    /// `links_by_group` orders [`LogicalTopology::links`]: when set, the
    /// ring links below this block come group by group (all of pod 0's
    /// links in the torus's own order, then pod 1's, …); when clear, ring
    /// by ring across every group (package 0..N's ring 0, then ring 1).
    /// Backends number their link tables in that order, so it is fixed by
    /// the constructor that builds the block, never by a configuration.
    Switches { count: usize, links_by_group: bool },
}

impl Block {
    /// `count` rings of `size` NPUs along `dim`; the stride is set when
    /// stacked.
    fn rings(dim: Dim, size: usize, class: LinkClass, count: usize, bidirectional: bool) -> Self {
        let kind = Kind::Rings {
            count,
            bidirectional,
        };
        Block {
            dim,
            size,
            stride: 0,
            class,
            kind,
        }
    }

    /// `count` switches joining `size` groups along `dim`.
    fn switches(
        dim: Dim,
        size: usize,
        class: LinkClass,
        count: usize,
        links_by_group: bool,
    ) -> Self {
        let kind = Kind::Switches {
            count,
            links_by_group,
        };
        Block {
            dim,
            size,
            stride: 0,
            class,
            kind,
        }
    }

    /// Independent channels: unidirectional rings, or switches.
    fn channels(&self) -> usize {
        match self.kind {
            Kind::Rings {
                count,
                bidirectional: true,
            } => 2 * count,
            Kind::Rings { count, .. } | Kind::Switches { count, .. } => count,
        }
    }

    fn coord(&self, node: NodeId) -> usize {
        node.index() / self.stride % self.size
    }
}

/// Checks a stack's NPU count against [`MAX_NPUS`], then its ring links
/// and its NPU–switch links against [`MAX_SWITCH_LINKS`]. On an active
/// dimension each NPU drives one link per unidirectional ring, two per
/// bidirectional ring, and an up- and a down-link per switch.
fn check_fabric_size(blocks: &[Block]) -> Result<(), TopologyError> {
    let npus = match blocks.iter().try_fold(1usize, |n, b| n.checked_mul(b.size)) {
        Some(n) if n <= MAX_NPUS => n,
        npus => return Err(TopologyError::TooManyNpus { npus }),
    };
    // The error names the local, horizontal and vertical ring counts.
    let mut rings = [0; 3];
    let mut ring_links = Some(0usize);
    let mut switches = 0usize;
    for b in blocks {
        match b.kind {
            Kind::Rings {
                count,
                bidirectional,
            } => {
                rings[match b.dim {
                    Dim::Local => 0,
                    Dim::Horizontal => 1,
                    _ => 2,
                }] = count;
                if b.size > 1 {
                    let per_npu = count.checked_mul(1 + usize::from(bidirectional));
                    ring_links = ring_links.zip(per_npu).and_then(|(s, l)| s.checked_add(l));
                }
            }
            Kind::Switches { count, .. } => switches = switches.saturating_add(count),
        }
    }
    if ring_links
        .and_then(|per_npu| per_npu.checked_mul(npus))
        .is_none_or(|links| links > MAX_SWITCH_LINKS)
    {
        return Err(TopologyError::TooManyRings { rings, npus });
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
///
/// NPU ids linearize over the blocks innermost first: a torus numbers
/// `l + M*(h + N*v)`, the alltoall `l + M*p`, pods `intra + pod_size*pod`.
/// A fabric has at most one switch block; its switch `s` has network id
/// `num_npus + s`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogicalTopology {
    /// Innermost (fastest-varying id coordinate) first.
    blocks: Vec<Block>,
}

impl LogicalTopology {
    /// Validates `blocks` (innermost first) and sets their strides.
    fn stack(mut blocks: Vec<Block>) -> Result<Self, TopologyError> {
        for b in &blocks {
            let (dim, size) = (b.dim, b.size);
            let what = match b.kind {
                _ if size == 0 => format!("the {dim} dimension has size 0"),
                Kind::Rings { count: 0, .. } if size > 1 => {
                    format!("the {dim} dimension has size {size} but no rings")
                }
                Kind::Switches { count: 0, .. } if size > 1 => {
                    format!("the {dim} dimension has size {size} but no switches")
                }
                _ => continue,
            };
            return Err(TopologyError::InvalidShape { what });
        }
        check_fabric_size(&blocks)?;
        let mut stride = 1;
        for b in &mut blocks {
            b.stride = stride;
            stride *= b.size;
        }
        Ok(LogicalTopology { blocks })
    }

    /// The active block of `dim`.
    fn active(&self, dim: Dim) -> Result<&Block, TopologyError> {
        self.blocks
            .iter()
            .find(|b| b.dim == dim && b.size > 1)
            .ok_or(TopologyError::InactiveDim { dim })
    }

    /// Fails unless `node` is an NPU.
    fn check_npu(&self, node: NodeId) -> Result<(), TopologyError> {
        let num_npus = self.num_npus();
        if node.index() >= num_npus {
            return Err(TopologyError::NodeOutOfRange { node, num_npus });
        }
        Ok(())
    }

    /// Total number of NPUs (excludes switches).
    pub fn num_npus(&self) -> usize {
        self.blocks.iter().map(|b| b.size).product()
    }

    /// Total number of network endpoints: NPUs plus (for the alltoall and
    /// pod fabrics) switches. Switch node ids start at
    /// [`LogicalTopology::num_npus`].
    pub fn num_network_nodes(&self) -> usize {
        let switches = self.blocks.iter().map(|b| match b.kind {
            Kind::Switches { count, .. } => count,
            Kind::Rings { .. } => 0,
        });
        self.num_npus() + switches.sum::<usize>()
    }

    /// The coordinate of `node` along `dim`: its position on the ring or
    /// switch group of that dimension. A dimension the fabric does not
    /// have reads 0.
    ///
    /// # Example
    ///
    /// ```
    /// use astra_topology::{Dim, LogicalTopology, NodeId};
    /// // A torus numbers its NPUs l + M * (h + N * v): on 2x2x3, NPU 11 is
    /// // (l1, h1, v2), and it has no package coordinate.
    /// let t = LogicalTopology::torus(2, 2, 3, 1, 1, 1)?;
    /// let dims = [Dim::Local, Dim::Horizontal, Dim::Vertical, Dim::Package];
    /// assert_eq!(dims.map(|d| t.coord(NodeId(11), d)), [Ok(1), Ok(1), Ok(2), Ok(0)]);
    /// # Ok::<(), astra_topology::TopologyError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Fails if `node` is not an NPU.
    pub fn coord(&self, node: NodeId, dim: Dim) -> Result<usize, TopologyError> {
        self.check_npu(node)?;
        let block = self.blocks.iter().find(|b| b.dim == dim);
        Ok(block.map_or(0, |b| b.coord(node)))
    }

    /// The dimensions a multi-phase collective traverses, in the paper's
    /// order (torus: local → vertical → horizontal, §III-D; alltoall:
    /// local → package), which is [`Dim`]'s order. Dimensions of size 1 are
    /// omitted — there is nobody to talk to.
    pub fn dims(&self) -> Vec<DimSpec> {
        let mut dims: Vec<DimSpec> = (self.blocks.iter().filter(|b| b.size > 1))
            .map(|b| DimSpec {
                dim: b.dim,
                size: b.size,
                concurrency: b.channels(),
                class: b.class,
                is_ring: matches!(b.kind, Kind::Rings { .. }),
            })
            .collect();
        dims.sort_by_key(|d| d.dim);
        dims
    }

    /// The ring of `ring_idx` (< concurrency of that dim) through `node` in
    /// `dim`. For a switch dimension this is the *group* of NPUs that share
    /// every other coordinate (used by direct algorithms), in group order;
    /// its channel names switch `ring_idx`.
    ///
    /// # Errors
    ///
    /// Returns an error if the dimension is inactive for this topology or
    /// `ring_idx` or `node` is out of range.
    pub fn ring(&self, dim: Dim, ring_idx: usize, node: NodeId) -> Result<Ring, TopologyError> {
        let b = self.active(dim)?;
        let available = b.channels();
        if ring_idx >= available {
            return Err(TopologyError::ChannelOutOfRange {
                dim,
                requested: ring_idx,
                available,
            });
        }
        self.check_npu(node)?;
        let first = node.index() - b.coord(node) * b.stride;
        let mut members: Vec<NodeId> = (0..b.size).map(|i| NodeId(first + i * b.stride)).collect();
        if matches!(
            b.kind,
            Kind::Rings {
                bidirectional: true,
                ..
            }
        ) && ring_idx % 2 == 1
        {
            members.reverse();
        }
        let channel = Channel {
            dim,
            ring: ring_idx,
        };
        Ring::new(channel, members)
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
        let (b, count) = (self.blocks.iter())
            .find_map(|b| match b.kind {
                Kind::Switches { count, .. } => Some((b, count)),
                Kind::Rings { .. } => None,
            })
            .ok_or(TopologyError::NoSwitches)?;
        self.check_npu(src)?;
        self.check_npu(dst)?;
        if switch_idx >= count {
            return Err(TopologyError::ChannelOutOfRange {
                dim: b.dim,
                requested: switch_idx,
                available: count,
            });
        }
        if src == dst {
            return Err(TopologyError::BadDistance {
                steps: 0,
                ring_size: b.size,
            });
        }
        let switch = NodeId(self.num_npus() + switch_idx);
        let channel = Channel {
            dim: b.dim,
            ring: switch_idx,
        };
        let hop = |from, to| Hop { from, to, channel };
        Ok(Route::new(vec![hop(src, switch), hop(switch, dst)]))
    }

    /// Enumerates every physical link implied by the topology; the network
    /// backends build their link tables from this, in this order.
    ///
    /// Ring links come first, dimension by dimension in [`Dim`] order, ring
    /// by ring, each ring from its member with coordinate 0 (in id order) —
    /// all of it once per group of a `links_by_group` switch block (pods),
    /// else once. Then, switch by switch, an up-link and a down-link per
    /// NPU.
    pub fn links(&self) -> Vec<LinkSpec> {
        let npus = self.num_npus();
        let groups = (self.blocks.iter())
            .find_map(|b| match b.kind {
                Kind::Switches {
                    links_by_group: true,
                    ..
                } => Some(b.size),
                _ => None,
            })
            .unwrap_or(1);
        let span = npus / groups;
        let mut rings: Vec<&Block> = (self.blocks.iter())
            .filter(|b| b.size > 1 && matches!(b.kind, Kind::Rings { .. }))
            .collect();
        rings.sort_by_key(|b| b.dim);
        let mut out = Vec::new();
        for group in 0..groups {
            for b in &rings {
                for ring_idx in 0..b.channels() {
                    let anchors = (group * span..(group + 1) * span).map(NodeId);
                    for anchor in anchors.filter(|&n| b.coord(n) == 0) {
                        let ring = self.ring(b.dim, ring_idx, anchor);
                        out.extend(ring.expect("anchor is an NPU").links(b.class));
                    }
                }
            }
        }
        for b in self.blocks.iter().filter(|b| b.size > 1) {
            let Kind::Switches { count, .. } = b.kind else {
                continue;
            };
            for s in 0..count {
                let switch = NodeId(npus + s);
                let channel = Channel {
                    dim: b.dim,
                    ring: s,
                };
                for n in (0..npus).map(NodeId) {
                    for (from, to) in [(n, switch), (switch, n)] {
                        out.push(LinkSpec {
                            from,
                            to,
                            channel,
                            class: b.class,
                        });
                    }
                }
            }
        }
        out
    }

    /// Human-readable shape, e.g. `"2x4x4 torus"`, `"4x16 alltoall"` or
    /// `"1x4x1 torus x 2 pods"`.
    pub fn shape_string(&self) -> String {
        let mut sizes = Vec::new();
        let mut kind = "torus".to_string();
        for b in &self.blocks {
            match b.dim {
                Dim::Package => {
                    sizes.push(b.size.to_string());
                    kind = "alltoall".to_string();
                }
                Dim::ScaleOut => kind = format!("torus x {} pods", b.size),
                _ => sizes.push(b.size.to_string()),
            }
        }
        format!("{} {kind}", sizes.join("x"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn npu_counts_above_the_cap_are_rejected() {
        let too_many = |npus| Err(TopologyError::TooManyNpus { npus });
        let torus = |m, n, k| LogicalTopology::torus(m, n, k, 1, 1, 1);
        assert_eq!(torus(4000, 4000, 4000), too_many(Some(64_000_000_000)));
        assert_eq!(torus(usize::MAX, 2, 1), too_many(None));
        assert_eq!(torus(1, MAX_NPUS, 1).unwrap().num_npus(), MAX_NPUS);
        assert_eq!(torus(1, MAX_NPUS + 1, 1), too_many(Some(MAX_NPUS + 1)));
        assert_eq!(
            LogicalTopology::alltoall(1 << 9, 1 << 9, 1, 1),
            too_many(Some(1 << 18))
        );
        let a = LogicalTopology::alltoall(1 << 8, 1 << 8, 1, 1);
        assert_eq!(a.unwrap().num_npus(), MAX_NPUS);
        let pod = torus(2, 2, 2).unwrap();
        assert_eq!(
            LogicalTopology::pods(pod.clone(), usize::MAX / 4, 1),
            too_many(None)
        );
        let msg = torus(4000, 4000, 4000).unwrap_err().to_string();
        assert!(msg.contains("64000000000 NPUs"), "{msg}");
        // Switch blocks: 2 × NPUs × switches links.
        let too_many = |switches, npus| Err(TopologyError::TooManySwitches { switches, npus });
        let max = MAX_SWITCH_LINKS / 16;
        let alltoall = |s| LogicalTopology::alltoall(1, 8, 1, s);
        assert!(alltoall(max).is_ok());
        assert_eq!(alltoall(max + 1), too_many(max + 1, 8));
        assert_eq!(alltoall(usize::MAX), too_many(usize::MAX, 8));
        assert!(matches!(
            LogicalTopology::pods(pod, 2, max),
            Err(TopologyError::TooManySwitches { npus: 16, .. })
        ));
        let msg = alltoall(100_000_000).unwrap_err().to_string();
        assert!(msg.contains("100000000 switches"), "{msg}");
        // Rings: one link per NPU and local ring, two per inter-package
        // ring, on active dimensions only.
        let rings = |rings, npus| TopologyError::TooManyRings { rings, npus };
        let err = LogicalTopology::torus(2, 2, 2, 100_000_000, 2, 2).unwrap_err();
        assert_eq!(err, rings([100_000_000, 2, 2], 8));
        assert!(err.to_string().contains("100000000 local"), "{err}");
        let max = MAX_SWITCH_LINKS / 16;
        assert!(LogicalTopology::torus(1, 8, 1, usize::MAX, max, usize::MAX).is_ok());
        let err = LogicalTopology::torus(1, 8, 1, 1, max + 1, 1).unwrap_err();
        assert_eq!(err, rings([1, max + 1, 1], 8));
        let err = LogicalTopology::torus(1, 8, 1, 1, usize::MAX, 1).unwrap_err();
        assert_eq!(err, rings([1, usize::MAX, 1], 8));
        // Default rings at the NPU cap: 10 links per NPU, 655,360 in all.
        assert!(LogicalTopology::torus(16, 64, 64, 2, 2, 2).is_ok());
        let err = LogicalTopology::alltoall(4, 2, 1 << 20, 1).unwrap_err();
        assert_eq!(err, rings([1 << 20, 0, 0], 8));
        let pod = LogicalTopology::torus(1, 2, 1, 1, 1 << 17, 1).unwrap();
        let err = LogicalTopology::pods(pod, 4, 1).unwrap_err();
        assert_eq!(err, rings([1, 1 << 17, 1], 8));
    }

    #[test]
    fn shape_strings() {
        let t = LogicalTopology::torus(2, 4, 4, 2, 2, 2).unwrap();
        assert_eq!(t.shape_string(), "2x4x4 torus");
        let a = LogicalTopology::alltoall(1, 8, 1, 7).unwrap();
        assert_eq!(a.shape_string(), "1x8 alltoall");
        let p = LogicalTopology::pods(t, 3, 1).unwrap();
        assert_eq!(p.shape_string(), "2x4x4 torus x 3 pods");
    }

    #[test]
    fn network_nodes_include_switches() {
        let a = LogicalTopology::alltoall(2, 3, 1, 2).unwrap();
        assert_eq!(a.num_npus(), 6);
        assert_eq!(a.num_network_nodes(), 8);
        let t = LogicalTopology::torus(2, 2, 2, 1, 1, 1).unwrap();
        assert_eq!(t.num_network_nodes(), t.num_npus());
    }

    #[test]
    fn switch_route_on_torus_fails() {
        let t = LogicalTopology::torus(2, 2, 2, 1, 1, 1).unwrap();
        assert!(matches!(
            t.switch_route(NodeId(0), NodeId(1), 0),
            Err(TopologyError::NoSwitches)
        ));
    }
}
