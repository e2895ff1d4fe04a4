//! The hierarchical 3D torus fabric (Fig 3a).

use crate::{Channel, Coord, Dim, DimSpec, LinkClass, LinkSpec, NodeId, Ring, TopologyError};

/// A hierarchical `M × N × K` torus.
///
/// * `M` — local dimension: NPUs inside a package, connected by
///   `local_rings` fast **unidirectional** rings;
/// * `N` — horizontal dimension: `horizontal_rings` **bidirectional**
///   inter-package rings (each modeled as two unidirectional rings);
/// * `K` — vertical dimension, like horizontal.
///
/// NPU ids linearize as `l + M*(h + N*v)` (see [`Coord`]).
///
/// # Example
///
/// ```
/// use astra_topology::{Dim, NodeId, Torus3d};
/// // The paper's 2x4x4 ResNet-50 system: 2 local, 4 horizontal, 4 vertical.
/// let t = Torus3d::new(2, 4, 4, 2, 2, 2)?;
/// assert_eq!(t.num_npus(), 32);
/// // NPU 0 and NPU 1 share a package.
/// let ring = t.ring(Dim::Local, 0, NodeId(1))?;
/// assert_eq!(ring.members(), &[NodeId(0), NodeId(1)]);
/// # Ok::<(), astra_topology::TopologyError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Torus3d {
    local: usize,
    horizontal: usize,
    vertical: usize,
    local_rings: usize,
    horizontal_rings: usize,
    vertical_rings: usize,
}

impl Torus3d {
    /// Creates a torus with the given shape and ring counts.
    ///
    /// `local_rings` counts unidirectional intra-package rings;
    /// `horizontal_rings`/`vertical_rings` count **bidirectional**
    /// inter-package rings.
    ///
    /// # Errors
    ///
    /// Fails if any dimension size is zero, if an active dimension
    /// (size > 1) has zero rings, if `local * horizontal * vertical`
    /// exceeds [`MAX_NPUS`](crate::MAX_NPUS), or if the rings of the active
    /// dimensions would build more than
    /// [`MAX_SWITCH_LINKS`](crate::MAX_SWITCH_LINKS) links.
    pub fn new(
        local: usize,
        horizontal: usize,
        vertical: usize,
        local_rings: usize,
        horizontal_rings: usize,
        vertical_rings: usize,
    ) -> Result<Self, TopologyError> {
        if local == 0 || horizontal == 0 || vertical == 0 {
            return Err(TopologyError::InvalidShape {
                what: "dimension sizes must be >= 1",
            });
        }
        if (local > 1 && local_rings == 0)
            || (horizontal > 1 && horizontal_rings == 0)
            || (vertical > 1 && vertical_rings == 0)
        {
            return Err(TopologyError::InvalidShape {
                what: "active dimensions need at least one ring",
            });
        }
        let torus = Torus3d {
            local,
            horizontal,
            vertical,
            local_rings,
            horizontal_rings,
            vertical_rings,
        };
        crate::check_fabric_size(&[local, horizontal, vertical], torus.rings(), 0)?;
        Ok(torus)
    }

    /// The (size, ring count) of the local, horizontal and vertical
    /// dimensions.
    pub(crate) fn rings(&self) -> [(usize, usize); 3] {
        [
            (self.local, self.local_rings),
            (self.horizontal, self.horizontal_rings),
            (self.vertical, self.vertical_rings),
        ]
    }

    /// Local dimension size `M`.
    pub fn local(&self) -> usize {
        self.local
    }

    /// Horizontal dimension size `N`.
    pub fn horizontal(&self) -> usize {
        self.horizontal
    }

    /// Vertical dimension size `K`.
    pub fn vertical(&self) -> usize {
        self.vertical
    }

    /// Total NPUs (`M*N*K`).
    pub fn num_npus(&self) -> usize {
        self.local * self.horizontal * self.vertical
    }

    /// Coordinates of an NPU.
    ///
    /// # Errors
    ///
    /// Fails if `node` is out of range.
    pub fn coord(&self, node: NodeId) -> Result<Coord, TopologyError> {
        if node.index() >= self.num_npus() {
            return Err(TopologyError::NodeOutOfRange {
                node,
                num_npus: self.num_npus(),
            });
        }
        Ok(Coord::from_id(node, self.local, self.horizontal))
    }

    fn dim_size(&self, dim: Dim) -> Option<usize> {
        match dim {
            Dim::Local => Some(self.local),
            Dim::Horizontal => Some(self.horizontal),
            Dim::Vertical => Some(self.vertical),
            Dim::Package | Dim::ScaleOut => None,
        }
    }

    fn dim_concurrency(&self, dim: Dim) -> usize {
        match dim {
            Dim::Local => self.local_rings,
            // Bidirectional rings split into two unidirectional rings each.
            Dim::Horizontal => 2 * self.horizontal_rings,
            Dim::Vertical => 2 * self.vertical_rings,
            Dim::Package | Dim::ScaleOut => 0,
        }
    }

    /// Active dimensions in the paper's traversal order:
    /// local → vertical → horizontal (§III-D).
    pub fn dims(&self) -> Vec<DimSpec> {
        [Dim::Local, Dim::Vertical, Dim::Horizontal]
            .into_iter()
            .filter_map(|dim| {
                let size = self.dim_size(dim).expect("torus dims have sizes");
                (size > 1).then(|| DimSpec {
                    dim,
                    size,
                    concurrency: self.dim_concurrency(dim),
                    class: if dim == Dim::Local {
                        LinkClass::Local
                    } else {
                        LinkClass::Package
                    },
                    is_ring: true,
                })
            })
            .collect()
    }

    /// The members of the `dim` ring through `node`, in the direction of
    /// ring `ring_idx`.
    ///
    /// Local rings are all unidirectional (forward); inter-package rings
    /// alternate: even index forward, odd index reverse.
    ///
    /// # Errors
    ///
    /// Fails for inactive dimensions, out-of-range ring index or node.
    pub fn ring(&self, dim: Dim, ring_idx: usize, node: NodeId) -> Result<Ring, TopologyError> {
        let size = self.dim_size(dim).ok_or(TopologyError::InactiveDim { dim })?;
        if size <= 1 {
            return Err(TopologyError::InactiveDim { dim });
        }
        let available = self.dim_concurrency(dim);
        if ring_idx >= available {
            return Err(TopologyError::ChannelOutOfRange {
                dim,
                requested: ring_idx,
                available,
            });
        }
        let c = self.coord(node)?;
        let mut members: Vec<NodeId> = (0..size)
            .map(|i| {
                let cc = match dim {
                    Dim::Local => Coord { l: i, ..c },
                    Dim::Horizontal => Coord { h: i, ..c },
                    Dim::Vertical => Coord { v: i, ..c },
                    Dim::Package | Dim::ScaleOut => {
                        unreachable!("switch dims filtered above")
                    }
                };
                cc.to_id(self.local, self.horizontal)
            })
            .collect();
        let reverse = dim != Dim::Local && ring_idx % 2 == 1;
        if reverse {
            members.reverse();
        }
        Ring::new(
            Channel {
                dim,
                ring: ring_idx,
            },
            members,
        )
    }

    /// Enumerates every physical link of the torus.
    pub fn links(&self) -> Vec<LinkSpec> {
        let mut out = Vec::new();
        for spec in self.dims() {
            for ring_idx in 0..spec.concurrency {
                // One ring instance per orthogonal position: pick anchors with
                // the ring dimension's coordinate = 0.
                for anchor in self.ring_anchors(spec.dim) {
                    let ring = self
                        .ring(spec.dim, ring_idx, anchor)
                        .expect("anchor is valid");
                    out.extend(ring.links(spec.class));
                }
            }
        }
        out
    }

    /// All nodes whose coordinate along `dim` is zero — one per distinct ring
    /// of that dimension.
    fn ring_anchors(&self, dim: Dim) -> Vec<NodeId> {
        (0..self.num_npus())
            .map(NodeId)
            .filter(|&n| {
                let c = Coord::from_id(n, self.local, self.horizontal);
                match dim {
                    Dim::Local => c.l == 0,
                    Dim::Horizontal => c.h == 0,
                    Dim::Vertical => c.v == 0,
                    Dim::Package | Dim::ScaleOut => false,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_fig3a() -> Torus3d {
        // Fig 3a: local=2, horizontal=2, vertical=3.
        Torus3d::new(2, 2, 3, 1, 1, 1).unwrap()
    }

    #[test]
    fn shape_accessors() {
        let t = paper_fig3a();
        assert_eq!(
            (t.local(), t.horizontal(), t.vertical(), t.num_npus()),
            (2, 2, 3, 12)
        );
    }

    #[test]
    fn dims_skip_size_one_and_keep_paper_order() {
        let t = Torus3d::new(1, 8, 1, 1, 2, 1).unwrap();
        let dims = t.dims();
        assert_eq!(dims.len(), 1);
        assert_eq!(dims[0].dim, Dim::Horizontal);
        assert_eq!(dims[0].size, 8);
        assert_eq!(dims[0].concurrency, 4); // 2 bidirectional rings

        let t = Torus3d::new(4, 4, 4, 2, 2, 2).unwrap();
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
        let t = Torus3d::new(1, 4, 1, 1, 1, 1).unwrap();
        let fwd = t.ring(Dim::Horizontal, 0, NodeId(0)).unwrap();
        let rev = t.ring(Dim::Horizontal, 1, NodeId(0)).unwrap();
        assert_eq!(fwd.next(NodeId(0)).unwrap(), NodeId(1));
        assert_eq!(rev.next(NodeId(0)).unwrap(), NodeId(3));
    }

    #[test]
    fn local_rings_all_forward() {
        let t = Torus3d::new(4, 1, 1, 2, 1, 1).unwrap();
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
        let t = Torus3d::new(2, 4, 4, 2, 2, 2).unwrap();
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
        assert!(Torus3d::new(0, 2, 2, 1, 1, 1).is_err());
        assert!(Torus3d::new(2, 2, 2, 0, 1, 1).is_err());
        // Inactive dims may have zero rings.
        assert!(Torus3d::new(1, 2, 2, 0, 1, 1).is_ok());
    }

    #[test]
    fn out_of_range_queries_rejected() {
        let t = paper_fig3a();
        assert!(t.ring(Dim::Local, 5, NodeId(0)).is_err());
        assert!(t.ring(Dim::Local, 0, NodeId(99)).is_err());
        assert!(t.coord(NodeId(12)).is_err());
    }
}
