//! The switch tier shared by the two switch-joined fabrics: the
//! hierarchical alltoall's package dimension (Fig 3b: packages reach each
//! other "through global switches", §III-C) and the scale-out dimension
//! joining pods (§VII).

use crate::{
    Channel, Dim, DimSpec, Hop, LinkClass, LinkSpec, NodeId, Ring, Route, TopologyError, Torus3d,
};

/// `groups` copies of a torus `block`, joined on `dim` by `switches`
/// switches that every NPU reaches over one `class` up-link and down-link.
///
/// NPU ids linearize as `slot + block_size * group`, where `slot` is the
/// NPU's id inside its block; switch `s` has network id `num_npus + s`.
/// NPUs that share a slot form the switch dimension's group, ordered by
/// group index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Switched {
    pub(crate) block: Torus3d,
    pub(crate) groups: usize,
    pub(crate) switches: usize,
    pub(crate) dim: Dim,
    pub(crate) class: LinkClass,
}

impl Switched {
    /// Total NPUs across all groups.
    pub(crate) fn num_npus(&self) -> usize {
        self.block.num_npus() * self.groups
    }

    /// Network id of switch `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s >= switches`.
    pub(crate) fn switch_id(&self, s: usize) -> NodeId {
        assert!(s < self.switches, "{} switch {s} out of range", self.dim);
        NodeId(self.num_npus() + s)
    }

    /// The NPU at `slot` of group `group`.
    fn at(&self, slot: usize, group: usize) -> NodeId {
        NodeId(slot + self.block.num_npus() * group)
    }

    /// `(slot, group)` of an NPU; the inverse of [`Switched::at`].
    pub(crate) fn split(&self, node: NodeId) -> Result<(usize, usize), TopologyError> {
        if node.index() >= self.num_npus() {
            return Err(TopologyError::NodeOutOfRange {
                node,
                num_npus: self.num_npus(),
            });
        }
        let size = self.block.num_npus();
        Ok((node.index() % size, node.index() / size))
    }

    /// The block's dimensions followed by the switch dimension.
    pub(crate) fn dims(&self) -> Vec<DimSpec> {
        let mut out = self.block.dims();
        if self.groups > 1 {
            out.push(DimSpec {
                dim: self.dim,
                size: self.groups,
                concurrency: self.switches,
                class: self.class,
                is_ring: false,
            });
        }
        out
    }

    /// Fails unless `switch_idx` names a switch of an active switch
    /// dimension.
    fn check_switch(&self, switch_idx: usize) -> Result<(), TopologyError> {
        if switch_idx >= self.switches {
            return Err(TopologyError::ChannelOutOfRange {
                dim: self.dim,
                requested: switch_idx,
                available: self.switches,
            });
        }
        Ok(())
    }

    /// The ring/group through `node` on `dim`: block dimensions give the
    /// block's ring offset into `node`'s group; the switch dimension gives
    /// the same-slot NPUs of every group, whose channel names switch
    /// `ring_idx`.
    pub(crate) fn ring(
        &self,
        dim: Dim,
        ring_idx: usize,
        node: NodeId,
    ) -> Result<Ring, TopologyError> {
        let (slot, group) = self.split(node)?;
        if dim != self.dim {
            let inner = self.block.ring(dim, ring_idx, NodeId(slot))?;
            let members = inner.members().iter().map(|m| self.at(m.index(), group));
            return Ring::new(inner.channel(), members.collect());
        }
        if self.groups <= 1 {
            return Err(TopologyError::InactiveDim { dim });
        }
        self.check_switch(ring_idx)?;
        let members = (0..self.groups).map(|g| self.at(slot, g)).collect();
        Ring::new(
            Channel {
                dim,
                ring: ring_idx,
            },
            members,
        )
    }

    /// The 2-hop route `src → switch → dst` through switch `switch_idx`.
    pub(crate) fn switch_route(
        &self,
        src: NodeId,
        dst: NodeId,
        switch_idx: usize,
    ) -> Result<Route, TopologyError> {
        self.split(src)?;
        self.split(dst)?;
        self.check_switch(switch_idx)?;
        if src == dst {
            return Err(TopologyError::BadDistance {
                steps: 0,
                ring_size: self.groups,
            });
        }
        let sw = self.switch_id(switch_idx);
        let channel = Channel {
            dim: self.dim,
            ring: switch_idx,
        };
        Ok(Route::new(vec![
            Hop {
                from: src,
                to: sw,
                channel,
            },
            Hop {
                from: sw,
                to: dst,
                channel,
            },
        ]))
    }

    /// The block's `links` offset into `group`.
    pub(crate) fn offset_links<'a>(
        &'a self,
        links: &'a [LinkSpec],
        group: usize,
    ) -> impl Iterator<Item = LinkSpec> + 'a {
        links.iter().map(move |l| LinkSpec {
            from: self.at(l.from.index(), group),
            to: self.at(l.to.index(), group),
            ..*l
        })
    }

    /// Appends, switch by switch, an up-link and a down-link between every
    /// NPU and the switch (nothing when the switch dimension is inactive).
    pub(crate) fn push_switch_links(&self, out: &mut Vec<LinkSpec>) {
        if self.groups <= 1 {
            return;
        }
        for s in 0..self.switches {
            let sw = self.switch_id(s);
            let channel = Channel {
                dim: self.dim,
                ring: s,
            };
            for n in (0..self.num_npus()).map(NodeId) {
                for (from, to) in [(n, sw), (sw, n)] {
                    out.push(LinkSpec {
                        from,
                        to,
                        channel,
                        class: self.class,
                    });
                }
            }
        }
    }
}
