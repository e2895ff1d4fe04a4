//! The dense link index both backends share: every distinct directed
//! physical link of a topology gets a `u32` index, and a route resolves to
//! the indices of its hops and each link to its installed fault windows.

use crate::faults::{FaultPlan, LinkWindows};
use crate::NetworkError;
use astra_des::hash::IdMap;
use astra_des::Time;
use astra_topology::{Channel, Hop, LinkClass, LogicalTopology, NodeId, Route};

type LinkKey = (usize, usize, usize, usize); // (from, to, dim index, ring)

fn key_of(from: NodeId, to: NodeId, ch: Channel) -> LinkKey {
    (from.index(), to.index(), ch.dim.index(), ch.ring)
}

/// Hops a [`LinkPath`] holds without a heap allocation.
pub(crate) const INLINE_HOPS: usize = 4;

/// Never a link index: fills the unused slots of an inline [`LinkPath`].
pub(crate) const NO_LINK: u32 = u32::MAX;

/// Dense link indices of a route, in traversal order: inline for routes of
/// up to [`INLINE_HOPS`] hops (every neighbour send of the paper's
/// fabrics), on the heap only for longer routes.
///
/// `u32` indices and the `NO_LINK` filler keep the enum as small as the
/// `Vec` alone: every in-flight message carries one, and the in-flight
/// slots set a backend's peak memory.
#[derive(Debug)]
pub(crate) enum LinkPath {
    Inline([u32; INLINE_HOPS]),
    Spilled(Vec<u32>),
}

impl LinkPath {
    #[inline]
    pub(crate) fn as_slice(&self) -> &[u32] {
        match self {
            LinkPath::Inline(links) => {
                let len = links.iter().position(|&l| l == NO_LINK);
                &links[..len.unwrap_or(INLINE_HOPS)]
            }
            LinkPath::Spilled(links) => links,
        }
    }
}

/// Maps each distinct directed physical link to its dense index.
#[derive(Debug)]
pub(crate) struct LinkIndex {
    index: IdMap<LinkKey, u32>,
    /// Class of each link, by index.
    classes: Vec<LinkClass>,
    /// Fault windows of each link, by index; empty without link faults.
    faults: Vec<LinkWindows>,
}

impl LinkIndex {
    /// Numbers the topology's distinct physical links in first-seen order.
    ///
    /// # Panics
    ///
    /// Panics if the topology has `u32::MAX` or more physical links.
    pub(crate) fn new(topo: &LogicalTopology) -> Self {
        let specs = topo.links();
        let mut index = IdMap::with_capacity_and_hasher(specs.len(), Default::default());
        let mut classes = Vec::with_capacity(specs.len());
        for spec in specs {
            let k = key_of(spec.from, spec.to, spec.channel);
            index.entry(k).or_insert_with(|| {
                classes.push(spec.class);
                (classes.len() - 1) as u32
            });
        }
        // Every index above was below `NO_LINK`, so none was truncated.
        assert!(
            classes.len() <= NO_LINK as usize,
            "{} physical links exceed the u32 link index",
            classes.len()
        );
        LinkIndex {
            index,
            classes,
            faults: Vec::new(),
        }
    }

    /// The class of every link, by index.
    pub(crate) fn classes(&self) -> &[LinkClass] {
        &self.classes
    }

    /// The link indices of `route`'s hops.
    pub(crate) fn resolve(&self, route: &Route) -> Result<LinkPath, NetworkError> {
        let link = |h: &Hop| {
            self.index
                .get(&key_of(h.from, h.to, h.channel))
                .copied()
                .ok_or(NetworkError::UnknownLink {
                    from: h.from,
                    to: h.to,
                    channel: h.channel,
                })
        };
        let hops = route.hops();
        if hops.len() > INLINE_HOPS {
            return hops
                .iter()
                .map(link)
                .collect::<Result<_, _>>()
                .map(LinkPath::Spilled);
        }
        let mut links = [NO_LINK; INLINE_HOPS];
        for (slot, h) in links.iter_mut().zip(hops) {
            *slot = link(h)?;
        }
        Ok(LinkPath::Inline(links))
    }

    /// Installs `plan`'s fault windows on every link, replacing any before.
    pub(crate) fn install_faults(&mut self, plan: &FaultPlan) {
        self.faults.clear();
        if !plan.link_faults.is_empty() {
            self.faults
                .resize_with(self.classes.len(), Default::default);
            // Each link's windows land in its own slot, so the map's
            // arbitrary iteration order cannot show.
            for (&(from, to, _dim, _ring), &idx) in &self.index {
                self.faults[idx as usize] = plan.windows_for(NodeId(from), NodeId(to));
            }
        }
    }

    /// The earliest time `>= t` that `link` may start a transmission, past
    /// its hard-down windows, and the bandwidth factor in effect then.
    #[inline]
    pub(crate) fn fault_release(&self, link: usize, t: Time) -> (Time, f64) {
        match self.faults.get(link) {
            Some(w) if !w.is_empty() => {
                let at = w.release_after(t);
                (at, w.factor_at(at))
            }
            _ => (t, 1.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inline_link_path_is_no_larger_than_a_vec() {
        // Every in-flight message holds one, so it sets peak memory.
        assert_eq!(
            std::mem::size_of::<LinkPath>(),
            std::mem::size_of::<Vec<u32>>()
        );
    }
}
