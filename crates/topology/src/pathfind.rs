//! Shortest-path routing over a physical fabric.
//!
//! §IV-B: the system layer's logical topology "might be completely
//! different from the actual physical network topology", e.g. "mapping a 3D
//! logical topology on a 1D or 2D physical torus". When the two differ, a
//! logical neighbor-send must be realized as a multi-hop physical route;
//! [`PathFinder`] produces those routes deterministically.

use crate::{Hop, LogicalTopology, NodeId, Route, TopologyError};

/// Deterministic shortest-path router over a topology's physical links.
///
/// Paths are hop-count shortest; among equal-cost next hops, a caller
/// supplied *spray index* selects the alternative (so concurrent logical
/// channels spread over parallel physical links instead of piling onto
/// one).
///
/// # Example
///
/// ```
/// use astra_topology::{LogicalTopology, NodeId, PathFinder};
/// let phys = LogicalTopology::torus(1, 8, 1, 1, 1, 1)?;
/// let mut finder = PathFinder::new(&phys);
/// // 0 -> 3 on a bidirectional 8-ring: 3 hops either way around.
/// let r = finder.route(NodeId(0), NodeId(3), 0)?;
/// assert_eq!(r.len(), 3);
/// # Ok::<(), astra_topology::TopologyError>(())
/// ```
#[derive(Debug)]
pub struct PathFinder {
    /// adjacency[node] = outgoing hops, sorted for determinism.
    adjacency: Vec<Vec<Hop>>,
    /// dist_to[target][node] = hop distance node -> target (usize::MAX if
    /// unreachable). Built lazily per target; empty until then.
    dist_to: Vec<Vec<usize>>,
    num_nodes: usize,
}

impl PathFinder {
    /// Builds the router over `physical`'s links.
    pub fn new(physical: &LogicalTopology) -> Self {
        Self::new_excluding(physical, &[])
    }

    /// Builds the router over `physical`'s links, skipping every link whose
    /// directed endpoint pair appears in `excluded` (all channels between
    /// the pair are dropped — a cable fault takes out every ring and switch
    /// plane multiplexed over it).
    ///
    /// Routes found by the resulting finder avoid the excluded links
    /// entirely; when exclusions disconnect a pair, [`PathFinder::route`]
    /// reports [`TopologyError::Unreachable`].
    pub fn new_excluding(physical: &LogicalTopology, excluded: &[(NodeId, NodeId)]) -> Self {
        let n = physical.num_network_nodes();
        let mut adjacency: Vec<Vec<Hop>> = vec![Vec::new(); n];
        for l in physical.links() {
            if excluded.contains(&(l.from, l.to)) {
                continue;
            }
            adjacency[l.from.index()].push(Hop {
                from: l.from,
                to: l.to,
                channel: l.channel,
            });
        }
        for adj in &mut adjacency {
            adj.sort_by_key(|h| (h.to, h.channel.dim.index(), h.channel.ring));
        }
        PathFinder {
            adjacency,
            dist_to: vec![Vec::new(); n],
            num_nodes: n,
        }
    }

    /// Reverse BFS from `target`, filling hop distances.
    fn distances(&mut self, target: usize) -> &Vec<usize> {
        if self.dist_to[target].is_empty() {
            // Build a reverse adjacency on the fly (BFS from target over
            // incoming edges).
            let mut rev: Vec<Vec<usize>> = vec![Vec::new(); self.num_nodes];
            for (from, hops) in self.adjacency.iter().enumerate() {
                for h in hops {
                    rev[h.to.index()].push(from);
                }
            }
            let mut dist = vec![usize::MAX; self.num_nodes];
            dist[target] = 0;
            let mut frontier = vec![target];
            while !frontier.is_empty() {
                let mut next = Vec::new();
                for &v in &frontier {
                    for &u in &rev[v] {
                        if dist[u] == usize::MAX {
                            dist[u] = dist[v] + 1;
                            next.push(u);
                        }
                    }
                }
                frontier = next;
            }
            self.dist_to[target] = dist;
        }
        &self.dist_to[target]
    }

    /// Hop distance from `from` to `to` (`None` if unreachable).
    pub fn distance(&mut self, from: NodeId, to: NodeId) -> Option<usize> {
        let d = self.distances(to.index())[from.index()];
        (d != usize::MAX).then_some(d)
    }

    /// A shortest route from `from` to `to`. `spray` selects among
    /// equal-cost alternatives at every step (use distinct spray values to
    /// spread concurrent traffic over parallel links).
    ///
    /// # Errors
    ///
    /// Fails if `from == to` or no path exists.
    pub fn route(
        &mut self,
        from: NodeId,
        to: NodeId,
        spray: usize,
    ) -> Result<Route, TopologyError> {
        if from == to {
            return Err(TopologyError::BadDistance {
                steps: 0,
                ring_size: self.num_nodes,
            });
        }
        if from.index() >= self.num_nodes || to.index() >= self.num_nodes {
            return Err(TopologyError::NodeOutOfRange {
                node: if from.index() >= self.num_nodes {
                    from
                } else {
                    to
                },
                num_npus: self.num_nodes,
            });
        }
        // Ensure distances are computed, then walk greedily.
        if self.distances(to.index())[from.index()] == usize::MAX {
            return Err(TopologyError::Unreachable { from, to });
        }
        let mut hops = Vec::new();
        let mut cur = from;
        loop {
            let dist = &self.dist_to[to.index()];
            let here = dist[cur.index()];
            if here == 0 {
                break;
            }
            let candidates: Vec<Hop> = self.adjacency[cur.index()]
                .iter()
                .filter(|h| dist[h.to.index()] + 1 == here)
                .copied()
                .collect();
            debug_assert!(!candidates.is_empty(), "distance field is consistent");
            let pick = candidates[spray % candidates.len()];
            hops.push(pick);
            cur = pick.to;
        }
        Ok(Route::new(hops))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LogicalTopology;

    fn ring8() -> PathFinder {
        PathFinder::new(&LogicalTopology::torus(1, 8, 1, 1, 1, 1).unwrap())
    }

    #[test]
    fn shortest_distance_wraps_ring() {
        let mut f = ring8();
        assert_eq!(f.distance(NodeId(0), NodeId(1)), Some(1));
        assert_eq!(f.distance(NodeId(0), NodeId(7)), Some(1)); // backward ring
        assert_eq!(f.distance(NodeId(0), NodeId(4)), Some(4));
    }

    #[test]
    fn routes_are_contiguous_and_shortest() {
        let mut f = ring8();
        for dst in 1..8 {
            let r = f.route(NodeId(0), NodeId(dst), 0).unwrap();
            assert_eq!(r.src(), NodeId(0));
            assert_eq!(r.dst(), NodeId(dst));
            assert_eq!(r.len(), f.distance(NodeId(0), NodeId(dst)).unwrap());
            for w in r.hops().windows(2) {
                assert_eq!(w[0].to, w[1].from);
            }
        }
    }

    #[test]
    fn spray_spreads_over_parallel_links() {
        // 2 bidirectional rings = parallel links between neighbors.
        let topo = LogicalTopology::torus(1, 4, 1, 1, 2, 1).unwrap();
        let mut f = PathFinder::new(&topo);
        let a = f.route(NodeId(0), NodeId(1), 0).unwrap();
        let b = f.route(NodeId(0), NodeId(1), 1).unwrap();
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 1);
        assert_ne!(
            a.hops()[0].channel,
            b.hops()[0].channel,
            "different spray values should use different parallel links"
        );
    }

    #[test]
    fn routes_through_switches() {
        let topo = LogicalTopology::alltoall(1, 4, 1, 2).unwrap();
        let mut f = PathFinder::new(&topo);
        let r = f.route(NodeId(0), NodeId(3), 0).unwrap();
        assert_eq!(r.len(), 2, "NPU -> switch -> NPU");
        assert!(r.hops()[0].to.index() >= 4, "first hop enters a switch");
    }

    #[test]
    fn self_route_rejected() {
        let mut f = ring8();
        assert!(f.route(NodeId(3), NodeId(3), 0).is_err());
        assert!(f.route(NodeId(0), NodeId(99), 0).is_err());
    }

    #[test]
    fn exclusions_reroute_the_long_way() {
        // 8-ring with both directions: excluding 0 -> 1 forces the 7-hop
        // route the other way around.
        let topo = LogicalTopology::torus(1, 8, 1, 1, 1, 1).unwrap();
        let mut f = PathFinder::new_excluding(&topo, &[(NodeId(0), NodeId(1))]);
        let r = f.route(NodeId(0), NodeId(1), 0).unwrap();
        assert_eq!(r.len(), 7);
        assert!(r
            .hops()
            .iter()
            .all(|h| (h.from, h.to) != (NodeId(0), NodeId(1))));
        // The reverse direction is untouched.
        assert_eq!(f.distance(NodeId(1), NodeId(0)), Some(1));
    }

    #[test]
    fn disconnecting_exclusions_report_unreachable() {
        // Cut both directions around node 0: it can still receive from 7
        // but can reach no one.
        let topo = LogicalTopology::torus(1, 8, 1, 1, 1, 1).unwrap();
        let mut f =
            PathFinder::new_excluding(&topo, &[(NodeId(0), NodeId(1)), (NodeId(0), NodeId(7))]);
        assert!(matches!(
            f.route(NodeId(0), NodeId(4), 0),
            Err(TopologyError::Unreachable {
                from: NodeId(0),
                to: NodeId(4)
            })
        ));
        let msg = f.route(NodeId(0), NodeId(4), 0).unwrap_err().to_string();
        assert!(msg.contains("no usable physical path"), "got: {msg}");
    }

    #[test]
    fn deterministic_across_instances() {
        let mut a = ring8();
        let mut b = ring8();
        for dst in 1..8 {
            assert_eq!(
                a.route(NodeId(0), NodeId(dst), 3).unwrap(),
                b.route(NodeId(0), NodeId(dst), 3).unwrap()
            );
        }
    }
}
