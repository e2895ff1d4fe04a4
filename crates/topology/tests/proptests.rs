//! Property-based tests for topology invariants.

use astra_topology::{
    Coord, Dim, HierAllToAll, LogicalTopology, Mapping, NodeId, Torus3d, TopologyError,
};
use proptest::prelude::*;

fn torus_strategy() -> impl Strategy<Value = Torus3d> {
    (1usize..=4, 1usize..=8, 1usize..=8, 1usize..=3, 1usize..=2, 1usize..=2).prop_map(
        |(m, n, k, lr, hr, vr)| Torus3d::new(m, n, k, lr, hr, vr).expect("valid shape"),
    )
}

fn alltoall_strategy() -> impl Strategy<Value = HierAllToAll> {
    (1usize..=4, 1usize..=16, 1usize..=3, 1usize..=7)
        .prop_map(|(m, n, lr, s)| HierAllToAll::new(m, n, lr, s).expect("valid shape"))
}

proptest! {
    /// Coordinate linearization is a bijection.
    #[test]
    fn coord_bijection(t in torus_strategy()) {
        let mut seen = vec![false; t.num_npus()];
        for id in 0..t.num_npus() {
            let c = t.coord(NodeId(id)).unwrap();
            let back = c.to_id(t.local(), t.horizontal());
            prop_assert_eq!(back, NodeId(id));
            prop_assert!(!seen[back.index()]);
            seen[back.index()] = true;
        }
    }

    /// Every ring of every active dimension visits each member exactly once
    /// and next/prev are inverses.
    #[test]
    fn rings_are_permutations(t in torus_strategy()) {
        let topo = LogicalTopology::torus(t);
        for spec in topo.dims() {
            for ring_idx in 0..spec.concurrency {
                let ring = topo.ring(spec.dim, ring_idx, NodeId(0));
                // NodeId(0) is on every dimension's ring through the origin.
                let ring = ring.unwrap();
                prop_assert_eq!(ring.size(), spec.size);
                let mut seen = std::collections::BTreeSet::new();
                for &m in ring.members() {
                    prop_assert!(seen.insert(m));
                    let n = ring.next(m).unwrap();
                    prop_assert_eq!(ring.prev(n).unwrap(), m);
                }
            }
        }
    }

    /// Ring routes have the advertised length, contiguity, and terminate at
    /// the node `steps` ahead.
    #[test]
    fn ring_routes_terminate_correctly(
        t in torus_strategy(),
        src_raw in 0usize..1024,
        steps_raw in 1usize..64,
    ) {
        let topo = LogicalTopology::torus(t);
        for spec in topo.dims() {
            let src = NodeId(src_raw % topo.num_npus());
            let steps = 1 + steps_raw % (spec.size - 1).max(1);
            if steps >= spec.size { continue; }
            let ring = topo.ring(spec.dim, 0, src).unwrap();
            let route = topo.ring_route(spec.dim, 0, src, steps).unwrap();
            prop_assert_eq!(route.len(), steps);
            prop_assert_eq!(route.src(), src);
            prop_assert_eq!(route.dst(), ring.ahead(src, steps).unwrap());
            for w in route.hops().windows(2) {
                prop_assert_eq!(w[0].to, w[1].from);
            }
        }
    }

    /// Link enumeration: no duplicate (from, to, channel); all NPU-side link
    /// endpoints in range; per-ring out-degree is exactly one per channel.
    #[test]
    fn links_are_well_formed(t in torus_strategy()) {
        let topo = LogicalTopology::torus(t);
        let links = topo.links();
        let mut keys: Vec<_> = links
            .iter()
            .map(|l| (l.from.index(), l.to.index(), l.channel.dim.index(), l.channel.ring))
            .collect();
        let before = keys.len();
        keys.sort_unstable();
        keys.dedup();
        prop_assert_eq!(keys.len(), before, "duplicate links");
        for l in &links {
            prop_assert!(l.from.index() < topo.num_network_nodes());
            prop_assert!(l.to.index() < topo.num_network_nodes());
            prop_assert_ne!(l.from, l.to);
        }
    }

    /// Same invariants for the alltoall fabric, plus switch routing.
    #[test]
    fn alltoall_well_formed(a in alltoall_strategy()) {
        let switches = a.switches();
        let topo = LogicalTopology::alltoall(a.clone());
        let links = topo.links();
        let mut keys: Vec<_> = links
            .iter()
            .map(|l| (l.from.index(), l.to.index(), l.channel.dim.index(), l.channel.ring))
            .collect();
        let before = keys.len();
        keys.sort_unstable();
        keys.dedup();
        prop_assert_eq!(keys.len(), before);

        if a.packages() > 1 {
            // Any pair of distinct NPUs routes through any switch in 2 hops.
            let src = NodeId(0);
            let dst = NodeId(a.num_npus() - 1);
            if src != dst {
                for s in 0..switches {
                    let r = topo.switch_route(src, dst, s).unwrap();
                    prop_assert_eq!(r.len(), 2);
                    prop_assert_eq!(r.hops()[0].to, a.switch_id(s));
                }
            }
        }
    }

    /// from_permutation accepts exactly permutations.
    #[test]
    fn mapping_validation(mut v in proptest::collection::vec(0usize..8, 1..8)) {
        let n = v.len();
        let is_perm = {
            let mut seen = vec![false; n];
            v.iter().all(|&x| x < n && !std::mem::replace(&mut seen[x], true))
        };
        let res = Mapping::from_permutation(v.clone());
        prop_assert_eq!(res.is_ok(), is_perm);
        if !is_perm {
            v.sort_unstable();
            let is_invalid_mapping = matches!(res, Err(TopologyError::InvalidMapping { .. }));
            prop_assert!(is_invalid_mapping);
        }
    }
}

#[test]
fn coord_display_sanity() {
    let c = Coord { l: 0, h: 1, v: 2 };
    assert_eq!(c.to_id(2, 2), NodeId(2 * (1 + 2 * 2)));
}

#[test]
fn dims_inactive_on_single_node() {
    let t = LogicalTopology::torus(Torus3d::new(1, 1, 1, 1, 1, 1).unwrap());
    assert!(t.dims().is_empty());
    assert!(matches!(
        t.ring(Dim::Local, 0, NodeId(0)),
        Err(TopologyError::InactiveDim { .. })
    ));
}
