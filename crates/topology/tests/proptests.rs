//! Property-based tests for topology invariants, each run over one
//! strategy that draws tori, alltoalls and pods of tori.

use astra_topology::{Dim, LogicalTopology, Mapping, NodeId, TopologyError};
use proptest::prelude::*;

/// Tori, alltoalls and pods of tori, in equal shares.
fn shape_strategy() -> impl Strategy<Value = LogicalTopology> {
    let torus = (
        1usize..=4,
        1usize..=8,
        1usize..=8,
        1usize..=3,
        1usize..=2,
        1usize..=2,
    )
        .prop_map(|(m, n, k, lr, hr, vr)| LogicalTopology::torus(m, n, k, lr, hr, vr));
    let alltoall = (1usize..=4, 1usize..=16, 1usize..=3, 1usize..=7)
        .prop_map(|(m, n, lr, s)| LogicalTopology::alltoall(m, n, lr, s));
    let pods = (
        1usize..=2,
        1usize..=4,
        1usize..=3,
        1usize..=2,
        1usize..=4,
        1usize..=3,
    )
        .prop_map(|(m, n, k, hr, p, s)| {
            LogicalTopology::pods(LogicalTopology::torus(m, n, k, 2, hr, 1)?, p, s)
        });
    prop_oneof![torus, alltoall, pods].prop_map(|t| t.expect("valid shape"))
}

proptest! {
    /// Coordinates are a bijection: each NPU's coordinates are in range,
    /// no two NPUs share them, and each NPU sits at its coordinate on the
    /// forward ring (or switch group) of every active dimension.
    #[test]
    fn coord_bijection(topo in shape_strategy()) {
        let dims = topo.dims();
        let mut seen = std::collections::BTreeSet::new();
        for node in (0..topo.num_npus()).map(NodeId) {
            let coords = Dim::ALL.map(|d| topo.coord(node, d).unwrap());
            prop_assert!(seen.insert(coords));
            for d in Dim::ALL {
                let c = coords[d.index()];
                match dims.iter().find(|s| s.dim == d) {
                    Some(spec) => {
                        prop_assert!(c < spec.size);
                        let ring = topo.ring(d, 0, node).unwrap();
                        prop_assert_eq!(ring.members()[c], node);
                    }
                    None => prop_assert_eq!(c, 0),
                }
            }
        }
        let past = NodeId(topo.num_npus());
        let out_of_range = matches!(topo.coord(past, Dim::Local), Err(TopologyError::NodeOutOfRange { .. }));
        prop_assert!(out_of_range);
    }

    /// Every ring of every active dimension visits each member exactly once
    /// and next/prev are inverses.
    #[test]
    fn rings_are_permutations(topo in shape_strategy()) {
        for spec in topo.dims() {
            for ring_idx in 0..spec.concurrency {
                // NodeId(0) is on every dimension's ring through the origin.
                let ring = topo.ring(spec.dim, ring_idx, NodeId(0)).unwrap();
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
        topo in shape_strategy(),
        src_raw in 0usize..1024,
        steps_raw in 1usize..64,
    ) {
        for spec in topo.dims().into_iter().filter(|s| s.is_ring) {
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

    /// Link enumeration: no duplicate (from, to, channel); all endpoints in
    /// range; every NPU drives exactly one link per ring channel, to its
    /// ring successor, and an up- and a down-link per switch.
    #[test]
    fn links_are_well_formed(topo in shape_strategy()) {
        let (links, dims) = (topo.links(), topo.dims());
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
            let spec = dims.iter().find(|s| s.dim == l.channel.dim).unwrap();
            prop_assert_eq!(l.class, spec.class);
            if spec.is_ring {
                let ring = topo.ring(l.channel.dim, l.channel.ring, l.from).unwrap();
                prop_assert_eq!(ring.next(l.from).unwrap(), l.to);
            }
        }
        let per_npu: usize = dims
            .iter()
            .map(|s| if s.is_ring { s.concurrency } else { 2 * s.concurrency })
            .sum();
        prop_assert_eq!(links.len(), per_npu * topo.num_npus());
    }

    /// The switch dimension (the alltoall's packages, the pods' scale-out)
    /// routes any pair of distinct NPUs through any switch in two hops over
    /// existing links; a torus has no switch routes.
    #[test]
    fn alltoall_well_formed(topo in shape_strategy()) {
        let Some(spec) = topo.dims().into_iter().find(|s| !s.is_ring) else {
            if topo.num_network_nodes() == topo.num_npus() {
                let refused = topo.switch_route(NodeId(0), NodeId(0), 0);
                prop_assert!(matches!(refused, Err(TopologyError::NoSwitches)));
            }
            return Ok(());
        };
        let links = topo.links();
        let (src, dst) = (NodeId(0), NodeId(topo.num_npus() - 1));
        for s in 0..spec.concurrency {
            let r = topo.switch_route(src, dst, s).unwrap();
            prop_assert_eq!(r.len(), 2);
            prop_assert_eq!(r.hops()[0].to, NodeId(topo.num_npus() + s));
            for h in r.hops() {
                let exists = links
                    .iter()
                    .any(|l| (l.from, l.to, l.channel) == (h.from, h.to, h.channel));
                prop_assert!(exists);
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
    // Ids linearize as l + M * (h + N * v): (l0, h1, v2) on 2x2x3 is 10.
    let t = LogicalTopology::torus(2, 2, 3, 1, 1, 1).unwrap();
    let lhv = [Dim::Local, Dim::Horizontal, Dim::Vertical].map(|d| t.coord(NodeId(10), d));
    assert_eq!(lhv, [Ok(0), Ok(1), Ok(2)]);
}

#[test]
fn dims_inactive_on_single_node() {
    let t = LogicalTopology::torus(1, 1, 1, 1, 1, 1).unwrap();
    assert!(t.dims().is_empty());
    assert!(matches!(
        t.ring(Dim::Local, 0, NodeId(0)),
        Err(TopologyError::InactiveDim { .. })
    ));
}
