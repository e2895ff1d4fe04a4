//! Pins the exact order of `LogicalTopology::links()` for the two
//! switch-joined fabrics. Network backends number their link tables in this
//! order, so per-link reports (and every artifact that prints them) depend
//! on it.

use astra_topology::{HierAllToAll, LogicalTopology, PodFabric, Torus3d};

/// One `from>to dim#ring` token per link, in enumeration order.
fn render(topo: &LogicalTopology) -> Vec<String> {
    topo.links()
        .iter()
        .map(|l| {
            let (from, to) = (l.from.index(), l.to.index());
            format!("{from}>{to} {}#{}", l.channel.dim, l.channel.ring)
        })
        .collect()
}

/// Splits a whitespace-laid-out table of `from>to dim#ring` tokens.
fn expected(table: &str) -> Vec<String> {
    let words: Vec<&str> = table.split_whitespace().collect();
    words.chunks(2).map(|w| w.join(" ")).collect()
}

#[test]
fn alltoall_links_go_ring_by_ring_then_switch_by_switch() {
    // Two local rings: every package's ring 0 comes before any ring 1.
    let topo = LogicalTopology::alltoall(HierAllToAll::new(2, 3, 2, 2).unwrap());
    let want = expected(
        "0>1 local#0  1>0 local#0  2>3 local#0  3>2 local#0  4>5 local#0  5>4 local#0
         0>1 local#1  1>0 local#1  2>3 local#1  3>2 local#1  4>5 local#1  5>4 local#1
         0>6 package#0  6>0 package#0  1>6 package#0  6>1 package#0
         2>6 package#0  6>2 package#0  3>6 package#0  6>3 package#0
         4>6 package#0  6>4 package#0  5>6 package#0  6>5 package#0
         0>7 package#1  7>0 package#1  1>7 package#1  7>1 package#1
         2>7 package#1  7>2 package#1  3>7 package#1  7>3 package#1
         4>7 package#1  7>4 package#1  5>7 package#1  7>5 package#1",
    );
    assert_eq!(render(&topo), want);
}

#[test]
fn pod_links_go_pod_by_pod_then_switch_by_switch() {
    // A 2x2x1 pod twice behind one scale-out switch: all of pod 0's links
    // (in the torus's own order), then pod 1's, then the switch links.
    let pod = Torus3d::new(2, 2, 1, 1, 1, 1).unwrap();
    let topo = LogicalTopology::pods(PodFabric::new(pod, 2, 1).unwrap());
    let want = expected(
        "0>1 local#0  1>0 local#0  2>3 local#0  3>2 local#0
         0>2 horizontal#0  2>0 horizontal#0  1>3 horizontal#0  3>1 horizontal#0
         2>0 horizontal#1  0>2 horizontal#1  3>1 horizontal#1  1>3 horizontal#1
         4>5 local#0  5>4 local#0  6>7 local#0  7>6 local#0
         4>6 horizontal#0  6>4 horizontal#0  5>7 horizontal#0  7>5 horizontal#0
         6>4 horizontal#1  4>6 horizontal#1  7>5 horizontal#1  5>7 horizontal#1
         0>8 scale-out#0  8>0 scale-out#0  1>8 scale-out#0  8>1 scale-out#0
         2>8 scale-out#0  8>2 scale-out#0  3>8 scale-out#0  8>3 scale-out#0
         4>8 scale-out#0  8>4 scale-out#0  5>8 scale-out#0  8>5 scale-out#0
         6>8 scale-out#0  8>6 scale-out#0  7>8 scale-out#0  8>7 scale-out#0",
    );
    assert_eq!(render(&topo), want);
}
