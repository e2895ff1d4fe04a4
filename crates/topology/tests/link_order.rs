//! Pins the exact link table of every fabric shape the goldens, the
//! benchmark, the CI sweep smoke and the CLI's shape forms build: the
//! order, endpoints, channel and class of every `LogicalTopology::links()`
//! entry, `dims()`, every ring through every NPU, every switch route and
//! the errors at each query's bounds. Network backends number their link
//! tables in `links()` order, so per-link reports (and every artifact that
//! prints them) depend on it.

use astra_topology::{Dim, LogicalTopology, NodeId};
use std::fmt::Write;

// The only three lines of this file that name a fabric constructor.
fn torus(m: usize, n: usize, k: usize, lr: usize, hr: usize, vr: usize) -> LogicalTopology {
    LogicalTopology::torus(m, n, k, lr, hr, vr).unwrap()
}

fn alltoall(m: usize, n: usize, lr: usize, s: usize) -> LogicalTopology {
    LogicalTopology::alltoall(m, n, lr, s).unwrap()
}

fn pods(pod: LogicalTopology, p: usize, s: usize) -> LogicalTopology {
    LogicalTopology::pods(pod, p, s).unwrap()
}

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

/// Everything a backend or the system layer asks a fabric, one line per
/// answer: dims, links (with class), the ring of every channel through
/// every NPU, every switch route, and the errors just past each bound.
fn table(topo: &LogicalTopology) -> String {
    let npus = topo.num_npus();
    let mut out = format!(
        "{} {npus} npus {} nodes\n",
        topo.shape_string(),
        topo.num_network_nodes()
    );
    for d in topo.dims() {
        let kind = if d.is_ring { "ring" } else { "switch" };
        writeln!(
            out,
            "dim {} {}x{} {} {kind}",
            d.dim, d.size, d.concurrency, d.class
        )
        .unwrap();
    }
    for l in topo.links() {
        let (from, to, c) = (l.from.index(), l.to.index(), l.channel);
        writeln!(out, "link {from}>{to} {}#{} {}", c.dim, c.ring, l.class).unwrap();
    }
    for d in topo.dims() {
        for ring in 0..d.concurrency {
            for node in (0..npus).map(NodeId) {
                let r = topo.ring(d.dim, ring, node).unwrap();
                let members: Vec<usize> = r.members().iter().map(|m| m.index()).collect();
                writeln!(out, "ring {} @{} {:?}", r.channel(), node.index(), members).unwrap();
            }
        }
        writeln!(out, "{:?}", topo.ring(d.dim, d.concurrency, NodeId(0))).unwrap();
        writeln!(out, "{:?}", topo.ring(d.dim, 0, NodeId(npus))).unwrap();
        if d.is_ring {
            continue;
        }
        for switch in 0..d.concurrency {
            for (src, dst) in (0..npus).flat_map(|s| (0..npus).map(move |d| (s, d))) {
                if src == dst {
                    continue;
                }
                let r = topo.switch_route(NodeId(src), NodeId(dst), switch).unwrap();
                let hops: Vec<String> = r
                    .hops()
                    .iter()
                    .map(|h| format!("{}>{} {}", h.from.index(), h.to.index(), h.channel))
                    .collect();
                writeln!(out, "route {}", hops.join(" ")).unwrap();
            }
        }
    }
    for dim in Dim::ALL {
        if topo.dims().iter().all(|d| d.dim != dim) {
            writeln!(out, "{:?}", topo.ring(dim, 0, NodeId(0))).unwrap();
        }
    }
    for (src, dst, switch) in [(0, 0, 0), (0, 1, 1 << 20), (npus, 0, 0), (0, npus, 0)] {
        let r = topo.switch_route(NodeId(src), NodeId(dst), switch);
        writeln!(out, "{:?}", r.map(|r| r.len())).unwrap();
    }
    out
}

/// FNV-1a over `text`: a change anywhere in a table changes it.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// Line count and digest of every section of `topo`'s table.
fn fingerprint(topo: &LogicalTopology) -> String {
    let text = table(topo);
    let count = |prefix: &str| text.lines().filter(|l| l.starts_with(prefix)).count();
    format!(
        "{}: {} links, {} rings, {} routes, {:016x}",
        text.lines().next().unwrap(),
        count("link "),
        count("ring "),
        count("route "),
        fnv1a(&text)
    )
}

#[test]
fn every_pinned_shape_keeps_its_link_table() {
    let cases = [
        // CLI `1x8x1`, the CI sweep smoke and the cut-through golden's
        // physical ring (one bidirectional ring fewer, the same table).
        (
            torus(1, 8, 1, 2, 2, 2),
            "1x8x1 torus 8 npus 8 nodes: 32 links, 32 rings, 0 routes, bee3e8a44452b7a9",
        ),
        // Fig 9's torus golden.
        (
            torus(1, 8, 1, 1, 4, 1),
            "1x8x1 torus 8 npus 8 nodes: 64 links, 64 rings, 0 routes, 5ed7d2c10f200c95",
        ),
        // CLI `1x8@7`, the CI sweep smoke and the garnet, Fig 9 and
        // halving-doubling alltoall goldens (1 or 2 local rings of size 1).
        (
            alltoall(1, 8, 2, 7),
            "1x8 alltoall 8 npus 15 nodes: 112 links, 56 rings, 392 routes, 71b633231e7c06f6",
        ),
        // CLI `2x3@2`: two local rings in every package.
        (
            alltoall(2, 3, 2, 2),
            "2x3 alltoall 6 npus 8 nodes: 36 links, 24 rings, 60 routes, 35ebf9d8182b3bf0",
        ),
        // CLI `2x2x2`, the training goldens and the garnet benchmark.
        (
            torus(2, 2, 2, 2, 2, 2),
            "2x2x2 torus 8 npus 8 nodes: 80 links, 80 rings, 0 routes, efa4f56e1f4d2563",
        ),
        // The ResNet-50 benchmark's 2x8x4.
        (
            torus(2, 8, 4, 2, 2, 2),
            "2x8x4 torus 64 npus 64 nodes: 640 links, 640 rings, 0 routes, 3cf92477dbe9f3b1",
        ),
        // The Fig 10 grid.
        (
            torus(1, 64, 1, 1, 2, 1),
            "1x64x1 torus 64 npus 64 nodes: 256 links, 256 rings, 0 routes, 8fd391f259b23d43",
        ),
        (
            torus(1, 8, 8, 1, 2, 2),
            "1x8x8 torus 64 npus 64 nodes: 512 links, 512 rings, 0 routes, c95dabaa3164c112",
        ),
        (
            torus(2, 8, 4, 4, 2, 2),
            "2x8x4 torus 64 npus 64 nodes: 768 links, 768 rings, 0 routes, 45e29de4bac13555",
        ),
        (
            torus(4, 4, 4, 4, 2, 2),
            "4x4x4 torus 64 npus 64 nodes: 768 links, 768 rings, 0 routes, 5ea7f1a76a1d63a1",
        ),
        // The fault ablation's pods golden.
        (
            pods(torus(1, 4, 1, 1, 1, 1), 2, 1),
            "1x4x1 torus x 2 pods 8 npus 9 nodes: 32 links, 24 rings, 56 routes, 59383627ea90d36e",
        ),
        // CLI `1x4x1*2@1`.
        (
            pods(torus(1, 4, 1, 2, 2, 2), 2, 1),
            "1x4x1 torus x 2 pods 8 npus 9 nodes: 48 links, 40 rings, 56 routes, aafaba2151df2e54",
        ),
    ];
    let mut failed = Vec::new();
    for (topo, want) in &cases {
        let got = fingerprint(topo);
        if got != *want {
            eprintln!("{}", table(topo));
            failed.push(format!("got  {got}\nwant {want}"));
        }
    }
    assert!(failed.is_empty(), "{}", failed.join("\n"));
}

#[test]
fn alltoall_links_go_ring_by_ring_then_switch_by_switch() {
    // Two local rings: every package's ring 0 comes before any ring 1.
    let topo = alltoall(2, 3, 2, 2);
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
    let topo = pods(torus(2, 2, 1, 1, 1, 1), 2, 1);
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
