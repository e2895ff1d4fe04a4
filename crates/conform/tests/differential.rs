//! The pinned differential matrix: garnet-vs-analytical conformance on
//! every paper topology family at ≤ 16 NPUs.
//!
//! Each entry was validated empirically; the matrix demands **strict**
//! per-NPU chunk completion order plus the latency envelope. On a
//! divergence the failing pair is dumped as a JSON repro bundle before the
//! test fails, so CI uploads a replayable artifact.
//!
//! A second, loose table covers larger messages and 2-NPU rings, where
//! strict order or the matrix's band does not hold.

use astra_collectives::{Algorithm, CollectiveOp};
use astra_conform::{
    diff_check, dump_repro, ConformCase, DiffError, DiffOptions, Envelope, ReproBundle,
};
use astra_core::SimConfig;
use astra_des::Time;
use astra_network::{FaultKind, FaultPlan, LinkFault};
use astra_system::CollectiveRequest;
use astra_topology::NodeId;

fn req(op: CollectiveOp, bytes: u64) -> CollectiveRequest {
    CollectiveRequest {
        op,
        bytes,
        dims: None,
        algorithm: None,
        local_update_per_kb: None,
    }
}

fn splits(mut cfg: SimConfig, set_splits: u32) -> SimConfig {
    cfg.system.set_splits = set_splits;
    cfg
}

/// The conformance matrix: (name, config, request). Strict completion-order
/// equivalence holds on all of these; heavier chunking (the default 16-way
/// split on congested fabrics) legitimately reorders at flit level and is
/// covered by the multiset-only fuzzer instead.
fn matrix() -> Vec<(&'static str, SimConfig, CollectiveRequest)> {
    use CollectiveOp::{AllGather, AllReduce, AllToAll, ReduceScatter};
    vec![
        // Torus family (paper's scale-up fabric), default 16-way chunking.
        (
            "torus-1x4x1/all-reduce",
            SimConfig::torus(1, 4, 1),
            req(AllReduce, 2048),
        ),
        (
            "torus-1x4x1/all-to-all",
            SimConfig::torus(1, 4, 1),
            req(AllToAll, 2048),
        ),
        (
            "torus-1x4x1/reduce-scatter",
            SimConfig::torus(1, 4, 1),
            req(ReduceScatter, 2048),
        ),
        (
            "torus-1x4x1/all-gather",
            SimConfig::torus(1, 4, 1),
            req(AllGather, 2048),
        ),
        (
            "torus-2x2x1/all-reduce",
            SimConfig::torus(2, 2, 1),
            req(AllReduce, 2048),
        ),
        (
            "torus-2x2x1/reduce-scatter",
            SimConfig::torus(2, 2, 1),
            req(ReduceScatter, 2048),
        ),
        (
            "torus-1x8x1/all-reduce",
            SimConfig::torus(1, 8, 1),
            req(AllReduce, 2048),
        ),
        (
            "torus-1x8x1/all-gather",
            SimConfig::torus(1, 8, 1),
            req(AllGather, 2048),
        ),
        // 3D torus and the enhanced (multi-ring) algorithm, 4-way chunking.
        (
            "torus-2x2x2/all-reduce",
            splits(SimConfig::torus(2, 2, 2), 4),
            req(AllReduce, 2048),
        ),
        (
            "torus-2x4x2/all-reduce",
            splits(SimConfig::torus(2, 4, 2), 4),
            req(AllReduce, 2048),
        ),
        (
            "torus-1x4x1/all-reduce-enhanced",
            SimConfig::torus(1, 4, 1).algorithm(Algorithm::Enhanced),
            req(AllReduce, 2048),
        ),
        // Switch-based all-to-all family.
        (
            "a2a-1x4x3/all-reduce",
            splits(SimConfig::alltoall(1, 4, 3), 1),
            req(AllReduce, 2048),
        ),
        (
            "a2a-1x8x7/all-reduce",
            splits(SimConfig::alltoall(1, 8, 7), 4),
            req(AllReduce, 2048),
        ),
        // Pods (scale-out) family.
        (
            "pods-1x2x1p2/all-reduce",
            SimConfig::torus(1, 2, 1).pods(2, 1),
            req(AllReduce, 2048),
        ),
        (
            "pods-1x2x1p2/all-to-all",
            SimConfig::torus(1, 2, 1).pods(2, 1),
            req(AllToAll, 2048),
        ),
        (
            "pods-1x4x1p2/all-reduce",
            splits(SimConfig::torus(1, 4, 1).pods(2, 1), 4),
            req(AllReduce, 2048),
        ),
    ]
}

#[test]
fn differential_matrix_conforms_with_strict_order() {
    // Empirical band over the matrix: torus/a2a ratios sit in [0.93, 1.02];
    // the pods pairs run analytical-pessimistic up to ~1.46 (the analytical
    // scale-out link model serializes what garnet pipelines).
    let opts = DiffOptions {
        envelope: Envelope { lo: 0.7, hi: 1.6 },
        strict_order: true,
    };
    let mut failures = Vec::new();
    for (name, cfg, request) in matrix() {
        if let Err(e) = diff_check(&cfg, &request, &opts) {
            let bundle = ReproBundle {
                seed: None,
                oracle: "differential".into(),
                case: ConformCase {
                    config: cfg,
                    request,
                },
                failure: e.to_string(),
            };
            let dumped = dump_repro(&bundle);
            failures.push(format!("{name}: {e} (repro: {dumped:?})"));
        }
    }
    assert!(
        failures.is_empty(),
        "differential matrix diverged on {} pair(s):\n{}",
        failures.len(),
        failures.join("\n")
    );
}

/// The loose table: all-reduces on tori with one ring per dimension that
/// conform in structure but not under the matrix's strictness. On the
/// 1x4x1 ring (4 chunks), 64 KiB and up reorder chunk completions at flit
/// level (garnet finishes NPU 0's chunks as [3, 0, 1, 2] at 64 KiB) and
/// read analytical/garnet 0.58–0.63; the 2-NPU rings (2 chunks) read 0.640
/// (local) and 0.677 (package). All sit below the matrix's 0.7; 4 and
/// 8 KiB read 0.973 and 0.905. Each row runs through `diff_check` with
/// the loose envelope and returns (analytical, garnet) durations.
fn loose_row((local, horizontal): (usize, usize), chunks: u32, kib: u64) -> (Time, Time) {
    let opts = DiffOptions {
        envelope: Envelope { lo: 0.5, hi: 2.0 },
        strict_order: false,
    };
    let ring = SimConfig::torus(local, horizontal, 1)
        .local_rings(1)
        .horizontal_rings(1);
    let request = req(CollectiveOp::AllReduce, kib << 10);
    let (a, g) = diff_check(&splits(ring, chunks), &request, &opts)
        .unwrap_or_else(|e| panic!("{local}x{horizontal}x1 {kib} KiB: {e}"));
    (a.report.duration, g.report.duration)
}

/// Message sizes (KiB) of the loose table's 1x4x1 rows.
const RING_KIB: [u64; 5] = [4, 8, 64, 128, 256];

#[test]
fn loose_ring_rows_conform_within_2x() {
    for kib in RING_KIB {
        loose_row((1, 4), 4, kib);
    }
}

#[test]
fn loose_ring_rows_grow_with_size_on_both_backends() {
    let durations: Vec<_> = RING_KIB
        .iter()
        .map(|&kib| loose_row((1, 4), 4, kib))
        .collect();
    for w in durations.windows(2) {
        assert!(
            w[0].0 < w[1].0 && w[0].1 < w[1].1,
            "durations must grow with size on both backends: {durations:?}"
        );
    }
}

/// A 2-NPU local ring vs a 2-NPU package ring: under garnet the 200 GB/s
/// local links must finish the same collective sooner than the 25 GB/s
/// package links.
#[test]
fn loose_two_npu_rows_keep_local_ring_faster_under_garnet() {
    let (_, local) = loose_row((2, 1), 2, 64);
    let (_, package) = loose_row((1, 2), 2, 64);
    assert!(
        local < package,
        "garnet: the local ring ({local}) must beat the package ring ({package})"
    );
}

#[test]
fn matrix_covers_at_least_twelve_pairs_and_every_topology_family() {
    let m = matrix();
    assert!(m.len() >= 12, "matrix shrank to {} pairs", m.len());
    for family in ["torus-", "a2a-", "pods-"] {
        assert!(
            m.iter().any(|(name, _, _)| name.starts_with(family)),
            "matrix lost the {family} family"
        );
    }
}

#[test]
fn structural_summaries_match_exactly_across_backends() {
    let opts = DiffOptions::default();
    let (a, g) = diff_check(
        &SimConfig::torus(1, 4, 1),
        &req(CollectiveOp::AllReduce, 2048),
        &opts,
    )
    .expect("baseline pair conforms");
    assert_eq!(a.report.system.messages, g.report.system.messages);
    assert_eq!(
        a.report.network.payload_bytes,
        g.report.network.payload_bytes
    );
    assert_eq!(a.completion_order(), g.completion_order());
    // The backends are genuinely different machines, not aliases: the
    // flit-level one must process strictly more discrete events.
    assert!(
        g.events > a.events,
        "garnet {} <= analytical {}",
        g.events,
        a.events
    );
}

#[test]
fn faulted_configs_are_rejected_not_compared() {
    let mut cfg = SimConfig::torus(1, 4, 1);
    cfg.faults = Some(FaultPlan {
        link_faults: vec![LinkFault {
            from: NodeId(0),
            to: NodeId(1),
            kind: FaultKind::Down,
            start: Time::from_cycles(100),
            end: Time::from_cycles(200),
        }],
        ..FaultPlan::default()
    });
    match diff_check(
        &cfg,
        &req(CollectiveOp::AllReduce, 2048),
        &DiffOptions::default(),
    ) {
        Err(DiffError::Run(msg)) => assert!(msg.contains("fault-free"), "wrong reason: {msg}"),
        other => panic!("faulted config must be rejected, got {other:?}"),
    }
}

#[test]
fn impossible_envelope_reports_latency_divergence() {
    let opts = DiffOptions {
        envelope: Envelope { lo: 3.0, hi: 4.0 },
        strict_order: false,
    };
    match diff_check(
        &SimConfig::torus(1, 4, 1),
        &req(CollectiveOp::AllReduce, 2048),
        &opts,
    ) {
        Err(DiffError::Divergence(d)) => {
            let msg = d.to_string();
            assert!(msg.contains("duration ratio"), "wrong divergence: {msg}");
        }
        other => panic!("expected a latency divergence, got {other:?}"),
    }
}
