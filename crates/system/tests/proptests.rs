//! System-level property tests: any collective on any fabric completes on
//! every NPU, deterministically, with the bytes the plan predicts.

use astra_collectives::{plan, traffic, Algorithm, CollectiveOp};
use astra_network::NetworkConfig;
use astra_system::{BackendKind, CollectiveRequest, SchedulingPolicy, SystemConfig, SystemSim};
use astra_topology::LogicalTopology;
use proptest::prelude::*;

fn topo_strategy() -> impl Strategy<Value = LogicalTopology> {
    prop_oneof![
        (
            1usize..=3,
            1usize..=4,
            1usize..=4,
            1usize..=2,
            1usize..=2,
            1usize..=2
        )
            .prop_filter_map("multi-node", |(m, n, k, lr, hr, vr)| (m * n * k >= 2)
                .then(|| LogicalTopology::torus(m, n, k, lr, hr, vr).unwrap())),
        (1usize..=3, 2usize..=6, 1usize..=2, 1usize..=3)
            .prop_map(|(m, n, lr, s)| { LogicalTopology::alltoall(m, n, lr, s).unwrap() }),
    ]
}

fn op_strategy() -> impl Strategy<Value = CollectiveOp> {
    prop_oneof![
        Just(CollectiveOp::ReduceScatter),
        Just(CollectiveOp::AllGather),
        Just(CollectiveOp::AllReduce),
        Just(CollectiveOp::AllToAll),
    ]
}

fn run_one(
    topo: &LogicalTopology,
    op: CollectiveOp,
    algo: Algorithm,
    bytes: u64,
    policy: SchedulingPolicy,
    splits: u32,
) -> (u64, u64, u64) {
    let cfg = SystemConfig {
        algorithm: algo,
        scheduling: policy,
        set_splits: splits,
        ..SystemConfig::default()
    };
    let mut sim = SystemSim::new(
        topo.clone(),
        cfg,
        &NetworkConfig::default(),
        BackendKind::Analytical,
    );
    // Every NPU must complete, leaving nothing behind.
    let id = sim
        .complete_collective(CollectiveRequest {
            op,
            bytes,
            dims: None,
            algorithm: None,
            local_update_per_kb: None,
        })
        .expect("run failed");
    let finished = sim.report(id).unwrap().finished_at.cycles();
    (
        finished,
        sim.net_stats().payload_bytes,
        sim.events_processed(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Completion on every NPU, and delivered payload matches the plan's
    /// per-node send factor (up to chunk-rounding slack).
    #[test]
    fn collectives_complete_with_predicted_traffic(
        topo in topo_strategy(),
        op in op_strategy(),
        algo in prop_oneof![Just(Algorithm::Baseline), Just(Algorithm::Enhanced)],
        bytes in 1u64..2_000_000,
        splits in 1u32..20,
    ) {
        let (finished, payload, _) =
            run_one(&topo, op, algo, bytes, SchedulingPolicy::Lifo, splits);
        prop_assert!(finished > 0);
        let p = plan(&topo, op, algo, None).expect("plan exists");
        let expected = topo.num_npus() as u64 * traffic::bytes_sent_per_node(&p, bytes);
        // Chunk rounding: each chunk/phase rounds messages up to >= 1 byte;
        // allow generous slack on tiny sets, tight slack on big ones.
        let slack = expected / 10 + 4096 * u64::from(splits);
        prop_assert!(
            payload >= expected.saturating_sub(slack) && payload <= expected + slack,
            "payload {payload}, expected ~{expected} (slack {slack})"
        );
    }

    /// Bit-for-bit determinism across runs, including event counts.
    #[test]
    fn runs_are_deterministic(
        topo in topo_strategy(),
        op in op_strategy(),
        bytes in 1u64..500_000,
    ) {
        let a = run_one(&topo, op, Algorithm::Baseline, bytes, SchedulingPolicy::Lifo, 8);
        let b = run_one(&topo, op, Algorithm::Baseline, bytes, SchedulingPolicy::Lifo, 8);
        prop_assert_eq!(a, b);
    }

    /// Scheduling policy never changes the outcome of a *single* collective
    /// (the ready queue has only one occupant class).
    #[test]
    fn single_collective_policy_invariant(
        topo in topo_strategy(),
        bytes in 1u64..500_000,
    ) {
        let lifo = run_one(&topo, CollectiveOp::AllReduce, Algorithm::Baseline, bytes,
                           SchedulingPolicy::Lifo, 8);
        let fifo = run_one(&topo, CollectiveOp::AllReduce, Algorithm::Baseline, bytes,
                           SchedulingPolicy::Fifo, 8);
        prop_assert_eq!(lifo.0, fifo.0);
    }

    /// More data never completes faster (weak monotonicity at 4x steps,
    /// which dominates chunk-rounding noise).
    #[test]
    fn size_monotonicity(topo in topo_strategy(), bytes in 1024u64..500_000) {
        let small = run_one(&topo, CollectiveOp::AllReduce, Algorithm::Baseline, bytes,
                            SchedulingPolicy::Lifo, 8);
        let large = run_one(&topo, CollectiveOp::AllReduce, Algorithm::Baseline, bytes * 4,
                            SchedulingPolicy::Lifo, 8);
        prop_assert!(large.0 >= small.0, "4x data finished sooner: {} vs {}", large.0, small.0);
    }
}
