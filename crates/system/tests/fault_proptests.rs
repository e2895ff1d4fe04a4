//! Fault-model property tests: under *any* seeded drop/retransmit schedule
//! on the scale-out links, a collective still completes on every NPU — i.e.
//! every NPU ends up holding the fully reduced set — and replaying the same
//! (seed, plan) is cycle-identical.

use astra_collectives::CollectiveOp;
use astra_des::Time;
use astra_network::{FaultPlan, LossSpec, NetworkConfig};
use astra_system::{BackendKind, CollectiveRequest, SystemConfig, SystemSim};
use astra_topology::LogicalTopology;
use proptest::prelude::*;

/// Small scale-out fabrics: `pods` pods of a 1-D torus joined by switches.
fn pods_strategy() -> impl Strategy<Value = LogicalTopology> {
    (2usize..=4, 2usize..=3, 1usize..=2).prop_map(|(m, pods, switches)| {
        LogicalTopology::pods(
            LogicalTopology::torus(1, m, 1, 1, 1, 1).unwrap(),
            pods,
            switches,
        )
        .unwrap()
    })
}

/// Runs one all-reduce under `plan`; returns (finish cycles, drops,
/// retransmits) after asserting completion on every NPU.
fn run_lossy(topo: &LogicalTopology, plan: &FaultPlan, bytes: u64) -> (u64, u64, u64) {
    let mut sim = SystemSim::new(
        topo.clone(),
        SystemConfig::default(),
        &NetworkConfig::default(),
        BackendKind::Analytical,
    );
    sim.install_faults(plan).expect("plan validates");
    // Every NPU must receive the reduced set, leaving nothing behind.
    let id = sim
        .complete_collective(CollectiveRequest {
            op: CollectiveOp::AllReduce,
            bytes,
            dims: None,
            algorithm: None,
            local_update_per_kb: None,
        })
        .expect("run failed");
    let finished = sim.report(id).unwrap().finished_at.cycles();
    (finished, sim.stats().drops, sim.stats().retransmits)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Whatever the seeded drop schedule does, retransmission recovers every
    /// lost scale-out message: the all-reduce completes on all NPUs and each
    /// drop is matched by exactly one retransmit.
    #[test]
    fn lossy_all_reduce_always_fully_reduces(
        topo in pods_strategy(),
        drop_permille in 0u64..500,
        seed in any::<u64>(),
        bytes in 1024u64..300_000,
    ) {
        let plan = FaultPlan {
            seed,
            loss: Some(LossSpec {
                drop_rate: drop_permille as f64 / 1000.0,
                timeout: Time::from_cycles(2_000),
                max_retries: 64,
            }),
            ..FaultPlan::default()
        };
        let (finished, drops, retransmits) = run_lossy(&topo, &plan, bytes);
        prop_assert!(finished > 0);
        prop_assert_eq!(drops, retransmits,
            "every drop must be recovered by exactly one retransmit");
    }

    /// Replaying the same (seed, plan) is cycle-identical, drop-for-drop.
    #[test]
    fn same_seed_same_plan_is_cycle_identical(
        topo in pods_strategy(),
        drop_permille in 1u64..500,
        seed in any::<u64>(),
        bytes in 1024u64..300_000,
    ) {
        let plan = FaultPlan {
            seed,
            loss: Some(LossSpec {
                drop_rate: drop_permille as f64 / 1000.0,
                timeout: Time::from_cycles(1_500),
                max_retries: 64,
            }),
            ..FaultPlan::default()
        };
        let a = run_lossy(&topo, &plan, bytes);
        let b = run_lossy(&topo, &plan, bytes);
        prop_assert_eq!(a, b);
    }

    /// A zero drop-rate loss spec and an empty plan are both exactly the
    /// fault-free run.
    #[test]
    fn zero_rate_loss_is_fault_free(
        topo in pods_strategy(),
        seed in any::<u64>(),
        bytes in 1024u64..300_000,
    ) {
        let zero = FaultPlan {
            seed,
            loss: Some(LossSpec {
                drop_rate: 0.0,
                timeout: Time::from_cycles(1_000),
                max_retries: 4,
            }),
            ..FaultPlan::default()
        };
        let lossless = run_lossy(&topo, &zero, bytes);
        let clean = run_lossy(&topo, &FaultPlan::default(), bytes);
        prop_assert_eq!(lossless.0, clean.0);
        prop_assert_eq!(lossless.1, 0);
    }
}
