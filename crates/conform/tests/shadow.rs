//! Data-plane shadow-oracle tests: symbolic payload verification of
//! collective semantics across randomized topology/algorithm/size combos,
//! plus the demonstration that deliberately mutated plans are caught.

use astra_collectives::{plan_with_intra, Algorithm, CollectiveOp, IntraAlgo, PhaseOp};
use astra_conform::{shadow_conformance, shadow_verify, Mutation};
use astra_core::SimConfig;
use astra_system::CollectiveRequest;
use astra_topology::LogicalTopology;
use proptest::rng::TestRng;

fn topo_pool() -> Vec<(&'static str, LogicalTopology)> {
    [
        ("torus-1x4x1", SimConfig::torus(1, 4, 1)),
        ("torus-2x2x1", SimConfig::torus(2, 2, 1)),
        ("torus-1x8x1", SimConfig::torus(1, 8, 1)),
        ("torus-2x2x2", SimConfig::torus(2, 2, 2)),
        ("torus-2x4x2", SimConfig::torus(2, 4, 2)),
        ("a2a-1x4x3", SimConfig::alltoall(1, 4, 3)),
        ("a2a-1x8x7", SimConfig::alltoall(1, 8, 7)),
        ("a2a-2x4x3", SimConfig::alltoall(2, 4, 3)),
        ("pods-1x2x1p2", SimConfig::torus(1, 2, 1).pods(2, 1)),
        ("pods-2x2x1p2", SimConfig::torus(2, 2, 1).pods(2, 2)),
    ]
    .into_iter()
    .map(|(name, cfg)| (name, cfg.topology.build().expect("valid topology")))
    .collect()
}

const OPS: [CollectiveOp; 4] = [
    CollectiveOp::AllReduce,
    CollectiveOp::ReduceScatter,
    CollectiveOp::AllGather,
    CollectiveOp::AllToAll,
];

/// Every planner output over a randomized (topology, op, algorithm, intra)
/// sample must verify symbolically: the full contributor set
/// lands exactly where the collective's postcondition says it should.
#[test]
fn randomized_plans_verify_clean() {
    let pool = topo_pool();
    let mut rng = TestRng::new(0x5AAD_0ACE);
    for trial in 0..64 {
        let (name, topo) = &pool[rng.below(pool.len() as u64) as usize];
        let op = OPS[rng.below(4) as usize];
        let algorithm = if rng.next_bool() {
            Algorithm::Baseline
        } else {
            Algorithm::Enhanced
        };
        let intra = if rng.next_bool() {
            IntraAlgo::Auto
        } else {
            IntraAlgo::HalvingDoubling
        };
        let plan = plan_with_intra(topo, op, algorithm, None, intra).expect("plannable combo");
        shadow_verify(topo, &plan, &[]).unwrap_or_else(|e| {
            panic!("trial {trial}: {name}/{op:?}/{algorithm:?}/{intra:?}: {e}")
        });
    }
}

/// The canonical "mutated reduction op" demonstration: turning one
/// reduce-scatter phase into an all-gather must break the all-reduce
/// postcondition, and the oracle must say so.
#[test]
fn swapped_reduction_op_is_caught() {
    let topo = SimConfig::torus(1, 4, 1).topology.build().unwrap();
    let plan = plan_with_intra(
        &topo,
        CollectiveOp::AllReduce,
        Algorithm::Baseline,
        None,
        IntraAlgo::Auto,
    )
    .unwrap();
    // On a single-dimension fabric the planner folds RS+AG into one
    // AllReduce phase; either way the first phase reduces.
    let rs_phase = plan
        .phases()
        .iter()
        .position(|p| matches!(p.op, PhaseOp::ReduceScatter | PhaseOp::AllReduce))
        .expect("an all-reduce plan must contain a reducing phase");
    let mutation = Mutation::SwapOp {
        phase: rs_phase,
        op: PhaseOp::AllGather,
    };
    let err = shadow_verify(&topo, &plan, &[mutation]).expect_err("mutation must be caught");
    assert!(
        err.contains(&format!("phase {rs_phase}")) || err.starts_with("all-reduce:"),
        "the failing phase or postcondition should be named: {err}"
    );
}

#[test]
fn skipped_phase_is_caught() {
    let topo = SimConfig::torus(2, 2, 1).topology.build().unwrap();
    for op in OPS {
        let plan = plan_with_intra(&topo, op, Algorithm::Baseline, None, IntraAlgo::Auto).unwrap();
        for phase in 0..plan.phases().len() {
            shadow_verify(&topo, &plan, &[Mutation::SkipPhase(phase)])
                .expect_err("skipping any phase must break the postcondition");
        }
    }
}

#[test]
fn dropped_contribution_is_caught() {
    let topo = SimConfig::torus(1, 4, 1).topology.build().unwrap();
    for op in [CollectiveOp::AllReduce, CollectiveOp::ReduceScatter] {
        let plan = plan_with_intra(&topo, op, Algorithm::Baseline, None, IntraAlgo::Auto).unwrap();
        let err = shadow_verify(
            &topo,
            &plan,
            &[Mutation::DropContribution { phase: 0, node: 2 }],
        )
        .expect_err("a lost partial sum must be caught");
        assert!(
            err.contains("not fully reduced")
                || err.contains("contributor")
                || err.contains("piece"),
            "diagnosis should name the corruption: {err}"
        );
    }
}

/// End-to-end shadow conformance: symbolic verification plus the timed
/// trace conformance (every chunk traverses every phase exactly once, in
/// order, with well-formed windows) and the quiescence audit.
#[test]
fn shadow_conformance_passes_on_timed_runs() {
    for (cfg, req) in [
        (
            SimConfig::torus(1, 4, 1),
            CollectiveRequest::all_reduce(2048),
        ),
        (
            SimConfig::torus(2, 2, 2),
            CollectiveRequest::all_reduce(1024),
        ),
        (
            SimConfig::alltoall(1, 8, 7),
            CollectiveRequest::all_to_all(2048),
        ),
        (
            SimConfig::torus(1, 2, 1).pods(2, 1),
            CollectiveRequest::all_reduce(2048),
        ),
    ] {
        shadow_conformance(&cfg, &req).unwrap_or_else(|e| panic!("{cfg:?}: {e}"));
    }
}

/// Shadow conformance over randomized full configs on the analytical
/// backend — the fuzzer's oracle, exercised directly.
#[test]
fn shadow_conformance_randomized() {
    let pool: Vec<SimConfig> = vec![
        SimConfig::torus(1, 4, 1),
        SimConfig::torus(2, 2, 1),
        SimConfig::torus(2, 4, 2),
        SimConfig::alltoall(1, 4, 3),
        SimConfig::torus(1, 4, 1).pods(2, 1),
    ];
    let mut rng = TestRng::new(0x00C0_FFEE);
    for _ in 0..24 {
        let mut cfg = pool[rng.below(pool.len() as u64) as usize].clone();
        cfg.system.set_splits = [1, 2, 4][rng.below(3) as usize];
        let op = OPS[rng.below(4) as usize];
        let bytes = [512, 1024, 4096][rng.below(3) as usize];
        let req = CollectiveRequest {
            op,
            bytes,
            dims: None,
            algorithm: None,
            local_update_per_kb: None,
        };
        shadow_conformance(&cfg, &req).unwrap_or_else(|e| panic!("{op:?}/{bytes}B: {e}"));
    }
}
