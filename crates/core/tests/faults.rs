//! End-to-end fault-injection tests through the `Simulator` facade: the
//! acceptance checks of the fault subsystem.
//!
//! * a lossy scale-out all-reduce is strictly slower than the fault-free
//!   run and its emitted report carries a positive retransmit count;
//! * the same `(seed, plan)` replays cycle-identically;
//! * an empty fault plan produces output identical to no plan at all;
//! * invalid plans are rejected at `Simulator::new` with actionable errors.

use astra_core::{
    CoreError, FaultPlan, LinkFault, LossSpec, SimConfig, Simulator, Straggler, TopologyConfig,
};
use astra_des::Time;
use astra_network::FaultKind;
use astra_system::CollectiveRequest;
use astra_topology::NodeId;
use astra_workload::zoo;

/// Two 4-NPU torus pods joined by one scale-out switch (8 NPUs total).
fn pods_cfg() -> SimConfig {
    let mut cfg = SimConfig::torus(1, 4, 1);
    cfg.topology = TopologyConfig::Pods {
        pod: Box::new(cfg.topology.clone()),
        pods: 2,
        switches: 1,
    };
    cfg
}

fn lossy_plan(drop_rate: f64) -> FaultPlan {
    FaultPlan {
        seed: 17,
        loss: Some(LossSpec {
            drop_rate,
            timeout: Time::from_cycles(2_000),
            max_retries: 16,
        }),
        ..FaultPlan::default()
    }
}

#[test]
fn one_percent_drop_is_strictly_slower_with_retransmits_in_the_report() {
    let clean = Simulator::new(pods_cfg())
        .unwrap()
        .run_collective(CollectiveRequest::all_reduce(1 << 20))
        .unwrap();
    let mut cfg = pods_cfg();
    cfg.faults = Some(lossy_plan(0.01));
    let lossy = Simulator::new(cfg)
        .unwrap()
        .run_collective(CollectiveRequest::all_reduce(1 << 20))
        .unwrap();
    assert!(
        lossy.duration > clean.duration,
        "1% drop must cost time: lossy {} vs clean {}",
        lossy.duration,
        clean.duration
    );
    let impact = lossy.fault_impact();
    assert!(impact.retransmits > 0, "retransmit count must be reported");
    assert_eq!(impact.retransmits, impact.drops);
    // The counters travel in the serialized report too.
    let json = serde_json::to_string(&lossy).unwrap();
    assert!(json.contains("\"retransmits\""));
    assert!(clean.fault_impact().is_clean());
}

#[test]
fn same_seed_and_plan_replay_is_cycle_identical() {
    let run = || {
        let mut cfg = pods_cfg();
        cfg.faults = Some(lossy_plan(0.05));
        let out = Simulator::new(cfg)
            .unwrap()
            .run_collective(CollectiveRequest::all_reduce(1 << 20))
            .unwrap();
        (out.duration.cycles(), out.fault_impact())
    };
    assert_eq!(run(), run());
}

#[test]
fn empty_plan_output_is_identical_to_no_plan() {
    let bare = Simulator::new(pods_cfg())
        .unwrap()
        .run_collective(CollectiveRequest::all_reduce(1 << 20))
        .unwrap();
    let mut cfg = pods_cfg();
    cfg.faults = Some(FaultPlan::default());
    let empty = Simulator::new(cfg)
        .unwrap()
        .run_collective(CollectiveRequest::all_reduce(1 << 20))
        .unwrap();
    assert_eq!(
        serde_json::to_string(&bare).unwrap(),
        serde_json::to_string(&empty).unwrap(),
        "an empty fault plan must be bit-identical to no plan"
    );
}

#[test]
fn straggler_slows_training_through_the_facade() {
    let clean = Simulator::new(SimConfig::torus(2, 2, 1))
        .unwrap()
        .run_training(zoo::tiny_mlp())
        .unwrap();
    let mut cfg = SimConfig::torus(2, 2, 1);
    cfg.faults = Some(FaultPlan {
        stragglers: vec![Straggler {
            npu: 1,
            slowdown: 3.0,
        }],
        ..FaultPlan::default()
    });
    let slowed = Simulator::new(cfg)
        .unwrap()
        .run_training(zoo::tiny_mlp())
        .unwrap();
    assert!(slowed.total_time > clean.total_time);
}

#[test]
fn degraded_link_slows_the_collective() {
    let clean = Simulator::new(SimConfig::torus(1, 4, 1))
        .unwrap()
        .run_collective(CollectiveRequest::all_reduce(1 << 20))
        .unwrap();
    let mut cfg = SimConfig::torus(1, 4, 1);
    cfg.faults = Some(FaultPlan {
        link_faults: vec![LinkFault {
            from: NodeId(0),
            to: NodeId(1),
            kind: FaultKind::Degrade { factor: 0.1 },
            start: Time::ZERO,
            end: Time::from_cycles(u64::MAX / 2),
        }],
        ..FaultPlan::default()
    });
    let degraded = Simulator::new(cfg)
        .unwrap()
        .run_collective(CollectiveRequest::all_reduce(1 << 20))
        .unwrap();
    assert!(
        degraded.duration > clean.duration,
        "a 10x slower link must cost time: {} vs {}",
        degraded.duration,
        clean.duration
    );
}

#[test]
fn invalid_plans_are_rejected_with_actionable_errors() {
    // Drop rate of 1.0 can never deliver: rejected before any simulation.
    let mut cfg = pods_cfg();
    cfg.faults = Some(lossy_plan(1.0));
    let err = Simulator::new(cfg).unwrap_err();
    assert!(matches!(err, CoreError::System(_)));
    assert!(err.to_string().contains("drop_rate"), "got: {err}");

    // Straggler index beyond the fabric: rejected when the plan is
    // installed into the concrete simulation.
    let mut cfg = pods_cfg();
    cfg.faults = Some(FaultPlan {
        stragglers: vec![Straggler {
            npu: 99,
            slowdown: 2.0,
        }],
        ..FaultPlan::default()
    });
    let err = Simulator::new(cfg)
        .unwrap()
        .run_collective(CollectiveRequest::all_reduce(1 << 16))
        .unwrap_err();
    assert!(err.to_string().contains("99"), "got: {err}");
}
