//! Golden-report pins for the refactor seam.
//!
//! Each golden point replays one grid cell of a figure bench (fig09, fig10,
//! fig16, fig17), the fault ablation, a small all-reduce on the flit-level
//! garnet backend or a small training run through [`Simulator::run`] and
//! compares the *complete* serialized [`RunReport`] — phase spans, per-NPU
//! stats, per-layer exposure, fault counters and all — byte-for-byte
//! against a JSON file captured before a refactor of the code it runs. Any
//! change to event ordering, endpoint costing, flit timing, retransmit
//! backoff, training-loop dependencies or report serialization trips these
//! tests.
//!
//! Regenerate (only when a behavior change is *intended* and documented):
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test -p astra-bench --test golden_reports
//! ```

use astra_bench::calibrated_resnet50;
use astra_collectives::IntraAlgo;
use astra_core::{Experiment, FaultKind, FaultPlan, LinkFault, LossSpec, SimConfig, Simulator};
use astra_core::{OverlayConfig, TopologyConfig};
use astra_des::Time;
use astra_network::{NetworkConfig, RoutingMode, Straggler};
use astra_system::{BackendKind, CollectiveRequest, SchedulingPolicy};
use astra_topology::NodeId;
use astra_workload::{zoo, TrainingRunner};
use serde_json::Value;
use std::path::PathBuf;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// Runs the experiment and either regenerates or checks the golden file.
fn golden(name: &str, cfg: SimConfig, experiment: Experiment) {
    let sim = Simulator::new(cfg).expect("golden config is valid");
    let report = sim.run(experiment).expect("golden experiment completes");
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    check(name, json);
}

/// Either regenerates or checks the golden file `name` against `json`.
fn check(name: &str, json: String) {
    let path = golden_dir().join(format!("{name}.json"));
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::create_dir_all(golden_dir()).expect("golden dir");
        std::fs::write(&path, json).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()));
    if json == want {
        return;
    }
    let parse = |text: &str| serde_json::from_str::<Value>(text).expect("report is JSON");
    let mut diffs = Vec::new();
    json_diff("$", &parse(&json), &parse(&want), &mut diffs);
    panic!(
        "report for `{name}` diverged from the pre-refactor golden ({}); \
         if the change is intentional, regenerate with GOLDEN_REGEN=1. \
         First differences (new vs golden):\n{}",
        path.display(),
        if diffs.is_empty() {
            "  (equal values, different text)".into()
        } else {
            diffs.join("\n")
        }
    );
}

/// Appends `path: new (golden: old)` for each differing leaf of two
/// reports, depth first, up to the first ten.
fn json_diff(path: &str, new: &Value, old: &Value, out: &mut Vec<String>) {
    const MAX: usize = 10;
    if out.len() >= MAX {
        return;
    }
    let text = |v: &Value| serde_json::to_string(v).expect("value serializes");
    match (new, old) {
        (Value::Object(n), Value::Object(o)) => {
            for (key, nv) in n.iter() {
                match o.get(key) {
                    Some(ov) => json_diff(&format!("{path}.{key}"), nv, ov, out),
                    None => out.push(format!("  {path}.{key}: {} (golden: absent)", text(nv))),
                }
            }
            for (key, ov) in o.iter().filter(|(key, _)| !n.contains_key(key)) {
                out.push(format!("  {path}.{key}: absent (golden: {})", text(ov)));
            }
        }
        (Value::Array(n), Value::Array(o)) => {
            for (i, (nv, ov)) in n.iter().zip(o).enumerate() {
                json_diff(&format!("{path}[{i}]"), nv, ov, out);
            }
            if n.len() != o.len() {
                out.push(format!(
                    "  {path}: {} entries (golden: {})",
                    n.len(),
                    o.len()
                ));
            }
        }
        _ if new != old => out.push(format!("  {path}: {} (golden: {})", text(new), text(old))),
        _ => {}
    }
    out.truncate(MAX);
}

/// Fig 9's base config: 1x8x1 torus, 4 horizontal bidirectional rings.
fn fig09_torus() -> SimConfig {
    SimConfig::torus(1, 8, 1)
        .local_rings(1)
        .horizontal_rings(4)
        .vertical_rings(1)
}

/// Fig 9's alltoall fabric grid cell: the base config with the topology
/// axis applied (1x8 alltoall through 7 switches).
fn fig09_alltoall() -> SimConfig {
    let mut cfg = fig09_torus();
    cfg.topology = SimConfig::alltoall(1, 8, 7).local_rings(1).topology;
    cfg
}

/// Fig 10's symmetric-link base with one of its four shapes applied.
fn fig10_shape(m: usize, n: usize, k: usize, lr: usize) -> SimConfig {
    let mut cfg = SimConfig::torus(1, 64, 1).symmetric_links();
    cfg.topology = SimConfig::torus(m, n, k)
        .local_rings(lr)
        .horizontal_rings(2)
        .vertical_rings(2)
        .topology;
    cfg
}

/// The fault ablation's two-pod fabric.
fn ablation_cfg() -> SimConfig {
    SimConfig::torus(1, 4, 1)
        .local_rings(1)
        .horizontal_rings(1)
        .vertical_rings(1)
        .pods(2, 1)
}

/// The fault ablation's heaviest cell: 10% drop rate, 4x-degraded rings.
fn ablation_heavy_plan() -> FaultPlan {
    let mut p = FaultPlan {
        seed: 2020,
        ..FaultPlan::default()
    };
    p.loss = Some(LossSpec {
        drop_rate: 0.1,
        timeout: Time::from_cycles(2_000),
        max_retries: 32,
    });
    for pod in 0..2usize {
        for i in 0..4usize {
            p.link_faults.push(LinkFault {
                from: NodeId(pod * 4 + i),
                to: NodeId(pod * 4 + (i + 1) % 4),
                kind: FaultKind::Degrade { factor: 0.25 },
                start: Time::ZERO,
                end: Time::from_cycles(u64::MAX / 2),
            });
        }
    }
    p
}

/// A 2x2x2 torus all-reduce on the flit-level backend: one message per
/// neighbour, so every flit arrives on its last hop.
fn garnet_torus() -> SimConfig {
    SimConfig::torus(2, 2, 2).with_backend(BackendKind::Garnet)
}

/// Logical 2x2x2 torus on a physical 1x8x1 ring with hardware
/// (cut-through) routing: logical neighbours sit up to four ring hops
/// apart, so links carry both head arrivals of intermediate hops and tail
/// arrivals of final hops.
fn cut_through_overlay() -> SimConfig {
    let ring: TopologyConfig = SimConfig::torus(1, 8, 1)
        .local_rings(1)
        .horizontal_rings(2)
        .vertical_rings(1)
        .topology;
    SimConfig::torus(2, 2, 2)
        .with_network(NetworkConfig {
            routing: RoutingMode::Hardware,
            ..NetworkConfig::default()
        })
        .with_overlay(OverlayConfig {
            physical: ring,
            permutation: None,
        })
}

/// Link windows for the garnet fault golden: the 0 -> 1 links run at half
/// bandwidth, and the 1 -> 0 links go down just after the start, so flits
/// already queued there stall and later sends reroute.
fn garnet_fault_plan() -> FaultPlan {
    let window = |from, to, kind, start, end| LinkFault {
        from: NodeId(from),
        to: NodeId(to),
        kind,
        start: Time::from_cycles(start),
        end: Time::from_cycles(end),
    };
    FaultPlan {
        link_faults: vec![
            window(0, 1, FaultKind::Degrade { factor: 0.5 }, 0, 5_000),
            window(1, 0, FaultKind::Down, 50, 1_500),
        ],
        ..FaultPlan::default()
    }
}

#[test]
fn fig09_allreduce_1mib_on_torus() {
    golden(
        "fig09_allreduce_1mib_torus",
        fig09_torus(),
        Experiment::all_reduce(1 << 20),
    );
}

#[test]
fn fig09_alltoall_64kib_on_alltoall() {
    golden(
        "fig09_alltoall_64kib_alltoall",
        fig09_alltoall(),
        Experiment::Collective(CollectiveRequest::all_to_all(64 << 10)),
    );
}

#[test]
fn fig10_allreduce_256kib_on_1x8x8() {
    golden(
        "fig10_allreduce_256kib_1x8x8",
        fig10_shape(1, 8, 8, 1),
        Experiment::all_reduce(256 << 10),
    );
}

#[test]
fn fig10_allreduce_4mib_on_4x4x4() {
    golden(
        "fig10_allreduce_4mib_4x4x4",
        fig10_shape(4, 4, 4, 4),
        Experiment::all_reduce(4 << 20),
    );
}

#[test]
fn fig17_resnet50_training_on_2x2x2() {
    golden(
        "fig17_resnet50_2x2x2",
        SimConfig::torus(2, 2, 2),
        Experiment::Training(calibrated_resnet50()),
    );
}

#[test]
fn ablation_faults_clean_pods() {
    golden(
        "ablation_faults_clean",
        ablation_cfg(),
        Experiment::all_reduce(1 << 20),
    );
}

#[test]
fn ablation_faults_heaviest_cell() {
    golden(
        "ablation_faults_heavy",
        ablation_cfg().with_faults(ablation_heavy_plan()),
        Experiment::all_reduce(1 << 20),
    );
}

#[test]
fn garnet_allreduce_64kib_on_2x2x2() {
    golden(
        "garnet_allreduce_64kib_2x2x2",
        garnet_torus(),
        Experiment::all_reduce(64 << 10),
    );
}

#[test]
fn garnet_allreduce_16kib_on_alltoall() {
    // Switch routes are two hops, so flits also take the router-forward
    // branch of the flit-level backend.
    golden(
        "garnet_allreduce_16kib_alltoall",
        SimConfig::alltoall(1, 8, 7).with_backend(BackendKind::Garnet),
        Experiment::all_reduce(16 << 10),
    );
}

#[test]
fn garnet_allreduce_under_link_faults() {
    golden(
        "garnet_allreduce_faults_2x2x2",
        garnet_torus().with_faults(garnet_fault_plan()),
        Experiment::all_reduce(64 << 10),
    );
}

#[test]
fn cut_through_allreduce_256kib_on_ring_overlay() {
    golden(
        "cut_through_allreduce_256kib_overlay",
        cut_through_overlay(),
        Experiment::all_reduce(256 << 10),
    );
}

/// Straggler plus link-degrade plan for the training fault golden: NPU 3
/// computes 2.5x slower, and the 0 -> 1 links run at half bandwidth for the
/// first 200K cycles.
fn training_fault_plan() -> FaultPlan {
    FaultPlan {
        link_faults: vec![LinkFault {
            from: NodeId(0),
            to: NodeId(1),
            kind: FaultKind::Degrade { factor: 0.5 },
            start: Time::ZERO,
            end: Time::from_cycles(200_000),
        }],
        stragglers: vec![Straggler {
            npu: 3,
            slowdown: 2.5,
        }],
        ..FaultPlan::default()
    }
}

#[test]
fn training_tiny_hybrid_on_2x2x2() {
    // Hybrid parallelism: forward and input-gradient collectives block.
    golden(
        "training_tiny_hybrid_2x2x2",
        SimConfig::torus(2, 2, 2),
        Experiment::Training(zoo::tiny_hybrid()),
    );
}

#[test]
fn garnet_training_tiny_mlp_on_2x2x2() {
    golden(
        "garnet_training_tiny_mlp_2x2x2",
        garnet_torus(),
        Experiment::Training(zoo::tiny_mlp()),
    );
}

#[test]
fn training_tiny_hybrid_under_faults() {
    golden(
        "training_tiny_hybrid_faults_2x2x2",
        SimConfig::torus(2, 2, 2).with_faults(training_fault_plan()),
        Experiment::Training(zoo::tiny_hybrid()),
    );
}

#[test]
fn cut_through_training_tiny_mlp_on_ring_overlay() {
    golden(
        "cut_through_training_tiny_mlp_overlay",
        cut_through_overlay(),
        Experiment::Training(zoo::tiny_mlp()),
    );
}

#[test]
fn fig16_resnet50_fifo_three_passes_on_2x2x2() {
    golden(
        "fig16_resnet50_fifo_3pass_2x2x2",
        SimConfig::torus(2, 2, 2)
            .passes(3)
            .scheduling(SchedulingPolicy::Fifo),
        Experiment::Training(calibrated_resnet50()),
    );
}

/// `cfg` with a one-chunk dispatcher (`T` = 1, `P` = 2), so chunks of
/// several collectives wait in the ready queue together and the scheduling
/// policy decides which goes first.
fn contended(mut cfg: SimConfig, policy: SchedulingPolicy) -> SimConfig {
    cfg.system.dispatcher_threshold = 1;
    cfg.system.dispatcher_batch = 2;
    cfg.scheduling(policy)
}

#[test]
fn resnet50_priority_contended_on_2x2x2() {
    // Under the paper's T = 8, P = 16 this run matches LIFO exactly; with
    // T = 1, P = 2 LIFO, FIFO and priority give three different reports.
    golden(
        "resnet50_priority_contended_2x2x2",
        contended(SimConfig::torus(2, 2, 2), SchedulingPolicy::Priority),
        Experiment::Training(calibrated_resnet50()),
    );
}

/// `cfg` with every phase run as halving-doubling.
fn halving_doubling(mut cfg: SimConfig) -> SimConfig {
    cfg.system.intra_algo = IntraAlgo::HalvingDoubling;
    cfg
}

#[test]
fn halving_doubling_allreduce_256kib_on_alltoall() {
    golden(
        "halving_doubling_allreduce_256kib_alltoall",
        halving_doubling(SimConfig::alltoall(1, 8, 7).local_rings(1)),
        Experiment::all_reduce(256 << 10),
    );
}

#[test]
fn halving_doubling_allreduce_256kib_on_torus() {
    golden(
        "halving_doubling_allreduce_256kib_torus",
        halving_doubling(fig09_torus()),
        Experiment::all_reduce(256 << 10),
    );
}

#[test]
fn training_without_overlap_report_and_event_count() {
    // Runner-level pin: no-overlap mode is not reachable through
    // `Experiment`, and the event count is not part of any report.
    let sim = Simulator::new(SimConfig::torus(2, 2, 2))
        .expect("golden config is valid")
        .system_sim()
        .expect("golden sim builds");
    let (report, events) = TrainingRunner::new(sim, zoo::tiny_hybrid(), 2)
        .expect("golden workload is valid")
        .without_overlap()
        .run_instrumented()
        .expect("golden training completes");
    let json = serde_json::to_string_pretty(&serde_json::json!({
        "events": events,
        "report": report,
    }))
    .expect("report serializes");
    check("training_tiny_hybrid_no_overlap_2x2x2", json);
}
