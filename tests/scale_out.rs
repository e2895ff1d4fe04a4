//! End-to-end tests for the scale-out extension (§VII future work):
//! pods of scale-up torus joined by Ethernet-class switches.

use astra_sim::collectives::{plan, semantics, traffic, Algorithm, CollectiveOp};
use astra_sim::des::Time;
use astra_sim::system::CollectiveRequest;
use astra_sim::topology::{Dim, LogicalTopology};
use astra_sim::workload::zoo;
use astra_sim::{SimConfig, Simulator};

fn pods_cfg(pods: usize, switches: usize) -> SimConfig {
    SimConfig::torus(2, 2, 2)
        .horizontal_rings(1)
        .vertical_rings(1)
        .pods(pods, switches)
}

#[test]
fn all_collectives_run_across_pods() {
    let sim = Simulator::new(pods_cfg(4, 2)).unwrap();
    for op in [
        CollectiveOp::ReduceScatter,
        CollectiveOp::AllGather,
        CollectiveOp::AllReduce,
        CollectiveOp::AllToAll,
    ] {
        let out = sim
            .run_collective(CollectiveRequest {
                op,
                bytes: 1 << 18,
                dims: None,
                algorithm: None,
                local_update_per_kb: None,
            })
            .unwrap_or_else(|e| panic!("{op:?} failed on pod fabric: {e}"));
        assert!(out.duration > Time::ZERO);
        assert!(
            out.network.scale_out_link_bytes > 0,
            "{op:?} must cross the scale-out network"
        );
    }
}

#[test]
fn scale_out_plans_are_semantically_correct() {
    let topo =
        LogicalTopology::pods(LogicalTopology::torus(2, 2, 2, 1, 1, 1).unwrap(), 4, 2).unwrap();
    for op in [
        CollectiveOp::ReduceScatter,
        CollectiveOp::AllGather,
        CollectiveOp::AllReduce,
        CollectiveOp::AllToAll,
    ] {
        for algo in [Algorithm::Baseline, Algorithm::Enhanced] {
            let p = plan(&topo, op, algo, None).unwrap();
            semantics::verify_plan(&topo, &p).unwrap_or_else(|e| panic!("{p}: {e}"));
        }
    }
}

#[test]
fn enhanced_cuts_scale_out_traffic_by_local_size() {
    // The enhanced algorithm's shard bracketing extends to the scale-out
    // dimension: 2 NAMs per package -> 2x less Ethernet traffic.
    let topo =
        LogicalTopology::pods(LogicalTopology::torus(2, 2, 2, 2, 1, 1).unwrap(), 4, 2).unwrap();
    let base = plan(&topo, CollectiveOp::AllReduce, Algorithm::Baseline, None).unwrap();
    let enh = plan(&topo, CollectiveOp::AllReduce, Algorithm::Enhanced, None).unwrap();
    let set = 1 << 20;
    let base_so = traffic::link_bytes_per_node_all(&base, set)[2];
    let enh_so = traffic::link_bytes_per_node_all(&enh, set)[2];
    assert_eq!(base_so, 2 * enh_so);
}

#[test]
fn slower_scale_out_links_dominate_completion() {
    // Same fabric; strangle the Ethernet links 4x: the all-reduce must
    // slow down, and by roughly the bandwidth ratio at large sizes.
    let fast = Simulator::new(pods_cfg(4, 2)).unwrap();
    let mut slow_cfg = pods_cfg(4, 2);
    slow_cfg.network.scale_out.gbps /= 4.0;
    let slow = Simulator::new(slow_cfg).unwrap();
    let req = || CollectiveRequest::all_reduce(16 << 20);
    let t_fast = fast.run_collective(req()).unwrap().duration.cycles();
    let t_slow = slow.run_collective(req()).unwrap().duration.cycles();
    let ratio = t_slow as f64 / t_fast as f64;
    assert!(
        (2.0..5.0).contains(&ratio),
        "4x slower Ethernet should dominate at 16MB: ratio {ratio}"
    );
}

#[test]
fn training_runs_across_pods() {
    let sim = Simulator::new(pods_cfg(2, 1)).unwrap();
    let report = sim.run_training(zoo::tiny_mlp()).unwrap();
    assert_eq!(report.layers.len(), 3);
    assert!(report.total_time > Time::ZERO);
}

#[test]
fn scale_out_dim_appears_last_in_plans() {
    let topo =
        LogicalTopology::pods(LogicalTopology::torus(2, 2, 1, 1, 1, 1).unwrap(), 3, 1).unwrap();
    let p = plan(&topo, CollectiveOp::AllReduce, Algorithm::Baseline, None).unwrap();
    assert_eq!(p.phases().last().unwrap().dim, Dim::ScaleOut);
    assert_eq!(p.phases().last().unwrap().size, 3);
}

#[test]
fn single_pod_behaves_like_plain_torus() {
    let pods = Simulator::new(pods_cfg(1, 0)).unwrap();
    let plain = Simulator::new(
        SimConfig::torus(2, 2, 2)
            .horizontal_rings(1)
            .vertical_rings(1),
    )
    .unwrap();
    let req = || CollectiveRequest::all_reduce(1 << 20);
    assert_eq!(
        pods.run_collective(req()).unwrap().duration,
        plain.run_collective(req()).unwrap().duration
    );
}
