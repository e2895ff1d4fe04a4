//! Fast versions of the paper's headline qualitative claims — smoke-level
//! guards so a plain `cargo test` (not just `cargo bench`) catches
//! regressions in any reproduced result. The full sweeps live in
//! `crates/bench/benches/`.

use astra_sim::collectives::{plan, traffic, Algorithm, CollectiveOp, Ratio};
use astra_sim::system::CollectiveRequest;
use astra_sim::topology::LogicalTopology;
use astra_sim::{SimConfig, Simulator};

fn cycles(cfg: &SimConfig, req: CollectiveRequest) -> u64 {
    Simulator::new(cfg.clone())
        .unwrap()
        .run_collective(req)
        .unwrap()
        .duration
        .cycles()
}

fn symmetric(mut cfg: SimConfig) -> SimConfig {
    cfg.network.local = cfg.network.package;
    cfg
}

/// §V-B quotes exact per-node traffic factors for the Fig 10 shapes.
#[test]
fn paper_traffic_factors_are_exact() {
    let factor = |m, n, k| {
        let topo = LogicalTopology::torus(m, n, k, 2, 2, 2).unwrap();
        traffic::send_factor(
            &plan(&topo, CollectiveOp::AllReduce, Algorithm::Baseline, None).unwrap(),
        )
    };
    assert_eq!(factor(1, 64, 1), Ratio::new(126, 64));
    assert_eq!(factor(1, 8, 8), Ratio::new(28, 8));
    assert_eq!(factor(2, 8, 4), Ratio::new(34, 8));
    assert_eq!(factor(4, 4, 4), Ratio::new(36, 8));
}

/// §V-C: the enhanced algorithm cuts inter-package volume by the local
/// dimension's size (4x for 4 NAMs per NAP).
#[test]
fn enhanced_cuts_inter_package_traffic_4x() {
    let topo = LogicalTopology::torus(4, 4, 4, 2, 2, 2).unwrap();
    let base = plan(&topo, CollectiveOp::AllReduce, Algorithm::Baseline, None).unwrap();
    let enh = plan(&topo, CollectiveOp::AllReduce, Algorithm::Enhanced, None).unwrap();
    let set = 1 << 20;
    let (_, base_pkg) = traffic::link_bytes_per_node(&base, set);
    let (_, enh_pkg) = traffic::link_bytes_per_node(&enh, set);
    assert_eq!(base_pkg, 4 * enh_pkg);
}

/// Fig 9: alltoall wins the all-to-all collective; torus wins large
/// all-reduce.
#[test]
fn fig9_smoke() {
    let torus = SimConfig::torus(1, 8, 1)
        .local_rings(1)
        .horizontal_rings(4)
        .vertical_rings(1);
    let a2a = SimConfig::alltoall(1, 8, 7);
    let big = 16 << 20;
    assert!(
        cycles(&a2a, CollectiveRequest::all_to_all(big))
            < cycles(&torus, CollectiveRequest::all_to_all(big))
    );
    assert!(
        cycles(&torus, CollectiveRequest::all_reduce(big))
            < cycles(&a2a, CollectiveRequest::all_reduce(big))
    );
}

/// Fig 10: 2D crushes 1D in the latency-bound regime.
#[test]
fn fig10_smoke() {
    let shape = |m, n, k, lr, hr, vr| {
        SimConfig::torus(m, n, k)
            .local_rings(lr)
            .horizontal_rings(hr)
            .vertical_rings(vr)
            .symmetric_links()
    };
    let small = 64 << 10;
    let d1 = cycles(
        &shape(1, 64, 1, 1, 2, 1),
        CollectiveRequest::all_reduce(small),
    );
    let d2 = cycles(
        &shape(1, 8, 8, 1, 2, 2),
        CollectiveRequest::all_reduce(small),
    );
    let d3 = cycles(
        &shape(4, 4, 4, 4, 2, 2),
        CollectiveRequest::all_reduce(small),
    );
    assert!(d2 < d1, "2D ({d2}) must beat 1D ({d1}) at small sizes");
    assert!(d3 < d2, "3D ({d3}) must beat 2D ({d2}) at small sizes");
}

/// Fig 11: asymmetry helps; the 4-phase algorithm helps more.
#[test]
fn fig11_smoke() {
    let asym = SimConfig::torus(4, 4, 4);
    let sym = symmetric(asym.clone());
    let mut enh = asym.clone();
    enh.system.algorithm = Algorithm::Enhanced;
    let big = 16 << 20;
    let t_sym = cycles(&sym, CollectiveRequest::all_reduce(big));
    let t_asym = cycles(&asym, CollectiveRequest::all_reduce(big));
    let t_enh = cycles(&enh, CollectiveRequest::all_reduce(big));
    assert!(t_asym < t_sym);
    assert!(t_enh < t_asym);
}

/// Figs 17/18 trend: more NPUs or faster NPUs expose more communication.
#[test]
fn exposure_trends_smoke() {
    use astra_sim::workload::{transform::scale_compute_power, zoo};
    let run = |cfg: &SimConfig, speedup: u64| {
        let wl = scale_compute_power(
            zoo::resnet50(&astra_sim::compute::ComputeModel::tpu_like_256(), 32),
            speedup,
            1,
        );
        Simulator::new(cfg.clone())
            .unwrap()
            .run_training(wl)
            .unwrap()
            .exposed_ratio()
    };
    let small_sys = SimConfig::torus(2, 2, 2);
    let big_sys = SimConfig::torus(2, 8, 4);
    // Fig 17 direction: bigger system, more exposure (at a compute speed
    // where communication is near the surface).
    assert!(run(&big_sys, 20) >= run(&small_sys, 20));
    // Fig 18 direction: faster compute, more exposure.
    assert!(run(&big_sys, 24) >= run(&big_sys, 12));
}
