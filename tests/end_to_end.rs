//! End-to-end integration tests: full training simulations spanning every
//! crate in the stack.

use astra_sim::compute::ComputeModel;
use astra_sim::des::Time;
use astra_sim::system::{CollectiveRequest, SchedulingPolicy};
use astra_sim::workload::{parser, zoo};
use astra_sim::{SimConfig, Simulator, TopologyConfig};

#[test]
fn resnet50_trains_on_paper_system() {
    // The paper's §V-F system: 2x4x4 torus, data parallel, 2 passes.
    let sim = Simulator::new(SimConfig::torus(2, 4, 4)).unwrap();
    let report = sim
        .run_training(zoo::resnet50(&ComputeModel::tpu_like_256(), 32))
        .unwrap();
    assert_eq!(report.layers.len(), 50);
    assert_eq!(report.passes, 2);
    assert!(report.total_time > report.total_compute);
    // Every layer all-reduced its gradients twice.
    assert!(report.layers.iter().all(|l| l.wg_comm > Time::ZERO));
}

#[test]
fn transformer_trains_hybrid_parallel() {
    let sim = Simulator::new(SimConfig::torus(2, 2, 2)).unwrap();
    let report = sim
        .run_training(zoo::transformer(&ComputeModel::tpu_like_256(), 32, 64))
        .unwrap();
    assert_eq!(report.layers.len(), 7);
    // Hybrid parallelism: blocking activation collectives expose time.
    assert!(report.total_exposed > Time::ZERO);
}

#[test]
fn dlrm_exercises_all_to_all() {
    let sim = Simulator::new(SimConfig::alltoall(2, 8, 4)).unwrap();
    let report = sim
        .run_training(zoo::dlrm(&ComputeModel::tpu_like_256(), 32))
        .unwrap();
    let emb = report
        .layers
        .iter()
        .find(|l| l.name == "embeddings")
        .unwrap();
    assert!(emb.fwd_comm > Time::ZERO, "embedding all-to-all ran");
    assert!(emb.ig_comm > Time::ZERO);
}

#[test]
fn training_is_deterministic_across_runs() {
    let run = || {
        Simulator::new(SimConfig::torus(2, 2, 2))
            .unwrap()
            .run_training(zoo::tiny_hybrid())
            .unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a.total_time, b.total_time);
    assert_eq!(a.total_exposed, b.total_exposed);
    for (x, y) in a.layers.iter().zip(&b.layers) {
        assert_eq!(x.wg_comm, y.wg_comm);
        assert_eq!(x.exposed, y.exposed);
    }
}

#[test]
fn lifo_prioritizes_late_layers_under_contention() {
    // Make compute negligible so weight-gradient collectives pile up; LIFO
    // should then finish the *first* layer's collective (issued last)
    // sooner, reducing its exposure relative to FIFO.
    let mut wl = zoo::tiny_mlp();
    for l in &mut wl.layers {
        l.fwd_compute = Time::from_cycles(10);
        l.ig_compute = Time::from_cycles(10);
        l.wg_compute = Time::from_cycles(10);
        if let Some(c) = &mut l.wg_comm {
            c.bytes = 8 << 20;
        }
    }
    let run = |policy| {
        let mut cfg = SimConfig::torus(1, 8, 1);
        cfg.system.scheduling = policy;
        Simulator::new(cfg)
            .unwrap()
            .run_training(wl.clone())
            .unwrap()
    };
    let lifo = run(SchedulingPolicy::Lifo);
    let fifo = run(SchedulingPolicy::Fifo);
    assert!(
        lifo.layers[0].exposed <= fifo.layers[0].exposed,
        "LIFO should not increase first-layer exposure: {} vs {}",
        lifo.layers[0].exposed,
        fifo.layers[0].exposed
    );
}

#[test]
fn workload_file_runs_end_to_end() {
    let text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/workloads/custom_mlp.txt"
    ))
    .unwrap();
    let wl = parser::parse("custom_mlp", &text).unwrap();
    let report = Simulator::new(SimConfig::torus(2, 2, 2))
        .unwrap()
        .run_training(wl)
        .unwrap();
    assert_eq!(report.layers.len(), 4);
    assert!(report.total_time > Time::ZERO);
}

#[test]
fn hybrid_workload_file_runs() {
    let text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/workloads/hybrid_transformer_small.txt"
    ))
    .unwrap();
    let wl = parser::parse("hybrid_small", &text).unwrap();
    let report = Simulator::new(SimConfig::torus(2, 2, 2))
        .unwrap()
        .run_training(wl)
        .unwrap();
    assert!(report.layers.iter().any(|l| l.fwd_comm > Time::ZERO));
}

#[test]
fn more_passes_take_proportionally_longer() {
    let mut cfg = SimConfig::torus(2, 2, 1);
    cfg.passes = 1;
    let one = Simulator::new(cfg.clone())
        .unwrap()
        .run_training(zoo::tiny_mlp())
        .unwrap();
    cfg.passes = 4;
    let four = Simulator::new(cfg)
        .unwrap()
        .run_training(zoo::tiny_mlp())
        .unwrap();
    let ratio = four.total_time.cycles() as f64 / one.total_time.cycles() as f64;
    assert!(
        (3.0..5.0).contains(&ratio),
        "4 passes should take ~4x one pass, got {ratio}"
    );
}

#[test]
fn bandwidth_test_duration_scales_with_size() {
    let sim = Simulator::new(SimConfig::torus(2, 4, 4)).unwrap();
    let mut last = 0;
    for bytes in [1 << 16, 1 << 20, 1 << 24] {
        let t = sim
            .run_collective(CollectiveRequest::all_reduce(bytes))
            .unwrap()
            .duration
            .cycles();
        assert!(t > last, "bigger collectives must take longer");
        last = t;
    }
}

#[test]
fn every_collective_op_runs_on_every_fabric() {
    use astra_sim::collectives::CollectiveOp;
    let fabrics = [
        SimConfig::torus(2, 2, 2),
        SimConfig::torus(1, 8, 1),
        SimConfig::alltoall(2, 4, 2),
        SimConfig::alltoall(1, 8, 7),
    ];
    for cfg in fabrics {
        let sim = Simulator::new(cfg.clone()).unwrap();
        for op in [
            CollectiveOp::ReduceScatter,
            CollectiveOp::AllGather,
            CollectiveOp::AllReduce,
            CollectiveOp::AllToAll,
        ] {
            let req = CollectiveRequest {
                op,
                bytes: 1 << 18,
                dims: None,
                algorithm: None,
                local_update_per_kb: None,
            };
            let out = sim
                .run_collective(req)
                .unwrap_or_else(|e| panic!("{op:?} failed on {:?}: {e}", cfg.topology));
            assert!(out.duration > Time::ZERO);
        }
    }
}

#[test]
fn topology_config_rejects_nonsense() {
    let bad = SimConfig {
        topology: TopologyConfig::Torus {
            local: 0,
            horizontal: 8,
            vertical: 1,
            local_rings: 1,
            horizontal_rings: 1,
            vertical_rings: 1,
        },
        ..SimConfig::torus(1, 8, 1)
    };
    assert!(Simulator::new(bad).is_err());
}

#[test]
fn overlay_config_via_facade() {
    use astra_sim::OverlayConfig;
    // Logical 1x4x4 on a physical 1x16x1 ring, with a rotated permutation.
    let thin_ring = SimConfig::torus(1, 16, 1)
        .local_rings(1)
        .horizontal_rings(2)
        .vertical_rings(1)
        .topology;
    let cfg = SimConfig::torus(1, 4, 4).with_overlay(OverlayConfig {
        physical: thin_ring.clone(),
        permutation: Some((0..16).map(|i| (i + 5) % 16).collect()),
    });
    let overlaid = Simulator::new(cfg)
        .unwrap()
        .run_collective(CollectiveRequest::all_reduce(1 << 20))
        .unwrap();
    let native = Simulator::new(SimConfig::torus(1, 4, 4))
        .unwrap()
        .run_collective(CollectiveRequest::all_reduce(1 << 20))
        .unwrap();
    assert!(
        overlaid.duration > native.duration,
        "thin physical fabric must be slower: {} vs {}",
        overlaid.duration,
        native.duration
    );
    // A rotation is an isomorphism of the ring: same result as identity.
    let ident_cfg = SimConfig::torus(1, 4, 4).with_overlay(OverlayConfig {
        physical: thin_ring,
        permutation: None,
    });
    let ident = Simulator::new(ident_cfg)
        .unwrap()
        .run_collective(CollectiveRequest::all_reduce(1 << 20))
        .unwrap();
    assert_eq!(overlaid.duration, ident.duration);
}

/// A bad overlay fails at construction, not at its first run.
#[test]
fn bad_overlay_permutation_rejected() {
    let ring = |n| {
        SimConfig::torus(1, n, 1)
            .local_rings(1)
            .horizontal_rings(1)
            .vertical_rings(1)
            .topology
    };
    for (physical, permutation, expected) in [
        (
            4,
            Some(vec![0, 0, 1, 2]), // not a permutation
            "topology configuration invalid: invalid mapping: index 0 appears twice",
        ),
        (
            8,
            None,
            "system layer error: invalid overlay: \
             mapping covers 4 nodes, logical has 4, physical has 8",
        ),
    ] {
        let cfg = SimConfig::torus(1, 4, 1).with_overlay(astra_sim::OverlayConfig {
            physical: ring(physical),
            permutation,
        });
        assert_eq!(Simulator::new(cfg).unwrap_err().to_string(), expected);
    }
}

#[test]
fn garnet_backend_runs_on_pod_fabric() {
    use astra_sim::system::BackendKind;
    let mut cfg = SimConfig::torus(2, 1, 1)
        .local_rings(1)
        .horizontal_rings(1)
        .vertical_rings(1)
        .pods(2, 1)
        .with_backend(BackendKind::Garnet);
    cfg.system.set_splits = 2;
    let out = Simulator::new(cfg)
        .unwrap()
        .run_collective(CollectiveRequest::all_reduce(8 << 10))
        .unwrap();
    assert!(out.duration > astra_sim::des::Time::ZERO);
    assert!(out.network.scale_out_link_bytes > 0);
}
