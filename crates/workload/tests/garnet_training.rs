//! Training on the flit-level garnet backend.
//!
//! Garnet's per-flit arbitration can deliver one chunk's step `k + 1`
//! before its step `k`. The system layer holds such a step back until the
//! phase machine catches up; these shapes used to fail with "unexpected
//! step 1 (expected in-order step 0)". `TrainingRunner::run` also audits the
//! drained simulation for quiescence, so a step held back forever fails the
//! run instead of shortening its report.

use astra_des::Time;
use astra_network::NetworkConfig;
use astra_system::{BackendKind, SystemConfig, SystemSim};
use astra_topology::LogicalTopology;
use astra_workload::{zoo, TrainingReport, TrainingRunner};

fn train(shape: (usize, usize, usize), backend: BackendKind) -> TrainingReport {
    let (m, n, k) = shape;
    let sim = SystemSim::new(
        LogicalTopology::torus(m, n, k, 2, 2, 2).unwrap(),
        SystemConfig::default(),
        &NetworkConfig::default(),
        backend,
    );
    TrainingRunner::new(sim, zoo::tiny_mlp(), 2)
        .unwrap()
        .run()
        .unwrap_or_else(|e| panic!("{m}x{n}x{k} on {backend:?}: {e}"))
}

#[test]
fn garnet_tiny_mlp_trains_when_steps_overtake() {
    for shape in [(2, 2, 1), (1, 4, 1), (2, 2, 2)] {
        let report = train(shape, BackendKind::Garnet);
        assert_eq!(report.passes, 2);
        assert!(report.total_time > Time::ZERO, "{shape:?}");
        assert!(
            report.layers.iter().any(|l| l.wg_comm > Time::ZERO),
            "{shape:?}: weight gradients were communicated"
        );
    }
}

#[test]
fn garnet_training_is_deterministic() {
    let a = train((2, 2, 1), BackendKind::Garnet);
    let b = train((2, 2, 1), BackendKind::Garnet);
    assert_eq!(a.total_time, b.total_time);
    assert_eq!(a.total_exposed, b.total_exposed);
}
