//! Sweep determinism: the serialized `SweepReport` is a pure function of
//! the spec — independent of worker count.

use astra_core::collectives::Algorithm;
use astra_core::{Experiment, SimConfig};
use astra_sweep::{Axis, SweepEngine, SweepSpec};
use proptest::prelude::*;

/// A 2 topologies × 2 algorithms × 4 sizes = 16-point grid.
fn grid_spec() -> SweepSpec {
    SweepSpec::new(
        "determinism",
        SimConfig::torus(1, 8, 1),
        Experiment::all_reduce(1 << 16),
    )
    .axis(Axis::Topologies(vec![
        SimConfig::torus(1, 8, 1).topology,
        SimConfig::alltoall(1, 8, 7).topology,
    ]))
    .axis(Axis::Algorithms(vec![
        Algorithm::Baseline,
        Algorithm::Enhanced,
    ]))
    .axis(Axis::MessageSizes(vec![
        64 << 10,
        256 << 10,
        1 << 20,
        4 << 20,
    ]))
}

#[test]
fn parallel_sequential_and_cached_reports_are_byte_identical() {
    let sequential = SweepEngine::new(grid_spec()).workers(1).run().unwrap();
    let parallel = SweepEngine::new(grid_spec()).workers(4).run().unwrap();
    assert_eq!(sequential.stats.points, 16);
    assert_eq!(sequential.stats.computed, 16);
    assert_eq!(
        sequential.report.to_json(),
        parallel.report.to_json(),
        "worker count must not change a single byte of the report"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Any multi-axis sub-grid drawn from the figure domains produces the
    /// same bytes with 1 worker and N workers.
    fn any_subgrid_is_worker_and_cache_invariant(
        sizes in proptest::collection::vec(
            prop_oneof![
                Just(16u64 << 10),
                Just(64u64 << 10),
                Just(256u64 << 10),
                Just(1u64 << 20),
            ],
            1..=3,
        ),
        use_alltoall in proptest::bool::ANY,
        enhanced in proptest::bool::ANY,
        workers in 2usize..=5,
    ) {
        let topo = if use_alltoall {
            SimConfig::alltoall(1, 8, 7).topology
        } else {
            SimConfig::torus(1, 8, 1).topology
        };
        let algs = if enhanced {
            vec![Algorithm::Baseline, Algorithm::Enhanced]
        } else {
            vec![Algorithm::Baseline]
        };
        let spec = SweepSpec::new(
            "prop-determinism",
            SimConfig::torus(1, 8, 1),
            Experiment::all_reduce(1 << 16),
        )
        .axis(Axis::Topologies(vec![topo]))
        .axis(Axis::Algorithms(algs))
        .axis(Axis::MessageSizes(sizes));

        let one = SweepEngine::new(spec.clone()).workers(1).run().unwrap();
        let many = SweepEngine::new(spec).workers(workers).run().unwrap();
        prop_assert_eq!(&one.report.to_json(), &many.report.to_json());
    }
}
