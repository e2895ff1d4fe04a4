//! Property tests: every plan the planner can synthesize is functionally
//! correct, and traffic factors obey general laws.

use astra_collectives::{
    plan, plan_with_intra, semantics, traffic, Algorithm, CollectiveOp, IntraAlgo, Ratio,
};
use astra_topology::LogicalTopology;
use proptest::prelude::*;

fn topo_strategy() -> impl Strategy<Value = LogicalTopology> {
    prop_oneof![
        (
            1usize..=4,
            1usize..=6,
            1usize..=6,
            1usize..=2,
            1usize..=2,
            1usize..=2
        )
            .prop_filter_map("at least two nodes", |(m, n, k, lr, hr, vr)| {
                (m * n * k >= 2).then(|| LogicalTopology::torus(m, n, k, lr, hr, vr).unwrap())
            }),
        (1usize..=4, 1usize..=8, 1usize..=2, 1usize..=4).prop_filter_map(
            "at least two nodes",
            |(m, n, lr, s)| {
                (m * n >= 2).then(|| LogicalTopology::alltoall(m, n, lr, s).unwrap())
            }
        ),
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

fn algo_strategy() -> impl Strategy<Value = Algorithm> {
    prop_oneof![Just(Algorithm::Baseline), Just(Algorithm::Enhanced)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The central guarantee: any synthesized plan, run functionally,
    /// delivers the collective's semantics on every node — under either
    /// per-dimension algorithm policy.
    #[test]
    fn all_plans_are_semantically_correct(
        topo in topo_strategy(),
        op in op_strategy(),
        algo in algo_strategy(),
        hd in proptest::bool::ANY,
    ) {
        let intra = if hd { IntraAlgo::HalvingDoubling } else { IntraAlgo::Auto };
        let p = plan_with_intra(&topo, op, algo, None, intra).expect("active dims exist");
        if let Err(e) = semantics::verify_plan(&topo, &p) {
            prop_assert!(false, "{p} failed: {e}");
        }
    }

    /// All-reduce always moves at least the information-theoretic minimum
    /// 2(P-1)/P of the set per node, with equality for the fully
    /// hierarchical (enhanced over all dims... RS+AG telescoped) case; and
    /// baseline >= enhanced always.
    #[test]
    fn all_reduce_factor_bounds(topo in topo_strategy()) {
        let participants = plan(&topo, CollectiveOp::AllReduce, Algorithm::Baseline, None)
            .unwrap()
            .participants() as u64;
        let min = Ratio::new(2 * (participants - 1), participants);
        for algo in [Algorithm::Baseline, Algorithm::Enhanced] {
            let p = plan(&topo, CollectiveOp::AllReduce, algo, None).unwrap();
            let f = traffic::send_factor(&p);
            prop_assert!(
                f.to_f64() >= min.to_f64() - 1e-9,
                "{p}: factor {f} below optimum {min}"
            );
        }
        let base = traffic::send_factor(
            &plan(&topo, CollectiveOp::AllReduce, Algorithm::Baseline, None).unwrap(),
        );
        let enh = traffic::send_factor(
            &plan(&topo, CollectiveOp::AllReduce, Algorithm::Enhanced, None).unwrap(),
        );
        prop_assert!(enh.to_f64() <= base.to_f64() + 1e-9);
    }

    /// Reduce-scatter sends exactly (1 - 1/P) of the set per node no matter
    /// how the dimensions factor P.
    #[test]
    fn reduce_scatter_factor_is_exact(topo in topo_strategy()) {
        let p = plan(&topo, CollectiveOp::ReduceScatter, Algorithm::Baseline, None).unwrap();
        let participants = p.participants() as u64;
        prop_assert_eq!(
            traffic::send_factor(&p),
            Ratio::new(participants - 1, participants)
        );
    }

    /// All-gather sends exactly (P - 1) of the (shard-sized) set per node.
    #[test]
    fn all_gather_factor_is_exact(topo in topo_strategy()) {
        let p = plan(&topo, CollectiveOp::AllGather, Algorithm::Baseline, None).unwrap();
        let participants = p.participants() as u64;
        prop_assert_eq!(traffic::send_factor(&p), Ratio::new(participants - 1, 1));
    }

    /// The enhanced algorithm never sends more inter-package bytes than
    /// baseline.
    #[test]
    fn enhanced_never_worse_on_package_links(topo in topo_strategy(), set in 1u64..10_000_000) {
        let base = plan(&topo, CollectiveOp::AllReduce, Algorithm::Baseline, None).unwrap();
        let enh = plan(&topo, CollectiveOp::AllReduce, Algorithm::Enhanced, None).unwrap();
        let (_, base_pkg) = traffic::link_bytes_per_node(&base, set);
        let (_, enh_pkg) = traffic::link_bytes_per_node(&enh, set);
        prop_assert!(enh_pkg <= base_pkg + 1); // +1 for rounding slack
    }
}
