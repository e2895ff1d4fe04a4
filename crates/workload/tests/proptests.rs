//! Property tests: the Fig-8 parser round-trips arbitrary workloads, and
//! small random workloads train to completion.

use astra_collectives::CollectiveOp;
use astra_des::Time;
use astra_network::NetworkConfig;
use astra_system::{BackendKind, SystemConfig, SystemSim};
use astra_topology::{Dim, LogicalTopology};
use astra_workload::{parser, CommSpec, LayerSpec, Parallelism, TrainingRunner, Workload};
use proptest::prelude::*;

fn comm_strategy() -> impl Strategy<Value = Option<CommSpec>> {
    prop_oneof![
        Just(None),
        (
            prop_oneof![
                Just(CollectiveOp::AllReduce),
                Just(CollectiveOp::AllGather),
                Just(CollectiveOp::ReduceScatter),
                Just(CollectiveOp::AllToAll),
            ],
            1u64..10_000_000
        )
            .prop_map(|(op, bytes)| Some(CommSpec::new(op, bytes))),
    ]
}

fn layer_strategy() -> impl Strategy<Value = LayerSpec> {
    (
        "[a-z][a-z0-9_]{0,12}",
        0u64..1_000_000,
        comm_strategy(),
        0u64..1_000_000,
        comm_strategy(),
        0u64..1_000_000,
        comm_strategy(),
        0u64..100,
    )
        .prop_map(|(name, f, fc, i, ic, w, wc, upd)| LayerSpec {
            name,
            fwd_compute: Time::from_cycles(f),
            fwd_comm: fc,
            ig_compute: Time::from_cycles(i),
            ig_comm: ic,
            wg_compute: Time::from_cycles(w),
            wg_comm: wc,
            local_update_per_kb: Time::from_cycles(upd),
        })
}

fn parallelism_strategy() -> impl Strategy<Value = Parallelism> {
    prop_oneof![
        Just(Parallelism::Data),
        Just(Parallelism::Model),
        Just(Parallelism::Hybrid {
            data_dims: vec![Dim::Local, Dim::Horizontal],
            model_dims: vec![Dim::Vertical],
        }),
        Just(Parallelism::Hybrid {
            data_dims: vec![Dim::Vertical],
            model_dims: vec![Dim::Local],
        }),
    ]
}

fn workload_strategy(max_layers: usize) -> impl Strategy<Value = Workload> {
    (
        parallelism_strategy(),
        proptest::collection::vec(layer_strategy(), 1..=max_layers),
    )
        .prop_map(|(parallelism, layers)| Workload {
            name: "prop".into(),
            parallelism,
            layers,
        })
}

proptest! {
    /// write → parse is the identity on arbitrary well-formed workloads.
    #[test]
    fn parser_roundtrip(wl in workload_strategy(20)) {
        let text = parser::write(&wl);
        let back = parser::parse(&wl.name, &text).expect("own output parses");
        prop_assert_eq!(back, wl);
    }

    /// Any small well-formed workload trains to completion on a 2x2x2 torus
    /// with sane accounting.
    #[test]
    fn random_workloads_train(wl in workload_strategy(4), passes in 1u32..3) {
        let topo = LogicalTopology::torus(2, 2, 2, 1, 1, 1).unwrap();
        let sim = SystemSim::new(
            topo,
            SystemConfig { set_splits: 4, ..SystemConfig::default() },
            &NetworkConfig::default(),
            BackendKind::Analytical,
        );
        let report = TrainingRunner::new(sim, wl.clone(), passes)
            .expect("valid workload")
            .run()
            .expect("training completes");
        prop_assert_eq!(report.layers.len(), wl.layers.len());
        prop_assert_eq!(report.passes, passes);
        // Wall time covers compute plus exposure.
        prop_assert!(report.total_time >= report.total_compute);
        prop_assert!(report.total_time >= report.total_exposed);
        // Layers without any comm report zero comm durations.
        for (l, spec) in report.layers.iter().zip(&wl.layers) {
            if spec.comm_bytes() == 0 {
                prop_assert_eq!(l.total_comm(), Time::ZERO);
                prop_assert_eq!(l.exposed, Time::ZERO);
            }
        }
    }
}

proptest! {
    /// Failure injection: the Fig-8 parser never panics, whatever bytes it
    /// is fed — it either parses or returns a line-numbered error.
    #[test]
    fn parser_never_panics(input in "\\PC{0,400}") {
        let _ = parser::parse("fuzz", &input);
    }

    /// Structured fuzz: near-valid files with corrupted tokens fail
    /// gracefully with the right line number reported.
    #[test]
    fn parser_reports_sane_line_numbers(
        garbage in "[a-zA-Z0-9_ ]{1,30}",
        line in 0usize..4,
    ) {
        let mut lines = [
            "DATA".to_owned(),
            "1".to_owned(),
            "l1 10 NONE 0 10 NONE 0 10 ALLREDUCE 100 2".to_owned(),
        ];
        lines[line.min(2)] = garbage;
        let text = lines.join("\n");
        match parser::parse("fuzz", &text) {
            Ok(wl) => prop_assert_eq!(wl.layers.len(), 1),
            Err(e) => prop_assert!(e.line >= 1 && e.line <= 3, "line {}", e.line),
        }
    }
}
