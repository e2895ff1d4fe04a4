//! Behavioral tests of the system-layer event loop, exercised through the
//! public API only. These lived inside `src/sim.rs` before the scheduler
//! refactor split the monolith; they moved here unchanged (modulo imports)
//! so the slimmed event loop stays testable from the outside.

use astra_des::Time;
use astra_network::NetworkConfig;
use astra_system::{
    BackendKind, CollectiveRequest, Notification, SchedulingPolicy, SystemConfig, SystemError,
    SystemSim,
};
use astra_topology::{LogicalTopology, NodeId, Torus3d};

fn ring8() -> LogicalTopology {
    LogicalTopology::torus(Torus3d::new(1, 8, 1, 1, 2, 1).unwrap())
}

fn sim(topo: LogicalTopology) -> SystemSim {
    SystemSim::new(
        topo,
        SystemConfig::default(),
        &NetworkConfig::default(),
        BackendKind::Analytical,
    )
}

mod core_behavior {
    use super::*;
    use astra_collectives::{plan, traffic, Algorithm, CollectiveOp};

    fn run_collective(sim: &mut SystemSim, req: CollectiveRequest) -> (Time, astra_system::CollId) {
        let id = sim.issue_collective(req).unwrap();
        let mut done = 0;
        let n = sim.topology().num_npus();
        while let Some(note) = sim.run_until_notification().unwrap() {
            if let Notification::CollectiveDone { coll, .. } = note {
                assert_eq!(coll, id);
                done += 1;
                if done == n {
                    break;
                }
            }
        }
        assert_eq!(done, n, "all NPUs must finish");
        sim.run_until_idle().unwrap();
        (sim.report(id).unwrap().finished_at, id)
    }

    /// `complete_collective` is the hand-written loop above plus the
    /// quiescence audit: the same report, statistics and event count on
    /// either backend.
    #[test]
    fn complete_collective_matches_the_hand_written_loop() {
        for backend in [BackendKind::Analytical, BackendKind::Garnet] {
            let topo = LogicalTopology::torus(Torus3d::new(2, 2, 2, 1, 1, 1).unwrap());
            let build = || {
                SystemSim::new(
                    topo.clone(),
                    SystemConfig::default(),
                    &NetworkConfig::default(),
                    backend,
                )
            };
            let req = CollectiveRequest::all_reduce(1 << 14);
            let mut by_hand = build();
            let (_, hand_id) = run_collective(&mut by_hand, req.clone());
            let mut driven = build();
            let id = driven.complete_collective(req).unwrap();
            assert_eq!(id, hand_id);
            assert_eq!(driven.report(id), by_hand.report(hand_id), "{backend:?}");
            assert_eq!(driven.stats(), by_hand.stats(), "{backend:?}");
            assert_eq!(driven.net_stats(), by_hand.net_stats(), "{backend:?}");
            assert_eq!(
                driven.events_processed(),
                by_hand.events_processed(),
                "{backend:?}"
            );
            driven.audit_quiescent().unwrap();
        }
    }

    #[test]
    fn ring_all_reduce_completes_on_all_npus() {
        let mut s = sim(ring8());
        let (t, id) = run_collective(&mut s, CollectiveRequest::all_reduce(1 << 20));
        assert!(t > Time::ZERO);
        let r = s.report(id).unwrap();
        assert_eq!(r.chunks, 16);
        assert_eq!(r.phases, 1);
        assert!(r.finished_at >= r.first_npu_done);
    }

    #[test]
    fn conservation_of_bytes_on_ring_all_reduce() {
        let mut s = sim(ring8());
        let bytes = 1 << 20;
        let (_, id) = run_collective(&mut s, CollectiveRequest::all_reduce(bytes));
        // Network payload delivered == 8 NPUs x send factor x set size
        // (+ rounding slack from chunking).
        let plan = plan(&ring8(), CollectiveOp::AllReduce, Algorithm::Baseline, None).unwrap();
        let expect_per_npu = traffic::bytes_sent_per_node(&plan, bytes);
        let total = s.net_stats().payload_bytes;
        let expect = 8 * expect_per_npu;
        let slack = expect / 100 + 1024;
        assert!(
            total >= expect - slack && total <= expect + slack,
            "delivered {total}, expected about {expect}"
        );
        let _ = id;
    }

    #[test]
    fn bigger_messages_take_longer() {
        let mut a = sim(ring8());
        let (t1, _) = run_collective(&mut a, CollectiveRequest::all_reduce(1 << 18));
        let mut b = sim(ring8());
        let (t2, _) = run_collective(&mut b, CollectiveRequest::all_reduce(1 << 24));
        assert!(t2 > t1, "64x data should take longer: {t1} vs {t2}");
    }

    #[test]
    fn multi_dim_torus_all_reduce() {
        let topo = LogicalTopology::torus(Torus3d::new(2, 2, 2, 1, 1, 1).unwrap());
        let mut s = sim(topo);
        let (_, id) = run_collective(&mut s, CollectiveRequest::all_reduce(1 << 16));
        assert_eq!(s.report(id).unwrap().phases, 3);
        // Per-phase stats exist for all three phases.
        assert!(s.stats().phase_network.len() >= 3);
        assert!(s.stats().phase_network.iter().all(|p| p.count() > 0));
    }

    #[test]
    fn enhanced_beats_baseline_on_asymmetric_fabric() {
        let topo = || LogicalTopology::torus(Torus3d::new(4, 4, 4, 2, 2, 2).unwrap());
        let mut net_cfg = NetworkConfig::default();
        net_cfg.local.gbps = 200.0;
        net_cfg.package.gbps = 25.0;
        let base_cfg = SystemConfig {
            algorithm: Algorithm::Baseline,
            ..SystemConfig::default()
        };
        let enh_cfg = SystemConfig {
            algorithm: Algorithm::Enhanced,
            ..SystemConfig::default()
        };
        let mut s1 = SystemSim::new(topo(), base_cfg, &net_cfg, BackendKind::Analytical);
        let (t_base, _) = run_collective(&mut s1, CollectiveRequest::all_reduce(1 << 22));
        let mut s2 = SystemSim::new(topo(), enh_cfg, &net_cfg, BackendKind::Analytical);
        let (t_enh, _) = run_collective(&mut s2, CollectiveRequest::all_reduce(1 << 22));
        assert!(
            t_enh < t_base,
            "enhanced ({t_enh}) should beat baseline ({t_base})"
        );
    }

    #[test]
    fn callbacks_fire_in_order() {
        let mut s = sim(ring8());
        let a = s.schedule_callback(Time::from_cycles(100)).unwrap();
        let b = s.schedule_callback(Time::from_cycles(50)).unwrap();
        let first = s.run_until_notification().unwrap().unwrap();
        let second = s.run_until_notification().unwrap().unwrap();
        match (first, second) {
            (
                Notification::Callback { id: f, time: tf },
                Notification::Callback { id: g, time: tg },
            ) => {
                assert_eq!(f, b);
                assert_eq!(g, a);
                assert!(tf < tg);
            }
            other => panic!("unexpected notifications: {other:?}"),
        }
    }

    #[test]
    fn empty_set_rejected() {
        let mut s = sim(ring8());
        assert!(matches!(
            s.issue_collective(CollectiveRequest::all_reduce(0)),
            Err(SystemError::EmptySet)
        ));
    }

    #[test]
    fn tiny_set_uses_fewer_chunks() {
        let mut s = sim(ring8());
        let (_, id) = run_collective(&mut s, CollectiveRequest::all_reduce(5));
        assert_eq!(s.report(id).unwrap().chunks, 5);
    }

    #[test]
    fn all_to_all_on_ring_completes() {
        let mut s = sim(ring8());
        let (t, id) = run_collective(&mut s, CollectiveRequest::all_to_all(1 << 18));
        assert!(t > Time::ZERO);
        assert_eq!(s.report(id).unwrap().phases, 1);
    }

    #[test]
    fn alltoall_fabric_all_reduce_and_a2a() {
        use astra_topology::HierAllToAll;
        let topo = LogicalTopology::alltoall(HierAllToAll::new(1, 8, 1, 7).unwrap());
        let mut s = sim(topo.clone());
        let (t_ar, _) = run_collective(&mut s, CollectiveRequest::all_reduce(1 << 20));
        assert!(t_ar > Time::ZERO);
        let mut s2 = sim(topo);
        let (t_a2a, _) = run_collective(&mut s2, CollectiveRequest::all_to_all(1 << 20));
        assert!(t_a2a > Time::ZERO);
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut s = sim(ring8());
            let (t, _) = run_collective(&mut s, CollectiveRequest::all_reduce(123_457));
            (t, s.events_processed())
        };
        assert_eq!(run(), run());
    }

    /// Issues a big collective then a small one, with a dispatcher small
    /// enough that the ready queue actually holds chunks; returns when the
    /// small one finished on every NPU.
    fn small_after_big_done_at(policy: SchedulingPolicy) -> Time {
        let cfg = SystemConfig {
            scheduling: policy,
            dispatcher_threshold: 2,
            dispatcher_batch: 2,
            ..SystemConfig::default()
        };
        let mut s = SystemSim::new(
            ring8(),
            cfg,
            &NetworkConfig::default(),
            BackendKind::Analytical,
        );
        let _big = s
            .issue_collective(CollectiveRequest::all_reduce(1 << 24))
            .unwrap();
        let small = s
            .issue_collective(CollectiveRequest::all_reduce(1 << 16))
            .unwrap();
        let mut done = 0;
        while let Some(n) = s.run_until_notification().unwrap() {
            if let Notification::CollectiveDone { coll, time, .. } = n {
                if coll == small {
                    done += 1;
                    if done == 8 {
                        return time;
                    }
                }
            }
        }
        panic!("the small collective never completed");
    }

    #[test]
    fn two_collectives_lifo_vs_fifo_priority() {
        // Under LIFO the small collective (issued last) finishes earlier
        // than under FIFO.
        let lifo = small_after_big_done_at(SchedulingPolicy::Lifo);
        let fifo = small_after_big_done_at(SchedulingPolicy::Fifo);
        assert!(
            lifo < fifo,
            "LIFO should prioritize the later collective: lifo {lifo} vs fifo {fifo}"
        );
    }

    #[test]
    fn priority_policy_favors_small_collectives_end_to_end() {
        // Priority (smallest chunk first) should finish the small
        // late-issued collective no later than FIFO does.
        let prio = small_after_big_done_at(SchedulingPolicy::Priority);
        let fifo = small_after_big_done_at(SchedulingPolicy::Fifo);
        assert!(
            prio < fifo,
            "priority should front-run the small collective: prio {prio} vs fifo {fifo}"
        );
    }

    #[test]
    fn garnet_backend_small_run() {
        let topo = LogicalTopology::torus(Torus3d::new(1, 4, 1, 1, 1, 1).unwrap());
        let mut s = SystemSim::new(
            topo,
            SystemConfig {
                set_splits: 2,
                ..SystemConfig::default()
            },
            &NetworkConfig::default(),
            BackendKind::Garnet,
        );
        let id = s
            .complete_collective(CollectiveRequest::all_reduce(4096))
            .unwrap();
        assert!(s.report(id).is_some());
    }
}

mod fault_behavior {
    use super::*;
    use astra_network::{FaultKind, FaultPlan, LinkFault, LossSpec};
    use astra_topology::{HierAllToAll, PodFabric};

    /// Two pods of 4 NPUs behind one scale-out switch.
    fn pods8() -> LogicalTopology {
        LogicalTopology::pods(
            PodFabric::new(Torus3d::new(1, 4, 1, 1, 1, 1).unwrap(), 2, 1).unwrap(),
        )
    }

    fn lossy_plan(drop_rate: f64) -> FaultPlan {
        FaultPlan {
            seed: 7,
            loss: Some(LossSpec {
                drop_rate,
                timeout: Time::from_cycles(2_000),
                max_retries: 16,
            }),
            ..FaultPlan::default()
        }
    }

    fn run_all_reduce(s: &mut SystemSim, bytes: u64) -> Time {
        let id = s.issue_collective(CollectiveRequest::all_reduce(bytes)).unwrap();
        s.run_until_idle().unwrap();
        s.report(id).unwrap().finished_at
    }

    #[test]
    fn empty_plan_is_inert_in_the_system_layer() {
        let mut clean = sim(pods8());
        let t_clean = run_all_reduce(&mut clean, 1 << 18);

        let mut with_empty = sim(pods8());
        with_empty.install_faults(&FaultPlan::default()).unwrap();
        let t_empty = run_all_reduce(&mut with_empty, 1 << 18);

        assert_eq!(t_clean, t_empty);
        assert_eq!(clean.events_processed(), with_empty.events_processed());
        assert_eq!(clean.stats().drops, 0);
        assert_eq!(with_empty.stats().drops, 0);
    }

    #[test]
    fn lossy_scale_out_retransmits_and_is_strictly_slower() {
        let mut clean = sim(pods8());
        let t_clean = run_all_reduce(&mut clean, 1 << 18);
        assert_eq!(clean.stats().retransmits, 0);

        let mut lossy = sim(pods8());
        lossy.install_faults(&lossy_plan(0.05)).unwrap();
        let t_lossy = run_all_reduce(&mut lossy, 1 << 18);

        let st = lossy.stats();
        assert!(st.drops > 0, "5% drop rate must hit some scale-out message");
        assert_eq!(
            st.retransmits, st.drops,
            "every drop below the retry budget gets exactly one retransmission"
        );
        assert!(
            t_lossy > t_clean,
            "recovering dropped messages must cost cycles: {t_lossy} vs {t_clean}"
        );
    }

    #[test]
    fn loss_never_touches_intra_pod_traffic() {
        // A pure torus has no scale-out links: the lossy plan must be a
        // behavioural no-op (beyond seeding the RNG).
        let mut clean = sim(ring8());
        let t_clean = run_all_reduce(&mut clean, 1 << 18);
        let mut lossy = sim(ring8());
        lossy.install_faults(&lossy_plan(0.5)).unwrap();
        let t_lossy = run_all_reduce(&mut lossy, 1 << 18);
        assert_eq!(t_clean, t_lossy);
        assert_eq!(lossy.stats().drops, 0);
    }

    #[test]
    fn same_seed_and_plan_replays_cycle_identically() {
        let run = || {
            let mut s = sim(pods8());
            s.install_faults(&lossy_plan(0.1)).unwrap();
            let t = run_all_reduce(&mut s, 123_457);
            (t, s.events_processed(), s.stats().drops, s.stats().retransmits)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn reroute_around_down_link_completes_and_counts() {
        let window_end = Time::from_cycles(1_000_000_000);
        let plan = FaultPlan {
            link_faults: vec![LinkFault {
                from: NodeId(0),
                to: NodeId(1),
                kind: FaultKind::Down,
                start: Time::ZERO,
                end: window_end,
            }],
            ..FaultPlan::default()
        };
        let mut s = sim(ring8());
        s.install_faults(&plan).unwrap();
        let t = run_all_reduce(&mut s, 1 << 16);
        assert!(t > Time::ZERO);
        assert!(
            s.stats().reroutes > 0,
            "sends over the dead 0->1 link must be rerouted the long way"
        );
        // Nothing ever attempted the dead link, so no stall cycles accrued.
        assert_eq!(s.net_stats().fault_stall_cycles, 0);
    }

    #[test]
    fn fully_cut_source_reports_unreachable() {
        let window_end = Time::from_cycles(1_000_000_000);
        let cut = |to: usize| LinkFault {
            from: NodeId(0),
            to: NodeId(to),
            kind: FaultKind::Down,
            start: Time::ZERO,
            end: window_end,
        };
        let plan = FaultPlan {
            link_faults: vec![cut(1), cut(7)],
            ..FaultPlan::default()
        };
        let mut s = sim(ring8());
        s.install_faults(&plan).unwrap();
        // NPU 0's first sends have no physical path at all.
        let err = s
            .issue_collective(CollectiveRequest::all_reduce(1 << 16))
            .unwrap_err();
        assert!(
            matches!(err, SystemError::Unreachable { from: NodeId(0), .. }),
            "got: {err}"
        );
    }

    #[test]
    fn exhausted_retry_budget_is_a_typed_error() {
        let plan = FaultPlan {
            seed: 3,
            loss: Some(LossSpec {
                drop_rate: 0.99,
                timeout: Time::from_cycles(100),
                max_retries: 0,
            }),
            ..FaultPlan::default()
        };
        let mut s = sim(pods8());
        s.install_faults(&plan).unwrap();
        let id = s.issue_collective(CollectiveRequest::all_reduce(1 << 18)).unwrap();
        let err = s.run_until_idle().unwrap_err();
        assert!(
            matches!(err, SystemError::RetriesExhausted { attempts: 1, .. }),
            "got: {err}"
        );
        let _ = id;
    }

    #[test]
    fn bad_plans_rejected_on_install() {
        let mut s = sim(ring8());
        // Straggler index past the fabric.
        let plan = FaultPlan {
            stragglers: vec![astra_network::Straggler {
                npu: 99,
                slowdown: 2.0,
            }],
            ..FaultPlan::default()
        };
        let err = s.install_faults(&plan).unwrap_err();
        assert!(matches!(err, SystemError::Fault(_)), "got: {err}");
        // Plan rejected atomically: nothing installed.
        assert!(s.faults().is_empty());
    }

    #[test]
    fn straggler_on_a_switch_id_is_rejected() {
        // 1x8@7: network nodes 8..15 are global switches, which compute
        // nothing and so cannot straggle.
        let topo = LogicalTopology::alltoall(HierAllToAll::new(1, 8, 1, 7).unwrap());
        let mut s = sim(topo);
        let plan = FaultPlan {
            stragglers: vec![astra_network::Straggler {
                npu: 9,
                slowdown: 2.0,
            }],
            ..FaultPlan::default()
        };
        let err = s.install_faults(&plan).unwrap_err().to_string();
        assert!(err.contains("straggler") && err.contains("npu 9"), "got: {err}");
        assert!(s.faults().is_empty());
    }
}

mod injection_behavior {
    use super::*;
    use astra_system::InjectionPolicy;
    use astra_topology::HierAllToAll;

    fn run_policy(policy: InjectionPolicy) -> (Time, u64) {
        // Direct alltoall collective: each NPU blasts 7 messages at phase
        // start; `normal` paces them through Inject events.
        let topo = LogicalTopology::alltoall(HierAllToAll::new(1, 8, 1, 7).unwrap());
        let cfg = SystemConfig {
            injection: policy,
            set_splits: 4,
            ..SystemConfig::default()
        };
        let mut sim = SystemSim::new(
            topo,
            cfg,
            &NetworkConfig::default(),
            BackendKind::Analytical,
        );
        let id = sim
            .issue_collective(CollectiveRequest::all_to_all(1 << 20))
            .unwrap();
        sim.run_until_idle().unwrap();
        (sim.report(id).unwrap().finished_at, sim.events_processed())
    }

    #[test]
    fn normal_injection_paces_bursts() {
        let (aggressive, agg_events) = run_policy(InjectionPolicy::Aggressive);
        let (normal, norm_events) = run_policy(InjectionPolicy::Normal);
        // Pacing a burst can never beat immediate injection; on this fabric
        // the burst shares one up-link per chunk, so the two coincide
        // exactly - the paced sends hide behind link serialization.
        assert!(normal >= aggressive, "{normal} vs {aggressive}");
        // The pacing machinery actually ran: deferred Inject events exist.
        assert!(
            norm_events > agg_events,
            "expected Inject events under normal policy: {norm_events} vs {agg_events}"
        );
    }

    #[test]
    fn normal_injection_is_deterministic() {
        assert_eq!(
            run_policy(InjectionPolicy::Normal),
            run_policy(InjectionPolicy::Normal)
        );
    }

    #[test]
    fn policies_agree_on_single_message_actions() {
        // Ring all-reduce sends one message per action; pacing is a no-op.
        let run = |policy| {
            let topo = LogicalTopology::torus(Torus3d::new(1, 4, 1, 1, 1, 1).unwrap());
            let cfg = SystemConfig {
                injection: policy,
                set_splits: 2,
                ..SystemConfig::default()
            };
            let mut sim = SystemSim::new(
                topo,
                cfg,
                &NetworkConfig::default(),
                BackendKind::Analytical,
            );
            let id = sim
                .issue_collective(CollectiveRequest::all_reduce(1 << 16))
                .unwrap();
            sim.run_until_idle().unwrap();
            sim.report(id).unwrap().finished_at
        };
        assert_eq!(
            run(InjectionPolicy::Aggressive),
            run(InjectionPolicy::Normal)
        );
    }
}

mod overlay_behavior {
    use super::*;
    use astra_topology::Mapping;

    fn run_overlay(
        logical: LogicalTopology,
        physical: &LogicalTopology,
        mapping: Mapping,
    ) -> Time {
        let mut sim = SystemSim::with_overlay(
            logical,
            physical,
            mapping,
            SystemConfig::default(),
            &NetworkConfig::default(),
            BackendKind::Analytical,
        )
        .unwrap();
        let id = sim
            .issue_collective(CollectiveRequest::all_reduce(1 << 20))
            .unwrap();
        sim.run_until_idle().unwrap();
        sim.report(id).unwrap().finished_at
    }

    #[test]
    fn logical_2d_on_physical_1d_ring_runs_and_is_slower() {
        // The paper's §IV-B example: a multi-dim logical topology mapped
        // onto a lower-dimensional physical fabric. Logical 1x4x4 (16 NPUs)
        // on a physical 1x16x1 ring: logical vertical neighbors are 4
        // physical hops apart, so the overlay must be slower than running
        // the same logical topology natively.
        let logical = LogicalTopology::torus(Torus3d::new(1, 4, 4, 1, 2, 2).unwrap());
        let physical = LogicalTopology::torus(Torus3d::new(1, 16, 1, 1, 2, 1).unwrap());
        let overlaid = run_overlay(logical.clone(), &physical, Mapping::identity(16));

        let mut native = SystemSim::new(
            logical,
            SystemConfig::default(),
            &NetworkConfig::default(),
            BackendKind::Analytical,
        );
        let id = native
            .issue_collective(CollectiveRequest::all_reduce(1 << 20))
            .unwrap();
        native.run_until_idle().unwrap();
        let native_t = native.report(id).unwrap().finished_at;
        assert!(
            overlaid > native_t,
            "overlay on a thinner fabric must be slower: {overlaid} vs {native_t}"
        );
    }

    #[test]
    fn permuted_overlay_on_isomorphic_fabric_completes() {
        // Same shape, shuffled labels: still completes, same number of
        // NPUs notified.
        let logical = LogicalTopology::torus(Torus3d::new(1, 8, 1, 1, 2, 1).unwrap());
        let physical = logical.clone();
        let perm = Mapping::from_permutation(vec![3, 1, 4, 0, 5, 7, 2, 6]).unwrap();
        let t = run_overlay(logical, &physical, perm);
        assert!(t > Time::ZERO);
    }

    #[test]
    fn identity_overlay_close_to_native_on_same_fabric() {
        // Identity mapping on the same fabric routes neighbor sends over
        // single physical hops; results should be in the same ballpark as
        // native execution (path selection may differ across parallel
        // rings, so allow slack).
        let topo = || LogicalTopology::torus(Torus3d::new(1, 8, 1, 1, 2, 1).unwrap());
        let overlaid = run_overlay(topo(), &topo(), Mapping::identity(8));
        let mut native = SystemSim::new(
            topo(),
            SystemConfig::default(),
            &NetworkConfig::default(),
            BackendKind::Analytical,
        );
        let id = native
            .issue_collective(CollectiveRequest::all_reduce(1 << 20))
            .unwrap();
        native.run_until_idle().unwrap();
        let native_t = native.report(id).unwrap().finished_at.cycles() as f64;
        let ratio = overlaid.cycles() as f64 / native_t;
        assert!(
            (0.5..2.0).contains(&ratio),
            "identity overlay should be near-native: ratio {ratio}"
        );
    }

    #[test]
    fn mismatched_overlay_rejected() {
        let logical = LogicalTopology::torus(Torus3d::new(1, 8, 1, 1, 2, 1).unwrap());
        let physical = LogicalTopology::torus(Torus3d::new(1, 4, 1, 1, 2, 1).unwrap());
        assert!(matches!(
            SystemSim::with_overlay(
                logical,
                &physical,
                Mapping::identity(8),
                SystemConfig::default(),
                &NetworkConfig::default(),
                BackendKind::Analytical,
            ),
            Err(SystemError::InvalidOverlay { .. })
        ));
    }
}

mod hd_behavior {
    use super::*;
    use astra_collectives::IntraAlgo;
    use astra_topology::HierAllToAll;

    fn run_with(topo: LogicalTopology, intra: IntraAlgo, bytes: u64) -> (Time, u64) {
        let cfg = SystemConfig {
            intra_algo: intra,
            ..SystemConfig::default()
        };
        let mut sim = SystemSim::new(
            topo,
            cfg,
            &NetworkConfig::default(),
            BackendKind::Analytical,
        );
        let id = sim.issue_collective(CollectiveRequest::all_reduce(bytes)).unwrap();
        sim.run_until_idle().unwrap();
        (
            sim.report(id).unwrap().finished_at,
            sim.net_stats().payload_bytes,
        )
    }

    #[test]
    fn hd_all_reduce_completes_on_switch_fabric() {
        let topo = LogicalTopology::alltoall(HierAllToAll::new(1, 8, 1, 7).unwrap());
        let (t, payload) = run_with(topo.clone(), IntraAlgo::HalvingDoubling, 1 << 20);
        assert!(t > Time::ZERO);
        // Same bandwidth-optimal volume as direct: 2(n-1)/n per node.
        let (_, direct_payload) = run_with(topo, IntraAlgo::Auto, 1 << 20);
        let ratio = payload as f64 / direct_payload as f64;
        assert!(
            (0.95..1.05).contains(&ratio),
            "HD and direct move the same bytes: {payload} vs {direct_payload}"
        );
    }

    #[test]
    fn hd_all_reduce_completes_on_torus() {
        let topo = LogicalTopology::torus(Torus3d::new(2, 4, 4, 2, 2, 2).unwrap());
        let (t, _) = run_with(topo, IntraAlgo::HalvingDoubling, 1 << 20);
        assert!(t > Time::ZERO);
    }

    #[test]
    fn hd_falls_back_on_non_power_of_two() {
        // 1x6 alltoall: 6 is not a power of two -> planner falls back to
        // direct; run must still complete.
        let topo = LogicalTopology::alltoall(HierAllToAll::new(1, 6, 1, 5).unwrap());
        let (t, _) = run_with(topo, IntraAlgo::HalvingDoubling, 1 << 18);
        assert!(t > Time::ZERO);
    }

    #[test]
    fn hd_is_deterministic() {
        let topo = || LogicalTopology::alltoall(HierAllToAll::new(2, 8, 1, 3).unwrap());
        assert_eq!(
            run_with(topo(), IntraAlgo::HalvingDoubling, 123_456),
            run_with(topo(), IntraAlgo::HalvingDoubling, 123_456)
        );
    }
}
