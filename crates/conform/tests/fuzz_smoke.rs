//! Deterministic simulation fuzzing: pinned-seed sweeps through every
//! oracle, plus the shrinker and repro-bundle machinery exercised on a
//! deliberately impossible check.
//!
//! CI runs this with `CONFORM_FUZZ_SEED` / `CONFORM_FUZZ_CASES` pinned; a
//! clean local run uses the defaults below. Every generated case is fully
//! determined by `(seed, index)` — replaying a CI failure locally is
//! exactly one env var.

use astra_conform::{run_fuzz, shrink_case, CaseStrategy, ConformCase, DiffOptions, Envelope};
use astra_core::SimConfig;
use astra_system::CollectiveRequest;
use proptest::rng::TestRng;
use proptest::strategy::Strategy;

const DEFAULT_SEED: u64 = 0xA57A_51A1;
const DEFAULT_CASES: u32 = 64;

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The headline fuzz run: every generated config must satisfy the shadow
/// oracle, and every fault-free one the differential oracle too (chunk
/// multisets, message counts, latency envelope; order-strictness is off —
/// see `DiffOptions`).
#[test]
fn pinned_seed_fuzz_is_clean() {
    let seed = env_u64("CONFORM_FUZZ_SEED", DEFAULT_SEED);
    let cases = env_u64("CONFORM_FUZZ_CASES", u64::from(DEFAULT_CASES)) as u32;
    let opts = DiffOptions {
        strict_order: false,
        ..DiffOptions::default()
    };
    let outcome = run_fuzz(seed, cases, &opts);
    assert_eq!(outcome.cases_run, cases);
    assert!(
        outcome.failures.is_empty(),
        "seed {seed:#x}: {} of {} case(s) failed; repros at {:?}:\n{}",
        outcome.failures.len(),
        cases,
        outcome.repro_paths,
        outcome
            .failures
            .iter()
            .map(|f| format!("[{}] {}", f.oracle, f.failure))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// The generator is a pure function of the seed: the same seed yields the
/// same cases, different seeds diverge.
#[test]
fn case_generation_is_deterministic_in_the_seed() {
    let gen_cases = |seed: u64| -> Vec<ConformCase> {
        let mut rng = TestRng::new(seed);
        (0..16).map(|_| CaseStrategy.generate(&mut rng)).collect()
    };
    assert_eq!(gen_cases(7), gen_cases(7));
    assert_ne!(gen_cases(7), gen_cases(8));
}

/// Generated cases are always valid: the topology builds, stays within the
/// small-fabric bound, and any fault plan is a lossy-transport one.
#[test]
fn generated_cases_are_valid_and_small() {
    let mut rng = TestRng::new(0xFEED);
    for _ in 0..256 {
        let case = CaseStrategy.generate(&mut rng);
        let topo = case
            .config
            .topology
            .build()
            .expect("generated topology builds");
        let n = topo.num_npus();
        assert!((2..=16).contains(&n), "fabric size {n} out of bounds");
        assert!(case.request.bytes >= 256 && case.request.bytes <= 4096);
        if let Some(plan) = &case.config.faults {
            assert!(plan.loss.is_some());
            assert!(plan.link_faults.is_empty() && plan.stragglers.is_empty());
        }
    }
}

/// End-to-end demonstration of the failure path: an impossible latency
/// envelope makes every fault-free case "fail", the shrinker reduces each
/// to a minimal config, and a JSON repro bundle lands on disk.
#[test]
fn seeded_failure_is_shrunk_and_dumped() {
    let opts = DiffOptions {
        envelope: Envelope { lo: 3.0, hi: 4.0 },
        strict_order: false,
    };
    let outcome = run_fuzz(DEFAULT_SEED, 8, &opts);
    assert!(
        !outcome.failures.is_empty(),
        "an impossible envelope must produce failures"
    );
    for (bundle, path) in outcome.failures.iter().zip(&outcome.repro_paths) {
        assert_eq!(bundle.oracle, "differential");
        assert!(
            bundle.failure.contains("duration ratio"),
            "{}",
            bundle.failure
        );
        // Shrinking drove the case to the floor of every move ladder rung.
        assert_eq!(bundle.case.request.bytes, 1, "bytes not minimized");
        assert_eq!(
            bundle.case.config.system.set_splits, 1,
            "splits not minimized"
        );
        assert!(bundle.case.config.faults.is_none(), "faults not dropped");
        let topo = bundle
            .case
            .config
            .topology
            .build()
            .expect("shrunk topology builds");
        assert!(topo.num_npus() <= 4, "fabric not shrunk");
        // The bundle on disk replays byte-for-byte.
        let path = path.as_ref().expect("repro bundle written");
        let json = std::fs::read_to_string(path).expect("repro readable");
        let back: astra_conform::ReproBundle = serde_json::from_str(&json).expect("repro parses");
        assert_eq!(&back, bundle);
    }
}

/// The shrinker against a synthetic predicate: failure iff the fabric has
/// at least 4 NPUs — the minimum it can reach is exactly 4.
#[test]
fn shrinker_reaches_the_boundary_of_a_synthetic_predicate() {
    let case = ConformCase {
        config: SimConfig::torus(2, 4, 2),
        request: CollectiveRequest::all_reduce(4096),
    };
    let (min_case, msg) = shrink_case(case, "seed failure".into(), |c| {
        let topo = c.config.topology.build().expect("shrink candidates build");
        (topo.num_npus() >= 4).then(|| "still big".into())
    });
    assert_eq!(min_case.config.topology.build().unwrap().num_npus(), 4);
    assert_eq!(min_case.request.bytes, 1);
    assert_eq!(msg, "still big");
}
