//! The seeded configuration fuzzer: valid `SimConfig`s from a deterministic
//! generator, driven through every oracle, with greedy shrinking to a
//! minimal failing case.
//!
//! The vendored `proptest` stand-in has no shrinker, so minimization lives
//! here: a fixed ladder of simplification moves (halve the message, drop
//! the faults, shrink the fabric, reset policies to defaults) applied
//! greedily until no move keeps the case failing. Because the whole
//! simulator is deterministic, `(seed, case index)` fully identifies every
//! generated case.

use crate::differential::{compare, on_backend, run_traced, DiffOptions};
use crate::repro::{dump_repro, ReproBundle};
use crate::shadow::{check_trace, verified_plan};
use astra_collectives::{Algorithm, CollectiveOp, IntraAlgo};
use astra_core::{CoreError, SimConfig, TopologyConfig};
use astra_des::Time;
use astra_network::{FaultPlan, LossSpec};
use astra_system::{BackendKind, CollectiveRequest, SchedulingPolicy, SystemError};
use proptest::rng::TestRng;
use proptest::strategy::Strategy;
use serde::{Deserialize, Serialize};
use std::path::PathBuf;

/// One fuzz case: a full simulator configuration plus the collective to
/// run on it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConformCase {
    /// The simulator configuration.
    pub config: SimConfig,
    /// The collective request.
    pub request: CollectiveRequest,
}

/// Generates valid small [`ConformCase`]s: topology × collective ×
/// scheduling × fault plan, every fabric ≤ 16 NPUs so the flit-level
/// backend stays fast.
#[derive(Debug, Clone, Copy, Default)]
pub struct CaseStrategy;

const TORI: &[(usize, usize, usize)] = &[
    (1, 2, 1),
    (1, 4, 1),
    (2, 2, 1),
    (1, 8, 1),
    (2, 2, 2),
    (2, 4, 1),
    (4, 2, 1),
    (2, 4, 2),
    (1, 4, 2),
];
const ALLTOALLS: &[(usize, usize, usize)] = &[(1, 4, 3), (1, 8, 7), (2, 4, 3), (4, 4, 2)];
const PODS: &[((usize, usize, usize), usize, usize)] =
    &[((1, 2, 1), 2, 1), ((1, 4, 1), 2, 1), ((2, 2, 1), 2, 2)];
const BYTES: &[u64] = &[256, 512, 1024, 2048, 4096];
const OPS: &[CollectiveOp] = &[
    CollectiveOp::AllReduce,
    CollectiveOp::ReduceScatter,
    CollectiveOp::AllGather,
    CollectiveOp::AllToAll,
];

fn pick<T: Copy>(rng: &mut TestRng, items: &[T]) -> T {
    items[rng.below(items.len() as u64) as usize]
}

impl Strategy for CaseStrategy {
    type Value = ConformCase;

    fn generate(&self, rng: &mut TestRng) -> ConformCase {
        let mut config = match rng.below(3) {
            0 => {
                let (l, h, v) = pick(rng, TORI);
                SimConfig::torus(l, h, v)
            }
            1 => {
                let (l, p, s) = pick(rng, ALLTOALLS);
                SimConfig::alltoall(l, p, s)
            }
            _ => {
                let ((l, h, v), pods, switches) = pick(rng, PODS);
                SimConfig::torus(l, h, v).pods(pods, switches)
            }
        };
        config.backend = BackendKind::Analytical;
        config.system.algorithm = pick(rng, &[Algorithm::Baseline, Algorithm::Enhanced]);
        config.system.intra_algo = pick(rng, &[IntraAlgo::Auto, IntraAlgo::HalvingDoubling]);
        config.system.scheduling = pick(
            rng,
            &[
                SchedulingPolicy::Lifo,
                SchedulingPolicy::Fifo,
                SchedulingPolicy::Priority,
            ],
        );
        config.system.set_splits = pick(rng, &[1, 2, 4]);
        // A quarter of the cases run under a lossy-transport fault plan
        // (inert off the scale-out dimension; exercised on pods fabrics).
        if rng.below(4) == 0 {
            config.faults = Some(FaultPlan {
                seed: rng.next_u64(),
                loss: Some(LossSpec {
                    drop_rate: pick(rng, &[0.1, 0.5]),
                    timeout: Time::from_cycles(500),
                    max_retries: 3 + rng.below(4) as u32,
                }),
                ..FaultPlan::default()
            });
        }
        let request = CollectiveRequest {
            op: pick(rng, OPS),
            bytes: pick(rng, BYTES),
            dims: None,
            algorithm: None,
            local_update_per_kb: None,
        };
        ConformCase { config, request }
    }
}

/// Simplification moves for the greedy shrinker, most drastic first. Each
/// returns `None` when it no longer applies to the case.
fn shrink_moves(case: &ConformCase) -> Vec<ConformCase> {
    let mut out = Vec::new();
    let mut push = |f: &dyn Fn(&mut ConformCase)| {
        let mut c = case.clone();
        f(&mut c);
        if &c != case {
            out.push(c);
        }
    };
    // Drop the fault plan.
    push(&|c| c.config.faults = None);
    // Halve the message.
    push(&|c| c.request.bytes = (c.request.bytes / 2).max(1));
    // Fewer chunks.
    push(&|c| c.config.system.set_splits = (c.config.system.set_splits / 2).max(1));
    // Reset the policies to defaults.
    push(&|c| c.config.system.scheduling = SchedulingPolicy::Lifo);
    push(&|c| c.config.system.algorithm = Algorithm::Baseline);
    push(&|c| c.config.system.intra_algo = IntraAlgo::Auto);
    // Shrink the fabric: pods collapse to their scale-up torus; torus and
    // alltoall dimensions step down toward the smallest active fabric.
    push(&|c| {
        if let TopologyConfig::Pods { pod, .. } = &c.config.topology {
            c.config.topology = (**pod).clone();
        }
    });
    for dim in 0..3 {
        push(&|c| {
            if let TopologyConfig::Torus {
                local,
                horizontal,
                vertical,
                ..
            } = &mut c.config.topology
            {
                let dims = [local, horizontal, vertical];
                let d = dims.into_iter().nth(dim).unwrap();
                if *d > 1 {
                    *d = if *d > 2 { *d / 2 } else { 1 };
                }
            }
        });
    }
    push(&|c| {
        if let TopologyConfig::AllToAll {
            packages, switches, ..
        } = &mut c.config.topology
        {
            if *packages > 2 {
                *packages /= 2;
                *switches = (*switches).min(*packages - 1).max(1);
            }
        }
    });
    push(&|c| {
        if let TopologyConfig::AllToAll { local, .. } = &mut c.config.topology {
            if *local > 1 {
                *local /= 2;
            }
        }
    });
    // Degenerate fabrics (a single NPU, or no active dimension) are
    // rejected by the simulator, which the shrinker must not mistake for
    // the original failure — filter to still-valid configs.
    out.retain(|c| c.config.topology.build().is_ok_and(|t| t.num_npus() >= 2));
    out
}

/// Greedily shrinks `case` while `failing` keeps returning a failure
/// message for it. Returns the minimal case and its failure message.
///
/// Deterministic and bounded: at most 200 adoption steps, each trying the
/// fixed move ladder in order and adopting the first still-failing
/// simplification.
pub fn shrink_case<F>(
    case: ConformCase,
    original_failure: String,
    failing: F,
) -> (ConformCase, String)
where
    F: Fn(&ConformCase) -> Option<String>,
{
    let mut best = case;
    let mut message = original_failure;
    for _ in 0..200 {
        let mut progressed = false;
        for candidate in shrink_moves(&best) {
            if let Some(msg) = failing(&candidate) {
                best = candidate;
                message = msg;
                progressed = true;
                break;
            }
        }
        if !progressed {
            break;
        }
    }
    (best, message)
}

/// Outcome of a fuzz run.
#[derive(Debug)]
pub struct FuzzOutcome {
    /// The seed the run used.
    pub seed: u64,
    /// Cases generated and executed.
    pub cases_run: u32,
    /// Minimized failing bundles (empty on a clean run).
    pub failures: Vec<ReproBundle>,
    /// Where each bundle was dumped (parallel to `failures`; `None` when
    /// the dump itself failed).
    pub repro_paths: Vec<Option<PathBuf>>,
}

/// Whether `e` is *correct* behavior under an installed fault plan (the
/// typed giving-up errors), not a conformance failure.
fn gives_up_under_faults(e: &CoreError) -> bool {
    matches!(
        e,
        CoreError::System(SystemError::RetriesExhausted { .. } | SystemError::Unreachable { .. })
    )
}

/// Runs one case through every applicable oracle, simulating each backend
/// at most once. Returns the failure message, tagged with the oracle that
/// produced it, or `None`.
fn check_case(case: &ConformCase, opts: &DiffOptions) -> Option<(String, String)> {
    let has_faults = case.config.faults.as_ref().is_some_and(|p| !p.is_empty());
    let run = |backend| run_traced(&on_backend(&case.config, backend), &case.request);
    let tag = |oracle: &str, msg: String| Some((oracle.to_owned(), msg));
    // Shadow oracle: data-plane semantics + trace conformance, on the
    // analytical run (collectives that correctly give up under the fault
    // plan are vacuous passes).
    let plan = match verified_plan(&case.config, &case.request) {
        Ok(plan) => plan,
        Err(e) => return tag("shadow", e),
    };
    let analytical = match run(BackendKind::Analytical) {
        Ok(a) => a,
        Err(e) if has_faults && gives_up_under_faults(&e) => return None,
        Err(e) => return tag("shadow", e.to_string()),
    };
    if let Err(e) = check_trace(&analytical, &plan) {
        return tag("shadow", e);
    }
    // Differential oracle: fault-free configs only (fault windows are
    // wall-clock-relative, so the two time scales legitimately diverge).
    if has_faults {
        return None;
    }
    let divergence = match run(BackendKind::Garnet) {
        Ok(garnet) => compare(&analytical, &garnet, opts).err()?.to_string(),
        Err(e) => e.to_string(),
    };
    tag("differential", divergence)
}

/// Runs `cases` generated cases from `seed` through the oracles, shrinking
/// and dumping a repro bundle for every failure.
///
/// Callers wanting the empirically sound fuzzing strictness should pass
/// `DiffOptions { strict_order: false, ..Default::default() }` — generated
/// configs reach congestion levels where exact completion order is not a
/// valid cross-backend invariant (see [`DiffOptions`]).
///
/// The run never panics on a conformance failure — callers (the fuzz tests
/// and CI) assert on [`FuzzOutcome::failures`] so every failing case in a
/// batch is reported, not just the first.
pub fn run_fuzz(seed: u64, cases: u32, opts: &DiffOptions) -> FuzzOutcome {
    let mut rng = TestRng::new(seed);
    let strategy = CaseStrategy;
    let mut outcome = FuzzOutcome {
        seed,
        cases_run: 0,
        failures: Vec::new(),
        repro_paths: Vec::new(),
    };
    for _ in 0..cases {
        let case = strategy.generate(&mut rng);
        outcome.cases_run += 1;
        if let Some((oracle, failure)) = check_case(&case, opts) {
            let wanted = oracle.clone();
            let (min_case, min_failure) = shrink_case(case, failure, |c| {
                check_case(c, opts)
                    .filter(|(o, _)| *o == wanted)
                    .map(|(_, msg)| msg)
            });
            let bundle = ReproBundle {
                seed: Some(seed),
                oracle,
                case: min_case,
                failure: min_failure,
            };
            outcome.repro_paths.push(dump_repro(&bundle).ok());
            outcome.failures.push(bundle);
        }
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A lossy case whose scale-out messages exhaust their retry budget
    /// gives up with the typed error, and the fuzzer counts that as a pass.
    #[test]
    fn exhausted_retry_budget_is_not_a_failure() {
        let mut config = SimConfig::torus(1, 2, 1).pods(2, 1);
        let loss = LossSpec {
            drop_rate: 0.9,
            timeout: Time::from_cycles(500),
            max_retries: 0,
        };
        config.faults = Some(FaultPlan {
            seed: 1,
            loss: Some(loss),
            ..FaultPlan::default()
        });
        let case = ConformCase {
            config,
            request: CollectiveRequest::all_reduce(2048),
        };
        let err = run_traced(&case.config, &case.request).expect_err("no retries at 90% loss");
        assert!(gives_up_under_faults(&err), "{err}");
        assert_eq!(check_case(&case, &DiffOptions::default()), None);
    }
}
