//! The data-plane shadow oracle: symbolic payloads through the plan.
//!
//! The timing simulation moves *bytes*; nothing in it can notice a plan
//! that moves the wrong bytes on schedule. This oracle re-executes the
//! exact plan the system layer runs with **symbolic** payloads, through
//! the one symbolic executor in [`astra_collectives::semantics`]: each
//! piece of each node's set starts as an atom identifying its contributor,
//! reduction phases fold contributor sets together, and gather/scatter
//! phases move them. At the end the collective's postcondition is checked
//! on every NPU:
//!
//! * **all-reduce** — every NPU holds every piece, each reduced over the
//!   full participant slice (the "full sum" everywhere);
//! * **all-gather** — every NPU holds all shards, each attributed to
//!   exactly its owner;
//! * **reduce-scatter** — every NPU holds exactly its own shard, fully
//!   reduced;
//! * **all-to-all** — every NPU ends with precisely the items addressed
//!   to it, one from each source.
//!
//! The symbolic check runs once per plan: every chunk executes the same
//! phase list, so the payload outcome cannot differ between chunks.
//! [`Mutation`]s inject deliberate faults (a skipped phase, a swapped
//! reduction op, a dropped contribution) to prove the oracle catches them,
//! and [`shadow_conformance`] ties the symbolic result to the timed
//! simulation by checking that every (NPU, chunk) pair of the recorded
//! trace follows the same plan.

use crate::differential::{run_traced, TracedRun};
use astra_collectives::{plan_with_intra, semantics, CollectivePlan, PhaseOp, PhaseSpec};
use astra_core::SimConfig;
use astra_system::CollectiveRequest;
use astra_topology::LogicalTopology;
use std::collections::BTreeMap;

/// A deliberate fault injected into the symbolic execution, used to
/// demonstrate that the oracle bites (a mutated plan must fail to verify).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// Drop the phase at this index entirely.
    SkipPhase(usize),
    /// Replace the op of the phase at this index (e.g. turn a
    /// reduce-scatter into an all-gather — a "wrong reduction op").
    SwapOp {
        /// Index of the phase to mutate.
        phase: usize,
        /// The replacement op.
        op: PhaseOp,
    },
    /// During the phase at this index, lose `node`'s contribution to its
    /// group's reduction (models a corrupted partial sum).
    DropContribution {
        /// Index of the phase to mutate.
        phase: usize,
        /// The node whose contribution is dropped.
        node: usize,
    },
}

/// Symbolically executes `plan` on `topo` with `mutations` applied and
/// checks the collective's postcondition on every NPU, through the one
/// symbolic executor, [`astra_collectives::semantics::verify_phases`].
///
/// The executor has no chunk-dependent input, so one run covers every
/// chunk of the collective. With no mutations this must pass for every
/// plan the planner emits; with any mutation it must fail (that is what the
/// demonstration tests assert).
///
/// # Errors
///
/// A human-readable description of the first violated invariant, naming
/// the phase or the postcondition that failed.
pub fn shadow_verify(
    topo: &LogicalTopology,
    plan: &CollectivePlan,
    mutations: &[Mutation],
) -> Result<(), String> {
    // Apply the structural mutations, keeping original phase indices so
    // DropContribution can still target by index.
    let mut phases: Vec<(usize, PhaseSpec)> = plan.phases().iter().copied().enumerate().collect();
    for m in mutations {
        match *m {
            Mutation::SkipPhase(i) => phases.retain(|&(idx, _)| idx != i),
            Mutation::SwapOp { phase, op } => {
                for (idx, p) in &mut phases {
                    if *idx == phase {
                        p.op = op;
                    }
                }
            }
            Mutation::DropContribution { .. } => {}
        }
    }
    let dropped = |phase: usize, node: usize| {
        mutations.iter().any(
            |m| matches!(*m, Mutation::DropContribution { phase: p, node: x } if p == phase && x == node),
        )
    };
    semantics::verify_phases(topo, plan, &phases, dropped)
}

/// The end-to-end shadow oracle for one configuration: verifies the data
/// plane of the exact plan the system layer will execute, runs the timed
/// simulation ([`run_traced`], which ends in a clean quiescence audit), and
/// checks the recorded trace conforms to that plan: every chunk of every
/// NPU traverses every phase, in order.
///
/// # Errors
///
/// A human-readable description of the first violation.
pub fn shadow_conformance(cfg: &SimConfig, req: &CollectiveRequest) -> Result<(), String> {
    let plan = verified_plan(cfg, req)?;
    let run = run_traced(cfg, req).map_err(|e| e.to_string())?;
    check_trace(&run, &plan)
}

/// The plan the system layer will execute for `req` on `cfg`, after
/// [`shadow_verify`] has checked its data plane.
///
/// # Errors
///
/// The planner's error, or the first violated postcondition.
pub(crate) fn verified_plan(
    cfg: &SimConfig,
    req: &CollectiveRequest,
) -> Result<CollectivePlan, String> {
    let topo = cfg.topology.build().map_err(|e| e.to_string())?;
    let algorithm = req.algorithm.unwrap_or(cfg.system.algorithm);
    let plan = plan_with_intra(
        &topo,
        req.op,
        algorithm,
        req.dims.as_deref(),
        cfg.system.intra_algo,
    )
    .map_err(|e| e.to_string())?;
    shadow_verify(&topo, &plan, &[])?;
    Ok(plan)
}

/// Checks that `run` executed `plan` faithfully: it ran the plan's phases,
/// and every (NPU, chunk) pair traversed each phase exactly once, in
/// order, with well-formed, non-overlapping spans.
///
/// # Errors
///
/// A human-readable description of the first violation.
pub(crate) fn check_trace(run: &TracedRun, plan: &CollectivePlan) -> Result<(), String> {
    let phases = run.report.coll.phases;
    let chunks = run.report.coll.chunks as usize;
    if phases != plan.phases().len() {
        return Err(format!(
            "system executed {} phases, plan has {}",
            phases,
            plan.phases().len()
        ));
    }

    // (phase, start cycles, end cycles) per traced span, keyed by (npu, chunk).
    type SpanSeq = Vec<(u8, u64, u64)>;
    let mut by_key: BTreeMap<(u32, u32), SpanSeq> = BTreeMap::new();
    for s in &run.spans {
        if s.start > s.end {
            return Err(format!(
                "npu {} chunk {} phase {}: span ends before it starts",
                s.npu, s.chunk, s.phase
            ));
        }
        by_key.entry((s.npu, s.chunk)).or_default().push((
            s.phase,
            s.start.cycles(),
            s.end.cycles(),
        ));
    }
    let n = run.npus;
    if by_key.len() != n * chunks {
        return Err(format!(
            "trace covers {} (npu, chunk) pairs, want {} ({n} npus x {chunks} chunks)",
            by_key.len(),
            n * chunks,
        ));
    }
    for ((npu, chunk), mut seq) in by_key {
        seq.sort_by_key(|&(phase, start, _)| (phase, start));
        let got: Vec<u8> = seq.iter().map(|&(p, _, _)| p).collect();
        let want: Vec<u8> = (0..phases as u8).collect();
        if got != want {
            return Err(format!(
                "npu {npu} chunk {chunk} traversed phases {got:?}, want {want:?}"
            ));
        }
        for w in seq.windows(2) {
            let (_, _, prev_end) = w[0];
            let (next_phase, next_start, _) = w[1];
            if next_start < prev_end {
                return Err(format!(
                    "npu {npu} chunk {chunk}: phase {next_phase} started at {next_start} \
                     before the previous phase ended at {prev_end}"
                ));
            }
        }
    }
    Ok(())
}
