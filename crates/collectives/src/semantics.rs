//! Functional (untimed) execution of collective plans, used to *prove* that
//! a synthesized plan delivers the collective's semantics on every node.
//!
//! The executor tracks data at shard granularity: the collective's element
//! space is divided into one **piece** per combination of plan-dimension
//! coordinates, and each node's state maps pieces to the set of nodes whose
//! contribution has been folded in. Running a plan phase-by-phase and then
//! asserting the op's postcondition catches planner mistakes (wrong phase
//! order, wrong scales, wrong dimension) that a timing simulation would
//! happily mis-time without noticing.
//!
//! # Example
//!
//! ```
//! use astra_collectives::{plan, semantics, Algorithm, CollectiveOp};
//! use astra_topology::LogicalTopology;
//!
//! let topo = LogicalTopology::torus(2, 4, 4, 2, 2, 2)?;
//! let p = plan(&topo, CollectiveOp::AllReduce, Algorithm::Enhanced, None)?;
//! semantics::verify_plan(&topo, &p).expect("enhanced all-reduce is correct");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::{CollectiveOp, CollectivePlan, PhaseOp, PhaseSpec};
use astra_topology::{Dim, LogicalTopology, NodeId};
use std::collections::{BTreeMap, BTreeSet};

/// Coordinates of a node along every dimension, indexed by [`Dim::index`]
/// (a dimension the fabric lacks reads 0).
fn coords_of(topo: &LogicalTopology, node: NodeId) -> [usize; 5] {
    // infallible: every caller iterates node over 0..topo.num_npus().
    Dim::ALL.map(|dim| topo.coord(node, dim).expect("node in range"))
}

/// Mixed-radix encoding of a node's plan-dimension coordinates.
fn piece_of(coords: &[usize; 5], dims: &[(Dim, usize)]) -> usize {
    let mut piece = 0;
    let mut stride = 1;
    for &(d, size) in dims {
        piece += coords[d.index()] * stride;
        stride *= size;
    }
    piece
}

/// The coordinate along `dim` that `piece` encodes.
fn piece_coord(piece: usize, dims: &[(Dim, usize)], dim: Dim) -> Result<usize, String> {
    let mut rest = piece;
    for &(d, size) in dims {
        if d == dim {
            return Ok(rest % size);
        }
        rest /= size;
    }
    Err(format!("phase dimension {dim} is not a plan dimension"))
}

/// Group key: all coordinates except the phase dimension (nodes matching on
/// it run one instance of the phase's ring/group together).
fn group_key(coords: &[usize; 5], dim: Dim) -> [usize; 5] {
    let mut k = *coords;
    k[dim.index()] = usize::MAX;
    k
}

/// Slice key: all coordinates outside the plan's dimensions (nodes matching
/// on it participate in one instance of the whole collective).
fn slice_key(coords: &[usize; 5], dims: &[(Dim, usize)]) -> [usize; 5] {
    let mut k = *coords;
    for &(d, _) in dims {
        k[d.index()] = usize::MAX;
    }
    k
}

fn build_groups(coords: &[[usize; 5]], dim: Dim) -> BTreeMap<[usize; 5], Vec<usize>> {
    let mut groups: BTreeMap<[usize; 5], Vec<usize>> = BTreeMap::new();
    for (i, c) in coords.iter().enumerate() {
        groups.entry(group_key(c, dim)).or_default().push(i);
    }
    groups
}

type Contribs = BTreeMap<usize, BTreeSet<usize>>; // piece -> contributor node ids

/// Runs `plan` functionally on `topo` and checks the op's postcondition on
/// every node.
///
/// # Errors
///
/// Returns a human-readable description of the first violated invariant.
pub fn verify_plan(topo: &LogicalTopology, plan: &CollectivePlan) -> Result<(), String> {
    let phases: Vec<(usize, PhaseSpec)> = plan.phases().iter().copied().enumerate().collect();
    verify_phases(topo, plan, &phases, |_, _| false)
}

/// Runs `phases` functionally on `topo` in place of `plan`'s own phase list
/// and checks `plan`'s postcondition on every node.
///
/// Each phase carries an index that error messages and `dropped` refer to
/// (its position in the original plan, so an edited list keeps its
/// labels). `dropped(phase, node)` returning `true` loses `node`'s
/// contribution during that phase: its data is not combined, gathered or
/// forwarded. [`verify_plan`] is this with the plan's own phases and a hook
/// that drops nothing; the conformance harness's mutation tests edit the
/// list and drop contributions to prove the check bites.
///
/// # Errors
///
/// Returns a human-readable description of the first violated invariant.
pub fn verify_phases(
    topo: &LogicalTopology,
    plan: &CollectivePlan,
    phases: &[(usize, PhaseSpec)],
    dropped: impl Fn(usize, usize) -> bool,
) -> Result<(), String> {
    let n = topo.num_npus();
    let coords: Vec<[usize; 5]> = (0..n).map(|i| coords_of(topo, NodeId(i))).collect();
    let dims: Vec<(Dim, usize)> = {
        let plan_dims = plan.dims();
        topo.dims()
            .into_iter()
            .filter(|s| plan_dims.contains(&s.dim))
            .map(|s| (s.dim, s.size))
            .collect()
    };
    if dims.is_empty() {
        return Err("plan has no dimensions".into());
    }
    let num_pieces: usize = dims.iter().map(|&(_, s)| s).product();

    match plan.op() {
        CollectiveOp::AllToAll => verify_a2a(phases, &coords, &dims, num_pieces, &dropped),
        op => verify_reduction_family(op, phases, &coords, &dims, num_pieces, &dropped),
    }
}

fn verify_reduction_family(
    op: CollectiveOp,
    phases: &[(usize, PhaseSpec)],
    coords: &[[usize; 5]],
    dims: &[(Dim, usize)],
    num_pieces: usize,
    dropped: &dyn Fn(usize, usize) -> bool,
) -> Result<(), String> {
    let n = coords.len();
    // Initial state.
    let mut state: Vec<Contribs> = (0..n)
        .map(|i| {
            let mut m = Contribs::new();
            match op {
                CollectiveOp::AllGather => {
                    m.insert(piece_of(&coords[i], dims), BTreeSet::from([i]));
                }
                _ => {
                    for p in 0..num_pieces {
                        m.insert(p, BTreeSet::from([i]));
                    }
                }
            }
            m
        })
        .collect();

    for &(idx, phase) in phases {
        let groups = build_groups(coords, phase.dim);
        for members in groups.values() {
            match phase.op {
                PhaseOp::ReduceScatter => {
                    let pieces: BTreeSet<usize> = members
                        .iter()
                        .flat_map(|&m| state[m].keys().copied())
                        .collect();
                    for p in pieces {
                        let mut union = BTreeSet::new();
                        for &m in members {
                            if let Some(c) = state[m].remove(&p) {
                                if !dropped(idx, m) {
                                    union.extend(c);
                                }
                            }
                        }
                        let want = piece_coord(p, dims, phase.dim)?;
                        let owner = members
                            .iter()
                            .copied()
                            .find(|&m| coords[m][phase.dim.index()] == want)
                            .ok_or_else(|| {
                                format!("phase {idx}: no group member owns piece coord {want}")
                            })?;
                        state[owner].insert(p, union);
                    }
                }
                PhaseOp::AllGather => {
                    // A gather copies shards verbatim — it cannot combine.
                    // Conflicting versions of the same piece among the group
                    // mean a reduce was required here (a wrong reduction
                    // op), and the symbolic payload makes that visible.
                    let mut gathered = Contribs::new();
                    for &m in members {
                        if dropped(idx, m) {
                            continue;
                        }
                        for (p, c) in &state[m] {
                            match gathered.get(p) {
                                None => {
                                    gathered.insert(*p, c.clone());
                                }
                                Some(seen) if seen == c => {}
                                Some(seen) => {
                                    return Err(format!(
                                        "phase {idx}: all-gather saw conflicting versions \
                                         of piece {p} ({seen:?} vs {c:?}) — gather cannot \
                                         combine partial reductions"
                                    ));
                                }
                            }
                        }
                    }
                    for &m in members {
                        state[m] = gathered.clone();
                    }
                }
                PhaseOp::AllReduce => {
                    let first: BTreeSet<usize> = state[members[0]].keys().copied().collect();
                    for &m in members[1..].iter() {
                        let set: BTreeSet<usize> = state[m].keys().copied().collect();
                        if set != first {
                            return Err(format!(
                                "phase {idx}: all-reduce group members hold different piece \
                                 sets (planner bug)"
                            ));
                        }
                    }
                    for p in first {
                        let mut union = BTreeSet::new();
                        for &m in members {
                            if !dropped(idx, m) {
                                union.extend(state[m][&p].iter().copied());
                            }
                        }
                        for &m in members {
                            state[m].insert(p, union.clone());
                        }
                    }
                }
                PhaseOp::AllToAll => {
                    return Err(format!(
                        "phase {idx}: all-to-all phase inside a reduction collective"
                    ));
                }
            }
        }
    }

    // Postconditions.
    for i in 0..n {
        let slice: BTreeSet<usize> = (0..n)
            .filter(|&j| slice_key(&coords[j], dims) == slice_key(&coords[i], dims))
            .collect();
        match op {
            CollectiveOp::AllReduce => {
                if state[i].len() != num_pieces {
                    return Err(format!(
                        "all-reduce: node {i} holds {} of {num_pieces} pieces",
                        state[i].len()
                    ));
                }
                for (p, c) in &state[i] {
                    if *c != slice {
                        return Err(format!(
                            "all-reduce: node {i} piece {p} reduced over {c:?}, want {slice:?}"
                        ));
                    }
                }
            }
            CollectiveOp::ReduceScatter => {
                let own = piece_of(&coords[i], dims);
                if state[i].len() != 1 || !state[i].contains_key(&own) {
                    return Err(format!(
                        "reduce-scatter: node {i} holds pieces {:?}, want only {own}",
                        state[i].keys().collect::<Vec<_>>()
                    ));
                }
                if state[i][&own] != slice {
                    return Err(format!("reduce-scatter: node {i} shard not fully reduced"));
                }
            }
            CollectiveOp::AllGather => {
                if state[i].len() != num_pieces {
                    return Err(format!(
                        "all-gather: node {i} holds {} of {num_pieces} pieces",
                        state[i].len()
                    ));
                }
                for (p, c) in &state[i] {
                    let Some(owner) = slice
                        .iter()
                        .copied()
                        .find(|&j| piece_of(&coords[j], dims) == *p)
                    else {
                        return Err(format!(
                            "all-gather: node {i} holds piece {p}, which no node \
                             in its slice owns"
                        ));
                    };
                    if *c != BTreeSet::from([owner]) {
                        return Err(format!(
                            "all-gather: node {i} piece {p} has contributors {c:?}, want \
                             {{{owner}}}"
                        ));
                    }
                }
            }
            CollectiveOp::AllToAll => unreachable!("handled separately"),
        }
    }
    Ok(())
}

fn verify_a2a(
    phases: &[(usize, PhaseSpec)],
    coords: &[[usize; 5]],
    dims: &[(Dim, usize)],
    num_pieces: usize,
    dropped: &dyn Fn(usize, usize) -> bool,
) -> Result<(), String> {
    let n = coords.len();
    // Items are (source piece, destination piece); each node starts with the
    // items sourced at itself, destined everywhere in its slice.
    let mut state: Vec<BTreeSet<(usize, usize)>> = (0..n)
        .map(|i| {
            let s = piece_of(&coords[i], dims);
            (0..num_pieces).map(|d| (s, d)).collect()
        })
        .collect();

    for &(idx, phase) in phases {
        if phase.op != PhaseOp::AllToAll {
            return Err(format!("phase {idx}: non-A2A phase in an all-to-all plan"));
        }
        let groups = build_groups(coords, phase.dim);
        for members in groups.values() {
            let mut moved: Vec<(usize, (usize, usize))> = Vec::new();
            let mut err: Option<String> = None;
            for &m in members {
                state[m].retain(|&(s, d)| {
                    let want = match piece_coord(d, dims, phase.dim) {
                        Ok(w) => w,
                        Err(e) => {
                            err.get_or_insert(e);
                            return true;
                        }
                    };
                    let Some(target) = members
                        .iter()
                        .copied()
                        .find(|&y| coords[y][phase.dim.index()] == want)
                    else {
                        err.get_or_insert(format!(
                            "phase {idx}: piece {d} routes along {} to a coordinate no \
                             group member occupies",
                            phase.dim
                        ));
                        return true;
                    };
                    if target == m {
                        true
                    } else {
                        if !dropped(idx, m) {
                            moved.push((target, (s, d)));
                        }
                        false
                    }
                });
            }
            if let Some(e) = err {
                return Err(e);
            }
            for (target, item) in moved {
                state[target].insert(item);
            }
        }
    }

    for i in 0..n {
        let me = piece_of(&coords[i], dims);
        let want: BTreeSet<(usize, usize)> = (0..num_pieces).map(|s| (s, me)).collect();
        if state[i] != want {
            return Err(format!(
                "all-to-all: node {i} ended with {} items, {} expected (or wrong items)",
                state[i].len(),
                want.len()
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{plan, Algorithm};
    use astra_topology::LogicalTopology;

    fn all_plans(topo: &LogicalTopology) -> Vec<CollectivePlan> {
        let mut out = Vec::new();
        for op in [
            CollectiveOp::ReduceScatter,
            CollectiveOp::AllGather,
            CollectiveOp::AllReduce,
            CollectiveOp::AllToAll,
        ] {
            for algo in [Algorithm::Baseline, Algorithm::Enhanced] {
                out.push(plan(topo, op, algo, None).unwrap());
            }
        }
        out
    }

    #[test]
    fn every_plan_correct_on_2x2x3_torus() {
        let topo = LogicalTopology::torus(2, 2, 3, 1, 1, 1).unwrap();
        for p in all_plans(&topo) {
            verify_plan(&topo, &p).unwrap_or_else(|e| panic!("{p}: {e}"));
        }
    }

    #[test]
    fn every_plan_correct_on_4x4x4_torus() {
        let topo = LogicalTopology::torus(4, 4, 4, 2, 2, 2).unwrap();
        for p in all_plans(&topo) {
            verify_plan(&topo, &p).unwrap_or_else(|e| panic!("{p}: {e}"));
        }
    }

    #[test]
    fn every_plan_correct_on_hier_alltoall() {
        let topo = LogicalTopology::alltoall(4, 4, 2, 2).unwrap();
        for p in all_plans(&topo) {
            verify_plan(&topo, &p).unwrap_or_else(|e| panic!("{p}: {e}"));
        }
    }

    #[test]
    fn dim_subset_plans_correct() {
        // Hybrid-parallel weight gradients: local+horizontal only.
        let topo = LogicalTopology::torus(2, 2, 2, 1, 1, 1).unwrap();
        for algo in [Algorithm::Baseline, Algorithm::Enhanced] {
            let p = plan(
                &topo,
                CollectiveOp::AllReduce,
                algo,
                Some(&[Dim::Local, Dim::Horizontal]),
            )
            .unwrap();
            verify_plan(&topo, &p).unwrap_or_else(|e| panic!("{p}: {e}"));
        }
        // Model-parallel activations: vertical only.
        let p = plan(
            &topo,
            CollectiveOp::AllGather,
            Algorithm::Baseline,
            Some(&[Dim::Vertical]),
        )
        .unwrap();
        verify_plan(&topo, &p).unwrap();
    }

    #[test]
    fn a_broken_plan_is_caught() {
        // The baseline all-reduce with its last phase missing, or with one
        // contribution lost, must fail the postcondition.
        let topo = LogicalTopology::torus(2, 2, 2, 1, 1, 1).unwrap();
        let good = plan(&topo, CollectiveOp::AllReduce, Algorithm::Baseline, None).unwrap();
        let phases: Vec<(usize, PhaseSpec)> = good.phases().iter().copied().enumerate().collect();
        verify_phases(&topo, &good, &phases, |_, _| false).unwrap();
        let truncated = &phases[..phases.len() - 1];
        let err = verify_phases(&topo, &good, truncated, |_, _| false).unwrap_err();
        assert!(err.starts_with("all-reduce:"), "{err}");
        let err = verify_phases(&topo, &good, &phases, |phase, node| (phase, node) == (0, 1))
            .unwrap_err();
        assert!(err.contains("reduced over"), "{err}");
    }
}
