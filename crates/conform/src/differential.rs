//! The differential oracle: one configuration, two network backends.
//!
//! The analytical backend abstracts flits away entirely, yet the system
//! layer above it is identical — so for any fault-free configuration the
//! two backends must agree on everything the system layer decides
//! (scheduling, chunking, message counts, per-NPU completion order) and
//! may only disagree on *timing*, within a bounded envelope. This module
//! runs the same [`SimConfig`] through both backends and checks exactly
//! that.

use astra_core::{CollectiveRunReport, CoreError, SimConfig, Simulator};
use astra_system::{BackendKind, CollectiveRequest, PhaseSpan};
use serde::{Deserialize, Serialize};
use std::fmt;

/// One traced collective run: the run's report, its phase spans and its
/// event count. Every oracle in this crate reads a run through this type;
/// [`run_traced`] is the only code that produces one.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TracedRun {
    /// The collective's report with the run's system and network stats.
    pub report: CollectiveRunReport,
    /// The run's chunk-phase spans (all of its one collective), in
    /// recording order.
    pub spans: Vec<PhaseSpan>,
    /// NPUs in the fabric the run simulated.
    pub npus: usize,
    /// Discrete events processed (not compared — the backends legitimately
    /// differ by orders of magnitude — but kept for repro context).
    pub events: u64,
}

impl TracedRun {
    /// Per-NPU chunk completion order: element `i` lists the chunk indices
    /// of NPU `i`'s final-phase completions, in completion order.
    pub fn completion_order(&self) -> Vec<Vec<u32>> {
        let mut order = vec![Vec::new(); self.npus];
        let last_phase = self.report.coll.phases.checked_sub(1);
        for span in &self.spans {
            if Some(usize::from(span.phase)) == last_phase {
                order[span.npu as usize].push(span.chunk);
            }
        }
        order
    }
}

/// Accepted band for the analytical-to-Garnet duration ratio.
///
/// The analytical model folds header flits into a link-efficiency factor
/// and has no credit stalls, so it is systematically optimistic on
/// congested fabrics and the ratio is well below 1 for multi-hop traffic;
/// the default band is deliberately wide and tightened by the matrix tests
/// where the topology is known.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Envelope {
    /// Minimum accepted `analytical / garnet` duration ratio.
    pub lo: f64,
    /// Maximum accepted ratio.
    pub hi: f64,
}

impl Default for Envelope {
    fn default() -> Self {
        Envelope { lo: 0.05, hi: 1.5 }
    }
}

/// What the differential oracle demands of a config pair.
///
/// Chunk-multiset equality per NPU (no lost or duplicated chunks) and the
/// latency envelope are always enforced. Exact completion *order* holds
/// empirically only away from heavy congestion — with many chunks in
/// flight, flit-level arbitration resolves simultaneous completions
/// differently than the analytical model's FIFO links — so it is an
/// opt-in strictness used by the pinned matrix, not the fuzzer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DiffOptions {
    /// Accepted analytical-to-Garnet duration ratio band.
    pub envelope: Envelope,
    /// Require identical per-NPU chunk completion order, not just the same
    /// chunk multiset.
    pub strict_order: bool,
}

impl Default for DiffOptions {
    fn default() -> Self {
        DiffOptions {
            envelope: Envelope::default(),
            strict_order: true,
        }
    }
}

/// A structural disagreement between the two backends.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Divergence {
    /// An NPU completed a different multiset of chunks (one was lost or
    /// duplicated by a backend).
    ChunkSet {
        /// The NPU that diverged.
        npu: usize,
        /// Sorted chunk completions under the analytical backend.
        analytical: Vec<u32>,
        /// Sorted chunk completions under the Garnet backend.
        garnet: Vec<u32>,
    },
    /// An NPU completed its chunks in a different order.
    CompletionOrder {
        /// The NPU that diverged.
        npu: usize,
        /// Chunk order under the analytical backend.
        analytical: Vec<u32>,
        /// Chunk order under the Garnet backend.
        garnet: Vec<u32>,
    },
    /// The system layer delivered a different number of messages.
    MessageCount {
        /// Count under the analytical backend.
        analytical: u64,
        /// Count under the Garnet backend.
        garnet: u64,
    },
    /// The backends carried different payload totals.
    PayloadBytes {
        /// Bytes under the analytical backend.
        analytical: u64,
        /// Bytes under the Garnet backend.
        garnet: u64,
    },
    /// The duration ratio fell outside the envelope.
    LatencyEnvelope {
        /// Observed `analytical / garnet` ratio.
        ratio: f64,
        /// The envelope it violated.
        envelope: Envelope,
        /// Analytical duration (cycles).
        analytical: u64,
        /// Garnet duration (cycles).
        garnet: u64,
    },
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Divergence::ChunkSet {
                npu,
                analytical,
                garnet,
            } => write!(
                f,
                "npu {npu} chunk completion multiset diverged: analytical {analytical:?} \
                 vs garnet {garnet:?}"
            ),
            Divergence::CompletionOrder {
                npu,
                analytical,
                garnet,
            } => write!(
                f,
                "npu {npu} chunk completion order diverged: analytical {analytical:?} \
                 vs garnet {garnet:?}"
            ),
            Divergence::MessageCount { analytical, garnet } => write!(
                f,
                "message count diverged: analytical {analytical} vs garnet {garnet}"
            ),
            Divergence::PayloadBytes { analytical, garnet } => write!(
                f,
                "payload bytes diverged: analytical {analytical} vs garnet {garnet}"
            ),
            Divergence::LatencyEnvelope {
                ratio,
                envelope,
                analytical,
                garnet,
            } => write!(
                f,
                "duration ratio {ratio:.4} outside [{}, {}] (analytical {analytical} \
                 vs garnet {garnet} cycles)",
                envelope.lo, envelope.hi
            ),
        }
    }
}

/// Why a differential check did not pass.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum DiffError {
    /// A run failed outright (bad config, drained simulation, failed
    /// quiescence audit) before any comparison happened.
    Run(String),
    /// Both runs completed but disagree.
    Divergence(Box<Divergence>),
}

impl fmt::Display for DiffError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiffError::Run(msg) => write!(f, "run failed: {msg}"),
            DiffError::Divergence(d) => write!(f, "backends diverged: {d}"),
        }
    }
}

impl std::error::Error for DiffError {}

/// Runs `req` on `cfg` over the backend `cfg.backend` selects, with tracing
/// enabled, and keeps the run's report and spans.
///
/// The run ends with the full-stack quiescence audit
/// ([`astra_system::SystemSim::audit_quiescent`]): leaked in-flight state
/// or a Garnet credit imbalance fails the run even when the collective
/// itself completed.
///
/// # Errors
///
/// The simulator's typed error on invalid configs, drained simulations,
/// or a failed quiescence audit.
pub fn run_traced(cfg: &SimConfig, req: &CollectiveRequest) -> Result<TracedRun, CoreError> {
    let mut sim = Simulator::new(cfg.clone())?.system_sim()?;
    sim.enable_tracing();
    let id = sim.complete_collective(req.clone())?;
    Ok(TracedRun {
        report: CollectiveRunReport::from_sim(&sim, id)?,
        spans: sim.trace().unwrap_or_default().to_vec(),
        npus: sim.topology().num_npus(),
        events: sim.events_processed(),
    })
}

/// `cfg` with its backend replaced by `backend`.
pub(crate) fn on_backend(cfg: &SimConfig, backend: BackendKind) -> SimConfig {
    SimConfig {
        backend,
        ..cfg.clone()
    }
}

/// The differential oracle: runs `req` on `cfg` through **both** backends
/// and compares the runs. Returns the two traced runs (analytical
/// first) when they conform.
///
/// # Errors
///
/// [`DiffError::Run`] when either run fails or the config carries a fault
/// plan (fault windows are wall-clock-relative, so backends with different
/// time scales legitimately diverge under them);
/// [`DiffError::Divergence`] on the first structural disagreement.
pub fn diff_check(
    cfg: &SimConfig,
    req: &CollectiveRequest,
    opts: &DiffOptions,
) -> Result<(TracedRun, TracedRun), DiffError> {
    if cfg.faults.as_ref().is_some_and(|p| !p.is_empty()) {
        return Err(DiffError::Run(
            "differential oracle requires a fault-free config".into(),
        ));
    }
    let run = |backend| {
        run_traced(&on_backend(cfg, backend), req).map_err(|e| DiffError::Run(e.to_string()))
    };
    let a = run(BackendKind::Analytical)?;
    let g = run(BackendKind::Garnet)?;
    compare(&a, &g, opts).map_err(|d| DiffError::Divergence(Box::new(d)))?;
    Ok((a, g))
}

/// Checks an analytical run `a` against a Garnet run `g` of the same
/// fault-free configuration: equal message counts and payload totals, the
/// same chunk multiset per NPU (and the same order under
/// [`DiffOptions::strict_order`]), and a duration ratio inside the
/// envelope.
///
/// # Errors
///
/// The first structural disagreement.
pub(crate) fn compare(a: &TracedRun, g: &TracedRun, opts: &DiffOptions) -> Result<(), Divergence> {
    let (analytical, garnet) = (a.report.system.messages, g.report.system.messages);
    if analytical != garnet {
        return Err(Divergence::MessageCount { analytical, garnet });
    }
    let (analytical, garnet) = (
        a.report.network.payload_bytes,
        g.report.network.payload_bytes,
    );
    if analytical != garnet {
        return Err(Divergence::PayloadBytes { analytical, garnet });
    }
    let sorted = |order: &[u32]| {
        let mut set = order.to_vec();
        set.sort_unstable();
        set
    };
    let orders = a.completion_order().into_iter().zip(g.completion_order());
    for (npu, (analytical, garnet)) in orders.enumerate() {
        let (a_set, g_set) = (sorted(&analytical), sorted(&garnet));
        if a_set != g_set {
            return Err(Divergence::ChunkSet {
                npu,
                analytical: a_set,
                garnet: g_set,
            });
        }
        if opts.strict_order && analytical != garnet {
            return Err(Divergence::CompletionOrder {
                npu,
                analytical,
                garnet,
            });
        }
    }
    let (analytical, garnet) = (a.report.duration.cycles(), g.report.duration.cycles());
    let ratio = analytical as f64 / garnet.max(1) as f64;
    let envelope = opts.envelope;
    if ratio < envelope.lo || ratio > envelope.hi {
        return Err(Divergence::LatencyEnvelope {
            ratio,
            envelope,
            analytical,
            garnet,
        });
    }
    Ok(())
}
