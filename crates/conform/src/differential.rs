//! The differential oracle: one configuration, two network backends.
//!
//! The analytical backend abstracts flits away entirely, yet the system
//! layer above it is identical — so for any fault-free configuration the
//! two backends must agree on everything the system layer decides
//! (scheduling, chunking, message counts, per-NPU completion order) and
//! may only disagree on *timing*, within a bounded envelope. This module
//! runs the same [`SimConfig`] through both backends and checks exactly
//! that.

use astra_core::{SimConfig, Simulator};
use astra_des::Time;
use astra_system::{BackendKind, CollectiveRequest};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Structural summary of one traced collective run: everything the
/// differential oracle compares across backends.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TracedRun {
    /// Which backend produced it.
    pub backend: BackendKind,
    /// Issue-to-last-NPU completion time.
    pub duration: Time,
    /// Per-NPU chunk completion order: element `i` lists the chunk indices
    /// of NPU `i`'s final-phase completions, in completion order.
    pub completion_order: Vec<Vec<u32>>,
    /// System-layer messages delivered.
    pub messages: u64,
    /// Backend deliveries (retransmissions would make this exceed
    /// `messages`; the oracle only accepts fault-free configs).
    pub delivered: u64,
    /// Total payload bytes the backend carried to destinations.
    pub payload_bytes: u64,
    /// Discrete events processed (not compared — the backends legitimately
    /// differ by orders of magnitude — but kept for repro context).
    pub events: u64,
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
            Divergence::ChunkSet { npu, analytical, garnet } => write!(
                f,
                "npu {npu} chunk completion multiset diverged: analytical {analytical:?} \
                 vs garnet {garnet:?}"
            ),
            Divergence::CompletionOrder { npu, analytical, garnet } => write!(
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
            Divergence::LatencyEnvelope { ratio, envelope, analytical, garnet } => write!(
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
/// enabled, and condenses the run into its structural summary.
///
/// After the run the full-stack quiescence audit
/// ([`astra_system::SystemSim::audit_quiescent`]) must pass: leaked
/// in-flight state or a Garnet credit imbalance fails the run even when
/// the collective itself completed.
///
/// # Errors
///
/// [`DiffError::Run`] on invalid configs, drained simulations, or a failed
/// quiescence audit.
pub fn run_traced(cfg: &SimConfig, req: &CollectiveRequest) -> Result<TracedRun, DiffError> {
    let simulator = Simulator::new(cfg.clone()).map_err(|e| DiffError::Run(e.to_string()))?;
    let mut sim = simulator
        .system_sim()
        .map_err(|e| DiffError::Run(e.to_string()))?;
    sim.enable_tracing();
    let id = sim
        .complete_collective(req.clone())
        .map_err(|e| DiffError::Run(e.to_string()))?;
    let n = sim.topology().num_npus();

    let report = sim
        .report(id)
        .ok_or_else(|| DiffError::Run("missing collective report".into()))?;
    let duration = report.duration();
    let last_phase = (report.phases - 1) as u8;

    let spans = sim
        .trace()
        .ok_or_else(|| DiffError::Run("tracing yielded no spans".into()))?;
    let mut completion_order = vec![Vec::new(); n];
    for span in spans {
        if span.coll == id.0 && span.phase == last_phase {
            completion_order[span.npu as usize].push(span.chunk);
        }
    }

    Ok(TracedRun {
        backend: cfg.backend,
        duration,
        completion_order,
        messages: sim.stats().messages,
        delivered: sim.net_stats().delivered,
        payload_bytes: sim.net_stats().payload_bytes,
        events: sim.events_processed(),
    })
}

/// The differential oracle: runs `req` on `cfg` through **both** backends
/// and checks structural equivalence plus the latency envelope. Returns the
/// two traced runs (analytical first) when they conform.
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
    let envelope = &opts.envelope;
    if cfg.faults.as_ref().is_some_and(|p| !p.is_empty()) {
        return Err(DiffError::Run(
            "differential oracle requires a fault-free config".into(),
        ));
    }
    let mut a_cfg = cfg.clone();
    a_cfg.backend = BackendKind::Analytical;
    let mut g_cfg = cfg.clone();
    g_cfg.backend = BackendKind::Garnet;
    let a = run_traced(&a_cfg, req)?;
    let g = run_traced(&g_cfg, req)?;

    if a.messages != g.messages {
        return Err(DiffError::Divergence(Box::new(Divergence::MessageCount {
            analytical: a.messages,
            garnet: g.messages,
        })));
    }
    if a.payload_bytes != g.payload_bytes {
        return Err(DiffError::Divergence(Box::new(Divergence::PayloadBytes {
            analytical: a.payload_bytes,
            garnet: g.payload_bytes,
        })));
    }
    for (npu, (ao, go)) in a
        .completion_order
        .iter()
        .zip(g.completion_order.iter())
        .enumerate()
    {
        let mut a_sorted = ao.clone();
        let mut g_sorted = go.clone();
        a_sorted.sort_unstable();
        g_sorted.sort_unstable();
        if a_sorted != g_sorted {
            return Err(DiffError::Divergence(Box::new(Divergence::ChunkSet {
                npu,
                analytical: a_sorted,
                garnet: g_sorted,
            })));
        }
        if opts.strict_order && ao != go {
            return Err(DiffError::Divergence(Box::new(
                Divergence::CompletionOrder {
                    npu,
                    analytical: ao.clone(),
                    garnet: go.clone(),
                },
            )));
        }
    }
    let ratio = a.duration.cycles() as f64 / g.duration.cycles().max(1) as f64;
    if ratio < envelope.lo || ratio > envelope.hi {
        return Err(DiffError::Divergence(Box::new(
            Divergence::LatencyEnvelope {
                ratio,
                envelope: *envelope,
                analytical: a.duration.cycles(),
                garnet: g.duration.cycles(),
            },
        )));
    }
    Ok((a, g))
}
