//! # astra-conform
//!
//! The cross-backend conformance harness: the correctness-tooling layer on
//! top of the simulator, in the spirit of FoundationDB-style deterministic
//! simulation testing.
//!
//! The paper's central validation move is that the same system-layer
//! schedule must produce consistent results over two very different network
//! substrates — the flit-level Garnet-like backend and the fast analytical
//! model. This crate checks that mechanically, with three oracle families:
//!
//! * [`differential`] — runs one [`SimConfig`](astra_core::SimConfig)
//!   through **both** backends and asserts structural equivalence: the same
//!   per-NPU chunk completion order, the same message counts, and an
//!   analytical completion time within a configurable envelope of Garnet's.
//! * [`shadow`] — a data-plane oracle: each piece of the plan carries a
//!   symbolic payload (the set of contributing nodes) through the one
//!   symbolic executor, [`astra_collectives::semantics`], and the
//!   collective's postcondition is checked on every NPU — all-reduce
//!   yields the full sum everywhere, all-gather yields all shards,
//!   reduce-scatter partitions exactly. Deliberate [`shadow::Mutation`]s
//!   prove the oracle actually bites; the timed run's trace must then take
//!   every (NPU, chunk) pair through that plan.
//! * invariant checkers — debug assertions in every layer underneath, on
//!   whenever `debug_assertions` is (monotone event time, FIFO tie-break
//!   stability, Garnet credit conservation, and the system layer's slot,
//!   live-count and dispatcher bookkeeping, each checked where it
//!   changes) plus the always-on quiescence audits
//!   ([`astra_system::SystemSim::audit_quiescent`]), which also walk the
//!   whole system-layer bookkeeping once per run.
//!
//! The [`fuzz`] module drives all of them from a seeded config generator
//! (topology × collective × scheduling × fault plan) built on the vendored
//! `proptest`, shrinking any failing case to a minimal one and dumping a
//! JSON repro bundle ([`repro`]).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod differential;
pub mod fuzz;
pub mod repro;
pub mod shadow;

pub use differential::{
    diff_check, run_traced, DiffError, DiffOptions, Divergence, Envelope, TracedRun,
};
pub use fuzz::{run_fuzz, shrink_case, CaseStrategy, ConformCase, FuzzOutcome};
pub use repro::{dump_repro, repro_dir, ReproBundle};
pub use shadow::{shadow_conformance, shadow_verify, Mutation};
