//! # astra-sweep
//!
//! A declarative, parallel, deterministic parameter-sweep engine for the
//! ASTRA-sim reproduction.
//!
//! Every figure of the paper's evaluation (Figs 9–18) is a parameter
//! sweep — topology × message size × algorithm — and each grid point is an
//! independent seeded simulation. This crate turns that structure into an
//! engine:
//!
//! * a [`SweepSpec`] names a base [`astra_core::SimConfig`] +
//!   [`astra_core::Experiment`] and the [`Axis`] values to vary; its
//!   cartesian expansion is the experiment grid;
//! * a [`SweepEngine`] executes the grid on a pool of scoped
//!   `std::thread` workers pulling from a shared injector queue — results
//!   are collected in input order, and because points are independent and
//!   deterministic, the report is **bit-identical for any worker count**;
//! * an optional content-hash result cache
//!   ([`SweepEngine::cache_dir`]) skips points whose canonical
//!   (config, experiment) key has already been simulated — including
//!   duplicates shared across different figure benches;
//! * the [`SweepReport`] serializes to a stable, versioned JSON schema
//!   (`schema: 1`) written as `BENCH_<name>.json`.
//!
//! ## Example
//!
//! ```
//! use astra_core::{Experiment, SimConfig};
//! use astra_sweep::{Axis, SweepEngine, SweepSpec};
//!
//! let spec = SweepSpec::new(
//!     "doc",
//!     SimConfig::torus(1, 4, 1),
//!     Experiment::all_reduce(1 << 10),
//! )
//! .axis(Axis::MessageSizes(vec![1 << 10, 1 << 16]));
//!
//! let run = SweepEngine::new(spec).workers(2).run()?;
//! assert_eq!(run.report.points.len(), 2);
//! assert!(run.report.duration_cycles(0) < run.report.duration_cycles(1));
//! # Ok::<(), astra_sweep::SweepError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cache;
mod engine;
mod report;
mod spec;

pub use cache::ResultCache;
pub use engine::{SweepEngine, SweepRun};
pub use report::{
    ExperimentKind, PointMetrics, PointOutcome, PointReport, SweepReport, SweepStats,
    SCHEMA_VERSION,
};
pub use spec::{Axis, SweepPoint, SweepSpec, MAX_POINTS};

use std::error::Error;
use std::fmt;
use std::io;

/// Errors from sweep expansion or engine execution. Per-point simulation
/// failures are *not* errors — they are recorded as
/// [`PointOutcome::Error`] so the rest of the grid still completes.
#[derive(Debug)]
#[non_exhaustive]
pub enum SweepError {
    /// The spec was invalid (empty axis, incompatible axis, oversized
    /// grid).
    Spec(String),
    /// The result cache could not be created or written.
    CacheIo(io::Error),
}

impl SweepError {
    pub(crate) fn cache_io(e: io::Error) -> Self {
        SweepError::CacheIo(e)
    }
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepError::Spec(msg) => write!(f, "invalid sweep spec: {msg}"),
            SweepError::CacheIo(e) => write!(f, "sweep result cache: {e}"),
        }
    }
}

impl Error for SweepError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SweepError::Spec(_) => None,
            SweepError::CacheIo(e) => Some(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_and_source() {
        let e = SweepError::Spec("x".into());
        assert!(e.to_string().contains("invalid sweep spec"));
        assert!(e.source().is_none());
        let e = SweepError::CacheIo(io::Error::other("disk gone"));
        assert!(e.source().is_some());
        fn assert_err<E: Error + Send + Sync + 'static>() {}
        assert_err::<SweepError>();
    }
}
