//! # astra-system
//!
//! The system layer of the ASTRA-sim reproduction (§IV-B of the paper).
//!
//! The system layer sits between the workload layer (which decides *what*
//! to communicate and when) and a network backend (which moves bytes). Its
//! responsibilities, mirroring Fig 7:
//!
//! * **Chunking** — each issued collective ("set") is split into
//!   `preferred-set-splits` chunks that are scheduled and pipelined
//!   independently (Table II);
//! * **Ready queue** — chunks wait here before dispatch, in a
//!   [`ReadyQueue`] ordered by the scheduling-policy knob (Table III
//!   row 7): LIFO prioritizes the most recently issued
//!   collective, which §III-E argues is what the first layers of
//!   back-propagation need; FIFO keeps issue order; Priority dispatches
//!   the smallest queued chunk first;
//! * **Dispatcher** — issues `P` chunks whenever fewer than `T` chunks are
//!   still in the first phase of their collective algorithm (§IV-B; §V-F
//!   uses T=8, P=16);
//! * **Logical scheduling queues (LSQs)** — one per (phase, channel):
//!   chunks spread round-robin over a dimension's rings / global switches,
//!   so concurrent chunks exploit all links of a dimension;
//! * **Collective execution** — drives [`astra_collectives::PhaseMachine`]s,
//!   resolves their relative send targets into source routes, injects
//!   messages, charges endpoint delay and local-reduction cost on receipt,
//!   and reports per-NPU completion to the workload layer;
//! * **Statistics** — per-phase queue delays (the paper's Queue P0–P4) and
//!   in-network delays (Network P1–P4) that Figs 12b and 16 plot.
//!
//! The simulation object is [`SystemSim`]; the workload layer drives it via
//! [`SystemSim::issue_collective`], [`SystemSim::schedule_callback`] and
//! [`SystemSim::run_until_notification`]. A callback carries a `u64` token
//! of the caller's choosing back in its [`Notification::Callback`] (the
//! training runner passes the NPU whose compute step ended), so the caller
//! needs no table from callback to owner. A lone bandwidth test is one call
//! to [`SystemSim::complete_collective`].
//!
//! ## Example
//!
//! ```
//! use astra_collectives::CollectiveOp;
//! use astra_network::NetworkConfig;
//! use astra_system::{BackendKind, CollectiveRequest, Notification, SystemConfig, SystemSim};
//! use astra_topology::LogicalTopology;
//!
//! let topo = LogicalTopology::torus(2, 2, 2, 1, 1, 1)?;
//! let mut sim = SystemSim::new(
//!     topo,
//!     SystemConfig::default(),
//!     &NetworkConfig::default(),
//!     BackendKind::Analytical,
//! );
//! let coll = sim.issue_collective(CollectiveRequest::all_reduce(1 << 20))?;
//! let mut done = 0;
//! while let Some(n) = sim.run_until_notification()? {
//!     if let Notification::CollectiveDone { coll: c, .. } = n {
//!         assert_eq!(c, coll);
//!         done += 1;
//!     }
//! }
//! assert_eq!(done, 8); // one completion per NPU
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod api;
mod config;
mod endpoint;
mod error;
mod routing;
mod scheduler;
mod sim;
mod stats;
mod tag;
mod transport;

pub use api::{CollId, CollectiveRequest, Notification};
pub use config::{BackendKind, InjectionPolicy, SchedulingPolicy, SystemConfig};
pub use error::SystemError;
pub use scheduler::{QueuedChunk, ReadyQueue};
pub use sim::SystemSim;
pub use stats::{CollReport, PhaseSpan, SystemStats};
pub(crate) use tag::Tag;
