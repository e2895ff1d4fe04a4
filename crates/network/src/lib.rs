//! # astra-network
//!
//! Network backends for the ASTRA-sim reproduction.
//!
//! The paper builds its system layer on top of the Garnet on-chip-network
//! simulator (run standalone) and stresses that ASTRA-SIM "is highly
//! portable, meaning that it can be ported on top of any network simulator
//! using a lightweight interface" (§IV). This crate provides that interface
//! — the [`Backend`] trait — and two implementations:
//!
//! * [`AnalyticalNet`] — a link-level queueing model: every directed link is
//!   a FIFO server with `bandwidth × efficiency` service rate and a fixed
//!   propagation latency; multi-hop messages are relayed store-and-forward
//!   (the paper's *software routing* evaluation setting). This backend is
//!   exact for the bandwidth-test style experiments of §V and fast enough
//!   for 64-node × 64 MB sweeps.
//! * [`GarnetNet`] — a flit-level model in the spirit of Garnet: messages
//!   decompose into packets and flits (Table II), flits traverse router
//!   pipelines and links cycle-by-cycle, with virtual-channel buffers and
//!   credit-based back-pressure. Used for small detailed runs and for
//!   cross-validating the analytical backend.
//!
//! Both backends consume [`astra_topology`] routes, so the system layer is
//! oblivious to which one is underneath.
//!
//! ## Example
//!
//! ```
//! use astra_des::{EventQueue, Time};
//! use astra_network::{AnalyticalNet, Backend, Message, NetworkConfig};
//! use astra_topology::{Dim, LogicalTopology, NodeId};
//!
//! let topo = LogicalTopology::torus(1, 4, 1, 1, 1, 1)?;
//! let mut net = AnalyticalNet::new(&topo, &NetworkConfig::default());
//! let mut q = EventQueue::new();
//!
//! // One hop on the horizontal ring: node 0 -> node 1.
//! let route = topo.ring_route(Dim::Horizontal, 0, NodeId(0), 1)?;
//! net.send(&mut q, Message::new(0, NodeId(0), NodeId(1), 1024, 0), route)?;
//!
//! let mut arrivals = Vec::new();
//! while let Some((_, ev)) = q.pop() {
//!     net.handle(&mut q, ev, &mut arrivals);
//! }
//! assert_eq!(arrivals.len(), 1);
//! assert!(arrivals[0].delivered > Time::ZERO);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod analytical;
#[cfg(test)]
mod backend_tests;
mod config;
mod error;
pub mod faults;
pub mod garnet;
mod link_index;
mod message;
mod stats;

pub use analytical::AnalyticalNet;
pub use config::{ConfigError, LinkParams, NetworkConfig, RoutingMode};
pub use error::NetworkError;
pub use faults::{FaultError, FaultKind, FaultPlan, LinkFault, LinkWindows, LossSpec, Straggler};
pub use garnet::GarnetNet;
pub use message::{Arrival, Message, MsgId};
pub use stats::{LinkStats, NetStats};

use astra_des::{EventQueue, SlabKey, Time};
use astra_topology::Route;

/// Scheduling surface a backend sees.
///
/// Backends never own the event queue — the layer above does (the paper's
/// system layer "exposes its event queue", §IV). This trait lets the owner
/// embed [`NetEvent`]s inside its own event enum: the system layer wraps its
/// master queue, while standalone users (and the tests here) use an
/// [`EventQueue<NetEvent>`] directly.
pub trait NetScheduler {
    /// Current simulation time.
    fn now(&self) -> Time;

    /// Schedules a network event at absolute time `at`.
    fn schedule_at(&mut self, at: Time, event: NetEvent);

    /// Schedules a network event `delay` from now.
    fn schedule_in(&mut self, delay: Time, event: NetEvent) {
        self.schedule_at(self.now() + delay, event);
    }
}

impl NetScheduler for EventQueue<NetEvent> {
    fn now(&self) -> Time {
        EventQueue::now(self)
    }

    fn schedule_at(&mut self, at: Time, event: NetEvent) {
        EventQueue::schedule_at(self, at, event);
    }
}

/// Events internal to a network backend.
///
/// The system layer owns the master event queue; it wraps `NetEvent` in its
/// own event enum and feeds popped events back into [`Backend::handle`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetEvent {
    /// Analytical backend: a message finished traversing one hop.
    HopArrive {
        /// Backend-internal slot of the message's state.
        msg: SlabKey,
    },
    /// Garnet backend: a link is ready to put the next flit on the wire.
    LinkReady {
        /// Dense link index.
        link: u32,
    },
    /// Garnet backend: a flit reached the downstream side of a link.
    FlitArrive {
        /// Dense link index.
        link: u32,
        /// Backend-internal slot of the flit's packet state.
        packet: SlabKey,
    },
    /// Garnet backend: a credit came back to the upstream side of a link.
    Credit {
        /// Dense link index.
        link: u32,
        /// Virtual channel the credit belongs to.
        vc: u32,
    },
}

/// A pluggable network simulator.
///
/// The contract mirrors the lightweight interface the paper describes: the
/// system layer calls [`Backend::send`] with a source-routed message; the
/// backend schedules its internal events on the shared queue; whenever the
/// system layer pops a [`NetEvent`] it hands it to [`Backend::handle`],
/// which reports completed deliveries through the `arrivals` out-parameter.
pub trait Backend {
    /// Injects a message on `route`. The route's first hop must originate at
    /// `msg.src` and its last hop must terminate at `msg.dst`.
    ///
    /// # Errors
    ///
    /// Fails if the route references a link the topology does not have, or
    /// is inconsistent with the message endpoints.
    fn send(
        &mut self,
        queue: &mut dyn NetScheduler,
        msg: Message,
        route: Route,
    ) -> Result<(), NetworkError>;

    /// Processes one backend event, appending any completed deliveries to
    /// `arrivals`.
    fn handle(
        &mut self,
        queue: &mut dyn NetScheduler,
        event: NetEvent,
        arrivals: &mut Vec<Arrival>,
    );

    /// Aggregate statistics collected so far.
    fn stats(&self) -> &NetStats;

    /// Number of messages currently in flight.
    fn in_flight(&self) -> usize;

    /// Installs the link faults of `plan`: hard-down windows delay
    /// transmissions past the outage; degradation windows scale link
    /// bandwidth. Installing an empty plan is a no-op and leaves the
    /// backend's timing bit-identical to never calling this at all.
    ///
    /// The default implementation ignores the plan, so backends that model
    /// no link state remain valid `Backend`s.
    fn install_link_faults(&mut self, _plan: &FaultPlan) {}

    /// Audits that the backend has reached a quiescent state: no message,
    /// packet, or flit state left in flight and every conserved resource
    /// (e.g. Garnet's per-VC credits) restored to its initial level.
    ///
    /// The conformance harness calls this after a simulation drains to
    /// detect leaked in-flight state and credit/flit conservation bugs.
    /// Always compiled (it runs on demand, not per event); the default
    /// implementation accepts any state.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first violation found.
    fn audit_quiescent(&self) -> Result<(), String> {
        Ok(())
    }
}
