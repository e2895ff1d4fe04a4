//! A timing [`Backend`] wrapper, installed through
//! `SystemSim::with_backend` (the paper's §IV lightweight interface).
//!
//! It forwards every call to the real backend and, for the per-event calls
//! `send` and `handle`, adds the host time, the call count, the arrivals
//! returned and the allocations made inside the call to a shared
//! [`NetProbe`]. Per-event calls are aggregated as a sum plus a count: a
//! span per flit would measure the tracer, not the simulator.
//!
//! The simulator owns its backend, and the training runner owns the
//! simulator, so the wrapper reports through a shared handle, and on drop it
//! records the backend's final delivery count and quiescence audit there.

use crate::alloc::thread_allocations;
use astra_core::network::{
    Arrival, Backend, FaultPlan, Message, NetEvent, NetScheduler, NetStats, NetworkError,
};
use astra_core::topology::Route;
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Totals the wrapper accumulated over one simulation.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NetTotals {
    /// Host time inside `Backend::send`.
    pub send: Duration,
    /// `Backend::send` calls.
    pub sends: u64,
    /// Host time inside `Backend::handle`.
    pub handle: Duration,
    /// `Backend::handle` calls.
    pub handles: u64,
    /// Arrivals `handle` reported to the system layer.
    pub arrivals: u64,
    /// Allocations made inside `send` and `handle`.
    pub allocs: u64,
    /// `NetStats::delivered` when the backend was dropped.
    pub delivered: u64,
}

impl NetTotals {
    /// Host time inside the backend.
    pub fn time(&self) -> Duration {
        self.send + self.handle
    }
}

/// The shared handle a [`TimedBackend`] reports through.
#[derive(Debug, Default)]
pub struct NetProbe {
    totals: Cell<NetTotals>,
    audit: RefCell<Option<Result<(), String>>>,
}

impl NetProbe {
    /// The totals so far (final once the backend is dropped).
    pub fn totals(&self) -> NetTotals {
        self.totals.get()
    }

    /// The backend's `audit_quiescent` verdict, taken when it was dropped.
    pub fn audit(&self) -> Option<Result<(), String>> {
        self.audit.borrow().clone()
    }

    fn update(&self, f: impl FnOnce(&mut NetTotals)) {
        let mut t = self.totals.get();
        f(&mut t);
        self.totals.set(t);
    }
}

/// A delegating backend that times `send` and `handle`.
pub struct TimedBackend {
    inner: Box<dyn Backend>,
    probe: Rc<NetProbe>,
}

impl TimedBackend {
    /// Wraps `inner`; the totals appear in the returned probe.
    pub fn new(inner: Box<dyn Backend>) -> (Self, Rc<NetProbe>) {
        let probe = Rc::new(NetProbe::default());
        let backend = TimedBackend {
            inner,
            probe: Rc::clone(&probe),
        };
        (backend, probe)
    }
}

impl Backend for TimedBackend {
    fn send(
        &mut self,
        queue: &mut dyn NetScheduler,
        msg: Message,
        route: Route,
    ) -> Result<(), NetworkError> {
        let allocs = thread_allocations();
        let start = Instant::now();
        let result = self.inner.send(queue, msg, route);
        let elapsed = start.elapsed();
        let allocs = thread_allocations() - allocs;
        self.probe.update(|t| {
            t.send += elapsed;
            t.sends += 1;
            t.allocs += allocs;
        });
        result
    }

    fn handle(
        &mut self,
        queue: &mut dyn NetScheduler,
        event: NetEvent,
        arrivals: &mut Vec<Arrival>,
    ) {
        let before = arrivals.len();
        let allocs = thread_allocations();
        let start = Instant::now();
        self.inner.handle(queue, event, arrivals);
        let elapsed = start.elapsed();
        let allocs = thread_allocations() - allocs;
        self.probe.update(|t| {
            t.handle += elapsed;
            t.handles += 1;
            t.arrivals += (arrivals.len() - before) as u64;
            t.allocs += allocs;
        });
    }

    fn stats(&self) -> &NetStats {
        self.inner.stats()
    }

    fn in_flight(&self) -> usize {
        self.inner.in_flight()
    }

    fn install_link_faults(&mut self, plan: &FaultPlan) {
        self.inner.install_link_faults(plan);
    }

    fn audit_quiescent(&self) -> Result<(), String> {
        self.inner.audit_quiescent()
    }
}

impl Drop for TimedBackend {
    fn drop(&mut self) {
        let delivered = self.inner.stats().delivered;
        self.probe.update(|t| t.delivered = delivered);
        *self.probe.audit.borrow_mut() = Some(self.inner.audit_quiescent());
    }
}
