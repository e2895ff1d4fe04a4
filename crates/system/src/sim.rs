//! The system-layer master event loop.
//!
//! Staged architecture: this module only *sequences* — it owns the event
//! queue and the public driving API, and delegates each concern to its
//! module: chunk scheduling to [`crate::scheduler`], endpoint/local-update
//! modeling to `endpoint`, loss/retransmit/reroute machinery to
//! `transport`. Deferred sends ride the queue as `u32` slab keys
//! ([`astra_des::SlabKey`]) into the transport's payload arena, so the hot
//! loop performs no per-event heap allocation: collectives live in one
//! table indexed by their sequential id, send lists go through a reused
//! scratch buffer, and resolved routes are memoized shared `Arc`s
//! (DESIGN.md "hot-path conventions").

use crate::endpoint::{self, live, live_mut, Coll, CollState};
use crate::routing::{Overlay, RouteKey};
use crate::transport::Transport;
use crate::{
    BackendKind, CollId, CollReport, CollectiveRequest, Notification, PhaseSpan, QueuedChunk,
    ReadyQueue, SystemConfig, SystemError, SystemStats, Tag,
};
use astra_collectives::{plan_with_intra, PhaseMachine, SendCmd};
use astra_des::hash::IdMap;
use astra_des::{EventQueue, SlabKey, Time};
use astra_network::{
    AnalyticalNet, Arrival, Backend, FaultPlan, GarnetNet, NetEvent, NetScheduler, NetworkConfig,
};
use astra_topology::{LogicalTopology, NodeId, Route};
use std::collections::VecDeque;
use std::fmt;

/// Master event type: network events plus system-layer events. Deferred
/// sends carry 4-byte arena keys, never boxed payloads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum SysEvent {
    Net(NetEvent),
    /// Endpoint processing (endpoint delay + local reduction) of a received
    /// message finished; advance the chunk's phase machine.
    EndpointDone {
        npu: u32,
        coll: u64,
        chunk: u32,
        phase: u8,
        step: u32,
    },
    /// A workload callback; carries the caller's token.
    Callback(u64),
    /// A deferred send: a paced injection (`injection-policy: normal`,
    /// attempt 0) or the retransmission of a scale-out message dropped by
    /// lossy transport (attempt 1 and up). The key claims the parked
    /// payload and its attempt counter from the transport arena.
    Send(SlabKey),
}

/// One NPU's dispatcher state (Fig 7): its ready queue and the number of
/// chunks it dispatched that are still in phase 0 of their plan.
#[derive(Debug)]
pub(crate) struct Npu {
    pub(crate) ready: ReadyQueue,
    pub(crate) active_first_phase: usize,
}

/// Wrapper giving backends scheduling access to the master queue.
pub(crate) struct NetQ<'a>(pub(crate) &'a mut EventQueue<SysEvent>);

impl NetScheduler for NetQ<'_> {
    fn now(&self) -> Time {
        self.0.now()
    }
    fn schedule_at(&mut self, at: Time, event: NetEvent) {
        self.0.schedule_at(at, SysEvent::Net(event));
    }
}

/// The system-layer simulator; see the crate documentation for the model.
///
/// Fields are crate-visible because the send half of the machinery (route
/// synthesis, overlay resolution, injection) lives in `routing` as a
/// second `impl` block.
pub struct SystemSim {
    pub(crate) topo: LogicalTopology,
    pub(crate) cfg: SystemConfig,
    pub(crate) net_cfg: NetworkConfig,
    pub(crate) net: Box<dyn Backend>,
    pub(crate) overlay: Option<Overlay>,
    pub(crate) queue: EventQueue<SysEvent>,
    pub(crate) npus: Vec<Npu>,
    /// Every issued collective, indexed by its dense sequential id: live
    /// state until the last NPU finishes, then its report.
    pub(crate) colls: Vec<Coll>,
    pub(crate) notifications: VecDeque<Notification>,
    pub(crate) stats: SystemStats,
    pub(crate) trace: Option<Vec<PhaseSpan>>,
    pub(crate) next_msg: u64,
    pub(crate) arrivals_scratch: Vec<Arrival>,
    /// Reused buffer the phase machines append their sends to.
    pub(crate) sends_scratch: Vec<SendCmd>,
    /// Resolved (post-overlay) send routes, memoized on first use.
    pub(crate) routes: IdMap<RouteKey, Route>,
    pub(crate) transport: Transport,
}

impl fmt::Debug for SystemSim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SystemSim")
            .field("topo", &self.topo.shape_string())
            .field("now", &self.queue.now())
            .field("inflight_colls", &self.in_flight())
            .field("pending_events", &self.queue.len())
            .finish()
    }
}

impl BackendKind {
    /// Builds this kind of network backend over `topo`.
    pub(crate) fn build(self, topo: &LogicalTopology, net_cfg: &NetworkConfig) -> Box<dyn Backend> {
        match self {
            BackendKind::Analytical => Box::new(AnalyticalNet::new(topo, net_cfg)),
            BackendKind::Garnet => Box::new(GarnetNet::new(topo, net_cfg)),
        }
    }
}

impl SystemSim {
    /// Builds a simulator over `topo` with the chosen network backend.
    ///
    /// # Panics
    ///
    /// Panics if the configs fail validation
    /// ([`SystemConfig::validate`], [`NetworkConfig::validate`]); a
    /// `Simulator` checks both first and reports a typed error.
    pub fn new(
        topo: LogicalTopology,
        cfg: SystemConfig,
        net_cfg: &NetworkConfig,
        backend: BackendKind,
    ) -> Self {
        let net = backend.build(&topo, net_cfg);
        Self::with_backend(topo, cfg, net_cfg, net)
    }

    /// Builds a simulator over a caller-provided backend (the "lightweight
    /// interface" portability point of §IV).
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`SystemConfig::validate`].
    pub fn with_backend(
        topo: LogicalTopology,
        cfg: SystemConfig,
        net_cfg: &NetworkConfig,
        net: Box<dyn Backend>,
    ) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("{e}");
        }
        let n = topo.num_npus();
        SystemSim {
            topo,
            cfg,
            net_cfg: *net_cfg,
            net,
            overlay: None,
            queue: EventQueue::new(),
            npus: (0..n)
                .map(|_| Npu {
                    ready: ReadyQueue::new(cfg.scheduling),
                    active_first_phase: 0,
                })
                .collect(),
            colls: Vec::new(),
            notifications: VecDeque::new(),
            stats: SystemStats::default(),
            trace: None,
            next_msg: 0,
            arrivals_scratch: Vec::new(),
            sends_scratch: Vec::new(),
            routes: IdMap::default(),
            transport: Transport::new(),
        }
    }

    /// Installs a deterministic fault plan: link outage/degradation windows
    /// go to the network backend, loss parameters arm the retransmission
    /// machinery, and stragglers are exposed to the compute/workload layers
    /// through [`SystemSim::faults`]. All loss randomness derives from the
    /// plan's seed, so a `(seed, plan)` pair replays cycle-identically;
    /// installing `FaultPlan::default()` is equivalent to never calling
    /// this.
    ///
    /// # Errors
    ///
    /// Fails if the plan's values are out of range or reference nodes the
    /// fabric does not have.
    pub fn install_faults(&mut self, plan: &FaultPlan) -> Result<(), SystemError> {
        let physical = self
            .overlay
            .as_ref()
            .map(|o| &o.physical)
            .unwrap_or(&self.topo);
        plan.validate_for(self.topo.num_npus(), physical.num_network_nodes())?;
        self.net.install_link_faults(plan);
        self.transport.install(plan);
        Ok(())
    }

    /// The installed fault plan (empty unless
    /// [`SystemSim::install_faults`] was called).
    pub fn faults(&self) -> &FaultPlan {
        self.transport.faults()
    }

    /// Current simulation time.
    pub fn now(&self) -> Time {
        self.queue.now()
    }

    /// The topology the simulator runs over.
    pub fn topology(&self) -> &LogicalTopology {
        &self.topo
    }

    /// The system configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Aggregate system statistics.
    pub fn stats(&self) -> &SystemStats {
        &self.stats
    }

    /// Starts recording per-chunk phase spans (for Chrome trace export).
    /// Call before issuing work; spans accumulate until the simulator is
    /// dropped.
    pub fn enable_tracing(&mut self) {
        self.trace.get_or_insert_with(Vec::new);
    }

    /// Recorded phase spans, if tracing was enabled.
    pub fn trace(&self) -> Option<&[PhaseSpan]> {
        self.trace.as_deref()
    }

    /// Network backend statistics.
    pub fn net_stats(&self) -> &astra_network::NetStats {
        self.net.stats()
    }

    /// The archived report of a completed collective (`None` while it
    /// runs).
    pub fn report(&self, coll: CollId) -> Option<&CollReport> {
        match self.colls.get(usize::try_from(coll.0).ok()?)? {
            Coll::Done(report) => Some(report),
            Coll::Live(_) => None,
        }
    }

    /// Collectives issued but not yet done on every NPU.
    fn in_flight(&self) -> usize {
        self.colls
            .iter()
            .filter(|c| matches!(c, Coll::Live(_)))
            .count()
    }

    /// Audits that the whole stack is quiescent: consistent event-queue
    /// bucket bookkeeping ([`EventQueue::audit`]), no pending events,
    /// dispatcher counts within Fig 7's bound, no in-flight
    /// collectives, an empty transport arena, and a backend whose conserved
    /// resources (credits, flits, in-flight maps) are restored.
    ///
    /// The conformance harness calls this after a simulation drains to catch
    /// leaked state that aggregate statistics would never show.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first violation found.
    pub fn audit_quiescent(&self) -> Result<(), String> {
        self.queue.audit()?;
        if !self.queue.is_empty() {
            return Err(format!(
                "system: {} event(s) still queued at quiescence",
                self.queue.len()
            ));
        }
        self.check_invariants()?;
        let live = self.in_flight();
        if live != 0 {
            return Err(format!("system: {live} collective(s) still in flight"));
        }
        if !self.transport.arena_is_empty() {
            return Err(format!(
                "system: transport arena holds {} unclaimed parked send(s)",
                self.transport.arena_len()
            ));
        }
        self.net.audit_quiescent()
    }

    /// Checks Fig 7's dispatcher bound on every NPU: none has
    /// `dispatcher_threshold + dispatcher_batch` or more chunks in their
    /// first phase. Debug builds assert it each time `maybe_dispatch`
    /// dispatches; [`SystemSim::audit_quiescent`] walks every NPU once per
    /// drained run, in every build.
    ///
    /// # Errors
    ///
    /// A description of the first NPU over the bound.
    fn check_invariants(&self) -> Result<(), String> {
        let bound = self.cfg.dispatcher_threshold + self.cfg.dispatcher_batch;
        for (npu, state) in self.npus.iter().enumerate() {
            if state.active_first_phase >= bound {
                return Err(format!(
                    "system: npu {npu} has {} chunk(s) in their first phase, dispatcher \
                     bound is {bound}",
                    state.active_first_phase
                ));
            }
        }
        Ok(())
    }

    /// The largest collective set, in bytes, this simulation accepts: the
    /// bound that keeps every byte counter of its reports inside `u64`.
    ///
    /// A set of `B` bytes puts at most `B × 16 × npus × nodes` bytes on
    /// links in all, where `nodes` counts the fabric messages really
    /// travel (the physical one under an overlay), switches included:
    ///
    /// * bytes × messages: per phase an NPU sends at most twice the set (a
    ///   reduce-scatter and an all-gather of all of it), and a plan has at
    ///   most one phase per active dimension, of which a fabric has at most
    ///   4 (three ring dimensions and one switch dimension): `8B` per NPU.
    ///   A factor of 2 on top covers garnet, which counts whole flits.
    /// * hops: every route is a simple path (a ring route stays on one
    ///   ring, a switch route takes 2 hops, overlay and fault reroutes are
    ///   shortest paths), so it has fewer than `nodes` hops.
    ///
    /// Each per-link, per-class and payload byte total is a sum of those
    /// hop bytes, so it fits when `B ≤ u64::MAX / (16 × npus × nodes)`.
    /// Retransmitted copies of lossy scale-out messages repeat their hops
    /// and are not in this count. On the largest fabric the caps allow,
    /// [`MAX_NPUS`](astra_topology::MAX_NPUS) = 2^16 NPUs with (under
    /// [`MAX_SWITCH_LINKS`](astra_topology::MAX_SWITCH_LINKS) = 2^20) at
    /// most 8 switches, so fewer than 2^17 nodes, the bound is at least
    /// `2^64 / 2^37 = 2^27` bytes (128 MiB); on the 8-NPU ring it is
    /// `u64::MAX / 1024`, about 2^54.
    fn max_collective_bytes(&self) -> u64 {
        let physical = self.overlay.as_ref().map_or(&self.topo, |o| &o.physical);
        let npus = self.topo.num_npus() as u64;
        let nodes = physical.num_network_nodes() as u64;
        u64::MAX / (16 * npus * nodes)
    }

    /// Issues a collective on every NPU. Each NPU gets its own
    /// [`Notification::CollectiveDone`] when its participation finishes.
    ///
    /// # Errors
    ///
    /// Fails on empty sets, on sets too large for the run's 64-bit byte
    /// counters (`max_collective_bytes` derives the bound), or if no active
    /// dimension matches the request.
    pub fn issue_collective(&mut self, req: CollectiveRequest) -> Result<CollId, SystemError> {
        if req.bytes == 0 {
            return Err(SystemError::EmptySet);
        }
        let max = self.max_collective_bytes();
        if req.bytes > max {
            return Err(SystemError::SetTooLarge {
                bytes: req.bytes,
                max,
            });
        }
        let algorithm = req.algorithm.unwrap_or(self.cfg.algorithm);
        let p = plan_with_intra(
            &self.topo,
            req.op,
            algorithm,
            req.dims.as_deref(),
            self.cfg.intra_algo,
        )?;
        let id = self.colls.len() as u64;

        // Chunking: split the set into (up to) `set_splits` chunks,
        // distributing the remainder over the first chunks.
        let splits = u64::from(self.cfg.set_splits).min(req.bytes) as u32;
        let base = req.bytes / u64::from(splits);
        let rem = req.bytes % u64::from(splits);
        let chunk_bytes: Vec<u64> = (0..splits)
            .map(|c| base + u64::from(u64::from(c) < rem))
            .collect();

        let now = self.now();
        // Admit the chunk batch to every NPU's ready queue (the scheduling
        // policy decides where it lands) and kick the dispatchers.
        let batch: Vec<QueuedChunk> = chunk_bytes
            .iter()
            .enumerate()
            .map(|(c, &bytes)| QueuedChunk {
                coll: id,
                chunk: c as u32,
                bytes,
                queued_at: now,
            })
            .collect();
        self.colls.push(Coll::Live(CollState::new(
            p,
            req.local_update_per_kb
                .unwrap_or(self.cfg.local_update_per_kb),
            self.topo.num_npus(),
            chunk_bytes,
            req.bytes,
            now,
            self.trace.is_some(),
        )));
        for npu in &mut self.npus {
            npu.ready.admit(&batch);
        }
        for npu in 0..self.npus.len() {
            self.maybe_dispatch(npu)?;
        }
        Ok(CollId(id))
    }

    /// Issues `req`, runs until every NPU has reported its
    /// [`Notification::CollectiveDone`], then drains and audits the
    /// simulation ([`SystemSim::drain_and_audit`]). Other notifications
    /// are consumed and ignored.
    ///
    /// # Errors
    ///
    /// As [`SystemSim::issue_collective`] and [`SystemSim::step`], and
    /// [`SystemError::Protocol`] if the simulation drains before every NPU
    /// completes or fails its quiescence audit.
    pub fn complete_collective(&mut self, req: CollectiveRequest) -> Result<CollId, SystemError> {
        let id = self.issue_collective(req)?;
        let n = self.npus.len();
        let mut done = 0;
        while done < n {
            match self.run_until_notification()? {
                Some(Notification::CollectiveDone { coll, .. }) if coll == id => done += 1,
                Some(_) => {}
                None => {
                    return Err(SystemError::Protocol {
                        what: format!(
                            "collective {} never completed: the simulation drained with \
                             {done} of {n} NPUs done",
                            id.0
                        ),
                    })
                }
            }
        }
        self.drain_and_audit()?;
        Ok(id)
    }

    /// Runs until no events remain, then audits that nothing is left
    /// behind ([`SystemSim::audit_quiescent`]): a leaked collective,
    /// parked send or in-flight message is a protocol failure, not a
    /// silently short report.
    ///
    /// # Errors
    ///
    /// As [`SystemSim::step`], and [`SystemError::Protocol`] if the drained
    /// simulation is not quiescent.
    pub fn drain_and_audit(&mut self) -> Result<(), SystemError> {
        self.run_until_idle()?;
        self.audit_quiescent()
            .map_err(|what| SystemError::Protocol { what })
    }

    /// Schedules a workload callback `delay` from now; a
    /// [`Notification::Callback`] carrying `token` fires then. The token is
    /// the caller's own (the training runner passes the NPU index), so no
    /// table maps a fired callback back to its owner. A callback past the
    /// last valid cycle fails [`SystemSim::step`] when it would fire.
    pub fn schedule_callback(&mut self, delay: Time, token: u64) {
        self.queue.schedule_in(delay, SysEvent::Callback(token));
    }

    /// Processes events until a notification is available (returning it) or
    /// the simulation drains (returning `None`).
    ///
    /// # Errors
    ///
    /// Propagates any error raised while processing events; see
    /// [`SystemSim::step`].
    pub fn run_until_notification(&mut self) -> Result<Option<Notification>, SystemError> {
        loop {
            if let Some(n) = self.notifications.pop_front() {
                return Ok(Some(n));
            }
            if !self.step()? {
                return Ok(self.notifications.pop_front());
            }
        }
    }

    /// Runs until no events remain; returns the final time. Any pending
    /// notifications stay queued for [`SystemSim::run_until_notification`].
    ///
    /// # Errors
    ///
    /// Propagates any error raised while processing events; see
    /// [`SystemSim::step`].
    pub fn run_until_idle(&mut self) -> Result<Time, SystemError> {
        while self.step()? {}
        Ok(self.now())
    }

    /// Processes a single event. Returns `Ok(false)` when the queue is
    /// empty.
    ///
    /// # Errors
    ///
    /// Fails on route-synthesis or protocol violations (system-layer bugs
    /// surfaced as typed errors), on [`SystemError::Unreachable`] when down
    /// links disconnect a sender from its destination, on
    /// [`SystemError::RetriesExhausted`] when lossy transport defeats the
    /// retransmission budget, and on [`SystemError::TimeOverflow`] for an
    /// event at [`Time::MAX`]: every layer's time arithmetic saturates
    /// there, and this is the one place that rejects it.
    pub fn step(&mut self) -> Result<bool, SystemError> {
        let last = self.queue.now();
        let Some((time, ev)) = self.queue.pop() else {
            return Ok(false);
        };
        if time == Time::MAX {
            return Err(SystemError::TimeOverflow { last });
        }
        match ev {
            SysEvent::Net(nev) => {
                let mut arrivals = std::mem::take(&mut self.arrivals_scratch);
                arrivals.clear();
                self.net
                    .handle(&mut NetQ(&mut self.queue), nev, &mut arrivals);
                let mut result = Ok(());
                for a in &arrivals {
                    result = self.on_arrival(*a);
                    if result.is_err() {
                        break;
                    }
                }
                self.arrivals_scratch = arrivals;
                result?;
            }
            SysEvent::EndpointDone {
                npu,
                coll,
                chunk,
                phase,
                step,
            } => self.on_endpoint_done(npu as usize, coll, chunk, phase, step)?,
            SysEvent::Callback(token) => {
                let time = self.now();
                self.notifications
                    .push_back(Notification::Callback { token, time });
            }
            SysEvent::Send(key) => {
                let p = self.transport.claim(key)?;
                self.send_now(p.msg, p.route, p.attempt)?;
            }
        }
        Ok(true)
    }

    /// Number of events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.queue.events_processed()
    }

    // ---- internals ----------------------------------------------------

    /// Fig 7's dispatcher: if fewer than T chunks are in their first phase,
    /// issue up to P chunks from the ready queue.
    fn maybe_dispatch(&mut self, npu: usize) -> Result<(), SystemError> {
        if self.npus[npu].active_first_phase >= self.cfg.dispatcher_threshold {
            return Ok(());
        }
        let bound = self.cfg.dispatcher_threshold + self.cfg.dispatcher_batch;
        for _ in 0..self.cfg.dispatcher_batch {
            let Some(q) = self.npus[npu].ready.pop() else {
                break;
            };
            let wait = self.now() - q.queued_at;
            self.stats.record_ready_delay(wait);
            if let Ok(cs) = live_mut(&mut self.colls, q.coll) {
                cs.report.ready_delay.record_time(wait);
            }
            self.npus[npu].active_first_phase += 1;
            debug_assert!(
                self.npus[npu].active_first_phase < bound,
                "t={}: npu {npu} has {} chunk(s) in their first phase, dispatcher bound is {bound}",
                self.now(),
                self.npus[npu].active_first_phase
            );
            self.enter_phase(npu, q.coll, q.chunk, 0)?;
        }
        Ok(())
    }

    /// Moves a chunk into phase `phase`: builds the machine, issues initial
    /// sends, drains any early-arrived messages.
    fn enter_phase(
        &mut self,
        npu: usize,
        coll: u64,
        chunk: u32,
        phase: u8,
    ) -> Result<(), SystemError> {
        let now = self.queue.now();
        let cs = live_mut(&mut self.colls, coll)?;
        let spec = cs.plan.phases()[phase as usize];
        let at = cs.at(npu, chunk);
        if let Some(entered) = cs.entered_phase_at.get_mut(at) {
            *entered = now;
        }
        let mut machine = PhaseMachine::new(&spec, cs.chunk_bytes[chunk as usize]);
        // On an error the scratch buffer is simply dropped: the run is over.
        let mut sends = std::mem::take(&mut self.sends_scratch);
        sends.clear();
        machine.start(&mut sends);
        let chunk_state = &mut cs.chunks[at];
        chunk_state.phase = phase;
        chunk_state.machine = Some(machine);
        let early = endpoint::take_early(&mut cs.early, at, phase);

        self.issue_sends(npu, coll, chunk, phase, &sends)?;
        self.sends_scratch = sends;
        for step in early {
            self.schedule_endpoint(npu, coll, chunk, phase, step)?;
        }
        Ok(())
    }

    /// A message reached its destination NPU: record stats and start
    /// endpoint processing (or buffer if the chunk is not in that phase yet).
    fn on_arrival(&mut self, arrival: Arrival) -> Result<(), SystemError> {
        if self.transport.consume_doomed(&arrival.message.id) {
            // Dropped in transit: the wire bandwidth was consumed but the
            // payload is lost; its retransmission is already scheduled.
            return Ok(());
        }
        let tag = Tag::unpack(arrival.message.tag);
        let npu = match &self.overlay {
            None => arrival.message.dst.index(),
            Some(o) => o.inverse[arrival.message.dst.index()],
        };
        let queueing = arrival.source_queueing();
        let wire = arrival.wire_time();
        self.stats
            .record_message(tag.phase as usize, queueing, wire);
        let cs = live_mut(&mut self.colls, tag.coll)?;
        cs.record_arrival(tag.phase as usize, queueing, wire);
        let at = cs.at(npu, tag.chunk);
        let chunk_state = &cs.chunks[at];
        let ready_for_it = chunk_state.machine.is_some() && chunk_state.phase == tag.phase;
        if ready_for_it {
            self.schedule_endpoint(npu, tag.coll, tag.chunk, tag.phase, tag.step)?;
        } else {
            if tag.phase < chunk_state.phase || chunk_state.done {
                return Err(SystemError::Protocol {
                    what: format!(
                        "message for a past phase: tag {tag:?} vs chunk phase {}",
                        chunk_state.phase
                    ),
                });
            }
            cs.early.push((at, tag.phase, tag.step));
        }
        Ok(())
    }

    /// Charges endpoint delay plus (for reducing steps) local-update cost,
    /// then fires `EndpointDone`.
    fn schedule_endpoint(
        &mut self,
        npu: usize,
        coll: u64,
        chunk: u32,
        phase: u8,
        step: u32,
    ) -> Result<(), SystemError> {
        let cs = live(&self.colls, coll)?;
        let machine = cs.chunks[cs.at(npu, chunk)]
            .machine
            .as_ref()
            .ok_or_else(|| SystemError::Protocol {
                what: format!("endpoint scheduled for chunk {chunk} with no active phase machine"),
            })?;
        let delay =
            endpoint::receive_cost(self.cfg.endpoint_delay, cs.update_per_kb, machine, step);
        self.queue.schedule_in(
            delay,
            SysEvent::EndpointDone {
                npu: npu as u32,
                coll,
                chunk,
                phase,
                step,
            },
        );
        Ok(())
    }

    /// Endpoint processing finished: advance the phase machine.
    fn on_endpoint_done(
        &mut self,
        npu: usize,
        coll: u64,
        chunk: u32,
        phase: u8,
        step: u32,
    ) -> Result<(), SystemError> {
        let cs = live_mut(&mut self.colls, coll)?;
        let at = cs.at(npu, chunk);
        let chunk_state = &mut cs.chunks[at];
        debug_assert_eq!(chunk_state.phase, phase, "endpoint for a stale phase");
        let machine = chunk_state
            .machine
            .as_mut()
            .ok_or_else(|| SystemError::Protocol {
                what: format!("endpoint done for chunk {chunk} with no active phase machine"),
            })?;
        let mut sends = std::mem::take(&mut self.sends_scratch);
        sends.clear();
        let completed = endpoint::absorb_step(machine, &mut cs.deferred, at, step, &mut sends)?;
        self.issue_sends(npu, coll, chunk, phase, &sends)?;
        self.sends_scratch = sends;
        if completed {
            self.on_phase_complete(npu, coll, chunk, phase)?;
        }
        Ok(())
    }

    /// A chunk finished a phase on this NPU: move it to the next phase's
    /// LSQ or retire it.
    fn on_phase_complete(
        &mut self,
        npu: usize,
        coll: u64,
        chunk: u32,
        phase: u8,
    ) -> Result<(), SystemError> {
        let now = self.now();
        if let Some(trace) = &mut self.trace {
            let cs = live(&self.colls, coll)?;
            // Collectives issued before tracing was enabled keep no times.
            if let Some(&start) = cs.entered_phase_at.get(cs.at(npu, chunk)) {
                trace.push(PhaseSpan {
                    npu: npu as u32,
                    coll,
                    chunk,
                    phase,
                    start,
                    end: now,
                });
            }
        }
        if phase == 0 {
            self.npus[npu].active_first_phase = self.npus[npu]
                .active_first_phase
                .checked_sub(1)
                .ok_or_else(|| SystemError::Protocol {
                    what: "first-phase accounting underflow".to_string(),
                })?;
        }
        let cs = live_mut(&mut self.colls, coll)?;
        let num_phases = cs.plan.phases().len();
        let next = phase as usize + 1;
        if next < num_phases {
            self.enter_phase(npu, coll, chunk, next as u8)?;
        } else {
            let at = cs.at(npu, chunk);
            let chunk_state = &mut cs.chunks[at];
            chunk_state.machine = None;
            chunk_state.done = true;
            debug_assert!(
                !cs.early.iter().any(|e| e.0 == at) && !cs.deferred.iter().any(|d| d.0 == at),
                "retired chunk has held-back messages"
            );
            cs.chunks_done[npu] += 1;
            if cs.chunks_done[npu] as usize == cs.chunk_bytes.len() {
                let time = now;
                cs.npus_done += 1;
                if cs.npus_done == 1 {
                    cs.report.first_npu_done = time;
                }
                self.notifications.push_back(Notification::CollectiveDone {
                    coll: CollId(coll),
                    npu: NodeId(npu),
                    time,
                });
                if cs.npus_done == cs.chunks_done.len() {
                    cs.report.finished_at = time;
                    self.stats.collectives_completed += 1;
                    let report = std::mem::take(&mut cs.report);
                    self.colls[coll as usize] = Coll::Done(report);
                }
            }
        }
        if phase == 0 {
            self.maybe_dispatch(npu)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use astra_topology::LogicalTopology;

    fn sim() -> SystemSim {
        sim_on(BackendKind::Analytical)
    }

    fn sim_on(backend: BackendKind) -> SystemSim {
        let topo = LogicalTopology::torus(2, 2, 2, 1, 1, 1).unwrap();
        let net = NetworkConfig::default();
        SystemSim::new(topo, SystemConfig::default(), &net, backend)
    }

    #[test]
    fn invariants_hold_after_every_step_of_a_clean_run() {
        let mut s = sim();
        s.check_invariants().unwrap();
        // Two overlapping collectives: live slots coexist, then turn done.
        s.issue_collective(CollectiveRequest::all_reduce(1 << 16))
            .unwrap();
        s.issue_collective(CollectiveRequest::all_to_all(1 << 14))
            .unwrap();
        let mut steps = 0;
        while s.step().unwrap() {
            s.check_invariants()
                .unwrap_or_else(|e| panic!("after step {steps}: {e}"));
            steps += 1;
        }
        assert!(steps > 0);
        assert_eq!(s.stats().collectives_completed, 2);
    }

    #[test]
    fn sys_event_stays_24_bytes() {
        // The DES queue stores one per pending event. Network events
        // carry `u32` link, VC and slot indices, so a `NetEvent` is 12
        // bytes; a wider network event grows every queue entry.
        assert_eq!(std::mem::size_of::<SysEvent>(), 24);
    }

    #[test]
    fn chunk_state_stays_32_bytes() {
        // One per chunk per NPU, read by every arrival and endpoint event:
        // half a cache line. Rare-path state belongs in `CollState`'s side
        // lists, not here.
        assert_eq!(std::mem::size_of::<endpoint::ChunkState>(), 32);
    }

    #[test]
    fn corrupted_bookkeeping_fails_the_invariants() {
        let mut s = sim();
        s.issue_collective(CollectiveRequest::all_reduce(1 << 16))
            .unwrap();
        s.step().unwrap();
        s.check_invariants().unwrap();

        s.npus[3].active_first_phase = s.cfg.dispatcher_threshold + s.cfg.dispatcher_batch;
        let err = s.check_invariants().expect_err("an over-full dispatcher");
        assert!(err.contains("npu 3"), "{err}");
    }

    #[test]
    fn report_appears_only_once_the_collective_is_done() {
        let mut s = sim();
        let id = s
            .issue_collective(CollectiveRequest::all_reduce(1 << 16))
            .unwrap();
        s.step().unwrap();
        assert!(s.report(id).is_none(), "still running");
        s.run_until_idle().unwrap();
        assert_eq!(s.report(id).unwrap().set_bytes, 1 << 16);
        assert!(s.report(CollId(1)).is_none(), "never issued");
    }

    #[test]
    fn audit_names_a_collective_left_in_flight() {
        let mut s = sim();
        s.issue_collective(CollectiveRequest::all_reduce(1 << 16))
            .unwrap();
        s.step().unwrap();
        // Lose every pending event: the collective can never finish.
        while s.queue.pop().is_some() {}
        let err = s.audit_quiescent().expect_err("a live collective");
        assert_eq!(err, "system: 1 collective(s) still in flight");
    }

    #[test]
    fn garnet_reordering_fills_and_drains_the_side_lists() {
        // Garnet's flit arbitration lets neighbours run a phase ahead and
        // lets one chunk's step overtake its predecessor: the two rare paths
        // that ResNet-50 training on the analytical backend never takes.
        let mut s = sim_on(BackendKind::Garnet);
        let id = s
            .issue_collective(CollectiveRequest::all_reduce(1 << 16))
            .unwrap();
        let (mut early, mut deferred) = (0, 0);
        while s.step().unwrap() {
            if let Ok(cs) = live(&s.colls, id.0) {
                early = early.max(cs.early.len());
                deferred = deferred.max(cs.deferred.len());
            }
        }
        s.audit_quiescent().unwrap();
        assert_eq!((early, deferred), (8, 5), "peak side-list lengths");
        // The same cycles as the per-NPU layout this table replaced.
        let r = s.report(id).unwrap();
        assert_eq!(
            (r.first_npu_done.cycles(), r.finished_at.cycles()),
            (4970, 5434)
        );
        assert_eq!((s.stats().messages, s.events_processed()), (768, 52992));
    }

    #[test]
    fn a_done_collective_is_not_live() {
        let mut s = sim();
        let id = s
            .complete_collective(CollectiveRequest::all_reduce(1 << 16))
            .unwrap();
        assert!(matches!(s.colls[0], Coll::Done(_)));
        assert!(matches!(
            live_mut(&mut s.colls, id.0),
            Err(SystemError::UnknownCollective { coll: 0 })
        ));
    }
}
