//! Route synthesis and message injection: resolving a phase machine's
//! relative send targets into source routes, the logical→physical overlay
//! (§IV-B: "map a single logical topology on different physical
//! topologies"), paced bursts, and the final injection gate in front of
//! the network backend.
//!
//! This is the send half of the staged system layer; the receive half
//! lives in `endpoint`. Both are sequenced by the event loop in `sim`.

use crate::endpoint::live;
use crate::sim::{NetQ, SysEvent, SystemSim};
use crate::{BackendKind, InjectionPolicy, SystemConfig, SystemError, Tag};
use astra_collectives::{SendCmd, Target};
use astra_des::Time;
use astra_network::{Message, NetworkConfig};
use astra_topology::{Dim, LogicalTopology, Mapping, NodeId, PathFinder, Route};
use std::fmt;

/// Everything that decides where a send goes: the memo key of
/// [`SystemSim`]'s route table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct RouteKey {
    pub(crate) dim: Dim,
    /// Whether the phase's dimension is ring-connected (decides how
    /// halving-doubling partners are reached).
    pub(crate) on_rings: bool,
    pub(crate) channel: usize,
    /// The sending (logical) NPU.
    pub(crate) npu: usize,
    pub(crate) target: Target,
}

/// Logical→physical overlay state (§IV-B: "map a single logical topology
/// on different physical topologies").
pub(crate) struct Overlay {
    pub(crate) mapping: Mapping,
    /// physical NPU id -> logical NPU id.
    pub(crate) inverse: Vec<usize>,
    pub(crate) finder: PathFinder,
    /// The physical fabric itself, kept for rebuilding exclusion routers
    /// when links go down mid-run.
    pub(crate) physical: LogicalTopology,
}

impl fmt::Debug for Overlay {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Overlay")
            .field("nodes", &self.inverse.len())
            .finish()
    }
}

impl SystemSim {
    /// Checks that `mapping` covers exactly the NPUs of both topologies,
    /// as [`with_overlay`](SystemSim::with_overlay) requires.
    ///
    /// # Errors
    ///
    /// [`SystemError::InvalidOverlay`] naming the three NPU counts.
    pub fn check_overlay(
        logical: &LogicalTopology,
        physical: &LogicalTopology,
        mapping: &Mapping,
    ) -> Result<(), SystemError> {
        if mapping.len() != logical.num_npus() || logical.num_npus() != physical.num_npus() {
            return Err(SystemError::InvalidOverlay {
                what: format!(
                    "mapping covers {} nodes, logical has {}, physical has {}",
                    mapping.len(),
                    logical.num_npus(),
                    physical.num_npus()
                ),
            });
        }
        Ok(())
    }

    /// Builds a simulator whose *logical* topology (used for collective
    /// synthesis and scheduling) differs from the *physical* fabric the
    /// messages actually traverse — the paper's §IV-B flexibility: "map a
    /// 3D logical topology on a 1D or 2D physical torus". `mapping`
    /// permutes logical NPU ids onto physical NPU ids; logical
    /// neighbor-sends become shortest-path physical routes.
    ///
    /// # Errors
    ///
    /// Fails if the mapping does not cover exactly the NPUs of both
    /// topologies.
    pub fn with_overlay(
        logical: LogicalTopology,
        physical: &LogicalTopology,
        mapping: Mapping,
        cfg: SystemConfig,
        net_cfg: &NetworkConfig,
        backend: BackendKind,
    ) -> Result<Self, SystemError> {
        Self::check_overlay(&logical, physical, &mapping)?;
        let net = backend.build(physical, net_cfg);
        let mut inverse = vec![usize::MAX; physical.num_npus()];
        for l in 0..logical.num_npus() {
            inverse[mapping.apply(NodeId(l)).index()] = l;
        }
        let finder = PathFinder::new(physical);
        let mut sim = Self::with_backend(logical, cfg, net_cfg, net);
        sim.overlay = Some(Overlay {
            mapping,
            inverse,
            finder,
            physical: physical.clone(),
        });
        Ok(sim)
    }

    /// Resolves and injects a batch of sends from a phase machine.
    pub(crate) fn issue_sends(
        &mut self,
        npu: usize,
        coll: u64,
        chunk: u32,
        phase: u8,
        sends: &[SendCmd],
    ) -> Result<(), SystemError> {
        let Some(first) = sends.first() else {
            return Ok(());
        };
        let spec = live(&self.colls, coll)?.plan.phases()[phase as usize];
        let channel = chunk as usize % spec.concurrency.max(1);
        // Under the `normal` injection policy, bursts are paced: each
        // subsequent message waits one first-link serialization time.
        let gap = if self.cfg.injection == InjectionPolicy::Normal && sends.len() > 1 {
            let params = self.net_cfg.link(spec.class);
            let wire = params.wire_bytes(first.bytes);
            self.net_cfg.clock.serialization_time(wire, params.gbps)
        } else {
            Time::ZERO
        };
        for (k, s) in sends.iter().enumerate() {
            let route = self.route_for(RouteKey {
                dim: spec.dim,
                on_rings: spec.on_rings,
                channel,
                npu,
                target: s.target,
            })?;
            let tag = Tag {
                coll,
                chunk,
                phase,
                step: s.step,
            }
            .pack();
            let msg = Message::new(self.next_msg, route.src(), route.dst(), s.bytes, tag);
            self.next_msg += 1;
            let delay = gap.scale(k as u64, 1);
            if delay == Time::ZERO {
                self.send_now(msg, route, 0)?;
            } else {
                let key = self.transport.park(msg, route, 0);
                self.queue.schedule_in(delay, SysEvent::Send(key));
            }
        }
        Ok(())
    }

    /// The physical route of a send, resolved once per [`RouteKey`] and
    /// shared after that. No invalidation is needed: the key fixes every
    /// input of [`SystemSim::resolve_route`], and fault rerouting happens
    /// later, per message, in [`SystemSim::send_now`].
    fn route_for(&mut self, key: RouteKey) -> Result<Route, SystemError> {
        if let Some(route) = self.routes.get(&key) {
            return Ok(route.clone());
        }
        let route = self.resolve_route(key)?;
        self.routes.insert(key, route.clone());
        Ok(route)
    }

    /// Turns a phase machine's relative target into a route on the logical
    /// topology and, under an overlay, into the physical route the message
    /// really takes.
    fn resolve_route(&mut self, key: RouteKey) -> Result<Route, SystemError> {
        let RouteKey {
            dim,
            on_rings,
            channel,
            npu,
            target,
        } = key;
        let me = NodeId(npu);
        let route = match target {
            Target::RingNext => self.topo.ring_route(dim, channel, me, 1)?,
            Target::RingDistance(d) => self.topo.ring_route(dim, channel, me, d)?,
            Target::GroupOffset(off) => {
                let group = self.topo.ring(dim, channel, me)?;
                let dst = group.ahead(me, off)?;
                self.topo.switch_route(me, dst, channel)?
            }
            Target::GroupXor(mask) => {
                let group = self.topo.ring(dim, channel, me)?;
                let pos = group.position(me)?;
                let partner = group.members()[pos ^ mask];
                if on_rings {
                    // Software-routed along the ring direction.
                    let dist = ((pos ^ mask) + group.size() - pos) % group.size();
                    self.topo.ring_route(dim, channel, me, dist)?
                } else {
                    self.topo.switch_route(me, partner, channel)?
                }
            }
        };
        // Under an overlay, the logical route only determines the
        // destination; the message physically travels a shortest path on
        // the real fabric (spread over parallel links by channel).
        Ok(match &mut self.overlay {
            None => route,
            Some(o) => {
                let psrc = o.mapping.apply(me);
                let pdst = o.mapping.apply(route.dst());
                o.finder.route(psrc, pdst, channel)?
            }
        })
    }

    /// Final injection gate: reroutes around hard-down links and applies
    /// lossy scale-out transport before handing the message to the backend.
    /// `attempt` counts prior transmissions of this payload (0 = original).
    pub(crate) fn send_now(
        &mut self,
        msg: Message,
        route: Route,
        attempt: u32,
    ) -> Result<(), SystemError> {
        let now = self.queue.now();
        let spray = Tag::unpack(msg.tag).chunk as usize;
        let physical = match &self.overlay {
            Some(o) => &o.physical,
            None => &self.topo,
        };
        let route = self
            .transport
            .maybe_reroute(route, spray, now, physical, &mut self.stats)?;
        if let Some(r) =
            self.transport
                .loss_gate(&msg, &route, attempt, &mut self.next_msg, &mut self.stats)?
        {
            let key = self.transport.park(r.retry, route.clone(), r.attempt);
            self.queue.schedule_in(r.backoff, SysEvent::Send(key));
        }
        self.net.send(&mut NetQ(&mut self.queue), msg, route)?;
        Ok(())
    }
}
