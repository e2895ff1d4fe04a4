//! Deterministic fault-injection plans.
//!
//! The paper's methodology assumes a pristine fabric; real training clusters
//! see link flaps, bandwidth brown-outs, straggler accelerators and lossy
//! scale-out transport. This module models those as a *plan*: a declarative,
//! seed-keyed schedule of fault events evaluated on the DES clock, so a
//! `(seed, plan)` pair replays cycle-identically.
//!
//! A [`FaultPlan`] carries three orthogonal fault families:
//!
//! * [`LinkFault`] — time windows during which a directed endpoint pair is
//!   either hard-down ([`FaultKind::Down`]) or bandwidth-degraded
//!   ([`FaultKind::Degrade`]). Backends consume these through the compiled
//!   [`LinkWindows`] view installed via
//!   [`Backend::install_link_faults`](crate::Backend::install_link_faults).
//! * [`Straggler`] — a per-NPU compute slowdown factor applied by the
//!   compute/workload layers.
//! * [`LossSpec`] — seeded random message drops on scale-out links, with a
//!   retransmission timeout and exponential backoff, handled by the system
//!   layer.
//!
//! An empty plan is guaranteed to be behaviourally inert: every consumer
//! gates its fault path on emptiness, so simulating with
//! `FaultPlan::default()` is bit-identical to simulating with no plan.

use astra_des::Time;
use astra_topology::NodeId;
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

/// What happens to a link during a fault window.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// The link serves at `factor` × its nominal bandwidth (`0 < factor ≤ 1`).
    Degrade {
        /// Remaining bandwidth fraction.
        factor: f64,
    },
    /// The link is hard-down: no new transmission may start inside the
    /// window (a transmission already serializing continues — the model is a
    /// drained-then-dead link, which keeps replay exact).
    Down,
}

/// One scheduled fault on a directed endpoint pair.
///
/// The fault applies to *every* channel between `from` and `to` (all rings
/// and switch planes), matching how a physical cable or NIC failure takes
/// out every virtual resource multiplexed over it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkFault {
    /// Transmitting endpoint of the affected links.
    pub from: NodeId,
    /// Receiving endpoint of the affected links.
    pub to: NodeId,
    /// Degradation or hard outage.
    pub kind: FaultKind,
    /// Window start (inclusive), in cycles on the DES clock.
    pub start: Time,
    /// Window end (exclusive).
    pub end: Time,
}

/// A persistently slow NPU.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Straggler {
    /// Global NPU index.
    pub npu: usize,
    /// Compute-time multiplier (`≥ 1`); 1.5 means every compute phase on
    /// this NPU takes 50% longer.
    pub slowdown: f64,
}

/// Lossy scale-out transport: seeded drops with timeout + retransmission.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LossSpec {
    /// Probability a message whose route crosses a scale-out link is dropped
    /// (`0 ≤ drop_rate < 1`). Drops consume wire bandwidth — the payload is
    /// lost at the far end, as with a corrupted Ethernet frame.
    pub drop_rate: f64,
    /// Retransmission timeout for the first attempt; attempt *n* waits
    /// `timeout × 2ⁿ` (exponential backoff).
    pub timeout: Time,
    /// Retransmission budget per message. Exhausting it aborts the
    /// simulation with a typed error rather than hanging the collective.
    pub max_retries: u32,
}

/// A deterministic fault-injection schedule.
///
/// Loadable from JSON (`--faults plan.json` on the CLI); a field left out
/// takes its empty default, so `{}` is the empty plan. All randomness —
/// currently only loss decisions — derives from `seed` through the
/// simulator's own seeded RNG, never from ambient entropy.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed for fault randomness (message drops). Two runs with the same
    /// `(seed, plan)` produce identical cycle counts.
    #[serde(default)]
    pub seed: u64,
    /// Link outage / degradation windows.
    #[serde(default)]
    pub link_faults: Vec<LinkFault>,
    /// Per-NPU compute slowdowns.
    #[serde(default)]
    pub stragglers: Vec<Straggler>,
    /// Lossy scale-out transport, if any.
    #[serde(default)]
    pub loss: Option<LossSpec>,
}

impl FaultPlan {
    /// Whether the plan injects nothing at all.
    ///
    /// Consumers gate every fault code path on this, which is what makes an
    /// empty plan bit-identical to running without one.
    pub fn is_empty(&self) -> bool {
        self.link_faults.is_empty() && self.stragglers.is_empty() && self.loss.is_none()
    }

    /// Checks every value range in the plan.
    ///
    /// # Errors
    ///
    /// Returns the first offending entry with an actionable message; see
    /// [`FaultError`].
    pub fn validate(&self) -> Result<(), FaultError> {
        for (index, f) in self.link_faults.iter().enumerate() {
            if f.from == f.to {
                return Err(FaultError::SelfLoop {
                    index,
                    node: f.from,
                });
            }
            if f.start >= f.end {
                return Err(FaultError::BadWindow {
                    index,
                    start: f.start,
                    end: f.end,
                });
            }
            if let FaultKind::Degrade { factor } = f.kind {
                if !factor.is_finite() || factor <= 0.0 || factor > 1.0 {
                    return Err(FaultError::BadFactor { index, factor });
                }
            }
        }
        for s in &self.stragglers {
            if !s.slowdown.is_finite() || s.slowdown < 1.0 {
                return Err(FaultError::BadSlowdown {
                    npu: s.npu,
                    slowdown: s.slowdown,
                });
            }
        }
        if let Some(loss) = &self.loss {
            if !loss.drop_rate.is_finite() || !(0.0..1.0).contains(&loss.drop_rate) {
                return Err(FaultError::BadDropRate {
                    rate: loss.drop_rate,
                });
            }
            if loss.timeout == Time::ZERO {
                return Err(FaultError::ZeroTimeout);
            }
        }
        Ok(())
    }

    /// [`validate`](Self::validate) plus node-range checks against a concrete
    /// platform of `num_npus` NPUs and `num_nodes` network nodes (NPUs
    /// followed by switches).
    ///
    /// # Errors
    ///
    /// Everything [`validate`](Self::validate) rejects, plus any fault
    /// endpoint `≥ num_nodes` and any straggler `≥ num_npus`: link faults
    /// may name switches, stragglers only NPUs.
    pub fn validate_for(&self, num_npus: usize, num_nodes: usize) -> Result<(), FaultError> {
        self.validate()?;
        for f in &self.link_faults {
            for (what, node) in [("link fault source", f.from), ("link fault target", f.to)] {
                if node.index() >= num_nodes {
                    return Err(FaultError::NodeOutOfRange {
                        what,
                        node: node.index(),
                        num_nodes,
                    });
                }
            }
        }
        for s in &self.stragglers {
            if s.npu >= num_npus {
                return Err(FaultError::NodeOutOfRange {
                    what: "straggler",
                    node: s.npu,
                    num_nodes: num_npus,
                });
            }
        }
        Ok(())
    }

    /// Compute-slowdown factor for `npu` (1.0 when not a straggler; factors
    /// multiply if the NPU is listed more than once).
    pub fn compute_slowdown(&self, npu: usize) -> f64 {
        self.stragglers
            .iter()
            .filter(|s| s.npu == npu)
            .map(|s| s.slowdown)
            .product()
    }

    /// Compiles the fault windows affecting the directed pair `from → to`.
    pub fn windows_for(&self, from: NodeId, to: NodeId) -> LinkWindows {
        let mut w = LinkWindows::default();
        for f in &self.link_faults {
            if f.from != from || f.to != to {
                continue;
            }
            match f.kind {
                FaultKind::Down => w.downs.push((f.start, f.end)),
                FaultKind::Degrade { factor } => w.degrades.push((f.start, f.end, factor)),
            }
        }
        w.downs.sort_unstable_by_key(|&(s, e)| (s, e));
        w.degrades.sort_unstable_by_key(|a| (a.0, a.1));
        w
    }

    /// The directed endpoint pairs that are hard-down at `t`, sorted and
    /// deduplicated (the exclusion set for graceful-degradation rerouting).
    pub fn down_pairs_at(&self, t: Time) -> Vec<(NodeId, NodeId)> {
        let mut pairs: Vec<(NodeId, NodeId)> = self
            .link_faults
            .iter()
            .filter(|f| matches!(f.kind, FaultKind::Down) && f.start <= t && t < f.end)
            .map(|f| (f.from, f.to))
            .collect();
        pairs.sort_unstable();
        pairs.dedup();
        pairs
    }
}

/// Compiled fault-window view for one directed link, the form backends
/// query on the hot path.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LinkWindows {
    /// Hard-down windows `[start, end)`, sorted by start.
    downs: Vec<(Time, Time)>,
    /// Degradation windows `(start, end, factor)`, sorted by start.
    degrades: Vec<(Time, Time, f64)>,
}

impl LinkWindows {
    /// Whether this link has no fault windows at all.
    pub fn is_empty(&self) -> bool {
        self.downs.is_empty() && self.degrades.is_empty()
    }

    /// Earliest time `≥ t` at which a transmission may start: skips past
    /// every hard-down window covering the candidate time (windows may abut
    /// or overlap, so the scan continues until a gap is found).
    pub fn release_after(&self, t: Time) -> Time {
        let mut at = t;
        loop {
            let mut moved = false;
            for &(start, end) in &self.downs {
                if start <= at && at < end {
                    at = end;
                    moved = true;
                }
            }
            if !moved {
                return at;
            }
        }
    }

    /// Bandwidth factor in effect at `t`: the minimum over all active
    /// degradation windows, or exactly 1.0 when none is active.
    pub fn factor_at(&self, t: Time) -> f64 {
        let mut factor = 1.0_f64;
        for &(start, end, f) in &self.degrades {
            if start <= t && t < end {
                factor = factor.min(f);
            }
        }
        factor
    }
}

/// Why a [`FaultPlan`] was rejected.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum FaultError {
    /// A fault window has `start ≥ end`.
    BadWindow {
        /// Index into `link_faults`.
        index: usize,
        /// Offending window start.
        start: Time,
        /// Offending window end.
        end: Time,
    },
    /// A degradation factor is outside `(0, 1]`.
    BadFactor {
        /// Index into `link_faults`.
        index: usize,
        /// Offending factor.
        factor: f64,
    },
    /// A link fault names the same node as source and target.
    SelfLoop {
        /// Index into `link_faults`.
        index: usize,
        /// The node in question.
        node: NodeId,
    },
    /// A straggler slowdown is below 1 or non-finite.
    BadSlowdown {
        /// The straggler's NPU index.
        npu: usize,
        /// Offending slowdown.
        slowdown: f64,
    },
    /// The drop rate is outside `[0, 1)`.
    BadDropRate {
        /// Offending rate.
        rate: f64,
    },
    /// The retransmission timeout is zero.
    ZeroTimeout,
    /// A fault references an NPU the platform does not have.
    NodeOutOfRange {
        /// Which field referenced it.
        what: &'static str,
        /// The out-of-range index.
        node: usize,
        /// Platform size.
        num_nodes: usize,
    },
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultError::BadWindow { index, start, end } => write!(
                f,
                "link fault #{index}: window start ({} cyc) must precede end ({} cyc)",
                start.cycles(),
                end.cycles()
            ),
            FaultError::BadFactor { index, factor } => write!(
                f,
                "link fault #{index}: degrade factor {factor} must be in (0, 1]"
            ),
            FaultError::SelfLoop { index, node } => write!(
                f,
                "link fault #{index}: source and target are both {node}; faults apply to directed links between distinct nodes"
            ),
            FaultError::BadSlowdown { npu, slowdown } => write!(
                f,
                "straggler npu {npu}: slowdown {slowdown} must be a finite factor >= 1"
            ),
            FaultError::BadDropRate { rate } => {
                write!(f, "loss drop_rate {rate} must be in [0, 1)")
            }
            FaultError::ZeroTimeout => {
                write!(f, "loss timeout must be at least one cycle")
            }
            FaultError::NodeOutOfRange {
                what,
                node,
                num_nodes,
            } => write!(
                f,
                "{what} references npu {node}, but the platform has only {num_nodes} npus (0..={})",
                num_nodes.saturating_sub(1)
            ),
        }
    }
}

impl Error for FaultError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn cyc(c: u64) -> Time {
        Time::from_cycles(c)
    }

    fn down(from: u64, to: u64, start: u64, end: u64) -> LinkFault {
        LinkFault {
            from: NodeId(from as usize),
            to: NodeId(to as usize),
            kind: FaultKind::Down,
            start: cyc(start),
            end: cyc(end),
        }
    }

    #[test]
    fn empty_plan_is_empty_and_valid() {
        let p = FaultPlan::default();
        assert!(p.is_empty());
        assert!(p.validate().is_ok());
        assert!(p.validate_for(1, 1).is_ok());
        assert_eq!(p.compute_slowdown(0), 1.0);
        assert!(p.windows_for(NodeId(0), NodeId(1)).is_empty());
    }

    #[test]
    fn missing_plan_fields_take_their_empty_defaults() {
        use serde::{Map, Value};
        let parse = |m: Map| FaultPlan::from_value(&Value::Object(m)).unwrap();
        assert_eq!(parse(Map::new()), FaultPlan::default());
        let seeded = parse(Map::from_iter([("seed".into(), 1u64.to_value())]));
        assert_eq!(seeded.seed, 1);
        assert!(seeded.is_empty());
        // Serialization still writes every field.
        let written = seeded.to_value();
        let fields = ["seed", "link_faults", "stragglers", "loss"];
        assert!(
            fields.iter().all(|f| written.get(f).is_some()),
            "{written:?}"
        );
    }

    #[test]
    fn window_ordering_enforced() {
        let p = FaultPlan {
            link_faults: vec![down(0, 1, 50, 50)],
            ..FaultPlan::default()
        };
        let err = p.validate().unwrap_err();
        assert!(matches!(err, FaultError::BadWindow { index: 0, .. }));
        assert!(err.to_string().contains("must precede"));
    }

    #[test]
    fn factor_range_enforced() {
        for bad in [0.0, -0.5, 1.5, f64::NAN] {
            let p = FaultPlan {
                link_faults: vec![LinkFault {
                    kind: FaultKind::Degrade { factor: bad },
                    ..down(0, 1, 0, 10)
                }],
                ..FaultPlan::default()
            };
            assert!(
                matches!(p.validate(), Err(FaultError::BadFactor { .. })),
                "factor {bad} should be rejected"
            );
        }
    }

    #[test]
    fn loss_and_straggler_ranges_enforced() {
        let p = FaultPlan {
            stragglers: vec![Straggler {
                npu: 0,
                slowdown: 0.5,
            }],
            ..FaultPlan::default()
        };
        assert!(matches!(p.validate(), Err(FaultError::BadSlowdown { .. })));

        let p = FaultPlan {
            loss: Some(LossSpec {
                drop_rate: 1.0,
                timeout: cyc(10),
                max_retries: 3,
            }),
            ..FaultPlan::default()
        };
        assert!(matches!(p.validate(), Err(FaultError::BadDropRate { .. })));

        let p = FaultPlan {
            loss: Some(LossSpec {
                drop_rate: 0.1,
                timeout: Time::ZERO,
                max_retries: 3,
            }),
            ..FaultPlan::default()
        };
        assert!(matches!(p.validate(), Err(FaultError::ZeroTimeout)));
    }

    #[test]
    fn node_range_checked_against_platform() {
        let p = FaultPlan {
            link_faults: vec![down(0, 7, 0, 10)],
            ..FaultPlan::default()
        };
        assert!(p.validate().is_ok());
        let err = p.validate_for(4, 4).unwrap_err();
        assert!(matches!(err, FaultError::NodeOutOfRange { node: 7, .. }));
        assert!(err.to_string().contains("only 4 npus"));
        // Link faults may name switches; stragglers only NPUs.
        assert!(p.validate_for(4, 8).is_ok());
        let p = FaultPlan {
            stragglers: vec![Straggler {
                npu: 5,
                slowdown: 2.0,
            }],
            ..FaultPlan::default()
        };
        assert!(p.validate_for(6, 8).is_ok());
        let err = p.validate_for(4, 8).unwrap_err();
        assert!(matches!(
            err,
            FaultError::NodeOutOfRange {
                what: "straggler",
                node: 5,
                num_nodes: 4
            }
        ));
    }

    #[test]
    fn windows_compile_per_directed_pair() {
        let p = FaultPlan {
            link_faults: vec![
                down(0, 1, 100, 200),
                down(1, 0, 300, 400),
                LinkFault {
                    kind: FaultKind::Degrade { factor: 0.25 },
                    ..down(0, 1, 150, 500)
                },
            ],
            ..FaultPlan::default()
        };
        let w01 = p.windows_for(NodeId(0), NodeId(1));
        assert!(!w01.is_empty());
        // Direction matters: 1 -> 0 only has its own down window.
        let w10 = p.windows_for(NodeId(1), NodeId(0));
        assert_eq!(w10.release_after(cyc(300)), cyc(400));
        assert_eq!(w10.factor_at(cyc(350)), 1.0);

        assert_eq!(w01.release_after(cyc(99)), cyc(99));
        assert_eq!(w01.release_after(cyc(100)), cyc(200));
        assert_eq!(w01.release_after(cyc(199)), cyc(200));
        assert_eq!(w01.release_after(cyc(200)), cyc(200)); // end is exclusive
        assert_eq!(w01.factor_at(cyc(149)), 1.0);
        assert_eq!(w01.factor_at(cyc(150)), 0.25);
    }

    #[test]
    fn chained_down_windows_skip_through() {
        let p = FaultPlan {
            link_faults: vec![
                down(0, 1, 0, 100),
                down(0, 1, 100, 250),
                down(0, 1, 200, 300),
            ],
            ..FaultPlan::default()
        };
        let w = p.windows_for(NodeId(0), NodeId(1));
        // Abutting + overlapping windows behave as one outage [0, 300).
        assert_eq!(w.release_after(Time::ZERO), cyc(300));
    }

    #[test]
    fn overlapping_degrades_take_the_minimum() {
        let mk = |f: f64, s: u64, e: u64| LinkFault {
            kind: FaultKind::Degrade { factor: f },
            ..down(0, 1, s, e)
        };
        let p = FaultPlan {
            link_faults: vec![mk(0.5, 0, 100), mk(0.2, 50, 150)],
            ..FaultPlan::default()
        };
        let w = p.windows_for(NodeId(0), NodeId(1));
        assert_eq!(w.factor_at(cyc(25)), 0.5);
        assert_eq!(w.factor_at(cyc(75)), 0.2);
        assert_eq!(w.factor_at(cyc(125)), 0.2);
        assert_eq!(w.factor_at(cyc(150)), 1.0);
    }

    #[test]
    fn down_pairs_reflect_active_windows() {
        let p = FaultPlan {
            link_faults: vec![
                down(0, 1, 0, 100),
                down(2, 3, 50, 150),
                LinkFault {
                    kind: FaultKind::Degrade { factor: 0.5 },
                    ..down(4, 5, 0, 1000)
                },
            ],
            ..FaultPlan::default()
        };
        assert_eq!(p.down_pairs_at(cyc(10)), vec![(NodeId(0), NodeId(1))]);
        assert_eq!(
            p.down_pairs_at(cyc(75)),
            vec![(NodeId(0), NodeId(1)), (NodeId(2), NodeId(3))]
        );
        assert!(
            p.down_pairs_at(cyc(200)).is_empty(),
            "degrades never exclude"
        );
    }

    #[test]
    fn stragglers_multiply() {
        let p = FaultPlan {
            stragglers: vec![
                Straggler {
                    npu: 2,
                    slowdown: 1.5,
                },
                Straggler {
                    npu: 2,
                    slowdown: 2.0,
                },
            ],
            ..FaultPlan::default()
        };
        assert_eq!(p.compute_slowdown(2), 3.0);
        assert_eq!(p.compute_slowdown(0), 1.0);
    }
}
