//! End-to-end simulator configuration (Table III).

use astra_collectives::Algorithm;
use astra_network::{FaultPlan, NetworkConfig};
use astra_system::{BackendKind, SchedulingPolicy, SystemConfig};
use astra_topology::{LogicalTopology, TopologyError};
use serde::{Deserialize, Serialize};
use std::str::FromStr;

/// The logical topology rows of Table III (`topology`, `num-npus`,
/// `num-packages`, `package-rows`, ring/switch counts) in structured form.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum TopologyConfig {
    /// Hierarchical torus (`Torus2D`/3D in Table III row 8; `M × N × K`).
    Torus {
        /// Local dimension `M` (NAMs per NAP).
        local: usize,
        /// Horizontal dimension `N`.
        horizontal: usize,
        /// Vertical dimension `K`.
        vertical: usize,
        /// Unidirectional intra-package rings (`local-rings`).
        local_rings: usize,
        /// Bidirectional horizontal rings (`horizontal-rings`).
        horizontal_rings: usize,
        /// Bidirectional vertical rings (`vertical-rings`).
        vertical_rings: usize,
    },
    /// Hierarchical alltoall (`AllToAll` in Table III row 8; `M × N`).
    AllToAll {
        /// NAMs per NAP.
        local: usize,
        /// Number of packages.
        packages: usize,
        /// Unidirectional intra-package rings.
        local_rings: usize,
        /// Global switches (`global-switches`).
        switches: usize,
    },
    /// Pods of scale-up torus joined by a scale-out network (§VII future
    /// work, implemented here).
    Pods {
        /// The scale-up pod, as a torus configuration.
        pod: Box<TopologyConfig>,
        /// Number of pods.
        pods: usize,
        /// Scale-out switches.
        switches: usize,
    },
}

impl TopologyConfig {
    /// Builds the logical topology.
    ///
    /// # Errors
    ///
    /// Fails on degenerate shapes (zero sizes, missing rings/switches on
    /// active dimensions).
    pub fn build(&self) -> Result<LogicalTopology, TopologyError> {
        match *self {
            TopologyConfig::Torus {
                local,
                horizontal,
                vertical,
                local_rings,
                horizontal_rings,
                vertical_rings,
            } => LogicalTopology::torus(
                local,
                horizontal,
                vertical,
                local_rings,
                horizontal_rings,
                vertical_rings,
            ),
            TopologyConfig::AllToAll {
                local,
                packages,
                local_rings,
                switches,
            } => LogicalTopology::alltoall(local, packages, local_rings, switches),
            TopologyConfig::Pods {
                ref pod,
                pods,
                switches,
            } => LogicalTopology::pods(pod.build()?, pods, switches),
        }
    }

    /// The shape in the CLI's notation: `MxNxK` (torus), `MxN@S`
    /// (hierarchical alltoall), `MxNxK*P@S` (pods). The inverse of
    /// [`TopologyConfig::from_str`], and the form sweep-point labels use.
    pub fn shape(&self) -> String {
        match *self {
            TopologyConfig::Torus {
                local,
                horizontal,
                vertical,
                ..
            } => format!("{local}x{horizontal}x{vertical}"),
            TopologyConfig::AllToAll {
                local,
                packages,
                switches,
                ..
            } => format!("{local}x{packages}@{switches}"),
            TopologyConfig::Pods {
                ref pod,
                pods,
                switches,
            } => format!("{}*{pods}@{switches}", pod.shape()),
        }
    }
}

/// Parses the CLI's shape notation (see [`TopologyConfig::shape`]). Ring
/// counts take the [`SimConfig::torus`] / [`SimConfig::alltoall`]
/// defaults; errors name the malformed part.
impl FromStr for TopologyConfig {
    type Err = String;

    fn from_str(shape: &str) -> Result<Self, String> {
        if let Some((pod, scale_out)) = shape.split_once('*') {
            let (pods, switches) = scale_out
                .split_once('@')
                .ok_or_else(|| format!("pods shape must be MxNxK*P@S, got '{shape}'"))?;
            let scale_up: TopologyConfig = pod.parse()?;
            let TopologyConfig::Torus { .. } = scale_up else {
                return Err(format!("pods must be built from a torus pod, got '{pod}'"));
            };
            return Ok(TopologyConfig::Pods {
                pod: Box::new(scale_up),
                pods: pods.parse().map_err(|_| "bad pod count")?,
                switches: switches.parse().map_err(|_| "bad scale-out switch count")?,
            });
        }
        if let Some((dims, switches)) = shape.split_once('@') {
            let parts: Vec<&str> = dims.split('x').collect();
            if parts.len() != 2 {
                return Err(format!("alltoall shape must be MxN@S, got '{shape}'"));
            }
            let m: usize = parts[0].parse().map_err(|_| "bad local size")?;
            let n: usize = parts[1].parse().map_err(|_| "bad package count")?;
            let s: usize = switches.parse().map_err(|_| "bad switch count")?;
            Ok(SimConfig::alltoall(m, n, s).topology)
        } else {
            let parts: Vec<&str> = shape.split('x').collect();
            if parts.len() != 3 {
                return Err(format!("torus shape must be MxNxK, got '{shape}'"));
            }
            let m: usize = parts[0].parse().map_err(|_| "bad local size")?;
            let n: usize = parts[1].parse().map_err(|_| "bad horizontal size")?;
            let k: usize = parts[2].parse().map_err(|_| "bad vertical size")?;
            Ok(SimConfig::torus(m, n, k).topology)
        }
    }
}

/// Runs the logical topology on a *different* physical fabric (§IV-B:
/// "map a single logical topology on different physical topologies").
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OverlayConfig {
    /// The physical fabric messages actually traverse. Must have the same
    /// NPU count as the logical topology.
    pub physical: TopologyConfig,
    /// Logical→physical NPU permutation; identity when `None`.
    pub permutation: Option<Vec<usize>>,
}

/// The complete simulator configuration: every parameter of Table III has a
/// home here (workload-level parameters live on the
/// [`astra_workload::Workload`] itself).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Logical topology (Table III rows 4–12).
    pub topology: TopologyConfig,
    /// System-layer parameters (rows 3, 7, 13, 15–16).
    pub system: SystemConfig,
    /// Network parameters (rows 17–28 / Table IV).
    pub network: NetworkConfig,
    /// Which network backend to simulate on.
    pub backend: BackendKind,
    /// Training iterations for [`crate::Simulator::run_training`]
    /// (`num-passes`, row 2).
    pub passes: u32,
    /// Optional logical→physical overlay (§IV-B).
    pub overlay: Option<OverlayConfig>,
    /// Optional deterministic fault plan (link degradation/outage windows,
    /// straggler NPUs, lossy scale-out transport). `None` and an empty plan
    /// are both exactly fault-free.
    pub faults: Option<FaultPlan>,
}

impl SimConfig {
    /// `topology` with default system and network (Table IV) parameters,
    /// the analytical backend and 2 training passes.
    pub fn new(topology: TopologyConfig) -> Self {
        SimConfig {
            topology,
            system: SystemConfig::default(),
            network: NetworkConfig::default(),
            backend: BackendKind::Analytical,
            passes: 2,
            overlay: None,
            faults: None,
        }
    }

    /// A torus fabric with the paper's Table IV ring counts (2 local
    /// unidirectional, 2 bidirectional per inter-package dimension) and
    /// default system/network parameters.
    pub fn torus(local: usize, horizontal: usize, vertical: usize) -> Self {
        SimConfig::new(TopologyConfig::Torus {
            local,
            horizontal,
            vertical,
            local_rings: 2,
            horizontal_rings: 2,
            vertical_rings: 2,
        })
    }

    /// A hierarchical alltoall fabric with 2 local rings and defaults.
    pub fn alltoall(local: usize, packages: usize, switches: usize) -> Self {
        SimConfig::new(TopologyConfig::AllToAll {
            local,
            packages,
            local_rings: 2,
            switches,
        })
    }

    // ------------------------------------------------------------------
    // Fluent builder. Each method consumes and returns `self`, so configs
    // chain from the constructors:
    // `SimConfig::torus(1, 8, 1).horizontal_rings(4).passes(1)`.
    //
    // Topology-shape setters apply to the matching variant (recursing into
    // a pods fabric's scale-up torus) and panic when the configured
    // topology has no such knob — builder misuse is a programming error,
    // not a runtime condition.
    // ------------------------------------------------------------------

    /// Sets the unidirectional intra-package ring count (torus or
    /// alltoall; recurses into a pods fabric's scale-up torus).
    #[must_use]
    pub fn local_rings(mut self, rings: usize) -> Self {
        match topology_leaf(&mut self.topology) {
            TopologyConfig::Torus { local_rings, .. }
            | TopologyConfig::AllToAll { local_rings, .. } => *local_rings = rings,
            TopologyConfig::Pods { .. } => unreachable!("leaf is never pods"),
        }
        self
    }

    /// Sets the bidirectional horizontal ring count.
    ///
    /// # Panics
    ///
    /// Panics when the topology is not a torus (nor pods-of-torus).
    #[must_use]
    pub fn horizontal_rings(mut self, rings: usize) -> Self {
        match topology_leaf(&mut self.topology) {
            TopologyConfig::Torus {
                horizontal_rings, ..
            } => *horizontal_rings = rings,
            other => panic!(
                "horizontal_rings: topology {} has no horizontal dimension",
                other.shape()
            ),
        }
        self
    }

    /// Sets the bidirectional vertical ring count.
    ///
    /// # Panics
    ///
    /// Panics when the topology is not a torus (nor pods-of-torus).
    #[must_use]
    pub fn vertical_rings(mut self, rings: usize) -> Self {
        match topology_leaf(&mut self.topology) {
            TopologyConfig::Torus { vertical_rings, .. } => *vertical_rings = rings,
            other => panic!(
                "vertical_rings: topology {} has no vertical dimension",
                other.shape()
            ),
        }
        self
    }

    /// Sets the global (alltoall) or scale-out (pods) switch count.
    ///
    /// # Panics
    ///
    /// Panics when the topology is a plain torus, which has no switches.
    #[must_use]
    pub fn switches(mut self, count: usize) -> Self {
        match &mut self.topology {
            TopologyConfig::AllToAll { switches, .. } | TopologyConfig::Pods { switches, .. } => {
                *switches = count
            }
            other @ TopologyConfig::Torus { .. } => panic!(
                "switches: topology {} has no switch dimension",
                other.shape()
            ),
        }
        self
    }

    /// Wraps the current torus topology into `pods` pods joined by
    /// `switches` scale-out switches (§VII).
    ///
    /// # Panics
    ///
    /// Panics when the current topology is not a torus.
    #[must_use]
    pub fn pods(mut self, pods: usize, switches: usize) -> Self {
        assert!(
            matches!(self.topology, TopologyConfig::Torus { .. }),
            "pods: scale-up fabric must be a torus, got {}",
            self.topology.shape()
        );
        self.topology = TopologyConfig::Pods {
            pod: Box::new(self.topology),
            pods,
            switches,
        };
        self
    }

    /// Sets the training iteration count (`num-passes`, Table III row 2).
    #[must_use]
    pub fn passes(mut self, passes: u32) -> Self {
        self.passes = passes;
        self
    }

    /// Installs a deterministic fault plan.
    #[must_use]
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Replaces the network parameters wholesale.
    #[must_use]
    pub fn with_network(mut self, network: NetworkConfig) -> Self {
        self.network = network;
        self
    }

    /// Selects the network backend.
    #[must_use]
    pub fn with_backend(mut self, backend: BackendKind) -> Self {
        self.backend = backend;
        self
    }

    /// Selects the multi-phase collective planner variant (Table III
    /// row 3).
    #[must_use]
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.system.algorithm = algorithm;
        self
    }

    /// Selects the ready-queue chunk-scheduling policy (Table III row 7):
    /// LIFO (default), FIFO, or smallest-chunk-first priority.
    #[must_use]
    pub fn scheduling(mut self, policy: SchedulingPolicy) -> Self {
        self.system.scheduling = policy;
        self
    }

    /// Gives intra-package links the inter-package technology ("links with
    /// same BW", the symmetric baselines of Figs 10 and 11).
    #[must_use]
    pub fn symmetric_links(mut self) -> Self {
        self.network.local = self.network.package;
        self
    }

    /// Runs the logical topology over a different physical fabric
    /// (§IV-B).
    #[must_use]
    pub fn with_overlay(mut self, overlay: OverlayConfig) -> Self {
        self.overlay = Some(overlay);
        self
    }
}

/// The topology whose ring knobs shape setters adjust: the config itself,
/// or the scale-up torus inside a pods fabric.
fn topology_leaf(t: &mut TopologyConfig) -> &mut TopologyConfig {
    match t {
        TopologyConfig::Pods { pod, .. } => topology_leaf(pod),
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn torus_config_builds() {
        let c = SimConfig::torus(2, 4, 4);
        let t = c.topology.build().unwrap();
        assert_eq!(t.num_npus(), 32);
        assert_eq!(t.shape_string(), "2x4x4 torus");
    }

    #[test]
    fn alltoall_config_builds() {
        let t = SimConfig::alltoall(1, 8, 7).topology.build().unwrap();
        assert_eq!(t.num_npus(), 8);
        assert_eq!(t.shape_string(), "1x8 alltoall");
    }

    #[test]
    fn bad_shapes_surface_errors() {
        let c = SimConfig {
            topology: TopologyConfig::Torus {
                local: 0,
                horizontal: 1,
                vertical: 1,
                local_rings: 1,
                horizontal_rings: 1,
                vertical_rings: 1,
            },
            ..SimConfig::torus(1, 1, 1)
        };
        assert!(c.topology.build().is_err());
    }

    #[test]
    fn builder_chains_adjust_fields() {
        let c = SimConfig::torus(1, 8, 1)
            .local_rings(1)
            .horizontal_rings(4)
            .vertical_rings(1)
            .passes(3)
            .algorithm(Algorithm::Enhanced)
            .symmetric_links();
        let TopologyConfig::Torus {
            local_rings,
            horizontal_rings,
            vertical_rings,
            ..
        } = c.topology
        else {
            panic!("torus expected");
        };
        assert_eq!((local_rings, horizontal_rings, vertical_rings), (1, 4, 1));
        assert_eq!(c.passes, 3);
        assert_eq!(c.system.algorithm, Algorithm::Enhanced);
        assert_eq!(c.network.local, c.network.package);
    }

    #[test]
    fn builder_reaches_into_pods() {
        let c = SimConfig::torus(1, 4, 1)
            .local_rings(1)
            .horizontal_rings(1)
            .vertical_rings(1)
            .pods(2, 1)
            .horizontal_rings(3);
        assert_eq!(c.topology.shape(), "1x4x1*2@1");
        assert_eq!(c.topology.build().unwrap().num_npus(), 8);
        let TopologyConfig::Pods { pod, .. } = &c.topology else {
            panic!("pods expected");
        };
        let TopologyConfig::Torus {
            horizontal_rings, ..
        } = **pod
        else {
            panic!("torus pod expected");
        };
        assert_eq!(horizontal_rings, 3);
    }

    #[test]
    #[should_panic(expected = "no vertical dimension")]
    fn builder_rejects_mismatched_knob() {
        let _ = SimConfig::alltoall(1, 8, 7).vertical_rings(2);
    }

    #[test]
    fn builder_sets_scheduling_policy() {
        let c = SimConfig::torus(1, 8, 1).scheduling(SchedulingPolicy::Priority);
        assert_eq!(c.system.scheduling, SchedulingPolicy::Priority);
        // Default stays LIFO (Table III row 7).
        assert_eq!(
            SimConfig::torus(1, 8, 1).system.scheduling,
            SchedulingPolicy::Lifo
        );
    }

    #[test]
    fn shapes_round_trip_cli_notation() {
        assert_eq!(SimConfig::torus(2, 4, 4).topology.shape(), "2x4x4");
        assert_eq!(SimConfig::alltoall(4, 16, 4).topology.shape(), "4x16@4");
        for shape in ["2x4x4", "4x16@4", "1x4x1*2@1"] {
            let parsed: TopologyConfig = shape.parse().unwrap();
            assert_eq!(parsed.shape(), shape);
        }
        let pods: TopologyConfig = "1x4x1*2@1".parse().unwrap();
        assert_eq!(pods, SimConfig::torus(1, 4, 1).pods(2, 1).topology);
        assert_eq!("4x16@4".parse(), Ok(SimConfig::alltoall(4, 16, 4).topology));
    }

    #[test]
    fn bad_shapes_name_the_malformed_part() {
        for (shape, err) in [
            ("2x2", "torus shape must be MxNxK, got '2x2'"),
            ("2xbx2", "bad horizontal size"),
            ("2x2x2*2", "pods shape must be MxNxK*P@S, got '2x2x2*2'"),
            (
                "2x2@1*2@1",
                "pods must be built from a torus pod, got '2x2@1'",
            ),
            ("1x2x3*x@1", "bad pod count"),
            ("1x8@", "bad switch count"),
        ] {
            assert_eq!(shape.parse::<TopologyConfig>().unwrap_err(), err, "{shape}");
        }
    }

    #[test]
    fn config_serializes() {
        let c = SimConfig::torus(2, 2, 2);
        let json = serde_json::to_string(&c).unwrap();
        let back: SimConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, c);
    }
}
