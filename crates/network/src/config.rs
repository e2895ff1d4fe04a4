//! Network configuration (the Garnet-level rows of Table III / Table IV).

use astra_des::{Clock, Time};
use astra_topology::LinkClass;
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

/// Why a [`NetworkConfig`] (or one of its [`LinkParams`]) was rejected.
///
/// Each variant carries the offending value so the message tells the user
/// what to fix, not just that something is wrong.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ConfigError {
    /// Bandwidth is zero, negative or non-finite.
    BadBandwidth {
        /// Which link class carried the bad value.
        class: LinkClass,
        /// The offending bandwidth.
        gbps: f64,
    },
    /// Efficiency is outside `(0, 1]`.
    BadEfficiency {
        /// Which link class carried the bad value.
        class: LinkClass,
        /// The offending efficiency.
        efficiency: f64,
    },
    /// Packet size is zero.
    ZeroPacketBytes {
        /// Which link class carried the bad value.
        class: LinkClass,
    },
    /// Flit width is zero (garnet backend).
    ZeroFlitWidth,
    /// No virtual channels configured (garnet backend).
    ZeroVcs,
    /// No flit buffers per VC configured (garnet backend).
    ZeroVcBuffers,
    /// The clock frequency is zero, negative or non-finite.
    BadClock {
        /// The offending frequency in GHz.
        freq_ghz: f64,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::BadBandwidth { class, gbps } => write!(
                f,
                "{class} link bandwidth must be a positive finite GB/s value, got {gbps}"
            ),
            ConfigError::BadEfficiency { class, efficiency } => write!(
                f,
                "{class} link efficiency must be in (0, 1], got {efficiency}"
            ),
            ConfigError::ZeroPacketBytes { class } => {
                write!(f, "{class} link packet size must be at least 1 byte")
            }
            ConfigError::ZeroFlitWidth => write!(f, "flit width must be at least 1 byte"),
            ConfigError::ZeroVcs => write!(f, "need at least one virtual channel per vnet"),
            ConfigError::ZeroVcBuffers => write!(f, "need at least one flit buffer per VC"),
            ConfigError::BadClock { freq_ghz } => write!(
                f,
                "clock freq_ghz must be a positive finite GHz value, got {freq_ghz}"
            ),
        }
    }
}

impl Error for ConfigError {}

/// How packets traverse multi-hop routes (`packet-routing`, Table III
/// row 14).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum RoutingMode {
    /// Software routing: intermediate NPUs relay the whole message
    /// store-and-forward — each hop serializes fully before the next hop
    /// starts. The paper's evaluation setting (§V: "assume software-based
    /// routing").
    #[default]
    Software,
    /// Hardware routing: packets cut through intermediate routers without
    /// NPU involvement — downstream links begin serializing one propagation
    /// latency after the upstream link starts (virtual cut-through at
    /// message granularity).
    Hardware,
}

/// Parameters of one link technology class.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkParams {
    /// Raw bandwidth in GB/s (Table IV: 200 intra-package, 25 inter-package).
    pub gbps: f64,
    /// Propagation latency in cycles (Table IV: 90 intra, 200 inter).
    pub latency: Time,
    /// Data-flit fraction: the ratio of data flits to data+header flits
    /// (`local-link-efficiency` / `package-link-efficiency`, Table III
    /// rows 17–18; Table IV uses 94%).
    pub efficiency: f64,
    /// Packet size in bytes (`local-packet-size` / `package-packet-size`;
    /// Table IV: 512 B intra, 256 B inter). Wire occupancy is rounded up to
    /// whole packets.
    pub packet_bytes: u64,
}

impl LinkParams {
    /// Validates the parameter combination for use as `class` links.
    ///
    /// # Errors
    ///
    /// Rejects zero/negative/non-finite bandwidth, efficiency outside
    /// `(0, 1]`, and zero packet size, naming the offending value.
    pub fn validate(&self, class: LinkClass) -> Result<(), ConfigError> {
        if !(self.gbps.is_finite() && self.gbps > 0.0) {
            return Err(ConfigError::BadBandwidth {
                class,
                gbps: self.gbps,
            });
        }
        if !(self.efficiency > 0.0 && self.efficiency <= 1.0) {
            return Err(ConfigError::BadEfficiency {
                class,
                efficiency: self.efficiency,
            });
        }
        if self.packet_bytes == 0 {
            return Err(ConfigError::ZeroPacketBytes { class });
        }
        Ok(())
    }

    /// Bytes the message occupies on the wire: payload divided by the
    /// data-flit efficiency, rounded up to whole packets.
    pub fn wire_bytes(&self, payload: u64) -> u64 {
        if payload == 0 {
            return 0;
        }
        let raw = (payload as f64 / self.efficiency).ceil() as u64;
        raw.div_ceil(self.packet_bytes) * self.packet_bytes
    }
}

/// Full network configuration shared by both backends.
///
/// Defaults reproduce Table IV of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NetworkConfig {
    /// Clock used to convert GB/s into bytes/cycle.
    pub clock: Clock,
    /// Intra-package link parameters.
    pub local: LinkParams,
    /// Inter-package link parameters.
    pub package: LinkParams,
    /// Scale-out (inter-pod, Ethernet-class) link parameters — §VII future
    /// work. Defaults model 100 GbE: 12.5 GB/s, ~1.5 µs latency with
    /// transport-stack overhead folded in, 1500 B MTU frames.
    pub scale_out: LinkParams,
    /// Flit payload width in bytes (`flit-width`, Table IV: 1024 bits).
    /// Garnet backend only.
    pub flit_bytes: u64,
    /// Virtual channels per virtual network (`vcs_per_vnet`, Table IV: 50).
    /// Garnet backend only.
    pub vcs_per_vnet: usize,
    /// Flit buffers per VC (`buffers-per-vc`, Table IV: 5000). Garnet
    /// backend only.
    pub buffers_per_vc: usize,
    /// Per-hop router pipeline latency (`router-latency`, Table IV: 1
    /// cycle). Garnet backend only.
    pub router_latency: Time,
    /// Multi-hop traversal mode (`packet-routing`, Table III row 14).
    /// Analytical backend only — the garnet backend is inherently
    /// hardware-routed.
    pub routing: RoutingMode,
}

impl NetworkConfig {
    /// Parameters for a link class.
    pub fn link(&self, class: LinkClass) -> &LinkParams {
        match class {
            LinkClass::Local => &self.local,
            LinkClass::Package => &self.package,
            LinkClass::ScaleOut => &self.scale_out,
        }
    }

    /// Validates all parameters.
    ///
    /// # Errors
    ///
    /// Returns the first out-of-range value: a non-positive or non-finite
    /// clock frequency, a bad link parameter (see [`LinkParams::validate`]),
    /// or a zero flit width / VC count / buffer count.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let freq_ghz = self.clock.freq_ghz();
        if !(freq_ghz.is_finite() && freq_ghz > 0.0) {
            return Err(ConfigError::BadClock { freq_ghz });
        }
        self.local.validate(LinkClass::Local)?;
        self.package.validate(LinkClass::Package)?;
        self.scale_out.validate(LinkClass::ScaleOut)?;
        if self.flit_bytes == 0 {
            return Err(ConfigError::ZeroFlitWidth);
        }
        if self.vcs_per_vnet == 0 {
            return Err(ConfigError::ZeroVcs);
        }
        if self.buffers_per_vc == 0 {
            return Err(ConfigError::ZeroVcBuffers);
        }
        Ok(())
    }
}

impl Default for NetworkConfig {
    /// Table IV parameters at a 1 GHz clock.
    fn default() -> Self {
        NetworkConfig {
            clock: Clock::GHZ1,
            local: LinkParams {
                gbps: 200.0,
                latency: Time::from_cycles(90),
                efficiency: 0.94,
                packet_bytes: 512,
            },
            package: LinkParams {
                gbps: 25.0,
                latency: Time::from_cycles(200),
                efficiency: 0.94,
                packet_bytes: 256,
            },
            scale_out: LinkParams {
                gbps: 12.5,
                latency: Time::from_cycles(1_500),
                efficiency: 0.90,
                packet_bytes: 1_500,
            },
            flit_bytes: 1024 / 8,
            vcs_per_vnet: 50,
            buffers_per_vc: 5000,
            router_latency: Time::from_cycles(1),
            routing: RoutingMode::Software,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table_iv() {
        let c = NetworkConfig::default();
        assert_eq!(c.local.gbps, 200.0);
        assert_eq!(c.package.gbps, 25.0);
        assert_eq!(c.local.latency, Time::from_cycles(90));
        assert_eq!(c.package.latency, Time::from_cycles(200));
        assert_eq!(c.local.packet_bytes, 512);
        assert_eq!(c.package.packet_bytes, 256);
        assert_eq!(c.flit_bytes, 128);
        assert_eq!(c.vcs_per_vnet, 50);
        assert_eq!(c.buffers_per_vc, 5000);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn wire_bytes_rounds_to_packets() {
        let p = LinkParams {
            gbps: 25.0,
            latency: Time::from_cycles(1),
            efficiency: 0.5,
            packet_bytes: 100,
        };
        assert_eq!(p.wire_bytes(0), 0);
        // 50 payload bytes / 0.5 = 100 wire bytes = exactly 1 packet.
        assert_eq!(p.wire_bytes(50), 100);
        // 51 payload bytes / 0.5 = 102 -> 2 packets.
        assert_eq!(p.wire_bytes(51), 200);
    }

    #[test]
    fn link_class_selection() {
        let c = NetworkConfig::default();
        assert_eq!(c.link(LinkClass::Local).gbps, 200.0);
        assert_eq!(c.link(LinkClass::Package).gbps, 25.0);
    }

    #[test]
    fn invalid_values_rejected_with_actionable_messages() {
        let mut c = NetworkConfig::default();
        c.local.efficiency = 1.5;
        let err = c.validate().unwrap_err();
        assert_eq!(
            err,
            ConfigError::BadEfficiency {
                class: LinkClass::Local,
                efficiency: 1.5
            }
        );
        assert!(err.to_string().contains("(0, 1]"), "got: {err}");

        let mut c = NetworkConfig::default();
        c.package.gbps = 0.0;
        let err = c.validate().unwrap_err();
        assert!(matches!(
            err,
            ConfigError::BadBandwidth {
                class: LinkClass::Package,
                ..
            }
        ));
        assert!(err.to_string().contains("positive finite"), "got: {err}");

        let mut c = NetworkConfig::default();
        c.scale_out.gbps = -3.0;
        assert!(c.validate().is_err());

        let mut c = NetworkConfig::default();
        c.scale_out.gbps = f64::NAN;
        assert!(c.validate().is_err());

        let mut c = NetworkConfig::default();
        c.local.packet_bytes = 0;
        assert!(matches!(
            c.validate(),
            Err(ConfigError::ZeroPacketBytes {
                class: LinkClass::Local
            })
        ));

        let c = NetworkConfig {
            flit_bytes: 0,
            ..NetworkConfig::default()
        };
        assert_eq!(c.validate(), Err(ConfigError::ZeroFlitWidth));

        let c = NetworkConfig {
            vcs_per_vnet: 0,
            ..NetworkConfig::default()
        };
        assert_eq!(c.validate(), Err(ConfigError::ZeroVcs));

        let c = NetworkConfig {
            buffers_per_vc: 0,
            ..NetworkConfig::default()
        };
        assert_eq!(c.validate(), Err(ConfigError::ZeroVcBuffers));
    }
}
