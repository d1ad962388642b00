//! Dynamic environments: timed mutation events over a network.
//!
//! The deployment problem the paper solves is static, but the premise —
//! finite server power, shared links — only matters because real
//! networks churn. This module is the vocabulary of that churn: an
//! [`EnvEvent`] is one instantaneous environment mutation, a
//! [`Timeline`] is a time-sorted schedule of them, and an [`EnvState`]
//! is a mutable view over a base [`Network`] that applies events and
//! can materialise the *effective* network the environment currently
//! presents (crashed servers at [`CRASHED_POWER`], slowed servers and
//! degraded links at their stretched ratings).
//!
//! Consumers: the simulator replays a timeline mid-run
//! (`wsflow_sim::simulate_dynamic`), and the online controller
//! (`wsflow-dyn`) re-deploys against the effective network.

use wsflow_model::units::{MbitsPerSec, MegaHertz, Seconds};

use crate::ids::{LinkId, ServerId};
use crate::network::Network;

/// Effective power of a crashed server in the *analytic* view.
///
/// Evaluators require strictly positive power, so a crash is modelled
/// as a near-zero rating: any mapping that leaves work on a crashed
/// server evaluates to an enormous (but finite) cost, which is exactly
/// the signal a repair policy needs to move the work off. The
/// simulator models crashes exactly (operations stall); this constant
/// only exists for cost-model evaluation of intermediate mappings.
pub const CRASHED_POWER: MegaHertz = MegaHertz(1e-3);

/// One instantaneous environment mutation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EnvEvent {
    /// The server goes down: operations on it stall (simulator) and its
    /// effective power drops to [`CRASHED_POWER`] (cost model).
    ServerCrash {
        /// The crashed server.
        server: ServerId,
    },
    /// The server comes back at full rating; stalled operations restart.
    ServerRecover {
        /// The recovered server.
        server: ServerId,
    },
    /// The server's effective power is divided by `factor` (≥ 1).
    /// A factor of exactly `1.0` restores the nominal rating.
    ServerSlowdown {
        /// The slowed server.
        server: ServerId,
        /// Power divisor; `1.0` restores.
        factor: f64,
    },
    /// The link's effective throughput is divided by `factor` (≥ 1), so
    /// transfers over it stretch by the same factor.
    LinkDegrade {
        /// The degraded link.
        link: LinkId,
        /// Throughput divisor.
        factor: f64,
    },
    /// The link returns to its nominal throughput.
    LinkRestore {
        /// The restored link.
        link: LinkId,
    },
    /// Background load hits *every* server: all effective powers are
    /// divided by `factor` (≥ 1). A factor of `1.0` ends the surge.
    LoadSurge {
        /// Uniform power divisor; `1.0` restores.
        factor: f64,
    },
    /// Spot-market price surge: hourly prices of every server in the
    /// region are multiplied by `factor` (≥ 1). A factor of exactly
    /// `1.0` restores nominal pricing, like [`EnvEvent::PriceRestore`].
    PriceSurge {
        /// The affected region.
        region: crate::ids::RegionId,
        /// Price multiplier; `1.0` restores.
        factor: f64,
    },
    /// The region's spot prices return to nominal.
    PriceRestore {
        /// The restored region.
        region: crate::ids::RegionId,
    },
}

impl std::fmt::Display for EnvEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EnvEvent::ServerCrash { server } => write!(f, "crash {server}"),
            EnvEvent::ServerRecover { server } => write!(f, "recover {server}"),
            EnvEvent::ServerSlowdown { server, factor } => {
                write!(f, "slowdown {server} x{factor}")
            }
            EnvEvent::LinkDegrade { link, factor } => write!(f, "degrade {link} x{factor}"),
            EnvEvent::LinkRestore { link } => write!(f, "restore {link}"),
            EnvEvent::LoadSurge { factor } => write!(f, "surge x{factor}"),
            EnvEvent::PriceSurge { region, factor } => {
                write!(f, "price-surge {region} x{factor}")
            }
            EnvEvent::PriceRestore { region } => write!(f, "price-restore {region}"),
        }
    }
}

/// An [`EnvEvent`] scheduled at an absolute simulation time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimedEvent {
    /// When the event fires.
    pub at: Seconds,
    /// What happens.
    pub event: EnvEvent,
}

/// A time-sorted schedule of environment events.
///
/// Construction sorts stably by time, so events injected at the same
/// instant keep their declaration order — timelines are fully
/// deterministic inputs.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Timeline {
    events: Vec<TimedEvent>,
}

impl Timeline {
    /// The empty timeline: a dynamic run over it is exactly a static run.
    pub const EMPTY: Timeline = Timeline { events: Vec::new() };

    /// Build a timeline, validating event times (finite, non-negative)
    /// and factors (finite, ≥ 1, or exactly the restoring `1.0`), then
    /// sorting stably by time.
    pub fn new(mut events: Vec<TimedEvent>) -> Result<Self, String> {
        for te in &events {
            let t = te.at.value();
            if !t.is_finite() || t < 0.0 {
                return Err(format!(
                    "event time {t} is not a finite non-negative number"
                ));
            }
            let factor = match te.event {
                EnvEvent::ServerSlowdown { factor, .. }
                | EnvEvent::LinkDegrade { factor, .. }
                | EnvEvent::LoadSurge { factor }
                | EnvEvent::PriceSurge { factor, .. } => Some(factor),
                _ => None,
            };
            if let Some(f) = factor {
                if !f.is_finite() || f < 1.0 {
                    return Err(format!("factor {f} must be finite and >= 1"));
                }
            }
        }
        events.sort_by(|a, b| {
            a.at.value()
                .partial_cmp(&b.at.value())
                .expect("times are finite")
        });
        Ok(Self { events })
    }

    /// The events, sorted by time.
    #[inline]
    pub fn events(&self) -> &[TimedEvent] {
        &self.events
    }

    /// Number of scheduled events.
    #[inline]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when no events are scheduled.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Time of the last event, or zero for an empty timeline.
    pub fn horizon(&self) -> Seconds {
        self.events.last().map(|e| e.at).unwrap_or(Seconds::ZERO)
    }
}

/// A mutable environment view over a base network.
///
/// Tracks which servers are up, per-server slowdown factors, per-link
/// degradation factors, and the global surge factor. The base network
/// itself is never mutated; [`EnvState::effective_network`] materialises
/// a fresh `Network` reflecting the current state whenever a consumer
/// needs to evaluate or re-route against it.
#[derive(Debug, Clone)]
pub struct EnvState {
    base: Network,
    up: Vec<bool>,
    slowdown: Vec<f64>,
    link_factor: Vec<f64>,
    surge: f64,
    /// Per-region spot-price multiplier (1.0 = nominal).
    price_factor: Vec<f64>,
}

impl EnvState {
    /// A nominal environment over `base`: everything up, no slowdowns.
    pub fn new(base: Network) -> Self {
        let n = base.num_servers();
        let l = base.num_links();
        let r = base.num_regions();
        Self {
            base,
            up: vec![true; n],
            slowdown: vec![1.0; n],
            link_factor: vec![1.0; l],
            surge: 1.0,
            price_factor: vec![1.0; r],
        }
    }

    /// The unmodified base network.
    #[inline]
    pub fn base(&self) -> &Network {
        &self.base
    }

    /// Apply one event. Events addressing unknown servers/links are
    /// ignored (a timeline is validated against a network by its
    /// producer, not here).
    pub fn apply(&mut self, event: &EnvEvent) {
        match *event {
            EnvEvent::ServerCrash { server } => {
                if let Some(u) = self.up.get_mut(server.index()) {
                    *u = false;
                }
            }
            EnvEvent::ServerRecover { server } => {
                if let Some(u) = self.up.get_mut(server.index()) {
                    *u = true;
                }
            }
            EnvEvent::ServerSlowdown { server, factor } => {
                if let Some(s) = self.slowdown.get_mut(server.index()) {
                    *s = factor;
                }
            }
            EnvEvent::LinkDegrade { link, factor } => {
                if let Some(f) = self.link_factor.get_mut(link.index()) {
                    *f = factor;
                }
            }
            EnvEvent::LinkRestore { link } => {
                if let Some(f) = self.link_factor.get_mut(link.index()) {
                    *f = 1.0;
                }
            }
            EnvEvent::LoadSurge { factor } => self.surge = factor,
            EnvEvent::PriceSurge { region, factor } => {
                if let Some(p) = self.price_factor.get_mut(region.index()) {
                    *p = factor;
                }
            }
            EnvEvent::PriceRestore { region } => {
                if let Some(p) = self.price_factor.get_mut(region.index()) {
                    *p = 1.0;
                }
            }
        }
    }

    /// `true` if the server is currently up.
    #[inline]
    pub fn is_up(&self, s: ServerId) -> bool {
        self.up[s.index()]
    }

    /// Fraction of servers currently up.
    pub fn up_fraction(&self) -> f64 {
        let up = self.up.iter().filter(|&&u| u).count();
        up as f64 / self.up.len() as f64
    }

    /// Current slowdown factor of a server (1.0 = nominal).
    #[inline]
    pub fn slowdown(&self, s: ServerId) -> f64 {
        self.slowdown[s.index()]
    }

    /// Current degradation factor of a link (1.0 = nominal).
    #[inline]
    pub fn link_factor(&self, l: LinkId) -> f64 {
        self.link_factor[l.index()]
    }

    /// Current global surge factor (1.0 = nominal).
    #[inline]
    pub fn surge(&self) -> f64 {
        self.surge
    }

    /// Current spot-price multiplier of a region (1.0 = nominal).
    #[inline]
    pub fn price_factor(&self, r: crate::ids::RegionId) -> f64 {
        self.price_factor[r.index()]
    }

    /// `true` when the environment is exactly nominal: everything up,
    /// every factor 1.0.
    pub fn is_nominal(&self) -> bool {
        self.up.iter().all(|&u| u)
            && self.slowdown.iter().all(|&f| f == 1.0)
            && self.link_factor.iter().all(|&f| f == 1.0)
            && self.surge == 1.0
            && self.price_factor.iter().all(|&f| f == 1.0)
    }

    /// Materialise the network the environment currently presents:
    /// crashed servers at [`CRASHED_POWER`], slowed/surged servers and
    /// degraded links at their divided ratings.
    pub fn effective_network(&self) -> Network {
        let mut net = self.base.clone();
        for s in self.base.server_ids() {
            let nominal = self.base.server(s).power;
            let power = if !self.up[s.index()] {
                CRASHED_POWER
            } else {
                let divisor = self.slowdown[s.index()] * self.surge;
                if divisor == 1.0 {
                    continue;
                }
                nominal / divisor
            };
            net.set_server_power(s, power)
                .expect("derived powers are positive");
        }
        for l in self.base.link_ids() {
            let factor = self.link_factor[l.index()];
            if factor == 1.0 {
                continue;
            }
            let speed = self.base.link(l).speed;
            net.set_link_speed(l, MbitsPerSec(speed.value() / factor))
                .expect("derived speeds are positive");
        }
        for s in self.base.server_ids() {
            let region = self.base.server(s).region;
            let factor = self.price_factor[region.index()];
            if factor == 1.0 {
                continue;
            }
            let nominal = self.base.server(s).price;
            net.set_server_price(s, nominal * factor)
                .expect("derived prices are non-negative");
        }
        net
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{bus, homogeneous_servers};

    fn net() -> Network {
        bus("b", homogeneous_servers(3, 1.0), MbitsPerSec(100.0)).unwrap()
    }

    #[test]
    fn timeline_sorts_stably_and_validates() {
        let t = Timeline::new(vec![
            TimedEvent {
                at: Seconds(2.0),
                event: EnvEvent::LoadSurge { factor: 2.0 },
            },
            TimedEvent {
                at: Seconds(1.0),
                event: EnvEvent::ServerCrash {
                    server: ServerId::new(0),
                },
            },
            TimedEvent {
                at: Seconds(1.0),
                event: EnvEvent::ServerRecover {
                    server: ServerId::new(1),
                },
            },
        ])
        .unwrap();
        assert_eq!(t.len(), 3);
        assert_eq!(t.horizon(), Seconds(2.0));
        // Stable: the two t=1 events keep declaration order.
        assert!(matches!(t.events()[0].event, EnvEvent::ServerCrash { .. }));
        assert!(matches!(
            t.events()[1].event,
            EnvEvent::ServerRecover { .. }
        ));

        assert!(Timeline::new(vec![TimedEvent {
            at: Seconds(-1.0),
            event: EnvEvent::LoadSurge { factor: 2.0 },
        }])
        .is_err());
        assert!(Timeline::new(vec![TimedEvent {
            at: Seconds(0.0),
            event: EnvEvent::LoadSurge { factor: 0.5 },
        }])
        .is_err());
        assert!(Timeline::EMPTY.is_empty());
        assert_eq!(Timeline::EMPTY.horizon(), Seconds::ZERO);
    }

    #[test]
    fn env_state_applies_and_materialises() {
        let base = net();
        let mut env = EnvState::new(base.clone());
        assert!(env.is_nominal());
        assert_eq!(env.effective_network(), base);

        env.apply(&EnvEvent::ServerCrash {
            server: ServerId::new(1),
        });
        env.apply(&EnvEvent::ServerSlowdown {
            server: ServerId::new(0),
            factor: 2.0,
        });
        env.apply(&EnvEvent::LinkDegrade {
            link: LinkId::new(0),
            factor: 4.0,
        });
        assert!(!env.is_nominal());
        assert!(!env.is_up(ServerId::new(1)));
        assert!((env.up_fraction() - 2.0 / 3.0).abs() < 1e-12);

        let eff = env.effective_network();
        assert_eq!(eff.server(ServerId::new(1)).power, CRASHED_POWER);
        assert_eq!(
            eff.server(ServerId::new(0)).power,
            base.server(ServerId::new(0)).power / 2.0
        );
        assert_eq!(
            eff.link(LinkId::new(0)).speed,
            MbitsPerSec(base.link(LinkId::new(0)).speed.value() / 4.0)
        );

        env.apply(&EnvEvent::ServerRecover {
            server: ServerId::new(1),
        });
        env.apply(&EnvEvent::ServerSlowdown {
            server: ServerId::new(0),
            factor: 1.0,
        });
        env.apply(&EnvEvent::LinkRestore {
            link: LinkId::new(0),
        });
        assert!(env.is_nominal());
        assert_eq!(env.effective_network(), base);
    }

    #[test]
    fn price_surge_multiplies_the_region_and_restores() {
        use crate::ids::{RegionId, ZoneId};
        use crate::server::Server;
        use wsflow_model::units::DollarsPerHour;
        let servers = vec![
            Server::with_ghz("us0", 1.0).priced(DollarsPerHour(0.10)),
            Server::with_ghz("eu0", 1.0)
                .in_region(RegionId::new(1), ZoneId::new(0))
                .priced(DollarsPerHour(0.20)),
        ];
        let base = bus("geo", servers, MbitsPerSec(100.0)).unwrap();
        let mut env = EnvState::new(base.clone());
        assert!(env.is_nominal());

        env.apply(&EnvEvent::PriceSurge {
            region: RegionId::new(1),
            factor: 3.0,
        });
        assert!(!env.is_nominal());
        assert_eq!(env.price_factor(RegionId::new(1)), 3.0);
        let eff = env.effective_network();
        assert_eq!(eff.server(ServerId::new(0)).price, DollarsPerHour(0.10));
        assert_eq!(
            eff.server(ServerId::new(1)).price,
            DollarsPerHour(0.20) * 3.0
        );
        // Powers and links are untouched by a pure price event.
        assert_eq!(eff.server(ServerId::new(1)).power, MegaHertz(1000.0));

        env.apply(&EnvEvent::PriceRestore {
            region: RegionId::new(1),
        });
        assert!(env.is_nominal());
        assert_eq!(env.effective_network(), base);

        // Unknown regions are ignored, factors < 1 rejected by Timeline.
        env.apply(&EnvEvent::PriceSurge {
            region: RegionId::new(9),
            factor: 2.0,
        });
        assert!(env.is_nominal());
        assert!(Timeline::new(vec![TimedEvent {
            at: Seconds(0.0),
            event: EnvEvent::PriceSurge {
                region: RegionId::new(0),
                factor: 0.5,
            },
        }])
        .is_err());
    }

    #[test]
    fn surge_divides_every_server() {
        let base = net();
        let mut env = EnvState::new(base.clone());
        env.apply(&EnvEvent::LoadSurge { factor: 4.0 });
        let eff = env.effective_network();
        for s in base.server_ids() {
            assert_eq!(eff.server(s).power, base.server(s).power / 4.0);
        }
        env.apply(&EnvEvent::LoadSurge { factor: 1.0 });
        assert!(env.is_nominal());
    }
}
