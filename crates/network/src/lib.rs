//! # wsflow-net — server network model
//!
//! The infrastructure side of the deployment problem: a network
//! `N(S, L)` of servers with computational power `P(s)` connected by
//! links with throughput `Line_Speed(s, s')` and propagation delay
//! `Tprop(s, s')` (Table 1 of the paper).
//!
//! Main entry points:
//!
//! * [`Network`] — the graph; construct with [`Network::new`] or a
//!   [`topology`] constructor ([`topology::line`], [`topology::bus`], …).
//! * [`RoutingTable`] — deterministic all-pairs shortest-path routes and
//!   message transfer times.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod dynamics;
pub mod error;
pub mod ids;
pub mod link;
pub mod network;
pub mod routing;
pub mod server;
#[cfg(test)]
mod test_rng;
pub mod topology;

pub use dynamics::{EnvEvent, EnvState, TimedEvent, Timeline, CRASHED_POWER};
pub use error::NetError;
pub use ids::{LinkId, RegionId, ServerId, ZoneId};
pub use link::Link;
pub use network::{Network, TopologyKind};
pub use routing::{Path, RoutingCache, RoutingTable};
pub use server::Server;
pub use topology::classify;
