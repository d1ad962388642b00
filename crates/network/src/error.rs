//! Error types for network construction.

use std::fmt;

use crate::ids::{LinkId, ServerId};

/// Errors raised while constructing a [`Network`](crate::Network).
#[derive(Debug, Clone, PartialEq)]
pub enum NetError {
    /// A link references a server id outside `0..num_servers`.
    UnknownServer(ServerId),
    /// A mutation addressed a link id outside `0..num_links`.
    UnknownLink(LinkId),
    /// A link connects a server to itself.
    SelfLink(ServerId),
    /// Two links share the same endpoint pair.
    DuplicateLink(ServerId, ServerId),
    /// Two servers share a name.
    DuplicateName(String),
    /// The network has no servers.
    Empty,
    /// A link's speed is not finite and positive — transmission time
    /// would be infinite, zero or negative.
    BadSpeed {
        /// One endpoint of the offending link.
        a: ServerId,
        /// The other endpoint.
        b: ServerId,
        /// The offending speed value in Mbps.
        speed: f64,
    },
    /// A server's computational power is not finite and positive.
    BadPower {
        /// The offending server.
        server: ServerId,
        /// The offending power value in MHz.
        power: f64,
    },
    /// The requested topology constructor needs at least this many
    /// servers.
    TooFewServers {
        /// Minimum servers required.
        needed: usize,
        /// Servers actually provided.
        got: usize,
    },
    /// A link has a negative or non-finite propagation delay.
    BadPropagation {
        /// One endpoint of the offending link.
        a: ServerId,
        /// The other endpoint.
        b: ServerId,
        /// The offending delay in seconds.
        propagation: f64,
    },
    /// A server has a negative or non-finite hourly price.
    BadPrice {
        /// The offending server.
        server: ServerId,
        /// The offending price in $/h.
        price: f64,
    },
    /// The inter-region latency matrix is malformed (wrong size,
    /// asymmetric, non-zero diagonal, or non-finite/negative entries).
    BadRegionLatency(String),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::UnknownServer(id) => write!(f, "link references unknown server {id}"),
            NetError::UnknownLink(id) => write!(f, "mutation references unknown link {id}"),
            NetError::SelfLink(id) => write!(f, "server {id} linked to itself"),
            NetError::DuplicateLink(a, b) => write!(f, "duplicate link {a} -- {b}"),
            NetError::DuplicateName(n) => write!(f, "duplicate server name {n:?}"),
            NetError::Empty => f.write_str("network has no servers"),
            NetError::BadSpeed { a, b, speed } => {
                write!(
                    f,
                    "link {a} -- {b} has non-finite or non-positive speed {speed} Mbps"
                )
            }
            NetError::BadPower { server, power } => {
                write!(
                    f,
                    "server {server} has non-finite or non-positive power {power} MHz"
                )
            }
            NetError::BadPropagation { a, b, propagation } => {
                write!(
                    f,
                    "link {a} -- {b} has invalid propagation delay {propagation} s"
                )
            }
            NetError::TooFewServers { needed, got } => {
                write!(f, "topology needs at least {needed} servers, got {got}")
            }
            NetError::BadPrice { server, price } => {
                write!(f, "server {server} has invalid price {price} $/h")
            }
            NetError::BadRegionLatency(why) => {
                write!(f, "bad inter-region latency matrix: {why}")
            }
        }
    }
}

impl std::error::Error for NetError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        let e = NetError::BadSpeed {
            a: ServerId::new(0),
            b: ServerId::new(1),
            speed: 0.0,
        };
        assert!(e.to_string().contains("non-positive speed"));
        let e = NetError::BadPropagation {
            a: ServerId::new(0),
            b: ServerId::new(1),
            propagation: f64::INFINITY,
        };
        assert!(e.to_string().contains("invalid propagation delay inf s"));
        assert!(NetError::Empty.to_string().contains("no servers"));
    }
}
