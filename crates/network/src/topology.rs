//! Topology constructors: line, bus, star, ring, full mesh.
//!
//! The paper evaluates Line and Bus server topologies (Fig. 2); the
//! remaining constructors exist for the routing substrate and for
//! extension experiments.

use wsflow_model::units::{MbitsPerSec, Seconds};

use crate::error::NetError;
use crate::ids::ServerId;
use crate::link::Link;
use crate::network::{Network, TopologyKind};
use crate::server::Server;

/// A line `S₁ — S₂ — … — S_N` with per-link speeds.
///
/// `speeds.len()` must be `servers.len() - 1`; pass uniform speeds via
/// [`line_uniform`] if per-link control is not needed.
pub fn line(
    name: impl Into<String>,
    servers: Vec<Server>,
    speeds: &[MbitsPerSec],
) -> Result<Network, NetError> {
    if servers.len() < 2 {
        return Err(NetError::TooFewServers {
            needed: 2,
            got: servers.len(),
        });
    }
    assert_eq!(
        speeds.len(),
        servers.len() - 1,
        "line topology needs exactly N-1 link speeds"
    );
    let links = speeds
        .iter()
        .enumerate()
        .map(|(i, &s)| Link::new(ServerId::from(i), ServerId::from(i + 1), s))
        .collect();
    Network::new(name, servers, links, TopologyKind::Line)
}

/// A line with a uniform link speed.
pub fn line_uniform(
    name: impl Into<String>,
    servers: Vec<Server>,
    speed: MbitsPerSec,
) -> Result<Network, NetError> {
    let n = servers.len();
    if n < 2 {
        return Err(NetError::TooFewServers { needed: 2, got: n });
    }
    line(name, servers, &vec![speed; n - 1])
}

/// A bus: all servers share one medium of the given speed.
///
/// Modelled as pairwise links of the shared speed (so routing is a single
/// hop between any pair, matching the paper's "the communication cost
/// between every pair of servers is considered the same"), with the
/// shared speed additionally recorded for contention modelling.
pub fn bus(
    name: impl Into<String>,
    servers: Vec<Server>,
    speed: MbitsPerSec,
) -> Result<Network, NetError> {
    let n = servers.len();
    if n < 2 {
        return Err(NetError::TooFewServers { needed: 2, got: n });
    }
    let mut links = Vec::with_capacity(n * (n - 1) / 2);
    for i in 0..n {
        for j in (i + 1)..n {
            links.push(Link::new(ServerId::from(i), ServerId::from(j), speed));
        }
    }
    let mut net = Network::new(name, servers, links, TopologyKind::Bus)?;
    net.set_bus_speed(speed);
    Ok(net)
}

/// A [`bus`] of servers `s0..s{n-1}` rated `ghz[i]` GHz: the pool
/// `wsflow deploy --servers` and `wsflowd`'s inline specs describe. Its
/// inputs determine the network completely, so callers may key a cache
/// of it on their bits.
pub fn ghz_bus(
    name: impl Into<String>,
    ghz: &[f64],
    speed: MbitsPerSec,
) -> Result<Network, NetError> {
    let servers = ghz
        .iter()
        .enumerate()
        .map(|(i, &g)| Server::with_ghz(format!("s{i}"), g))
        .collect();
    bus(name, servers, speed)
}

/// A star with `servers[0]` as the hub.
pub fn star(
    name: impl Into<String>,
    servers: Vec<Server>,
    speed: MbitsPerSec,
) -> Result<Network, NetError> {
    let n = servers.len();
    if n < 2 {
        return Err(NetError::TooFewServers { needed: 2, got: n });
    }
    let links = (1..n)
        .map(|i| Link::new(ServerId::new(0), ServerId::from(i), speed))
        .collect();
    Network::new(name, servers, links, TopologyKind::Star)
}

/// A ring `S₁ — S₂ — … — S_N — S₁`.
pub fn ring(
    name: impl Into<String>,
    servers: Vec<Server>,
    speed: MbitsPerSec,
) -> Result<Network, NetError> {
    let n = servers.len();
    if n < 3 {
        return Err(NetError::TooFewServers { needed: 3, got: n });
    }
    let mut links: Vec<Link> = (0..n - 1)
        .map(|i| Link::new(ServerId::from(i), ServerId::from(i + 1), speed))
        .collect();
    links.push(Link::new(ServerId::from(n - 1), ServerId::new(0), speed));
    Network::new(name, servers, links, TopologyKind::Ring)
}

/// A full mesh with uniform link speed and propagation delay.
pub fn full_mesh(
    name: impl Into<String>,
    servers: Vec<Server>,
    speed: MbitsPerSec,
    propagation: Seconds,
) -> Result<Network, NetError> {
    let n = servers.len();
    if n < 2 {
        return Err(NetError::TooFewServers { needed: 2, got: n });
    }
    let mut links = Vec::with_capacity(n * (n - 1) / 2);
    for i in 0..n {
        for j in (i + 1)..n {
            links.push(
                Link::new(ServerId::from(i), ServerId::from(j), speed)
                    .with_propagation(propagation),
            );
        }
    }
    Network::new(name, servers, links, TopologyKind::FullMesh)
}

/// Infer the topology class from a network's structure, ignoring the
/// constructor hint. Useful for validating hand-built networks (the
/// Line–Line algorithm family insists on genuine line networks).
///
/// Classification (checked in order, for `n` servers and `m` links):
/// full mesh with uniform speed and a recorded bus speed is reported by
/// the hint already, so this looks purely at shape: a path graph is
/// `Line`, a cycle is `Ring`, a star is `Star`, a complete graph is
/// `FullMesh`, anything else `Custom`. Networks with fewer than three
/// servers are ambiguous (a 2-node path is also complete); the path
/// interpretation wins.
pub fn classify(net: &Network) -> TopologyKind {
    let n = net.num_servers();
    let m = net.num_links();
    if n == 1 {
        return if m == 0 {
            TopologyKind::Line
        } else {
            TopologyKind::Custom
        };
    }
    let degrees: Vec<usize> = net.server_ids().map(|s| net.degree(s)).collect();
    let ones = degrees.iter().filter(|&&d| d == 1).count();
    let twos = degrees.iter().filter(|&&d| d == 2).count();
    if !net.is_connected() {
        return TopologyKind::Custom;
    }
    // Path: exactly two endpoints of degree 1, the rest degree 2.
    if m == n - 1 && ones == 2 && twos == n - 2 {
        return TopologyKind::Line;
    }
    // Star: one hub of degree n-1, all leaves degree 1.
    if m == n - 1 && ones == n - 1 && degrees.iter().any(|&d| d == n - 1) {
        return TopologyKind::Star;
    }
    // Ring: all degree 2 and exactly n links.
    if m == n && twos == n {
        return TopologyKind::Ring;
    }
    // Complete graph: bus networks record their shared speed, full
    // meshes do not.
    if m == n * (n - 1) / 2 && degrees.iter().all(|&d| d == n - 1) {
        return if net.bus_speed().is_some() {
            TopologyKind::Bus
        } else {
            TopologyKind::FullMesh
        };
    }
    TopologyKind::Custom
}

/// Convenience: `n` homogeneous servers named `s0..s{n-1}`, each with the
/// given power in GHz.
pub fn homogeneous_servers(n: usize, ghz: f64) -> Vec<Server> {
    (0..n)
        .map(|i| Server::with_ghz(format!("s{i}"), ghz))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_topology() {
        let net = line(
            "l",
            homogeneous_servers(4, 1.0),
            &[MbitsPerSec(10.0), MbitsPerSec(100.0), MbitsPerSec(1000.0)],
        )
        .unwrap();
        assert_eq!(net.kind(), TopologyKind::Line);
        assert_eq!(net.num_links(), 3);
        assert_eq!(net.degree(ServerId::new(0)), 1);
        assert_eq!(net.degree(ServerId::new(1)), 2);
        assert!(net.is_connected());
        assert!(net.bus_speed().is_none());
    }

    #[test]
    fn line_uniform_topology() {
        let net = line_uniform("l", homogeneous_servers(3, 2.0), MbitsPerSec(100.0)).unwrap();
        assert_eq!(net.num_links(), 2);
        for l in net.links() {
            assert_eq!(l.speed, MbitsPerSec(100.0));
        }
    }

    #[test]
    fn bus_topology() {
        let net = bus("b", homogeneous_servers(5, 1.0), MbitsPerSec(100.0)).unwrap();
        assert_eq!(net.kind(), TopologyKind::Bus);
        assert_eq!(net.num_links(), 10); // C(5,2)
        assert_eq!(net.bus_speed(), Some(MbitsPerSec(100.0)));
        // Every pair directly connected.
        for a in net.server_ids() {
            for b in net.server_ids() {
                if a != b {
                    assert!(net.find_link(a, b).is_some());
                }
            }
        }
    }

    #[test]
    fn ghz_bus_names_and_rates_its_servers() {
        let net = ghz_bus("pool", &[1.0, 2.5, 3.0], MbitsPerSec(10.0)).unwrap();
        let by_hand = bus(
            "pool",
            vec![
                Server::with_ghz("s0", 1.0),
                Server::with_ghz("s1", 2.5),
                Server::with_ghz("s2", 3.0),
            ],
            MbitsPerSec(10.0),
        )
        .unwrap();
        assert_eq!(net, by_hand);
        assert!(ghz_bus("pool", &[1.0, f64::NAN], MbitsPerSec(10.0)).is_err());
        assert!(matches!(
            ghz_bus("pool", &[1.0], MbitsPerSec(10.0)),
            Err(NetError::TooFewServers { needed: 2, got: 1 })
        ));
    }

    #[test]
    fn star_topology() {
        let net = star("s", homogeneous_servers(4, 1.0), MbitsPerSec(10.0)).unwrap();
        assert_eq!(net.kind(), TopologyKind::Star);
        assert_eq!(net.degree(ServerId::new(0)), 3);
        assert_eq!(net.degree(ServerId::new(1)), 1);
    }

    #[test]
    fn ring_topology() {
        let net = ring("r", homogeneous_servers(4, 1.0), MbitsPerSec(10.0)).unwrap();
        assert_eq!(net.kind(), TopologyKind::Ring);
        assert_eq!(net.num_links(), 4);
        for s in net.server_ids() {
            assert_eq!(net.degree(s), 2);
        }
    }

    #[test]
    fn full_mesh_topology() {
        let net = full_mesh(
            "m",
            homogeneous_servers(4, 1.0),
            MbitsPerSec(10.0),
            Seconds(0.002),
        )
        .unwrap();
        assert_eq!(net.kind(), TopologyKind::FullMesh);
        assert_eq!(net.num_links(), 6);
        assert_eq!(net.links()[0].propagation, Seconds(0.002));
    }

    #[test]
    fn constructors_reject_too_few_servers() {
        assert!(matches!(
            line_uniform("l", homogeneous_servers(1, 1.0), MbitsPerSec(10.0)),
            Err(NetError::TooFewServers { needed: 2, got: 1 })
        ));
        assert!(matches!(
            bus("b", homogeneous_servers(1, 1.0), MbitsPerSec(10.0)),
            Err(NetError::TooFewServers { .. })
        ));
        assert!(matches!(
            ring("r", homogeneous_servers(2, 1.0), MbitsPerSec(10.0)),
            Err(NetError::TooFewServers { needed: 3, got: 2 })
        ));
    }

    #[test]
    fn classify_recovers_constructor_shapes() {
        let servers = || homogeneous_servers(5, 1.0);
        assert_eq!(
            classify(&line_uniform("l", servers(), MbitsPerSec(10.0)).unwrap()),
            TopologyKind::Line
        );
        assert_eq!(
            classify(&bus("b", servers(), MbitsPerSec(10.0)).unwrap()),
            TopologyKind::Bus
        );
        assert_eq!(
            classify(&star("s", servers(), MbitsPerSec(10.0)).unwrap()),
            TopologyKind::Star
        );
        assert_eq!(
            classify(&ring("r", servers(), MbitsPerSec(10.0)).unwrap()),
            TopologyKind::Ring
        );
        assert_eq!(
            classify(&full_mesh("m", servers(), MbitsPerSec(10.0), Seconds(0.0)).unwrap()),
            TopologyKind::FullMesh
        );
    }

    #[test]
    fn classify_flags_irregular_networks_as_custom() {
        use crate::link::Link;
        use crate::network::Network;
        // A triangle with a dangling node: neither path, star, ring, nor
        // complete.
        let servers = homogeneous_servers(4, 1.0);
        let links = vec![
            Link::new(ServerId::new(0), ServerId::new(1), MbitsPerSec(10.0)),
            Link::new(ServerId::new(1), ServerId::new(2), MbitsPerSec(10.0)),
            Link::new(ServerId::new(2), ServerId::new(0), MbitsPerSec(10.0)),
            Link::new(ServerId::new(2), ServerId::new(3), MbitsPerSec(10.0)),
        ];
        let net = Network::new("odd", servers, links, TopologyKind::Custom).unwrap();
        assert_eq!(classify(&net), TopologyKind::Custom);
        // Disconnected is custom too.
        let net = Network::new(
            "split",
            homogeneous_servers(3, 1.0),
            vec![Link::new(
                ServerId::new(0),
                ServerId::new(1),
                MbitsPerSec(10.0),
            )],
            TopologyKind::Custom,
        )
        .unwrap();
        assert_eq!(classify(&net), TopologyKind::Custom);
    }

    #[test]
    fn homogeneous_server_names_are_unique() {
        let servers = homogeneous_servers(3, 1.5);
        assert_eq!(servers[0].name, "s0");
        assert_eq!(servers[2].name, "s2");
        assert_eq!(servers[1].power.as_ghz(), 1.5);
    }
}
