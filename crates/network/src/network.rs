//! The server network `N(S, L)`.

use wsflow_model::units::{DollarsPerHour, MbitsPerSec, MegaHertz, Seconds};

use crate::error::NetError;
use crate::ids::{LinkId, RegionId, ServerId};
use crate::link::Link;
use crate::server::Server;

/// A hint recording how the network was constructed.
///
/// The deployment algorithms specialise per topology (Fig. 2 of the
/// paper: Line–Line, Line–Bus, Graph–Bus), and the simulator uses the
/// hint to decide whether links contend individually (line) or share a
/// single medium (bus).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyKind {
    /// Servers chained `S₁ — S₂ — … — S_N`.
    Line,
    /// All servers attached to one shared bus; every pair communicates
    /// at the same speed and the medium is shared.
    Bus,
    /// All servers attached to a central hub server (`S₀`).
    Star,
    /// Servers arranged in a cycle.
    Ring,
    /// Every pair of servers connected by a dedicated link.
    FullMesh,
    /// Anything hand-built.
    Custom,
}

impl std::fmt::Display for TopologyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            TopologyKind::Line => "line",
            TopologyKind::Bus => "bus",
            TopologyKind::Star => "star",
            TopologyKind::Ring => "ring",
            TopologyKind::FullMesh => "full-mesh",
            TopologyKind::Custom => "custom",
        };
        f.write_str(s)
    }
}

/// A network of servers: nodes with computational power, undirected links
/// with throughput and propagation delay.
#[derive(Debug, Clone)]
pub struct Network {
    name: String,
    servers: Vec<Server>,
    links: Vec<Link>,
    kind: TopologyKind,
    /// For [`TopologyKind::Bus`]: the shared medium speed. Stored so the
    /// simulator can model bus contention without inferring it from
    /// links.
    bus_speed: Option<MbitsPerSec>,
    /// Inter-region one-way latency surcharge, row-major
    /// `[from · region_side + to]`. Empty means "no geo model": every
    /// transfer behaves exactly as before the regions extension — the
    /// legacy bit-identical path.
    region_latency: Vec<Seconds>,
    /// Side length of `region_latency` (0 when absent).
    region_side: u32,
    /// Derived CSR adjacency: `adj_links[adj_off[s] .. adj_off[s + 1]]`
    /// = links incident to server `s`, in ascending link id. Two flat
    /// arrays instead of per-server `Vec`s keep the routing and
    /// evaluation loops cache-linear.
    adj_off: Vec<u32>,
    adj_links: Vec<LinkId>,
}

/// Identity excludes the derived adjacency index: two networks
/// describing the same servers and links are equal regardless of their
/// mutation history.
impl PartialEq for Network {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.servers == other.servers
            && self.links == other.links
            && self.kind == other.kind
            && self.bus_speed == other.bus_speed
            && self.region_latency == other.region_latency
    }
}

impl Network {
    /// Build a network from parts, verifying sanity: unique names,
    /// finite positive powers and speeds, finite non-negative
    /// propagation delays, valid endpoints, no self-links or duplicate
    /// links.
    pub fn new(
        name: impl Into<String>,
        servers: Vec<Server>,
        links: Vec<Link>,
        kind: TopologyKind,
    ) -> Result<Self, NetError> {
        if servers.is_empty() {
            return Err(NetError::Empty);
        }
        let mut names = std::collections::HashSet::with_capacity(servers.len());
        for (i, s) in servers.iter().enumerate() {
            if !names.insert(s.name.as_str()) {
                return Err(NetError::DuplicateName(s.name.clone()));
            }
            if !finite_positive(s.power.value()) {
                return Err(NetError::BadPower {
                    server: ServerId::from(i),
                    power: s.power.value(),
                });
            }
        }
        check_links(servers.len(), &links)?;
        for (i, s) in servers.iter().enumerate() {
            if !s.price.is_finite() || s.price.value() < 0.0 {
                return Err(NetError::BadPrice {
                    server: ServerId::from(i),
                    price: s.price.value(),
                });
            }
        }
        let mut net = Self {
            name: name.into(),
            servers,
            links,
            kind,
            bus_speed: None,
            region_latency: Vec::new(),
            region_side: 0,
            adj_off: Vec::new(),
            adj_links: Vec::new(),
        };
        net.reindex();
        Ok(net)
    }

    /// Attach an inter-region latency matrix (builder style).
    ///
    /// `rows[a][b]` is the one-way latency surcharge a transfer pays for
    /// crossing from region `a` to region `b`, added on top of the link
    /// path's transmission time. The matrix must cover every region a
    /// server mentions, be symmetric with a zero diagonal, and contain
    /// only finite non-negative entries.
    pub fn with_region_latency(mut self, rows: Vec<Vec<Seconds>>) -> Result<Self, NetError> {
        let r = rows.len();
        if r < self.num_regions() {
            return Err(NetError::BadRegionLatency(format!(
                "matrix covers {r} regions but servers mention {}",
                self.num_regions()
            )));
        }
        let mut flat = Vec::with_capacity(r * r);
        for (a, row) in rows.iter().enumerate() {
            if row.len() != r {
                return Err(NetError::BadRegionLatency(format!(
                    "row {a} has {} entries, expected {r}",
                    row.len()
                )));
            }
            for (b, &lat) in row.iter().enumerate() {
                if !lat.is_finite() || lat.value() < 0.0 {
                    return Err(NetError::BadRegionLatency(format!(
                        "entry [{a}][{b}] = {} is not finite and non-negative",
                        lat.value()
                    )));
                }
                if a == b && !lat.is_zero() {
                    return Err(NetError::BadRegionLatency(format!(
                        "diagonal entry [{a}][{a}] = {} must be zero",
                        lat.value()
                    )));
                }
                if rows[b][a] != lat {
                    return Err(NetError::BadRegionLatency(format!(
                        "asymmetric: [{a}][{b}] = {} but [{b}][{a}] = {}",
                        lat.value(),
                        rows[b][a].value()
                    )));
                }
                flat.push(lat);
            }
        }
        self.region_latency = flat;
        self.region_side = r as u32;
        Ok(self)
    }

    /// Change a server's computational power.
    pub fn set_server_power(&mut self, s: ServerId, power: MegaHertz) -> Result<(), NetError> {
        if !finite_positive(power.value()) {
            return Err(NetError::BadPower {
                server: s,
                power: power.value(),
            });
        }
        if s.index() >= self.servers.len() {
            return Err(NetError::UnknownServer(s));
        }
        self.servers[s.index()].power = power;
        Ok(())
    }

    /// Change a link's throughput.
    pub fn set_link_speed(&mut self, l: LinkId, speed: MbitsPerSec) -> Result<(), NetError> {
        let Some(link) = self.links.get_mut(l.index()) else {
            return Err(NetError::UnknownLink(l));
        };
        if !finite_positive(speed.value()) {
            return Err(NetError::BadSpeed {
                a: link.a,
                b: link.b,
                speed: speed.value(),
            });
        }
        link.speed = speed;
        Ok(())
    }

    /// Change a server's hourly price.
    pub fn set_server_price(&mut self, s: ServerId, price: DollarsPerHour) -> Result<(), NetError> {
        if !price.is_finite() || price.value() < 0.0 {
            return Err(NetError::BadPrice {
                server: s,
                price: price.value(),
            });
        }
        if s.index() >= self.servers.len() {
            return Err(NetError::UnknownServer(s));
        }
        self.servers[s.index()].price = price;
        Ok(())
    }

    /// Build the CSR adjacency index. Counting sort over the link arena;
    /// each server's slice lists its incident links in ascending link id
    /// (the insertion order).
    fn reindex(&mut self) {
        let n = self.servers.len();
        let mut off = vec![0u32; n + 1];
        for l in &self.links {
            off[l.a.index() + 1] += 1;
            off[l.b.index() + 1] += 1;
        }
        for i in 0..n {
            off[i + 1] += off[i];
        }
        let mut flat = vec![LinkId::new(0); self.links.len() * 2];
        let mut cursor = off.clone();
        for (i, l) in self.links.iter().enumerate() {
            let id = LinkId::from(i);
            for s in [l.a, l.b] {
                let c = &mut cursor[s.index()];
                flat[*c as usize] = id;
                *c += 1;
            }
        }
        self.adj_off = off;
        self.adj_links = flat;
    }

    pub(crate) fn set_bus_speed(&mut self, speed: MbitsPerSec) {
        self.bus_speed = Some(speed);
    }

    /// The network's name.
    #[inline]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// How the network was constructed.
    #[inline]
    pub fn kind(&self) -> TopologyKind {
        self.kind
    }

    /// For bus networks, the shared medium speed.
    #[inline]
    pub fn bus_speed(&self) -> Option<MbitsPerSec> {
        self.bus_speed
    }

    /// Number of servers `N`.
    #[inline]
    pub fn num_servers(&self) -> usize {
        self.servers.len()
    }

    /// Number of links `|L|`.
    #[inline]
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// The server with the given id.
    #[inline]
    pub fn server(&self, id: ServerId) -> &Server {
        &self.servers[id.index()]
    }

    /// The link with the given id.
    #[inline]
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.index()]
    }

    /// All servers, in id order.
    #[inline]
    pub fn servers(&self) -> &[Server] {
        &self.servers
    }

    /// All links, in id order.
    #[inline]
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Iterator over all server ids.
    pub fn server_ids(&self) -> impl ExactSizeIterator<Item = ServerId> {
        (0..self.servers.len() as u32).map(ServerId::new)
    }

    /// Iterator over all link ids.
    pub fn link_ids(&self) -> impl ExactSizeIterator<Item = LinkId> {
        (0..self.links.len() as u32).map(LinkId::new)
    }

    /// Links incident to `s` (a contiguous CSR slice, in ascending link
    /// id — the insertion order).
    #[inline]
    pub fn incident(&self, s: ServerId) -> &[LinkId] {
        &self.adj_links[self.adj_off[s.index()] as usize..self.adj_off[s.index() + 1] as usize]
    }

    /// Neighbouring servers of `s`.
    pub fn neighbors(&self, s: ServerId) -> impl Iterator<Item = ServerId> + '_ {
        self.incident(s)
            .iter()
            .filter_map(move |&l| self.links[l.index()].opposite(s))
    }

    /// Degree of `s`.
    #[inline]
    pub fn degree(&self, s: ServerId) -> usize {
        (self.adj_off[s.index() + 1] - self.adj_off[s.index()]) as usize
    }

    /// The link between `a` and `b`, if present (either orientation).
    pub fn find_link(&self, a: ServerId, b: ServerId) -> Option<LinkId> {
        self.incident(a)
            .iter()
            .copied()
            .find(|&l| self.links[l.index()].opposite(a) == Some(b))
    }

    /// Number of regions: one more than the highest region id any
    /// server mentions (servers default to region 0, so a classic
    /// network has exactly one region).
    pub fn num_regions(&self) -> usize {
        self.servers
            .iter()
            .map(|s| s.region.index() + 1)
            .max()
            .unwrap_or(1)
    }

    /// `true` if an inter-region latency matrix is attached. When
    /// absent, transfers pay no region surcharge and the network is
    /// bit-identical to the pre-geo model.
    #[inline]
    pub fn has_region_latency(&self) -> bool {
        !self.region_latency.is_empty()
    }

    /// One-way latency surcharge for a transfer from region `a` to
    /// region `b` (zero when no matrix is attached).
    #[inline]
    pub fn region_latency(&self, a: RegionId, b: RegionId) -> Seconds {
        if self.region_latency.is_empty() {
            return Seconds::ZERO;
        }
        self.region_latency[a.index() * self.region_side as usize + b.index()]
    }

    /// Latency surcharge between the regions of two servers (zero when
    /// no matrix is attached). This is the term routing and the
    /// communication matrix fold into every cross-region transfer.
    #[inline]
    pub fn server_region_latency(&self, a: ServerId, b: ServerId) -> Seconds {
        if self.region_latency.is_empty() {
            return Seconds::ZERO;
        }
        self.region_latency(
            self.servers[a.index()].region,
            self.servers[b.index()].region,
        )
    }

    /// Total computational capacity `Σ P(Sᵢ)` — the paper's
    /// `Sum_Capacity`.
    pub fn total_capacity(&self) -> MegaHertz {
        self.servers.iter().map(|s| s.power).sum()
    }

    /// Look up a server id by name.
    pub fn server_by_name(&self, name: &str) -> Option<ServerId> {
        self.servers
            .iter()
            .position(|s| s.name == name)
            .map(ServerId::from)
    }

    /// `true` if every server can reach every other (ignoring direction —
    /// links are undirected).
    pub fn is_connected(&self) -> bool {
        if self.servers.is_empty() {
            return true;
        }
        let mut seen = vec![false; self.servers.len()];
        let mut stack = vec![ServerId::new(0)];
        seen[0] = true;
        let mut count = 1;
        while let Some(u) = stack.pop() {
            for v in self.neighbors(u) {
                if !seen[v.index()] {
                    seen[v.index()] = true;
                    count += 1;
                    stack.push(v);
                }
            }
        }
        count == self.servers.len()
    }
}

/// Validate `links` over `n` servers and return the first faulty link's
/// error, in link order: an unknown endpoint, a self-link, a duplicate
/// of an earlier link (either orientation), a speed that is not finite
/// and positive, or a negative or non-finite propagation delay —
/// checked in that order within each link.
///
/// Duplicates are found without hashing. A stable counting sort groups
/// the links by their smaller endpoint, keeping link order inside each
/// group; within a group, a larger endpoint already stamped with the
/// group's id marks a duplicate. The smallest such link index is the
/// first duplicate in link order. Links with an unknown endpoint or a
/// self-link are left out of the groups: the ordered pass stops at the
/// first of them, so no later duplicate can be reported past it. Memory
/// is `O(N + L)`.
fn check_links(n: usize, links: &[Link]) -> Result<(), NetError> {
    let grouped = |l: &Link| l.a.index() < n && l.b.index() < n && l.a != l.b;
    let mut off = vec![0u32; n + 1];
    for l in links.iter().filter(|l| grouped(l)) {
        off[l.canonical().0.index() + 1] += 1;
    }
    for i in 0..n {
        off[i + 1] += off[i];
    }
    let mut order = vec![0u32; off[n] as usize];
    for (i, l) in links.iter().enumerate().filter(|(_, l)| grouped(l)) {
        let c = &mut off[l.canonical().0.index()];
        order[*c as usize] = i as u32;
        *c += 1;
    }
    // The fill advanced each group's start to its end, which is the
    // next group's start: group `lo` now spans `off[lo - 1]..off[lo]`.
    let mut stamp = vec![0u32; n];
    let mut first_dup = links.len();
    let mut start = 0;
    for (lo, &end) in off[..n].iter().enumerate() {
        for &i in &order[start as usize..end as usize] {
            let hi = links[i as usize].canonical().1.index();
            if stamp[hi] == lo as u32 + 1 {
                first_dup = first_dup.min(i as usize);
            }
            stamp[hi] = lo as u32 + 1;
        }
        start = end;
    }
    for (i, l) in links.iter().enumerate() {
        if l.a.index() >= n {
            return Err(NetError::UnknownServer(l.a));
        }
        if l.b.index() >= n {
            return Err(NetError::UnknownServer(l.b));
        }
        if l.a == l.b {
            return Err(NetError::SelfLink(l.a));
        }
        if i == first_dup {
            let (a, b) = l.canonical();
            return Err(NetError::DuplicateLink(a, b));
        }
        if !finite_positive(l.speed.value()) {
            return Err(NetError::BadSpeed {
                a: l.a,
                b: l.b,
                speed: l.speed.value(),
            });
        }
        if !(l.propagation.is_finite() && l.propagation.value() >= 0.0) {
            return Err(NetError::BadPropagation {
                a: l.a,
                b: l.b,
                propagation: l.propagation.value(),
            });
        }
    }
    Ok(())
}

/// The validity rule for server powers and link speeds: finite and
/// strictly positive (so NaN and `inf` both fail).
fn finite_positive(x: f64) -> bool {
    x.is_finite() && x > 0.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsflow_model::units::Seconds;

    fn two_servers() -> Vec<Server> {
        vec![Server::with_ghz("s0", 1.0), Server::with_ghz("s1", 2.0)]
    }

    #[test]
    fn basic_accessors() {
        let net = Network::new(
            "n",
            two_servers(),
            vec![Link::new(
                ServerId::new(0),
                ServerId::new(1),
                MbitsPerSec(100.0),
            )],
            TopologyKind::Line,
        )
        .unwrap();
        assert_eq!(net.name(), "n");
        assert_eq!(net.num_servers(), 2);
        assert_eq!(net.num_links(), 1);
        assert_eq!(net.kind(), TopologyKind::Line);
        assert_eq!(net.total_capacity(), MegaHertz(3000.0));
        assert_eq!(net.server_by_name("s1"), Some(ServerId::new(1)));
        assert_eq!(net.server_by_name("zz"), None);
        assert_eq!(net.degree(ServerId::new(0)), 1);
        assert_eq!(
            net.neighbors(ServerId::new(0)).collect::<Vec<_>>(),
            vec![ServerId::new(1)]
        );
        assert!(net.find_link(ServerId::new(1), ServerId::new(0)).is_some());
        assert!(net.is_connected());
    }

    #[test]
    fn rejects_empty() {
        assert_eq!(
            Network::new("n", vec![], vec![], TopologyKind::Custom).unwrap_err(),
            NetError::Empty
        );
    }

    #[test]
    fn rejects_bad_power() {
        for power in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let err = Network::new(
                "n",
                vec![Server::new("s", MegaHertz(power))],
                vec![],
                TopologyKind::Custom,
            )
            .unwrap_err();
            assert!(matches!(err, NetError::BadPower { .. }), "{power}");
        }
    }

    #[test]
    fn rejects_zero_speed_link() {
        let err = Network::new(
            "n",
            two_servers(),
            vec![Link::new(
                ServerId::new(0),
                ServerId::new(1),
                MbitsPerSec(0.0),
            )],
            TopologyKind::Line,
        )
        .unwrap_err();
        assert!(matches!(err, NetError::BadSpeed { .. }));
    }

    #[test]
    fn rejects_duplicate_link_in_either_orientation() {
        let err = Network::new(
            "n",
            two_servers(),
            vec![
                Link::new(ServerId::new(0), ServerId::new(1), MbitsPerSec(10.0)),
                Link::new(ServerId::new(1), ServerId::new(0), MbitsPerSec(20.0)),
            ],
            TopologyKind::Custom,
        )
        .unwrap_err();
        assert_eq!(
            err,
            NetError::DuplicateLink(ServerId::new(0), ServerId::new(1))
        );
    }

    #[test]
    fn rejects_self_link_and_unknown_server() {
        let err = Network::new(
            "n",
            two_servers(),
            vec![Link::new(
                ServerId::new(0),
                ServerId::new(0),
                MbitsPerSec(10.0),
            )],
            TopologyKind::Custom,
        )
        .unwrap_err();
        assert_eq!(err, NetError::SelfLink(ServerId::new(0)));
        let err = Network::new(
            "n",
            two_servers(),
            vec![Link::new(
                ServerId::new(0),
                ServerId::new(9),
                MbitsPerSec(10.0),
            )],
            TopologyKind::Custom,
        )
        .unwrap_err();
        assert_eq!(err, NetError::UnknownServer(ServerId::new(9)));
    }

    #[test]
    fn rejects_duplicate_names() {
        let err = Network::new(
            "n",
            vec![Server::with_ghz("s", 1.0), Server::with_ghz("s", 2.0)],
            vec![],
            TopologyKind::Custom,
        )
        .unwrap_err();
        assert_eq!(err, NetError::DuplicateName("s".into()));
    }

    #[test]
    fn disconnected_network_detected() {
        let net = Network::new(
            "n",
            vec![
                Server::with_ghz("a", 1.0),
                Server::with_ghz("b", 1.0),
                Server::with_ghz("c", 1.0),
            ],
            vec![Link::new(
                ServerId::new(0),
                ServerId::new(1),
                MbitsPerSec(10.0),
            )],
            TopologyKind::Custom,
        )
        .unwrap();
        assert!(!net.is_connected());
    }

    #[test]
    fn setters_mutate_in_place_and_reject_bad_values() {
        let mut net = Network::new(
            "n",
            two_servers(),
            vec![Link::new(
                ServerId::new(0),
                ServerId::new(1),
                MbitsPerSec(100.0),
            )],
            TopologyKind::Line,
        )
        .unwrap();
        net.set_server_power(ServerId::new(0), MegaHertz(500.0))
            .unwrap();
        net.set_link_speed(LinkId::new(0), MbitsPerSec(10.0))
            .unwrap();
        assert_eq!(net.server(ServerId::new(0)).power, MegaHertz(500.0));
        assert_eq!(net.link(LinkId::new(0)).speed, MbitsPerSec(10.0));

        // The setters share the constructor's rule: finite and positive.
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                net.set_server_power(ServerId::new(0), MegaHertz(bad)),
                Err(NetError::BadPower { .. })
            ));
            assert!(matches!(
                net.set_link_speed(LinkId::new(0), MbitsPerSec(bad)),
                Err(NetError::BadSpeed { .. })
            ));
        }
        assert_eq!(
            net.set_link_speed(LinkId::new(9), MbitsPerSec(1.0)),
            Err(NetError::UnknownLink(LinkId::new(9)))
        );
        assert_eq!(
            net.set_server_power(ServerId::new(9), MegaHertz(1.0)),
            Err(NetError::UnknownServer(ServerId::new(9)))
        );

        // Equality ignores mutation history: a freshly built copy of the
        // mutated network compares equal.
        let rebuilt = Network::new(
            "n",
            vec![
                Server::new("s0", MegaHertz(500.0)),
                Server::with_ghz("s1", 2.0),
            ],
            vec![Link::new(
                ServerId::new(0),
                ServerId::new(1),
                MbitsPerSec(10.0),
            )],
            TopologyKind::Line,
        )
        .unwrap();
        assert_eq!(rebuilt, net);
    }

    #[test]
    fn region_latency_matrix_validates_and_folds() {
        use crate::ids::{RegionId, ZoneId};
        let servers = vec![
            Server::with_ghz("us0", 1.0).in_region(RegionId::new(0), ZoneId::new(0)),
            Server::with_ghz("eu0", 2.0).in_region(RegionId::new(1), ZoneId::new(0)),
        ];
        let link = Link::new(ServerId::new(0), ServerId::new(1), MbitsPerSec(100.0));
        let net = Network::new(
            "geo",
            servers.clone(),
            vec![link.clone()],
            TopologyKind::Line,
        )
        .unwrap();
        assert_eq!(net.num_regions(), 2);
        assert!(!net.has_region_latency());
        assert_eq!(
            net.server_region_latency(ServerId::new(0), ServerId::new(1)),
            Seconds::ZERO
        );

        let lat = vec![
            vec![Seconds::ZERO, Seconds(0.08)],
            vec![Seconds(0.08), Seconds::ZERO],
        ];
        let net = net.with_region_latency(lat).unwrap();
        assert!(net.has_region_latency());
        assert_eq!(
            net.server_region_latency(ServerId::new(0), ServerId::new(1)),
            Seconds(0.08)
        );
        assert_eq!(
            net.server_region_latency(ServerId::new(1), ServerId::new(1)),
            Seconds::ZERO
        );

        // Too small, asymmetric, and non-zero-diagonal matrices are all
        // rejected.
        let small = Network::new("g", servers.clone(), vec![link.clone()], TopologyKind::Line)
            .unwrap()
            .with_region_latency(vec![vec![Seconds::ZERO]]);
        assert!(matches!(small, Err(NetError::BadRegionLatency(_))));
        let asym = Network::new("g", servers.clone(), vec![link.clone()], TopologyKind::Line)
            .unwrap()
            .with_region_latency(vec![
                vec![Seconds::ZERO, Seconds(0.1)],
                vec![Seconds(0.2), Seconds::ZERO],
            ]);
        assert!(matches!(asym, Err(NetError::BadRegionLatency(_))));
        let diag = Network::new("g", servers, vec![link], TopologyKind::Line)
            .unwrap()
            .with_region_latency(vec![
                vec![Seconds(0.1), Seconds(0.1)],
                vec![Seconds(0.1), Seconds::ZERO],
            ]);
        assert!(matches!(diag, Err(NetError::BadRegionLatency(_))));
    }

    #[test]
    fn prices_validate_and_mutate() {
        use wsflow_model::units::DollarsPerHour;
        let mut net = Network::new(
            "n",
            vec![
                Server::with_ghz("s0", 1.0).priced(DollarsPerHour(0.25)),
                Server::with_ghz("s1", 2.0),
            ],
            vec![Link::new(
                ServerId::new(0),
                ServerId::new(1),
                MbitsPerSec(100.0),
            )],
            TopologyKind::Line,
        )
        .unwrap();
        assert_eq!(net.server(ServerId::new(0)).price, DollarsPerHour(0.25));
        net.set_server_price(ServerId::new(1), DollarsPerHour(0.75))
            .unwrap();
        assert_eq!(net.server(ServerId::new(1)).price, DollarsPerHour(0.75));
        assert!(matches!(
            net.set_server_price(ServerId::new(0), DollarsPerHour(-1.0)),
            Err(NetError::BadPrice { .. })
        ));
        assert!(matches!(
            net.set_server_price(ServerId::new(9), DollarsPerHour(1.0)),
            Err(NetError::UnknownServer(_))
        ));

        // Construction rejects negative prices too.
        let err = Network::new(
            "n",
            vec![Server::with_ghz("s0", 1.0).priced(DollarsPerHour(f64::NAN))],
            vec![],
            TopologyKind::Custom,
        )
        .unwrap_err();
        assert!(matches!(err, NetError::BadPrice { .. }));
    }

    /// The hashing duplicate check [`check_links`] replaced: one
    /// `HashSet` of canonical endpoint pairs, filled in link order.
    fn oracle_check_links(n: usize, links: &[Link]) -> Result<(), NetError> {
        let mut seen = std::collections::HashSet::with_capacity(links.len());
        for l in links {
            if l.a.index() >= n {
                return Err(NetError::UnknownServer(l.a));
            }
            if l.b.index() >= n {
                return Err(NetError::UnknownServer(l.b));
            }
            if l.a == l.b {
                return Err(NetError::SelfLink(l.a));
            }
            if !seen.insert(l.canonical()) {
                let (a, b) = l.canonical();
                return Err(NetError::DuplicateLink(a, b));
            }
            if l.speed.value() <= 0.0 || l.speed.value().is_nan() || l.speed.value().is_infinite() {
                return Err(NetError::BadSpeed {
                    a: l.a,
                    b: l.b,
                    speed: l.speed.value(),
                });
            }
            let p = l.propagation.value();
            if p < 0.0 || p.is_nan() || p.is_infinite() {
                return Err(NetError::BadPropagation {
                    a: l.a,
                    b: l.b,
                    propagation: p,
                });
            }
        }
        Ok(())
    }

    /// A seeded link list over `n` servers: random distinct pairs, then
    /// (at random positions) duplicates in either orientation, self-links,
    /// unknown endpoints, bad speeds and bad propagation delays. Faults stack, so one list often
    /// holds several and only the first in link order may be reported.
    fn faulty_links(rng: &mut crate::test_rng::Rng, n: usize) -> Vec<Link> {
        let sid = |i: usize| ServerId::from(i);
        let mut links: Vec<Link> = Vec::new();
        for a in 0..n {
            for b in a + 1..n {
                if rng.chance(0.4) {
                    let (x, y) = if rng.chance(0.5) { (a, b) } else { (b, a) };
                    links.push(Link::new(sid(x), sid(y), MbitsPerSec(10.0)));
                }
            }
        }
        for _ in 0..rng.below(4) {
            let at = rng.below(links.len() + 1);
            let fault = match rng.below(5) {
                0 if !links.is_empty() => {
                    let l = &links[rng.below(links.len())];
                    let (a, b) = if rng.chance(0.5) {
                        (l.a, l.b)
                    } else {
                        (l.b, l.a)
                    };
                    Link::new(a, b, MbitsPerSec(rng.pick(&[20.0, 0.0])))
                }
                1 => {
                    let s = sid(rng.below(n));
                    Link::new(s, s, MbitsPerSec(10.0))
                }
                2 => Link::new(sid(rng.below(n)), sid(n + rng.below(3)), MbitsPerSec(10.0)),
                3 => {
                    let (a, b) = (rng.below(n), rng.below(n));
                    Link::new(
                        sid(a),
                        sid(b),
                        MbitsPerSec(rng.pick(&[0.0, -1.0, f64::NAN, f64::INFINITY])),
                    )
                }
                _ => {
                    let (a, b) = (rng.below(n), rng.below(n));
                    Link::new(sid(a), sid(b), MbitsPerSec(10.0)).with_propagation(Seconds(
                        rng.pick(&[-0.001, f64::NAN, f64::INFINITY, 0.0, 0.002]),
                    ))
                }
            };
            links.insert(at, fault);
        }
        links
    }

    /// `check_links` must return exactly what the hashing check did —
    /// `Ok`, or the first faulty link's error with the same variant and
    /// payload — and `Network::new` must surface it unchanged.
    #[test]
    fn link_check_matches_the_hashing_oracle() {
        let mut rng = crate::test_rng::Rng(0xD0_B1E);
        let mut variants = std::collections::BTreeMap::new();
        for case in 0..3_000 {
            let n = 1 + rng.below(12);
            let links = faulty_links(&mut rng, n);
            // Debug strings compare a NaN speed as equal to itself.
            let want = format!("{:?}", oracle_check_links(n, &links));
            assert_eq!(
                format!("{:?}", check_links(n, &links)),
                want,
                "case {case}: {links:?}"
            );
            let built = Network::new(
                "n",
                crate::topology::homogeneous_servers(n, 1.0),
                links,
                TopologyKind::Custom,
            );
            assert_eq!(format!("{:?}", built.map(|_| ())), want, "case {case}");
            let variant = want.strip_prefix("Err(").unwrap_or("Ok");
            let variant = variant.split(['(', ' ']).next().unwrap_or_default();
            *variants.entry(variant.to_string()).or_insert(0) += 1;
        }
        for v in [
            "Ok",
            "UnknownServer",
            "SelfLink",
            "DuplicateLink",
            "BadSpeed",
            "BadPropagation",
        ] {
            assert!(variants.get(v).copied().unwrap_or(0) > 50, "{variants:?}");
        }
        // A full 150-server bus, clean and with one duplicate appended.
        let bus = |n: usize| {
            let mut links = Vec::new();
            for a in 0..n {
                for b in a + 1..n {
                    links.push(Link::new(
                        ServerId::from(a),
                        ServerId::from(b),
                        MbitsPerSec(100.0),
                    ));
                }
            }
            links
        };
        let mut links = bus(150);
        assert_eq!(check_links(150, &links), Ok(()));
        links.push(Link::new(
            ServerId::new(149),
            ServerId::new(3),
            MbitsPerSec(100.0),
        ));
        assert_eq!(
            check_links(150, &links),
            Err(NetError::DuplicateLink(
                ServerId::new(3),
                ServerId::new(149)
            ))
        );
        assert_eq!(check_links(150, &links), oracle_check_links(150, &links));
    }
}
