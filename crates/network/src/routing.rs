//! Routing: all-pairs shortest paths over the server network.
//!
//! The cost model (Table 1 of the paper) defines `Path(s, s')` as the
//! path a message follows and charges each traversed link its
//! transmission plus propagation time. This module answers only which
//! links that path takes; `wsflow_cost::CommMatrix` prices it. For line
//! networks the path is forced; for bus networks every pair is one hop;
//! star/ring/mesh get genuine shortest-path routing.
//!
//! Routes are chosen by Dijkstra with link weight
//! `propagation + 1 Mbit / speed` (a reference message), with ties broken
//! by hop count and then by smallest predecessor (server id, link id), so
//! routing is fully deterministic *and canonical*: the chosen tree is a
//! pure function of the `(distance, hops)` labels, independent of the
//! order links are declared or relaxations happen to run.
//!
//! The computation is two-phase. Phase 1 is Dijkstra producing only the
//! `(dist, hops)` labels. Phase 2 reconstructs predecessors from the
//! labels: each node picks the smallest `(server, link)` among the
//! neighbours that *exactly* achieve its label. An earlier version
//! folded the tie-break into the relaxation itself (rewiring `via` when
//! an equal-cost smaller predecessor appeared); that left settled
//! downstream nodes attached through whichever candidate happened to
//! relax first, so equal-cost routes could differ between runs of the
//! same network expressed with a different link order.
//!
//! Link weights are computed once per table, and two pruning rules skip
//! work that cannot change a route. Both are exact — the labels and the
//! predecessors they leave are bit-identical to the unpruned search:
//!
//! - **Label bound (phase 1).** Once every server holds a label, the
//!   largest label assigned so far is frozen (a relaxation can only
//!   lower a label), and a node `u` with `d_u + w_min` greater than it
//!   cannot lower or tie any label: every relaxation from it yields
//!   `d_u + w ≥ d_u + w_min` (floating-point addition is monotone in
//!   each operand), which is strictly above every current label. Such an
//!   entry has a strictly larger distance than any entry within the
//!   bound, so it pops after all of them and can only end the search.
//!   The search therefore stops at the first such pop, and never pushes
//!   an entry that is already past the bound: a node's pushes wait until
//!   its scan is done, so the test sees the labels the scan left. On a
//!   uniform bus, where every pair is one hop, the source's scan labels
//!   every server and pushes nothing, so each search is a single scan.
//! - **Hop-1 shortcut (phase 2).** A node one hop from the source can
//!   only have the source as a qualifying predecessor (the source is the
//!   only node at hop 0), so all hop-1 nodes are resolved from the
//!   source's own incident list. Only nodes at two or more hops scan
//!   their incident lists. With both rules a uniform bus costs `O(N)`
//!   per source instead of `O(N²)` (`O(N log N)` when unequal link
//!   weights leave entries within the bound); line, star and ring
//!   networks keep their asymptotics.
//!
//! Routes are stored in one flat arena (see [`RoutingTable`]), so a
//! table holds two vectors regardless of `N`: `u32` range offsets and
//! the concatenated links. Reachability is not stored separately — a
//! pair is routable iff it is a self-pair or its range is non-empty.

use std::collections::BinaryHeap;

use wsflow_model::units::Mbits;

use crate::ids::{LinkId, ServerId};
use crate::network::Network;

/// A route between two servers: a borrowed view of the links to
/// traverse, in order, held in the [`RoutingTable`]'s arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Path<'a> {
    links: &'a [LinkId],
}

impl<'a> Path<'a> {
    /// Links traversed, in order from source to destination. Empty for a
    /// path from a server to itself.
    #[inline]
    pub fn links(&self) -> &'a [LinkId] {
        self.links
    }

    /// Number of hops.
    #[inline]
    pub fn hops(&self) -> usize {
        self.links.len()
    }

    /// The servers visited by this path, in order, starting at `from`.
    ///
    /// Links are undirected, so each hop continues from whichever end of
    /// the link the walk is currently on. A same-server path yields just
    /// `[from]`.
    pub fn servers_from(&self, net: &Network, from: ServerId) -> Vec<ServerId> {
        let mut servers = Vec::with_capacity(self.links.len() + 1);
        let mut cur = from;
        servers.push(cur);
        for &l in self.links {
            let link = net.link(l);
            cur = if link.a == cur { link.b } else { link.a };
            servers.push(cur);
        }
        servers
    }

    /// The slowest (minimum-speed) link on the path, if any.
    pub fn bottleneck(&self, net: &Network) -> Option<LinkId> {
        self.links.iter().copied().min_by(|&a, &b| {
            net.link(a)
                .speed
                .partial_cmp(&net.link(b).speed)
                .expect("link speeds are finite")
        })
    }
}

/// Precomputed all-pairs routes for a network.
///
/// Every route lives in one flat arena: the ordered pair
/// `i = from · N + to` owns `links[offsets[i]..offsets[i + 1]]`, and
/// [`path`](Self::path) hands out borrowed [`Path`] views into it. The
/// offsets are `u32` (built with a checked conversion), half the bytes
/// of `usize` ones. A self-pair owns an empty range and routes to
/// itself; any other pair with an empty range is unreachable, since a
/// route between distinct servers has at least one hop.
///
/// # Examples
///
/// ```
/// use wsflow_net::topology::{homogeneous_servers, line_uniform};
/// use wsflow_net::{RoutingTable, ServerId};
/// use wsflow_model::MbitsPerSec;
///
/// let net = line_uniform("l", homogeneous_servers(3, 1.0), MbitsPerSec(10.0)).unwrap();
/// let routes = RoutingTable::new(&net);
/// // A line forces the route: server 0 reaches server 2 in two hops.
/// let path = routes.path(ServerId::new(0), ServerId::new(2)).unwrap();
/// assert_eq!(path.hops(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct RoutingTable {
    n: usize,
    /// Row-major `[from][to]` range starts into `links`, plus one end.
    offsets: Vec<u32>,
    /// Every route's links, concatenated in row-major pair order.
    links: Vec<LinkId>,
}

impl RoutingTable {
    /// Compute routes for every ordered pair of servers.
    pub fn new(net: &Network) -> Self {
        let n = net.num_servers();
        let weights: Vec<f64> = net
            .links()
            .iter()
            .map(|link| (REFERENCE_SIZE / link.speed + link.propagation).value())
            .collect();
        let mut search = Search::new(n, &weights);
        let mut offsets = Vec::with_capacity(n * n + 1);
        // Every distinct pair of a connected network has a route of at
        // least one hop, so `N·(N − 1)` links is exact for a bus and a
        // lower bound for any other connected network (a disconnected
        // one leaves part of the reservation untouched).
        let mut links = Vec::with_capacity(n * n.saturating_sub(1));
        offsets.push(0);
        for src in net.server_ids() {
            search.run(net, src);
            search.append_routes(src, &mut links, &mut offsets);
        }
        Self { n, offsets, links }
    }

    /// The route from `from` to `to`; `None` if unreachable.
    #[inline]
    pub fn path(&self, from: ServerId, to: ServerId) -> Option<Path<'_>> {
        let i = from.index() * self.n + to.index();
        let (start, end) = (self.offsets[i] as usize, self.offsets[i + 1] as usize);
        (from == to || start < end).then(|| Path {
            links: &self.links[start..end],
        })
    }

    /// `true` if every ordered pair is routable.
    pub fn fully_connected(&self) -> bool {
        // The `N` self-pairs always own empty ranges; any other empty
        // range is an unreachable pair.
        let empty = self.offsets.windows(2).filter(|w| w[0] == w[1]).count();
        empty == self.n
    }
}

#[derive(PartialEq)]
struct HeapEntry {
    dist: f64,
    hops: usize,
    server: ServerId,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Min-heap on (dist, hops, id) via reversed comparison.
        other
            .dist
            .partial_cmp(&self.dist)
            .expect("distances are finite")
            .then_with(|| other.hops.cmp(&self.hops))
            .then_with(|| other.server.cmp(&self.server))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

const REFERENCE_SIZE: Mbits = Mbits(1.0);

/// One single-source search, with buffers reused across sources.
struct Search<'w> {
    /// Per-link weight `1 Mbit / speed + propagation`.
    weights: &'w [f64],
    /// The smallest link weight (`∞` for a link-less network).
    w_min: f64,
    dist: Vec<f64>,
    hops: Vec<usize>,
    /// Per server: the `(predecessor, link)` used to arrive there, or
    /// `None` for the source and unreachable nodes.
    via: Vec<Option<(ServerId, LinkId)>>,
    heap: BinaryHeap<HeapEntry>,
    /// Servers whose label the current pop lowered, awaiting a push.
    pending: Vec<ServerId>,
}

impl<'w> Search<'w> {
    fn new(n: usize, weights: &'w [f64]) -> Self {
        Self {
            weights,
            w_min: weights.iter().copied().fold(f64::INFINITY, f64::min),
            dist: vec![f64::INFINITY; n],
            hops: vec![usize::MAX; n],
            via: vec![None; n],
            heap: BinaryHeap::new(),
            pending: Vec::with_capacity(n),
        }
    }

    /// Label every server from `src` and pick canonical predecessors.
    fn run(&mut self, net: &Network, src: ServerId) {
        let Self {
            weights,
            w_min,
            dist,
            hops,
            via,
            heap,
            pending,
        } = self;
        let n = dist.len();
        dist.fill(f64::INFINITY);
        hops.fill(usize::MAX);
        via.fill(None);
        heap.clear();
        dist[src.index()] = 0.0;
        hops[src.index()] = 0;
        heap.push(HeapEntry {
            dist: 0.0,
            hops: 0,
            server: src,
        });
        // Phase 1: `(dist, hops)` labels only. Predecessors are
        // deliberately not tracked here — picking them during relaxation
        // makes the tree depend on relaxation order whenever costs tie.
        let mut labelled = 1;
        let mut max_label = 0.0f64;
        // The label bound (see the module docs), shared by pops and
        // pushes so both apply the same floating-point test.
        let spent = |d: f64, max_label: f64| d + *w_min > max_label;
        while let Some(HeapEntry {
            dist: d,
            hops: h,
            server: u,
        }) = heap.pop()
        {
            if d > dist[u.index()] || (d == dist[u.index()] && h > hops[u.index()]) {
                continue;
            }
            // Label bound (see the module docs): no relaxation from here
            // or from any later pop can lower or tie a label.
            if labelled == n && spent(d, max_label) {
                break;
            }
            for &lid in net.incident(u) {
                let v = net.link(lid).opposite(u).expect("incident link touches u");
                let nd = d + weights[lid.index()];
                let nh = h + 1;
                if nd < dist[v.index()] || (nd == dist[v.index()] && nh < hops[v.index()]) {
                    if dist[v.index()].is_infinite() {
                        labelled += 1;
                    }
                    max_label = max_label.max(nd);
                    dist[v.index()] = nd;
                    hops[v.index()] = nh;
                    pending.push(v);
                }
            }
            // Pushes wait until `u`'s scan is done, so the bound can use
            // its final state (see the module docs). Each neighbour is
            // relaxed at most once per scan, so its label is its entry.
            for v in pending.drain(..) {
                let d = dist[v.index()];
                if labelled < n || !spent(d, max_label) {
                    heap.push(HeapEntry {
                        dist: d,
                        hops: hops[v.index()],
                        server: v,
                    });
                }
            }
        }
        // Phase 2: canonical predecessors from the labels. A neighbour
        // qualifies iff it achieves the node's label exactly (same
        // floating-point arithmetic as phase 1, so the comparison is
        // exact); the smallest `(server, link)` among qualifiers wins.
        // Qualifying predecessors always have a strictly smaller
        // `(dist, hops)` label, so the reconstruction is a proper tree.
        //
        // Hop-1 nodes: the source is the only possible qualifier, and
        // links are never parallel, so one pass over its incident list
        // resolves them all.
        for &lid in net.incident(src) {
            let v = net
                .link(lid)
                .opposite(src)
                .expect("incident link touches src");
            if hops[v.index()] == 1 && dist[src.index()] + weights[lid.index()] == dist[v.index()] {
                via[v.index()] = Some((src, lid));
            }
        }
        for v in net.server_ids() {
            if hops[v.index()] < 2 || dist[v.index()].is_infinite() {
                continue;
            }
            let mut best: Option<(ServerId, LinkId)> = None;
            for &lid in net.incident(v) {
                let u = net.link(lid).opposite(v).expect("incident link touches v");
                if dist[u.index()].is_infinite() {
                    continue;
                }
                let qualifies = dist[u.index()] + weights[lid.index()] == dist[v.index()]
                    && hops[u.index()] + 1 == hops[v.index()];
                if qualifies && best.map(|b| (u, lid) < b).unwrap_or(true) {
                    best = Some((u, lid));
                }
            }
            debug_assert!(
                best.is_some(),
                "reachable node has a qualifying predecessor"
            );
            via[v.index()] = best;
        }
    }

    /// Append the routes `src → dst` of the last [`run`](Self::run),
    /// for every `dst` in id order, to `links`, and each route's end to
    /// `offsets`. The self-route and unreachable servers append nothing.
    fn append_routes(&self, src: ServerId, links: &mut Vec<LinkId>, offsets: &mut Vec<u32>) {
        for (dst, &h) in self.hops.iter().enumerate() {
            match (h, self.via[dst]) {
                // The source, unreachable servers, and (defensively) a
                // server phase 2 left without a predecessor.
                (0 | usize::MAX, _) | (_, None) => {}
                // One-hop routes (every route on a bus) skip the walk.
                (1, Some((_, link))) => links.push(link),
                _ => {
                    let start = links.len();
                    let mut cur = ServerId::from(dst);
                    while cur != src {
                        let Some((prev, link)) = self.via[cur.index()] else {
                            links.truncate(start);
                            break;
                        };
                        links.push(link);
                        cur = prev;
                    }
                    links[start..].reverse();
                }
            }
            offsets.push(u32::try_from(links.len()).expect("route arena fits u32 offsets"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_rng::Rng;
    use crate::topology::{bus, homogeneous_servers, line_uniform, ring, star};
    use wsflow_model::units::{MbitsPerSec, Seconds};

    #[test]
    fn line_routes_are_forced() {
        let net = line_uniform("l", homogeneous_servers(4, 1.0), MbitsPerSec(10.0)).unwrap();
        let rt = RoutingTable::new(&net);
        assert!(rt.fully_connected());
        let p = rt.path(ServerId::new(0), ServerId::new(3)).unwrap();
        assert_eq!(p.hops(), 3);
    }

    #[test]
    fn same_server_route_is_empty() {
        let net = bus("b", homogeneous_servers(3, 1.0), MbitsPerSec(100.0)).unwrap();
        let rt = RoutingTable::new(&net);
        for s in net.server_ids() {
            assert!(rt.path(s, s).unwrap().links().is_empty());
        }
    }

    #[test]
    fn bus_is_always_one_hop() {
        let net = bus("b", homogeneous_servers(5, 1.0), MbitsPerSec(100.0)).unwrap();
        let rt = RoutingTable::new(&net);
        for a in net.server_ids() {
            for b in net.server_ids() {
                if a != b {
                    assert_eq!(rt.path(a, b).unwrap().hops(), 1);
                }
            }
        }
    }

    #[test]
    fn star_routes_via_hub() {
        let net = star("s", homogeneous_servers(4, 1.0), MbitsPerSec(10.0)).unwrap();
        let rt = RoutingTable::new(&net);
        let p = rt.path(ServerId::new(1), ServerId::new(3)).unwrap();
        assert_eq!(p.hops(), 2);
    }

    #[test]
    fn ring_takes_shorter_arc() {
        let net = ring("r", homogeneous_servers(5, 1.0), MbitsPerSec(10.0)).unwrap();
        let rt = RoutingTable::new(&net);
        // 0 → 4 directly via the closing link, not through 1,2,3.
        let p = rt.path(ServerId::new(0), ServerId::new(4)).unwrap();
        assert_eq!(p.hops(), 1);
        let p = rt.path(ServerId::new(0), ServerId::new(2)).unwrap();
        assert_eq!(p.hops(), 2);
    }

    #[test]
    fn routing_prefers_faster_links() {
        // 0 -1000Mbps- 1 -1000Mbps- 2 and a direct slow 0 -1Mbps- 2 link:
        // the two-hop fast route wins for the reference message.
        let servers = homogeneous_servers(3, 1.0);
        let links = vec![
            crate::link::Link::new(ServerId::new(0), ServerId::new(1), MbitsPerSec(1000.0)),
            crate::link::Link::new(ServerId::new(1), ServerId::new(2), MbitsPerSec(1000.0)),
            crate::link::Link::new(ServerId::new(0), ServerId::new(2), MbitsPerSec(1.0)),
        ];
        let net = Network::new("n", servers, links, crate::network::TopologyKind::Custom).unwrap();
        let rt = RoutingTable::new(&net);
        let p = rt.path(ServerId::new(0), ServerId::new(2)).unwrap();
        assert_eq!(p.hops(), 2);
        assert_eq!(p.bottleneck(&net), Some(LinkId::new(0)));
    }

    /// Resolve a path to the sequence of servers it visits, starting at
    /// `src`. Link ids are not comparable across differently-declared
    /// copies of the same network; node sequences are.
    fn node_seq(net: &Network, src: ServerId, path: Path<'_>) -> Vec<ServerId> {
        let mut seq = vec![src];
        let mut cur = src;
        for &lid in path.links() {
            cur = net.link(lid).opposite(cur).expect("path is connected");
            seq.push(cur);
        }
        seq
    }

    /// A 6-server uniform-speed mesh where many equal-cost, equal-hop
    /// routes tie. From 0 to 5 there are four shortest 3-hop paths:
    /// 0-1-2-5, 0-3-2-5, 0-1-4-5, 0-3-4-5.
    fn tie_heavy_net(order: &[usize]) -> Network {
        let servers = homogeneous_servers(6, 1.0);
        let pairs = [
            (0, 1),
            (0, 3),
            (1, 2),
            (1, 4),
            (3, 2),
            (3, 4),
            (2, 5),
            (4, 5),
        ];
        let links: Vec<_> = order
            .iter()
            .map(|&i| {
                let (a, b) = pairs[i];
                crate::link::Link::new(ServerId::new(a), ServerId::new(b), MbitsPerSec(10.0))
            })
            .collect();
        Network::new("tie", servers, links, crate::network::TopologyKind::Custom).unwrap()
    }

    /// Brute-force canonical shortest path: among all simple paths that
    /// achieve the minimum `(dist, hops)`, the one whose *reversed* node
    /// sequence is lexicographically smallest — exactly what picking the
    /// smallest qualifying predecessor per node, destination-first,
    /// produces.
    fn brute_force_canonical(net: &Network, src: ServerId, dst: ServerId) -> Vec<ServerId> {
        fn dfs(
            net: &Network,
            cur: ServerId,
            dst: ServerId,
            seq: &mut Vec<ServerId>,
            dist: f64,
            out: &mut Vec<(f64, usize, Vec<ServerId>)>,
        ) {
            if cur == dst {
                out.push((dist, seq.len() - 1, seq.clone()));
                return;
            }
            for &lid in net.incident(cur) {
                let link = net.link(lid);
                let next = link.opposite(cur).expect("incident");
                if seq.contains(&next) {
                    continue;
                }
                let w = (REFERENCE_SIZE / link.speed + link.propagation).value();
                seq.push(next);
                dfs(net, next, dst, seq, dist + w, out);
                seq.pop();
            }
        }
        let mut all = Vec::new();
        dfs(net, src, dst, &mut vec![src], 0.0, &mut all);
        let best_dist = all.iter().map(|p| p.0).fold(f64::INFINITY, f64::min);
        let best_hops = all
            .iter()
            .filter(|p| p.0 == best_dist)
            .map(|p| p.1)
            .min()
            .expect("dst reachable");
        all.iter()
            .filter(|p| p.0 == best_dist && p.1 == best_hops)
            .map(|p| {
                let mut rev = p.2.clone();
                rev.reverse();
                rev
            })
            .min()
            .map(|mut rev| {
                rev.reverse();
                rev
            })
            .expect("dst reachable")
    }

    /// Regression for the tie-break bug: the seed folded the smallest-
    /// predecessor tie-break into Dijkstra's relaxation, rewiring `via`
    /// of already-settled nodes without re-deriving their downstream
    /// routes, so on tie-heavy meshes the reported route depended on
    /// relaxation order rather than being the canonical smallest chain.
    /// Every route must now match the brute-force canonical path.
    #[test]
    fn tie_heavy_mesh_routes_are_canonical() {
        let net = tie_heavy_net(&[0, 1, 2, 3, 4, 5, 6, 7]);
        let rt = RoutingTable::new(&net);
        for src in net.server_ids() {
            for dst in net.server_ids() {
                if src == dst {
                    continue;
                }
                let got = node_seq(&net, src, rt.path(src, dst).unwrap());
                let want = brute_force_canonical(&net, src, dst);
                assert_eq!(got, want, "route {src:?} → {dst:?} is not canonical");
            }
        }
        // Spot-check the headline tie: four 3-hop routes 0 → 5 tie on
        // cost and hops; the canonical winner is 0-1-2-5 (smallest
        // predecessor chain built destination-first).
        let p = rt.path(ServerId::new(0), ServerId::new(5)).unwrap();
        let seq: Vec<usize> = node_seq(&net, ServerId::new(0), p)
            .into_iter()
            .map(|s| s.index())
            .collect();
        assert_eq!(seq, vec![0, 1, 2, 5]);
    }

    /// The chosen routes must be a pure function of the topology, not of
    /// the order links happen to be declared in.
    #[test]
    fn tie_breaks_are_invariant_under_link_declaration_order() {
        let reference = tie_heavy_net(&[0, 1, 2, 3, 4, 5, 6, 7]);
        let rt_ref = RoutingTable::new(&reference);
        for order in [
            [7, 6, 5, 4, 3, 2, 1, 0],
            [3, 0, 7, 2, 5, 1, 6, 4],
            [5, 7, 1, 6, 0, 4, 2, 3],
        ] {
            let net = tie_heavy_net(&order);
            let rt = RoutingTable::new(&net);
            for src in net.server_ids() {
                for dst in net.server_ids() {
                    assert_eq!(
                        node_seq(&reference, src, rt_ref.path(src, dst).unwrap()),
                        node_seq(&net, src, rt.path(src, dst).unwrap()),
                        "route {src:?} → {dst:?} changed with link order {order:?}"
                    );
                }
            }
        }
    }

    /// Shortest-path trees must be prefix-consistent: dropping the last
    /// link of the route to `dst` yields exactly the route to `dst`'s
    /// predecessor. The seed's settled-node rewiring could violate this
    /// coupling between a node's route and its predecessor's.
    #[test]
    fn routes_are_prefix_consistent() {
        let net = tie_heavy_net(&[0, 1, 2, 3, 4, 5, 6, 7]);
        let rt = RoutingTable::new(&net);
        for src in net.server_ids() {
            for dst in net.server_ids() {
                let path = rt.path(src, dst).unwrap();
                if path.hops() == 0 {
                    continue;
                }
                let seq = node_seq(&net, src, path);
                let pen = seq[seq.len() - 2];
                let prefix = &path.links()[..path.hops() - 1];
                assert_eq!(
                    rt.path(src, pen).unwrap().links(),
                    prefix,
                    "route {src:?} → {dst:?} disagrees with route to predecessor {pen:?}"
                );
            }
        }
    }

    /// A table rebuilt after a link mutation re-routes: speeding up the
    /// slow direct link flips the best 0 → 2 route from the two-hop
    /// detour to the direct hop.
    #[test]
    fn rebuilt_routes_follow_a_link_mutation() {
        let servers = homogeneous_servers(3, 1.0);
        let links = vec![
            crate::link::Link::new(ServerId::new(0), ServerId::new(1), MbitsPerSec(1000.0)),
            crate::link::Link::new(ServerId::new(1), ServerId::new(2), MbitsPerSec(1000.0)),
            crate::link::Link::new(ServerId::new(0), ServerId::new(2), MbitsPerSec(1.0)),
        ];
        let mut net =
            Network::new("n", servers, links, crate::network::TopologyKind::Custom).unwrap();
        let hops = |net: &Network| {
            RoutingTable::new(net)
                .path(ServerId::new(0), ServerId::new(2))
                .unwrap()
                .hops()
        };
        assert_eq!(
            hops(&net),
            2,
            "with a 1 Mbps direct link the two-hop fast route wins"
        );
        net.set_link_speed(LinkId::new(2), MbitsPerSec(10_000.0))
            .unwrap();
        assert_eq!(
            hops(&net),
            1,
            "after the mutation the direct link is fastest"
        );
    }

    #[test]
    fn disconnected_pairs_are_none() {
        let servers = homogeneous_servers(3, 1.0);
        let links = vec![crate::link::Link::new(
            ServerId::new(0),
            ServerId::new(1),
            MbitsPerSec(10.0),
        )];
        let net = Network::new("n", servers, links, crate::network::TopologyKind::Custom).unwrap();
        let rt = RoutingTable::new(&net);
        assert!(rt.path(ServerId::new(0), ServerId::new(2)).is_none());
        assert!(!rt.fully_connected());
    }

    #[test]
    fn servers_from_walks_the_line_in_order() {
        let net = line_uniform("l", homogeneous_servers(4, 1.0), MbitsPerSec(10.0)).unwrap();
        let rt = RoutingTable::new(&net);
        let p = rt.path(ServerId::new(0), ServerId::new(3)).unwrap();
        assert_eq!(
            p.servers_from(&net, ServerId::new(0)),
            vec![
                ServerId::new(0),
                ServerId::new(1),
                ServerId::new(2),
                ServerId::new(3)
            ]
        );
        // Walking the reverse route starts at the other endpoint.
        let back = rt.path(ServerId::new(3), ServerId::new(0)).unwrap();
        assert_eq!(
            back.servers_from(&net, ServerId::new(3)),
            vec![
                ServerId::new(3),
                ServerId::new(2),
                ServerId::new(1),
                ServerId::new(0)
            ]
        );
        // Same-server path: just the starting server.
        let stay = rt.path(ServerId::new(1), ServerId::new(1)).unwrap();
        assert_eq!(
            stay.servers_from(&net, ServerId::new(1)),
            vec![ServerId::new(1)]
        );
    }

    /// The two-phase Dijkstra without the label bound, the hop-1
    /// shortcut, the per-table weights or the route arena: every
    /// relaxation recomputes its weight, every incident list is scanned,
    /// and each route is its own `Vec`. The differential tests hold the
    /// table to it bit for bit.
    fn oracle_routes(net: &Network) -> Vec<Option<Vec<LinkId>>> {
        let weight = |lid: LinkId| {
            let link = net.link(lid);
            (REFERENCE_SIZE / link.speed + link.propagation).value()
        };
        let n = net.num_servers();
        let mut routes = Vec::with_capacity(n * n);
        for src in net.server_ids() {
            let mut dist = vec![f64::INFINITY; n];
            let mut hops = vec![usize::MAX; n];
            let mut heap = BinaryHeap::new();
            dist[src.index()] = 0.0;
            hops[src.index()] = 0;
            heap.push(HeapEntry {
                dist: 0.0,
                hops: 0,
                server: src,
            });
            while let Some(HeapEntry {
                dist: d,
                hops: h,
                server: u,
            }) = heap.pop()
            {
                if d > dist[u.index()] || (d == dist[u.index()] && h > hops[u.index()]) {
                    continue;
                }
                for &lid in net.incident(u) {
                    let v = net.link(lid).opposite(u).unwrap();
                    let nd = d + weight(lid);
                    let nh = h + 1;
                    if nd < dist[v.index()] || (nd == dist[v.index()] && nh < hops[v.index()]) {
                        dist[v.index()] = nd;
                        hops[v.index()] = nh;
                        heap.push(HeapEntry {
                            dist: nd,
                            hops: nh,
                            server: v,
                        });
                    }
                }
            }
            let mut via: Vec<Option<(ServerId, LinkId)>> = vec![None; n];
            for v in net.server_ids() {
                if v == src || dist[v.index()].is_infinite() {
                    continue;
                }
                let mut best: Option<(ServerId, LinkId)> = None;
                for &lid in net.incident(v) {
                    let u = net.link(lid).opposite(v).unwrap();
                    if dist[u.index()].is_infinite() {
                        continue;
                    }
                    let qualifies = dist[u.index()] + weight(lid) == dist[v.index()]
                        && hops[u.index()] + 1 == hops[v.index()];
                    if qualifies && best.map(|b| (u, lid) < b).unwrap_or(true) {
                        best = Some((u, lid));
                    }
                }
                via[v.index()] = best;
            }
            for dst in net.server_ids() {
                let route = (!dist[dst.index()].is_infinite()).then(|| {
                    let mut links = Vec::new();
                    let mut cur = dst;
                    while cur != src {
                        let (prev, link) = via[cur.index()].unwrap();
                        links.push(link);
                        cur = prev;
                    }
                    links.reverse();
                    links
                });
                routes.push(route);
            }
        }
        routes
    }

    /// Few distinct values, so equal-cost routes tie often.
    const SPEEDS: [f64; 4] = [10.0, 20.0, 100.0, 1000.0];
    const PROPAGATIONS: [f64; 3] = [0.0, 0.001, 0.002];

    fn random_link(rng: &mut Rng, a: usize, b: usize) -> crate::link::Link {
        crate::link::Link::new(
            ServerId::from(a),
            ServerId::from(b),
            MbitsPerSec(rng.pick(&SPEEDS)),
        )
        .with_propagation(Seconds(rng.pick(&PROPAGATIONS)))
    }

    /// A random mesh over `n` servers whose links all stay inside one of
    /// `parts` contiguous blocks, so `parts > 1` leaves the network
    /// disconnected.
    fn random_mesh(rng: &mut Rng, n: usize, density: f64, parts: usize) -> Network {
        let block = n.div_ceil(parts);
        let mut links = Vec::new();
        for a in 0..n {
            for b in a + 1..n {
                if a / block == b / block && rng.chance(density) {
                    links.push(random_link(rng, a, b));
                }
            }
        }
        let servers = homogeneous_servers(n, 1.0);
        Network::new("mesh", servers, links, crate::network::TopologyKind::Custom).unwrap()
    }

    /// A bus whose links were re-rated after construction, so some direct
    /// hops lose to two-hop detours.
    fn mutated_bus(rng: &mut Rng, n: usize) -> Network {
        let mut net = bus("bus", homogeneous_servers(n, 1.0), MbitsPerSec(100.0)).unwrap();
        for _ in 0..rng.below(n * 2) + 1 {
            let l = LinkId::new(rng.below(net.num_links()) as u32);
            net.set_link_speed(l, MbitsPerSec(rng.pick(&SPEEDS)))
                .unwrap();
        }
        net
    }

    /// Servers spread over three regions with a symmetric surcharge
    /// matrix, on a bus or a random mesh.
    fn region_net(rng: &mut Rng, n: usize) -> Network {
        use crate::ids::{RegionId, ZoneId};
        use crate::server::Server;
        let servers: Vec<Server> = (0..n)
            .map(|i| {
                Server::with_ghz(format!("s{i}"), 1.0)
                    .in_region(RegionId::new(rng.below(3) as u32), ZoneId::new(0))
            })
            .collect();
        let net = if rng.chance(0.5) {
            bus("geo", servers, MbitsPerSec(rng.pick(&SPEEDS))).unwrap()
        } else {
            let mut links = Vec::new();
            for a in 0..n {
                for b in a + 1..n {
                    if rng.chance(0.5) {
                        links.push(random_link(rng, a, b));
                    }
                }
            }
            Network::new("geo", servers, links, crate::network::TopologyKind::Custom).unwrap()
        };
        let lat = [0.0, 0.01, 0.03, 0.07];
        let rows = (0..3)
            .map(|i| {
                (0..3)
                    .map(|j| Seconds(if i == j { 0.0 } else { lat[i + j] }))
                    .collect()
            })
            .collect();
        net.with_region_latency(rows).unwrap()
    }

    fn random_network(rng: &mut Rng, case: usize) -> Network {
        let n = 2 + rng.below(13);
        let speed = MbitsPerSec(rng.pick(&SPEEDS));
        let parts = 2 + rng.below(2);
        match case % 9 {
            0 => random_mesh(rng, n, 0.25, 1),
            1 => random_mesh(rng, n, 0.8, 1),
            2 => random_mesh(rng, n, 0.6, parts),
            3 => bus("b", homogeneous_servers(n, 1.0), speed).unwrap(),
            4 => star("s", homogeneous_servers(n, 1.0), speed).unwrap(),
            5 => ring("r", homogeneous_servers(n.max(3), 1.0), speed).unwrap(),
            6 => line_uniform("l", homogeneous_servers(n, 1.0), speed).unwrap(),
            7 => mutated_bus(rng, n),
            _ => region_net(rng, n),
        }
    }

    /// Assert the table equals the oracle on `net`, route for route
    /// and link for link.
    fn assert_matches_oracle(net: &Network, label: &str) {
        let rt = RoutingTable::new(net);
        let oracle = oracle_routes(net);
        let n = net.num_servers();
        for from in net.server_ids() {
            for to in net.server_ids() {
                let want = oracle[from.index() * n + to.index()].as_deref();
                let got = rt.path(from, to).map(|p| p.links());
                assert_eq!(got, want, "{label}: route {from:?} → {to:?}");
            }
        }
        assert_eq!(rt.fully_connected(), oracle.iter().all(Option::is_some));
    }

    #[test]
    fn table_matches_the_unpruned_oracle_on_random_networks() {
        let mut rng = Rng(0x5EED_2007);
        for case in 0..900 {
            let net = random_network(&mut rng, case);
            assert_matches_oracle(&net, &format!("case {case} ({})", net.name()));
        }
    }

    #[test]
    fn table_matches_the_unpruned_oracle_on_larger_buses_and_meshes() {
        let mut rng = Rng(150);
        for n in [40, 64] {
            let net = bus("b", homogeneous_servers(n, 1.0), MbitsPerSec(100.0)).unwrap();
            assert_matches_oracle(&net, "uniform bus");
            assert_matches_oracle(&mutated_bus(&mut rng, n), "mutated bus");
            assert_matches_oracle(&random_mesh(&mut rng, n, 0.1, 1), "sparse mesh");
            assert_matches_oracle(&region_net(&mut rng, n), "region net");
        }
    }

    /// The label bound must stay strict. Here the chain 0-1-2-3-4-6
    /// labels server 6 at cost 2 in five hops before server 5 (cost
    /// 1.75, one hop) is popped; 5's link to 6 is the cheapest link
    /// (0.25), so `d + w_min` *equals* the largest label. Scanning 5
    /// still ties 6's cost in two hops, which must win.
    #[test]
    fn label_bound_still_scans_a_node_that_ties_the_largest_label() {
        let servers = homogeneous_servers(7, 1.0);
        let link = |a: u32, b: u32, speed: f64, prop: f64| {
            crate::link::Link::new(ServerId::new(a), ServerId::new(b), MbitsPerSec(speed))
                .with_propagation(Seconds(prop))
        };
        let links = vec![
            link(0, 1, 4.0, 0.0),
            link(1, 2, 4.0, 0.0),
            link(2, 3, 4.0, 0.0),
            link(3, 4, 4.0, 0.0),
            link(4, 6, 1.0, 0.0),
            link(0, 5, 1.0, 0.75),
            link(5, 6, 4.0, 0.0),
        ];
        let net =
            Network::new("tie", servers, links, crate::network::TopologyKind::Custom).unwrap();
        let rt = RoutingTable::new(&net);
        let p = rt.path(ServerId::new(0), ServerId::new(6)).unwrap();
        assert_eq!(
            p.servers_from(&net, ServerId::new(0)),
            [0, 5, 6].map(ServerId::new)
        );
        assert_matches_oracle(&net, "bound tie");
    }

    #[test]
    fn single_server_routes_to_itself() {
        let net = Network::new(
            "one",
            homogeneous_servers(1, 1.0),
            Vec::new(),
            crate::network::TopologyKind::Custom,
        )
        .unwrap();
        let rt = RoutingTable::new(&net);
        assert!(rt.fully_connected());
        assert_eq!(
            rt.path(ServerId::new(0), ServerId::new(0)).unwrap().hops(),
            0
        );
    }

    use crate::network::Network;
}
