//! Shared server-pair communication coefficients.
//!
//! Every transfer time in the cost model is affine in the message size:
//! `t = size · Σ 1/speed + Σ propagation` over the routed path. The
//! [`CommMatrix`] precomputes those two terms for every ordered server
//! pair into one flat row-major arena, so evaluators index a pair in
//! O(1) instead of chasing the routed path per query.
//!
//! The matrix depends only on the network and its routing table, never
//! on the workflow — so a [`Problem`] computes
//! it once and shares it (via `Arc`) with every evaluator and with every
//! sub-problem the hierarchical solver derives. Preparing an evaluator
//! drops from `O(N² · path length)` to `O(M · N)`, which is what makes
//! per-cluster sub-solves affordable at 10³ servers.
//!
//! What agrees with the routed path bit for bit, and what does not:
//! [`RoutingTable::transfer_time`] computes `size / speed` per link,
//! while [`CommMatrix::comm_secs`] computes `size · (Σ 1/speed)`, which
//! rounds once more. The two can differ in the last bit. On one-hop
//! routes and the class-C message sizes they agree at 10 and 100 Mbps
//! but not at 1000 Mbps (0.00666 and 0.057838 Mbit); multi-hop routes
//! add one more rounding per hop. [`CommMatrix::mean_unit_transfer`] is
//! a 1-Mbit transfer, where `1 · (1/speed)` is exact, so it does match
//! the routed fold bit for bit.
//!
//! [`network_traffic`] lives here too: the expected Mbits a mapping puts
//! on the network, the quantity the greedy heuristics try to shrink.

use wsflow_net::{Network, RoutingTable, ServerId};

use crate::mapping::Mapping;
use crate::problem::Problem;

/// Per-(from, to) affine communication coefficients:
/// `t = size · bw_term + fixed_term`.
#[derive(Debug, Clone, Copy)]
pub struct PairCoeff {
    /// Σ 1/speed over the routed path (seconds per Mbit).
    pub bw_term: f64,
    /// Σ propagation over the routed path (seconds).
    pub fixed_term: f64,
}

/// Flat row-major `[from][to]` arena of [`PairCoeff`]s plus summary
/// statistics the greedy heuristics consume.
#[derive(Debug, Clone)]
pub struct CommMatrix {
    n: usize,
    pair: Vec<PairCoeff>,
    /// Mean one-Mbit transfer time over ordered distinct pairs (0.0 for
    /// single-server networks). Computed from the routed paths with the
    /// exact summation the routing layer uses, so heuristics that used
    /// to fold `transfer_time` per pair see bit-identical values.
    mean_unit_transfer: f64,
}

impl CommMatrix {
    /// Precompute the coefficient arena for a fully routable network.
    ///
    /// # Panics
    ///
    /// Panics if some ordered pair has no route — callers must check
    /// [`RoutingTable::fully_connected`] first (as
    /// [`Problem`] construction does).
    pub fn new(net: &Network, routing: &RoutingTable) -> Self {
        let n = net.num_servers();
        let regions = net.has_region_latency();
        let mut pair = Vec::with_capacity(n * n);
        let mut total = 0.0;
        for from in net.server_ids() {
            for to in net.server_ids() {
                let path = routing
                    .path(from, to)
                    .expect("problem networks are fully routable");
                // One walk folds all three sums. `unit` is the 1-Mbit
                // transfer time in `Path::transfer_time`'s order — per
                // link `1/speed + prop`, summed along the path — not
                // `bw_term + fixed_term`, whose different association
                // could differ in the last bit.
                let mut bw_term = 0.0;
                let mut fixed_term = 0.0;
                let mut unit = 0.0;
                for &l in path.links() {
                    let link = net.link(l);
                    let inv = 1.0 / link.speed.value();
                    bw_term += inv;
                    fixed_term += link.propagation.value();
                    unit += inv + link.propagation.value();
                }
                if from != to {
                    // Geo model: the inter-region surcharge is a fixed
                    // per-transfer latency, mirroring the endpoint-based
                    // add-on in `RoutingTable::transfer_time`. Networks
                    // without a region matrix skip it, so the legacy
                    // coefficients are untouched bit for bit.
                    if regions {
                        let surcharge = net.server_region_latency(from, to).value();
                        fixed_term += surcharge;
                        unit += surcharge;
                    }
                    total += unit;
                }
                pair.push(PairCoeff {
                    bw_term,
                    fixed_term,
                });
            }
        }
        let count = n * n.saturating_sub(1);
        let mean_unit_transfer = if count == 0 {
            0.0
        } else {
            total / count as f64
        };
        Self {
            n,
            pair,
            mean_unit_transfer,
        }
    }

    /// Number of servers the matrix covers.
    #[inline]
    pub fn num_servers(&self) -> usize {
        self.n
    }

    /// The coefficients for an ordered pair.
    #[inline]
    pub fn coeff(&self, from: ServerId, to: ServerId) -> PairCoeff {
        self.pair[from.index() * self.n + to.index()]
    }

    /// Transfer seconds for `size_mbits` from `from` to `to`: equal to
    /// the routed transfer time up to rounding (see the module docs).
    #[inline]
    pub fn comm_secs(&self, from: ServerId, to: ServerId, size_mbits: f64) -> f64 {
        let c = self.pair[from.index() * self.n + to.index()];
        size_mbits * c.bw_term + c.fixed_term
    }

    /// Mean one-Mbit transfer time over ordered distinct pairs.
    #[inline]
    pub fn mean_unit_transfer(&self) -> f64 {
        self.mean_unit_transfer
    }
}

/// Total expected bytes put on the network by a mapping (probability-
/// weighted sizes of inter-server messages). Not part of the paper's
/// objective but the quantity its heuristics try to shrink.
pub fn network_traffic(problem: &Problem, mapping: &Mapping) -> wsflow_model::Mbits {
    let w = problem.workflow();
    let total: wsflow_model::Mbits = w
        .msg_ids()
        .filter(|&m| {
            let msg = w.message(m);
            mapping.server_of(msg.from) != mapping.server_of(msg.to)
        })
        .map(|m| problem.probabilities().of_msg(m) * w.message(m).size)
        .sum();
    // An empty f64 sum is -0.0; traffic is non-negative by construction.
    wsflow_model::Mbits(total.value().max(0.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use wsflow_model::{Mbits, MbitsPerSec, Seconds};
    use wsflow_net::topology::{bus, homogeneous_servers, line_uniform};

    #[test]
    fn coefficients_match_routed_paths() {
        let net = line_uniform("l", homogeneous_servers(3, 1.0), MbitsPerSec(10.0)).unwrap();
        let routing = RoutingTable::new(&net);
        let comm = CommMatrix::new(&net, &routing);
        assert_eq!(comm.num_servers(), 3);
        // Self-pairs are free.
        let c = comm.coeff(ServerId::new(1), ServerId::new(1));
        assert_eq!(c.bw_term, 0.0);
        assert_eq!(c.fixed_term, 0.0);
        // One hop at 10 Mbps = 0.1 s/Mbit; two hops double it.
        assert!((comm.comm_secs(ServerId::new(0), ServerId::new(1), 1.0) - 0.1).abs() < 1e-12);
        assert!((comm.comm_secs(ServerId::new(0), ServerId::new(2), 1.0) - 0.2).abs() < 1e-12);
        // Mean over the 6 ordered distinct pairs: (0.1·4 + 0.2·2)/6.
        assert!((comm.mean_unit_transfer() - 0.8 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn region_surcharge_agrees_with_routing() {
        use wsflow_net::RegionId;

        let mut servers = homogeneous_servers(3, 1.0);
        servers[2] = servers[2]
            .clone()
            .in_region(RegionId::new(1), wsflow_net::ZoneId::new(0));
        let net = line_uniform("l", servers, MbitsPerSec(10.0))
            .unwrap()
            .with_region_latency(vec![
                vec![Seconds::ZERO, Seconds(0.05)],
                vec![Seconds(0.05), Seconds::ZERO],
            ])
            .unwrap();
        let routing = RoutingTable::new(&net);
        let comm = CommMatrix::new(&net, &routing);
        for from in net.server_ids() {
            for to in net.server_ids() {
                for size in [0.0, 0.5, 2.0] {
                    let direct = routing
                        .transfer_time(&net, from, to, Mbits(size))
                        .unwrap()
                        .value();
                    let fast = comm.comm_secs(from, to, size);
                    assert!(
                        (direct - fast).abs() < 1e-12,
                        "{from}->{to} size {size}: routing {direct} vs comm {fast}"
                    );
                }
            }
        }
        // Intra-region pair is surcharge-free, cross-region pays 50 ms.
        let intra = comm.comm_secs(ServerId::new(0), ServerId::new(1), 1.0);
        let cross = comm.comm_secs(ServerId::new(1), ServerId::new(2), 1.0);
        assert!((intra - 0.1).abs() < 1e-12);
        assert!((cross - 0.15).abs() < 1e-12);
    }

    /// The two-walk fold [`CommMatrix::new`] replaced: the coefficients
    /// from one walk of each path, the mean from a second walk through
    /// [`RoutingTable::transfer_time`]. Returns every pair's
    /// `(bw_term, fixed_term)` bits and the mean's bits.
    fn oracle_fold(net: &Network, routing: &RoutingTable) -> (Vec<[u64; 2]>, u64) {
        let mut pair = Vec::new();
        let (mut total, mut count) = (0.0, 0usize);
        for from in net.server_ids() {
            for to in net.server_ids() {
                let path = routing.path(from, to).expect("routable");
                let mut bw_term = 0.0;
                let mut fixed_term = 0.0;
                for &l in path.links() {
                    let link = net.link(l);
                    bw_term += 1.0 / link.speed.value();
                    fixed_term += link.propagation.value();
                }
                if from != to && net.has_region_latency() {
                    fixed_term += net.server_region_latency(from, to).value();
                }
                pair.push([bw_term.to_bits(), fixed_term.to_bits()]);
                if from != to {
                    if let Some(t) = routing.transfer_time(net, from, to, Mbits(1.0)) {
                        total += t.value();
                        count += 1;
                    }
                }
            }
        }
        let mean = if count == 0 {
            0.0
        } else {
            total / count as f64
        };
        (pair, mean.to_bits())
    }

    fn assert_matches_oracle(net: &Network, label: &str) {
        let routing = RoutingTable::new(net);
        let comm = CommMatrix::new(net, &routing);
        let (pair, mean) = oracle_fold(net, &routing);
        let got: Vec<[u64; 2]> = comm
            .pair
            .iter()
            .map(|c| [c.bw_term.to_bits(), c.fixed_term.to_bits()])
            .collect();
        assert_eq!(got, pair, "{label}: coefficients");
        assert_eq!(
            comm.mean_unit_transfer().to_bits(),
            mean,
            "{label}: mean unit transfer"
        );
    }

    /// Few distinct speeds and delays, so multi-hop sums are long and
    /// varied but routes still tie often.
    const SPEEDS: [f64; 5] = [3.0, 10.0, 20.0, 100.0, 1000.0];
    const PROPAGATIONS: [f64; 4] = [0.0, 0.0007, 0.001, 0.0023];

    /// A random mesh whose links stay inside `parts` contiguous blocks:
    /// a chain through each block keeps it connected (and multi-hop),
    /// random chords add alternatives, and `parts > 1` disconnects it.
    fn mesh(rng: &mut ChaCha8Rng, n: usize, parts: usize) -> Network {
        use wsflow_net::{Link, TopologyKind};
        let block = n.div_ceil(parts);
        let mut links = Vec::new();
        for a in 0..n {
            for b in a + 1..n {
                if a / block == b / block && (b == a + 1 || rng.gen_bool(0.08)) {
                    let speed = MbitsPerSec(SPEEDS[rng.gen_range(0..SPEEDS.len())]);
                    let prop = Seconds(PROPAGATIONS[rng.gen_range(0..PROPAGATIONS.len())]);
                    links.push(
                        Link::new(ServerId::from(a), ServerId::from(b), speed)
                            .with_propagation(prop),
                    );
                }
            }
        }
        Network::new(
            "mesh",
            homogeneous_servers(n, 1.0),
            links,
            TopologyKind::Custom,
        )
        .unwrap()
    }

    #[test]
    fn single_walk_fold_matches_the_two_walk_oracle() {
        use wsflow_net::{LinkId, RegionId, ZoneId};
        let mut rng = ChaCha8Rng::seed_from_u64(2007);
        for n in [2, 7, 40, 150] {
            let uniform = bus("bus", homogeneous_servers(n, 1.0), MbitsPerSec(100.0)).unwrap();
            assert_matches_oracle(&uniform, "uniform bus");

            let mut mutated = uniform.clone();
            for _ in 0..2 * n {
                let l = LinkId::new(rng.gen_range(0..mutated.num_links() as u32));
                let speed = MbitsPerSec(SPEEDS[rng.gen_range(0..SPEEDS.len())]);
                mutated.set_link_speed(l, speed).unwrap();
            }
            assert_matches_oracle(&mutated, "mutated bus");

            let multi_hop = mesh(&mut rng, n, 1);
            assert!(RoutingTable::new(&multi_hop).fully_connected());
            assert_matches_oracle(&multi_hop, "multi-hop mesh");

            let servers = (0..n)
                .map(|i| {
                    wsflow_net::Server::with_ghz(format!("s{i}"), 1.0)
                        .in_region(RegionId::new(i as u32 % 3), ZoneId::new(0))
                })
                .collect();
            let lat = |ms: f64| Seconds(ms / 1000.0);
            let geo = bus("geo", servers, MbitsPerSec(20.0))
                .unwrap()
                .with_region_latency(vec![
                    vec![lat(0.0), lat(11.0), lat(37.0)],
                    vec![lat(11.0), lat(0.0), lat(73.0)],
                    vec![lat(37.0), lat(73.0), lat(0.0)],
                ])
                .unwrap();
            assert_matches_oracle(&geo, "region latency");
        }
        // Small multi-hop meshes: with few pairs in the mean, a last-bit
        // change in one route's transfer time reaches the mean's bits.
        for _ in 0..500 {
            let n = rng.gen_range(3..9);
            assert_matches_oracle(&mesh(&mut rng, n, 1), "small mesh");
        }
        // A disconnected mesh has unroutable pairs: the oracle and the
        // single walk both refuse it.
        let split = mesh(&mut rng, 12, 2);
        let routing = RoutingTable::new(&split);
        assert!(!routing.fully_connected());
        let panics =
            |f: &dyn Fn()| std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).is_err();
        assert!(panics(&|| drop(oracle_fold(&split, &routing))));
        assert!(panics(&|| drop(CommMatrix::new(&split, &routing))));
    }
}
