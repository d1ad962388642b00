//! Shared server-pair communication coefficients.
//!
//! Every transfer time in the cost model is affine in the message size:
//! `t = size · Σ 1/speed + Σ propagation` over the routed path. The
//! [`CommMatrix`] precomputes those two terms for every ordered server
//! pair into one flat row-major arena, so evaluators index a pair in
//! O(1) instead of chasing the routed path per query.
//!
//! The matrix depends only on the network and its routing table, never
//! on the workflow — so a [`Problem`](crate::problem::Problem) computes
//! it once and shares it (via `Arc`) with every evaluator and with every
//! sub-problem the hierarchical solver derives. Preparing an evaluator
//! drops from `O(N² · path length)` to `O(M · N)`, which is what makes
//! per-cluster sub-solves affordable at 10³ servers.

use wsflow_model::Mbits;
use wsflow_net::{Network, RoutingTable, ServerId};

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
    /// [`Problem`](crate::problem::Problem) construction does).
    pub fn new(net: &Network, routing: &RoutingTable) -> Self {
        let n = net.num_servers();
        let mut pair = Vec::with_capacity(n * n);
        let mut total = 0.0;
        let mut count = 0usize;
        for from in net.server_ids() {
            for to in net.server_ids() {
                let path = routing
                    .path(from, to)
                    .expect("problem networks are fully routable");
                let mut bw_term = 0.0;
                let mut fixed_term = 0.0;
                for &l in path.links() {
                    let link = net.link(l);
                    bw_term += 1.0 / link.speed.value();
                    fixed_term += link.propagation.value();
                }
                // Geo model: the inter-region surcharge is a fixed
                // per-transfer latency, mirroring the endpoint-based
                // add-on in `RoutingTable::transfer_time`. Networks
                // without a region matrix skip the branch entirely, so
                // the legacy coefficients are untouched bit for bit.
                if from != to && net.has_region_latency() {
                    fixed_term += net.server_region_latency(from, to).value();
                }
                pair.push(PairCoeff {
                    bw_term,
                    fixed_term,
                });
                if from != to {
                    // Same fold as `RoutingTable::transfer_time` with a
                    // 1-Mbit payload: per link `size/speed + prop`,
                    // summed in path order — not `bw_term + fixed_term`,
                    // whose different association could differ in the
                    // last bit.
                    if let Some(t) = routing.transfer_time(net, from, to, Mbits(1.0)) {
                        total += t.value();
                        count += 1;
                    }
                }
            }
        }
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

    /// Transfer seconds for `size_mbits` from `from` to `to`.
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

#[cfg(test)]
mod tests {
    use super::*;
    use wsflow_model::MbitsPerSec;
    use wsflow_net::topology::{homogeneous_servers, line_uniform};

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
        use wsflow_model::Seconds;
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
}
