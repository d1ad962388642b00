//! Elastic provisioning: let the solver choose which VMs to lease.
//!
//! On a priced (geo) network the money axis bills every *occupied*
//! server for the whole execution window (see `wsflow_cost::money`), so
//! the leased-VM subset is itself a decision variable: spreading for
//! fairness fights consolidating for the bill. [`ElasticProvision`]
//! makes that trade explicit as a wrapper pass — run any inner
//! algorithm, then greedily try to *evacuate* the most expensive
//! occupied servers, keeping an evacuation only when the scalarised
//! tri-criteria cost actually improves.
//!
//! The pass is a no-op improvement-wise on unpriced networks (evacuating
//! a server can still pay off through the fairness term, but with a zero
//! money weight it usually will not) and is deterministic: servers are
//! visited in descending price order (ties broken by ascending id) and
//! relocation targets are chosen by strict probe improvement with
//! lowest-index wins.

use wsflow_cost::{DeltaEvaluator, Problem};
use wsflow_model::OpId;
use wsflow_net::ServerId;

use crate::algorithm::{DeployError, DeploymentAlgorithm};
use crate::solve::{SolveCtx, SolveOutcome};

/// Wrap an inner algorithm with a greedy lease-shrinking pass.
pub struct ElasticProvision<A> {
    /// The algorithm producing the starting mapping.
    pub inner: A,
}

impl<A> ElasticProvision<A> {
    /// Evacuate expensive servers from `inner`'s result.
    pub fn new(inner: A) -> Self {
        Self { inner }
    }
}

impl<A: DeploymentAlgorithm> DeploymentAlgorithm for ElasticProvision<A> {
    fn name(&self) -> &str {
        "Elastic"
    }

    fn solve(
        &self,
        problem: &Problem,
        ctx: &mut SolveCtx<'_>,
    ) -> Result<SolveOutcome, DeployError> {
        let mark = ctx.mark();
        let start = self.inner.solve(problem, ctx)?.mapping;
        let mut delta = DeltaEvaluator::new(problem, start);
        let mut cost = delta.cost().combined.value();
        ctx.offer(delta.mapping(), cost);

        // Evacuation order: dearest first, ids breaking ties — the same
        // order on every run. Free servers are never worth evacuating
        // for the bill, so only priced ones are candidates.
        let net = problem.network();
        let mut candidates: Vec<(f64, u32)> = net
            .server_ids()
            .filter_map(|s| {
                let price = net.server(s).price.value();
                (price > 0.0).then_some((price, s.0))
            })
            .collect();
        candidates.sort_by(|a, b| {
            b.0.partial_cmp(&a.0)
                .expect("finite prices")
                .then(a.1.cmp(&b.1))
        });

        let n = problem.num_servers() as u32;
        let mut finished = true;
        'servers: for &(_, sid) in &candidates {
            let server = ServerId::new(sid);
            let residents: Vec<OpId> = delta.mapping().ops_on(server);
            // A lone server has no other server to evacuate to.
            if residents.is_empty() || n < 2 {
                continue;
            }
            // Tentatively relocate every resident to its best probe
            // target; roll back wholesale if the emptied server does not
            // pay for the detour.
            let mut moved: Vec<(OpId, ServerId)> = Vec::with_capacity(residents.len());
            for &op in &residents {
                let mut best: Option<(f64, ServerId)> = None;
                for t in 0..n {
                    let target = ServerId::new(t);
                    if target == server {
                        continue;
                    }
                    if !ctx.try_charge(1) {
                        finished = false;
                        for &(op, _) in moved.iter().rev() {
                            delta.apply(op, server);
                        }
                        break 'servers;
                    }
                    let c = delta.probe(op, target).combined.value();
                    if best.is_none_or(|(bc, _)| c < bc) {
                        best = Some((c, target));
                    }
                }
                let (_, target) = best.expect("n ≥ 2 leaves a target besides `server`");
                delta.apply(op, target);
                moved.push((op, target));
            }
            let evacuated = delta.cost().combined.value();
            if evacuated < cost {
                cost = evacuated;
                ctx.offer(delta.mapping(), cost);
            } else {
                for &(op, _) in moved.iter().rev() {
                    delta.apply(op, server);
                }
            }
        }
        Ok(ctx.finish(mark, delta.mapping().clone(), cost, finished))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fair_load::FairLoad;
    use wsflow_cost::{CostWeights, Evaluator, Mapping};
    use wsflow_model::{DollarsPerHour, MCycles, Mbits, MbitsPerSec, WorkflowBuilder};
    use wsflow_net::topology::{bus, homogeneous_servers};
    use wsflow_net::{Network, TopologyKind};

    fn priced_problem(money_weight: f64) -> Problem {
        priced_on(&[0.2, 0.4, 3.0, 9.0], money_weight)
    }

    /// The 6-op line on a bus of one server per price.
    fn priced_on(prices: &[f64], money_weight: f64) -> Problem {
        let mut b = WorkflowBuilder::new("w");
        b.line(
            "o",
            &[
                MCycles(10.0),
                MCycles(30.0),
                MCycles(20.0),
                MCycles(40.0),
                MCycles(15.0),
                MCycles(25.0),
            ],
            Mbits(0.05),
        );
        let servers = homogeneous_servers(prices.len(), 1.0);
        // `bus` needs two servers; a lone server has no link to list.
        let mut net = if prices.len() == 1 {
            Network::new("n", servers, Vec::new(), TopologyKind::Bus).unwrap()
        } else {
            bus("n", servers, MbitsPerSec(100.0)).unwrap()
        };
        for (i, &price) in prices.iter().enumerate() {
            net.set_server_price(ServerId::new(i as u32), DollarsPerHour(price))
                .unwrap();
        }
        Problem::with_weights(
            b.build().unwrap(),
            net,
            CostWeights::tri(1.0, 1.0, money_weight),
        )
        .unwrap()
    }

    fn occupied(m: &Mapping, n: usize) -> usize {
        (0..n)
            .filter(|&s| !m.ops_on(ServerId::new(s as u32)).is_empty())
            .count()
    }

    #[test]
    fn never_worse_than_the_inner_algorithm() {
        for weight in [0.0, 1.0, 100.0] {
            let p = priced_problem(weight);
            let mut ev = Evaluator::new(&p);
            let inner = FairLoad.deploy(&p).unwrap();
            let elastic = ElasticProvision::new(FairLoad).deploy(&p).unwrap();
            assert!(
                ev.combined(&elastic).value() <= ev.combined(&inner).value() + 1e-12,
                "weight {weight}: elastic must not lose to its inner algorithm"
            );
        }
    }

    #[test]
    fn heavy_money_weight_sheds_expensive_servers() {
        let p = priced_problem(10_000.0);
        let inner = FairLoad.deploy(&p).unwrap();
        let elastic = ElasticProvision::new(FairLoad).deploy(&p).unwrap();
        assert!(
            occupied(&elastic, 4) < occupied(&inner, 4),
            "a dominant bill must consolidate the lease"
        );
        // The $9/h machine in particular must be vacated.
        assert!(elastic.ops_on(ServerId::new(3)).is_empty());
    }

    #[test]
    fn one_priced_server_keeps_every_op() {
        let p = priced_on(&[2.0], 100.0);
        let elastic = ElasticProvision::new(FairLoad).deploy(&p).unwrap();
        assert_eq!(occupied(&elastic, 1), 1);
        assert_eq!(elastic, FairLoad.deploy(&p).unwrap());
    }

    #[test]
    fn deterministic_across_runs() {
        let p = priced_problem(5.0);
        let a = ElasticProvision::new(FairLoad).deploy(&p).unwrap();
        let b = ElasticProvision::new(FairLoad).deploy(&p).unwrap();
        assert_eq!(a, b);
    }
}
