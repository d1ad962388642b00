//! Baseline deployment strategies.
//!
//! None of these is proposed by the paper, but its evaluation needs
//! them: a random mapping seeds the Tie-Resolver algorithms, sampled
//! random mappings approximate the optimum for the §4.1 quality study,
//! and round-robin / single-server mark the naive corners of the
//! trade-off space the introduction discusses ("the completion time is
//! optimized … but the fairness of load distribution is destroyed").

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use wsflow_cost::{Evaluator, Mapping, Problem};
use wsflow_net::ServerId;

use crate::algorithm::{DeployError, DeploymentAlgorithm};
use crate::solve::{constructive_outcome, SolveCtx, SolveOutcome};

/// A uniformly random mapping (deterministic per seed).
#[derive(Debug, Clone)]
pub struct RandomMapping {
    /// RNG seed.
    pub seed: u64,
}

impl RandomMapping {
    /// Random mapping with the given seed.
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }

    /// Draw a mapping directly (also used by the Tie-Resolver algorithms
    /// for their initial random configuration).
    pub fn draw(problem: &Problem, rng: &mut impl Rng) -> Mapping {
        let n = problem.num_servers() as u32;
        Mapping::from_fn(problem.num_ops(), |_| ServerId::new(rng.gen_range(0..n)))
    }
}

impl DeploymentAlgorithm for RandomMapping {
    fn name(&self) -> &str {
        "Random"
    }

    fn solve(
        &self,
        problem: &Problem,
        ctx: &mut SolveCtx<'_>,
    ) -> Result<SolveOutcome, DeployError> {
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let mapping = Self::draw(problem, &mut rng);
        Ok(constructive_outcome(
            problem,
            ctx,
            mapping,
            problem.num_ops() as u64,
        ))
    }
}

/// Best of `samples` random mappings by combined cost — the paper's §4.1
/// solution-quality sampling procedure ("we have performed sampling of
/// solutions … each sample involved 32,000 potential solutions").
#[derive(Debug, Clone)]
pub struct BestOfRandom {
    /// Number of samples to draw.
    pub samples: usize,
    /// RNG seed.
    pub seed: u64,
}

impl BestOfRandom {
    /// Sample `samples` mappings with the given seed.
    pub fn new(samples: usize, seed: u64) -> Self {
        Self { samples, seed }
    }
}

impl DeploymentAlgorithm for BestOfRandom {
    fn name(&self) -> &str {
        "BestOfRandom"
    }

    fn solve(
        &self,
        problem: &Problem,
        ctx: &mut SolveCtx<'_>,
    ) -> Result<SolveOutcome, DeployError> {
        let mark = ctx.mark();
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let mut ev = Evaluator::new(problem);
        // The first sample is unconditional: even a zero budget returns
        // a valid mapping (the incumbent guarantee).
        let mut best = RandomMapping::draw(problem, &mut rng);
        let mut best_cost = ev.combined(&best);
        ctx.charge(1);
        ctx.offer(&best, best_cost.value());
        let mut drawn = 1usize;
        // One logical step per sample: a budget of B draws at most B
        // samples, so the stopping point is seed-deterministic.
        while drawn < self.samples.max(1) && ctx.try_charge(1) {
            let candidate = RandomMapping::draw(problem, &mut rng);
            let cost = ev.combined(&candidate);
            drawn += 1;
            if cost < best_cost {
                best_cost = cost;
                best = candidate;
                ctx.offer(&best, best_cost.value());
            }
        }
        let converged = drawn >= self.samples.max(1);
        Ok(ctx.finish(mark, best, best_cost.value(), converged))
    }
}

/// Operations dealt to servers in rotation, by operation id.
#[derive(Debug, Clone, Default)]
pub struct RoundRobin;

impl DeploymentAlgorithm for RoundRobin {
    fn name(&self) -> &str {
        "RoundRobin"
    }

    fn solve(
        &self,
        problem: &Problem,
        ctx: &mut SolveCtx<'_>,
    ) -> Result<SolveOutcome, DeployError> {
        let n = problem.num_servers() as u32;
        let mapping = Mapping::from_fn(problem.num_ops(), |o| ServerId::new(o.0 % n));
        Ok(constructive_outcome(
            problem,
            ctx,
            mapping,
            problem.num_ops() as u64,
        ))
    }
}

/// Everything on the single most powerful server — optimal communication,
/// worst fairness (the paper's introductory example of antagonism).
#[derive(Debug, Clone, Default)]
pub struct AllOnFastest;

impl DeploymentAlgorithm for AllOnFastest {
    fn name(&self) -> &str {
        "AllOnFastest"
    }

    fn solve(
        &self,
        problem: &Problem,
        ctx: &mut SolveCtx<'_>,
    ) -> Result<SolveOutcome, DeployError> {
        let best = problem
            .network()
            .server_ids()
            .max_by(|&a, &b| {
                problem
                    .network()
                    .server(a)
                    .power
                    .partial_cmp(&problem.network().server(b).power)
                    .expect("powers are finite")
                    .then_with(|| b.cmp(&a)) // prefer lower id on ties
            })
            .expect("networks are non-empty");
        let mapping = Mapping::all_on(problem.num_ops(), best);
        Ok(constructive_outcome(
            problem,
            ctx,
            mapping,
            problem.num_servers() as u64,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsflow_cost::reference::time_penalty;
    use wsflow_model::{MCycles, Mbits, MbitsPerSec, WorkflowBuilder};
    use wsflow_net::topology::bus;
    use wsflow_net::Server;

    fn problem() -> Problem {
        let mut b = WorkflowBuilder::new("w");
        b.line("o", &[MCycles(10.0); 6], Mbits(0.1));
        let net = bus(
            "n",
            vec![
                Server::with_ghz("a", 1.0),
                Server::with_ghz("b", 3.0),
                Server::with_ghz("c", 2.0),
            ],
            MbitsPerSec(100.0),
        )
        .unwrap();
        Problem::new(b.build().unwrap(), net).unwrap()
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let p = problem();
        let a = RandomMapping::new(7).deploy(&p).unwrap();
        let b = RandomMapping::new(7).deploy(&p).unwrap();
        let c = RandomMapping::new(8).deploy(&p).unwrap();
        assert_eq!(a, b);
        assert!(a.is_valid_for(p.num_servers()));
        assert!(c.is_valid_for(p.num_servers()));
    }

    #[test]
    fn best_of_random_not_worse_than_single_random() {
        let p = problem();
        let mut ev = Evaluator::new(&p);
        let single = RandomMapping::new(42).deploy(&p).unwrap();
        let best = BestOfRandom::new(64, 42).deploy(&p).unwrap();
        assert!(ev.combined(&best) <= ev.combined(&single));
    }

    #[test]
    fn round_robin_rotates() {
        let p = problem();
        let m = RoundRobin.deploy(&p).unwrap();
        assert_eq!(m.server_of(wsflow_model::OpId::new(0)), ServerId::new(0));
        assert_eq!(m.server_of(wsflow_model::OpId::new(4)), ServerId::new(1));
        assert_eq!(m.servers_used(), 3);
    }

    #[test]
    fn all_on_fastest_picks_highest_power() {
        let p = problem();
        let m = AllOnFastest.deploy(&p).unwrap();
        assert_eq!(m.servers_used(), 1);
        assert_eq!(m.server_of(wsflow_model::OpId::new(0)), ServerId::new(1));
        // And it is indeed unfair.
        assert!(time_penalty(&p, &m).value() > 0.0);
    }

    #[test]
    fn names() {
        assert_eq!(RandomMapping::new(0).name(), "Random");
        assert_eq!(BestOfRandom::new(1, 0).name(), "BestOfRandom");
        assert_eq!(RoundRobin.name(), "RoundRobin");
        assert_eq!(AllOnFastest.name(), "AllOnFastest");
    }
}
