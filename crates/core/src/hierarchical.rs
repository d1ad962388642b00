//! Hierarchical solving: partition → per-cluster sub-solves → stitch →
//! boundary repair.
//!
//! The paper's greedy algorithms walk every operation against every
//! server, so a single constructive pass on a 10⁴-op × 10³-server
//! instance already costs 10⁷ logical steps. [`Hierarchical`] makes such
//! instances tractable under a bounded budget:
//!
//! 1. **Partition** the workflow into clusters of bounded size along
//!    depth-0 block boundaries ([`partition_ops`]), so every cluster is
//!    itself a well-formed workflow.
//! 2. **Sub-solve** each cluster with the configured inner algorithm
//!    against the *shared* network (routing and communication
//!    coefficients are reused via `Arc`, not recomputed), under a budget
//!    share from [`wsflow_par::split_budget`]. Clusters solve in
//!    parallel; results are combined in cluster order, so the outcome is
//!    bit-identical for every `WSFLOW_THREADS`.
//! 3. **Stitch** the per-cluster mappings into one global mapping and
//!    evaluate it with the flat-arena [`DeltaEvaluator`].
//! 4. **Repair the boundaries**: the sub-solves never saw the messages
//!    cut between clusters, so ops with cross-cluster edges are re-probed
//!    against the servers of their remote neighbours (a
//!    best-improvement pass over [`DeltaEvaluator::probe`]),
//!    charging one step per probe.
//!
//! Under an **unlimited** budget the solver additionally runs the inner
//! algorithm on the whole problem and keeps the better incumbent, so
//! `Hierarchical(A)` is never worse than `A` alone when budget is not
//! the constraint.

use wsflow_cost::{DeltaEvaluator, Mapping, Problem};
use wsflow_model::{Message, OpId, Workflow};
use wsflow_net::ServerId;

use crate::algorithm::{DeployError, DeploymentAlgorithm};
use crate::partition::{partition_ops, Partition};
use crate::solve::{SolveCtx, SolveOutcome};

/// Hierarchical cluster-and-stitch wrapper around an inner algorithm.
pub struct Hierarchical<A> {
    /// The algorithm solving each cluster sub-problem (and, at unlimited
    /// budget, the whole problem as a floor).
    pub inner: A,
    /// Target operations per cluster (blocks are never split, so one
    /// oversized decision block can exceed this).
    pub target_cluster_size: usize,
    /// Upper bound on boundary-repair sweeps.
    pub repair_sweeps: usize,
}

impl<A> Hierarchical<A> {
    /// Default target cluster size (ops per sub-problem).
    pub const DEFAULT_CLUSTER_SIZE: usize = 64;

    /// Wrap `inner` with the default cluster size and 3 repair sweeps.
    pub fn new(inner: A) -> Self {
        Self {
            inner,
            target_cluster_size: Self::DEFAULT_CLUSTER_SIZE,
            repair_sweeps: 3,
        }
    }

    /// Builder-style: override the target cluster size.
    pub fn with_cluster_size(mut self, target: usize) -> Self {
        self.target_cluster_size = target.max(1);
        self
    }
}

/// Build the sub-workflow of one cluster: ops renumbered by ascending
/// global id, keeping exactly the messages internal to the cluster.
fn cluster_workflow(w: &Workflow, cluster: &[OpId], idx: usize) -> Option<Workflow> {
    let mut local = vec![u32::MAX; w.num_ops()];
    for (i, &op) in cluster.iter().enumerate() {
        local[op.index()] = i as u32;
    }
    let ops = cluster.iter().map(|&o| w.op(o).clone()).collect();
    let msgs: Vec<Message> = w
        .messages()
        .iter()
        .filter(|m| local[m.from.index()] != u32::MAX && local[m.to.index()] != u32::MAX)
        .map(|m| {
            let mut m = m.clone();
            m.from = OpId::new(local[m.from.index()]);
            m.to = OpId::new(local[m.to.index()]);
            m
        })
        .collect();
    Workflow::new(format!("{}#k{idx}", w.name()), ops, msgs).ok()
}

/// The result of one cluster sub-solve, merged in cluster order.
struct ClusterResult {
    mapping: Option<Mapping>,
    consumed: u64,
    converged: bool,
}

impl<A: DeploymentAlgorithm + Sync> Hierarchical<A> {
    /// Solve every cluster sub-problem in parallel under split budget
    /// shares; `None` problems (build failures) fall back to the seed.
    fn solve_clusters(
        &self,
        subs: &[Option<Problem>],
        shares: &[Option<u64>],
        ctx: &SolveCtx<'_>,
    ) -> Vec<ClusterResult> {
        let token = ctx.token();
        wsflow_par::parallel_map(subs.len(), |k| {
            // One span per cluster, indexed by cluster number: the
            // structural (name, idx) pair is identical whether the
            // cluster runs here or on a worker thread, so the causal
            // tree is the same for every WSFLOW_THREADS setting.
            let _cluster_span = wsflow_obs::span_with("hier.cluster", k as u64);
            let Some(sub) = &subs[k] else {
                return ClusterResult {
                    mapping: None,
                    consumed: 0,
                    converged: false,
                };
            };
            let mut sub_ctx = SolveCtx::with_budget_opt(shares[k]).cancel_token(token.clone());
            match self.inner.solve(sub, &mut sub_ctx) {
                Ok(outcome) => ClusterResult {
                    mapping: Some(outcome.mapping),
                    consumed: sub_ctx.consumed(),
                    converged: outcome.termination == crate::solve::Termination::Converged,
                },
                Err(_) => ClusterResult {
                    mapping: None,
                    consumed: sub_ctx.consumed(),
                    converged: false,
                },
            }
        })
    }

    /// Batched best-improvement repair of the cluster boundaries.
    ///
    /// Returns `false` iff the pass was cut short by the budget.
    fn repair_boundaries(
        &self,
        problem: &Problem,
        partition: &Partition,
        delta: &mut DeltaEvaluator<'_>,
        ctx: &mut SolveCtx<'_>,
    ) -> bool {
        wsflow_obs::span_scope!("hier.repair");
        let w = problem.workflow();
        let of = partition.cluster_of(w.num_ops());
        // Boundary ops: any endpoint of a message cut by the partition.
        let mut boundary: Vec<OpId> = w
            .messages()
            .iter()
            .filter(|m| of[m.from.index()] != of[m.to.index()])
            .flat_map(|m| [m.from, m.to])
            .collect();
        boundary.sort_unstable();
        boundary.dedup();
        let mut cost = delta.cost().combined.value();
        for _ in 0..self.repair_sweeps {
            let mut improved = false;
            for &op in &boundary {
                let current = delta.mapping().server_of(op);
                // Candidates: where the op's direct neighbours live —
                // moving next to a remote neighbour kills the cut
                // message's transfer time.
                let mut candidates: Vec<ServerId> = w
                    .in_msgs(op)
                    .iter()
                    .map(|&m| delta.mapping().server_of(w.message(m).from))
                    .chain(
                        w.out_msgs(op)
                            .iter()
                            .map(|&m| delta.mapping().server_of(w.message(m).to)),
                    )
                    .filter(|&s| s != current)
                    .collect();
                candidates.sort_unstable();
                candidates.dedup();
                if candidates.is_empty() {
                    continue;
                }
                if !ctx.try_charge(candidates.len() as u64) {
                    return false;
                }
                let best = candidates
                    .iter()
                    .map(|&s| (s, delta.probe(op, s).combined.value()))
                    .min_by(|a, b| a.1.total_cmp(&b.1));
                if let Some((s, c)) = best {
                    if c < cost {
                        delta.apply(op, s);
                        cost = c;
                        improved = true;
                        ctx.offer(delta.mapping(), cost);
                    }
                }
            }
            if !improved {
                break;
            }
        }
        true
    }
}

impl<A: DeploymentAlgorithm + Sync> DeploymentAlgorithm for Hierarchical<A> {
    fn name(&self) -> &str {
        "Hierarchical"
    }

    fn solve(
        &self,
        problem: &Problem,
        ctx: &mut SolveCtx<'_>,
    ) -> Result<SolveOutcome, DeployError> {
        let w = problem.workflow();
        let partition = match partition_ops(w, self.target_cluster_size) {
            Ok(p) if p.len() > 1 => p,
            // One cluster (or an unexpectedly unstructured workflow):
            // nothing to shard, the inner algorithm is strictly better.
            _ => return self.inner.solve(problem, ctx),
        };
        wsflow_obs::span_scope!("hier.solve");
        let mark = ctx.mark();
        let n = problem.num_servers() as u32;
        let shared = problem.shared_network();
        let weights = *problem.weights();
        let subs: Vec<Option<Problem>> = partition
            .clusters
            .iter()
            .enumerate()
            .map(|(k, cluster)| {
                cluster_workflow(w, cluster, k).and_then(|sub| {
                    Problem::with_shared_network(
                        sub,
                        (shared.0.clone(), shared.1.clone(), shared.2.clone()),
                        weights,
                    )
                    .ok()
                })
            })
            .collect();
        let shares = wsflow_par::split_budget(ctx.remaining(), subs.len());
        let results = self.solve_clusters(&subs, &shares, ctx);
        let consumed: u64 = results.iter().map(|r| r.consumed).sum();
        ctx.charge(consumed);
        let mut all_converged = results.iter().all(|r| r.converged);

        // Stitch onto a deterministic round-robin seed: clusters whose
        // sub-solve failed keep the seed placement.
        let mut delta = {
            wsflow_obs::span_scope!("hier.stitch");
            let mut mapping = Mapping::from_fn(w.num_ops(), |o| ServerId::new(o.0 % n));
            for (cluster, result) in partition.clusters.iter().zip(&results) {
                if let Some(sub_mapping) = &result.mapping {
                    for (i, &op) in cluster.iter().enumerate() {
                        mapping.assign(op, sub_mapping.server_of(OpId::from(i)));
                    }
                } else {
                    all_converged = false;
                }
            }
            DeltaEvaluator::new(problem, mapping)
        };
        ctx.offer(delta.mapping(), delta.cost().combined.value());
        let repaired = self.repair_boundaries(problem, &partition, &mut delta, ctx);

        // Unlimited budget: also run the inner algorithm on the whole
        // problem into the same context, so the hierarchical result is
        // never worse than the flat one when budget is no object.
        if ctx.budget().is_none() && !ctx.cancelled() {
            self.inner.solve(problem, ctx)?;
        }

        let (best, cost) = ctx
            .incumbent()
            .map(|(m, c)| (m.clone(), c))
            .expect("hierarchical solve always offers at least the stitched mapping");
        Ok(ctx.finish(mark, best, cost, all_converged && repaired))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fair_load::FairLoad;
    use crate::solve::Termination;
    use wsflow_model::{MCycles, Mbits, MbitsPerSec, WorkflowBuilder};
    use wsflow_net::topology::{bus, homogeneous_servers};

    fn line_problem(ops: usize, servers: usize) -> Problem {
        let mut b = WorkflowBuilder::new("w");
        let cycles: Vec<MCycles> = (0..ops).map(|i| MCycles(5.0 + (i % 7) as f64)).collect();
        b.line("o", &cycles, Mbits(0.25));
        let net = bus("n", homogeneous_servers(servers, 2.0), MbitsPerSec(100.0)).unwrap();
        Problem::new(b.build().unwrap(), net).unwrap()
    }

    #[test]
    fn produces_a_total_mapping() {
        let p = line_problem(40, 4);
        let algo = Hierarchical::new(FairLoad).with_cluster_size(8);
        let out = algo
            .solve(&p, &mut SolveCtx::unlimited())
            .expect("hierarchical solve");
        assert_eq!(out.mapping.len(), p.num_ops());
        assert_eq!(out.termination, Termination::Converged);
        assert!(out.cost.is_finite());
    }

    #[test]
    fn unlimited_budget_never_worse_than_inner_alone() {
        let p = line_problem(48, 5);
        let flat = FairLoad.solve(&p, &mut SolveCtx::unlimited()).unwrap().cost;
        let hier = Hierarchical::new(FairLoad)
            .with_cluster_size(10)
            .solve(&p, &mut SolveCtx::unlimited())
            .unwrap()
            .cost;
        assert!(
            hier <= flat + 1e-12,
            "hierarchical {hier} must not lose to flat {flat}"
        );
    }

    #[test]
    fn finite_budget_is_deterministic_across_worker_counts() {
        let p = line_problem(60, 6);
        let run = |workers: usize| {
            wsflow_par::with_threads(workers, || {
                let algo = Hierarchical::new(FairLoad).with_cluster_size(12);
                let mut ctx = SolveCtx::with_budget(500);
                let out = algo.solve(&p, &mut ctx).unwrap();
                (out.mapping.clone(), out.cost.to_bits(), out.steps)
            })
        };
        let baseline = run(1);
        for workers in [2usize, 4, 7] {
            assert_eq!(run(workers), baseline, "diverged at {workers} workers");
        }
    }

    #[test]
    fn single_cluster_delegates_to_inner() {
        let p = line_problem(10, 3);
        let algo = Hierarchical::new(FairLoad); // default size 64 > 10 ops
        let hier = algo.solve(&p, &mut SolveCtx::unlimited()).unwrap();
        let flat = FairLoad.solve(&p, &mut SolveCtx::unlimited()).unwrap();
        assert_eq!(hier.mapping, flat.mapping);
        assert_eq!(hier.cost.to_bits(), flat.cost.to_bits());
    }

    #[test]
    fn zero_budget_still_yields_a_mapping() {
        let p = line_problem(30, 3);
        let algo = Hierarchical::new(FairLoad).with_cluster_size(6);
        let mut ctx = SolveCtx::with_budget(0);
        let out = algo.solve(&p, &mut ctx).unwrap();
        assert_eq!(out.mapping.len(), p.num_ops());
        assert_eq!(out.termination, Termination::BudgetExhausted);
    }
}
