//! Knowledge sources: the strategies that read and write the blackboard.
//!
//! Each source is a self-contained proposer. It sees the problem, the
//! current incumbent (if any), and a budgeted [`SolveCtx`]; it returns a
//! [`Proposal`] — a complete mapping with its combined cost — or nothing.
//! Sources never mutate shared state: the [`Blackboard`](super::Blackboard)
//! engine merges proposals in canonical source order, which is what keeps
//! the whole runtime bit-identical across worker counts.

use wsflow_cost::{DeltaEvaluator, Mapping, Problem};
use wsflow_model::OpId;
use wsflow_net::ServerId;

use crate::algorithm::{DeployError, DeploymentAlgorithm};
use crate::refine::{hill_climb_ctx, swap_refine_ctx};
use crate::solve::{SolveCtx, Termination};

/// Per-generation sweep cap for the improver sources.
const IMPROVER_SWEEPS: usize = 50;

/// What role a source plays in the blackboard's two phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceKind {
    /// Builds a complete mapping from scratch; runs once, in the opening
    /// race that seeds the incumbent.
    Constructive,
    /// Starts from the incumbent and tries to improve it; runs every
    /// generation until dominated.
    Improver,
}

/// A complete candidate deployment written to the blackboard.
#[derive(Debug, Clone)]
pub struct Proposal {
    /// The proposed (total) mapping.
    pub mapping: Mapping,
    /// Its combined cost under the problem's weights.
    pub cost: f64,
    /// Whether the source ran to its own convergence (`false` = the
    /// budget or the token cut it short).
    pub completed: bool,
}

/// A cooperating strategy on the blackboard.
///
/// `Send + Sync` because generations fan sources out across
/// `wsflow-par` workers; determinism comes from the engine merging
/// results in canonical order, not from any locking here.
pub trait KnowledgeSource: Send + Sync {
    /// Short name used in stats, metrics, and win-share tables.
    fn name(&self) -> &str;

    /// Constructive or improver.
    fn kind(&self) -> SourceKind;

    /// Propose a mapping. `incumbent` is a read-only snapshot of the
    /// blackboard (`None` before the first constructive lands); every
    /// logical step must be charged against `ctx`. Returning `Ok(None)`
    /// means "nothing to propose" and is not an error.
    fn propose(
        &self,
        problem: &Problem,
        incumbent: Option<(&Mapping, f64)>,
        ctx: &mut SolveCtx<'_>,
    ) -> Result<Option<Proposal>, DeployError>;
}

/// Lowercase alphanumeric slug for metric names (`FairLoad` →
/// `fairload`, `FLTR²`-style names collapse to their letters/digits).
pub(crate) fn slug(name: &str) -> String {
    name.chars()
        .filter(|c| c.is_ascii_alphanumeric())
        .collect::<String>()
        .to_ascii_lowercase()
}

/// Adapter running any [`DeploymentAlgorithm`] as a constructive source.
#[derive(Debug)]
pub struct Constructive<A> {
    algo: A,
}

impl<A: DeploymentAlgorithm> Constructive<A> {
    /// Wrap an algorithm.
    pub fn new(algo: A) -> Self {
        Self { algo }
    }
}

impl<A: DeploymentAlgorithm + Send + Sync> KnowledgeSource for Constructive<A> {
    fn name(&self) -> &str {
        self.algo.name()
    }

    fn kind(&self) -> SourceKind {
        SourceKind::Constructive
    }

    fn propose(
        &self,
        problem: &Problem,
        _incumbent: Option<(&Mapping, f64)>,
        ctx: &mut SolveCtx<'_>,
    ) -> Result<Option<Proposal>, DeployError> {
        let out = self.algo.solve(problem, ctx)?;
        Ok(Some(Proposal {
            completed: out.termination == Termination::Converged,
            mapping: out.mapping,
            cost: out.cost,
        }))
    }
}

/// First-improvement single-operation mover over the incumbent:
/// `refine::hill_climb_ctx` over every op, up to `IMPROVER_SWEEPS`
/// sweeps per generation.
#[derive(Debug, Clone)]
pub struct Mover;

impl KnowledgeSource for Mover {
    fn name(&self) -> &str {
        "Mover"
    }

    fn kind(&self) -> SourceKind {
        SourceKind::Improver
    }

    fn propose(
        &self,
        problem: &Problem,
        incumbent: Option<(&Mapping, f64)>,
        ctx: &mut SolveCtx<'_>,
    ) -> Result<Option<Proposal>, DeployError> {
        let Some((mapping, _)) = incumbent else {
            return Ok(None);
        };
        let ops: Vec<OpId> = problem.workflow().op_ids().collect();
        let (mapping, cost, completed) =
            hill_climb_ctx(problem, mapping.clone(), &ops, IMPROVER_SWEEPS, ctx);
        Ok(Some(Proposal {
            mapping,
            cost,
            completed,
        }))
    }
}

/// First-improvement pair swapper over the incumbent
/// (`refine::swap_refine_ctx`, up to `IMPROVER_SWEEPS` sweeps per
/// generation): explores fairness-preserving rearrangements single
/// moves cannot reach.
#[derive(Debug, Clone)]
pub struct Swapper;

impl KnowledgeSource for Swapper {
    fn name(&self) -> &str {
        "Swapper"
    }

    fn kind(&self) -> SourceKind {
        SourceKind::Improver
    }

    fn propose(
        &self,
        problem: &Problem,
        incumbent: Option<(&Mapping, f64)>,
        ctx: &mut SolveCtx<'_>,
    ) -> Result<Option<Proposal>, DeployError> {
        let Some((mapping, _)) = incumbent else {
            return Ok(None);
        };
        let (mapping, cost, completed) =
            swap_refine_ctx(problem, mapping.clone(), IMPROVER_SWEEPS, ctx);
        Ok(Some(Proposal {
            mapping,
            cost,
            completed,
        }))
    }
}

/// Hotspot repairer: `refine::hill_climb_ctx` restricted to the ops of
/// the incumbent's most loaded server, up to `IMPROVER_SWEEPS` sweeps
/// per generation — the kernel `wsflow-dyn`'s localized repair runs
/// over the ops a fault touches.
#[derive(Debug, Clone)]
pub struct Repairer;

impl Repairer {
    /// The ops on `mapping`'s most loaded server (ties to the smallest
    /// server id, so the choice is canonical), in ascending op order.
    pub(crate) fn hot_ops(problem: &Problem, mapping: &Mapping) -> Vec<OpId> {
        let delta = DeltaEvaluator::new(problem, mapping.clone());
        let mut hot = ServerId::new(0);
        let mut hot_load = f64::NEG_INFINITY;
        for (s, load) in delta.loads().iter().enumerate() {
            if load.value() > hot_load {
                hot_load = load.value();
                hot = ServerId::new(s as u32);
            }
        }
        problem
            .workflow()
            .op_ids()
            .filter(|&o| mapping.server_of(o) == hot)
            .collect()
    }
}

impl KnowledgeSource for Repairer {
    fn name(&self) -> &str {
        "Repairer"
    }

    fn kind(&self) -> SourceKind {
        SourceKind::Improver
    }

    fn propose(
        &self,
        problem: &Problem,
        incumbent: Option<(&Mapping, f64)>,
        ctx: &mut SolveCtx<'_>,
    ) -> Result<Option<Proposal>, DeployError> {
        let Some((mapping, cost)) = incumbent else {
            return Ok(None);
        };
        // The hottest server is the localized "fault" to repair around.
        let ops = Self::hot_ops(problem, mapping);
        if ops.is_empty() {
            return Ok(Some(Proposal {
                mapping: mapping.clone(),
                cost,
                completed: true,
            }));
        }
        let (mapping, cost, completed) =
            hill_climb_ctx(problem, mapping.clone(), &ops, IMPROVER_SWEEPS, ctx);
        Ok(Some(Proposal {
            mapping,
            cost,
            completed,
        }))
    }
}

/// Dijkstra-guided route improver: ranks the incumbent's cross-server
/// transfers by their time over the `RoutingTable`'s shortest paths (as
/// the problem's `CommMatrix` prices them) and tries to re-home the
/// endpoints of the costliest ones — onto each other's server, or onto
/// any intermediate server along the route.
/// First-improvement throughout, one probe per logical step, up to
/// `IMPROVER_SWEEPS` ranking/re-homing sweeps per generation.
#[derive(Debug, Clone)]
pub struct Router;

impl KnowledgeSource for Router {
    fn name(&self) -> &str {
        "Router"
    }

    fn kind(&self) -> SourceKind {
        SourceKind::Improver
    }

    fn propose(
        &self,
        problem: &Problem,
        incumbent: Option<(&Mapping, f64)>,
        ctx: &mut SolveCtx<'_>,
    ) -> Result<Option<Proposal>, DeployError> {
        let Some((start, _)) = incumbent else {
            return Ok(None);
        };
        let net = problem.network();
        let routing = problem.routing();
        let comm = problem.comm();
        let wf = problem.workflow();
        let mut delta = DeltaEvaluator::new(problem, start.clone());
        let mut cost = delta.cost().combined.value();
        let mut completed = true;
        'sweeps: for _ in 0..IMPROVER_SWEEPS {
            // Rank cross-server messages by routed transfer time,
            // descending; ties break on message index so the order is a
            // pure function of the current mapping.
            let mut ranked: Vec<(f64, usize)> = Vec::new();
            for (i, mid) in wf.msg_ids().enumerate() {
                let msg = wf.message(mid);
                let sf = delta.mapping().server_of(msg.from);
                let st = delta.mapping().server_of(msg.to);
                if sf == st {
                    continue;
                }
                ranked.push((comm.comm_secs(sf, st, msg.size.value()), i));
            }
            ranked.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
            let mut improved = false;
            'msgs: for &(_, i) in &ranked {
                let msg = &wf.messages()[i];
                let sf = delta.mapping().server_of(msg.from);
                let st = delta.mapping().server_of(msg.to);
                if sf == st {
                    // An earlier move this sweep already co-located it.
                    continue;
                }
                // Candidate re-homings: co-locate either endpoint, or
                // pull either endpoint onto a server along the route.
                let mut candidates: Vec<(OpId, ServerId)> = vec![(msg.from, st), (msg.to, sf)];
                if let Some(path) = routing.path(sf, st) {
                    for s in path.servers_from(net, sf) {
                        candidates.push((msg.from, s));
                        candidates.push((msg.to, s));
                    }
                }
                for (op, server) in candidates {
                    if delta.mapping().server_of(op) == server {
                        continue;
                    }
                    if !ctx.try_charge(1) {
                        completed = false;
                        break 'sweeps;
                    }
                    let c = delta.probe(op, server).combined.value();
                    if c < cost {
                        delta.apply(op, server);
                        cost = c;
                        improved = true;
                        continue 'msgs; // first improvement per message
                    }
                }
            }
            if !improved {
                break;
            }
        }
        Ok(Some(Proposal {
            mapping: delta.mapping().clone(),
            cost,
            completed,
        }))
    }
}
