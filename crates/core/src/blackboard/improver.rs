//! The blackboard's four improvers: each reads a frozen snapshot of the
//! incumbent and returns a complete mapping with its combined cost. None
//! mutates shared state; the [`Blackboard`](super::Blackboard) engine
//! merges their results in canonical order, which is what keeps the
//! whole runtime bit-identical across worker counts.

use wsflow_cost::{DeltaEvaluator, Evaluator, Mapping, Problem};
use wsflow_model::OpId;
use wsflow_net::ServerId;

use crate::refine::{hill_climb_ctx, swap_refine_ctx};
use crate::solve::SolveCtx;

/// Per-generation sweep cap for the improvers.
const IMPROVER_SWEEPS: usize = 50;

/// An improver of the blackboard, in canonical order.
#[derive(Debug, Clone, Copy)]
pub(super) enum Improver {
    /// First-improvement single-operation mover: `refine::hill_climb_ctx`
    /// over every op.
    Mover,
    /// First-improvement pair swapper (`refine::swap_refine_ctx`):
    /// explores fairness-preserving rearrangements single moves cannot
    /// reach.
    Swapper,
    /// Hotspot repairer: `refine::hill_climb_ctx` restricted to the ops
    /// of the incumbent's most loaded server — the kernel `wsflow-dyn`'s
    /// localized repair runs over the ops a fault touches.
    Repairer,
    /// Dijkstra-guided route improver (see [`route`]).
    Router,
}

impl Improver {
    /// Every improver, in canonical order.
    pub(super) const ALL: [Improver; 4] = [
        Improver::Mover,
        Improver::Swapper,
        Improver::Repairer,
        Improver::Router,
    ];

    /// Short name used in stats, metrics, and win-share tables.
    pub(super) fn name(self) -> &'static str {
        match self {
            Improver::Mover => "Mover",
            Improver::Swapper => "Swapper",
            Improver::Repairer => "Repairer",
            Improver::Router => "Router",
        }
    }

    /// Improve `incumbent` (of combined cost `cost`) for up to
    /// `IMPROVER_SWEEPS` sweeps, charging every probe against `ctx`.
    /// Returns the mapping, its combined cost, and whether the improver
    /// ran to its own convergence (`false` = the budget or the token cut
    /// it short).
    pub(super) fn improve(
        self,
        problem: &Problem,
        incumbent: &Mapping,
        cost: f64,
        ctx: &mut SolveCtx<'_>,
    ) -> (Mapping, f64, bool) {
        let start = incumbent.clone();
        match self {
            Improver::Mover => {
                let ops: Vec<OpId> = problem.workflow().op_ids().collect();
                hill_climb_ctx(problem, start, &ops, IMPROVER_SWEEPS, ctx)
            }
            Improver::Swapper => swap_refine_ctx(problem, start, IMPROVER_SWEEPS, ctx),
            Improver::Repairer => {
                // The hottest server is the localized "fault" to repair
                // around.
                let ops = hot_ops(problem, incumbent);
                if ops.is_empty() {
                    return (start, cost, true);
                }
                hill_climb_ctx(problem, start, &ops, IMPROVER_SWEEPS, ctx)
            }
            Improver::Router => route(problem, start, ctx),
        }
    }
}

/// The ops on `mapping`'s most loaded server (ties to the smallest
/// server id, so the choice is canonical), in ascending op order.
pub(crate) fn hot_ops(problem: &Problem, mapping: &Mapping) -> Vec<OpId> {
    let mut ev = Evaluator::new(problem);
    let mut hot = ServerId::new(0);
    let mut hot_load = f64::NEG_INFINITY;
    for (s, load) in ev.compute_loads(mapping).iter().enumerate() {
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

/// The Router: ranks the mapping's cross-server transfers by their time
/// over the `RoutingTable`'s shortest paths (as the problem's
/// `CommMatrix` prices them) and tries to re-home the endpoints of the
/// costliest ones — onto each other's server, or onto any intermediate
/// server along the route. First-improvement throughout, one probe per
/// logical step, up to `IMPROVER_SWEEPS` ranking/re-homing sweeps.
fn route(problem: &Problem, start: Mapping, ctx: &mut SolveCtx<'_>) -> (Mapping, f64, bool) {
    let net = problem.network();
    let routing = problem.routing();
    let comm = problem.comm();
    let wf = problem.workflow();
    let mut delta = DeltaEvaluator::new(problem, start);
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
            // Candidate re-homings: co-locate either endpoint, or pull
            // either endpoint onto a server along the route.
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
    (delta.mapping().clone(), cost, completed)
}
