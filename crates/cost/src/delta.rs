//! Delta-incremental cost evaluation for local-search moves.
//!
//! Local search (hill climbing, simulated annealing, the refinement pass
//! after FLTR) explores neighbourhoods of single-op reassignments
//! `op → s'`. Re-running the full [`Evaluator`] for every neighbour costs
//! `O(M·d + M + N)` per probe even though a move only perturbs a small
//! part of the DAG. [`DeltaEvaluator`] keeps the finish times and the
//! per-server loads of the *current* mapping and updates them
//! incrementally:
//!
//! * **Loads / penalty** — only the two servers touched by the move are
//!   re-folded, each in ascending op order, i.e. the exact accumulation
//!   order [`Evaluator::compute_loads`] uses. The penalty is then
//!   recomputed from the load vector. Cost: `O(M/N)` expected per move
//!   (the ops resident on the two servers) plus `O(N)` for the penalty.
//! * **Execution time** — only `op`, its direct successors, and any op
//!   whose finish time actually changes are re-relaxed, in topological
//!   order, through the *same* `Evaluator::finish_of` recurrence the
//!   full forward pass uses.
//!
//! Because every number is produced by the same floating-point
//! expression, in the same order, as a from-scratch [`Evaluator`] run,
//! the incremental results are **bit-for-bit identical** to
//! [`Evaluator::evaluate`] — not merely close. A staleness threshold
//! additionally forces a full recompute every `staleness_threshold`
//! moves as a defensive resync; in debug builds the resync asserts that
//! the incremental state was indeed exact.

use wsflow_model::{OpId, Seconds};
use wsflow_net::ServerId;

use crate::evaluator::Evaluator;
use crate::load::time_penalty_of_loads;
use crate::mapping::Mapping;
use crate::money::billed;
use crate::objective::CostBreakdown;
use crate::problem::Problem;

/// Run statistics for one [`DeltaEvaluator`]: plain integer adds on the
/// hot path (cheap enough to keep unconditionally), flushed to the
/// `wsflow-obs` registry in one batch when the evaluator is dropped —
/// and only if observability is enabled, so the disabled path never
/// touches the registry.
#[derive(Debug, Clone, Default)]
struct DeltaStats {
    /// Neighbour costs computed via [`DeltaEvaluator::probe`].
    probes: u64,
    /// Moves committed via [`DeltaEvaluator::apply`].
    applies: u64,
    /// Defensive staleness resyncs (full recomputes mid-walk).
    resyncs: u64,
    /// Probe affected-set sizes (undo-log depth); recorded only while
    /// observability is enabled.
    undo_depth: wsflow_obs::LocalHistogram,
}

/// A probed single-operation move: reassign `op` to `server` for a
/// post-move cost of `cost`. Produced by [`DeltaEvaluator::probe_move`]
/// and friends; committing it is `delta.apply(p.op, p.server)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MoveProposal {
    /// The operation to reassign.
    pub op: OpId,
    /// The target server.
    pub server: ServerId,
    /// The full cost breakdown the mapping would have after the move.
    pub cost: CostBreakdown,
}

impl MoveProposal {
    /// Does this move strictly improve on a combined cost of `current`?
    pub fn improves(&self, current: f64) -> bool {
        self.cost.combined.value() < current
    }
}

/// Incremental evaluator maintaining the cost of a mutable mapping.
///
/// ```
/// use wsflow_cost::{DeltaEvaluator, Mapping, Problem};
/// # use wsflow_model::{BlockSpec, MCycles, Mbits, MbitsPerSec, WorkflowBuilder};
/// # use wsflow_net::topology::{bus, homogeneous_servers};
/// # use wsflow_net::ServerId;
/// # let mut b = WorkflowBuilder::new("w");
/// # b.line("o", &[MCycles(10.0), MCycles(20.0)], Mbits(0.5));
/// # let net = bus("b", homogeneous_servers(2, 2.0), MbitsPerSec(10.0)).unwrap();
/// # let problem = Problem::new(b.build().unwrap(), net).unwrap();
/// let start = Mapping::all_on(problem.num_ops(), ServerId::new(0));
/// let mut delta = DeltaEvaluator::new(&problem, start);
/// let before = delta.cost().combined;
/// let after = delta.apply(wsflow_model::OpId::new(1), ServerId::new(1)).combined;
/// assert_ne!(before, after);
/// ```
#[derive(Debug, Clone)]
pub struct DeltaEvaluator<'p> {
    ev: Evaluator<'p>,
    mapping: Mapping,
    /// Finish time per op for `mapping` (always fully relaxed).
    finish: Vec<f64>,
    /// Per-server load for `mapping`, bit-identical to
    /// [`Evaluator::compute_loads`].
    loads: Vec<Seconds>,
    /// Sorted op indices resident on each server.
    ops_on: Vec<Vec<u32>>,
    /// Direct successor ops (deduplicated) per op.
    succs: Vec<Vec<OpId>>,
    /// Topological position of each op in the evaluator's order.
    pos_of: Vec<usize>,
    /// Scratch: dirty flag per op during re-relaxation.
    dirty: Vec<bool>,
    /// Scratch: hypothetical load vector used by [`Self::probe`].
    scratch_loads: Vec<Seconds>,
    /// Scratch: `(op index, saved finish bits)` undo log for
    /// [`Self::probe`].
    undo: Vec<(u32, u64)>,
    /// Moves applied since the last full recompute.
    moves_since_sync: usize,
    /// Full-recompute fallback period.
    staleness_threshold: usize,
    cost: CostBreakdown,
    /// Run statistics, flushed to `wsflow-obs` on drop.
    stats: DeltaStats,
}

impl Drop for DeltaEvaluator<'_> {
    fn drop(&mut self) {
        if !wsflow_obs::enabled() {
            return;
        }
        wsflow_obs::counter_add("delta.probes", self.stats.probes);
        wsflow_obs::counter_add("delta.applies", self.stats.applies);
        wsflow_obs::counter_add("delta.resyncs", self.stats.resyncs);
        wsflow_obs::merge_histogram("delta.undo_depth", &self.stats.undo_depth);
    }
}

impl<'p> DeltaEvaluator<'p> {
    /// Default number of moves between defensive full recomputes.
    pub const DEFAULT_STALENESS_THRESHOLD: usize = 1024;

    /// Build the evaluator and fully evaluate the starting `mapping`.
    pub fn new(problem: &'p Problem, mapping: Mapping) -> Self {
        let ev = Evaluator::new(problem);
        let w = problem.workflow();
        let m = w.num_ops();
        let mut succs: Vec<Vec<OpId>> = vec![Vec::new(); m];
        for (u, list) in succs.iter_mut().enumerate() {
            for &mid in w.out_msgs(OpId::from(u)) {
                let v = w.message(mid).to;
                if !list.contains(&v) {
                    list.push(v);
                }
            }
        }
        let mut pos_of = vec![0usize; m];
        for (pos, &u) in ev.order.iter().enumerate() {
            pos_of[u.index()] = pos;
        }
        let mut this = Self {
            ev,
            mapping,
            finish: vec![0.0; m],
            loads: vec![Seconds::ZERO; problem.num_servers()],
            ops_on: vec![Vec::new(); problem.num_servers()],
            succs,
            pos_of,
            dirty: vec![false; m],
            scratch_loads: Vec::new(),
            undo: Vec::new(),
            moves_since_sync: 0,
            staleness_threshold: Self::DEFAULT_STALENESS_THRESHOLD,
            cost: CostBreakdown::new(Seconds::ZERO, Seconds::ZERO, problem.weights()),
            stats: DeltaStats::default(),
        };
        this.recompute_all();
        this
    }

    /// Override the defensive full-recompute period (builder style).
    pub fn with_staleness_threshold(mut self, threshold: usize) -> Self {
        self.staleness_threshold = threshold.max(1);
        self
    }

    /// The current mapping.
    pub fn mapping(&self) -> &Mapping {
        &self.mapping
    }

    /// The cost of the current mapping (cached, no work).
    pub fn cost(&self) -> CostBreakdown {
        self.cost
    }

    /// Per-server loads of the current mapping.
    pub fn loads(&self) -> &[Seconds] {
        &self.loads
    }

    /// Number of neighbour costs computed via [`Self::probe`] so far.
    ///
    /// Probes are the logical-step currency of the anytime solver layer
    /// (`wsflow-core`'s `SolveCtx`): budgeted local searches charge one
    /// step per probe, and this accessor lets callers reconcile their
    /// own step accounting against the evaluator's.
    pub fn probes(&self) -> u64 {
        self.stats.probes
    }

    /// Number of moves committed via [`Self::apply`] so far.
    pub fn applies(&self) -> u64 {
        self.stats.applies
    }

    /// Replace the mapping wholesale and re-evaluate from scratch.
    pub fn reset(&mut self, mapping: Mapping) {
        self.mapping = mapping;
        self.recompute_all();
    }

    /// Reassign `op` to `server` and return the updated cost.
    ///
    /// No-op (returns the cached cost) if `op` is already there.
    pub fn apply(&mut self, op: OpId, server: ServerId) -> CostBreakdown {
        let old = self.mapping.server_of(op);
        if old == server {
            return self.cost;
        }
        self.stats.applies += 1;
        self.moves_since_sync += 1;
        if self.moves_since_sync >= self.staleness_threshold {
            self.stats.resyncs += 1;
            // Staleness fallback: periodically rebuild everything from
            // scratch so any state divergence (there should be none — see
            // the debug assertion, which checks the pre-move state) cannot
            // persist.
            #[cfg(debug_assertions)]
            self.assert_in_sync();
            self.mapping.assign(op, server);
            self.recompute_all();
            return self.cost;
        }
        self.mapping.assign(op, server);

        // Loads: re-fold only the two touched servers, in ascending op
        // order, matching `Evaluator::compute_loads` bit for bit.
        let idx = op.0;
        let from = &mut self.ops_on[old.index()];
        let at = from.binary_search(&idx).expect("op was on its old server");
        from.remove(at);
        let to = &mut self.ops_on[server.index()];
        let at = to.binary_search(&idx).unwrap_err();
        to.insert(at, idx);
        self.loads[old.index()] = self.fold_server_load(old, None, None);
        self.loads[server.index()] = self.fold_server_load(server, None, None);
        // Execution time: re-relax forward from `op`.
        self.relax_from(op, None);

        self.cost = self.make_cost(
            self.ev.completion_of(&self.finish),
            time_penalty_of_loads(&self.loads),
            |ops_on, s| !ops_on[s].is_empty(),
        );
        self.cost
    }

    /// Cost of the neighbour `op → server` without staying there.
    ///
    /// Unlike `apply` + apply-back, this is a single forward
    /// re-relaxation: changed finish times are recorded in an undo log
    /// and restored bit-for-bit afterwards (O(changed ops), not a second
    /// re-relaxation), and the hypothetical loads of the two touched
    /// servers are folded without mutating the residency lists at all.
    /// The returned cost is exactly what `apply(op, server)` would
    /// return, and the state afterwards is bit-identical to before.
    pub fn probe(&mut self, op: OpId, server: ServerId) -> CostBreakdown {
        let old = self.mapping.server_of(op);
        if old == server {
            return self.cost;
        }
        self.stats.probes += 1;
        // Hypothetical loads, same accumulation order as
        // `Evaluator::compute_loads`: the old server folded with `op`
        // skipped, the new server folded with `op` merged in at its
        // sorted position.
        self.scratch_loads.clear();
        self.scratch_loads.extend_from_slice(&self.loads);
        self.scratch_loads[old.index()] = self.fold_server_load(old, Some(op.0), None);
        self.scratch_loads[server.index()] = self.fold_server_load(server, None, Some(op.0));
        let penalty = time_penalty_of_loads(&self.scratch_loads);

        // Hypothetical finish times: relax in place, logging each
        // overwritten value for the restore below.
        self.mapping.assign(op, server);
        let mut undo = std::mem::take(&mut self.undo);
        undo.clear();
        self.relax_from(op, Some(&mut undo));
        // Hypothetical occupancy without touching the residency lists:
        // the destination is occupied by `op` itself; the origin stays
        // occupied only if `op` was not its last resident.
        let probed = self.make_cost(self.ev.completion_of(&self.finish), penalty, |ops_on, s| {
            if s == server.index() {
                true
            } else if s == old.index() {
                ops_on[s].len() > 1
            } else {
                !ops_on[s].is_empty()
            }
        });
        if wsflow_obs::enabled() {
            // Undo-log depth == number of ops whose finish time the move
            // actually perturbed (the probe's affected set).
            self.stats.undo_depth.record(undo.len() as f64);
        }
        while let Some((i, bits)) = undo.pop() {
            self.finish[i as usize] = f64::from_bits(bits);
        }
        self.undo = undo;
        self.mapping.assign(op, old);
        probed
    }

    /// Probe `op → server` and package the result as a [`MoveProposal`]
    /// — the currency knowledge sources post on the blackboard.
    ///
    /// Exactly one [`Self::probe`] (one logical step in the anytime
    /// layer's accounting); the state is untouched afterwards.
    pub fn probe_move(&mut self, op: OpId, server: ServerId) -> MoveProposal {
        MoveProposal {
            op,
            server,
            cost: self.probe(op, server),
        }
    }

    /// Full from-scratch recompute of finish times, loads, and cost.
    fn recompute_all(&mut self) {
        for list in &mut self.ops_on {
            list.clear();
        }
        for (op, server) in self.mapping.iter() {
            self.ops_on[server.index()].push(op.0);
        }
        self.ev.forward(&self.mapping, &mut self.finish);
        // `compute_loads` folds each server in ascending op order — the
        // order `fold_server_load` keeps — so the bits agree.
        self.loads
            .copy_from_slice(self.ev.compute_loads(&self.mapping));
        self.cost = self.make_cost(
            self.ev.completion_of(&self.finish),
            time_penalty_of_loads(&self.loads),
            |ops_on, s| !ops_on[s].is_empty(),
        );
        self.moves_since_sync = 0;
    }

    /// Assemble a breakdown for the given measures and an occupancy
    /// predicate over the residency lists (real for `apply`/
    /// `recompute_all`, hypothetical for `probe`). Priced networks go
    /// through the shared billing fold of [`crate::money`] — the same
    /// one [`Evaluator::evaluate`] uses, so full and incremental money
    /// figures are bit-identical; unpriced networks construct through
    /// the exact legacy two-term path.
    fn make_cost(
        &self,
        execution: Seconds,
        penalty: Seconds,
        occupied: impl Fn(&[Vec<u32>], usize) -> bool,
    ) -> CostBreakdown {
        let weights = self.ev.problem.weights();
        if self.ev.prices.has_prices() {
            let rate = self.ev.prices.occupied_rate(|s| occupied(&self.ops_on, s));
            CostBreakdown::with_money(execution, penalty, billed(rate, execution), weights)
        } else {
            CostBreakdown::new(execution, penalty, weights)
        }
    }

    /// Re-relax `op`, its direct successors (their inbound communication
    /// changed even if `finish[op]` did not), and transitively every op
    /// whose finish time actually moves, in topological order. With an
    /// `undo` log, each overwritten finish time is saved first; every op
    /// is relaxed at most once (dirtiness only propagates forward), so
    /// each entry is recorded exactly once.
    fn relax_from(&mut self, op: OpId, mut undo: Option<&mut Vec<(u32, u64)>>) {
        self.dirty[op.index()] = true;
        for &v in &self.succs[op.index()] {
            self.dirty[v.index()] = true;
        }
        for pos in self.pos_of[op.index()]..self.ev.order.len() {
            let u = self.ev.order[pos];
            if !self.dirty[u.index()] {
                continue;
            }
            self.dirty[u.index()] = false;
            let f = self.ev.finish_of(u, &self.mapping, &self.finish);
            if f.to_bits() != self.finish[u.index()].to_bits() {
                if let Some(log) = undo.as_deref_mut() {
                    log.push((u.0, self.finish[u.index()].to_bits()));
                }
                self.finish[u.index()] = f;
                for &v in &self.succs[u.index()] {
                    self.dirty[v.index()] = true;
                }
            }
        }
    }

    /// The load of one server, folded over its resident ops in ascending
    /// op order — exactly the accumulation order (and expression) of
    /// [`Evaluator::compute_loads`] — for the residency with `skip`
    /// removed and `insert` merged in at its sorted position (both
    /// `None` for the real residency).
    fn fold_server_load(
        &self,
        server: ServerId,
        skip: Option<u32>,
        mut insert: Option<u32>,
    ) -> Seconds {
        let term = |i: u32| {
            let secs = self.ev.proc_sec(i as usize, server.index());
            Seconds(secs * self.ev.prob_op[i as usize])
        };
        let mut acc = Seconds::ZERO;
        for &i in &self.ops_on[server.index()] {
            if let Some(extra) = insert.filter(|&extra| extra < i) {
                acc += term(extra);
                insert = None;
            }
            if Some(i) != skip {
                acc += term(i);
            }
        }
        if let Some(extra) = insert {
            acc += term(extra);
        }
        acc
    }

    /// Debug check: the incremental state matches a from-scratch
    /// evaluation bit for bit.
    #[cfg(debug_assertions)]
    fn assert_in_sync(&mut self) {
        let fresh = self.ev.evaluate(&self.mapping);
        debug_assert_eq!(
            self.cost.execution.value().to_bits(),
            fresh.execution.value().to_bits(),
            "incremental execution time drifted from Evaluator::evaluate"
        );
        debug_assert_eq!(
            self.cost.penalty.value().to_bits(),
            fresh.penalty.value().to_bits(),
            "incremental penalty drifted from Evaluator::evaluate"
        );
        debug_assert_eq!(
            self.cost.money.value().to_bits(),
            fresh.money.value().to_bits(),
            "incremental money drifted from Evaluator::evaluate"
        );
        debug_assert_eq!(
            self.cost.combined.value().to_bits(),
            fresh.combined.value().to_bits(),
            "incremental combined cost drifted from Evaluator::evaluate"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use wsflow_model::{
        BlockSpec, DecisionKind, MCycles, Mbits, MbitsPerSec, Probability, WorkflowBuilder,
    };
    use wsflow_net::topology::{bus, homogeneous_servers, line_uniform};
    use wsflow_net::Server;

    fn branchy_problem(n_servers: usize) -> Problem {
        let spec = BlockSpec::seq(vec![
            BlockSpec::op("a", MCycles(10.0)),
            BlockSpec::Decision {
                kind: DecisionKind::Xor,
                name: "x".into(),
                branches: vec![
                    (
                        Probability::new(0.25),
                        BlockSpec::seq(vec![
                            BlockSpec::op("b", MCycles(30.0)),
                            BlockSpec::op("c", MCycles(5.0)),
                        ]),
                    ),
                    (
                        Probability::new(0.75),
                        BlockSpec::and(
                            "y",
                            vec![
                                BlockSpec::op("d", MCycles(20.0)),
                                BlockSpec::op("e", MCycles(15.0)),
                            ],
                        ),
                    ),
                ],
            },
            BlockSpec::op("f", MCycles(8.0)),
        ]);
        let w = spec.lower("w", &mut || Mbits(0.4)).unwrap();
        let servers = (0..n_servers)
            .map(|i| Server::with_ghz(format!("s{i}"), 1.0 + (i % 3) as f64))
            .collect();
        let net = bus("b", servers, MbitsPerSec(10.0)).unwrap();
        Problem::new(w, net).unwrap()
    }

    #[test]
    fn single_move_matches_full_evaluation_bitwise() {
        let p = branchy_problem(3);
        let mut ev = Evaluator::new(&p);
        let start = Mapping::all_on(p.num_ops(), ServerId::new(0));
        let mut delta = DeltaEvaluator::new(&p, start.clone());
        for o in 0..p.num_ops() {
            for s in 0..3u32 {
                let got = delta.probe(OpId::from(o), ServerId::new(s));
                let mut m = start.clone();
                m.assign(OpId::from(o), ServerId::new(s));
                let want = ev.evaluate(&m);
                assert_eq!(
                    got.execution.value().to_bits(),
                    want.execution.value().to_bits()
                );
                assert_eq!(
                    got.penalty.value().to_bits(),
                    want.penalty.value().to_bits()
                );
                assert_eq!(
                    got.combined.value().to_bits(),
                    want.combined.value().to_bits()
                );
            }
        }
        // After all the probes the state must still equal the start.
        let want = ev.evaluate(&start);
        assert_eq!(
            delta.cost().combined.value().to_bits(),
            want.combined.value().to_bits()
        );
    }

    #[test]
    fn long_random_walk_stays_bitwise_exact() {
        let p = branchy_problem(4);
        let mut ev = Evaluator::new(&p);
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let start = Mapping::from_fn(p.num_ops(), |o| ServerId::new(o.0 % 4));
        let mut delta = DeltaEvaluator::new(&p, start).with_staleness_threshold(17);
        for step in 0..300 {
            let op = OpId::from(rng.gen_range(0..p.num_ops()));
            let server = ServerId::new(rng.gen_range(0..4u32));
            let got = delta.apply(op, server);
            let want = ev.evaluate(delta.mapping());
            assert_eq!(
                got.execution.value().to_bits(),
                want.execution.value().to_bits(),
                "execution diverged at step {step}"
            );
            assert_eq!(
                got.penalty.value().to_bits(),
                want.penalty.value().to_bits(),
                "penalty diverged at step {step}"
            );
        }
    }

    #[test]
    fn probes_onto_occupied_servers_match_full_evaluation_bitwise() {
        // Many ops per server with irrational-ish costs, so a probe that
        // merged `op` into a non-empty residency out of ascending op
        // order would show in the last bits of a load.
        let mut rng = ChaCha8Rng::seed_from_u64(31);
        let costs: Vec<MCycles> = (0..40)
            .map(|_| MCycles(1.0 + rng.gen::<f64>() * 97.3))
            .collect();
        let mut b = WorkflowBuilder::new("w");
        b.line("o", &costs, Mbits(0.3));
        let servers = (0..3)
            .map(|i| Server::with_ghz(format!("s{i}"), 1.3 + 0.7 * i as f64))
            .collect();
        let net = bus("b", servers, MbitsPerSec(10.0)).unwrap();
        let p = Problem::new(b.build().unwrap(), net).unwrap();
        let mut ev = Evaluator::new(&p);
        let start = Mapping::from_fn(p.num_ops(), |_| ServerId::new(rng.gen_range(0..3u32)));
        let mut delta = DeltaEvaluator::new(&p, start);
        for step in 0..400 {
            let op = OpId::from(rng.gen_range(0..p.num_ops()));
            let server = ServerId::new(rng.gen_range(0..3u32));
            let got = delta.probe(op, server);
            let mut m = delta.mapping().clone();
            m.assign(op, server);
            let want = ev.evaluate(&m);
            assert_eq!(
                got.penalty.value().to_bits(),
                want.penalty.value().to_bits(),
                "penalty diverged probing at step {step}"
            );
            assert_eq!(
                got.combined.value().to_bits(),
                want.combined.value().to_bits()
            );
            let op = OpId::from(rng.gen_range(0..p.num_ops()));
            delta.apply(op, ServerId::new(rng.gen_range(0..3u32)));
        }
    }

    #[test]
    fn line_topology_with_routing_is_exact_too() {
        // Non-trivial routed paths (multi-hop line) exercise the pair
        // coefficients; the delta path must still agree bitwise.
        let mut b = WorkflowBuilder::new("w");
        b.line(
            "o",
            &[
                MCycles(10.0),
                MCycles(20.0),
                MCycles(30.0),
                MCycles(5.0),
                MCycles(12.0),
            ],
            Mbits(0.5),
        );
        let net = line_uniform("l", homogeneous_servers(4, 2.0), MbitsPerSec(8.0)).unwrap();
        let p = Problem::new(b.build().unwrap(), net).unwrap();
        let mut ev = Evaluator::new(&p);
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let mut delta = DeltaEvaluator::new(&p, Mapping::all_on(p.num_ops(), ServerId::new(0)));
        for _ in 0..120 {
            let op = OpId::from(rng.gen_range(0..p.num_ops()));
            let server = ServerId::new(rng.gen_range(0..4u32));
            let got = delta.apply(op, server);
            let want = ev.evaluate(delta.mapping());
            assert_eq!(
                got.combined.value().to_bits(),
                want.combined.value().to_bits()
            );
        }
    }

    fn priced_branchy_problem(n_servers: usize) -> Problem {
        use wsflow_model::DollarsPerHour;
        let p = branchy_problem(n_servers);
        let mut net = p.network().clone();
        for i in 0..n_servers {
            // Heterogeneous, irrational-ish prices so any fold-order
            // deviation between the paths shows up in the last bits.
            net.set_server_price(
                ServerId::new(i as u32),
                DollarsPerHour(0.1 + (i as f64) * 0.37),
            )
            .unwrap();
        }
        Problem::with_weights(
            p.workflow().clone(),
            net,
            crate::objective::CostWeights::tri(1.0, 1.0, 0.5),
        )
        .unwrap()
    }

    #[test]
    fn money_probes_match_full_evaluation_bitwise() {
        let p = priced_branchy_problem(3);
        let mut ev = Evaluator::new(&p);
        let start = Mapping::all_on(p.num_ops(), ServerId::new(0));
        let mut delta = DeltaEvaluator::new(&p, start.clone());
        for o in 0..p.num_ops() {
            for s in 0..3u32 {
                let got = delta.probe(OpId::from(o), ServerId::new(s));
                let mut m = start.clone();
                m.assign(OpId::from(o), ServerId::new(s));
                let want = ev.evaluate(&m);
                assert_eq!(
                    got.money.value().to_bits(),
                    want.money.value().to_bits(),
                    "money diverged probing op {o} -> server {s}"
                );
                assert_eq!(
                    got.combined.value().to_bits(),
                    want.combined.value().to_bits()
                );
            }
        }
    }

    #[test]
    fn money_random_walk_stays_bitwise_exact() {
        let p = priced_branchy_problem(4);
        let mut ev = Evaluator::new(&p);
        let mut rng = ChaCha8Rng::seed_from_u64(23);
        let start = Mapping::from_fn(p.num_ops(), |o| ServerId::new(o.0 % 4));
        let mut delta = DeltaEvaluator::new(&p, start).with_staleness_threshold(13);
        for step in 0..200 {
            let op = OpId::from(rng.gen_range(0..p.num_ops()));
            let server = ServerId::new(rng.gen_range(0..4u32));
            let got = delta.apply(op, server);
            let want = ev.evaluate(delta.mapping());
            assert_eq!(
                got.money.value().to_bits(),
                want.money.value().to_bits(),
                "money diverged at step {step}"
            );
            assert_eq!(
                got.combined.value().to_bits(),
                want.combined.value().to_bits(),
                "combined diverged at step {step}"
            );
        }
    }

    #[test]
    fn reset_reevaluates_from_scratch() {
        let p = branchy_problem(3);
        let mut ev = Evaluator::new(&p);
        let mut delta = DeltaEvaluator::new(&p, Mapping::all_on(p.num_ops(), ServerId::new(0)));
        let m = Mapping::from_fn(p.num_ops(), |o| ServerId::new((o.0 + 1) % 3));
        delta.reset(m.clone());
        let want = ev.evaluate(&m);
        assert_eq!(
            delta.cost().combined.value().to_bits(),
            want.combined.value().to_bits()
        );
    }

    #[test]
    fn probe_move_carries_the_probed_cost() {
        let p = branchy_problem(3);
        let mut delta = DeltaEvaluator::new(&p, Mapping::all_on(p.num_ops(), ServerId::new(0)));
        let proposal = delta.probe_move(OpId(1), ServerId::new(2));
        assert_eq!(proposal.op, OpId(1));
        assert_eq!(proposal.server, ServerId::new(2));
        let direct = delta.probe(OpId(1), ServerId::new(2));
        assert_eq!(
            proposal.cost.combined.value().to_bits(),
            direct.combined.value().to_bits()
        );
    }
}
