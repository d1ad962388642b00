//! The exhaustive algorithm (§3.1 and appendix).
//!
//! Enumerates all `N^M` mappings and returns the one with minimum
//! combined cost. Usable only on small instances (the appendix version
//! materialises all mappings; this implementation enumerates them
//! incrementally in O(M) space, mixed-radix counter style).
//!
//! Enumeration is **parallel**: the index space `[0, N^M)` is split into
//! one contiguous range per worker, each worker scans its range with a
//! private [`Evaluator`], and the per-range winners are merged in range
//! order with a strict `<`. Mapping `k`'s digits (`digit i = (k / Nⁱ) mod
//! N`) are independent of the worker layout and every cost is produced
//! by the same `Evaluator` code, so the result is bit-for-bit identical
//! to a sequential scan for any worker count — including which of
//! several equal-cost optima is returned (the smallest enumeration
//! index).

use wsflow_cost::{Evaluator, Mapping, Problem};
use wsflow_model::OpId;
use wsflow_net::ServerId;

use crate::algorithm::{DeployError, DeploymentAlgorithm};
use crate::solve::{CancelToken, SolveCtx, SolveOutcome};

/// Default maximum number of mappings [`Exhaustive`] will enumerate.
pub const DEFAULT_LIMIT: u64 = 10_000_000;

/// Exhaustive enumeration of the whole search space.
///
/// # Examples
///
/// ```
/// use wsflow_core::{DeploymentAlgorithm, Exhaustive, FairLoad};
/// use wsflow_cost::{Evaluator, Problem};
/// use wsflow_model::{MCycles, Mbits, MbitsPerSec, WorkflowBuilder};
/// use wsflow_net::topology::{bus, homogeneous_servers};
///
/// let mut b = WorkflowBuilder::new("w");
/// b.line("op", &[MCycles(10.0), MCycles(30.0), MCycles(20.0)], Mbits(0.5));
/// let net = bus("n", homogeneous_servers(2, 1.0), MbitsPerSec(10.0)).unwrap();
/// let problem = Problem::new(b.build().unwrap(), net).unwrap();
///
/// let optimal = Exhaustive::new().deploy(&problem).unwrap(); // 2^3 = 8 mappings
/// let greedy = FairLoad.deploy(&problem).unwrap();
/// let mut ev = Evaluator::new(&problem);
/// assert!(ev.combined(&optimal) <= ev.combined(&greedy));
/// ```
#[derive(Debug, Clone)]
pub struct Exhaustive {
    /// Refuse instances whose `N^M` exceeds this.
    pub limit: u64,
}

impl Exhaustive {
    /// Exhaustive search with the default enumeration limit.
    pub fn new() -> Self {
        Self::with_limit(DEFAULT_LIMIT)
    }

    /// Exhaustive search with a custom limit.
    pub fn with_limit(limit: u64) -> Self {
        Self { limit }
    }
}

impl Default for Exhaustive {
    fn default() -> Self {
        Self::new()
    }
}

impl DeploymentAlgorithm for Exhaustive {
    fn name(&self) -> &str {
        "Exhaustive"
    }

    fn solve(
        &self,
        problem: &Problem,
        ctx: &mut SolveCtx<'_>,
    ) -> Result<SolveOutcome, DeployError> {
        let total = checked_space(problem, self.limit)?;
        wsflow_obs::span_scope!("exhaustive.scan");
        let mark = ctx.mark();
        // A zero-remaining budget grants no scan at all: return the
        // enumeration seed (index 0, all ops on server 0) evaluated but
        // uncharged, so a shared context that arrives here already
        // exhausted is not billed steps the budget never granted. The
        // seed keeps the never-no-mapping guarantee; `finish` resolves
        // the termination to `BudgetExhausted`.
        if ctx.remaining() == Some(0) {
            let (_, mapping) = decode_index(0, problem.num_ops(), problem.num_servers() as u64);
            let cost = Evaluator::new(problem).combined(&mapping).value();
            return Ok(ctx.finish(mark, mapping, cost, false));
        }
        // One logical step per enumeration index: a budget of B clamps
        // the scan to the prefix `[0, min(B, total))`. The prefix is a
        // property of the index space alone, so splitting it over any
        // number of workers scans exactly the same set of mappings —
        // budgeted results stay bit-identical for any `WSFLOW_THREADS`.
        // Past the zero-remaining guard at least one index is granted.
        let allowed = ctx.remaining().map_or(total, |r| r.min(total));
        let token = ctx.token();
        let ranges = wsflow_par::split_ranges(allowed as usize, wsflow_par::num_threads());
        let locals = wsflow_par::parallel_map(ranges.len(), |w| {
            let r = &ranges[w];
            scan_range(problem, r.start as u64, r.end as u64, &token)
        });
        ctx.charge(allowed);
        if wsflow_obs::enabled() {
            // Every index in the scanned prefix is evaluated exactly
            // once, so the node count is the prefix size — flushed once,
            // not per node.
            wsflow_obs::counter_add("exhaustive.runs", 1);
            wsflow_obs::counter_add("exhaustive.nodes_expanded", allowed);
        }
        // Merge in range order with a strict `<`: ties resolve to the
        // smallest enumeration index, exactly like a sequential scan.
        let mut best: Option<(Mapping, f64)> = None;
        for (mapping, cost) in locals.into_iter().flatten() {
            if best.as_ref().map(|(_, bc)| cost < *bc).unwrap_or(true) {
                best = Some((mapping, cost));
            }
        }
        let (mapping, cost) = best.expect("non-empty search space");
        Ok(ctx.finish(mark, mapping, cost, allowed == total))
    }
}

/// `N^M` as an exact `u64`, or the standard refusal error.
fn checked_space(problem: &Problem, limit: u64) -> Result<u64, DeployError> {
    let space = problem.search_space();
    // NaN-safe: anything not provably within the limit is refused.
    if space.partial_cmp(&(limit as f64)) != Some(std::cmp::Ordering::Less) && space != limit as f64
    {
        return Err(DeployError::SearchSpaceTooLarge { space, limit });
    }
    let n = problem.num_servers() as u64;
    (0..problem.num_ops())
        .try_fold(1u64, |acc, _| acc.checked_mul(n))
        .ok_or(DeployError::SearchSpaceTooLarge { space, limit })
}

/// Decode enumeration index `idx` into mixed-radix digits (digit 0 least
/// significant) and the corresponding mapping.
fn decode_index(idx: u64, m: usize, n: u64) -> (Vec<u32>, Mapping) {
    let mut digits = vec![0u32; m];
    let mut mapping = Mapping::all_on(m, ServerId::new(0));
    let mut rest = idx;
    for (i, d) in digits.iter_mut().enumerate() {
        *d = (rest % n) as u32;
        mapping.assign(OpId::from(i), ServerId::new(*d));
        rest /= n;
    }
    (digits, mapping)
}

/// Advance the mixed-radix counter by one; `true` until it wraps.
fn increment(digits: &mut [u32], mapping: &mut Mapping, n: u32) -> bool {
    for (i, d) in digits.iter_mut().enumerate() {
        *d += 1;
        if *d < n {
            mapping.assign(OpId::from(i), ServerId::new(*d));
            return true;
        }
        *d = 0;
        mapping.assign(OpId::from(i), ServerId::new(0));
    }
    false
}

/// Scan enumeration indices `[start, end)`, returning the best mapping
/// and cost (ties to the smallest index), or `None` for an empty range.
///
/// The cancel token is polled every [`CANCEL_POLL_PERIOD`] indices;
/// an early exit returns the best of the prefix scanned so far. (A
/// cancelled scan is therefore timing-dependent, unlike a budgeted one
/// — cancellation is a best-effort bail-out, not a reproducible cut.)
fn scan_range(
    problem: &Problem,
    start: u64,
    end: u64,
    token: &CancelToken,
) -> Option<(Mapping, f64)> {
    if start >= end {
        return None;
    }
    let n = problem.num_servers() as u32;
    let m = problem.num_ops();
    let mut ev = Evaluator::new(problem);
    let (mut digits, mut current) = decode_index(start, m, n as u64);
    let mut best = current.clone();
    let mut best_cost = ev.combined(&current).value();
    for idx in start + 1..end {
        if (idx - start).is_multiple_of(CANCEL_POLL_PERIOD) && token.is_cancelled() {
            break;
        }
        let more = increment(&mut digits, &mut current, n);
        debug_assert!(more, "range end exceeds the search space");
        let cost = ev.combined(&current).value();
        if cost < best_cost {
            best_cost = cost;
            best = current.clone();
        }
    }
    Some((best, best_cost))
}

/// How many enumeration indices a scan batch processes between cancel
/// polls.
const CANCEL_POLL_PERIOD: u64 = 4096;

/// Exhaustively enumerate and also report the optimum cost (convenience
/// for the quality study and for tests that compare heuristics to the
/// optimum).
pub fn optimum(problem: &Problem, limit: u64) -> Result<(Mapping, f64), DeployError> {
    let best = Exhaustive::with_limit(limit).deploy(problem)?;
    let mut ev = Evaluator::new(problem);
    let cost = ev.combined(&best).value();
    Ok((best, cost))
}

/// Enumerate the **entire Pareto front** of the (execution, penalty)
/// space — every mapping that no other mapping beats in both
/// objectives. The weight-independent ground truth the combined cost
/// scalarises (§4.2's "different distance measures could also be
/// considered").
///
/// Exponential like [`Exhaustive`]; guarded by the same limit.
pub fn pareto_front_exhaustive(
    problem: &Problem,
    limit: u64,
) -> Result<Vec<wsflow_cost::ParetoPoint<Mapping>>, DeployError> {
    let total = checked_space(problem, limit)?;
    wsflow_obs::span_scope!("exhaustive.pareto");
    if wsflow_obs::enabled() {
        wsflow_obs::counter_add("exhaustive.nodes_expanded", total);
    }
    let n = problem.num_servers() as u32;
    let m = problem.num_ops();
    let ranges = wsflow_par::split_ranges(total as usize, wsflow_par::num_threads());
    // Each worker evaluates its contiguous index range; concatenating
    // the per-range point lists in range order reproduces the sequential
    // enumeration order exactly, so the final front is identical for any
    // worker count.
    let chunks = wsflow_par::parallel_map(ranges.len(), |wk| {
        let r = &ranges[wk];
        if r.start >= r.end {
            return Vec::new();
        }
        let mut ev = Evaluator::new(problem);
        let (mut digits, mut current) = decode_index(r.start as u64, m, n as u64);
        let mut points = Vec::with_capacity(r.end - r.start);
        let cost = ev.evaluate(&current);
        points.push(wsflow_cost::ParetoPoint::from_cost(&cost, current.clone()));
        for _ in r.start + 1..r.end {
            increment(&mut digits, &mut current, n);
            let cost = ev.evaluate(&current);
            points.push(wsflow_cost::ParetoPoint::from_cost(&cost, current.clone()));
        }
        points
    });
    Ok(wsflow_cost::pareto_front(
        chunks.into_iter().flatten().collect(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsflow_model::{MCycles, Mbits, MbitsPerSec, WorkflowBuilder};
    use wsflow_net::topology::{bus, homogeneous_servers};

    fn small_problem(m: usize, n: usize) -> Problem {
        let mut b = WorkflowBuilder::new("w");
        let costs: Vec<MCycles> = (0..m).map(|i| MCycles(10.0 * (i + 1) as f64)).collect();
        b.line("o", &costs, Mbits(0.5));
        let net = bus("n", homogeneous_servers(n, 1.0), MbitsPerSec(10.0)).unwrap();
        Problem::new(b.build().unwrap(), net).unwrap()
    }

    #[test]
    fn finds_global_optimum_by_cross_check() {
        let p = small_problem(4, 2); // 16 mappings
        let (best, best_cost) = optimum(&p, 1_000).unwrap();
        // Cross-check against a plain nested loop over all 16 mappings.
        let mut ev = Evaluator::new(&p);
        let mut brute_best = f64::INFINITY;
        for bits in 0u32..16 {
            let m = Mapping::from_fn(4, |o| ServerId::new((bits >> o.0) & 1));
            brute_best = brute_best.min(ev.combined(&m).value());
        }
        assert!((best_cost - brute_best).abs() < 1e-12);
        assert!(best.is_valid_for(2));
    }

    #[test]
    fn beats_or_ties_every_heuristic_mapping() {
        let p = small_problem(5, 3); // 243 mappings
        let (_, best_cost) = optimum(&p, 1_000).unwrap();
        let mut ev = Evaluator::new(&p);
        for seed in 0..10 {
            let m = crate::baselines::RandomMapping::new(seed)
                .deploy(&p)
                .unwrap();
            assert!(ev.combined(&m).value() >= best_cost - 1e-12);
        }
    }

    #[test]
    fn respects_limit() {
        let p = small_problem(10, 4); // 4^10 ≈ 1.05M
        let err = Exhaustive::with_limit(1_000).deploy(&p).unwrap_err();
        assert!(matches!(err, DeployError::SearchSpaceTooLarge { .. }));
    }

    #[test]
    fn pareto_front_contains_both_extremes() {
        let p = small_problem(5, 2);
        let front = pareto_front_exhaustive(&p, 1_000).unwrap();
        assert!(!front.is_empty());
        // The combined-cost optimum lies on the front.
        let (_, opt) = optimum(&p, 1_000).unwrap();
        let best_combined = front
            .iter()
            .map(|pt| pt.execution() + pt.penalty())
            .fold(f64::INFINITY, f64::min);
        assert!((best_combined - opt).abs() < 1e-9);
        // Front members are mutually non-dominating.
        for a in &front {
            for b in &front {
                assert!(!a.dominates(b) || std::ptr::eq(a, b));
            }
        }
        // The front is sorted by execution time.
        for w in front.windows(2) {
            assert!(w[0].execution() <= w[1].execution());
        }
    }

    #[test]
    fn pareto_front_respects_limit() {
        let p = small_problem(10, 4);
        assert!(matches!(
            pareto_front_exhaustive(&p, 1_000).unwrap_err(),
            DeployError::SearchSpaceTooLarge { .. }
        ));
    }

    #[test]
    fn single_server_instance() {
        let mut b = WorkflowBuilder::new("w");
        b.line("o", &[MCycles(5.0), MCycles(5.0)], Mbits(0.1));
        // A bus needs ≥ 2 servers; use 2 and check space 4 enumerates fine.
        let net = bus("n", homogeneous_servers(2, 1.0), MbitsPerSec(10.0)).unwrap();
        let p = Problem::new(b.build().unwrap(), net).unwrap();
        let m = Exhaustive::new().deploy(&p).unwrap();
        assert!(m.is_valid_for(2));
    }
}
