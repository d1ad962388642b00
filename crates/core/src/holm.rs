//! Algorithm *Heavy Operations – Large Messages* (HOLM; §3.3).
//!
//! Operates like Fair Load "with the fundamental difference that
//! operations are not treated separately, but as groups. Two operations
//! are clustered in the same group if they exchange a large message."
//! Each step either
//!
//! * **(a)** assigns the costliest group of operations to the server
//!   with the most available cycles — when the largest pending message
//!   is *not* large, i.e. transferring it is cheaper than processing the
//!   costliest group on the most available server — or
//! * **(b)** neutralises the largest message: **(b1)** if one of its
//!   ends is already placed, the other end joins it on the same server;
//!   **(b2)** otherwise the two ends' groups are merged.
//!
//! Messages are dropped from consideration once both their ends are
//! placed, and also once both ends share a group (the grouped ends will
//! inevitably be co-located, so the message can no longer cross the
//! bus; without this pruning step (b2) would loop forever on the same
//! message).

use wsflow_cost::{Mapping, Problem};
use wsflow_model::{MCycles, OpId};
use wsflow_net::ServerId;

use crate::algorithm::{DeployError, DeploymentAlgorithm};
use crate::fair_load::neediest_server;
use crate::solve::{construction_steps, constructive_outcome, SolveCtx, SolveOutcome};
use crate::view::InstanceView;

/// Heavy Operations – Large Messages.
///
/// # Examples
///
/// On a slow bus, HOLM groups the endpoints of large messages so they
/// never cross the network:
///
/// ```
/// use wsflow_core::{DeploymentAlgorithm, HeavyOpsLargeMsgs};
/// use wsflow_cost::{network_traffic, Problem};
/// use wsflow_model::{MCycles, Mbits, MbitsPerSec, WorkflowBuilder};
/// use wsflow_net::topology::{bus, homogeneous_servers};
///
/// let mut b = WorkflowBuilder::new("w");
/// b.line("op", &[MCycles(10.0); 4], Mbits(50.0)); // huge messages
/// let net = bus("n", homogeneous_servers(2, 1.0), MbitsPerSec(1.0)).unwrap();
/// let problem = Problem::new(b.build().unwrap(), net).unwrap();
///
/// let mapping = HeavyOpsLargeMsgs.deploy(&problem).unwrap();
/// assert_eq!(network_traffic(&problem, &mapping).value(), 0.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct HeavyOpsLargeMsgs;

#[derive(Debug)]
struct Group {
    ops: Vec<OpId>,
    cycles: MCycles,
    alive: bool,
}

impl HeavyOpsLargeMsgs {
    fn construct(problem: &Problem) -> Mapping {
        let view = InstanceView::new(problem);
        let m = view.num_ops();
        // Initially each operation is a group by itself.
        let mut groups: Vec<Group> = (0..m)
            .map(|i| Group {
                ops: vec![OpId::from(i)],
                cycles: view.cycles[i],
                alive: true,
            })
            .collect();
        let mut group_of: Vec<usize> = (0..m).collect();
        let mut assigned: Vec<Option<ServerId>> = vec![None; m];
        let mut remaining = view.ideal_cycles.clone();
        // Live messages, kept sorted descending by size.
        let mut live_msgs: Vec<usize> = (0..view.msgs.len()).collect();
        live_msgs.sort_by(|&a, &b| {
            view.msgs[b]
                .size
                .partial_cmp(&view.msgs[a].size)
                .expect("sizes are finite")
                .then_with(|| a.cmp(&b))
        });
        let mut unassigned = m;

        let place = |op: OpId,
                     server: ServerId,
                     assigned: &mut Vec<Option<ServerId>>,
                     remaining: &mut Vec<MCycles>,
                     unassigned: &mut usize| {
            debug_assert!(assigned[op.index()].is_none());
            assigned[op.index()] = Some(server);
            remaining[server.index()] -= view.cycles[op.index()];
            *unassigned -= 1;
        };

        while unassigned > 0 {
            // Prune messages that can no longer cross the bus.
            live_msgs.retain(|&mi| {
                let msg = &view.msgs[mi];
                let (f, t) = (msg.from.index(), msg.to.index());
                let both_assigned = assigned[f].is_some() && assigned[t].is_some();
                let both_grouped =
                    assigned[f].is_none() && assigned[t].is_none() && group_of[f] == group_of[t];
                !(both_assigned || both_grouped)
            });

            // Costliest alive group (ties: lowest index).
            let g1 = groups
                .iter()
                .enumerate()
                .filter(|(_, g)| g.alive && !g.ops.is_empty())
                .max_by(|(ia, a), (ib, b)| {
                    a.cycles
                        .partial_cmp(&b.cycles)
                        .expect("cycles are finite")
                        .then_with(|| ib.cmp(ia))
                })
                .map(|(i, _)| i)
                .expect("unassigned ops always belong to an alive group");
            let s1 = neediest_server(&remaining);

            let message_is_large = live_msgs.first().map(|&mi| {
                view.bus_time(view.msgs[mi].size) > view.proc_time(groups[g1].cycles, s1)
            });

            match message_is_large {
                // Option (a): no (large) message pending — place the
                // costliest group on the most available server.
                None | Some(false) => {
                    let ops = std::mem::take(&mut groups[g1].ops);
                    groups[g1].alive = false;
                    groups[g1].cycles = MCycles::ZERO;
                    for op in ops {
                        place(op, s1, &mut assigned, &mut remaining, &mut unassigned);
                    }
                }
                // Option (b): neutralise the largest message.
                Some(true) => {
                    let mi = live_msgs[0];
                    let msg = view.msgs[mi];
                    let (src, tgt) = (msg.from, msg.to);
                    match (assigned[src.index()], assigned[tgt.index()]) {
                        // (b1) one end placed: the other joins it.
                        (None, Some(server)) => {
                            detach(&mut groups, &mut group_of, &view, src);
                            place(src, server, &mut assigned, &mut remaining, &mut unassigned);
                        }
                        (Some(server), None) => {
                            detach(&mut groups, &mut group_of, &view, tgt);
                            place(tgt, server, &mut assigned, &mut remaining, &mut unassigned);
                        }
                        // (b2) neither placed: merge the two groups.
                        (None, None) => {
                            let (ga, gb) = (group_of[src.index()], group_of[tgt.index()]);
                            debug_assert_ne!(ga, gb, "same-group messages are pruned");
                            merge(&mut groups, &mut group_of, ga, gb);
                        }
                        (Some(_), Some(_)) => {
                            unreachable!("fully-assigned messages are pruned")
                        }
                    }
                }
            }
        }

        Mapping::from_fn(m, |op| {
            assigned[op.index()].expect("loop exits only when all ops are placed")
        })
    }
}

impl DeploymentAlgorithm for HeavyOpsLargeMsgs {
    fn name(&self) -> &str {
        "HeavyOps-LargeMsgs"
    }

    fn solve(
        &self,
        problem: &Problem,
        ctx: &mut SolveCtx<'_>,
    ) -> Result<SolveOutcome, DeployError> {
        let mapping = Self::construct(problem);
        Ok(constructive_outcome(
            problem,
            ctx,
            mapping,
            construction_steps(problem),
        ))
    }
}

/// Remove `op` from its group ("Delete source(m₁) from its group"),
/// updating the group's cycle total.
fn detach(groups: &mut [Group], group_of: &mut [usize], view: &InstanceView, op: OpId) {
    let g = group_of[op.index()];
    let group = &mut groups[g];
    group.ops.retain(|&o| o != op);
    group.cycles -= view.cycles[op.index()];
    if group.ops.is_empty() {
        group.alive = false;
    }
}

/// Merge group `gb` into `ga` (the paper's `Merge`; the merged group
/// inherits all operations and the summed cycles).
fn merge(groups: &mut [Group], group_of: &mut [usize], ga: usize, gb: usize) {
    let ops_b = std::mem::take(&mut groups[gb].ops);
    let cycles_b = groups[gb].cycles;
    groups[gb].alive = false;
    groups[gb].cycles = MCycles::ZERO;
    for &op in &ops_b {
        group_of[op.index()] = ga;
    }
    groups[ga].ops.extend(ops_b);
    groups[ga].cycles += cycles_b;
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsflow_cost::reference::{texecute, time_penalty};
    use wsflow_cost::{network_traffic, Evaluator};
    use wsflow_model::{Mbits, MbitsPerSec, WorkflowBuilder};
    use wsflow_net::topology::{bus, homogeneous_servers};

    fn line_problem(costs: &[f64], sizes: &[f64], servers: usize, mbps: f64) -> Problem {
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
        let net = bus("n", homogeneous_servers(servers, 1.0), MbitsPerSec(mbps)).unwrap();
        Problem::new(b.build().unwrap(), net).unwrap()
    }

    #[test]
    fn produces_total_valid_mapping() {
        let p = line_problem(&[10.0, 20.0, 30.0, 40.0], &[0.1, 0.2, 0.3], 2, 100.0);
        let m = HeavyOpsLargeMsgs.deploy(&p).unwrap();
        assert_eq!(m.len(), 4);
        assert!(m.is_valid_for(2));
    }

    #[test]
    fn deterministic() {
        let p = line_problem(
            &[10.0, 20.0, 30.0, 40.0, 50.0],
            &[0.5, 0.1, 0.9, 0.3],
            3,
            10.0,
        );
        assert_eq!(
            HeavyOpsLargeMsgs.deploy(&p).unwrap(),
            HeavyOpsLargeMsgs.deploy(&p).unwrap()
        );
    }

    #[test]
    fn fast_bus_degenerates_to_fair_grouping() {
        // On a very fast bus no message is ever "large", so HOLM reduces
        // to worst-fit over groups of one — i.e. Fair Load.
        let p = line_problem(&[50.0, 30.0, 20.0, 10.0], &[0.01; 3], 2, 1_000_000.0);
        let holm = HeavyOpsLargeMsgs.deploy(&p).unwrap();
        let fair = crate::fair_load::FairLoad.deploy(&p).unwrap();
        assert_eq!(holm, fair);
    }

    #[test]
    fn slow_bus_collapses_everything_to_one_server() {
        // When every message dwarfs all processing, all groups merge and
        // land on a single server: zero traffic.
        let p = line_problem(&[10.0, 10.0, 10.0, 10.0], &[100.0, 100.0, 100.0], 2, 1.0);
        let m = HeavyOpsLargeMsgs.deploy(&p).unwrap();
        assert_eq!(m.servers_used(), 1);
        assert_eq!(network_traffic(&p, &m), Mbits::ZERO);
    }

    #[test]
    fn large_message_ends_are_colocated() {
        let p = line_problem(
            &[10.0, 10.0, 10.0, 10.0, 10.0, 10.0],
            &[0.01, 0.02, 80.0, 0.01, 0.02],
            3,
            1.0,
        );
        let m = HeavyOpsLargeMsgs.deploy(&p).unwrap();
        assert_eq!(m.server_of(OpId::new(2)), m.server_of(OpId::new(3)));
    }

    #[test]
    fn b1_join_attaches_unassigned_end_to_assigned_server() {
        // One heavy group gets placed first (option a); then the large
        // message touching it fires option (b1): the unplaced end joins
        // the heavy op's server.
        let p = line_problem(&[500.0, 10.0, 10.0, 10.0], &[5.0, 0.001, 0.001], 2, 1.0);
        // proc(o0)=0.5 s on 1 GHz > bus(5 Mbit @ 1 Mbps)=5 s? No: 5 > 0.5,
        // so the 5 Mbit message IS large → option b first: o0,o1 merge.
        // Then group {o0,o1} (510 Mc → 0.51 s) vs next message 0.001
        // (0.001 s): proc > send → place the group.
        let m = HeavyOpsLargeMsgs.deploy(&p).unwrap();
        assert_eq!(
            m.server_of(OpId::new(0)),
            m.server_of(OpId::new(1)),
            "large-message ends co-located: {m}"
        );
    }

    #[test]
    fn beats_fair_load_execution_time_on_slow_bus() {
        // §4.2: "HeavyOps-LargeMsgs produces quite acceptable execution
        // times, esp. for small bus capacities."
        let p = line_problem(
            &[10.0, 30.0, 20.0, 40.0, 10.0, 30.0, 20.0],
            &[2.0, 0.05, 3.0, 0.05, 2.5, 0.05],
            3,
            1.0,
        );
        let holm = HeavyOpsLargeMsgs.deploy(&p).unwrap();
        let fair = crate::fair_load::FairLoad.deploy(&p).unwrap();
        assert!(
            texecute(&p, &holm) <= texecute(&p, &fair),
            "HOLM {} vs FairLoad {}",
            texecute(&p, &holm),
            texecute(&p, &fair)
        );
    }

    #[test]
    fn stays_reasonably_fair_on_fast_bus() {
        let p = line_problem(
            &[10.0, 30.0, 20.0, 40.0, 10.0, 30.0],
            &[0.05, 0.02, 0.07, 0.01, 0.06],
            3,
            1_000.0,
        );
        let m = HeavyOpsLargeMsgs.deploy(&p).unwrap();
        // All messages are tiny relative to work; load should spread.
        assert!(m.servers_used() >= 2);
        assert!(time_penalty(&p, &m).value() < 0.05);
    }

    #[test]
    fn works_on_random_graphs() {
        use wsflow_model::BlockSpec;
        let spec = BlockSpec::seq(vec![
            BlockSpec::op("a", MCycles(20.0)),
            BlockSpec::xor_uniform(
                "x",
                vec![
                    BlockSpec::op("l", MCycles(40.0)),
                    BlockSpec::op("r", MCycles(10.0)),
                ],
            ),
            BlockSpec::op("z", MCycles(30.0)),
        ]);
        let mut i = 0;
        let w = spec
            .lower("g", &mut || {
                i += 1;
                Mbits(0.1 * i as f64)
            })
            .unwrap();
        let net = bus("n", homogeneous_servers(3, 1.0), MbitsPerSec(10.0)).unwrap();
        let p = Problem::new(w, net).unwrap();
        let m = HeavyOpsLargeMsgs.deploy(&p).unwrap();
        assert_eq!(m.len(), p.num_ops());
        let mut ev = Evaluator::new(&p);
        assert!(ev.combined(&m).is_finite());
    }
}
