//! Migration cost: what re-deploying an operation actually costs.
//!
//! The paper's deployment is computed once, so moving an operation is
//! free. An *online* re-deployer pays for every move: the operation's
//! state (its service image, session data, buffered inputs) must travel
//! from the old server to the new one over the current routes. This
//! module prices that — [`MigrationModel`] maps an operation to a state
//! size, and [`plan_migration`] diffs two mappings into a
//! [`MigrationPlan`] with per-move and total transfer times. A move is
//! priced exactly like a message of the same size: by the network's
//! [`CommMatrix`], so migration and the cost model never disagree.
//!
//! The plan charges moves serially (one state stream at a time), which
//! upper-bounds the disruption window and keeps the figure independent
//! of how transfers would interleave.

use wsflow_model::units::{MCycles, Mbits, Seconds};
use wsflow_model::{OpId, Workflow};
use wsflow_net::ServerId;

use crate::comm::CommMatrix;
use crate::mapping::Mapping;

/// Prices an operation's migratable state.
///
/// State is modelled affinely in the operation's computational cost:
/// `fixed + per_mcycle × cost`. The fixed part covers the service image
/// and session bookkeeping every operation carries; the proportional
/// part captures that heavier operations tend to hold more working
/// state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MigrationModel {
    /// State every operation carries regardless of size.
    pub fixed: Mbits,
    /// Additional state per MCycle of the operation's cost.
    pub per_mcycle: f64,
}

impl Default for MigrationModel {
    /// 1 Mbit of fixed state plus 0.1 Mbit per MCycle — on the paper's
    /// workloads, moving an operation costs the same order as a few of
    /// its messages, so re-deployment is palpably not free.
    fn default() -> Self {
        Self {
            fixed: Mbits(1.0),
            per_mcycle: 0.1,
        }
    }
}

impl MigrationModel {
    /// The migratable state of `op`.
    pub fn state_size(&self, cost: MCycles) -> Mbits {
        Mbits(self.fixed.value() + self.per_mcycle * cost.value())
    }
}

/// One operation's move in a re-deployment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MigrationMove {
    /// The operation being moved.
    pub op: OpId,
    /// Where it was.
    pub from: ServerId,
    /// Where it goes.
    pub to: ServerId,
    /// State transferred.
    pub state: Mbits,
    /// Time to push that state over the current route `from → to`.
    pub transfer: Seconds,
}

/// The diff between two mappings, priced.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MigrationPlan {
    /// Every operation that changes server, in operation-id order.
    pub moves: Vec<MigrationMove>,
    /// Total state shipped.
    pub total_state: Mbits,
    /// Total transfer time, charging moves serially.
    pub total_transfer: Seconds,
}

impl MigrationPlan {
    /// Number of operations that move.
    #[inline]
    pub fn num_moves(&self) -> usize {
        self.moves.len()
    }

    /// `true` when the two mappings were identical.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.moves.is_empty()
    }
}

/// Diff `old → new` and price every move with `comm`, which must have
/// been built for the network's current state.
pub fn plan_migration(
    workflow: &Workflow,
    comm: &CommMatrix,
    old: &Mapping,
    new: &Mapping,
    model: &MigrationModel,
) -> MigrationPlan {
    let mut plan = MigrationPlan::default();
    for op in workflow.op_ids() {
        let from = old.server_of(op);
        let to = new.server_of(op);
        if from == to {
            continue;
        }
        let state = model.state_size(workflow.op(op).cost);
        let transfer = Seconds(comm.comm_secs(from, to, state.value()));
        plan.total_state = Mbits(plan.total_state.value() + state.value());
        plan.total_transfer += transfer;
        plan.moves.push(MigrationMove {
            op,
            from,
            to,
            state,
            transfer,
        });
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::path_tcomm;
    use wsflow_model::{MbitsPerSec, WorkflowBuilder};
    use wsflow_net::topology::{bus, homogeneous_servers};
    use wsflow_net::{Link, Network, RegionId, RoutingTable, TopologyKind, ZoneId};

    /// Two operations of 10 and 30 MCycles: 2 and 4 Mbit of state under
    /// the default model.
    fn workflow() -> Workflow {
        let mut b = WorkflowBuilder::new("w");
        b.line("o", &[MCycles(10.0), MCycles(30.0)], Mbits(0.5));
        b.build().unwrap()
    }

    fn bus3() -> Network {
        bus("n", homogeneous_servers(3, 1.0), MbitsPerSec(10.0)).unwrap()
    }

    /// A five-server line with mixed link speeds and 2 ms of
    /// propagation per hop, whose last two servers sit in a region
    /// 30 ms from the first three.
    fn geo_line() -> Network {
        let mut servers = homogeneous_servers(5, 1.0);
        for s in &mut servers[3..] {
            *s = s.clone().in_region(RegionId::new(1), ZoneId::new(0));
        }
        let links = [10.0, 100.0, 3.0, 1000.0]
            .iter()
            .enumerate()
            .map(|(i, &mbps)| {
                Link::new(ServerId::from(i), ServerId::from(i + 1), MbitsPerSec(mbps))
                    .with_propagation(Seconds(0.002))
            })
            .collect();
        Network::new("geo-line", servers, links, TopologyKind::Line)
            .unwrap()
            .with_region_latency(vec![
                vec![Seconds::ZERO, Seconds(0.03)],
                vec![Seconds(0.03), Seconds::ZERO],
            ])
            .unwrap()
    }

    fn comm(net: &Network) -> CommMatrix {
        CommMatrix::new(net, &RoutingTable::new(net))
    }

    fn on(servers: &[u32]) -> Mapping {
        Mapping::new(servers.iter().map(|&s| ServerId::new(s)).collect())
    }

    #[test]
    fn identical_mappings_cost_nothing() {
        let m = Mapping::all_on(2, ServerId::new(0));
        let plan = plan_migration(
            &workflow(),
            &comm(&bus3()),
            &m,
            &m,
            &MigrationModel::default(),
        );
        assert!(plan.is_empty());
        assert_eq!(plan.total_state, Mbits::ZERO);
        assert_eq!(plan.total_transfer, Seconds::ZERO);
    }

    #[test]
    fn moves_are_priced_over_current_routes() {
        // On the geo line: `mbit / speed + 2 ms` per hop, plus 30 ms.
        let cross_region = |mbit: f64, inv_speeds: &[f64]| {
            inv_speeds.iter().map(|inv| mbit * inv + 0.002).sum::<f64>() + 0.03
        };
        let cases = [
            // op1 costs 30 MCycles → 1 + 0.1·30 = 4 Mbit over a 10 Mbps
            // bus hop = 0.4 s.
            (bus3(), on(&[0, 0]), on(&[0, 2]), vec![(1, 4.0, 0.4)]),
            // Both ops cross the line and the regions: 0 → 4 is four
            // hops, 4 → 1 three.
            (
                geo_line(),
                on(&[0, 4]),
                on(&[4, 1]),
                vec![
                    (0, 2.0, cross_region(2.0, &[0.1, 0.01, 1.0 / 3.0, 0.001])),
                    (1, 4.0, cross_region(4.0, &[0.01, 1.0 / 3.0, 0.001])),
                ],
            ),
        ];
        for (net, old, new, want) in cases {
            let routing = RoutingTable::new(&net);
            let comm = CommMatrix::new(&net, &routing);
            let plan = plan_migration(&workflow(), &comm, &old, &new, &MigrationModel::default());
            assert_eq!(plan.num_moves(), want.len(), "{}", net.name());
            for (mv, &(op, state, transfer)) in plan.moves.iter().zip(&want) {
                assert_eq!(mv.op, OpId::new(op));
                assert_eq!(
                    (mv.from, mv.to),
                    (old.server_of(mv.op), new.server_of(mv.op))
                );
                assert!((mv.state.value() - state).abs() < 1e-12, "{mv:?}");
                assert!((mv.transfer.value() - transfer).abs() < 1e-12, "{mv:?}");
                // Priced exactly like a message of the same size, and
                // within rounding of the reference's per-link fold.
                let priced = comm.comm_secs(mv.from, mv.to, mv.state.value());
                assert_eq!(mv.transfer.value().to_bits(), priced.to_bits(), "{mv:?}");
                let folded = path_tcomm(&net, &routing, mv.from, mv.to, mv.state);
                assert!((mv.transfer - folded).value().abs() < 1e-12, "{mv:?}");
            }
            let total: f64 = plan.moves.iter().map(|m| m.state.value()).sum();
            assert!((plan.total_state.value() - total).abs() < 1e-12);
        }
    }

    #[test]
    fn totals_sum_serially_in_op_order() {
        let old = Mapping::all_on(2, ServerId::new(0));
        let new = Mapping::all_on(2, ServerId::new(1));
        let model = MigrationModel {
            fixed: Mbits(2.0),
            per_mcycle: 0.0,
        };
        let plan = plan_migration(&workflow(), &comm(&bus3()), &old, &new, &model);
        assert_eq!(plan.num_moves(), 2);
        assert_eq!(plan.moves[0].op, OpId::new(0), "moves are in op-id order");
        assert!((plan.total_state.value() - 4.0).abs() < 1e-12);
        assert!(
            (plan.total_transfer.value()
                - plan.moves.iter().map(|m| m.transfer.value()).sum::<f64>())
            .abs()
                < 1e-15
        );
    }
}
