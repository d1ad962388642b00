//! A flattened, probability-weighted view of a problem instance.
//!
//! §3.4 of the paper: the Graph–Bus algorithms "are practically the same
//! with the category Line–Bus, with simple modifications that take the
//! structure of the workflow into account … all the algorithms of this
//! family assign an execution probability to each operation (and thus,
//! each message)". This module is that modification, factored out once:
//! every Fair-Load-family algorithm operates on an [`InstanceView`] whose
//! cycles and message sizes are already probability-weighted, so the same
//! code serves linear and random-graph workflows.

use wsflow_model::{MCycles, Mbits, MsgId, OpId, Seconds};
use wsflow_net::ServerId;

use wsflow_cost::Problem;

/// One message in the view.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MsgView {
    /// The underlying message id.
    pub id: MsgId,
    /// Sender operation.
    pub from: OpId,
    /// Receiver operation.
    pub to: OpId,
    /// Probability-weighted size (raw size for linear workflows).
    pub size: Mbits,
}

/// A flattened instance the greedy algorithms consume.
#[derive(Debug, Clone)]
pub struct InstanceView {
    /// `cycles[i]` = probability-weighted cycles of `OpId(i)`.
    pub cycles: Vec<MCycles>,
    /// All messages with weighted sizes.
    pub msgs: Vec<MsgView>,
    /// `adjacent[i]` = indices into [`InstanceView::msgs`] of the
    /// messages touching `OpId(i)`.
    pub adjacent: Vec<Vec<usize>>,
    /// Remaining ideal cycle budget per server (starts at
    /// `Sum_Cycles · P(s) / Sum_Capacity`, Table 1 / appendix step 3).
    pub ideal_cycles: Vec<MCycles>,
    /// Server powers in MHz, indexed by server id.
    pub power: Vec<f64>,
    /// Seconds to push one Mbit between two distinct servers on the
    /// representative (bus) link — used by Heavy-Ops-Large-Msgs to
    /// compare processing vs transfer times.
    pub secs_per_mbit: f64,
}

impl InstanceView {
    /// Build the view for a problem.
    ///
    /// Message sizes and cycles are weighted by execution probability
    /// (identically 1 for linear workflows, so the view is exact there).
    /// `secs_per_mbit` is `1 / bus speed` on bus networks and the mean
    /// pairwise one-Mbit transfer time otherwise.
    pub fn new(problem: &Problem) -> Self {
        let w = problem.workflow();
        let probs = problem.probabilities();
        let cycles: Vec<MCycles> = w.op_ids().map(|o| probs.of_op(o) * w.op(o).cost).collect();
        let msgs: Vec<MsgView> = w
            .msg_ids()
            .map(|m| {
                let msg = w.message(m);
                MsgView {
                    id: m,
                    from: msg.from,
                    to: msg.to,
                    size: probs.of_msg(m) * msg.size,
                }
            })
            .collect();
        let mut adjacent = vec![Vec::new(); w.num_ops()];
        for (i, mv) in msgs.iter().enumerate() {
            adjacent[mv.from.index()].push(i);
            adjacent[mv.to.index()].push(i);
        }
        let sum_cycles: MCycles = cycles.iter().copied().sum();
        let net = problem.network();
        let sum_capacity = net.total_capacity();
        let ideal_cycles = net
            .servers()
            .iter()
            .map(|s| sum_cycles * (s.power / sum_capacity))
            .collect();
        let power = net.servers().iter().map(|s| s.power.value()).collect();
        let secs_per_mbit = match net.bus_speed() {
            Some(speed) => 1.0 / speed.value(),
            // Mean one-Mbit transfer time over distinct pairs, already
            // folded (in the same pair order) by the problem's shared
            // CommMatrix — O(1) here instead of an O(N²) re-walk per
            // constructed view, which matters once the hierarchical
            // solver builds a view per cluster sub-problem.
            None => problem.comm().mean_unit_transfer(),
        };
        Self {
            cycles,
            msgs,
            adjacent,
            ideal_cycles,
            power,
            secs_per_mbit,
        }
    }

    /// Number of operations.
    #[inline]
    pub fn num_ops(&self) -> usize {
        self.cycles.len()
    }

    /// Number of servers.
    #[inline]
    pub fn num_servers(&self) -> usize {
        self.ideal_cycles.len()
    }

    /// Processing time of a cycle amount on a server.
    #[inline]
    pub fn proc_time(&self, cycles: MCycles, server: ServerId) -> Seconds {
        Seconds(cycles.value() / self.power[server.index()])
    }

    /// Bus transfer time of a message size.
    #[inline]
    pub fn bus_time(&self, size: Mbits) -> Seconds {
        Seconds(size.value() * self.secs_per_mbit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsflow_model::{BlockSpec, MbitsPerSec, WorkflowBuilder};
    use wsflow_net::topology::{bus, homogeneous_servers, line_uniform};

    #[test]
    fn line_view_is_exact() {
        let mut b = WorkflowBuilder::new("w");
        b.line("o", &[MCycles(10.0), MCycles(20.0)], Mbits(0.5));
        let net = bus("b", homogeneous_servers(2, 1.0), MbitsPerSec(100.0)).unwrap();
        let p = Problem::new(b.build().unwrap(), net).unwrap();
        let v = InstanceView::new(&p);
        assert_eq!(v.num_ops(), 2);
        assert_eq!(v.num_servers(), 2);
        assert_eq!(v.cycles, vec![MCycles(10.0), MCycles(20.0)]);
        assert_eq!(v.msgs[0].size, Mbits(0.5));
        // Ideal: 30 Mcycles split evenly over two 1 GHz servers.
        assert!((v.ideal_cycles[0].value() - 15.0).abs() < 1e-9);
        // Bus: 100 Mbps → 0.01 s/Mbit.
        assert!((v.secs_per_mbit - 0.01).abs() < 1e-12);
        assert!((v.bus_time(Mbits(2.0)).value() - 0.02).abs() < 1e-12);
        // Adjacency: both ops touch the single message.
        assert_eq!(v.adjacent[0], vec![0]);
        assert_eq!(v.adjacent[1], vec![0]);
    }

    #[test]
    fn graph_view_weights_by_probability() {
        let spec = BlockSpec::xor_uniform(
            "x",
            vec![
                BlockSpec::op("l", MCycles(100.0)),
                BlockSpec::op("r", MCycles(100.0)),
            ],
        );
        let w = spec.lower("w", &mut || Mbits(0.8)).unwrap();
        let net = bus("b", homogeneous_servers(2, 1.0), MbitsPerSec(100.0)).unwrap();
        let p = Problem::new(w, net).unwrap();
        let v = InstanceView::new(&p);
        let l = p.workflow().op_by_name("l").unwrap();
        assert!((v.cycles[l.index()].value() - 50.0).abs() < 1e-9);
        // The budgets split the expected cycles, not the raw ones.
        let sum: MCycles = v.cycles.iter().copied().sum();
        assert!((v.ideal_cycles[0].value() - sum.value() / 2.0).abs() < 1e-9);
        // Branch messages are half-weighted.
        let branch_msg = v
            .msgs
            .iter()
            .find(|m| m.to == l)
            .expect("message into l exists");
        assert!((branch_msg.size.value() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn ideal_cycles_proportional_to_power() {
        let mut b = WorkflowBuilder::new("w");
        b.line("o", &[MCycles(30.0), MCycles(30.0)], Mbits(0.05));
        let net = wsflow_net::topology::ghz_bus("b", &[1.0, 2.0], MbitsPerSec(100.0)).unwrap();
        let p = Problem::new(b.build().unwrap(), net).unwrap();
        let v = InstanceView::new(&p);
        assert!((v.ideal_cycles[0].value() - 20.0).abs() < 1e-9);
        assert!((v.ideal_cycles[1].value() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn non_bus_network_uses_mean_pair_time() {
        let mut b = WorkflowBuilder::new("w");
        b.line("o", &[MCycles(10.0), MCycles(20.0)], Mbits(0.5));
        let net = line_uniform("l", homogeneous_servers(3, 1.0), MbitsPerSec(10.0)).unwrap();
        let p = Problem::new(b.build().unwrap(), net).unwrap();
        let v = InstanceView::new(&p);
        // Pairs: (0,1) 1 hop, (1,2) 1 hop, (0,2) 2 hops — each direction.
        // Mean Mbit time = (0.1+0.1+0.2)*2 / 6 = 0.1333…
        assert!((v.secs_per_mbit - 0.4 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn proc_time_uses_server_power() {
        let mut b = WorkflowBuilder::new("w");
        b.line("o", &[MCycles(10.0), MCycles(20.0)], Mbits(0.5));
        let net = bus(
            "b",
            vec![
                wsflow_net::Server::with_ghz("a", 1.0),
                wsflow_net::Server::with_ghz("b", 2.0),
            ],
            MbitsPerSec(100.0),
        )
        .unwrap();
        let p = Problem::new(b.build().unwrap(), net).unwrap();
        let v = InstanceView::new(&p);
        assert!((v.proc_time(MCycles(10.0), ServerId::new(0)).value() - 0.01).abs() < 1e-12);
        assert!((v.proc_time(MCycles(10.0), ServerId::new(1)).value() - 0.005).abs() < 1e-12);
    }
}
