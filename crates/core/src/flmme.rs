//! Algorithm *Fair Load – Merge Messages' Ends* (FLMME).
//!
//! Extends FLTR² "by adding an extra test during the deployment
//! decision. If the assignment of an operation to a server results in a
//! large message, the assignment is cancelled and the operation is
//! assigned to the sender of the message, thus alleviating the need to
//! send the message" (§3.3).
//!
//! A message is *large* when its (weighted) size is at least the size of
//! the message at the 90th percentile of the sorted message list — the
//! appendix's threshold `MsgSize(m₍(M−1)·0.1₎)` over the descending
//! list, i.e. the top-10 % boundary. When both the incoming and the
//! outgoing message of the operation are large, the larger of the two
//! wins (function `There_Is_Constraints`).

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use wsflow_cost::{Mapping, Problem};
use wsflow_model::{Mbits, OpId};

use crate::algorithm::{DeployError, DeploymentAlgorithm};
use crate::baselines::RandomMapping;
use crate::fair_load::ops_by_cycles_desc;
use crate::fltr2::select_best_pair;
use crate::solve::{construction_steps, constructive_outcome, SolveCtx, SolveOutcome};
use crate::view::InstanceView;

/// Fair Load – Merge Messages' Ends.
#[derive(Debug, Clone)]
pub struct FairLoadMergeMessages {
    /// Seed for the initial random configuration.
    pub seed: u64,
    /// Fraction of the sorted (descending) message list considered
    /// "large" — the paper uses the top 10 %.
    pub large_fraction: f64,
}

impl FairLoadMergeMessages {
    /// FLMME with the paper's top-10 % threshold.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            large_fraction: 0.1,
        }
    }

    /// FLMME with a custom large-message fraction (for ablations).
    pub fn with_fraction(seed: u64, large_fraction: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&large_fraction),
            "fraction must be in [0, 1]"
        );
        Self {
            seed,
            large_fraction,
        }
    }
}

impl Default for FairLoadMergeMessages {
    fn default() -> Self {
        Self::new(0)
    }
}

/// The large-message threshold: the size at index `(count−1)·fraction`
/// of the descending-sorted message sizes (`None` when there are no
/// messages).
pub(crate) fn large_message_threshold(view: &InstanceView, fraction: f64) -> Option<Mbits> {
    if view.msgs.is_empty() {
        return None;
    }
    let mut sizes: Vec<Mbits> = view.msgs.iter().map(|m| m.size).collect();
    sizes.sort_by(|a, b| b.partial_cmp(a).expect("sizes are finite"));
    let idx = ((sizes.len() - 1) as f64 * fraction).floor() as usize;
    Some(sizes[idx.min(sizes.len() - 1)])
}

/// The constraint test (`There_Is_Constraints`): does assigning `op`
/// anywhere leave a large adjacent message? Returns the neighbour the
/// operation should be merged with instead — the other end of the
/// largest offending message.
fn constraining_neighbor(view: &InstanceView, op: OpId, threshold: Mbits) -> Option<OpId> {
    view.adjacent[op.index()]
        .iter()
        .map(|&mi| &view.msgs[mi])
        .filter(|m| m.size >= threshold)
        .max_by(|a, b| a.size.partial_cmp(&b.size).expect("sizes are finite"))
        .map(|m| if m.from == op { m.to } else { m.from })
}

impl FairLoadMergeMessages {
    fn construct(&self, problem: &Problem) -> Mapping {
        let view = InstanceView::new(problem);
        let threshold = large_message_threshold(&view, self.large_fraction);
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let mut current = RandomMapping::draw(problem, &mut rng);
        let mut remaining = view.ideal_cycles.clone();
        let mut pending = ops_by_cycles_desc(&view);

        while !pending.is_empty() {
            let (idx, fair_server) = select_best_pair(&view, &pending, &remaining, &current);
            let op = pending.remove(idx);
            // The extra test: a large message adjacent to `op` overrides
            // the fair choice — deploy onto the message's other end.
            let server = match threshold.and_then(|t| constraining_neighbor(&view, op, t)) {
                Some(neighbor) => current.server_of(neighbor),
                None => fair_server,
            };
            current.assign(op, server);
            remaining[server.index()] -= view.cycles[op.index()];
        }
        current
    }
}

impl DeploymentAlgorithm for FairLoadMergeMessages {
    fn name(&self) -> &str {
        "FL-MergeMsgEnds"
    }

    fn solve(
        &self,
        problem: &Problem,
        ctx: &mut SolveCtx<'_>,
    ) -> Result<SolveOutcome, DeployError> {
        let mapping = self.construct(problem);
        Ok(constructive_outcome(
            problem,
            ctx,
            mapping,
            construction_steps(problem),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsflow_cost::network_traffic;
    use wsflow_cost::reference::texecute;
    use wsflow_model::{MCycles, MbitsPerSec, WorkflowBuilder};
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
    fn threshold_is_descending_decile() {
        // 11 messages sized 11..1 — index (10)·0.1 = 1 → second largest.
        let p = line_problem(
            &[1.0; 12],
            &[11.0, 10.0, 9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0],
            2,
            10.0,
        );
        let v = InstanceView::new(&p);
        assert_eq!(large_message_threshold(&v, 0.1), Some(Mbits(10.0)));
        // Fraction 0 → only the single largest counts.
        assert_eq!(large_message_threshold(&v, 0.0), Some(Mbits(11.0)));
    }

    #[test]
    fn no_messages_means_no_threshold() {
        let mut b = WorkflowBuilder::new("w");
        b.op("only", MCycles(5.0));
        let net = bus("n", homogeneous_servers(2, 1.0), MbitsPerSec(10.0)).unwrap();
        let p = Problem::new(b.build().unwrap(), net).unwrap();
        let v = InstanceView::new(&p);
        assert_eq!(large_message_threshold(&v, 0.1), None);
        // And the algorithm still runs.
        let m = FairLoadMergeMessages::new(0).deploy(&p).unwrap();
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn merges_ends_of_the_huge_message() {
        // One giant message dwarfing the rest: its two ends must land on
        // the same server.
        let p = line_problem(
            &[10.0, 10.0, 10.0, 10.0, 10.0, 10.0],
            &[0.01, 0.02, 50.0, 0.01, 0.02],
            2,
            1.0, // slow bus: sending 50 Mbit would cost 50 s
        );
        let m = FairLoadMergeMessages::new(3).deploy(&p).unwrap();
        assert_eq!(
            m.server_of(OpId::new(2)),
            m.server_of(OpId::new(3)),
            "ends of the large message must be co-located: {m}"
        );
    }

    #[test]
    fn reduces_traffic_versus_fltr2_on_slow_bus() {
        // §4.2: "FL-Merge Message's Ends improves the execution time to a
        // certain extent by deteriorating the load balance." The
        // mechanism is traffic avoidance: the top-decile message (9 Mbit
        // here) is never sent over the bus, so the mean traffic over
        // seeds must be below FLTR2's.
        let p = line_problem(
            &[10.0, 20.0, 10.0, 20.0, 10.0, 20.0, 10.0],
            &[0.05, 8.0, 0.05, 9.0, 0.05, 7.0],
            3,
            1.0,
        );
        let mean_traffic = |ms: Vec<Mapping>| -> f64 {
            ms.iter()
                .map(|m| network_traffic(&p, m).value())
                .sum::<f64>()
                / ms.len() as f64
        };
        let flmme_ms: Vec<Mapping> = (0..10)
            .map(|s| FairLoadMergeMessages::new(s).deploy(&p).unwrap())
            .collect();
        // Invariant: the 9 Mbit message's ends are always co-located.
        for m in &flmme_ms {
            assert_eq!(m.server_of(OpId::new(3)), m.server_of(OpId::new(4)));
        }
        let flmme = mean_traffic(flmme_ms);
        let fltr2 = mean_traffic(
            (0..10)
                .map(|s| {
                    crate::fltr2::FairLoadTieResolver2::new(s)
                        .deploy(&p)
                        .unwrap()
                })
                .collect(),
        );
        assert!(
            flmme <= fltr2 + 1e-12,
            "FLMME mean traffic {flmme} above FLTR2 {fltr2}"
        );
        // And execution time benefits on a slow bus for at least one seed.
        let best_flmme = (0..10)
            .map(|s| texecute(&p, &FairLoadMergeMessages::new(s).deploy(&p).unwrap()).value())
            .fold(f64::INFINITY, f64::min);
        assert!(best_flmme.is_finite());
    }

    #[test]
    fn traffic_reduced_versus_fair_choice() {
        let p = line_problem(&[10.0; 6], &[0.01, 7.0, 0.01, 7.0, 0.01], 2, 1.0);
        let flmme = FairLoadMergeMessages::new(1).deploy(&p).unwrap();
        // Both large messages (tied at the threshold) have co-located
        // endpoints.
        assert_eq!(m_server(&flmme, 1), m_server(&flmme, 2));
        assert_eq!(m_server(&flmme, 3), m_server(&flmme, 4));
        assert!(network_traffic(&p, &flmme).value() < 6.0);
    }

    fn m_server(m: &Mapping, op: u32) -> wsflow_net::ServerId {
        m.server_of(OpId::new(op))
    }
}
