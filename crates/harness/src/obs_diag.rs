//! Observability spot-check: a tiny fixed workload exercising every
//! instrumented subsystem.
//!
//! The paper experiments mostly run the greedy algorithm family, so a
//! figure's own run would leave the manifest's search/refinement/
//! simulator metrics at zero. When observability is enabled, the
//! harness prepends this spot-check — a fixed 5-op instance pushed
//! through [`Exhaustive`], branch-and-bound, delta-evaluated hill
//! climbing, and a contended simulation — so **every** `manifest.json`
//! carries nonzero `exhaustive.nodes_expanded`, `bnb.*`, `delta.probes`
//! and simulator queue/bus histograms alongside the experiment's own
//! numbers. It does nothing (and costs nothing) without a recorder,
//! keeping unrecorded runs bit-identical.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use wsflow_core::{BranchAndBound, DeploymentAlgorithm, Exhaustive, SolveCtx};
use wsflow_cost::{Mapping, Problem};
use wsflow_model::{BlockSpec, MCycles, Mbits, MbitsPerSec};
use wsflow_net::topology::{bus, homogeneous_servers};
use wsflow_net::ServerId;
use wsflow_sim::{simulate, SimConfig};

use crate::params::Params;

/// The fixed spot-check instance: `a → (p ∥ q)` on a 3-server bus —
/// 5 operations (3⁵ = 243 mappings), with enough fork traffic to
/// contend on both a FIFO server and the serialised bus.
fn spot_problem() -> Problem {
    let spec = BlockSpec::seq(vec![
        BlockSpec::op("a", MCycles(20.0)),
        BlockSpec::and(
            "f",
            vec![
                BlockSpec::op("p", MCycles(40.0)),
                BlockSpec::op("q", MCycles(30.0)),
            ],
        ),
    ]);
    let w = spec.lower("obs-spot", &mut || Mbits(1.0)).unwrap();
    let net = bus(
        "obs-spot-bus",
        homogeneous_servers(3, 1.0),
        MbitsPerSec(10.0),
    )
    .unwrap();
    Problem::new(w, net).unwrap()
}

/// Run the spot-check. No-op without a recorder.
pub fn spot_check(params: &Params) {
    if !wsflow_obs::enabled() {
        return;
    }
    wsflow_obs::span_scope!("phase.spot_check");
    let problem = spot_problem();
    let m = problem.num_ops();

    // Search: exhaustive (nodes == 3^5) and branch-and-bound (nodes,
    // prunes, incumbent updates).
    let best = Exhaustive::new()
        .deploy(&problem)
        .expect("spot instance is within the enumeration limit");
    let _ = BranchAndBound::new().deploy_with_proof(&problem);

    // Refinement: delta-evaluated hill climb from the worst start.
    let start = Mapping::all_on(m, ServerId::new(0));
    let ops: Vec<_> = problem.workflow().op_ids().collect();
    let _ = wsflow_core::hill_climb_ctx(&problem, start, &ops, 4, &mut SolveCtx::unlimited());

    // Simulator under full contention: a collocated mapping exercises
    // the FIFO queue, a spread one the serialised bus.
    let mut rng = ChaCha8Rng::seed_from_u64(params.base_seed);
    let mut spread = best.clone();
    spread.assign(
        problem.workflow().op_by_name("p").unwrap(),
        ServerId::new(1),
    );
    spread.assign(
        problem.workflow().op_by_name("q").unwrap(),
        ServerId::new(2),
    );
    for mapping in [Mapping::all_on(m, ServerId::new(0)), spread] {
        for _ in 0..4 {
            simulate(&problem, &mapping, SimConfig::contended(), &mut rng);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spot_check_is_a_noop_when_disabled() {
        spot_check(&Params::quick());
        assert!(wsflow_obs::snapshot().is_empty());
    }

    #[test]
    fn spot_check_populates_acceptance_metrics() {
        let rec = wsflow_obs::Recorder::new();
        {
            let _obs = rec.install();
            spot_check(&Params::quick());
        }
        let snap = rec.snapshot();
        let spans = rec.spans();

        assert_eq!(snap.counter("exhaustive.nodes_expanded"), Some(243));
        assert!(snap.counter("bnb.nodes_expanded").unwrap() > 0);
        assert!(snap.counter("delta.probes").unwrap() > 0);
        assert!(snap.counter("sim.runs").unwrap() >= 8);
        let depth = snap.histogram("sim.queue_depth").expect("queue depth");
        assert!(depth.count > 0 && !depth.buckets.is_empty());
        assert!(snap.histogram("sim.queue_wait_secs").unwrap().count > 0);
        assert!(snap.histogram("sim.link_busy_secs").unwrap().count > 0);
        assert!(spans.iter().any(|s| s.name == "phase.spot_check"));
    }
}
