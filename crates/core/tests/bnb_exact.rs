//! Branch-and-bound's proofs checked against exhaustive enumeration.
//!
//! Whenever `deploy_with_proof` reports `proven_optimal`, its cost must
//! be the exhaustive optimum's, bit for bit. The instances are those on
//! which an inadmissible execution bound shows: line workflows on full
//! meshes with long link propagation and messages over 1 Mbit (a bound
//! that scales the propagation by the message size overstates every
//! split transfer and prunes the optimum), and small geo instances,
//! whose inter-region surcharge is a per-transfer latency as well.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use wsflow_core::{optimum, BranchAndBound};
use wsflow_cost::Problem;
use wsflow_model::{MCycles, Mbits, MbitsPerSec, Seconds, WorkflowBuilder};
use wsflow_net::topology::{full_mesh, homogeneous_servers};
use wsflow_workload::geo_instance;

/// A line workflow of 3–5 ops (10–100 MCycles) on 2–3 servers in a
/// 1000 Mbps full mesh with 0.05–0.55 s propagation and 1–21 Mbit
/// messages.
fn mesh_line(seed: u64) -> Problem {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let ops = rng.gen_range(3..=5usize);
    let servers = rng.gen_range(2..=3usize);
    let mut b = WorkflowBuilder::new("w");
    let ids: Vec<_> = (0..ops)
        .map(|i| b.op(format!("o{i}"), MCycles(rng.gen_range(10.0..100.0))))
        .collect();
    for pair in ids.windows(2) {
        b.msg(pair[0], pair[1], Mbits(rng.gen_range(1.0..21.0)));
    }
    let propagation = Seconds(rng.gen_range(0.05..0.55));
    let net = full_mesh(
        "mesh",
        homogeneous_servers(servers, 1.0),
        MbitsPerSec(1000.0),
        propagation,
    )
    .expect("valid mesh");
    Problem::new(b.build().expect("valid line"), net).expect("valid problem")
}

/// A geo instance small enough to enumerate.
fn small_geo(seed: u64) -> Problem {
    let ops = 4 + (seed % 3) as usize;
    let servers = 2 + (seed % 2) as usize;
    let s = geo_instance(ops, servers, 2, seed);
    Problem::new(s.workflow, s.network).expect("valid problem")
}

fn check(label: &str, problem: &Problem) -> bool {
    let out = BranchAndBound::new().deploy_with_proof(problem);
    let (_, opt) = optimum(problem, 1_000_000).expect("enumerable");
    if out.proven_optimal {
        assert_eq!(
            out.cost.to_bits(),
            opt.to_bits(),
            "{label}: proven optimum {} but exhaustive finds {opt}",
            out.cost
        );
    }
    out.proven_optimal
}

#[test]
fn proven_optima_have_the_exhaustive_cost_bits() {
    let mut proven = 0;
    for seed in 0..400 {
        proven += check(&format!("mesh line {seed}"), &mesh_line(seed)) as usize;
    }
    for seed in 0..30 {
        proven += check(&format!("geo {seed}"), &small_geo(seed)) as usize;
    }
    // Every instance is tiny, so the default budget proves them all.
    assert_eq!(proven, 430);
}
