//! Obs-on tests that assert exact metric counts, in their own binary so
//! that only tests holding `test_lock` share the global registry.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use wsflow_cost::{Mapping, Problem};
use wsflow_model::{BlockSpec, MCycles, Mbits, MbitsPerSec};
use wsflow_net::topology::{bus, homogeneous_servers};
use wsflow_net::ServerId;
use wsflow_sim::{simulate, SimConfig};

fn contended_problem_and_mapping() -> (Problem, Mapping) {
    let spec = BlockSpec::and(
        "a",
        vec![
            BlockSpec::op("p", MCycles(10_000.0)),
            BlockSpec::op("q", MCycles(10_000.0)),
        ],
    );
    let w = spec.lower("w", &mut || Mbits(1.0)).unwrap();
    let net = bus("n", homogeneous_servers(2, 1.0), MbitsPerSec(100.0)).unwrap();
    let p = Problem::new(w, net).unwrap();
    let mut m = Mapping::all_on(4, ServerId::new(0));
    m.assign(p.workflow().op_by_name("p").unwrap(), ServerId::new(1));
    m.assign(p.workflow().op_by_name("q").unwrap(), ServerId::new(1));
    (p, m)
}

#[test]
fn sim_flushes_metrics_when_obs_enabled() {
    let (p, m) = contended_problem_and_mapping();
    let _guard = wsflow_obs::registry::test_lock();
    wsflow_obs::set_enabled(true);
    wsflow_obs::reset();
    simulate(
        &p,
        &m,
        SimConfig::contended(),
        &mut ChaCha8Rng::seed_from_u64(0),
    );
    let snap = wsflow_obs::snapshot();
    wsflow_obs::set_enabled(false);
    wsflow_obs::reset();

    assert_eq!(snap.counter("sim.runs"), Some(1));
    assert!(snap.counter("sim.events").unwrap() > 0);
    assert!(snap.histogram("sim.queue_depth").unwrap().count > 0);
    assert!(snap.histogram("sim.queue_wait_secs").unwrap().count > 0);
    assert!(snap.histogram("sim.link_busy_secs").unwrap().count > 0);
    assert!(snap.histogram("sim.server_utilization").unwrap().count > 0);
}
