//! Obs-on tests that assert exact metric counts, in their own binary so
//! that only tests holding `test_lock` share the global registry.

use wsflow_core::{DeploymentAlgorithm, Exhaustive};
use wsflow_cost::Problem;
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
fn obs_counters_and_span_flush_when_enabled() {
    let p = small_problem(4, 2); // 16 mappings
    let _guard = wsflow_obs::registry::test_lock();
    wsflow_obs::set_enabled(true);
    wsflow_obs::reset();
    Exhaustive::new().deploy(&p).unwrap();
    let snap = wsflow_obs::snapshot();
    let spans = wsflow_obs::registry::spans();
    wsflow_obs::set_enabled(false);
    wsflow_obs::reset();

    assert_eq!(snap.counter("exhaustive.runs"), Some(1));
    assert_eq!(snap.counter("exhaustive.nodes_expanded"), Some(16));
    assert!(spans.iter().any(|s| s.name == "exhaustive.scan"));
}
