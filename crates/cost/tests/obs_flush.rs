//! Obs-on tests that assert exact metric counts, in their own binary so
//! that only tests holding `test_lock` share the global registry.

use wsflow_cost::{DeltaEvaluator, Mapping, Problem};
use wsflow_model::{MCycles, Mbits, MbitsPerSec, OpId, WorkflowBuilder};
use wsflow_net::topology::{bus, homogeneous_servers};
use wsflow_net::ServerId;

fn line_problem(n_servers: usize) -> Problem {
    let mut b = WorkflowBuilder::new("w");
    b.line(
        "o",
        &[MCycles(10.0), MCycles(30.0), MCycles(20.0)],
        Mbits(0.4),
    );
    let net = bus("b", homogeneous_servers(n_servers, 1.0), MbitsPerSec(10.0)).unwrap();
    Problem::new(b.build().unwrap(), net).unwrap()
}

#[test]
fn drop_flushes_delta_metrics_when_obs_enabled() {
    let p = line_problem(3);
    let _guard = wsflow_obs::registry::test_lock();
    wsflow_obs::set_enabled(true);
    wsflow_obs::reset();
    {
        let mut delta = DeltaEvaluator::new(&p, Mapping::all_on(p.num_ops(), ServerId::new(0)))
            .with_staleness_threshold(2);
        delta.probe(OpId::new(1), ServerId::new(1));
        delta.probe(OpId::new(2), ServerId::new(2));
        delta.apply(OpId::new(1), ServerId::new(1));
        delta.apply(OpId::new(2), ServerId::new(2)); // hits the staleness resync
    }
    let snap = wsflow_obs::snapshot();
    wsflow_obs::set_enabled(false);
    wsflow_obs::reset();

    assert_eq!(snap.counter("delta.probes"), Some(2));
    assert_eq!(snap.counter("delta.applies"), Some(2));
    assert_eq!(snap.counter("delta.resyncs"), Some(1));
    assert_eq!(snap.histogram("delta.undo_depth").unwrap().count, 2);
}
