//! Obs-on tests that assert exact metric counts, in their own binary so
//! that only tests holding `test_lock` share the global registry.

use wsflow_par::{parallel_map, with_threads};

#[test]
fn parallel_map_flushes_worker_metrics_when_enabled() {
    let _guard = wsflow_obs::registry::test_lock();
    wsflow_obs::set_enabled(true);
    wsflow_obs::reset();
    let out = with_threads(4, || parallel_map(64, |i| i));
    let snap = wsflow_obs::snapshot();
    wsflow_obs::set_enabled(false);
    wsflow_obs::reset();

    assert_eq!(out.len(), 64);
    assert_eq!(snap.counter("par.jobs"), Some(1));
    assert_eq!(snap.counter("par.tasks"), Some(64));
    assert_eq!(snap.counter("par.worker_spawns"), Some(4));
    let h = snap.histogram("par.tasks_per_worker").unwrap();
    assert_eq!(h.count, 4);
    assert_eq!(h.sum, 64.0);
}
