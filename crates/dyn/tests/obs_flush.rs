//! Obs-on tests that assert exact metric counts, in their own binary so
//! that only tests holding `test_lock` share the global registry.

use wsflow_dyn::{run_policy, DynConfig, DynReport, FaultInjector, Policy};
use wsflow_model::units::Seconds;
use wsflow_model::MbitsPerSec;
use wsflow_workload::{generate, Configuration, ExperimentClass};

fn quick_run(policy: Policy, seed: u64) -> DynReport {
    let s = generate(
        Configuration::LineBus(MbitsPerSec(10.0)),
        9,
        3,
        &ExperimentClass::class_c(),
        seed,
    );
    let horizon = Seconds(10.0);
    let timeline = FaultInjector::new(seed, 6, Seconds(1.0)).timeline(&s.network, horizon);
    run_policy(
        &s.workflow,
        &s.network,
        &timeline,
        horizon,
        policy,
        &DynConfig::default(),
    )
}

#[test]
fn controller_epochs_form_a_span_tree_with_fault_instants() {
    let _guard = wsflow_obs::registry::test_lock();
    wsflow_obs::set_enabled(true);
    wsflow_obs::reset();
    let r = quick_run(Policy::IncrementalRepair, 2007);
    let spans = wsflow_obs::registry::spans();
    wsflow_obs::set_enabled(false);
    wsflow_obs::reset();

    wsflow_obs::validate_spans(&spans).expect("controller spans must form a tree");
    let epochs: Vec<_> = spans.iter().filter(|s| s.name == "dyn.epoch").collect();
    assert_eq!(epochs.len(), r.steps, "one epoch span per event batch");
    let faults: Vec<_> = spans.iter().filter(|s| s.name == "dyn.fault").collect();
    assert_eq!(
        faults.len(),
        r.events_applied,
        "one instant per applied event"
    );
    let epoch_ids: std::collections::HashSet<u64> = epochs.iter().map(|s| s.span_id).collect();
    for f in &faults {
        assert!(f.instant);
        assert_eq!(f.dur_us, 0);
        assert!(
            epoch_ids.contains(&f.parent_id),
            "fault instants must hang off their epoch"
        );
    }
    // Epoch ordinals are dense from zero.
    let mut idxs: Vec<u64> = epochs.iter().map(|s| s.idx).collect();
    idxs.sort_unstable();
    assert_eq!(idxs, (0..r.steps as u64).collect::<Vec<_>>());
}
