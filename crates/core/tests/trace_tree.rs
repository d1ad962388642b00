//! Causal span-tree guarantees of the trace layer:
//!
//! * **Well-formedness** — every recorded span's parent exists in the
//!   buffer, there are no parent cycles, and instants carry no
//!   duration, even when cluster sub-solves fan out across threads.
//! * **Canonical byte-stability** — the canonical Chrome trace of a
//!   hierarchical solve is byte-identical for 1 and 4 workers and for
//!   repeated same-seed runs, because it is derived from the causal
//!   tree alone (virtual time, dense ids), never from scheduling.

use wsflow_core::{DeploymentAlgorithm, FairLoad, Hierarchical, HillClimb, SolveCtx};
use wsflow_cost::Problem;
use wsflow_workload::scale_instance;

fn problem(seed: u64) -> Problem {
    let sc = scale_instance(120, 8, seed);
    Problem::new(sc.workflow, sc.network).expect("scale instances are valid")
}

/// Run one budgeted hierarchical solve with `workers` and return the
/// recorded span buffer.
fn spans_for(workers: usize, seed: u64) -> Vec<wsflow_obs::SpanEvent> {
    wsflow_obs::set_enabled(true);
    wsflow_obs::reset();
    let p = problem(seed);
    let algo = Hierarchical::new(HillClimb::new(FairLoad)).with_cluster_size(24);
    let mut ctx = SolveCtx::with_budget(5_000);
    wsflow_par::with_threads(workers, || algo.solve(&p, &mut ctx)).expect("hierarchical solve");
    let spans = wsflow_obs::registry::spans();
    wsflow_obs::set_enabled(false);
    wsflow_obs::reset();
    spans
}

#[test]
fn hierarchical_span_tree_is_well_formed_for_any_worker_count() {
    let _guard = wsflow_obs::registry::test_lock();
    for workers in [1usize, 4] {
        let spans = spans_for(workers, 2007);
        assert!(
            spans.iter().any(|s| s.name == "hier.solve"),
            "workers={workers}: missing hier.solve span"
        );
        assert!(
            spans.iter().filter(|s| s.name == "hier.cluster").count() > 1,
            "workers={workers}: expected multiple cluster spans"
        );
        wsflow_obs::validate_spans(&spans).unwrap_or_else(|e| panic!("workers={workers}: {e}"));
        // Every cluster span must hang off the hierarchical solve span,
        // also when it ran on a worker thread.
        let solve_id = spans
            .iter()
            .find(|s| s.name == "hier.solve")
            .unwrap()
            .span_id;
        for c in spans.iter().filter(|s| s.name == "hier.cluster") {
            assert_eq!(c.parent_id, solve_id, "workers={workers}");
        }
    }
}

#[test]
fn canonical_trace_is_byte_stable_across_workers_and_repeats() {
    let _guard = wsflow_obs::registry::test_lock();
    let trace = |workers: usize| {
        let spans = spans_for(workers, 2007);
        let (json, stats) = wsflow_obs::chrome_trace(&spans).expect("trace export");
        assert!(stats.slices > 0);
        json
    };
    let one = trace(1);
    let four = trace(4);
    assert_eq!(
        one, four,
        "canonical trace must be byte-identical for 1 and 4 workers"
    );
    let again = trace(4);
    assert_eq!(four, again, "repeated same-seed runs must match bytes");

    // A different seed searches differently and must NOT produce the
    // same trace — otherwise the canonicalisation collapsed real signal.
    let spans_other = spans_for(4, 2008);
    let (other, _) = wsflow_obs::chrome_trace(&spans_other).unwrap();
    assert_ne!(one, other, "different searches should differ");
}

#[test]
fn incumbent_instants_ride_the_tree() {
    let _guard = wsflow_obs::registry::test_lock();
    let spans = spans_for(4, 2007);
    let instants: Vec<_> = spans
        .iter()
        .filter(|s| s.name == "solver.incumbent")
        .collect();
    assert!(
        !instants.is_empty(),
        "a budgeted hierarchical solve must record incumbent instants"
    );
    for i in &instants {
        assert!(i.instant);
        assert_eq!(i.dur_us, 0);
        assert_ne!(
            i.parent_id, 0,
            "incumbent instants must have a causal parent"
        );
    }
}
