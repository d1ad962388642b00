//! The committed `BENCH_obs.json` must stay parseable and structurally
//! sane: it is the baseline `wsflow bench --compare` gates CI against.
//! The measured numbers are machine-dependent, so this test checks
//! shape, not absolute speed.

use wsflow_harness::perf::{BenchDoc, SCHEMA};

#[test]
fn committed_bench_obs_json_parses_and_covers_the_suite() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_obs.json");
    let text = std::fs::read_to_string(path).expect("BENCH_obs.json is committed at repo root");
    let doc = BenchDoc::parse(&text).expect("BENCH_obs.json parses");
    assert_eq!(doc.schema, SCHEMA);
    let names: Vec<&str> = doc.benches.iter().map(|b| b.name.as_str()).collect();
    for required in [
        "eval_flat_batch",
        "delta_probe",
        "deploy_fairload",
        "deploy_portfolio",
        "hier_stitch",
        "sim_engine",
        "net_build",
        "route_build",
    ] {
        assert!(names.contains(&required), "baseline misses {required}");
    }
    for b in &doc.benches {
        assert!(
            b.ns_per_op.is_finite() && b.ns_per_op > 0.0,
            "{}: bad baseline timing {}",
            b.name,
            b.ns_per_op
        );
        assert!(b.reps > 0, "{}", b.name);
        // The baseline must come from the full suite, not a --quick run:
        // the pinned 200x20 instance, or the 150-server bus for the
        // network rows (which have no operations).
        let full = if b.name == "net_build" || b.name == "route_build" {
            (0, 150)
        } else {
            (200, 20)
        };
        assert_eq!(
            (b.ops, b.servers),
            full,
            "{}: baseline must come from the full suite",
            b.name
        );
    }
}
