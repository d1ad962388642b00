//! The dynamic machinery is a strict superset of the static pipeline:
//! with an empty fault timeline, every dynamic entry point must be
//! *bit-identical* to its static counterpart — same makespan, same
//! trace bytes, same CSV rows — across scenario shapes, seeds, and
//! simulator configurations, and regardless of observability.

use wsflow::dynamic::{run_policy, DynConfig, Policy};
use wsflow::net::Timeline;
use wsflow::prelude::*;
use wsflow::sim::{simulate_dynamic_traced, simulate_traced};
use wsflow::workload::{generate, Configuration};

fn rng(seed: u64) -> impl rand::Rng {
    use rand::SeedableRng;
    rand_chacha::ChaCha8Rng::seed_from_u64(seed)
}

#[test]
fn empty_timeline_simulation_is_bit_identical_to_static() {
    let class = ExperimentClass::class_c();
    for config in [
        Configuration::LineBus(MbitsPerSec(1.0)),
        Configuration::LineBus(MbitsPerSec(100.0)),
        Configuration::GraphBus(GraphClass::Hybrid, MbitsPerSec(10.0)),
        Configuration::GraphBus(GraphClass::Bushy, MbitsPerSec(100.0)),
    ] {
        for seed in 0..6u64 {
            let s = generate(config, 11, 3, &class, seed);
            let problem = Problem::new(s.workflow, s.network).expect("valid scenario");
            let mapping = FairLoad.deploy(&problem).expect("deployable");
            for sim_config in [SimConfig::ideal(), SimConfig::contended()] {
                let (stat, stat_trace) =
                    simulate_traced(&problem, &mapping, sim_config, &mut rng(seed));
                let (dynm, dyn_trace) = simulate_dynamic_traced(
                    &problem,
                    &mapping,
                    sim_config,
                    &Timeline::EMPTY,
                    &mut rng(seed),
                );
                assert_eq!(stat, dynm, "outcome differs for {config:?} seed {seed}");
                assert_eq!(
                    stat_trace, dyn_trace,
                    "trace differs for {config:?} seed {seed}"
                );
                assert_eq!(
                    stat_trace.render(problem.workflow(), problem.network()),
                    dyn_trace.render(problem.workflow(), problem.network())
                );
            }
        }
    }
}

#[test]
fn empty_timeline_controller_keeps_the_initial_deployment() {
    let class = ExperimentClass::class_c();
    for seed in [2007u64, 2008, 2009] {
        let s = generate(
            Configuration::LineBus(MbitsPerSec(10.0)),
            9,
            3,
            &class,
            seed,
        );
        let cfg = DynConfig {
            seed,
            ..DynConfig::default()
        };
        for policy in Policy::ALL {
            let r = run_policy(
                &s.workflow,
                &s.network,
                &Timeline::EMPTY,
                Seconds(10.0),
                policy,
                &cfg,
            );
            assert_eq!(r.events_applied, 0);
            assert_eq!(r.migrations, 0, "{policy}: no events, no migrations");
            assert_eq!(r.repairs, 0, "{policy}: no events, no repairs");
            // Bitwise: the final deployment *is* the initial one.
            assert_eq!(r.final_cost, r.initial, "{policy} seed {seed}");
            assert_eq!(r.availability, 1.0);
            assert!(r.recoveries.is_empty());
        }
    }
}

#[test]
fn dyn_policies_csv_is_identical_with_observability_on_and_off() {
    let mut params = wsflow::harness::Params::quick();
    params.seeds = 2;

    let off = wsflow::harness::dyn_policies::run(&params);

    let rec = wsflow_obs::Recorder::new();
    let on = {
        let _obs = rec.install();
        wsflow::harness::dyn_policies::run(&params)
    };
    let snap = rec.snapshot();

    assert_eq!(
        off.extra_csvs, on.extra_csvs,
        "CSV bytes must not depend on obs"
    );
    assert_eq!(off.render(), on.render());
    // And the obs run actually recorded the dynamic metrics.
    let names: Vec<&str> = snap.counters.iter().map(|c| c.name.as_str()).collect();
    assert!(names.contains(&"dyn.events_applied"), "{names:?}");
    assert!(names.contains(&"dyn.migrations"), "{names:?}");
}
