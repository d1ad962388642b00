//! The flat-arena evaluator is a *representation* change, not a
//! semantics change, checked here against the independent
//! `wsflow_cost::reference` implementation (`texecute` +
//! `time_penalty`) on randomly generated workflows and networks.
//!
//! How close the two must be depends on the links. The reference
//! routes every transfer as `size / speed`; the evaluator's
//! `CommMatrix` computes `size · (1/speed)`, which rounds twice. On the
//! class-C message sizes the two agree bit for bit at 10 and 100 Mbps,
//! so those instances must match exactly. At 1000 Mbps they differ in
//! the last bit (0.00666 and 0.057838 Mbit), so there the execution
//! time is held to a per-op ulp bound instead. The penalty involves no
//! transfer and stays bitwise everywhere. The delta evaluator shares the
//! evaluator's kernel and must match it bit for bit on every instance.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use wsflow_cost::reference::{texecute, time_penalty};
use wsflow_cost::{CostBreakdown, DeltaEvaluator, Evaluator, Mapping, Problem};
use wsflow_model::{MbitsPerSec, OpId};
use wsflow_net::ServerId;
use wsflow_workload::{generate, scale_instance, Configuration, ExperimentClass, GraphClass};

/// Random instances covering every generator shape plus the star
/// topology of the scale study.
fn instances(seed: u64) -> Vec<Problem> {
    let class = ExperimentClass::class_c();
    let mut out = Vec::new();
    for config in [
        Configuration::LineBus(MbitsPerSec(10.0)),
        Configuration::GraphBus(GraphClass::Bushy, MbitsPerSec(10.0)),
        Configuration::GraphBus(GraphClass::Lengthy, MbitsPerSec(100.0)),
        Configuration::GraphBus(GraphClass::Hybrid, MbitsPerSec(100.0)),
    ] {
        let s = generate(config, 11, 4, &class, seed);
        out.push(Problem::new(s.workflow, s.network).expect("generated scenarios are valid"));
    }
    let s = scale_instance(40, 7, seed);
    out.push(Problem::new(s.workflow, s.network).expect("scale instances are valid"));
    out
}

fn random_mappings(p: &Problem, count: usize, seed: u64) -> Vec<Mapping> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5EED_CAFE);
    (0..count)
        .map(|_| {
            Mapping::from_fn(p.num_ops(), |_| {
                ServerId::new(rng.gen_range(0..p.num_servers() as u32))
            })
        })
        .collect()
}

fn assert_bits_eq(a: &CostBreakdown, b: &CostBreakdown, what: &str) {
    assert_eq!(
        a.execution.value().to_bits(),
        b.execution.value().to_bits(),
        "{what}: execution diverged ({} vs {})",
        a.execution,
        b.execution
    );
    assert_eq!(
        a.penalty.value().to_bits(),
        b.penalty.value().to_bits(),
        "{what}: penalty diverged ({} vs {})",
        a.penalty,
        b.penalty
    );
    assert_eq!(
        a.combined.value().to_bits(),
        b.combined.value().to_bits(),
        "{what}: combined diverged ({} vs {})",
        a.combined,
        b.combined
    );
}

#[test]
fn flat_evaluation_is_bit_identical_to_the_legacy_path() {
    for seed in 0..6u64 {
        for p in instances(seed) {
            let mut ev = Evaluator::new(&p);
            for mapping in random_mappings(&p, 8, seed) {
                let flat = ev.evaluate(&mapping);
                let legacy = CostBreakdown::new(
                    texecute(&p, &mapping),
                    time_penalty(&p, &mapping),
                    p.weights(),
                );
                assert_bits_eq(
                    &flat,
                    &legacy,
                    "Evaluator::evaluate vs texecute+time_penalty",
                );
            }
        }
    }
}

#[test]
fn delta_probes_are_bit_identical_to_full_reevaluation() {
    for seed in 0..4u64 {
        for p in instances(seed) {
            let start = random_mappings(&p, 1, seed).pop().unwrap();
            let mut delta = DeltaEvaluator::new(&p, start.clone());
            let mut ev = Evaluator::new(&p);
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xD17A);
            let moves: Vec<(OpId, ServerId)> = (0..16)
                .map(|_| {
                    (
                        OpId(rng.gen_range(0..p.num_ops() as u32)),
                        ServerId::new(rng.gen_range(0..p.num_servers() as u32)),
                    )
                })
                .collect();
            for (op, server) in moves {
                let got = delta.probe(op, server);
                let mut moved = start.clone();
                moved.assign(op, server);
                assert_bits_eq(
                    &got,
                    &ev.evaluate(&moved),
                    "DeltaEvaluator::probe vs evaluate",
                );
            }
        }
    }
}

/// Units in the last place between two finite non-negative floats.
fn ulps(a: f64, b: f64) -> u64 {
    a.to_bits().abs_diff(b.to_bits())
}

/// The most the evaluator's execution time may drift from the
/// reference, in ulps of the result, per operation of the workflow: each
/// op adds at most one rounding difference from its inbound transfer
/// and one from the addition that carries it forward.
const ULPS_PER_OP: u64 = 2;

#[test]
fn flat_evaluation_stays_within_an_ulp_bound_on_gigabit_buses() {
    let class = ExperimentClass::class_c();
    for seed in 0..12u64 {
        for config in [
            Configuration::LineBus(MbitsPerSec(1000.0)),
            Configuration::GraphBus(GraphClass::Bushy, MbitsPerSec(1000.0)),
            Configuration::GraphBus(GraphClass::Lengthy, MbitsPerSec(1000.0)),
            Configuration::GraphBus(GraphClass::Hybrid, MbitsPerSec(1000.0)),
        ] {
            let s = generate(config, 11, 4, &class, seed);
            let p = Problem::new(s.workflow, s.network).expect("generated scenarios are valid");
            let bound = ULPS_PER_OP * p.num_ops() as u64;
            let mut ev = Evaluator::new(&p);
            for mapping in random_mappings(&p, 8, seed) {
                let flat = ev.evaluate(&mapping);
                let want = texecute(&p, &mapping).value();
                let drift = ulps(flat.execution.value(), want);
                assert!(
                    drift <= bound,
                    "{config:?} seed {seed}: execution {} vs reference {want} is {drift} ulps \
                     apart (bound {bound})",
                    flat.execution
                );
                assert_eq!(
                    flat.penalty.value().to_bits(),
                    time_penalty(&p, &mapping).value().to_bits(),
                    "{config:?} seed {seed}: penalty diverged"
                );
            }
        }
    }
}
