//! The pinned perf-regression suite behind `wsflow bench`.
//!
//! Six micro-benchmarks over one fixed-seed 200×20 star instance —
//! the cost-model hot paths, the constructive greedies the service
//! serves, and the hierarchical solver — plus two network-layer rows on
//! a 150-server class-C bus, the pool `wsflowd` builds per request:
//!
//! | bench | times |
//! |---|---|
//! | `eval_flat_batch` | [`Evaluator::evaluate`] per mapping over a fixed batch |
//! | `delta_probe` | single-move [`DeltaEvaluator::probe`] calls |
//! | `deploy_fairload` | one [`FairLoad`] construction |
//! | `deploy_portfolio` | one [`Portfolio`] deploy: best of the paper's five greedies |
//! | `hier_stitch` | a budgeted `Hierarchical(FairLoad)` solve |
//! | `sim_engine` | Monte-Carlo trials of the discrete-event simulator |
//! | `net_build` | one [`topology::bus`] build (links + validation + adjacency) |
//! | `route_build` | [`RoutingTable::new`] + [`CommMatrix::new`] (all-pairs routing) |
//!
//! Results are wall-clock by design and go to `BENCH_obs.json` —
//! never into a deterministic experiment CSV. `compare` implements the
//! regression gate: a bench regresses when its `ns_per_op` exceeds the
//! baseline's by more than the tolerance fraction; a bench present in
//! the baseline but absent from the current run is also a failure, so
//! silently dropping coverage cannot pass the gate. Faster-than-
//! baseline runs always pass — the gate is one-sided.

use std::hint::black_box;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use wsflow_core::{DeploymentAlgorithm, FairLoad, Hierarchical, Portfolio, SolveCtx};
use wsflow_cost::{CommMatrix, DeltaEvaluator, Evaluator, Mapping, Problem};
use wsflow_model::MbitsPerSec;
use wsflow_net::{topology, RoutingTable, ServerId};
use wsflow_sim::{monte_carlo, SimConfig};
use wsflow_workload::{bus_network, scale_instance, ExperimentClass};

/// Schema tag of `BENCH_obs.json`.
pub const SCHEMA: &str = "wsflow-bench/1";

/// The fixed seed every bench pins.
const SEED: u64 = 2007;

/// One benchmark's timing.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct BenchRecord {
    /// Benchmark identifier.
    pub name: String,
    /// Instance operations.
    pub ops: usize,
    /// Instance servers.
    pub servers: usize,
    /// Repetitions timed.
    pub reps: usize,
    /// Mean nanoseconds per inner operation (eval / probe / trial /
    /// solve, depending on the bench).
    pub ns_per_op: f64,
}

/// The document `wsflow bench` writes and `--compare` reads.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct BenchDoc {
    /// Always [`SCHEMA`].
    pub schema: String,
    /// One record per suite member, in suite order.
    pub benches: Vec<BenchRecord>,
}

impl BenchDoc {
    /// Parse a `BENCH_obs.json` document, rejecting unknown schemas.
    pub fn parse(text: &str) -> Result<Self, String> {
        let doc: Self = serde_json::from_str(text).map_err(|e| e.to_string())?;
        if doc.schema != SCHEMA {
            return Err(format!(
                "unknown bench schema {:?} (expected {SCHEMA:?})",
                doc.schema
            ));
        }
        Ok(doc)
    }

    /// Render as pretty-printed JSON (trailing newline included).
    pub fn to_json(&self) -> String {
        let mut out = serde_json::to_string_pretty(self).expect("bench docs serialise");
        out.push('\n');
        out
    }
}

/// Time `reps` repetitions of `body`, which performs `units` inner
/// operations per repetition, and report mean ns per inner operation.
fn time(reps: usize, units: usize, mut body: impl FnMut()) -> f64 {
    // One warm-up repetition outside the clock.
    body();
    let start = std::time::Instant::now();
    for _ in 0..reps {
        body();
    }
    start.elapsed().as_nanos() as f64 / (reps * units) as f64
}

/// Run the pinned suite. `quick` shrinks the instance and repetition
/// counts so smoke runs finish in well under a second.
pub fn run(quick: bool) -> BenchDoc {
    let (m, n, evals, trials, reps, bus_servers) = if quick {
        (60usize, 6usize, 8usize, 50usize, 2usize, 30usize)
    } else {
        (200, 20, 32, 200, 3, 150)
    };
    let sc = scale_instance(m, n, SEED);
    let problem = Problem::new(sc.workflow, sc.network).expect("scale instances are valid");
    let mut rng = ChaCha8Rng::seed_from_u64(SEED);
    let mappings: Vec<Mapping> = (0..evals)
        .map(|_| {
            Mapping::from_fn(problem.num_ops(), |_| {
                ServerId::new(rng.gen_range(0..problem.num_servers() as u32))
            })
        })
        .collect();
    let mut sink = 0.0f64;
    let mut benches = Vec::new();
    let record = |name: &str, reps: usize, ns: f64| BenchRecord {
        name: name.to_string(),
        ops: m,
        servers: n,
        reps,
        ns_per_op: ns,
    };

    let ns = {
        let mut ev = Evaluator::new(&problem);
        let mut acc = 0.0;
        let ns = time(reps, evals, || {
            for mp in &mappings {
                acc += ev.evaluate(mp).combined.value();
            }
        });
        sink += acc;
        ns
    };
    benches.push(record("eval_flat_batch", reps, ns));

    let ns = {
        let mut delta = DeltaEvaluator::new(&problem, mappings[0].clone());
        let probes = (problem.num_ops() * 4).min(2_000);
        let servers = problem.num_servers() as u32;
        let mut acc = 0.0;
        let ns = time(reps, probes, || {
            for i in 0..probes {
                let op = wsflow_model::OpId::new((i % problem.num_ops()) as u32);
                let server = ServerId::new((i * 7 + 3) as u32 % servers);
                acc += delta.probe(op, server).combined.value();
            }
        });
        sink += acc;
        ns
    };
    benches.push(record("delta_probe", reps, ns));

    // One construction takes tens of microseconds: time `evals` of them
    // per rep so the clock sees more than a few hundred microseconds.
    let ns = time(reps, evals, || {
        for _ in 0..evals {
            black_box(FairLoad.deploy(&problem).expect("FairLoad deploys"));
        }
    });
    benches.push(record("deploy_fairload", reps, ns));

    let portfolio = Portfolio::new(SEED);
    let ns = time(reps, 1, || {
        black_box(portfolio.deploy(&problem).expect("Portfolio deploys"));
    });
    benches.push(record("deploy_portfolio", reps, ns));

    let ns = {
        let algo = Hierarchical::new(FairLoad);
        let mut acc = 0.0;
        // One thread: the row times the stitch, not the fan-out.
        let ns = wsflow_par::with_threads(1, || {
            time(reps, 1, || {
                let mut ctx = SolveCtx::with_budget(100_000);
                let out = algo.solve(&problem, &mut ctx).expect("hier solves stars");
                acc += out.cost;
            })
        });
        sink += acc;
        ns
    };
    benches.push(record("hier_stitch", reps, ns));

    let ns = {
        let mapping = FairLoad.deploy(&problem).expect("FairLoad deploys");
        let mut acc = 0.0;
        let ns = time(reps, trials, || {
            let mc = monte_carlo(&problem, &mapping, SimConfig::ideal(), trials, SEED);
            acc += mc.completion.mean.value();
        });
        sink += acc;
        ns
    };
    benches.push(record("sim_engine", reps, ns));

    let bus = bus_network(
        bus_servers,
        MbitsPerSec(100.0),
        &ExperimentClass::class_c(),
        SEED,
    );
    let bus_record = |name: &str, ns: f64| BenchRecord {
        name: name.to_string(),
        ops: 0,
        servers: bus_servers,
        reps,
        ns_per_op: ns,
    };

    // One build takes ~0.2 ms: time `evals` of them per rep.
    let ns = time(reps, evals, || {
        for _ in 0..evals {
            let servers = bus.servers().to_vec();
            black_box(topology::bus("bus", servers, MbitsPerSec(100.0)).expect("valid bus"));
        }
    });
    benches.push(bus_record("net_build", ns));

    let ns = {
        let mut acc = 0.0;
        let ns = time(reps, 1, || {
            let routing = RoutingTable::new(&bus);
            acc += CommMatrix::new(&bus, &routing).mean_unit_transfer();
        });
        sink += acc;
        ns
    };
    benches.push(bus_record("route_build", ns));

    assert!(sink.is_finite());
    BenchDoc {
        schema: SCHEMA.to_string(),
        benches,
    }
}

/// The regression gate. Returns one message per failure — empty means
/// the current run is within `tolerance` (a fraction: 1.0 allows up to
/// 2× the baseline) of the baseline on every baseline bench.
pub fn compare(current: &BenchDoc, baseline: &BenchDoc, tolerance: f64) -> Vec<String> {
    let mut failures = Vec::new();
    for base in &baseline.benches {
        let Some(cur) = current.benches.iter().find(|b| b.name == base.name) else {
            failures.push(format!(
                "{}: present in baseline but not in the current run",
                base.name
            ));
            continue;
        };
        let limit = base.ns_per_op * (1.0 + tolerance);
        if cur.ns_per_op > limit {
            failures.push(format!(
                "{}: {:.0} ns/op exceeds baseline {:.0} ns/op by more than {:.0}% \
                 (limit {:.0})",
                base.name,
                cur.ns_per_op,
                base.ns_per_op,
                tolerance * 100.0,
                limit
            ));
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(pairs: &[(&str, f64)]) -> BenchDoc {
        BenchDoc {
            schema: SCHEMA.to_string(),
            benches: pairs
                .iter()
                .map(|&(name, ns)| BenchRecord {
                    name: name.to_string(),
                    ops: 200,
                    servers: 20,
                    reps: 3,
                    ns_per_op: ns,
                })
                .collect(),
        }
    }

    #[test]
    fn quick_suite_runs_and_round_trips() {
        let d = run(true);
        assert_eq!(d.schema, SCHEMA);
        let names: Vec<&str> = d.benches.iter().map(|b| b.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "eval_flat_batch",
                "delta_probe",
                "deploy_fairload",
                "deploy_portfolio",
                "hier_stitch",
                "sim_engine",
                "net_build",
                "route_build"
            ]
        );
        for b in &d.benches {
            assert!(
                b.ns_per_op.is_finite() && b.ns_per_op > 0.0,
                "{}: bad timing {}",
                b.name,
                b.ns_per_op
            );
        }
        let back = BenchDoc::parse(&d.to_json()).unwrap();
        assert_eq!(back, d);
    }

    /// `Portfolio` skips members that fail, so `deploy_portfolio` times
    /// all five of the paper's greedies only while each of them accepts
    /// the pinned instance.
    #[test]
    fn every_portfolio_member_deploys_the_pinned_instances() {
        for (m, n) in [(60, 6), (200, 20)] {
            let sc = scale_instance(m, n, SEED);
            let problem = Problem::new(sc.workflow, sc.network).unwrap();
            for algo in wsflow_core::registry::paper_bus_algorithms(SEED) {
                assert!(
                    algo.deploy(&problem).is_ok(),
                    "{} rejects the {m}x{n} instance",
                    algo.name()
                );
            }
        }
    }

    #[test]
    fn parse_rejects_garbage_and_unknown_schemas() {
        assert!(BenchDoc::parse("not json").is_err());
        let err =
            BenchDoc::parse("{\"schema\": \"wsflow-bench/999\", \"benches\": []}").unwrap_err();
        assert!(err.contains("wsflow-bench/999"), "{err}");
    }

    #[test]
    fn compare_passes_within_tolerance_and_when_faster() {
        let base = doc(&[("a", 100.0), ("b", 50.0)]);
        let same = doc(&[("a", 100.0), ("b", 50.0)]);
        assert!(compare(&same, &base, 0.5).is_empty());
        let slower_but_ok = doc(&[("a", 149.0), ("b", 74.0)]);
        assert!(compare(&slower_but_ok, &base, 0.5).is_empty());
        let faster = doc(&[("a", 10.0), ("b", 5.0)]);
        assert!(compare(&faster, &base, 0.0).is_empty(), "one-sided gate");
        // Extra benches in the current run are fine.
        let extra = doc(&[("a", 100.0), ("b", 50.0), ("c", 1.0)]);
        assert!(compare(&extra, &base, 0.5).is_empty());
    }

    #[test]
    fn compare_fails_on_regression_and_missing_bench() {
        let base = doc(&[("a", 100.0), ("b", 50.0)]);
        let slow = doc(&[("a", 300.0), ("b", 50.0)]);
        let failures = compare(&slow, &base, 0.5);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].starts_with("a:"), "{failures:?}");
        let missing = doc(&[("a", 100.0)]);
        let failures = compare(&missing, &base, 0.5);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("b"), "{failures:?}");
    }

    /// The 10×-tightened scenario: the same numbers against a baseline
    /// divided by ten must fail even at the generous CI tolerance.
    #[test]
    fn tightening_the_baseline_tenfold_trips_the_gate() {
        let current = doc(&[("a", 100.0), ("b", 50.0)]);
        let mut tightened = current.clone();
        for b in &mut tightened.benches {
            b.ns_per_op /= 10.0;
        }
        let failures = compare(&current, &tightened, 4.0);
        assert_eq!(failures.len(), 2, "every bench must trip: {failures:?}");
        assert!(compare(&current, &current, 4.0).is_empty());
    }
}
