//! Dynamic-environment policy comparison (`dyn_policies`).
//!
//! The paper deploys once against a static network; this experiment
//! perturbs the Line–Bus environment mid-run with a seeded
//! [`FaultInjector`] and lets four re-deployment policies answer the
//! drift. The grid is fault rate × re-solve budget × policy × seed
//! ([`RESOLVE_BUDGETS`] caps each repair's logical steps); every cell reports
//! makespan degradation, migration volume, time-to-recover and
//! availability, summarised per (rate, policy) in tables and written
//! row-by-row as `dyn_policies.csv`.
//!
//! Runs are sequential and every reported number is analytic — no
//! wall-clock values appear in any CSV — so output is byte-identical
//! across `WSFLOW_THREADS` settings and with observability on or off.

use wsflow_dyn::{run_policy, DynConfig, DynReport, FaultInjector, Policy};
use wsflow_model::units::Seconds;
use wsflow_workload::{generate, Configuration, ExperimentClass};

use crate::output::ExperimentOutput;
use crate::params::Params;
use crate::table::Table;

/// Fault-injection episode counts swept as the fault-rate axis.
pub const FAULT_RATES: [usize; 2] = [2, 6];

/// Per-fault re-solve budgets swept as the budget axis (`None` =
/// unlimited). The finite point is small enough to cut the quick grid's
/// portfolio re-solves short, exercising the spillover-incumbent path.
pub const RESOLVE_BUDGETS: [Option<u64>; 2] = [None, Some(60)];

/// Render a budget cell: the step count, or `unlimited`.
pub fn budget_label(budget: Option<u64>) -> String {
    budget.map_or_else(|| "unlimited".to_string(), |b| b.to_string())
}

/// Evaluation horizon per run (extended automatically if a timeline
/// outlives it).
const HORIZON: Seconds = Seconds(10.0);

/// Mean outage length for injected faults.
const MEAN_OUTAGE: Seconds = Seconds(1.0);

/// Header of `dyn_policies.csv`.
pub const CSV_HEADER: &str = "scenario,seed,fault_rate,policy,budget,events,initial_cost_s,\
final_cost_s,weighted_cost_s,degradation,migrations,migrated_mbits,migration_secs,\
mean_ttr_s,availability,resolves_exhausted";

/// Per-(rate, policy) aggregate across seeds.
#[derive(Debug, Clone, Default)]
struct Agg {
    degradation: f64,
    migrations: usize,
    migrated_mbits: f64,
    ttr_sum: f64,
    ttr_count: usize,
    availability: f64,
    runs: usize,
}

impl Agg {
    fn absorb(&mut self, r: &DynReport) {
        self.degradation += r.degradation;
        self.migrations += r.migrations;
        self.migrated_mbits += r.migrated_state.value();
        if let Some(ttr) = r.mean_time_to_recover() {
            self.ttr_sum += ttr.value();
            self.ttr_count += 1;
        }
        self.availability += r.availability;
        self.runs += 1;
    }
}

fn csv_row(scenario: &str, seed: u64, rate: usize, budget: Option<u64>, r: &DynReport) -> String {
    format!(
        "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
        scenario.replace(',', ";"),
        seed,
        rate,
        r.policy,
        budget_label(budget),
        r.events_applied,
        r.initial.combined.value(),
        r.final_cost.combined.value(),
        r.weighted.value(),
        r.degradation,
        r.migrations,
        r.migrated_state.value(),
        r.migration_time.value(),
        r.mean_time_to_recover()
            .map(|s| s.value().to_string())
            .unwrap_or_default(),
        r.availability,
        r.resolves_exhausted
    )
}

/// Run the dynamic-policies experiment.
pub fn run(params: &Params) -> ExperimentOutput {
    let class = ExperimentClass::class_c();
    let bus = params.bus_speeds[0];
    let n = params.server_counts[0];
    let mut out = ExperimentOutput::new("dyn_policies");
    let mut csv = String::from(CSV_HEADER);
    csv.push('\n');

    for &rate in &FAULT_RATES {
        for &budget in &RESOLVE_BUDGETS {
            let cfg = DynConfig {
                seed: params.base_seed,
                resolve_budget: budget,
                ..DynConfig::default()
            };
            let mut aggs: Vec<Agg> = Policy::ALL.iter().map(|_| Agg::default()).collect();
            for i in 0..params.seeds as u64 {
                let seed = params.base_seed + i;
                let sc = generate(Configuration::LineBus(bus), params.ops, n, &class, seed);
                // One timeline per (seed, rate), shared by every policy so
                // their reports are directly comparable.
                let injector =
                    FaultInjector::new(seed.wrapping_add(1000 * rate as u64), rate, MEAN_OUTAGE);
                let timeline = injector.timeline(&sc.network, HORIZON);
                for (p, agg) in Policy::ALL.iter().zip(aggs.iter_mut()) {
                    let report =
                        run_policy(&sc.workflow, &sc.network, &timeline, HORIZON, *p, &cfg);
                    agg.absorb(&report);
                    csv.push_str(&csv_row(&sc.name, seed, rate, budget, &report));
                    csv.push('\n');
                }
            }
            let mut table = Table::new(
            format!(
                "Dynamic policies — Line–Bus, M={}, N={n}, bus {} Mbps, {rate} episodes, budget {}, {} runs",
                params.ops,
                bus.value(),
                budget_label(budget),
                params.seeds
            ),
                &[
                    "policy",
                    "mean degradation",
                    "migrations",
                    "migrated Mbit",
                    "mean TTR s",
                    "availability",
                ],
            );
            for (p, agg) in Policy::ALL.iter().zip(&aggs) {
                let runs = agg.runs.max(1) as f64;
                table.push_row(vec![
                    p.name().to_string(),
                    format!("{:.4}", agg.degradation / runs),
                    agg.migrations.to_string(),
                    format!("{:.3}", agg.migrated_mbits),
                    if agg.ttr_count == 0 {
                        "-".to_string()
                    } else {
                        format!("{:.4}", agg.ttr_sum / agg.ttr_count as f64)
                    },
                    format!("{:.4}", agg.availability / runs),
                ]);
            }
            out.tables.push(table);
        }
    }

    out.extra_csvs.push(("dyn_policies.csv".to_string(), csv));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_produces_grid_and_csv() {
        let params = Params::quick();
        let out = run(&params);
        assert_eq!(out.tables.len(), FAULT_RATES.len() * RESOLVE_BUDGETS.len());
        for t in &out.tables {
            assert_eq!(t.num_rows(), Policy::ALL.len());
        }
        assert_eq!(out.extra_csvs.len(), 1);
        let (name, csv) = &out.extra_csvs[0];
        assert_eq!(name, "dyn_policies.csv");
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], CSV_HEADER);
        assert_eq!(
            lines.len(),
            1 + FAULT_RATES.len() * RESOLVE_BUDGETS.len() * params.seeds * Policy::ALL.len()
        );
        // Every policy appears in every (rate, budget, seed) block.
        for p in Policy::ALL {
            assert_eq!(
                lines
                    .iter()
                    .filter(|l| l.contains(&format!(",{},", p.name())))
                    .count(),
                FAULT_RATES.len() * RESOLVE_BUDGETS.len() * params.seeds
            );
        }
        // The budget axis is actually exercised: both labels appear, and
        // the finite budget cuts at least one portfolio re-solve short.
        for b in RESOLVE_BUDGETS {
            let label = budget_label(b);
            assert!(
                lines[1..].iter().any(|l| {
                    let cols: Vec<&str> = l.split(',').collect();
                    cols[4] == label
                }),
                "budget {label} missing from the grid"
            );
        }
        let exhausted: usize = lines[1..]
            .iter()
            .map(|l| {
                let cols: Vec<&str> = l.split(',').collect();
                cols[15].parse::<usize>().unwrap()
            })
            .sum();
        assert!(
            exhausted > 0,
            "the finite budget should exhaust some re-solves"
        );
        // Unlimited rows never exhaust.
        for l in &lines[1..] {
            let cols: Vec<&str> = l.split(',').collect();
            if cols[4] == "unlimited" {
                assert_eq!(cols[15], "0", "unlimited budget cannot exhaust: {l}");
            }
        }
    }

    #[test]
    fn incremental_repair_migrates_less_than_full_resolve() {
        // The acceptance bar: on the quick scenario, IncrementalRepair's
        // total migration volume stays below FullResolve's at
        // equal-or-better mean degradation.
        let params = Params::quick();
        let out = run(&params);
        let mut full = (0.0f64, 0.0f64); // (migrated mbits, degradation sum)
        let mut inc = (0.0f64, 0.0f64);
        for line in out.extra_csvs[0].1.lines().skip(1) {
            let cols: Vec<&str> = line.split(',').collect();
            let policy = cols[3];
            if cols[4] != "unlimited" {
                continue;
            }
            let degradation: f64 = cols[9].parse().unwrap();
            let mbits: f64 = cols[11].parse().unwrap();
            match policy {
                "full_resolve" => {
                    full.0 += mbits;
                    full.1 += degradation;
                }
                "incremental_repair" => {
                    inc.0 += mbits;
                    inc.1 += degradation;
                }
                _ => {}
            }
        }
        assert!(
            inc.0 < full.0,
            "incremental migrated {} Mbit vs full {} Mbit",
            inc.0,
            full.0
        );
        assert!(
            inc.1 <= full.1 + 1e-9,
            "incremental degradation {} vs full {}",
            inc.1,
            full.1
        );
    }
}
