//! Multi-tenant service load generation (`loadgen`).
//!
//! Drives the deployment service's scheduler ([`wsflow_svc`], DESIGN.md
//! §14) with an open-loop arrival stream — a seeded mix of tenants,
//! algorithms, and request sizes with exponential interarrival gaps —
//! and measures what a client of the service would feel: queue wait,
//! time-to-first-incumbent (TTFI), and time-to-final, per tenant, at
//! the median and the tail.
//!
//! The run uses the *virtual-time* execution mode
//! ([`wsflow_svc::VirtualService`]): the same weighted-fair queue and
//! admission control as the TCP daemon, but one logical solver step
//! costs one virtual microsecond, so every latency is a pure function
//! of the seed and the configuration. `loadgen.csv` is byte-identical
//! across machines, `WSFLOW_THREADS` settings, and obs on/off —
//! `tests/golden.rs` checks exactly that.
//!
//! The offered load is tuned slightly past capacity so the run
//! exercises all three service outcomes: normal completion, typed
//! admission rejection (bounded queues overflow near the end of the
//! run), and client abandonment (a patience-limited arrival whose wait
//! exceeds its patience is cancelled and still gets its constructive
//! floor).

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use wsflow_svc::{Arrival, ProblemSpec, RequestReport, SvcConfig, VirtualService};

use crate::output::ExperimentOutput;
use crate::params::Params;
use crate::table::Table;

/// Header of `loadgen.csv`.
pub const CSV_HEADER: &str =
    "id,tenant,algo,outcome,arrival_us,start_us,queue_wait_us,ttfi_us,ttfinal_us,steps,cost,termination";

/// Virtual service slots. Fixed by the experiment, never by the
/// machine, so latency distributions are portable.
const VIRTUAL_SLOTS: usize = 2;

/// Per-tenant and service-wide queue bounds. The total bound is sized
/// so the backlog of an over-capacity run overflows it before the run
/// ends, making admission control observable in the output.
const TENANT_QUEUE_CAP: usize = 12;
const TOTAL_QUEUE_CAP: usize = 24;

/// Mean of the exponential interarrival gap, in virtual microseconds.
/// Roughly 1.2× the service capacity of [`VIRTUAL_SLOTS`] slots under
/// the request mix below.
const MEAN_INTERARRIVAL_US: f64 = 340.0;

/// Patience of an impatient arrival: if service has not started within
/// this many virtual microseconds, the client abandons (the solve is
/// cancelled). Roughly 4× the mean service time.
const PATIENCE_US: u64 = 3_500;

/// Fraction of arrivals that are impatient.
const IMPATIENT_P: f64 = 0.25;

/// The tenant mix: `(name, fair-queue weight, traffic share)`.
pub const TENANTS: [(&str, u32, f64); 3] =
    [("gold", 4, 0.2), ("silver", 2, 0.3), ("bronze", 1, 0.5)];

/// The algorithm mix: `(wire name, step budget, traffic share)`.
/// `portfolio` converges quickly; `blackboard` is its cooperative
/// racing sibling under a finite budget; `hillclimb` refines on top of
/// a greedy; `sa` is the long-running tail of the mix, clipped by its
/// budget.
const ALGOS: [(&str, Option<u64>, f64); 4] = [
    ("portfolio", None, 0.4),
    ("blackboard", Some(2_000), 0.2),
    ("hillclimb", Some(1_500), 0.2),
    ("sa", Some(2_500), 0.2),
];

/// Requests per sizing seed: `params.seeds * ARRIVALS_PER_SEED` total
/// (240 under `--quick`, 3000 at paper scale).
const ARRIVALS_PER_SEED: usize = 60;

/// Pick from `(item, share)` pairs by a uniform draw in `[0, 1)`.
fn pick<'a, T>(rng: &mut ChaCha8Rng, mix: impl Iterator<Item = (&'a T, f64)>) -> &'a T {
    let u: f64 = rng.gen();
    let mut acc = 0.0;
    let mut last = None;
    for (item, share) in mix {
        acc += share;
        last = Some(item);
        if u < acc {
            return item;
        }
    }
    last.expect("mix must be non-empty")
}

/// Generate the seeded open-loop arrival stream.
pub fn arrivals(params: &Params) -> Vec<Arrival> {
    let mut rng = ChaCha8Rng::seed_from_u64(params.base_seed ^ 0x10adc3);
    let servers = params.server_counts[0] as u32;
    let ops_mix = [
        params.ops.saturating_sub(2).max(2) as u32,
        params.ops as u32,
        (params.ops + 3) as u32,
    ];
    let shapes = [("line", 0.5), ("hybrid", 0.3), ("bushy", 0.2)];
    let total = params.seeds * ARRIVALS_PER_SEED;
    let mut at_us = 0u64;
    let mut out = Vec::with_capacity(total);
    for _ in 0..total {
        // Open-loop exponential gaps: arrivals don't wait for replies.
        let u: f64 = rng.gen();
        at_us += (-(1.0 - u).ln() * MEAN_INTERARRIVAL_US).max(1.0) as u64;
        let (tenant, _, _) = pick(&mut rng, TENANTS.iter().map(|t| (t, t.2)));
        let (algo, budget, _) = pick(&mut rng, ALGOS.iter().map(|a| (a, a.2)));
        let (shape, _) = pick(&mut rng, shapes.iter().map(|s| (s, s.1)));
        let ops = ops_mix[rng.gen_range(0..ops_mix.len())];
        out.push(Arrival {
            at_us,
            tenant: tenant.to_string(),
            algo: algo.to_string(),
            seed: rng.gen(),
            spec: ProblemSpec::Generated {
                shape: shape.to_string(),
                ops,
                servers,
                bus_mbps: 100.0,
                seed: rng.gen(),
            },
            budget: *budget,
            patience_us: rng.gen_bool(IMPATIENT_P).then_some(PATIENCE_US),
        });
    }
    out
}

/// The service configuration under test.
pub fn config() -> SvcConfig {
    let mut cfg = SvcConfig::default()
        .with_workers(VIRTUAL_SLOTS)
        .with_queue_caps(TENANT_QUEUE_CAP, TOTAL_QUEUE_CAP);
    for (tenant, weight, _) in TENANTS {
        cfg = cfg.with_weight(tenant, weight);
    }
    cfg
}

/// Nearest-rank percentile of a sorted integer sample (0 if empty).
fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Run the load-generation experiment.
pub fn run(params: &Params) -> ExperimentOutput {
    let stream = arrivals(params);
    let svc = VirtualService::new(config());
    let (reports, stats) = svc.run(&stream);

    let mut csv = String::from(CSV_HEADER);
    csv.push('\n');
    for r in &reports {
        csv.push_str(&format!(
            "{},{},{},{},{},{},{},{},{},{},{},{}\n",
            r.id,
            r.tenant,
            r.algo,
            r.outcome,
            r.arrival_us,
            r.start_us,
            r.queue_wait_us,
            r.ttfi_us,
            r.ttfinal_us,
            r.steps,
            r.cost,
            r.termination
        ));
    }

    // Per-tenant latency summary over serviced, non-abandoned requests
    // — the latencies a client that stayed connected actually saw.
    let mut latency = Table::new(
        format!(
            "Service latency under open-loop load — {} requests, {} virtual slots, \
             mean gap {MEAN_INTERARRIVAL_US} µs",
            stream.len(),
            VIRTUAL_SLOTS
        ),
        &[
            "tenant",
            "weight",
            "offered",
            "served",
            "rejected",
            "abandoned",
            "p50_wait_us",
            "p50_ttfi_us",
            "p99_ttfi_us",
            "p50_final_us",
            "p99_final_us",
        ],
    );
    let tenant_rows: Vec<(&str, u32)> = TENANTS
        .iter()
        .map(|&(t, w, _)| (t, w))
        .chain(std::iter::once(("all", 0)))
        .collect();
    for (tenant, weight) in tenant_rows {
        let of_tenant: Vec<&RequestReport> = reports
            .iter()
            .filter(|r| tenant == "all" || r.tenant == tenant)
            .collect();
        let served: Vec<&&RequestReport> = of_tenant
            .iter()
            .filter(|r| r.outcome == "done" && r.termination != "cancelled")
            .collect();
        let rejected = of_tenant
            .iter()
            .filter(|r| r.outcome.ends_with("queue_full"))
            .count();
        let abandoned = of_tenant
            .iter()
            .filter(|r| r.termination == "cancelled")
            .count();
        let mut waits: Vec<u64> = served.iter().map(|r| r.queue_wait_us).collect();
        let mut ttfi: Vec<u64> = served.iter().map(|r| r.ttfi_us).collect();
        let mut ttfinal: Vec<u64> = served.iter().map(|r| r.ttfinal_us).collect();
        waits.sort_unstable();
        ttfi.sort_unstable();
        ttfinal.sort_unstable();
        latency.push_row(vec![
            tenant.to_string(),
            if weight == 0 {
                "—".into()
            } else {
                weight.to_string()
            },
            of_tenant.len().to_string(),
            served.len().to_string(),
            rejected.to_string(),
            abandoned.to_string(),
            percentile(&waits, 50.0).to_string(),
            percentile(&ttfi, 50.0).to_string(),
            percentile(&ttfi, 99.0).to_string(),
            percentile(&ttfinal, 50.0).to_string(),
            percentile(&ttfinal, 99.0).to_string(),
        ]);
    }

    let mut counters = Table::new(
        format!(
            "Admission control — per-tenant cap {TENANT_QUEUE_CAP}, service cap {TOTAL_QUEUE_CAP}"
        ),
        &["admitted", "rejected", "completed", "cancelled", "invalid"],
    );
    counters.push_row(vec![
        stats.admitted.to_string(),
        stats.rejected.to_string(),
        stats.completed.to_string(),
        stats.cancelled.to_string(),
        stats.invalid.to_string(),
    ]);

    let mut out = ExperimentOutput::new("loadgen");
    out.tables.push(latency);
    out.tables.push(counters);
    out.extra_csvs.push(("loadgen.csv".to_string(), csv));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_exercises_every_service_outcome() {
        let params = Params::quick();
        let stream = arrivals(&params);
        assert_eq!(stream.len(), 240);
        let (reports, stats) = VirtualService::new(config()).run(&stream);
        assert_eq!(reports.len(), 240);
        // The acceptance bar: ≥200 completions across ≥3 tenants, with
        // admission control and abandonment both visible.
        assert!(stats.completed >= 200, "completed {}", stats.completed);
        let tenants: std::collections::BTreeSet<&str> = reports
            .iter()
            .filter(|r| r.outcome == "done")
            .map(|r| r.tenant.as_str())
            .collect();
        assert!(tenants.len() >= 3, "tenants {tenants:?}");
        assert!(stats.rejected > 0, "queue bounds never overflowed");
        assert!(
            stats.cancelled > 0,
            "no impatient client ran out of patience"
        );
        assert_eq!(stats.invalid, 0);
        assert_eq!(
            stats.admitted + stats.rejected,
            240,
            "every arrival is admitted or rejected"
        );
    }

    #[test]
    fn csv_is_complete_and_causal() {
        let params = Params::quick();
        let out = run(&params);
        let (name, csv) = &out.extra_csvs[0];
        assert_eq!(name, "loadgen.csv");
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], CSV_HEADER);
        assert_eq!(lines.len(), 1 + 240);
        for line in &lines[1..] {
            let cols: Vec<&str> = line.split(',').collect();
            assert_eq!(cols.len(), 12, "bad row {line}");
            let outcome = cols[3];
            let (wait, ttfi, ttfinal): (u64, u64, u64) = (
                cols[6].parse().unwrap(),
                cols[7].parse().unwrap(),
                cols[8].parse().unwrap(),
            );
            match outcome {
                "done" => {
                    assert!(ttfi >= wait, "TTFI before service start: {line}");
                    assert!(ttfinal >= ttfi, "final before first incumbent: {line}");
                    assert!(
                        !cols[11].is_empty(),
                        "serviced row lacks termination: {line}"
                    );
                }
                "tenant_queue_full" | "service_queue_full" => {
                    assert_eq!((wait, ttfi, ttfinal), (0, 0, 0), "rejected row: {line}");
                }
                other => panic!("unexpected outcome {other:?}: {line}"),
            }
        }
    }

    #[test]
    fn weighted_tenants_see_better_tails() {
        // Same offered mix, but gold pays for weight 4: under sustained
        // contention its median queue wait must not exceed bronze's.
        let params = Params::quick();
        let (reports, _) = VirtualService::new(config()).run(&arrivals(&params));
        let median_wait = |tenant: &str| {
            let mut waits: Vec<u64> = reports
                .iter()
                .filter(|r| r.tenant == tenant && r.outcome == "done")
                .map(|r| r.queue_wait_us)
                .collect();
            waits.sort_unstable();
            percentile(&waits, 50.0)
        };
        assert!(
            median_wait("gold") <= median_wait("bronze"),
            "gold {} vs bronze {}",
            median_wait("gold"),
            median_wait("bronze")
        );
    }
}
