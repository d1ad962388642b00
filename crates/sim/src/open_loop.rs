//! Open-loop simulation: a stream of workflow *instances* arriving over
//! time and competing for the same servers.
//!
//! The paper deploys for a single request and motivates fairness with
//! "whenever additional workflows are deployed … a reasonable load
//! scale-up is still possible" (§2.1). This module quantifies that
//! scale-up: instances arrive as a Poisson process, servers process
//! operations FIFO across instances, and we measure sojourn time,
//! throughput, and per-server utilisation. Fair deployments should
//! degrade gracefully as the arrival rate grows; deployments that pile
//! work on one server should hit its capacity wall early.
//!
//! An open-loop run is the discrete-event engine of [`crate::engine`]
//! fed one arrival per instance, with FIFO servers. This module draws
//! the arrivals and folds the per-instance completions into the result.

use rand::Rng;
use wsflow_cost::{Mapping, Problem};
use wsflow_model::Seconds;
use wsflow_net::dynamics::Timeline;

use crate::engine::{self, SimConfig};
use crate::monte_carlo::SampleStats;

/// Configuration of an open-loop run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpenLoopConfig {
    /// Number of workflow instances to inject.
    pub instances: usize,
    /// Mean arrival rate (instances per second). Inter-arrival times
    /// are exponential.
    pub arrival_rate_hz: f64,
    /// Whether inter-server messages serialise on the shared bus.
    pub bus_serial: bool,
}

impl OpenLoopConfig {
    /// `instances` arrivals at `rate` Hz, without bus serialisation.
    pub fn new(instances: usize, arrival_rate_hz: f64) -> Self {
        assert!(instances > 0, "at least one instance required");
        assert!(
            arrival_rate_hz > 0.0 && arrival_rate_hz.is_finite(),
            "arrival rate must be positive"
        );
        Self {
            instances,
            arrival_rate_hz,
            bus_serial: false,
        }
    }

    /// Builder-style: enable bus serialisation.
    pub fn with_bus_serial(mut self) -> Self {
        self.bus_serial = true;
        self
    }
}

/// The measurements of an open-loop run.
#[derive(Debug, Clone, PartialEq)]
pub struct OpenLoopResult {
    /// Sojourn time (arrival → sink completion) statistics over all
    /// instances.
    pub sojourn: SampleStats,
    /// Completed instances per second of simulated time.
    pub throughput_hz: f64,
    /// Per-server busy fraction of the makespan.
    pub utilization: Vec<f64>,
    /// Time from the first arrival to the last completion.
    pub makespan: Seconds,
}

/// Run an open-loop simulation of `config.instances` arrivals.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use wsflow_cost::{Mapping, Problem};
/// use wsflow_model::{MCycles, Mbits, MbitsPerSec, WorkflowBuilder};
/// use wsflow_net::topology::{bus, homogeneous_servers};
/// use wsflow_net::ServerId;
/// use wsflow_sim::{open_loop, OpenLoopConfig};
///
/// let mut b = WorkflowBuilder::new("w");
/// b.line("op", &[MCycles(10.0), MCycles(20.0)], Mbits(0.1));
/// let net = bus("n", homogeneous_servers(2, 1.0), MbitsPerSec(100.0)).unwrap();
/// let problem = Problem::new(b.build().unwrap(), net).unwrap();
/// let mapping = Mapping::from_fn(2, |op| ServerId::new(op.0 % 2));
///
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
/// let result = open_loop(&problem, &mapping, OpenLoopConfig::new(50, 10.0), &mut rng);
/// assert_eq!(result.sojourn.trials, 50);
/// assert!(result.throughput_hz > 0.0);
/// ```
pub fn open_loop(
    problem: &Problem,
    mapping: &Mapping,
    config: OpenLoopConfig,
    rng: &mut impl Rng,
) -> OpenLoopResult {
    let k = config.instances;
    // Poisson arrivals: the first instance arrives at t = 0, the rest
    // after exponential gaps.
    let mut arrivals = Vec::with_capacity(k);
    let mut t = 0.0f64;
    for i in 0..k {
        if i > 0 {
            let u: f64 = rng.gen::<f64>().max(1e-300);
            t += -u.ln() / config.arrival_rate_hz;
        }
        arrivals.push(t);
    }
    let sim = SimConfig {
        server_fifo: true,
        bus_serial: config.bus_serial,
    };
    let (outcome, completions) = engine::run(
        problem,
        mapping,
        sim,
        &Timeline::EMPTY,
        &arrivals,
        rng,
        None,
    );
    let sojourns: Vec<f64> = completions
        .iter()
        .zip(&arrivals)
        .map(|(&c, &a)| c - a)
        .collect();
    // The last completion; the first arrival is at t = 0.
    let makespan = outcome.completion.value();
    OpenLoopResult {
        sojourn: SampleStats::from_values(&sojourns),
        throughput_hz: if makespan > 0.0 {
            k as f64 / makespan
        } else {
            f64::INFINITY
        },
        utilization: outcome
            .server_busy
            .iter()
            .map(|&b| {
                if makespan > 0.0 {
                    b.value() / makespan
                } else {
                    0.0
                }
            })
            .collect(),
        makespan: Seconds(makespan),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::simulate;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use wsflow_model::{MCycles, Mbits, MbitsPerSec, WorkflowBuilder};
    use wsflow_net::topology::{bus, homogeneous_servers};
    use wsflow_net::ServerId;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    fn line_problem() -> Problem {
        let mut b = WorkflowBuilder::new("w");
        b.line(
            "o",
            &[MCycles(10.0), MCycles(20.0), MCycles(10.0)],
            Mbits(0.1),
        );
        let net = bus("n", homogeneous_servers(2, 1.0), MbitsPerSec(100.0)).unwrap();
        Problem::new(b.build().unwrap(), net).unwrap()
    }

    #[test]
    fn light_load_sojourn_matches_single_instance() {
        let p = line_problem();
        let m = Mapping::from_fn(3, |o| ServerId::new(o.0 % 2));
        let single = simulate(
            &p,
            &m,
            SimConfig {
                server_fifo: true,
                bus_serial: false,
            },
            &mut rng(0),
        );
        // One arrival every 100 s: zero interference.
        let result = open_loop(&p, &m, OpenLoopConfig::new(20, 0.01), &mut rng(0));
        assert!(
            (result.sojourn.mean.value() - single.completion.value()).abs() < 1e-9,
            "light load mean {} vs single {}",
            result.sojourn.mean,
            single.completion
        );
        assert!(result.sojourn.std_dev.value() < 1e-9);
    }

    #[test]
    fn heavy_load_queues() {
        let p = line_problem();
        let m = Mapping::from_fn(3, |o| ServerId::new(o.0 % 2));
        let light = open_loop(&p, &m, OpenLoopConfig::new(50, 0.01), &mut rng(1));
        // 1000 arrivals/s onto a ~40 ms workflow: heavy queueing.
        let heavy = open_loop(&p, &m, OpenLoopConfig::new(50, 1000.0), &mut rng(1));
        assert!(
            heavy.sojourn.mean > light.sojourn.mean,
            "heavy {} vs light {}",
            heavy.sojourn.mean,
            light.sojourn.mean
        );
        // Utilisation rises with load.
        let light_util: f64 = light.utilization.iter().sum();
        let heavy_util: f64 = heavy.utilization.iter().sum();
        assert!(heavy_util > light_util);
        assert!(heavy.utilization.iter().all(|&u| u <= 1.0 + 1e-9));
    }

    #[test]
    fn throughput_is_instances_over_makespan() {
        let p = line_problem();
        let m = Mapping::all_on(3, ServerId::new(0));
        let r = open_loop(&p, &m, OpenLoopConfig::new(10, 5.0), &mut rng(2));
        let expected = 10.0 / r.makespan.value();
        assert!((r.throughput_hz - expected).abs() < 1e-9);
        assert!(r.makespan.value() > 0.0);
    }

    #[test]
    fn fair_deployment_scales_better_than_single_server() {
        // The paper's motivation: under load, spreading work beats
        // stacking it on one machine.
        let p = line_problem();
        let fair = Mapping::from_fn(3, |o| ServerId::new(o.0 % 2));
        let stacked = Mapping::all_on(3, ServerId::new(0));
        let cfg = OpenLoopConfig::new(100, 100.0);
        let fair_result = open_loop(&p, &fair, cfg, &mut rng(3));
        let stacked_result = open_loop(&p, &stacked, cfg, &mut rng(3));
        assert!(
            fair_result.sojourn.mean < stacked_result.sojourn.mean,
            "fair {} vs stacked {}",
            fair_result.sojourn.mean,
            stacked_result.sojourn.mean
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let p = line_problem();
        let m = Mapping::from_fn(3, |o| ServerId::new(o.0 % 2));
        let a = open_loop(&p, &m, OpenLoopConfig::new(30, 50.0), &mut rng(7));
        let b = open_loop(&p, &m, OpenLoopConfig::new(30, 50.0), &mut rng(7));
        assert_eq!(a, b);
    }

    #[test]
    fn works_with_xor_graphs_and_bus_serial() {
        use wsflow_model::BlockSpec;
        let spec = BlockSpec::xor_uniform(
            "x",
            vec![
                BlockSpec::op("l", MCycles(10.0)),
                BlockSpec::op("r", MCycles(30.0)),
            ],
        );
        let w = spec.lower("g", &mut || Mbits(0.5)).unwrap();
        let net = bus("n", homogeneous_servers(3, 1.0), MbitsPerSec(10.0)).unwrap();
        let p = Problem::new(w, net).unwrap();
        let m = Mapping::from_fn(p.num_ops(), |o| ServerId::new(o.0 % 3));
        let r = open_loop(
            &p,
            &m,
            OpenLoopConfig::new(40, 20.0).with_bus_serial(),
            &mut rng(5),
        );
        assert_eq!(r.sojourn.trials, 40);
        assert!(r.sojourn.mean.value() > 0.0);
    }
}
