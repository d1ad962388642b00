//! Monte-Carlo estimation over repeated simulated executions.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use wsflow_cost::{Mapping, Problem};
use wsflow_model::Seconds;

use crate::engine::{simulate, SimConfig, SimOutcome};

/// Summary statistics of a sample of completion times.
#[derive(Debug, Clone, PartialEq)]
pub struct SampleStats {
    /// Number of trials.
    pub trials: usize,
    /// Sample mean.
    pub mean: Seconds,
    /// Sample standard deviation (Bessel-corrected).
    pub std_dev: Seconds,
    /// Smallest observation.
    pub min: Seconds,
    /// Largest observation.
    pub max: Seconds,
    /// Half-width of the 95 % confidence interval for the mean
    /// (1.96 · σ/√n).
    pub ci95_half_width: Seconds,
}

impl SampleStats {
    /// Compute statistics from raw observations. Panics on an empty
    /// sample.
    pub fn from_values(values: &[f64]) -> Self {
        assert!(!values.is_empty(), "cannot summarise an empty sample");
        let n = values.len();
        let mean = values.iter().sum::<f64>() / n as f64;
        let var = if n > 1 {
            values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1) as f64
        } else {
            0.0
        };
        let std_dev = var.sqrt();
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Self {
            trials: n,
            mean: Seconds(mean),
            std_dev: Seconds(std_dev),
            min: Seconds(min),
            max: Seconds(max),
            ci95_half_width: Seconds(1.96 * std_dev / (n as f64).sqrt()),
        }
    }

    /// `true` if `value` lies within the 95 % CI of the mean.
    pub fn ci_contains(&self, value: Seconds) -> bool {
        (value.value() - self.mean.value()).abs() <= self.ci95_half_width.value()
    }
}

/// The result of a Monte-Carlo run: completion statistics plus the mean
/// per-server busy time.
#[derive(Debug, Clone, PartialEq)]
pub struct MonteCarloResult {
    /// Completion-time statistics.
    pub completion: SampleStats,
    /// Mean per-server busy time across trials.
    pub mean_server_busy: Vec<Seconds>,
    /// Mean number of inter-server messages per execution.
    pub mean_messages: f64,
    /// All raw outcomes (in trial order) for downstream analysis.
    pub outcomes: Vec<SimOutcome>,
}

/// Run `trials` independent executions and summarise them.
///
/// Each trial uses an independent RNG stream derived from `seed` and the
/// trial index, so results are reproducible and order-independent. The
/// trials run in parallel (`WSFLOW_THREADS` workers), but the outcomes
/// are collected back in trial order and reduced sequentially, so the
/// result is bit-identical for any worker count — including one.
pub fn run(
    problem: &Problem,
    mapping: &Mapping,
    config: SimConfig,
    trials: usize,
    seed: u64,
) -> MonteCarloResult {
    assert!(trials > 0, "at least one trial required");
    let outcomes = wsflow_par::parallel_map(trials, |t| {
        let mut rng = ChaCha8Rng::seed_from_u64(seed.wrapping_add(t as u64 * 0x9E37_79B9));
        simulate(problem, mapping, config, &mut rng)
    });
    let mut completions = Vec::with_capacity(trials);
    let mut busy_sums = vec![0.0f64; problem.num_servers()];
    let mut msg_sum = 0usize;
    for out in &outcomes {
        completions.push(out.completion.value());
        for (i, b) in out.server_busy.iter().enumerate() {
            busy_sums[i] += b.value();
        }
        msg_sum += out.messages_sent;
    }
    MonteCarloResult {
        completion: SampleStats::from_values(&completions),
        mean_server_busy: busy_sums
            .into_iter()
            .map(|s| Seconds(s / trials as f64))
            .collect(),
        mean_messages: msg_sum as f64 / trials as f64,
        outcomes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsflow_cost::reference::texecute;
    use wsflow_model::{BlockSpec, MCycles, Mbits, MbitsPerSec, WorkflowBuilder};
    use wsflow_net::topology::{bus, homogeneous_servers};
    use wsflow_net::ServerId;

    #[test]
    fn stats_basics() {
        let s = SampleStats::from_values(&[1.0, 2.0, 3.0]);
        assert_eq!(s.trials, 3);
        assert_eq!(s.mean, Seconds(2.0));
        assert_eq!(s.min, Seconds(1.0));
        assert_eq!(s.max, Seconds(3.0));
        assert!((s.std_dev.value() - 1.0).abs() < 1e-12);
        assert!(s.ci_contains(Seconds(2.5)));
        assert!(!s.ci_contains(Seconds(5.0)));
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn empty_sample_panics() {
        let _ = SampleStats::from_values(&[]);
    }

    #[test]
    #[should_panic(expected = "at least one trial")]
    fn zero_trials_panics() {
        let mut b = WorkflowBuilder::new("w");
        b.line("o", &[MCycles(1.0)], Mbits(0.1));
        // A one-op "line" has no messages; builder line() with single
        // cost produces one op.
        let net = bus("n", homogeneous_servers(2, 1.0), MbitsPerSec(10.0)).unwrap();
        let p = Problem::new(b.build().unwrap(), net).unwrap();
        let m = Mapping::all_on(1, ServerId::new(0));
        let _ = run(&p, &m, SimConfig::ideal(), 0, 0);
    }

    #[test]
    fn single_observation_has_zero_spread() {
        let s = SampleStats::from_values(&[4.2]);
        assert_eq!(s.std_dev, Seconds(0.0));
        assert_eq!(s.ci95_half_width, Seconds(0.0));
    }

    #[test]
    fn deterministic_workflow_has_zero_variance() {
        let mut b = WorkflowBuilder::new("w");
        b.line("o", &[MCycles(10.0), MCycles(20.0)], Mbits(0.5));
        let net = bus("n", homogeneous_servers(2, 1.0), MbitsPerSec(10.0)).unwrap();
        let p = Problem::new(b.build().unwrap(), net).unwrap();
        let m = Mapping::from_fn(2, |o| ServerId::new(o.0 % 2));
        let r = run(&p, &m, SimConfig::ideal(), 20, 7);
        assert!(r.completion.std_dev.value() < 1e-12);
        assert!((r.completion.mean.value() - texecute(&p, &m).value()).abs() < 1e-12);
        assert_eq!(r.mean_messages, 1.0);
    }

    #[test]
    fn xor_mean_converges_to_analytic_expectation() {
        // Plain (non-nested) XOR: the analytic weighted mean is the exact
        // expectation, so the Monte-Carlo CI must cover it.
        let spec = BlockSpec::xor_uniform(
            "x",
            vec![
                BlockSpec::op("l", MCycles(10.0)),
                BlockSpec::op("r", MCycles(90.0)),
            ],
        );
        let w = spec.lower("w", &mut || Mbits(0.1)).unwrap();
        let net = bus("n", homogeneous_servers(2, 1.0), MbitsPerSec(100.0)).unwrap();
        let p = Problem::new(w, net).unwrap();
        let m = Mapping::all_on(4, ServerId::new(0));
        let analytic = texecute(&p, &m);
        let r = run(&p, &m, SimConfig::ideal(), 3000, 11);
        assert!(
            r.completion.ci_contains(analytic),
            "analytic {} outside CI around {} ± {}",
            analytic,
            r.completion.mean,
            r.completion.ci95_half_width
        );
    }

    /// The parallel trial fan-out must be invisible: `run` has to match
    /// a hand-rolled sequential loop observation for observation, since
    /// every trial derives its RNG from (seed, trial index) and the
    /// reduction happens in trial order.
    #[test]
    fn parallel_run_matches_sequential_reference() {
        let mut b = WorkflowBuilder::new("w");
        b.line("o", &[MCycles(10.0); 6], Mbits(0.2));
        let net = bus("n", homogeneous_servers(3, 1.0), MbitsPerSec(10.0)).unwrap();
        let p = Problem::new(b.build().unwrap(), net).unwrap();
        let m = Mapping::from_fn(6, |o| ServerId::new(o.0 % 3));
        let seed = 42;
        let trials = 37;
        let r = run(&p, &m, SimConfig::contended(), trials, seed);
        for (t, out) in r.outcomes.iter().enumerate() {
            let mut rng = ChaCha8Rng::seed_from_u64(seed.wrapping_add(t as u64 * 0x9E37_79B9));
            let reference = simulate(&p, &m, SimConfig::contended(), &mut rng);
            assert_eq!(out, &reference, "trial {t} diverged");
        }
    }

    #[test]
    fn reproducible_across_invocations() {
        let mut b = WorkflowBuilder::new("w");
        b.line("o", &[MCycles(10.0); 4], Mbits(0.2));
        let net = bus("n", homogeneous_servers(2, 1.0), MbitsPerSec(10.0)).unwrap();
        let p = Problem::new(b.build().unwrap(), net).unwrap();
        let m = Mapping::from_fn(4, |o| ServerId::new(o.0 % 2));
        let a = run(&p, &m, SimConfig::contended(), 10, 3);
        let b2 = run(&p, &m, SimConfig::contended(), 10, 3);
        assert_eq!(a, b2);
    }
}
