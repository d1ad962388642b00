//! Experiment sizing parameters.
//!
//! Defaults reproduce the paper's §4 setup (19 operations, 3–5 servers,
//! 50 experiments, 32 000 quality samples); [`Params::quick`] shrinks
//! everything so the full suite runs in seconds for tests and smoke
//! benches.

use wsflow_model::MbitsPerSec;

/// Sizing knobs shared by all experiments.
#[derive(Debug, Clone, PartialEq)]
pub struct Params {
    /// Operations per workflow (paper: 19).
    pub ops: usize,
    /// Server counts to sweep (paper: 3–5; figures use 5).
    pub server_counts: Vec<usize>,
    /// Bus speeds to sweep in Mbps (paper discusses 1 and 100 Mbps buses;
    /// Table 6 lists 10/100/1000 Mbps links).
    pub bus_speeds: Vec<MbitsPerSec>,
    /// Scenarios (seeds) per configuration point (paper: 50).
    pub seeds: usize,
    /// Random mappings sampled per instance in the quality study
    /// (paper: 32 000).
    pub quality_samples: usize,
    /// Base RNG seed for the whole run.
    pub base_seed: u64,
}

impl Params {
    /// The paper's configuration.
    pub fn paper() -> Self {
        Self {
            ops: 19,
            server_counts: vec![3, 4, 5],
            bus_speeds: vec![
                MbitsPerSec(1.0),
                MbitsPerSec(10.0),
                MbitsPerSec(100.0),
                MbitsPerSec(1000.0),
            ],
            seeds: 50,
            quality_samples: 32_000,
            base_seed: 2007,
        }
    }

    /// A seconds-scale configuration for tests and smoke runs.
    pub fn quick() -> Self {
        Self {
            ops: 9,
            server_counts: vec![3],
            bus_speeds: vec![MbitsPerSec(1.0), MbitsPerSec(100.0)],
            seeds: 4,
            quality_samples: 200,
            base_seed: 2007,
        }
    }
}

impl Default for Params {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_section_4() {
        let p = Params::paper();
        assert_eq!(p.ops, 19);
        assert_eq!(p.seeds, 50);
        assert_eq!(p.quality_samples, 32_000);
        assert_eq!(p.server_counts, vec![3, 4, 5]);
        assert_eq!(p, Params::default());
    }

    #[test]
    fn quick_is_smaller() {
        let q = Params::quick();
        assert!(q.ops < Params::paper().ops);
        assert!(q.seeds < Params::paper().seeds);
    }
}
