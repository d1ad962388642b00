//! The three request mixes and their deterministic request streams.
//!
//! Every request a run sends is a pure function of `(workload, seed,
//! tenant, index)`, so two runs with the same `--seed` send the same
//! bytes. The daemon sees only the encoded requests.

use std::time::Duration;

use wsflow_model::Workflow;
use wsflow_svc::proto::{self, ProblemSpec, Request};
use wsflow_workload::{random_graph_workflow, ExperimentClass, GraphClass};

/// Tenants of the closed loop: one connection each, both weight 1.
pub const TENANTS: [&str; 2] = ["a", "b"];

/// Bus speed of every generated instance (the class-C median).
const BUS_MBPS: f64 = 100.0;

/// One request mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 19 ops × 5 servers, `portfolio`, unlimited budget: the service's
    /// per-request overhead dominates.
    PaperSmall,
    /// 100 ops × 20 servers, `blackboard`, 20 000 steps: the solver
    /// dominates.
    AnytimeMid,
    /// 40-op inline workflows on one 150-server bus pool, `fairload`:
    /// the network build dominates.
    SharedPool,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 3] = [
        Workload::PaperSmall,
        Workload::AnytimeMid,
        Workload::SharedPool,
    ];

    /// Parse a `--workload` name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSmall => "paper_small",
            Workload::AnytimeMid => "anytime_mid",
            Workload::SharedPool => "shared_pool",
        }
    }

    /// The algorithm every request of the mix names.
    pub fn algo(self) -> &'static str {
        match self {
            Workload::PaperSmall => "portfolio",
            Workload::AnytimeMid => "blackboard",
            Workload::SharedPool => "fairload",
        }
    }

    /// Upper bound of a caller's think time between requests. On the
    /// solver- and build-bound mixes it spreads the callers over the
    /// daemon's 5 ms accept poll, so they do not lock into one phase
    /// with each other for a whole run. `paper_small` sends at once:
    /// its latency is the poll itself, and a caller that reconnects
    /// right after `Done` waits one full poll.
    pub fn max_think(self) -> Duration {
        match self {
            Workload::PaperSmall => Duration::ZERO,
            Workload::AnytimeMid | Workload::SharedPool => Duration::from_millis(5),
        }
    }

    fn budget(self) -> Option<u64> {
        match self {
            Workload::AnytimeMid => Some(20_000),
            Workload::PaperSmall | Workload::SharedPool => None,
        }
    }
}

/// SplitMix64 finaliser: decorrelates nearby seeds.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The request stream of one workload under one seed.
#[derive(Debug, Clone)]
pub struct Stream {
    workload: Workload,
    seed: u64,
    /// `shared_pool`'s fixed server pool (GHz ratings); empty otherwise.
    pool: Vec<f64>,
}

impl Stream {
    /// The stream `workload` sends under `seed`.
    pub fn new(workload: Workload, seed: u64) -> Self {
        let pool = match workload {
            Workload::SharedPool => {
                let class = ExperimentClass::class_c();
                wsflow_workload::servers(150, &class, mix(seed ^ 0x504F_4F4C))
                    .iter()
                    .map(|s| s.power.value() / 1000.0)
                    .collect()
            }
            Workload::PaperSmall | Workload::AnytimeMid => Vec::new(),
        };
        Self {
            workload,
            seed,
            pool,
        }
    }

    fn request_seed(&self, tenant: usize, index: u64) -> u64 {
        mix(mix(self.seed ^ mix(tenant as u64 + 1)) ^ index)
    }

    /// The 40-op workflow `shared_pool` sends inline as its
    /// `index`-th request of `tenant`.
    pub fn generate_workflow(&self, tenant: usize, index: u64) -> Workflow {
        let class = ExperimentClass::class_c();
        let seed = self.request_seed(tenant, index);
        random_graph_workflow("w", 40, GraphClass::Hybrid, &class, seed)
    }

    /// The `index`-th request of `tenant` (an index into [`TENANTS`]).
    pub fn request(&self, tenant: usize, index: u64) -> Request {
        let req_seed = self.request_seed(tenant, index);
        let spec = match self.workload {
            Workload::PaperSmall => generated(19, 5, req_seed),
            Workload::AnytimeMid => generated(100, 20, req_seed),
            Workload::SharedPool => ProblemSpec::Inline {
                workflow: wsflow_model::dsl::serialize(&self.generate_workflow(tenant, index)),
                server_ghz: self.pool.clone(),
                bus_mbps: BUS_MBPS,
            },
        };
        Request {
            tenant: TENANTS[tenant].to_string(),
            algo: self.workload.algo().to_string(),
            budget: self.workload.budget(),
            deadline_ms: None,
            spec,
        }
    }

    /// How long `tenant` waits before sending its `index`-th request:
    /// uniform in 0..[`Workload::max_think`].
    pub fn think_time(&self, tenant: usize, index: u64) -> Duration {
        let draw = mix(self.request_seed(tenant, index) ^ 0x7448_494E_4B00);
        self.workload
            .max_think()
            .mul_f64((draw >> 11) as f64 / (1u64 << 53) as f64)
    }

    /// The encoded frame of [`request`](Self::request).
    pub fn frame(&self, tenant: usize, index: u64) -> Vec<u8> {
        proto::encode_frame(&self.request(tenant, index)).expect("requests encode")
    }
}

fn generated(ops: u32, servers: u32, seed: u64) -> ProblemSpec {
    ProblemSpec::Generated {
        shape: "hybrid".to_string(),
        ops,
        servers,
        bus_mbps: BUS_MBPS,
        seed,
    }
}

/// The algorithm seed the daemon derives from a spec.
pub fn algo_seed(spec: &ProblemSpec) -> u64 {
    match spec {
        ProblemSpec::Generated { seed, .. } => *seed,
        ProblemSpec::Inline { .. } => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_the_same_request_bytes() {
        for w in Workload::ALL {
            let (s1, s2) = (Stream::new(w, 11), Stream::new(w, 11));
            for tenant in 0..TENANTS.len() {
                for i in [0, 1, 7, 1000] {
                    assert_eq!(s1.frame(tenant, i), s2.frame(tenant, i), "{}", w.name());
                }
            }
        }
    }

    #[test]
    fn seeds_tenants_and_indices_give_distinct_requests() {
        for w in Workload::ALL {
            let s = Stream::new(w, 11);
            assert_ne!(s.frame(0, 0), s.frame(0, 1));
            assert_ne!(s.frame(0, 0), s.frame(1, 0));
            assert_ne!(s.frame(0, 0), Stream::new(w, 12).frame(0, 0));
        }
    }

    #[test]
    fn shared_pool_repeats_one_pool() {
        let s = Stream::new(Workload::SharedPool, 3);
        let pool = |r: Request| match r.spec {
            ProblemSpec::Inline { server_ghz, .. } => server_ghz,
            ProblemSpec::Generated { .. } => panic!("shared_pool sends inline specs"),
        };
        let first = pool(s.request(0, 0));
        assert_eq!(first.len(), 150);
        assert_eq!(first, pool(s.request(1, 9)));
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }
}
