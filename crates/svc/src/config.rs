//! Service configuration and the `WSFLOW_SVC_PORT` environment knob.
//!
//! `wsflowd --workers`/`--queue` size the scheduler; the daemon's port
//! is `WSFLOW_SVC_PORT` (0 = ephemeral, default 7407), which
//! `wsflow submit` also reads. The knob follows the workspace contract
//! implemented by [`wsflow_obs::env_knob`]: unset = default, valid =
//! override, invalid = one stderr warning then the default.

use std::collections::BTreeMap;

/// Default per-tenant queue bound.
pub const DEFAULT_QUEUE_CAP: usize = 64;
/// The service-wide queue bound is this many times the per-tenant one.
pub const TOTAL_QUEUE_FACTOR: usize = 8;
/// Default daemon port ("7407" ≈ "ws07").
pub const DEFAULT_PORT: u16 = 7407;

/// Scheduler sizing and fairness parameters, shared by the threaded
/// daemon scheduler and the deterministic virtual-time engine.
#[derive(Debug, Clone, PartialEq)]
pub struct SvcConfig {
    /// Solver worker threads (threaded mode) / service slots (virtual
    /// mode).
    pub workers: usize,
    /// Per-tenant queue bound; the `cap+1`-th queued request of a
    /// tenant is rejected with `tenant_queue_full`.
    pub queue_cap: usize,
    /// Service-wide queue bound across all tenants.
    pub total_cap: usize,
    /// Fair-queueing weights per tenant; a tenant with weight 2 is
    /// dispatched twice as often as one with weight 1 under contention.
    pub weights: BTreeMap<String, u32>,
    /// Weight for tenants absent from `weights`.
    pub default_weight: u32,
}

impl Default for SvcConfig {
    fn default() -> Self {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Self {
            workers: cores.min(4),
            queue_cap: DEFAULT_QUEUE_CAP,
            total_cap: DEFAULT_QUEUE_CAP * TOTAL_QUEUE_FACTOR,
            weights: BTreeMap::new(),
            default_weight: 1,
        }
    }
}

impl SvcConfig {
    /// The fair-queueing weight of `tenant`.
    pub fn weight_of(&self, tenant: &str) -> u32 {
        self.weights
            .get(tenant)
            .copied()
            .unwrap_or(self.default_weight)
            .max(1)
    }

    /// Builder: set a tenant's weight.
    pub fn with_weight(mut self, tenant: &str, weight: u32) -> Self {
        self.weights.insert(tenant.to_string(), weight);
        self
    }

    /// Builder: set the worker count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Builder: set per-tenant and total queue bounds.
    pub fn with_queue_caps(mut self, per_tenant: usize, total: usize) -> Self {
        self.queue_cap = per_tenant.max(1);
        self.total_cap = total.max(1);
        self
    }
}

/// The daemon's listen port: `WSFLOW_SVC_PORT` or [`DEFAULT_PORT`].
pub fn port_from_env() -> u16 {
    wsflow_obs::env_port("WSFLOW_SVC_PORT").unwrap_or(DEFAULT_PORT)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let cfg = SvcConfig::default();
        assert!(cfg.workers >= 1);
        assert_eq!(cfg.queue_cap, DEFAULT_QUEUE_CAP);
        assert!(cfg.total_cap >= cfg.queue_cap);
        assert_eq!(cfg.weight_of("anyone"), 1);
    }

    #[test]
    fn builders_and_weights() {
        let cfg = SvcConfig::default()
            .with_workers(2)
            .with_queue_caps(4, 16)
            .with_weight("gold", 4);
        assert_eq!(cfg.workers, 2);
        assert_eq!(cfg.queue_cap, 4);
        assert_eq!(cfg.total_cap, 16);
        assert_eq!(cfg.weight_of("gold"), 4);
        assert_eq!(cfg.weight_of("bronze"), 1);
        // Zero weights are clamped: a tenant can be deprioritised, not
        // starved outright.
        let cfg = cfg.with_weight("zero", 0);
        assert_eq!(cfg.weight_of("zero"), 1);
    }

    #[test]
    fn port_knob_honours_env() {
        std::env::remove_var("WSFLOW_SVC_PORT");
        assert_eq!(port_from_env(), DEFAULT_PORT);
        std::env::set_var("WSFLOW_SVC_PORT", "0");
        assert_eq!(port_from_env(), 0);
        std::env::remove_var("WSFLOW_SVC_PORT");
    }
}
