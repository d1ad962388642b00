//! Warn-once environment-knob parsing, shared by every `WSFLOW_*` knob.
//!
//! The workspace's tuning knobs (`WSFLOW_THREADS`, `WSFLOW_OBS`,
//! `WSFLOW_SVC_PORT`) share a contract: an *unset* variable means
//! "use the default", a *valid* value overrides it, and an *invalid*
//! value warns **once** on stderr and then behaves as unset — never a
//! silent fallback, never a hard failure. This module is the one
//! implementation of that contract; `wsflow_par::num_threads` and
//! `wsflow-svc`'s port knob both go through it.

use std::collections::BTreeSet;
use std::sync::{Mutex, OnceLock};

fn warned_set() -> &'static Mutex<BTreeSet<String>> {
    static WARNED: OnceLock<Mutex<BTreeSet<String>>> = OnceLock::new();
    WARNED.get_or_init(|| Mutex::new(BTreeSet::new()))
}

/// Print `message` to stderr the first time `key` is seen in this
/// process; subsequent calls with the same key are silent.
///
/// Returns `true` if the message was printed (useful in tests).
pub fn warn_once(key: &str, message: &str) -> bool {
    let mut warned = warned_set().lock().unwrap_or_else(|e| e.into_inner());
    if warned.contains(key) {
        return false;
    }
    warned.insert(key.to_string());
    eprintln!("{message}");
    true
}

/// Test hook: forget that `key` has warned, so the next [`warn_once`]
/// with it prints again.
pub fn reset_warn_once(key: &str) {
    warned_set()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .remove(key);
}

/// Read environment variable `name` and interpret it with `parse`.
///
/// * unset → `None` (caller uses its default);
/// * `parse` returns `Ok(v)` → `Some(v)`;
/// * `parse` returns `Err(expected)` → warn once on stderr, naming the
///   variable, the offending value, and what was expected — then `None`.
pub fn env_knob<T>(name: &str, parse: impl FnOnce(&str) -> Result<T, String>) -> Option<T> {
    let raw = std::env::var(name).ok()?;
    match parse(&raw) {
        Ok(v) => Some(v),
        Err(expected) => {
            warn_once(
                name,
                &format!(
                    "warning: ignoring unparseable {name}={raw:?} \
                     (expected {expected}); using the default"
                ),
            );
            None
        }
    }
}

/// A positive-integer knob (`>= 1`), such as a worker count.
/// Zero, negatives, and non-numeric values warn once and read as unset.
pub fn env_positive_usize(name: &str) -> Option<usize> {
    env_knob(name, |raw| match raw.trim().parse::<usize>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err("a positive integer".to_string()),
    })
}

/// A TCP port knob: any `u16`, including `0` (ephemeral).
pub fn env_port(name: &str) -> Option<u16> {
    env_knob(name, |raw| {
        raw.trim()
            .parse::<u16>()
            .map_err(|_| "a port number 0-65535".to_string())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warn_once_fires_exactly_once_per_key() {
        reset_warn_once("test.key.a");
        assert!(warn_once("test.key.a", "first"));
        assert!(!warn_once("test.key.a", "second"));
        reset_warn_once("test.key.a");
        assert!(warn_once("test.key.a", "after reset"));
        reset_warn_once("test.key.a");
    }

    #[test]
    fn env_knob_parses_warns_and_defaults() {
        // Unset → None without consulting parse.
        std::env::remove_var("WSFLOW_TEST_KNOB_UNSET");
        assert_eq!(
            env_knob("WSFLOW_TEST_KNOB_UNSET", |_| Ok::<u32, String>(1)),
            None
        );
        // Valid → Some.
        std::env::set_var("WSFLOW_TEST_KNOB_OK", "17");
        assert_eq!(env_positive_usize("WSFLOW_TEST_KNOB_OK"), Some(17));
        std::env::remove_var("WSFLOW_TEST_KNOB_OK");
        // Invalid → None, and warns exactly once.
        std::env::set_var("WSFLOW_TEST_KNOB_BAD", "zero-ish");
        reset_warn_once("WSFLOW_TEST_KNOB_BAD");
        assert_eq!(env_positive_usize("WSFLOW_TEST_KNOB_BAD"), None);
        // A second read is silent but still None.
        assert_eq!(env_positive_usize("WSFLOW_TEST_KNOB_BAD"), None);
        std::env::remove_var("WSFLOW_TEST_KNOB_BAD");
        reset_warn_once("WSFLOW_TEST_KNOB_BAD");
    }

    #[test]
    fn positive_usize_rejects_zero_and_garbage() {
        for bad in ["0", "-3", "four", ""] {
            std::env::set_var("WSFLOW_TEST_KNOB_RANGE", bad);
            reset_warn_once("WSFLOW_TEST_KNOB_RANGE");
            assert_eq!(
                env_positive_usize("WSFLOW_TEST_KNOB_RANGE"),
                None,
                "{bad:?}"
            );
        }
        std::env::set_var("WSFLOW_TEST_KNOB_RANGE", " 8 ");
        assert_eq!(env_positive_usize("WSFLOW_TEST_KNOB_RANGE"), Some(8));
        std::env::remove_var("WSFLOW_TEST_KNOB_RANGE");
        reset_warn_once("WSFLOW_TEST_KNOB_RANGE");
    }

    #[test]
    fn port_accepts_zero_and_rejects_out_of_range() {
        std::env::set_var("WSFLOW_TEST_KNOB_PORT", "0");
        assert_eq!(env_port("WSFLOW_TEST_KNOB_PORT"), Some(0));
        std::env::set_var("WSFLOW_TEST_KNOB_PORT", "65535");
        assert_eq!(env_port("WSFLOW_TEST_KNOB_PORT"), Some(65535));
        std::env::set_var("WSFLOW_TEST_KNOB_PORT", "65536");
        reset_warn_once("WSFLOW_TEST_KNOB_PORT");
        assert_eq!(env_port("WSFLOW_TEST_KNOB_PORT"), None);
        std::env::remove_var("WSFLOW_TEST_KNOB_PORT");
        reset_warn_once("WSFLOW_TEST_KNOB_PORT");
    }
}
