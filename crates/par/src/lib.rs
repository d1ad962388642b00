//! Deterministic scoped-thread parallelism for the wsflow workspace.
//!
//! Every parallel algorithm in the workspace promises *bit-identical*
//! results to its sequential counterpart, so this crate deliberately
//! exposes only fan-out/fan-in shapes whose merge step is order-
//! independent: tasks are identified by index, workers pull indices from
//! a shared atomic counter (work stealing for load balance), and results
//! are returned **in index order** regardless of which thread computed
//! them or when.
//!
//! [`num_threads`] is the one worker count of the workspace: the
//! `WSFLOW_THREADS` environment variable if set (a value of `1` forces
//! fully sequential in-place execution — useful for debugging and for
//! establishing baseline timings), otherwise
//! [`std::thread::available_parallelism`]. Every solver and harness
//! fan-out goes through [`parallel_map`], which reads it. Tests that
//! compare thread counts inside one process pin it with [`with_threads`].

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

thread_local! {
    /// The [`with_threads`] override, read before `WSFLOW_THREADS`.
    static THREADS_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Interpret a `WSFLOW_THREADS` value. `None` means "unset"; `Err`
/// carries the unparseable value so the caller can warn instead of
/// silently falling back (zero and non-numeric values are errors).
pub fn parse_threads(raw: Option<&str>) -> Result<Option<usize>, String> {
    let Some(raw) = raw else { return Ok(None) };
    match raw.trim().parse::<usize>() {
        Ok(n) if n >= 1 => Ok(Some(n)),
        _ => Err(raw.to_string()),
    }
}

/// Worker count: the [`with_threads`] override if one is in scope, else
/// `WSFLOW_THREADS` if set and valid, else the machine's available
/// parallelism, else 1. An unparseable `WSFLOW_THREADS` triggers a
/// one-time stderr warning (via the shared [`wsflow_obs::env_knob`]
/// machinery every `WSFLOW_*` knob uses) rather than a silent fallback.
pub fn num_threads() -> usize {
    if let Some(n) = THREADS_OVERRIDE.with(Cell::get) {
        return n;
    }
    if let Some(n) = wsflow_obs::env_positive_usize("WSFLOW_THREADS") {
        return n;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Run `f` with [`num_threads`] pinned to `n` (at least 1) on this
/// thread and on the workers of every [`parallel_map`] started inside
/// it, however deeply nested. The previous value comes back when `f`
/// returns or unwinds.
///
/// This is a test seam: tests that check results are bit-identical
/// across thread counts run both counts in one process. Programs take
/// their worker count from `WSFLOW_THREADS`.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREADS_OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(THREADS_OVERRIDE.with(|c| c.replace(Some(n.max(1)))));
    f()
}

/// Map `f` over `0..n` using up to [`num_threads`] scoped threads and
/// return the results in index order.
///
/// `f` runs exactly once per index. With one worker (or `n <= 1`) this
/// degenerates to a plain sequential loop on the calling thread — no
/// threads are spawned, so the sequential path has zero overhead.
pub fn parallel_map<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = num_threads().clamp(1, n.max(1));
    if workers == 1 {
        if wsflow_obs::enabled() {
            wsflow_obs::counter_add("par.jobs", 1);
            wsflow_obs::counter_add("par.sequential_jobs", 1);
            wsflow_obs::counter_add("par.tasks", n as u64);
        }
        return (0..n).map(f).collect();
    }

    let next = AtomicUsize::new(0);
    // Workers record into the caller's recorder, and their spans are
    // children of whatever span is open on the calling thread, even
    // though they run elsewhere.
    let obs = wsflow_obs::capture();
    // Workers inherit a `with_threads` override the same way, so nested
    // fan-outs size themselves like the caller's.
    let threads = THREADS_OVERRIDE.with(Cell::get);
    let mut collected: Vec<Vec<(usize, T)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let _obs = obs.adopt();
                    THREADS_OVERRIDE.with(|c| c.set(threads));
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        local.push((i, f(i)));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("parallel_map worker panicked"))
            .collect()
    });

    if wsflow_obs::enabled() {
        wsflow_obs::counter_add("par.jobs", 1);
        wsflow_obs::counter_add("par.tasks", n as u64);
        wsflow_obs::counter_add("par.worker_spawns", workers as u64);
        // Per-worker task counts come free from the fan-in buffers; their
        // spread is the balance the shared counter achieved.
        let mut per_worker = wsflow_obs::LocalHistogram::new();
        for local in &collected {
            per_worker.record(local.len() as f64);
        }
        wsflow_obs::merge_histogram("par.tasks_per_worker", &per_worker);
    }

    // Fan-in: place every result at its index. Each index was claimed by
    // exactly one worker, so every slot is filled exactly once.
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    for local in collected.drain(..) {
        for (i, value) in local {
            debug_assert!(slots[i].is_none());
            slots[i] = Some(value);
        }
    }
    slots
        .into_iter()
        .map(|s| s.expect("every index computed"))
        .collect()
}

/// Split `0..n` into `parts` contiguous ranges whose lengths differ by
/// at most one (earlier ranges get the extra items). Used to partition
/// enumeration index spaces deterministically.
pub fn split_ranges(n: usize, parts: usize) -> Vec<std::ops::Range<usize>> {
    let parts = parts.clamp(1, n.max(1));
    let base = n / parts;
    let extra = n % parts;
    let mut ranges = Vec::with_capacity(parts);
    let mut start = 0;
    for p in 0..parts {
        let len = base + usize::from(p < extra);
        ranges.push(start..start + len);
        start += len;
    }
    ranges
}

/// Split an optional logical-step budget into `parts` shares whose sum
/// is exactly the original budget and whose sizes differ by at most one
/// (earlier parts get the extra steps). `None` (unlimited) splits into
/// all-`None` shares.
///
/// The split depends only on `(budget, parts)`, never on thread timing,
/// so budgeted searches that partition work by a *structural* count
/// (root branches, index ranges) stay bit-identical for any
/// `WSFLOW_THREADS` setting.
pub fn split_budget(budget: Option<u64>, parts: usize) -> Vec<Option<u64>> {
    let parts = parts.max(1);
    match budget {
        None => vec![None; parts],
        Some(total) => {
            let base = total / parts as u64;
            let extra = total % parts as u64;
            (0..parts as u64)
                .map(|p| Some(base + u64::from(p < extra)))
                .collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_index_order() {
        for workers in [1, 2, 3, 8] {
            let out = with_threads(workers, || parallel_map(100, |i| i * i));
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn parallel_map_empty_and_single() {
        with_threads(4, || {
            assert_eq!(parallel_map(0, |i| i), Vec::<usize>::new());
            assert_eq!(parallel_map(1, |i| i + 7), vec![7]);
        });
    }

    #[test]
    fn with_threads_reaches_nested_workers_and_is_restored_after_a_panic() {
        let outer = num_threads();
        let seen = with_threads(3, || {
            parallel_map(4, |_| parallel_map(2, |_| num_threads()))
        });
        assert_eq!(seen, vec![vec![3, 3]; 4]);
        assert_eq!(num_threads(), outer);

        with_threads(5, || {
            let caught = std::panic::catch_unwind(|| {
                with_threads(2, || {
                    assert_eq!(num_threads(), 2);
                    panic!("unwind through the override");
                })
            });
            assert!(caught.is_err());
            assert_eq!(num_threads(), 5, "the enclosing override comes back");
        });
        assert_eq!(num_threads(), outer);
        assert_eq!(with_threads(0, num_threads), 1, "zero clamps to one");
    }

    #[test]
    fn split_ranges_covers_exactly() {
        for n in [0usize, 1, 7, 100] {
            for parts in [1usize, 2, 3, 7, 16] {
                let ranges = split_ranges(n, parts);
                let mut expect = 0;
                for r in &ranges {
                    assert_eq!(r.start, expect);
                    expect = r.end;
                }
                assert_eq!(expect, n);
                if n > 0 {
                    let lens: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
                    let min = lens.iter().min().unwrap();
                    let max = lens.iter().max().unwrap();
                    assert!(max - min <= 1);
                }
            }
        }
    }

    #[test]
    fn split_budget_sums_exactly_and_is_balanced() {
        for total in [0u64, 1, 7, 100, 1_000_003] {
            for parts in [1usize, 2, 3, 7, 16] {
                let shares = split_budget(Some(total), parts);
                assert_eq!(shares.len(), parts);
                let sum: u64 = shares.iter().map(|s| s.unwrap()).sum();
                assert_eq!(sum, total);
                let lens: Vec<u64> = shares.iter().map(|s| s.unwrap()).collect();
                let min = lens.iter().min().unwrap();
                let max = lens.iter().max().unwrap();
                assert!(max - min <= 1);
            }
        }
        assert_eq!(split_budget(None, 3), vec![None, None, None]);
        assert_eq!(split_budget(Some(5), 0), vec![Some(5)]);
    }

    #[test]
    fn num_threads_is_at_least_one() {
        assert!(num_threads() >= 1);
    }

    #[test]
    fn parse_threads_accepts_positive_integers_and_rejects_garbage() {
        assert_eq!(parse_threads(None), Ok(None));
        assert_eq!(parse_threads(Some("1")), Ok(Some(1)));
        assert_eq!(parse_threads(Some(" 8 ")), Ok(Some(8)));
        // Silent-fallback bug fix: these must surface as errors so
        // num_threads can warn instead of quietly ignoring the knob.
        assert_eq!(parse_threads(Some("0")), Err("0".to_string()));
        assert_eq!(parse_threads(Some("-2")), Err("-2".to_string()));
        assert_eq!(parse_threads(Some("four")), Err("four".to_string()));
        assert_eq!(parse_threads(Some("")), Err("".to_string()));
    }

    #[test]
    fn tasks_inherit_the_callers_causal_parent_for_any_worker_count() {
        for workers in [1usize, 4] {
            let rec = wsflow_obs::Recorder::new();
            let root_id;
            {
                let _obs = rec.install();
                let root = wsflow_obs::span("par.test_root");
                root_id = root.id();
                with_threads(workers, || {
                    parallel_map(8, |i| {
                        let _s = wsflow_obs::span_with("par.task_probe", i as u64);
                        i
                    })
                });
            }
            let spans = rec.spans();

            let probes: Vec<_> = spans
                .iter()
                .filter(|s| s.name == "par.task_probe")
                .collect();
            assert_eq!(probes.len(), 8, "workers={workers}");
            for s in probes {
                assert_eq!(
                    s.parent_id, root_id,
                    "task span must link to the calling span (workers={workers})"
                );
            }
            wsflow_obs::validate_spans(&spans).expect("well-formed tree");
        }
    }

    /// Record `with_threads(4, || parallel_map(64, …))` under a fresh
    /// recorder.
    fn recorded_fan_out() -> wsflow_obs::Snapshot {
        let rec = wsflow_obs::Recorder::new();
        let _obs = rec.install();
        let out = with_threads(4, || parallel_map(64, |i| i));
        assert_eq!(out.len(), 64);
        rec.snapshot()
    }

    #[test]
    fn parallel_map_flushes_worker_metrics_when_recorded() {
        let snap = recorded_fan_out();
        assert_eq!(snap.counter("par.jobs"), Some(1));
        assert_eq!(snap.counter("par.tasks"), Some(64));
        assert_eq!(snap.counter("par.worker_spawns"), Some(4));
        let h = snap.histogram("par.tasks_per_worker").unwrap();
        assert_eq!(h.count, 4);
        assert_eq!(h.sum, 64.0);
    }

    #[test]
    fn fan_out_metric_names_do_not_depend_on_scheduling() {
        let names = |snap: &wsflow_obs::Snapshot| {
            let counters = snap.counters.iter().map(|c| c.name.clone());
            let gauges = snap.gauges.iter().map(|g| g.name.clone());
            let hists = snap.histograms.iter().map(|h| h.name.clone());
            counters.chain(gauges).chain(hists).collect::<Vec<_>>()
        };
        let first = names(&recorded_fan_out());
        for run in 1..20 {
            assert_eq!(names(&recorded_fan_out()), first, "run {run}");
        }
    }

    #[test]
    fn workers_without_a_recorder_record_nothing() {
        let rec = wsflow_obs::Recorder::new();
        let _obs = rec.install();
        {
            let _off = wsflow_obs::Context::default().adopt();
            with_threads(4, || parallel_map(64, |i| i));
        }
        assert!(rec.snapshot().is_empty());
    }
}
