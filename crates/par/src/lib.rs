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
//! The worker count is chosen by [`num_threads`]: the `WSFLOW_THREADS`
//! environment variable if set (a value of `1` forces fully sequential
//! in-place execution — useful for debugging and for establishing
//! baseline timings), otherwise [`std::thread::available_parallelism`].

use std::sync::atomic::{AtomicUsize, Ordering};

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

/// Worker count: `WSFLOW_THREADS` if set and valid, else the machine's
/// available parallelism, else 1. An unparseable `WSFLOW_THREADS`
/// triggers a one-time stderr warning (via the shared
/// [`wsflow_obs::env_knob`] machinery every `WSFLOW_*` knob uses) rather
/// than a silent fallback.
pub fn num_threads() -> usize {
    if let Some(n) = wsflow_obs::env_positive_usize("WSFLOW_THREADS") {
        return n;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
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
    parallel_map_with(n, num_threads(), f)
}

/// [`parallel_map`] with an explicit worker count (mainly for tests that
/// must compare specific thread counts).
pub fn parallel_map_with<T, F>(n: usize, workers: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = workers.clamp(1, n.max(1));
    if workers <= 1 || n <= 1 {
        if wsflow_obs::enabled() {
            wsflow_obs::counter_add("par.jobs", 1);
            wsflow_obs::counter_add("par.sequential_jobs", 1);
            wsflow_obs::counter_add("par.tasks", n as u64);
        }
        return (0..n).map(f).collect();
    }

    let next = AtomicUsize::new(0);
    // Causal trace propagation: tasks spawned here are children of
    // whatever span is open on the calling thread, even though they run
    // elsewhere. Capturing the parent is a no-op when obs is off.
    let parent = wsflow_obs::current_parent();
    let mut collected: Vec<Vec<(usize, T)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let _causal = wsflow_obs::adopt_parent(parent);
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
        // Per-worker task counts come free from the fan-in buffers; the
        // max-min spread is the steal balance achieved by the shared
        // counter (0 = perfectly even).
        let mut per_worker = wsflow_obs::LocalHistogram::new();
        let (mut min_tasks, mut max_tasks) = (u64::MAX, 0u64);
        for local in &collected {
            let t = local.len() as u64;
            per_worker.record(t as f64);
            min_tasks = min_tasks.min(t);
            max_tasks = max_tasks.max(t);
        }
        wsflow_obs::merge_histogram("par.tasks_per_worker", &per_worker);
        wsflow_obs::counter_add("par.steal_imbalance", max_tasks - min_tasks);
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

/// Run one closure per worker (`0..workers`) on scoped threads and
/// return their results in worker order. The closures share state via
/// the environment (e.g. an atomic incumbent bound); this is the
/// building block for parallel branch-and-bound.
///
/// With `workers == 1` the single closure runs on the calling thread.
pub fn run_workers<T, F>(workers: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = workers.max(1);
    if workers == 1 {
        return vec![f(0)];
    }
    let f = &f;
    let parent = wsflow_obs::current_parent();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                scope.spawn(move || {
                    let _causal = wsflow_obs::adopt_parent(parent);
                    f(w)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    })
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
            let out = parallel_map_with(100, workers, |i| i * i);
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn parallel_map_empty_and_single() {
        assert_eq!(parallel_map_with(0, 4, |i| i), Vec::<usize>::new());
        assert_eq!(parallel_map_with(1, 4, |i| i + 7), vec![7]);
    }

    #[test]
    fn run_workers_returns_in_worker_order() {
        let out = run_workers(4, |w| w * 10);
        assert_eq!(out, vec![0, 10, 20, 30]);
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
        let _guard = wsflow_obs::registry::test_lock();
        for workers in [1usize, 4] {
            wsflow_obs::set_enabled(true);
            wsflow_obs::reset();
            let root_id;
            {
                let root = wsflow_obs::span("par.test_root");
                root_id = root.id();
                parallel_map_with(8, workers, |i| {
                    let _s = wsflow_obs::span_with("par.task_probe", i as u64);
                    i
                });
            }
            let spans = wsflow_obs::registry::spans();
            wsflow_obs::set_enabled(false);
            wsflow_obs::reset();

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
}
