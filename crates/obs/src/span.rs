//! Lightweight timed spans, linked into a causal tree.
//!
//! A span measures one named scope with monotonic time:
//!
//! ```
//! {
//!     let _s = wsflow_obs::span("exhaustive.scan");
//!     // ... work ...
//! } // span completes here
//! ```
//!
//! or, via the convenience macro, `wsflow_obs::span_scope!("name");`.
//!
//! Every span carries a process-unique `span_id` and the `span_id` of
//! its causal parent (`0` for roots). Parents are tracked by a
//! thread-local stack: opening a span pushes its id, dropping it pops,
//! so nested scopes on one thread link up automatically. Work handed to
//! another thread keeps its causal parent through the
//! [`capture`](crate::capture) / [`adopt`](crate::Context::adopt) pair
//! that also carries the recorder (see `wsflow-par`). Zero-duration
//! marks — faults, incumbent updates — are recorded with [`instant`].
//!
//! Spans additionally carry a structural index `idx` (cluster number,
//! epoch number, member ordinal — `0` when there is only one): sibling
//! spans that may complete in any order under `WSFLOW_THREADS > 1` must
//! be distinguishable by `(name, idx)` so the trace exporter can sort
//! them canonically and emit byte-identical output for any worker
//! count.
//!
//! On a thread without a recorder the guard is inert and the drop is a
//! no-op — opening a span costs one thread-local load. Otherwise the
//! guard keeps the recorder it opened under, and completion buffers a
//! [`SpanEvent`] there (for the NDJSON exporter, the trace exporter,
//! and the manifest's per-phase table) and records the duration into
//! the `span.<name>.secs` histogram.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use serde::{Deserialize, Serialize};

use crate::Recorder;

/// Monotonic process epoch; all span timestamps are relative to the
/// first span opened in the process.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Small dense thread identifier (stable within the process; assigned
/// in first-use order). `std::thread::ThreadId` has no stable integer
/// accessor, so we mint our own. First-use order is scheduling
/// dependent, so raw ordinals are NOT comparable run-to-run — the trace
/// exporter densely remaps them by first appearance in canonical span
/// order before anything leaves the process.
fn thread_ordinal() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    thread_local! {
        static ORDINAL: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    ORDINAL.with(|o| *o)
}

/// Mint a process-unique span id. `0` is reserved for "no parent".
fn next_span_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

thread_local! {
    /// The open-span stack of this thread; the top is the causal parent
    /// of any span or instant opened next.
    static PARENT_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// The `span_id` that a span opened right now would get as its parent
/// (`0` when the stack is empty or the thread has no recorder).
pub(crate) fn current_parent() -> u64 {
    if !crate::enabled() {
        return 0;
    }
    PARENT_STACK.with(|s| s.borrow().last().copied().unwrap_or(0))
}

/// Swap this thread's open-span stack for `stack`, returning the old
/// one (entering and leaving a [`Context`](crate::Context)).
pub(crate) fn replace_stack(stack: Vec<u64>) -> Vec<u64> {
    PARENT_STACK.with(|s| s.replace(stack))
}

/// A completed span or instant, as buffered in the registry and
/// exported to NDJSON / trace JSON.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanEvent {
    /// Span name (dotted path, e.g. `phase.search`).
    pub name: String,
    /// Ordinal of the thread that ran the span (raw first-use order;
    /// remapped densely at export time).
    pub thread: u64,
    /// Process-unique span id (never `0`).
    pub span_id: u64,
    /// `span_id` of the causal parent, `0` for roots.
    pub parent_id: u64,
    /// Structural index distinguishing same-named siblings that may
    /// complete in any order (cluster number, epoch, member ordinal).
    pub idx: u64,
    /// Start time in microseconds since the process span epoch.
    pub start_us: u64,
    /// Duration in microseconds (always `0` for instants).
    pub dur_us: u64,
    /// `true` for zero-duration marks recorded via [`instant`].
    pub instant: bool,
}

impl SpanEvent {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        self.dur_us as f64 / 1e6
    }
}

/// RAII guard returned by [`span`]; completing (dropping) it records
/// the span into the recorder it was opened under. Inert when that
/// thread had no recorder.
#[derive(Debug)]
pub struct SpanGuard {
    open: Option<(Recorder, String)>,
    span_id: u64,
    parent_id: u64,
    idx: u64,
    start: Instant,
}

impl SpanGuard {
    /// The span's id, or `0` for an inert guard.
    pub fn id(&self) -> u64 {
        if self.open.is_some() {
            self.span_id
        } else {
            0
        }
    }
}

/// Open a timed span with structural index `0`. Returns an inert guard
/// on a thread without a recorder.
pub fn span(name: &str) -> SpanGuard {
    span_with(name, 0)
}

/// Open a timed span with an explicit structural index (cluster number,
/// epoch, member ordinal). Siblings that may complete in any order
/// under `WSFLOW_THREADS > 1` must carry distinct `(name, idx)` pairs —
/// that is what makes the canonical trace sort total.
pub fn span_with(name: &str, idx: u64) -> SpanGuard {
    let Some(recorder) = crate::recorder::current() else {
        // `start` is unused on the inert path; `Instant::now()` would
        // also be fine but a lazily-shared epoch avoids the syscall.
        return SpanGuard {
            open: None,
            span_id: 0,
            parent_id: 0,
            idx: 0,
            start: epoch(),
        };
    };
    let span_id = next_span_id();
    let parent_id = PARENT_STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied().unwrap_or(0);
        s.push(span_id);
        parent
    });
    SpanGuard {
        open: Some((recorder, name.to_string())),
        span_id,
        parent_id,
        idx,
        start: Instant::now(),
    }
}

/// Record a zero-duration mark (fault applied, incumbent improved)
/// under the current causal parent. No-op without a recorder.
pub fn instant(name: &str, idx: u64) {
    if !crate::enabled() {
        return;
    }
    let event = SpanEvent {
        name: name.to_string(),
        thread: thread_ordinal(),
        span_id: next_span_id(),
        parent_id: PARENT_STACK.with(|s| s.borrow().last().copied().unwrap_or(0)),
        idx,
        start_us: Instant::now().duration_since(epoch()).as_micros() as u64,
        dur_us: 0,
        instant: true,
    };
    crate::recorder::with_current(|r| r.push_span(event));
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some((recorder, name)) = self.open.take() else {
            return;
        };
        // Tolerant pop: truncate at our own frame rather than blindly
        // popping the top, so a guard dropped out of order never pops
        // someone else's frame.
        PARENT_STACK.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(pos) = s.iter().rposition(|&id| id == self.span_id) {
                s.truncate(pos);
            }
        });
        let start_us = self.start.duration_since(epoch()).as_micros() as u64;
        let dur_us = self.start.elapsed().as_micros() as u64;
        let event = SpanEvent {
            name,
            thread: thread_ordinal(),
            span_id: self.span_id,
            parent_id: self.parent_id,
            idx: self.idx,
            start_us,
            dur_us,
            instant: false,
        };
        let mut registry = recorder.lock();
        registry.observe(&format!("span.{}.secs", event.name), event.secs());
        registry.push_span(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_without_a_recorder_is_inert() {
        {
            let s = span("noop.scope");
            assert_eq!(s.id(), 0);
            assert_eq!(current_parent(), 0);
            instant("noop.mark", 0);
        }
        assert!(crate::registry::spans().is_empty());
        assert!(crate::registry::snapshot().is_empty());
    }

    #[test]
    fn recorded_span_records_event_and_histogram() {
        let rec = Recorder::new();
        {
            let _obs = rec.install();
            let s = span("unit.work");
            assert_ne!(s.id(), 0);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let spans = rec.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "unit.work");
        assert!(spans[0].span_id > 0);
        assert_eq!(spans[0].parent_id, 0);
        assert!(!spans[0].instant);
        assert!(spans[0].dur_us >= 1_000, "dur_us = {}", spans[0].dur_us);
        let snap = rec.snapshot();
        let h = snap.histogram("span.unit.work.secs").expect("histogram");
        assert_eq!(h.count, 1);
        assert!(h.max > 0.0);
    }

    #[test]
    fn nested_spans_link_parent_ids() {
        let rec = Recorder::new();
        {
            let _obs = rec.install();
            let outer = span("tree.outer");
            let outer_id = outer.id();
            assert_eq!(current_parent(), outer_id);
            {
                let inner = span_with("tree.inner", 3);
                assert_eq!(current_parent(), inner.id());
                instant("tree.mark", 7);
            }
            assert_eq!(current_parent(), outer_id);
        }
        let spans = rec.spans();

        // Completion order: mark (instant), inner, outer.
        assert_eq!(spans.len(), 3);
        let outer = spans.iter().find(|s| s.name == "tree.outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "tree.inner").unwrap();
        let mark = spans.iter().find(|s| s.name == "tree.mark").unwrap();
        assert_eq!(outer.parent_id, 0);
        assert_eq!(inner.parent_id, outer.span_id);
        assert_eq!(inner.idx, 3);
        assert_eq!(mark.parent_id, inner.span_id);
        assert_eq!(mark.idx, 7);
        assert!(mark.instant);
        assert_eq!(mark.dur_us, 0);
    }

    #[test]
    fn a_span_completes_into_the_recorder_it_opened_under() {
        let (first, second) = (Recorder::new(), Recorder::new());
        let guard = first.install();
        let s = span("late.close");
        drop(guard);
        let _second = second.install();
        drop(s);
        assert_eq!(first.spans().len(), 1);
        assert!(second.spans().is_empty());
    }
}
