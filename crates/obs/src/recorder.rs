//! Run-scoped recording: the [`Recorder`] a thread records into, and
//! the [`Context`] that carries it into spawned threads (see the crate
//! docs).

use std::cell::{Cell, RefCell};
use std::marker::PhantomData;
use std::sync::{Arc, Mutex, MutexGuard};

use crate::registry::{Registry, Snapshot};
use crate::span::{self, SpanEvent};

/// A cloneable handle to one metric registry and span buffer. Clones
/// share the registry.
#[derive(Clone, Debug, Default)]
pub struct Recorder(Arc<Mutex<Registry>>);

thread_local! {
    /// Whether [`CURRENT`] holds a recorder: a plain flag, so a thread
    /// that never records never touches a thread-local with a destructor.
    static ON: Cell<bool> = const { Cell::new(false) };
    /// The recorder this thread records into.
    static CURRENT: RefCell<Option<Recorder>> = const { RefCell::new(None) };
    /// The recorder [`set_enabled`] switches on and off.
    static HELD: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

impl Recorder {
    /// A recorder with an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Make this recorder current on the calling thread, with no open
    /// span, until the guard drops; the previous recorder and span
    /// stack come back then.
    pub fn install(&self) -> ContextGuard {
        enter(Some(self.clone()), 0)
    }

    /// Copy of the recorded metrics, name-sorted.
    pub fn snapshot(&self) -> Snapshot {
        self.lock().snapshot()
    }

    /// Completed spans recorded so far, in completion order.
    pub fn spans(&self) -> Vec<SpanEvent> {
        self.lock().spans.clone()
    }

    /// Add the metrics `self` recorded to the calling thread's current
    /// recorder (another one): counters and histograms accumulate,
    /// gauges are taken over. No-op when the thread has none.
    pub fn merge_into_current(&self) {
        let from = self.lock().clone();
        with_current(|target| target.merge(from));
    }

    pub(crate) fn lock(&self) -> MutexGuard<'_, Registry> {
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// `true` if the calling thread has a recorder: one thread-local load.
#[inline]
pub fn enabled() -> bool {
    ON.with(Cell::get)
}

/// Run `f` on the current recorder's registry, if the thread has one.
#[inline]
pub(crate) fn with_current(f: impl FnOnce(&mut Registry)) {
    if let Some(rec) = current() {
        f(&mut rec.lock());
    }
}

/// The calling thread's recorder.
pub(crate) fn current() -> Option<Recorder> {
    enabled()
        .then(|| CURRENT.with(|c| c.borrow().clone()))
        .flatten()
}

/// Make `recorder` the thread's current one; returns the previous.
fn set_current(recorder: Option<Recorder>) -> Option<Recorder> {
    ON.with(|on| on.set(recorder.is_some()));
    CURRENT.with(|c| c.replace(recorder))
}

/// The recorder the read-side free functions report on: the current
/// one, else the one [`set_enabled`] holds for this thread.
pub(crate) fn current_or_held() -> Option<Recorder> {
    current().or_else(|| HELD.with(|h| h.borrow().clone()))
}

/// What a spawned thread needs to record as if it were its spawner:
/// the recorder and the causal parent of the spans it opens.
#[derive(Debug, Clone, Default)]
pub struct Context {
    recorder: Option<Recorder>,
    parent: u64,
}

/// The calling thread's [`Context`]: its recorder (if any) and its
/// innermost open span. Capture before spawning; [`Context::adopt`] in
/// the spawned thread.
pub fn capture() -> Context {
    Context {
        recorder: current(),
        parent: span::current_parent(),
    }
}

impl Context {
    /// Record into the captured recorder, under the captured span,
    /// until the guard drops.
    pub fn adopt(&self) -> ContextGuard {
        enter(self.recorder.clone(), self.parent)
    }
}

/// Restores the thread's previous recorder and open-span stack when
/// dropped. Returned by [`Recorder::install`] and [`Context::adopt`];
/// it stays on the thread that made it.
#[derive(Debug)]
#[must_use = "the context is restored when the guard drops"]
pub struct ContextGuard {
    /// The recorder and open-span stack to restore; `None` when entering
    /// changed nothing (no recorder before, none adopted).
    saved: Option<(Option<Recorder>, Vec<u64>)>,
    _thread_bound: PhantomData<*const ()>,
}

fn enter(recorder: Option<Recorder>, parent: u64) -> ContextGuard {
    let saved = (recorder.is_some() || enabled()).then(|| {
        let stack = (parent != 0).then_some(parent).into_iter().collect();
        (set_current(recorder), span::replace_stack(stack))
    });
    ContextGuard {
        saved,
        _thread_bound: PhantomData,
    }
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        if let Some((recorder, stack)) = self.saved.take() {
            set_current(recorder);
            span::replace_stack(stack);
        }
    }
}

/// Switch recording on or off for the calling thread, into a recorder
/// the thread holds for this purpose; [`reset`] clears it, and the free
/// [`snapshot`](crate::snapshot) and [`spans`](crate::spans) read it
/// while no other recorder is installed.
///
/// A shim for callers written against the old process-wide switch:
/// `svcbench`'s traced replay (`svcbench/src/replay.rs`) calls it and
/// [`reset`]. Both go when the svcbench re-baseline in ROADMAP.md moves
/// that replay onto [`Recorder`]. New code installs a [`Recorder`].
#[doc(hidden)]
pub fn set_enabled(on: bool) {
    let held = || HELD.with(|h| h.borrow_mut().get_or_insert_with(Recorder::new).clone());
    set_current(on.then(held));
}

/// Clear the recorder [`snapshot`](crate::snapshot) would read: the
/// [`set_enabled`] shim's companion.
#[doc(hidden)]
pub fn reset() {
    if let Some(rec) = current_or_held() {
        *rec.lock() = Registry::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{counter_add, snapshot, span};

    #[test]
    fn install_scopes_recording_to_the_guard() {
        assert!(!enabled());
        let rec = Recorder::new();
        {
            let _obs = rec.install();
            assert!(enabled());
            counter_add("x.inside", 2);
            assert_eq!(snapshot().counter("x.inside"), Some(2));
        }
        assert!(!enabled());
        counter_add("x.outside", 1);
        assert!(snapshot().is_empty());
        assert_eq!(rec.snapshot().counter("x.inside"), Some(2));
        assert_eq!(rec.snapshot().counter("x.outside"), None);
    }

    #[test]
    fn nested_installs_restore_the_outer_recorder() {
        let (outer, inner) = (Recorder::new(), Recorder::new());
        let _o = outer.install();
        {
            let _i = inner.install();
            counter_add("x.n", 1);
        }
        counter_add("x.n", 10);
        assert_eq!(inner.snapshot().counter("x.n"), Some(1));
        assert_eq!(outer.snapshot().counter("x.n"), Some(10));
    }

    #[test]
    fn adopted_context_records_into_the_spawners_recorder() {
        let rec = Recorder::new();
        let _obs = rec.install();
        let root = span("xthread.root");
        let ctx = capture();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                assert!(!enabled(), "a fresh thread has no recorder");
                let _adopt = ctx.adopt();
                counter_add("x.worker", 1);
                let _child = crate::span_with("xthread.child", 1);
            });
            scope.spawn(|| counter_add("x.unadopted", 1));
        });
        let root_id = root.id();
        drop(root);
        let spans = rec.spans();
        let child = spans.iter().find(|s| s.name == "xthread.child").unwrap();
        assert_eq!(child.parent_id, root_id);
        let snap = rec.snapshot();
        assert_eq!(snap.counter("x.worker"), Some(1));
        assert_eq!(snap.counter("x.unadopted"), None);
    }

    #[test]
    fn concurrent_recorders_do_not_mix() {
        let recs: Vec<Recorder> = (0..4).map(|_| Recorder::new()).collect();
        std::thread::scope(|scope| {
            for (i, rec) in recs.iter().enumerate() {
                scope.spawn(move || {
                    let _obs = rec.install();
                    for _ in 0..100 {
                        counter_add("x.hits", i as u64 + 1);
                    }
                });
            }
        });
        for (i, rec) in recs.iter().enumerate() {
            assert_eq!(rec.snapshot().counter("x.hits"), Some(100 * (i as u64 + 1)));
        }
    }

    #[test]
    fn merge_into_current_accumulates() {
        let (outer, inner) = (Recorder::new(), Recorder::new());
        let _o = outer.install();
        counter_add("x.c", 1);
        crate::observe("x.h", 1.0);
        {
            let _i = inner.install();
            counter_add("x.c", 2);
            crate::observe("x.h", 2.0);
            crate::gauge_set("x.g", 3.0);
            drop(span("x.s"));
        }
        inner.merge_into_current();
        inner.merge_into_current();
        let snap = outer.snapshot();
        assert_eq!(snap.counter("x.c"), Some(5));
        assert_eq!(snap.histogram("x.h").unwrap().count, 3);
        assert_eq!(snap.gauge("x.g"), Some(3.0));
        assert!(outer.spans().is_empty(), "spans stay with their run");
    }

    #[test]
    fn the_switch_shim_holds_one_recorder_per_thread() {
        set_enabled(true);
        counter_add("x.on", 1);
        set_enabled(false);
        counter_add("x.off", 1);
        assert!(!enabled());
        assert_eq!(snapshot().counter("x.on"), Some(1));
        assert_eq!(snapshot().counter("x.off"), None);
        reset();
        assert!(snapshot().is_empty());
        std::thread::spawn(|| assert!(!enabled())).join().unwrap();
    }
}
