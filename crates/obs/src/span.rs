//! Scoped span tracing with parent/child nesting.
//!
//! A span is opened with [`span`] (or the [`span!`] statement macro)
//! and closes when its guard drops. Open spans form a per-thread stack,
//! so nesting is tracked without any caller bookkeeping; completed
//! spans land in a bounded process-global buffer in end order.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Cap on buffered spans; beyond this, spans are counted as dropped
/// rather than growing memory without bound.
const MAX_BUFFERED_SPANS: usize = 65_536;

/// One completed span.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Unique id (process-wide, monotonically assigned at open).
    pub id: u64,
    /// Id of the enclosing span on the same thread, if any.
    pub parent: Option<u64>,
    /// Static site name, e.g. `"cover_search"`.
    pub name: &'static str,
    /// Nanoseconds from process trace epoch to span open.
    pub start_ns: u64,
    /// Span duration in nanoseconds.
    pub dur_ns: u64,
    /// Opening thread, as a small dense index.
    pub thread: u64,
}

struct Collector {
    spans: Mutex<Vec<SpanRecord>>,
    dropped: AtomicU64,
    next_id: AtomicU64,
    next_thread: AtomicU64,
    epoch: Instant,
}

fn collector() -> &'static Collector {
    static COLLECTOR: OnceLock<Collector> = OnceLock::new();
    COLLECTOR.get_or_init(|| Collector {
        spans: Mutex::new(Vec::new()),
        dropped: AtomicU64::new(0),
        next_id: AtomicU64::new(1),
        next_thread: AtomicU64::new(1),
        epoch: Instant::now(),
    })
}

thread_local! {
    /// Stack of open span ids on this thread.
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    /// Dense per-thread index, assigned on first span.
    static THREAD_IX: RefCell<Option<u64>> = const { RefCell::new(None) };
}

fn thread_index(c: &Collector) -> u64 {
    THREAD_IX.with(|ix| {
        *ix.borrow_mut().get_or_insert_with(|| c.next_thread.fetch_add(1, Ordering::Relaxed))
    })
}

struct ActiveSpan {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    start: Instant,
    thread: u64,
}

/// RAII guard returned by [`span`]; records the span when dropped.
/// A no-op (and nearly free) while observability is disabled.
pub struct SpanGuard {
    active: Option<ActiveSpan>,
}

/// Open a span named `name`, closing it when the guard drops.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !crate::enabled() {
        return SpanGuard { active: None };
    }
    let c = collector();
    let id = c.next_id.fetch_add(1, Ordering::Relaxed);
    let parent = OPEN.with(|open| {
        let mut open = open.borrow_mut();
        let parent = open.last().copied();
        open.push(id);
        parent
    });
    SpanGuard {
        active: Some(ActiveSpan {
            id,
            parent,
            name,
            start: Instant::now(),
            thread: thread_index(c),
        }),
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(active) = self.active.take() else { return };
        let dur_ns = active.start.elapsed().as_nanos() as u64;
        let c = collector();
        OPEN.with(|open| {
            let mut open = open.borrow_mut();
            // Guards drop in LIFO order in ordinary code; be tolerant of
            // exotic drop orders by removing wherever the id sits.
            if let Some(pos) = open.iter().rposition(|&id| id == active.id) {
                open.remove(pos);
            }
        });
        let start_ns = active.start.duration_since(c.epoch).as_nanos() as u64;
        let mut spans = c.spans.lock().expect("span buffer poisoned");
        if spans.len() >= MAX_BUFFERED_SPANS {
            c.dropped.fetch_add(1, Ordering::Relaxed);
        } else {
            spans.push(SpanRecord {
                id: active.id,
                parent: active.parent,
                name: active.name,
                start_ns,
                dur_ns,
                thread: active.thread,
            });
        }
    }
}

/// Drain all completed spans, returning them with the drop count
/// (which is reset alongside the buffer).
pub fn drain() -> (Vec<SpanRecord>, u64) {
    let c = collector();
    let spans = std::mem::take(&mut *c.spans.lock().expect("span buffer poisoned"));
    let dropped = c.dropped.swap(0, Ordering::Relaxed);
    (spans, dropped)
}

/// Open a span for the rest of the enclosing scope:
/// `jucq_obs::span!("cover_search");`.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        let _jucq_obs_span_guard = $crate::span($name);
    };
}

#[cfg(test)]
mod tests {
    // Cross-thread behaviour is covered here; single-thread nesting is
    // covered in the crate-root test (global state, one test per file).
    #[test]
    fn thread_indices_are_distinct() {
        let _serial = crate::test_lock();
        crate::set_enabled(true);
        let h = std::thread::spawn(|| {
            let _g = crate::span("worker_side");
        });
        {
            let _g = crate::span("main_side");
        }
        h.join().expect("worker thread");
        crate::set_enabled(false);
        let (spans, _) = super::drain();
        let worker = spans.iter().find(|s| s.name == "worker_side");
        let main = spans.iter().find(|s| s.name == "main_side");
        if let (Some(w), Some(m)) = (worker, main) {
            assert_ne!(w.thread, m.thread);
            assert_eq!(w.parent, None);
            assert_eq!(m.parent, None);
        }
    }
}
