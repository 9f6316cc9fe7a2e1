//! End-to-end observability for the JUCQ pipeline.
//!
//! Three pieces, all zero-dependency and disabled by default:
//!
//! - [`span`] / [`span!`]: lightweight scoped timers with parent/child
//!   nesting, collected into a bounded global buffer. Instrumentation
//!   sites cost one relaxed atomic load when observability is off.
//! - [`Registry`]: a process-global metrics registry of counters,
//!   gauges, and log-bucketed histograms under dotted names
//!   (`plan_cache.hits`, `exec.tuples_scanned`, ...).
//! - [`export`]: text and JSON renderings of the collected spans and
//!   metrics, shared by the CLI and the bench harness.
//! - [`record`]: the structured query log — one [`record::QueryRecord`]
//!   per answered query, appended as JSONL to a ring-buffered sink
//!   (`JUCQ_QUERY_LOG` / `--query-log`), the input of `jucq replay`.
//! - [`trace_export`]: Chrome-trace-event (catapult JSON) rendering of
//!   a span session, for Perfetto / `about://tracing` (`--trace-out`).
//! - [`json`]: the matching zero-dependency JSON reader, shared by the
//!   query-log parser and the replay harness.
//!
//! The master switch is [`set_enabled`]; [`take_session`] drains
//! everything collected so far (spans, metrics, drop counts) into an
//! [`ObsSession`] ready for export. The query-log sink is independent
//! of the switch: installing it is its own opt-in.

pub mod export;
pub mod json;
pub mod metrics;
pub mod record;
pub mod span;
pub mod trace_export;
pub mod warn;

pub use metrics::{global, HistogramSnapshot, MetricsSnapshot, Registry};
pub use record::{NodeRecord, QueryLogConfig, QueryRecord, RecordCounters};
pub use span::{span, SpanGuard, SpanRecord};
pub use trace_export::to_chrome_trace;
pub use warn::warn_once;

use std::sync::atomic::{AtomicBool, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turn collection on or off process-wide. Off (the default) reduces
/// every instrumentation site to one relaxed atomic load.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether collection is currently on.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Everything collected over an observed run, ready for export.
#[derive(Debug, Clone)]
pub struct ObsSession {
    /// Completed spans in end order (children precede parents).
    pub spans: Vec<SpanRecord>,
    /// Spans discarded because the collector buffer was full.
    pub dropped_spans: u64,
    /// Counter/gauge/histogram state at drain time.
    pub metrics: MetricsSnapshot,
}

/// Drain all collected spans and snapshot the metrics registry.
///
/// Metrics are left in place (they are cumulative); spans are removed.
pub fn take_session() -> ObsSession {
    let (spans, dropped_spans) = span::drain();
    ObsSession { spans, dropped_spans, metrics: global().snapshot() }
}

/// Reset all observability state: spans, drop counts, and metrics.
pub fn reset() {
    span::drain();
    global().reset();
}

/// Serializes tests that poke the process-global collector state.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_by_default_and_round_trips() {
        let _serial = crate::test_lock();
        assert!(!enabled());
        {
            let _g = span("ignored_while_off");
        }
        let (spans, _) = span::drain();
        assert!(spans.iter().all(|s| s.name != "ignored_while_off"));

        set_enabled(true);
        {
            let _outer = span("outer");
            let _inner = span("inner");
        }
        set_enabled(false);
        let (spans, dropped) = span::drain();
        assert_eq!(dropped, 0);
        let inner = spans.iter().find(|s| s.name == "inner").expect("inner span");
        let outer = spans.iter().find(|s| s.name == "outer").expect("outer span");
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.parent, None);
        assert!(inner.dur_ns <= outer.dur_ns + 1_000_000);
    }
}
