//! One-shot configuration warnings.
//!
//! Misconfiguration (an unparsable `JUCQ_SLOW_MS`, say) should be
//! surfaced exactly once per process, not once per query, and should
//! leave a trace in the metrics registry so headless runs can detect it
//! after the fact. [`warn_once`] does both: the first call under a given
//! key prints the message to stderr and every call bumps the key's
//! counter (counters respect the global enable switch; the stderr line
//! does not, because a user who never turns on observability still
//! deserves to hear their env var was ignored).

use std::collections::BTreeSet;
use std::sync::Mutex;

static EMITTED: Mutex<BTreeSet<&'static str>> = Mutex::new(BTreeSet::new());

/// Emit `msg` to stderr the first time `key` is seen in this process and
/// bump the counter `key` (when observability is enabled). Returns
/// whether the message was printed by this call.
pub fn warn_once(key: &'static str, msg: &str) -> bool {
    crate::metrics::counter_add(key, 1);
    let mut emitted = EMITTED.lock().unwrap_or_else(|e| e.into_inner());
    if emitted.insert(key) {
        eprintln!("jucq: warning: {msg}");
        true
    } else {
        false
    }
}

/// Whether `key` has already produced its stderr line.
pub fn warned(key: &'static str) -> bool {
    EMITTED.lock().unwrap_or_else(|e| e.into_inner()).contains(key)
}

/// Forget all emitted keys (tests only — warnings are per-process).
pub fn reset_for_test() {
    EMITTED.lock().unwrap_or_else(|e| e.into_inner()).clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_exactly_once_per_key_across_threads() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::{Arc, Barrier};
        let _serial = crate::test_lock();
        reset_for_test();
        let printed = Arc::new(AtomicUsize::new(0));
        let barrier = Arc::new(Barrier::new(8));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let printed = Arc::clone(&printed);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    for _ in 0..100 {
                        if warn_once("warn.cross_thread_key", "raced") {
                            printed.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("warn thread");
        }
        assert_eq!(printed.load(Ordering::Relaxed), 1, "exactly one thread printed");
        assert!(warned("warn.cross_thread_key"));
        reset_for_test();
    }

    #[test]
    fn warns_exactly_once_per_key_and_counts_every_call() {
        let _serial = crate::test_lock();
        reset_for_test();
        crate::metrics::global().reset();
        crate::set_enabled(true);
        assert!(!warned("warn.test_key"));
        assert!(warn_once("warn.test_key", "first"));
        assert!(!warn_once("warn.test_key", "second"));
        assert!(warned("warn.test_key"));
        crate::set_enabled(false);
        assert_eq!(crate::metrics::global().snapshot().counter("warn.test_key"), 2);
        crate::metrics::global().reset();
        reset_for_test();
    }
}
