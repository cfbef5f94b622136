//! RAII spans with hierarchical wall-clock timing.

use super::registry::{with_store, TRACE_EVENT_CAP};
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// One completed span, in Chrome `trace_event` "complete" (`ph: "X"`)
/// form. Timestamps are microseconds since process telemetry start.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Full dotted span path (`train.epoch.forward`).
    pub name: String,
    /// Start, µs since telemetry epoch.
    pub ts_us: u64,
    /// Duration, µs.
    pub dur_us: u64,
    /// Thread lane (stable small integer per thread).
    pub tid: u64,
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Microseconds since the process's telemetry epoch.
#[must_use]
pub fn now_us() -> u64 {
    epoch().elapsed().as_micros() as u64
}

fn thread_lane() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static LANE: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    LANE.with(|l| *l)
}

thread_local! {
    static SPAN_STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
    /// Reused buffer for the `span.<path>.us` key a dropped span records
    /// under, so a histogram hit allocates nothing.
    static SPAN_KEY: RefCell<String> = const { RefCell::new(String::new()) };
}

const KEY_PREFIX: &str = "span.";
const KEY_SUFFIX: &str = ".us";

/// Whether dropped spans also buffer a [`TraceEvent`] (see
/// [`capture_trace`]).
static CAPTURE: AtomicBool = AtomicBool::new(false);

/// Turns Chrome-trace buffering on or off, process-wide. Off by default:
/// every span still records its `span.<path>.us` histogram, but only a
/// process that will export a trace ([`take_trace_events`], `--trace`)
/// buffers an event per span. Without this gate a long `sia eval` or `sia
/// serve` grew by one buffered event (~100 bytes) per image until the
/// per-thread cap.
pub fn capture_trace(on: bool) {
    CAPTURE.store(on, Ordering::Relaxed);
}

/// Live RAII guard returned by [`crate::span!`]. Dropping it records the
/// elapsed time under `span.<dotted.path>` (µs histogram) and, while
/// [`capture_trace`] is on, buffers a [`TraceEvent`].
#[derive(Debug)]
pub struct SpanGuard {
    start: Instant,
    start_us: u64,
}

/// Opens a span. Prefer the [`crate::span!`] macro.
#[must_use]
pub fn span_guard(name: &'static str) -> SpanGuard {
    let start_us = now_us();
    SPAN_STACK.with(|stack| stack.borrow_mut().push(name));
    SpanGuard {
        start: Instant::now(),
        start_us,
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let dur_us = self.start.elapsed().as_micros() as u64;
        let tid = thread_lane();
        let capture = CAPTURE.load(Ordering::Relaxed);
        SPAN_KEY.with(|key| {
            let mut key = key.borrow_mut();
            key.clear();
            key.push_str(KEY_PREFIX);
            SPAN_STACK.with(|stack| {
                let mut stack = stack.borrow_mut();
                for (i, name) in stack.iter().enumerate() {
                    if i > 0 {
                        key.push('.');
                    }
                    key.push_str(name);
                }
                stack.pop();
            });
            key.push_str(KEY_SUFFIX);
            with_store(|s| {
                s.record_histogram(&key, dur_us);
                if !capture {
                    return;
                }
                if s.trace_events.len() < TRACE_EVENT_CAP {
                    s.trace_events.push(TraceEvent {
                        name: key[KEY_PREFIX.len()..key.len() - KEY_SUFFIX.len()].to_string(),
                        ts_us: self.start_us,
                        dur_us,
                        tid,
                    });
                } else {
                    s.dropped_trace_events += 1;
                }
            });
        });
    }
}

/// Drains the calling thread's buffered trace events. Empty unless
/// [`capture_trace`] was on while the spans were dropped.
#[must_use]
pub fn take_trace_events() -> Vec<TraceEvent> {
    with_store(|s| std::mem::take(&mut s.trace_events))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enabled::registry::{reset, snapshot};

    #[test]
    fn nested_spans_record_dotted_paths() {
        reset();
        // Trace buffering is opt-in (and process-wide, so only this test
        // switches it): uncaptured spans record their histogram only.
        capture_trace(false);
        {
            let _g = span_guard("uncaptured");
        }
        assert!(take_trace_events().is_empty());
        assert!(snapshot().histograms.contains_key("span.uncaptured.us"));
        capture_trace(true);
        {
            let _outer = span_guard("outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = span_guard("inner");
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
        let snap = snapshot();
        assert!(snap.histograms.contains_key("span.outer.us"), "{snap:?}");
        assert!(snap.histograms.contains_key("span.outer.inner.us"));
        let outer = &snap.histograms["span.outer.us"];
        let inner = &snap.histograms["span.outer.inner.us"];
        assert_eq!(outer.count, 1);
        assert_eq!(inner.count, 1);
        assert!(
            outer.sum >= inner.sum,
            "outer {} < inner {}",
            outer.sum,
            inner.sum
        );
        let events = take_trace_events();
        assert_eq!(events.len(), 2);
        // inner drops first
        assert_eq!(events[0].name, "outer.inner");
        assert_eq!(events[1].name, "outer");
        assert!(events[1].ts_us <= events[0].ts_us);
    }

    #[test]
    fn sibling_spans_do_not_nest() {
        reset();
        {
            let _a = span_guard("a");
        }
        {
            let _b = span_guard("b");
        }
        let snap = snapshot();
        assert!(snap.histograms.contains_key("span.a.us"));
        assert!(snap.histograms.contains_key("span.b.us"));
        assert!(!snap.histograms.keys().any(|k| k.contains("a.b")));
        let _ = take_trace_events();
    }
}
