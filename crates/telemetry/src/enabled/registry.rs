//! The thread-safe metrics registry.
//!
//! Each thread owns an uncontended `Mutex<Store>` (fast path: one lock of a
//! lock nobody else holds); a global roster keeps a handle to every
//! thread's store so [`global_snapshot`] can merge them. The roster holds
//! stores *strongly* — a store outlives its thread — because the pool
//! workers of `sia_tensor::pool` are short-lived scoped threads: counters
//! they record (e.g. the accelerator's `accel.*` accounting under
//! `sia eval --threads N`) must still be visible to a whole-process
//! snapshot taken after the parallel region ends, or the `sia report`
//! reconciliation identity would silently lose their contribution. Each
//! store is small (the trace buffer is capped per thread), so the
//! process-lifetime accumulation is bounded by total threads ever started.
//! Per-thread isolation makes metrics assertions reliable under parallel
//! `cargo test`.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Number of log2 histogram buckets: bucket `i` counts samples `v` with
/// `bit_length(v) == i`, i.e. bucket 0 holds `v == 0`, bucket 1 holds `1`,
/// bucket 2 holds `2..=3`, bucket 11 holds `1024..=2047`, …
pub const HISTOGRAM_BUCKETS: usize = 65;

#[derive(Clone, Debug, Default)]
pub(crate) struct Histogram {
    pub buckets: Vec<u64>,
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
}

impl Histogram {
    pub(crate) fn record(&mut self, value: u64) {
        if self.buckets.is_empty() {
            self.buckets = vec![0; HISTOGRAM_BUCKETS];
            self.min = u64::MAX;
        }
        let bucket = (64 - value.leading_zeros()) as usize;
        self.buckets[bucket] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.buckets.is_empty() {
            self.buckets = vec![0; HISTOGRAM_BUCKETS];
            self.min = u64::MAX;
        }
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[derive(Debug, Default)]
pub(crate) struct Store {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, f64>,
    pub histograms: BTreeMap<String, Histogram>,
    pub trace_events: Vec<crate::enabled::span::TraceEvent>,
    pub dropped_trace_events: u64,
}

/// Cap on buffered Chrome-trace events per thread (~6 MB worst case).
pub(crate) const TRACE_EVENT_CAP: usize = 100_000;

fn roster() -> &'static Mutex<Vec<Arc<Mutex<Store>>>> {
    static ROSTER: OnceLock<Mutex<Vec<Arc<Mutex<Store>>>>> = OnceLock::new();
    ROSTER.get_or_init(|| Mutex::new(Vec::new())) // concurrency-allow: telemetry's own real lock, invisible to sia-sched
}

thread_local! {
    static LOCAL: Arc<Mutex<Store>> = {
        let store = Arc::new(Mutex::new(Store::default())); // concurrency-allow: telemetry's own real lock, invisible to sia-sched
        let mut roster = roster().lock().expect("telemetry roster poisoned");
        roster.push(Arc::clone(&store));
        store
    };
}

pub(crate) fn with_store<R>(f: impl FnOnce(&mut Store) -> R) -> R {
    LOCAL.with(|store| f(&mut store.lock().expect("telemetry store poisoned")))
}

// Each probe looks its key up by `&str` and copies it to the heap only on
// the first insert, so a hit allocates nothing.

/// Adds `delta` to the named counter.
pub fn counter_add(name: &str, delta: u64) {
    with_store(|s| match s.counters.get_mut(name) {
        Some(c) => *c += delta,
        None => {
            s.counters.insert(name.to_string(), delta);
        }
    });
}

/// Sets the named gauge (last write wins).
pub fn gauge_set(name: &str, value: f64) {
    with_store(|s| match s.gauges.get_mut(name) {
        Some(g) => *g = value,
        None => {
            s.gauges.insert(name.to_string(), value);
        }
    });
}

/// Records one sample into the named log2-bucketed histogram.
pub fn histogram_record(name: &str, value: u64) {
    with_store(|s| s.record_histogram(name, value));
}

impl Store {
    /// Records `value` into histogram `name`, inserting it on first use.
    pub(crate) fn record_histogram(&mut self, name: &str, value: u64) {
        match self.histograms.get_mut(name) {
            Some(h) => h.record(value),
            None => {
                let mut h = Histogram::default();
                h.record(value);
                self.histograms.insert(name.to_string(), h);
            }
        }
    }
}

/// Aggregated view of one histogram.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSummary {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples (saturating).
    pub sum: u64,
    /// Smallest sample.
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Log2 bucket counts; bucket `i` counts samples with bit-length `i`.
    pub buckets: Vec<u64>,
}

impl HistogramSummary {
    /// Mean sample value (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimated value at quantile `q ∈ [0, 1]`. The bucket holding the
    /// rank-`⌈q·count⌉` sample is located by cumulative count, the value is
    /// linearly interpolated across the bucket's `[2^(i−1), 2^i − 1]` span,
    /// and the result is clamped to the observed `[min, max]`. Exact for
    /// the single-valued buckets (0 and 1); within the 2× bucket width
    /// otherwise. Returns 0 when the histogram is empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if seen + n >= target {
                let lo = if i == 0 { 0u64 } else { 1u64 << (i - 1) };
                let hi = if i == 0 {
                    0u64
                } else if i >= 64 {
                    u64::MAX
                } else {
                    (1u64 << i) - 1
                };
                let frac = (target - seen) as f64 / n as f64;
                let v = lo as f64 + frac * (hi - lo) as f64;
                return (v.round() as u64).clamp(self.min, self.max);
            }
            seen += n;
        }
        self.max
    }

    /// Median estimate ([`Self::quantile`] at 0.50).
    #[must_use]
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th-percentile estimate.
    #[must_use]
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th-percentile estimate.
    #[must_use]
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

/// A point-in-time copy of a registry's metrics.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram summaries by name.
    pub histograms: BTreeMap<String, HistogramSummary>,
}

impl Snapshot {
    /// Counter value, 0 when absent.
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge value, if set.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    fn merge(&mut self, store: &Store) {
        for (k, v) in &store.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &store.gauges {
            self.gauges.insert(k.clone(), *v);
        }
        for (k, h) in &store.histograms {
            let entry = self
                .histograms
                .entry(k.clone())
                .or_insert_with(|| HistogramSummary {
                    count: 0,
                    sum: 0,
                    min: u64::MAX,
                    max: 0,
                    buckets: vec![0; HISTOGRAM_BUCKETS],
                });
            let mut merged = Histogram {
                buckets: entry.buckets.clone(),
                count: entry.count,
                sum: entry.sum,
                min: entry.min,
                max: entry.max,
            };
            merged.merge(h);
            *entry = HistogramSummary {
                count: merged.count,
                sum: merged.sum,
                min: merged.min,
                max: merged.max,
                buckets: merged.buckets,
            };
        }
    }
}

/// Snapshot of the **calling thread's** metrics (isolated; what tests use).
#[must_use]
pub fn snapshot() -> Snapshot {
    with_store(|s| {
        let mut snap = Snapshot::default();
        snap.merge(s);
        snap
    })
}

/// Snapshot merged across **every thread that ever recorded** — including
/// pool workers that have since exited (what whole-process reports and the
/// `sia report` reconciliation rely on).
#[must_use]
pub fn global_snapshot() -> Snapshot {
    let mut snap = Snapshot::default();
    let roster = roster().lock().expect("telemetry roster poisoned");
    for store in roster.iter() {
        snap.merge(&store.lock().expect("telemetry store poisoned"));
    }
    snap
}

/// Clears the calling thread's metrics and trace buffer.
pub fn reset() {
    with_store(|s| *s = Store::default());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot_reads_them() {
        reset();
        counter_add("t.a", 3);
        counter_add("t.a", 4);
        counter_add("t.b", 1);
        let snap = snapshot();
        assert_eq!(snap.counter("t.a"), 7);
        assert_eq!(snap.counter("t.b"), 1);
        assert_eq!(snap.counter("t.absent"), 0);
    }

    #[test]
    fn gauges_are_last_write_wins() {
        reset();
        gauge_set("t.lr", 0.1);
        gauge_set("t.lr", 0.01);
        assert_eq!(snapshot().gauge("t.lr"), Some(0.01));
        assert_eq!(snapshot().gauge("t.other"), None);
    }

    #[test]
    fn histogram_buckets_by_log2() {
        reset();
        for v in [0u64, 1, 1, 3, 1024, 2047] {
            histogram_record("t.h", v);
        }
        let snap = snapshot();
        let h = &snap.histograms["t.h"];
        assert_eq!(h.count, 6);
        assert_eq!(h.sum, 3076);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 2047);
        assert_eq!(h.buckets[0], 1); // v = 0
        assert_eq!(h.buckets[1], 2); // v = 1, twice
        assert_eq!(h.buckets[2], 1); // v = 3
        assert_eq!(h.buckets[11], 2); // 1024 and 2047 share a bucket
        assert!((h.mean() - (3076.0 / 6.0)).abs() < 1e-9);
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        reset();
        // 100 samples: 1..=100 µs — a realistic latency distribution
        for v in 1..=100u64 {
            histogram_record("t.q", v);
        }
        let snap = snapshot();
        let h = &snap.histograms["t.q"];
        // log2 buckets bound the estimate to within 2× of the true value
        let p50 = h.p50();
        assert!((25..=100).contains(&p50), "p50 = {p50}");
        assert!(h.p95() >= p50);
        assert!(h.p99() >= h.p95());
        assert!(h.p99() <= h.max);
        assert_eq!(h.quantile(0.0), h.min);
        assert_eq!(h.quantile(1.0), h.max);
        // single-valued buckets are exact
        let mut exact = HistogramSummary {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: vec![0; HISTOGRAM_BUCKETS],
        };
        let mut raw = Histogram::default();
        for _ in 0..10 {
            raw.record(1);
        }
        raw.record(0);
        exact.count = raw.count;
        exact.sum = raw.sum;
        exact.min = raw.min;
        exact.max = raw.max;
        exact.buckets = raw.buckets;
        assert_eq!(exact.p50(), 1);
        assert_eq!(exact.quantile(0.01), 0);
        // empty histogram yields 0, not a panic
        assert_eq!(HistogramSummary::default().p99(), 0);
    }

    #[test]
    fn threads_are_isolated_but_global_merges() {
        reset();
        counter_add("t.iso", 5);
        let handle = std::thread::spawn(|| {
            // concurrency-allow: test drives real threads
            counter_add("t.iso", 11);
            // the spawned thread sees only its own writes
            assert_eq!(snapshot().counter("t.iso"), 11);
            // keep the thread alive until the main thread has merged
            assert!(global_snapshot().counter("t.iso") >= 11);
        });
        handle.join().unwrap();
        assert_eq!(snapshot().counter("t.iso"), 5);
    }

    #[test]
    fn dead_threads_still_count_in_the_global_snapshot() {
        // the pool's workers are scoped threads that exit before anyone
        // snapshots; their counters must survive into global_snapshot or
        // the report-time reconciliation identity breaks
        let before = global_snapshot().counter("t.dead");
        std::thread::spawn(|| counter_add("t.dead", 13)) // concurrency-allow: test drives real threads
            .join()
            .unwrap();
        assert_eq!(global_snapshot().counter("t.dead"), before + 13);
        // per-thread isolation is unaffected
        assert_eq!(snapshot().counter("t.dead"), 0);
    }

    #[test]
    fn reset_clears_only_this_thread() {
        counter_add("t.reset", 9);
        reset();
        assert_eq!(snapshot().counter("t.reset"), 0);
    }
}
