//! No-op implementations used when the `enabled` feature is off: every
//! probe is an inlined empty function, every query returns empty data.
//! Signatures mirror the enabled module exactly so call sites need no
//! `cfg` of their own.

use crate::Value;
use std::collections::BTreeMap;
use std::io;

/// Disabled stand-in for the enabled histogram summary.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSummary {
    /// Always 0.
    pub count: u64,
    /// Always 0.
    pub sum: u64,
    /// Always 0.
    pub min: u64,
    /// Always 0.
    pub max: u64,
    /// Always empty.
    pub buckets: Vec<u64>,
}

impl HistogramSummary {
    /// Always 0.
    #[must_use]
    pub fn mean(&self) -> f64 {
        0.0
    }

    /// Always 0.
    #[must_use]
    pub fn quantile(&self, _q: f64) -> u64 {
        0
    }

    /// Always 0.
    #[must_use]
    pub fn p50(&self) -> u64 {
        0
    }

    /// Always 0.
    #[must_use]
    pub fn p95(&self) -> u64 {
        0
    }

    /// Always 0.
    #[must_use]
    pub fn p99(&self) -> u64 {
        0
    }
}

/// Disabled stand-in: always empty.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// Always empty.
    pub counters: BTreeMap<String, u64>,
    /// Always empty.
    pub gauges: BTreeMap<String, f64>,
    /// Always empty.
    pub histograms: BTreeMap<String, HistogramSummary>,
}

impl Snapshot {
    /// Always 0.
    #[must_use]
    pub fn counter(&self, _name: &str) -> u64 {
        0
    }

    /// Always `None`.
    #[must_use]
    pub fn gauge(&self, _name: &str) -> Option<f64> {
        None
    }
}

/// Disabled stand-in for a completed span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Span path.
    pub name: String,
    /// Start µs.
    pub ts_us: u64,
    /// Duration µs.
    pub dur_us: u64,
    /// Thread lane.
    pub tid: u64,
}

/// Disabled span guard: construction and drop are free.
#[derive(Debug)]
pub struct SpanGuard;

/// No-op.
#[inline(always)]
#[must_use]
pub fn span_guard(_name: &'static str) -> SpanGuard {
    SpanGuard
}

/// No-op.
#[inline(always)]
pub fn counter_add(_name: &str, _delta: u64) {}

/// No-op.
#[inline(always)]
pub fn gauge_set(_name: &str, _value: f64) {}

/// No-op.
#[inline(always)]
pub fn histogram_record(_name: &str, _value: u64) {}

/// No-op.
#[inline(always)]
pub fn reset() {}

/// Always empty.
#[inline(always)]
#[must_use]
pub fn snapshot() -> Snapshot {
    Snapshot::default()
}

/// Always empty.
#[inline(always)]
#[must_use]
pub fn global_snapshot() -> Snapshot {
    Snapshot::default()
}

/// No-op.
#[inline(always)]
pub fn emit(_kind: &str, _fields: &[(&str, Value<'_>)]) {}

/// No-op.
#[inline(always)]
pub fn emit_counters(_snapshot: &Snapshot) {}

/// No-op (succeeds without opening anything).
#[inline(always)]
pub fn install_jsonl(_path: Option<&str>) -> io::Result<()> {
    Ok(())
}

/// Always empty.
#[inline(always)]
pub fn uninstall_jsonl() -> Vec<u8> {
    Vec::new()
}

/// Always empty.
#[inline(always)]
pub fn take_jsonl() -> Vec<u8> {
    Vec::new()
}

/// Notes that telemetry is compiled out.
#[inline(always)]
#[must_use]
pub fn render_table(_snapshot: &Snapshot) -> String {
    "(telemetry compiled out: rebuild with the `telemetry` feature)\n".to_string()
}

/// Always an empty trace document.
#[must_use]
pub fn chrome_trace_json(_events: &[TraceEvent]) -> String {
    "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}\n".to_string()
}

/// Always empty.
#[inline(always)]
#[must_use]
pub fn take_trace_events() -> Vec<TraceEvent> {
    Vec::new()
}

/// No-op.
#[inline(always)]
pub fn capture_trace(_on: bool) {}
