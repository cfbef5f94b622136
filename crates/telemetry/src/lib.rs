//! # sia-telemetry — observability substrate for the SIA reproduction
//!
//! Zero-dependency tracing, metrics and profiling, wired through the
//! trainer (`sia-nn`), the quantiser (`sia-quant`), the converter/runners
//! (`sia-snn`), the tensor kernels (`sia-tensor`) and the cycle-level
//! accelerator (`sia-accel`):
//!
//! * **Spans** — `let _g = sia_telemetry::span!("tensor.matmul");` starts an
//!   RAII scope; dropping it records hierarchical wall-clock time into a
//!   log2 histogram and, while [`capture_trace`] is on (the CLI's
//!   `--trace`), a Chrome-`trace_event`-compatible buffer.
//! * **Counters / gauges / histograms** — a thread-safe registry keyed by
//!   static-ish string names. Counters are monotonically increasing `u64`s
//!   (`accel.cycles.compute`), gauges are last-write-wins `f64`s
//!   (`train.lr`), histograms bucket `u64` samples by `log2`.
//! * **Events** — `emit("accel.layer", &[..])` streams one structured
//!   record to the installed JSON-lines sink (`--metrics out.jsonl`).
//! * **Sinks** — human-readable table ([`render_table`]), JSON lines
//!   ([`install_jsonl`]), Chrome `trace_event` JSON ([`chrome_trace_json`],
//!   open in `chrome://tracing` or [Perfetto](https://ui.perfetto.dev)).
//!
//! Storage is per-thread (an uncontended mutex each) with a global roster,
//! so [`snapshot`] gives the calling thread an isolated view — exactly what
//! parallel `cargo test` needs — while [`global_snapshot`] merges every
//! thread for whole-process reporting.
//!
//! Built with `--no-default-features` (the `enabled` feature off) every
//! probe compiles to an inlined empty function and the data paths carry
//! zero cost.

#![forbid(unsafe_code)]

#[cfg(feature = "enabled")]
mod enabled {
    pub mod registry;
    pub mod sink;
    pub mod span;
}

pub mod json;

#[cfg(feature = "enabled")]
pub use enabled::registry::{
    counter_add, gauge_set, global_snapshot, histogram_record, reset, snapshot, HistogramSummary,
    Snapshot,
};
#[cfg(feature = "enabled")]
pub use enabled::sink::{
    chrome_trace_json, emit, emit_counters, install_jsonl, render_table, take_jsonl,
    uninstall_jsonl,
};
#[cfg(feature = "enabled")]
pub use enabled::span::{capture_trace, span_guard, take_trace_events, SpanGuard, TraceEvent};

#[cfg(not(feature = "enabled"))]
mod disabled;
#[cfg(not(feature = "enabled"))]
pub use disabled::{
    capture_trace, chrome_trace_json, counter_add, emit, emit_counters, gauge_set, global_snapshot,
    histogram_record, install_jsonl, render_table, reset, snapshot, span_guard, take_jsonl,
    take_trace_events, uninstall_jsonl, HistogramSummary, Snapshot, SpanGuard, TraceEvent,
};

/// A typed field value carried by [`emit`]ted events. A string field
/// borrows its text, so building an event allocates nothing; only a sink
/// that writes the event copies it.
#[derive(Clone, Debug, PartialEq)]
pub enum Value<'a> {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point.
    F64(f64),
    /// String.
    Str(&'a str),
    /// Boolean.
    Bool(bool),
}

impl From<u64> for Value<'_> {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}

impl From<usize> for Value<'_> {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}

impl From<u32> for Value<'_> {
    fn from(v: u32) -> Self {
        Value::U64(u64::from(v))
    }
}

impl From<i64> for Value<'_> {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}

impl From<f64> for Value<'_> {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}

impl From<f32> for Value<'_> {
    fn from(v: f32) -> Self {
        Value::F64(f64::from(v))
    }
}

impl From<bool> for Value<'_> {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl<'a> From<&'a str> for Value<'a> {
    fn from(v: &'a str) -> Self {
        Value::Str(v)
    }
}

/// Opens an RAII span: `let _g = sia_telemetry::span!("accel.layer");`.
/// Time from the macro to the guard's drop is recorded under
/// `span.<dotted.path>` (nested spans join their names) and into the
/// Chrome-trace buffer.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span_guard($name)
    };
}

/// Bumps a counter: `counter!("accel.spikes", n)`.
#[macro_export]
macro_rules! counter {
    ($name:expr, $delta:expr) => {
        $crate::counter_add($name, $delta)
    };
}

/// Sets a gauge: `gauge!("train.lr", lr)`.
#[macro_export]
macro_rules! gauge {
    ($name:expr, $value:expr) => {
        $crate::gauge_set($name, $value)
    };
}

/// Records a histogram sample: `histogram!("span.matmul.us", us)`.
#[macro_export]
macro_rules! histogram {
    ($name:expr, $value:expr) => {
        $crate::histogram_record($name, $value)
    };
}
