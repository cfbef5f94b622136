//! Structured sinks: JSON-lines event stream, human-readable table,
//! Chrome `trace_event` export.

use super::registry::{counter_add, Snapshot};
use super::span::{now_us, TraceEvent};
use crate::json::{write_escaped, write_f64};
use crate::Value;
use std::cell::RefCell;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::sync::{Mutex, OnceLock};

enum JsonlSink {
    File(BufWriter<File>),
    Memory(Vec<u8>),
}

fn sink() -> &'static Mutex<Option<JsonlSink>> {
    static SINK: OnceLock<Mutex<Option<JsonlSink>>> = OnceLock::new();
    SINK.get_or_init(|| Mutex::new(None)) // concurrency-allow: telemetry's own real lock, invisible to sia-sched
}

/// Installs the process-wide JSON-lines event sink. `Some(path)` streams to
/// a file (created/truncated); `None` captures in memory for
/// [`take_jsonl`]. Replaces (and flushes) any previous sink.
///
/// # Errors
///
/// Propagates file-creation errors.
pub fn install_jsonl(path: Option<&str>) -> io::Result<()> {
    let new = match path {
        Some(p) => JsonlSink::File(BufWriter::new(File::create(p)?)),
        None => JsonlSink::Memory(Vec::new()),
    };
    let mut guard = sink().lock().expect("telemetry sink poisoned");
    if let Some(JsonlSink::File(mut w)) = guard.replace(new) {
        let _ = w.flush();
    }
    Ok(())
}

/// Flushes and removes the JSON-lines sink, returning captured bytes when
/// the sink was in-memory (empty for file sinks).
pub fn uninstall_jsonl() -> Vec<u8> {
    let mut guard = sink().lock().expect("telemetry sink poisoned");
    match guard.take() {
        Some(JsonlSink::File(mut w)) => {
            let _ = w.flush();
            Vec::new()
        }
        Some(JsonlSink::Memory(buf)) => buf,
        None => Vec::new(),
    }
}

/// Flushes the sink and returns the bytes captured so far **without**
/// uninstalling (file sinks return empty).
pub fn take_jsonl() -> Vec<u8> {
    let mut guard = sink().lock().expect("telemetry sink poisoned");
    match guard.as_mut() {
        Some(JsonlSink::File(w)) => {
            let _ = w.flush();
            Vec::new()
        }
        Some(JsonlSink::Memory(buf)) => std::mem::take(buf),
        None => Vec::new(),
    }
}

/// Emits one structured event: bumps the `events.<kind>` counter and, when
/// a JSON-lines sink is installed, appends
/// `{"ev":"<kind>","ts_us":…,<fields>}` as one line.
pub fn emit(kind: &str, fields: &[(&str, Value<'_>)]) {
    thread_local! {
        static KEY: RefCell<String> = const { RefCell::new(String::new()) };
    }
    // The `events.<kind>` key is assembled in a reused buffer: a counter
    // hit then allocates nothing.
    KEY.with(|key| {
        let mut key = key.borrow_mut();
        key.clear();
        key.push_str("events.");
        key.push_str(kind);
        counter_add(&key, 1);
    });
    let mut guard = sink().lock().expect("telemetry sink poisoned");
    let Some(target) = guard.as_mut() else {
        return;
    };
    let mut line = String::with_capacity(64 + fields.len() * 24);
    line.push_str("{\"ev\":");
    write_escaped(&mut line, kind);
    let _ = write!(line, ",\"ts_us\":{}", now_us());
    for (key, value) in fields {
        line.push(',');
        write_escaped(&mut line, key);
        line.push(':');
        match value {
            Value::U64(v) => {
                let _ = write!(line, "{v}");
            }
            Value::I64(v) => {
                let _ = write!(line, "{v}");
            }
            Value::F64(v) => write_f64(&mut line, *v),
            Value::Bool(v) => {
                let _ = write!(line, "{v}");
            }
            Value::Str(v) => write_escaped(&mut line, v),
        }
    }
    line.push_str("}\n");
    match target {
        JsonlSink::File(w) => {
            let _ = w.write_all(line.as_bytes());
        }
        JsonlSink::Memory(buf) => buf.extend_from_slice(line.as_bytes()),
    }
}

/// Emits the snapshot's counters as one `telemetry.counters` event — the
/// CLI calls this before closing a JSONL sink so a metrics file carries
/// its own ground truth: `sia report` reconciles the per-layer event sums
/// against exactly these values.
pub fn emit_counters(snapshot: &Snapshot) {
    let fields: Vec<(&str, Value<'_>)> = snapshot
        .counters
        .iter()
        .map(|(name, value)| (name.as_str(), Value::U64(*value)))
        .collect();
    emit("telemetry.counters", &fields);
}

/// Renders a snapshot as an aligned, human-readable table.
#[must_use]
pub fn render_table(snapshot: &Snapshot) -> String {
    let mut out = String::new();
    if !snapshot.counters.is_empty() {
        out.push_str("counters\n");
        let width = snapshot.counters.keys().map(String::len).max().unwrap_or(0);
        for (name, value) in &snapshot.counters {
            let _ = writeln!(out, "  {name:<width$}  {value:>14}");
        }
    }
    if !snapshot.gauges.is_empty() {
        out.push_str("gauges\n");
        let width = snapshot.gauges.keys().map(String::len).max().unwrap_or(0);
        for (name, value) in &snapshot.gauges {
            let _ = writeln!(out, "  {name:<width$}  {value:>14.6}");
        }
    }
    if !snapshot.histograms.is_empty() {
        out.push_str("histograms (log2 buckets)\n");
        let width = snapshot
            .histograms
            .keys()
            .map(String::len)
            .max()
            .unwrap_or(0);
        let _ = writeln!(
            out,
            "  {:<width$}  {:>10} {:>14} {:>10} {:>10} {:>12} {:>10} {:>10} {:>10}",
            "name", "count", "sum", "min", "max", "mean", "p50", "p95", "p99"
        );
        for (name, h) in &snapshot.histograms {
            let _ = writeln!(
                out,
                "  {name:<width$}  {:>10} {:>14} {:>10} {:>10} {:>12.1} {:>10} {:>10} {:>10}",
                h.count,
                h.sum,
                if h.count == 0 { 0 } else { h.min },
                h.max,
                h.mean(),
                h.p50(),
                h.p95(),
                h.p99()
            );
        }
    }
    if out.is_empty() {
        out.push_str("(no telemetry recorded)\n");
    }
    out
}

/// Serialises spans as a Chrome `trace_event` JSON document — load it in
/// `chrome://tracing` or <https://ui.perfetto.dev> for a flamegraph.
///
/// Spans buffer in *completion* order (the RAII guard records on drop), so
/// events are re-sorted by `(tid, ts, -dur)` here: per-thread timestamps
/// come out monotonic and parents precede the children they enclose.
#[must_use]
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    let mut ordered: Vec<&TraceEvent> = events.iter().collect();
    ordered.sort_by(|a, b| {
        (a.tid, a.ts_us, std::cmp::Reverse(a.dur_us)).cmp(&(
            b.tid,
            b.ts_us,
            std::cmp::Reverse(b.dur_us),
        ))
    });
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, e) in ordered.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        write_escaped(&mut out, e.name.rsplit('.').next().unwrap_or(&e.name));
        out.push_str(",\"cat\":");
        write_escaped(&mut out, &e.name);
        let _ = write!(
            out,
            ",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{}}}",
            e.tid, e.ts_us, e.dur_us
        );
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enabled::registry::{reset, snapshot};
    use crate::json::{parse, Json};

    /// The JSONL sink is process-global; serialise the tests that use it.
    fn sink_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(()); // concurrency-allow: test-only serialisation
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn jsonl_round_trip_preserves_fields() {
        let _guard = sink_lock();
        reset();
        install_jsonl(None).unwrap();
        emit(
            "test.event",
            &[
                ("layer", Value::from("conv3x3,64")),
                ("cycles", Value::from(123_456u64)),
                ("rate", Value::from(0.25f64)),
                ("ok", Value::from(true)),
                ("delta", Value::I64(-7)),
            ],
        );
        emit("test.other", &[("n", Value::from(1u64))]);
        let bytes = uninstall_jsonl();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let first = parse(lines[0]).unwrap();
        assert_eq!(first.get("ev").and_then(Json::as_str), Some("test.event"));
        assert_eq!(
            first.get("layer").and_then(Json::as_str),
            Some("conv3x3,64")
        );
        assert_eq!(first.get("cycles").and_then(Json::as_u64), Some(123_456));
        assert_eq!(first.get("rate").and_then(Json::as_f64), Some(0.25));
        assert_eq!(first.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(first.get("delta").and_then(Json::as_f64), Some(-7.0));
        assert!(first.get("ts_us").is_some());
        // events are also counted even without a sink installed
        assert_eq!(snapshot().counter("events.test.event"), 1);
    }

    #[test]
    fn emit_without_sink_only_counts() {
        let _guard = sink_lock();
        reset();
        emit("test.unsunk", &[]);
        assert_eq!(snapshot().counter("events.test.unsunk"), 1);
        assert!(take_jsonl().is_empty());
    }

    #[test]
    fn table_renders_all_sections() {
        reset();
        crate::counter_add("t.table.count", 3);
        crate::gauge_set("t.table.gauge", 1.5);
        crate::histogram_record("t.table.hist", 100);
        let table = render_table(&snapshot());
        assert!(table.contains("counters"));
        assert!(table.contains("t.table.count"));
        assert!(table.contains("gauges"));
        assert!(table.contains("histograms"));
        assert!(render_table(&Snapshot::default()).contains("no telemetry"));
    }

    #[test]
    fn chrome_trace_is_valid_json() {
        let events = vec![
            TraceEvent {
                name: "train.epoch.forward".into(),
                ts_us: 10,
                dur_us: 40,
                tid: 1,
            },
            TraceEvent {
                name: "train.epoch".into(),
                ts_us: 0,
                dur_us: 100,
                tid: 1,
            },
        ];
        let doc = chrome_trace_json(&events);
        let parsed = parse(doc.trim()).unwrap();
        let Some(Json::Arr(items)) = parsed.get("traceEvents") else {
            panic!("missing traceEvents: {doc}");
        };
        assert_eq!(items.len(), 2);
        // re-sorted by start time: the enclosing epoch span comes first
        assert_eq!(items[0].get("name").and_then(Json::as_str), Some("epoch"));
        assert_eq!(items[0].get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(items[0].get("dur").and_then(Json::as_u64), Some(100));
        assert_eq!(items[1].get("name").and_then(Json::as_str), Some("forward"));
        assert_eq!(
            items[1].get("cat").and_then(Json::as_str),
            Some("train.epoch.forward")
        );
    }

    #[test]
    fn chrome_trace_events_are_well_formed_and_ts_monotonic_per_thread() {
        // spans buffer in drop (completion) order — nested spans therefore
        // arrive child-before-parent, and multi-thread runs interleave
        // lanes arbitrarily; the exported document must still be sorted
        let events = vec![
            TraceEvent {
                name: "a.leaf".into(),
                ts_us: 900,
                dur_us: 10,
                tid: 2,
            },
            TraceEvent {
                name: "a.inner".into(),
                ts_us: 40,
                dur_us: 20,
                tid: 1,
            },
            TraceEvent {
                name: "a.outer".into(),
                ts_us: 0,
                dur_us: 100,
                tid: 1,
            },
            TraceEvent {
                name: "a.same_start".into(),
                ts_us: 0,
                dur_us: 30,
                tid: 1,
            },
            TraceEvent {
                name: "b.leaf".into(),
                ts_us: 5,
                dur_us: 1,
                tid: 2,
            },
        ];
        let doc = chrome_trace_json(&events);
        let parsed = parse(doc.trim()).unwrap();
        let Some(Json::Arr(items)) = parsed.get("traceEvents") else {
            panic!("missing traceEvents: {doc}");
        };
        assert_eq!(items.len(), events.len());
        // every event carries the complete-event shape
        for it in items {
            assert_eq!(it.get("ph").and_then(Json::as_str), Some("X"));
            assert!(it.get("pid").and_then(Json::as_u64).is_some());
            for key in ["name", "cat"] {
                assert!(
                    it.get(key).and_then(Json::as_str).is_some(),
                    "missing {key}"
                );
            }
            for key in ["tid", "ts", "dur"] {
                assert!(
                    it.get(key).and_then(Json::as_u64).is_some(),
                    "missing {key}"
                );
            }
        }
        // within each thread lane, timestamps never go backwards
        let mut last_ts: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
        for it in items {
            let tid = it.get("tid").and_then(Json::as_u64).unwrap();
            let ts = it.get("ts").and_then(Json::as_u64).unwrap();
            if let Some(&prev) = last_ts.get(&tid) {
                assert!(ts >= prev, "tid {tid}: ts {ts} after {prev}");
            }
            last_ts.insert(tid, ts);
        }
        // equal start times order the longer (enclosing) span first
        assert_eq!(items[0].get("name").and_then(Json::as_str), Some("outer"));
        assert_eq!(
            items[1].get("name").and_then(Json::as_str),
            Some("same_start")
        );
    }
}
