//! The result line, the per-run record and the trace file.

use crate::common::{Metric, RunResult};
use crate::trace::Tracer;
use std::fmt::Write as _;

/// Where run records and trace files go (ignored by git).
pub const RUNS_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/runs");

/// A number as JSON: every digit of the shortest round-trip form.
fn num(v: f64) -> String {
    format!("{v:?}")
}

fn metrics_json(metrics: &[Metric]) -> String {
    let mut out = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            num(m.value),
            m.unit
        );
    }
    out.push('}');
    out
}

/// Whether the run passed every check.
#[must_use]
pub fn correct(r: &RunResult) -> bool {
    r.checks.failed == 0 && r.checks.problems.is_empty() && r.checks.attempted > 0
}

/// The last line of standard output.
#[must_use]
pub fn result_line(r: &RunResult) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        correct(r),
        r.checks.attempted.max(1),
        r.checks.failed,
        metrics_json(&r.metrics)
    )
}

/// The human-readable report printed before the result line.
#[must_use]
pub fn summary(r: &RunResult) -> String {
    let mut out = String::new();
    for m in &r.metrics {
        let _ = writeln!(out, "{:<24} {:>16} {}", m.name, num(m.value), m.unit);
    }
    let share = r.checks.failed as f64 / r.checks.attempted.max(1) as f64;
    let _ = writeln!(
        out,
        "{:<24} {:>16} fraction ({} of {} operations failed)",
        "failed_share",
        num(share),
        r.checks.failed,
        r.checks.attempted
    );
    let _ = writeln!(out, "{:<24} {:>16} latency samples", "samples", r.samples);
    for (name, value) in [("latency_p95_ms", r.p95_ms), ("latency_p99_ms", r.p99_ms)] {
        let _ = writeln!(out, "{name:<24} {:>16} ms (not gated)", num(value));
    }
    for p in &r.checks.problems {
        let _ = writeln!(out, "problem: {p}");
    }
    out
}

/// The commit of the checkout when it is a git work tree, else "unknown"
/// (read from `.git` directly, so no process is started).
#[must_use]
pub fn git_commit() -> String {
    let git = concat!(env!("CARGO_MANIFEST_DIR"), "/../.git");
    let read = |p: &str| std::fs::read_to_string(format!("{git}/{p}")).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(sha) = read(reference) {
        return sha.trim().to_string();
    }
    read("packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (sha, name) = l.split_once(' ')?;
                (name == reference).then(|| sha.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Writes the run record: seed, commit, command line, parallelism, sample
/// count, accounting and metrics.
///
/// # Errors
///
/// Propagates I/O failures.
pub fn write_record(r: &RunResult, workload: &str, seed: u64, trace: bool) -> Result<(), String> {
    let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let args: Vec<String> = std::env::args().map(|a| format!("{a:?}")).collect();
    let mut out = String::from("{");
    let _ = writeln!(
        out,
        "\"workload\": \"{workload}\", \"seed\": {seed}, \"trace\": {trace}, \
         \"git_commit\": \"{}\", \"command_line\": [{}], \"available_parallelism\": {cpus}, \
         \"effective_parallelism\": {}, \"samples\": {}, \"latency_p95_ms\": {}, \
         \"latency_p99_ms\": {}, \
         \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        git_commit(),
        args.join(", "),
        r.parallelism.min(cpus),
        r.samples,
        num(r.p95_ms),
        num(r.p99_ms),
        correct(r),
        r.checks.attempted,
        r.checks.failed,
        metrics_json(&r.metrics)
    );
    let path = format!(
        "{RUNS_DIR}/{workload}-seed{seed}{}.json",
        if trace { "-traced" } else { "" }
    );
    std::fs::create_dir_all(RUNS_DIR).map_err(|e| format!("creating {RUNS_DIR}: {e}"))?;
    std::fs::write(&path, out).map_err(|e| format!("writing {path}: {e}"))
}

/// Writes the traced run's spans as a Chrome trace (no-op untraced).
///
/// # Errors
///
/// Propagates I/O failures.
pub fn write_trace(tracer: &Tracer, workload: &str, seed: u64) -> Result<(), String> {
    if !tracer.enabled() {
        return Ok(());
    }
    let path = format!("{RUNS_DIR}/trace-{workload}-seed{seed}.json");
    std::fs::create_dir_all(RUNS_DIR).map_err(|e| format!("creating {RUNS_DIR}: {e}"))?;
    std::fs::write(&path, tracer.chrome_json()).map_err(|e| format!("writing {path}: {e}"))
}
