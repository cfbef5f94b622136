//! `--trace` end to end: span buffering is off unless a command turns it
//! on, so a command run with `--trace <file>` must export the spans it ran,
//! not an empty trace.
#![cfg(feature = "telemetry")]

use std::path::{Path, PathBuf};
use std::process::Command;

fn sia(dir: &Path, args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_sia"))
        .current_dir(dir)
        .args(args)
        .output()
        .expect("spawn sia");
    assert!(
        out.status.success(),
        "sia {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// The `"name"` of every event in a Chrome trace file.
fn event_names(path: &Path) -> Vec<String> {
    let doc = std::fs::read_to_string(path).expect("read trace");
    assert!(doc.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
    doc.split("{\"name\":\"")
        .skip(1)
        .map(|e| e[..e.find('"').expect("closing quote")].to_string())
        .collect()
}

fn scratch_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sia-trace-export-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

#[test]
fn trace_flag_exports_the_spans_each_command_ran() {
    let dir = scratch_dir();
    sia(
        &dir,
        &[
            "train",
            "--out",
            "m.sia",
            "--width",
            "1",
            "--size",
            "8",
            "--epochs",
            "1",
            "--trace",
            "train.json",
        ],
    );
    let train = event_names(&dir.join("train.json"));
    assert!(train.iter().any(|n| n == "step"), "train trace: {train:?}");

    sia(
        &dir,
        &[
            "eval",
            "m.sia",
            "--backend",
            "int",
            "--images",
            "4",
            "--timesteps",
            "8",
            "--trace",
            "eval.json",
        ],
    );
    let eval = event_names(&dir.join("eval.json"));
    assert!(eval.iter().any(|n| n == "int_run"), "eval trace: {eval:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
