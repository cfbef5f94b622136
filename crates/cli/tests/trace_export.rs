//! `--trace` and `--metrics` end to end: span buffering is off unless a
//! command turns it on, so a command run with `--trace <file>` must export
//! the spans it ran, not an empty trace; and `sia report` must read back
//! the `--metrics` capture each command wrote.
#![cfg(feature = "telemetry")]

mod common;
use common::{run_sia, scratch_dir, sia};
use std::path::Path;

/// Runs `sia report <file>` and returns its stdout; it must exit 0.
fn report(dir: &Path, file: &str) -> String {
    let out = run_sia(dir, &["report", file]);
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "sia report {file} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
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

#[test]
fn trace_flag_exports_the_spans_each_command_ran() {
    let dir = scratch_dir("trace-export");
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
            "--metrics",
            "train.jsonl",
        ],
    );
    let train = event_names(&dir.join("train.json"));
    assert!(train.iter().any(|n| n == "step"), "train trace: {train:?}");

    let eval = |backend: &str, images: &str| {
        let (trace, metrics) = (format!("{backend}.json"), format!("{backend}.jsonl"));
        let stdout = sia(
            &dir,
            &[
                "eval",
                "m.sia",
                "--backend",
                backend,
                "--images",
                images,
                "--timesteps",
                "8",
                "--trace",
                &trace,
                "--metrics",
                &metrics,
            ],
        );
        (event_names(&dir.join(trace)), stdout)
    };
    let (int, stdout) = eval("int", "4");
    assert!(int.iter().any(|n| n == "int_run"), "eval trace: {int:?}");
    assert!(!stdout.contains("per-inference"), "{stdout}");
    // the accel eval closes with one more machine run of the last image
    let (_, stdout) = eval("accel", "2");
    for line in ["per-inference: ", "overall spike rate ", "energy: "] {
        assert!(
            stdout.contains(line),
            "accel eval lacks `{line}`:\n{stdout}"
        );
    }

    let train = report(&dir, "train.jsonl");
    assert!(train.contains("training curve"), "{train}");
    assert!(train.contains("attribution skipped"), "{train}");

    let int = report(&dir, "int.jsonl");
    assert!(int.contains("spiking-stage sparsity"), "{int}");
    assert!(int.contains("attribution skipped"), "{int}");

    let accel = report(&dir, "accel.jsonl");
    assert!(accel.contains("accel.layer events over"), "{accel}");
    for column in ["compute cy", "transfer cy", "spikes"] {
        assert!(
            accel.contains(column),
            "layer table lacks `{column}`:\n{accel}"
        );
    }
    assert!(accel.contains("all 9 identities hold"), "{accel}");

    std::fs::write(dir.join("empty.jsonl"), "").expect("write empty capture");
    assert!(!run_sia(&dir, &["report", "empty.jsonl"]).status.success());

    // a capture cut mid-line: every complete line still reports
    let text = std::fs::read_to_string(dir.join("int.jsonl")).expect("read int capture");
    let end = text.trim_end().len() - 5;
    std::fs::write(dir.join("cut.jsonl"), &text[..end]).expect("write cut capture");
    let cut = report(&dir, "cut.jsonl");
    assert!(cut.contains("spiking-stage sparsity"), "{cut}");
    assert!(cut.contains("file ends mid-line"), "{cut}");
    let _ = std::fs::remove_dir_all(&dir);
}
