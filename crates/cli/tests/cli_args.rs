//! The command-line surface itself: `sia help` and a bare `sia --help`
//! print the usage and exit 0, a flag a command does not read is a usage
//! error (exit 2, naming the flag) before any work starts, and a smoke
//! bench leaves no report behind unless `--out` asks for one.

mod common;
use common::{run_sia, scratch_dir, sia};

#[test]
fn help_prints_the_usage_and_exits_zero() {
    let dir = scratch_dir("cli-args-help");
    for args in [&["help"][..], &["--help"]] {
        let usage = sia(&dir, args);
        assert!(usage.contains("USAGE:"), "sia {args:?}: {usage}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn flags_a_command_does_not_read_are_rejected_by_name() {
    let dir = scratch_dir("cli-args-flags");
    // The model path need not exist: flags are checked before any load.
    // `--url` is a `bench serve` flag, unknown to `bench conv`.
    for (args, flag) in [
        (
            &["eval", "m.sia", "--kernel-polcy", "sparse"][..],
            "--kernel-polcy",
        ),
        (&["eval", "m.sia", "--calibration", "x"], "--calibration"),
        (
            &["bench", "gemm", "--smoke", "--chek-baseline"],
            "--chek-baseline",
        ),
        (&["bench", "conv", "--url", "x"], "--url"),
    ] {
        let out = run_sia(&dir, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "sia {args:?}: {stderr}");
        assert!(stderr.contains(&format!("unknown flag {flag}")), "{stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn smoke_bench_writes_no_root_report() {
    let dir = scratch_dir("cli-args-smoke");
    sia(&dir, &["bench", "gemm", "--smoke"]);
    let left: Vec<_> = std::fs::read_dir(&dir).expect("read dir").collect();
    assert!(left.is_empty(), "smoke bench left {left:?} behind");
    // With `--out` the report lands exactly there.
    sia(&dir, &["bench", "gemm", "--smoke", "--out", "g.json"]);
    assert!(dir.join("g.json").is_file() && !dir.join("BENCH_gemm.json").exists());
    let _ = std::fs::remove_dir_all(&dir);
}
