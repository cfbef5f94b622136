//! What the CLI integration tests share: running the built `sia` binary in
//! a scratch directory of the test's own.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// Runs `sia args` in `dir`.
pub fn run_sia(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sia"))
        .current_dir(dir)
        .args(args)
        .output()
        .expect("spawn sia")
}

/// Runs `sia args` in `dir` and returns its stdout; it must exit 0.
pub fn sia(dir: &Path, args: &[&str]) -> String {
    let out = run_sia(dir, args);
    assert!(
        out.status.success(),
        "sia {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// An empty directory `sia-<name>-<pid>` under the system temp dir.
pub fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sia-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}
