//! The early-exit calibration round trip through the CLI: `sia calibrate`
//! fits thresholds on a trained model and writes them, `sia eval --policy
//! calibrated` runs under the fitted margin, and the kernel policy accepts
//! only the built-in choices.

mod common;
use common::{run_sia, scratch_dir, sia};

#[test]
fn calibrated_exit_policy_round_trips_through_the_cli() {
    let dir = scratch_dir("exit-calibration");
    sia(
        &dir,
        &[
            "train", "--out", "m.sia", "--width", "1", "--size", "8", "--epochs", "1",
        ],
    );

    let fit = sia(
        &dir,
        &["calibrate", "m.sia", "--smoke", "--out", "exit.json"],
    );
    assert!(fit.contains("wrote exit.json"), "calibrate printed:\n{fit}");
    let cal = sia_snn::ExitCalibration::load(&dir.join("exit.json")).expect("load exit.json");
    assert_eq!(cal.model, "m");

    let eval = sia(
        &dir,
        &[
            "eval",
            "m.sia",
            "--policy",
            "calibrated",
            "--exit-calibration",
            "exit.json",
            "--images",
            "4",
        ],
    );
    assert!(
        eval.contains("early exit (margin policy)"),
        "eval printed:\n{eval}"
    );

    // The kernel decision is the built-in one: no calibrated kernel policy.
    let out = run_sia(&dir, &["eval", "m.sia", "--kernel-policy", "calibrated"]);
    assert!(
        !out.status.success(),
        "a calibrated kernel policy was accepted"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("auto|sparse|dense"), "stderr:\n{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}
