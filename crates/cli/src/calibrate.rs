//! `sia calibrate` — early-exit threshold fitting, plus the
//! `--kernel-policy` / `--policy` resolution shared by `eval`, `serve` and
//! `bench`.
//!
//! The fit lives in [`sia_snn::exit`]; this module is the CLI veneer: where
//! the file goes and how policies are picked from flags.

use crate::args::Args;
use sia_snn::{default_exit_path, ExitCalibration, ExitPolicy, KernelPolicy};
use std::path::{Path, PathBuf};

/// Directory the toolchain keeps calibration files in by default.
const CALIBRATION_DIR: &str = "results/calibration";

/// `sia calibrate <model.sia>`: fits early-exit confidence thresholds on
/// held-out data and writes `results/calibration/exit.json` (override
/// with `--out`).
///
/// The calibration set is the *training* split of the synthetic dataset —
/// disjoint from the test split `sia eval` scores — replayed at fixed T on
/// the integer backend. Because the chunked driver is bit-exact, replaying
/// the fixed-T logit trajectories under candidate thresholds reproduces
/// exactly what an adaptive run would have computed, so the whole
/// threshold grid costs one fixed-T pass.
///
/// # Errors
///
/// A missing or unloadable model, bad flag values, or a failed write.
pub(crate) fn cmd_calibrate(args: &Args) -> Result<(), String> {
    let path = args
        .positional
        .first()
        .cloned()
        .ok_or("usage: sia calibrate <model.sia>")?;
    let timesteps = args.usize_or("timesteps", 8).map_err(crate::err)?;
    let burn_in = args.usize_or("burn-in", 0).map_err(crate::err)?;
    let window = args.usize_or("exit-window", 1).map_err(crate::err)?;
    let max_acc_drop = args.f64_or("max-acc-drop", 0.01).map_err(crate::err)?;
    let n_images = args
        .usize_or("images", if args.switch("smoke") { 40 } else { 200 })
        .map_err(crate::err)?;
    let model = sia_serve::load_for_run(&path, false, timesteps)?;
    let data = crate::data_for(model.network.input.1);
    let set = data.train.take(n_images);
    let mut runner = sia_snn::IntRunner::new(&model.network);
    let mut runs = Vec::with_capacity(set.len());
    let mut labels = Vec::with_capacity(set.len());
    for i in 0..set.len() {
        let (img, label) = set.get(i);
        runs.push(runner.run_with(img, timesteps, burn_in).logits_per_t);
        labels.push(label);
    }
    let name = Path::new(&path)
        .file_stem()
        .map_or_else(|| path.clone(), |s| s.to_string_lossy().into_owned());
    let cal = ExitCalibration::fit(&runs, &labels, burn_in, window, max_acc_drop, &name);
    let out = args.options.get("out").map_or_else(
        || default_exit_path(Path::new(CALIBRATION_DIR)),
        PathBuf::from,
    );
    cal.save(&out)?;
    println!(
        "exit calibration for {name} on {} images at T={timesteps} (window {window}, \
         accuracy floor {:.1}% − {:.1}pp):",
        set.len(),
        cal.fixed_accuracy * 100.0,
        max_acc_drop * 100.0
    );
    println!(
        "  margin  ≥ {:.3}: accuracy {:.1}%, avg T {:.2}",
        cal.margin_threshold,
        cal.margin_accuracy * 100.0,
        cal.margin_avg_t
    );
    println!(
        "  entropy ≤ {:.3}: accuracy {:.1}%, avg T {:.2}",
        cal.entropy_threshold,
        cal.entropy_accuracy * 100.0,
        cal.entropy_avg_t
    );
    println!("wrote {}", out.display());
    Ok(())
}

/// Resolves the early-exit policy from `--policy
/// fixed|margin|entropy|calibrated`, `--exit-margin T`, `--exit-entropy T`,
/// `--exit-window W` and `--exit-calibration PATH`.
///
/// A bare `--exit-margin`/`--exit-entropy` threshold implies its family;
/// `calibrated` loads the fitted margin threshold from the exit
/// calibration file (default `results/calibration/exit.json`).
///
/// # Errors
///
/// Unknown policy names, unparsable thresholds, or `calibrated` without a
/// loadable exit-calibration file.
pub(crate) fn resolve_exit_policy(args: &Args) -> Result<ExitPolicy, String> {
    let threshold = |key: &str, default: f32| -> Result<f32, String> {
        Ok(args.f64_or(key, f64::from(default)).map_err(crate::err)? as f32)
    };
    let window = args.usize_or("exit-window", 1).map_err(crate::err)?.max(1);
    let margin = || -> Result<ExitPolicy, String> {
        Ok(ExitPolicy::Margin {
            threshold: threshold("exit-margin", 0.5)?,
            window,
        })
    };
    let entropy = || -> Result<ExitPolicy, String> {
        Ok(ExitPolicy::Entropy {
            threshold: threshold("exit-entropy", 0.2)?,
            window,
        })
    };
    match args.options.get("policy").map(String::as_str) {
        None => {
            // a bare threshold flag implies its policy family
            if args.options.contains_key("exit-margin") {
                margin()
            } else if args.options.contains_key("exit-entropy") {
                entropy()
            } else {
                Ok(ExitPolicy::Fixed)
            }
        }
        Some("fixed") => Ok(ExitPolicy::Fixed),
        Some("margin") => margin(),
        Some("entropy") => entropy(),
        Some("calibrated") => {
            let path = args.options.get("exit-calibration").map_or_else(
                || default_exit_path(Path::new(CALIBRATION_DIR)),
                PathBuf::from,
            );
            let cal = ExitCalibration::load(&path)
                .map_err(|e| format!("--policy calibrated: {e} (run `sia calibrate` first)"))?;
            Ok(cal.margin_policy())
        }
        Some(other) => Err(format!(
            "--policy '{other}' unknown (fixed|margin|entropy|calibrated)"
        )),
    }
}

/// Resolves the psum kernel policy from `--kernel-policy
/// auto|sparse|dense` (default `auto`).
///
/// # Errors
///
/// Unknown policy names.
pub(crate) fn resolve_policy(args: &Args) -> Result<KernelPolicy, String> {
    match args.options.get("kernel-policy").map(String::as_str) {
        None | Some("auto") => Ok(KernelPolicy::Auto),
        Some("sparse") => Ok(KernelPolicy::ForceSparse),
        Some("dense") => Ok(KernelPolicy::ForceDense),
        Some(other) => Err(format!(
            "--kernel-policy '{other}' unknown (auto|sparse|dense)"
        )),
    }
}
