//! `sia calibrate` — measured-per-host kernel auto-tuning and early-exit
//! threshold fitting, plus the `--kernel-policy` / `--calibration` /
//! `--policy` resolution shared by `eval`, `serve` and `bench`.
//!
//! The measurements live in [`sia_snn::calibrate`] (kernel cost model) and
//! [`sia_snn::exit`] (confidence thresholds); this module is the CLI
//! veneer: where the files go, how policies are picked from flags, and the
//! CI validation modes (`--check`) that keep the committed smoke
//! calibrations loadable.

use crate::args::Args;
use sia_snn::calibrate::default_path;
use sia_snn::{default_exit_path, Calibration, ExitCalibration, ExitPolicy, KernelPolicy};
use std::path::{Path, PathBuf};

/// Directory the toolchain keeps calibration files in by default.
pub(crate) const CALIBRATION_DIR: &str = "results/calibration";

/// `sia calibrate [--smoke] [--out FILE] [--check FILE]`.
///
/// Without `--check`: runs the kernel micro-benchmark (`--smoke` shrinks
/// it to the CI configuration), fits the cost model and writes the
/// host-keyed calibration file (default
/// `results/calibration/<host_key>.json`, override with `--out`).
///
/// With `--check FILE`: no measurement — loads `FILE`, verifies the
/// format version, and verifies determinism (two loads of the same file
/// prescribe the identical policy). This is the CI gate over the
/// committed smoke calibration.
///
/// # Errors
///
/// Measurement never fails; saving, loading, or a failed `--check` does.
pub(crate) fn cmd_calibrate(args: &Args) -> Result<(), String> {
    if args.options.contains_key("exit") {
        return calibrate_exit(args);
    }
    if let Some(path) = args.options.get("check") {
        return check_file(Path::new(path));
    }
    let quick = args.switch("smoke");
    let cal = Calibration::measure(quick);
    let out = args
        .options
        .get("out")
        .map_or_else(|| default_path(Path::new(CALIBRATION_DIR)), PathBuf::from);
    cal.save(&out)?;
    let g = bench_geom();
    println!(
        "calibrated {} ({}): scatter {} ps/lane + {} ps/out, dense {} ps/lane",
        cal.host,
        if quick { "smoke" } else { "full" },
        cal.model.scatter_ps_per_lane,
        cal.model.scatter_ps_per_out,
        cal.model.dense_ps_per_lane,
    );
    println!(
        "scatter→dense crossover at {:.1}% density (32ch 16×16 k3); wrote {}",
        cal.model.crossover_density(&g) * 100.0,
        out.display()
    );
    Ok(())
}

/// Validates a calibration file: parse + version gate + deterministic
/// policy (identical decisions from two independent loads).
fn check_file(path: &Path) -> Result<(), String> {
    let a = Calibration::load(path)?;
    let b = Calibration::load(path)?;
    if a.policy() != b.policy() {
        return Err(format!(
            "{}: policy not deterministic across loads",
            path.display()
        ));
    }
    let g = bench_geom();
    let cross = a.model.crossover_density(&g);
    if !(0.0..=1.0).contains(&cross) {
        return Err(format!("{}: degenerate crossover {cross}", path.display()));
    }
    println!(
        "{}: ok (host {}, crossover {:.1}%)",
        path.display(),
        a.host,
        cross * 100.0
    );
    Ok(())
}

/// The geometry crossovers are reported against (the conv bench subject).
fn bench_geom() -> sia_tensor::Conv2dGeom {
    sia_tensor::Conv2dGeom {
        in_channels: 32,
        out_channels: 32,
        in_h: 16,
        in_w: 16,
        kernel: 3,
        stride: 1,
        padding: 1,
    }
}

/// `sia calibrate --exit <model.sia>`: fits early-exit confidence
/// thresholds on held-out data and writes
/// `results/calibration/exit.json` (override with `--out`).
///
/// The calibration set is the *training* split of the synthetic dataset —
/// disjoint from the test split `sia eval` scores — replayed at fixed T on
/// the integer backend. Because the chunked driver is bit-exact, replaying
/// the fixed-T logit trajectories under candidate thresholds reproduces
/// exactly what an adaptive run would have computed, so the whole
/// threshold grid costs one fixed-T pass.
fn calibrate_exit(args: &Args) -> Result<(), String> {
    let exit_value = args.str_or("exit", "true");
    let path = if exit_value == "true" {
        args.positional
            .first()
            .cloned()
            .ok_or("usage: sia calibrate --exit <model.sia>")?
    } else {
        exit_value
    };
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
            let cal = ExitCalibration::load(&path).map_err(|e| {
                format!("--policy calibrated: {e} (run `sia calibrate --exit` first)")
            })?;
            Ok(cal.margin_policy())
        }
        Some(other) => Err(format!(
            "--policy '{other}' unknown (fixed|margin|entropy|calibrated)"
        )),
    }
}

/// Resolves the psum kernel policy from `--kernel-policy
/// auto|sparse|dense|calibrated` and `--calibration PATH`.
///
/// With no flags, a calibration measured on this host is auto-loaded from
/// `results/calibration/<host_key>.json` when present (falling back to
/// the cost model's default coefficients); `--kernel-policy auto` skips
/// the auto-load; `calibrated` makes a loadable file mandatory.
///
/// # Errors
///
/// Unknown policy names; `calibrated` without a loadable file; an
/// explicit `--calibration` file that fails to load or was measured on a
/// different host.
pub(crate) fn resolve_policy(args: &Args) -> Result<KernelPolicy, String> {
    let explicit = args.options.get("calibration");
    let load_explicit = |path: &String| -> Result<Calibration, String> {
        let cal = Calibration::load(Path::new(path))?;
        if !cal.matches_host() {
            return Err(format!(
                "{path}: calibrated for host '{}', this host is '{}' (re-run `sia calibrate`)",
                cal.host,
                sia_snn::host_key()
            ));
        }
        Ok(cal)
    };
    match args.options.get("kernel-policy").map(String::as_str) {
        Some("sparse") => Ok(KernelPolicy::ForceSparse),
        Some("dense") => Ok(KernelPolicy::ForceDense),
        Some("auto") => Ok(KernelPolicy::Auto),
        Some("calibrated") => match explicit {
            Some(path) => Ok(load_explicit(path)?.policy()),
            None => {
                let path = default_path(Path::new(CALIBRATION_DIR));
                let cal = Calibration::load(&path).map_err(|e| {
                    format!("--kernel-policy calibrated: {e} (run `sia calibrate` first)")
                })?;
                Ok(cal.policy())
            }
        },
        Some(other) => Err(format!(
            "--kernel-policy '{other}' unknown (auto|sparse|dense|calibrated)"
        )),
        None => {
            if let Some(path) = explicit {
                return Ok(load_explicit(path)?.policy());
            }
            // Opportunistic: use a previously measured calibration for
            // this host when one exists, the default coefficients
            // otherwise.
            let path = default_path(Path::new(CALIBRATION_DIR));
            match Calibration::load(&path) {
                Ok(cal) if cal.matches_host() => Ok(cal.policy()),
                _ => Ok(KernelPolicy::Auto),
            }
        }
    }
}
