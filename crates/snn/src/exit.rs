//! Confidence-gated early exit: stop integrating timesteps once the head
//! logits are decisive (SEENN/ASTER direction, ROADMAP item 2).
//!
//! The driver is layer-major, so exit decisions happen at **chunk
//! boundaries**: the traversal runs every layer over a window of `W`
//! timesteps, reads the head logits at the boundary, and stops the run if
//! the configured [`ExitPolicy`] is confident. [`ExitPolicy::Fixed`] keeps
//! the exact pre-exit behaviour (one chunk spanning the whole run), and an
//! adaptive policy with an unreachable threshold is bit-identical to it —
//! chunking never changes arithmetic, only how far the run integrates.
//!
//! Thresholds are calibrated on held-out data (`sia calibrate --exit`):
//! [`ExitCalibration::fit`] replays the per-timestep logits of a fixed-T
//! run, simulates every candidate threshold post-hoc (valid because the
//! chunked traversal is bit-exact, so prefix logits match), and picks the
//! threshold minimising average T subject to an accuracy floor. The result
//! persists next to the kernel calibration JSON
//! (`results/calibration/exit.json`), versioned like
//! [`crate::calibrate::Calibration`].

use std::path::{Path, PathBuf};

/// When to stop integrating timesteps for an image.
///
/// Decisions are evaluated on the head's time-averaged logits at chunk
/// boundaries only, and never before `burn_in` timesteps have been
/// integrated, so burn-in noise cannot trigger an exit.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ExitPolicy {
    /// Run all requested timesteps — exact pre-exit driver behaviour.
    Fixed,
    /// Exit once `top1 − top2` of the logits reaches `threshold`.
    Margin {
        /// Minimum logit gap between the best and runner-up class.
        threshold: f32,
        /// Chunk width in timesteps between exit checks (≥ 1).
        window: usize,
    },
    /// Exit once the normalised softmax entropy falls to `threshold`.
    Entropy {
        /// Maximum normalised entropy (0 = one-hot, 1 = uniform).
        threshold: f32,
        /// Chunk width in timesteps between exit checks (≥ 1).
        window: usize,
    },
}

impl ExitPolicy {
    /// Whether this policy can ever end a run before the requested T.
    #[must_use]
    pub fn is_adaptive(self) -> bool {
        !matches!(self, ExitPolicy::Fixed)
    }

    /// Short policy name for flags, telemetry, and reports.
    #[must_use]
    pub fn kind(self) -> &'static str {
        match self {
            ExitPolicy::Fixed => "fixed",
            ExitPolicy::Margin { .. } => "margin",
            ExitPolicy::Entropy { .. } => "entropy",
        }
    }

    /// The confidence threshold, or `None` for [`ExitPolicy::Fixed`].
    #[must_use]
    pub fn threshold(self) -> Option<f32> {
        match self {
            ExitPolicy::Fixed => None,
            ExitPolicy::Margin { threshold, .. } | ExitPolicy::Entropy { threshold, .. } => {
                Some(threshold)
            }
        }
    }

    /// Timesteps per traversal chunk for a run of `timesteps`: the whole
    /// run for [`ExitPolicy::Fixed`], else the policy window clamped to
    /// `[1, timesteps]`.
    #[must_use]
    pub fn chunk_window(self, timesteps: usize) -> usize {
        match self {
            ExitPolicy::Fixed => timesteps.max(1),
            ExitPolicy::Margin { window, .. } | ExitPolicy::Entropy { window, .. } => {
                window.clamp(1, timesteps.max(1))
            }
        }
    }

    /// Whether the logits are decisive under this policy.
    #[must_use]
    pub fn confident(self, logits: &[f32]) -> bool {
        match self {
            ExitPolicy::Fixed => false,
            ExitPolicy::Margin { threshold, .. } => logit_margin(logits) >= threshold,
            ExitPolicy::Entropy { threshold, .. } => normalized_entropy(logits) <= threshold,
        }
    }
}

/// Gap between the two largest logits (0 when fewer than two classes, so a
/// degenerate head never triggers an exit).
#[must_use]
pub fn logit_margin(logits: &[f32]) -> f32 {
    if logits.len() < 2 {
        return 0.0;
    }
    let (mut top, mut second) = (f32::NEG_INFINITY, f32::NEG_INFINITY);
    for &v in logits {
        if v > top {
            second = top;
            top = v;
        } else if v > second {
            second = v;
        }
    }
    top - second
}

/// Softmax entropy normalised to `[0, 1]` by `ln(classes)` — 0 for a
/// one-hot distribution, 1 for uniform. Computed in `f64` with the usual
/// max-subtraction so it is stable for saturated INT8-scale logits.
#[must_use]
pub fn normalized_entropy(logits: &[f32]) -> f32 {
    let n = logits.len();
    if n < 2 {
        return 0.0;
    }
    let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0f64;
    let mut dot = 0.0f64;
    for &v in logits {
        let d = f64::from(v - max);
        let e = d.exp();
        sum += e;
        dot += e * d;
    }
    let h = sum.ln() - dot / sum;
    let norm = h / (n as f64).ln();
    norm.clamp(0.0, 1.0) as f32
}

/// The driver's exit predicate: true when a run of `timesteps` total
/// timesteps with the given `burn_in` should stop after the chunk ending
/// at absolute timestep `t1` (exclusive), given that chunk's final logits.
///
/// Shared by [`crate::runner::drive_policy`] and the calibration
/// simulator so the two can never disagree.
#[must_use]
pub fn should_exit(
    policy: ExitPolicy,
    logits: &[f32],
    t1: usize,
    timesteps: usize,
    burn_in: usize,
) -> bool {
    policy.is_adaptive() && t1 < timesteps && t1 > burn_in && policy.confident(logits)
}

/// Replays a fixed-T run's per-timestep logits under `policy` and returns
/// the number of timesteps the chunked driver would execute.
#[must_use]
pub fn simulate_exit(policy: ExitPolicy, logits_per_t: &[Vec<f32>], burn_in: usize) -> usize {
    let timesteps = logits_per_t.len();
    if !policy.is_adaptive() || timesteps == 0 {
        return timesteps;
    }
    let w = policy.chunk_window(timesteps);
    let mut t1 = w.min(timesteps);
    loop {
        if should_exit(policy, &logits_per_t[t1 - 1], t1, timesteps, burn_in) {
            return t1;
        }
        if t1 >= timesteps {
            return timesteps;
        }
        t1 = (t1 + w).min(timesteps);
    }
}

/// Exit-calibration file format version; any other version is rejected on
/// load (re-run `sia calibrate --exit`).
pub const EXIT_CALIBRATION_VERSION: u64 = 1;

/// Default exit-calibration file under `dir` (the repo convention is
/// `results/calibration/`, next to the kernel calibration).
#[must_use]
pub fn default_exit_path(dir: &Path) -> PathBuf {
    dir.join("exit.json")
}

/// Thresholds fitted on held-out data, with the measured operating points
/// kept as provenance. Margin and entropy are both fitted so `--policy
/// calibrated` can pick the margin variant (the better-behaved of the two
/// on quantised logits) while the file still documents the alternative.
#[derive(Clone, Debug, PartialEq)]
pub struct ExitCalibration {
    /// File format version ([`EXIT_CALIBRATION_VERSION`]).
    pub version: u64,
    /// Model the thresholds were fitted for (name or path stem).
    pub model: String,
    /// Requested timesteps of the calibration runs.
    pub timesteps: usize,
    /// Burn-in of the calibration runs.
    pub burn_in: usize,
    /// Chunk window the thresholds were fitted at.
    pub window: usize,
    /// Accuracy drop budget the fit enforced (fraction, e.g. 0.01).
    pub max_acc_drop: f64,
    /// Fixed-T accuracy on the calibration set.
    pub fixed_accuracy: f64,
    /// Fitted [`ExitPolicy::Margin`] threshold.
    pub margin_threshold: f32,
    /// Calibration-set accuracy at the fitted margin threshold.
    pub margin_accuracy: f64,
    /// Calibration-set average executed T at the fitted margin threshold.
    pub margin_avg_t: f64,
    /// Fitted [`ExitPolicy::Entropy`] threshold.
    pub entropy_threshold: f32,
    /// Calibration-set accuracy at the fitted entropy threshold.
    pub entropy_accuracy: f64,
    /// Calibration-set average executed T at the fitted entropy threshold.
    pub entropy_avg_t: f64,
}

/// One calibration operating point: accuracy and average T at a threshold.
#[derive(Clone, Copy, Debug, PartialEq)]
struct OperatingPoint {
    threshold: f32,
    accuracy: f64,
    avg_t: f64,
}

impl ExitCalibration {
    /// The margin policy this calibration prescribes (the variant
    /// `--policy calibrated` runs).
    #[must_use]
    pub fn margin_policy(&self) -> ExitPolicy {
        ExitPolicy::Margin {
            threshold: self.margin_threshold,
            window: self.window,
        }
    }

    /// Fits margin and entropy thresholds from fixed-T logit trajectories.
    ///
    /// `runs[i]` is image `i`'s `logits_per_t` from a fixed-T run and
    /// `labels[i]` its ground truth. For each policy family the fit
    /// simulates a grid of candidate thresholds drawn from the observed
    /// confidence values and keeps the one minimising average executed T
    /// subject to `accuracy ≥ fixed_accuracy − max_acc_drop`. The
    /// never-exit threshold is always a candidate, so the fit cannot fail
    /// to find a feasible point.
    ///
    /// # Panics
    ///
    /// Panics if `runs` is empty, lengths mismatch, or any run has fewer
    /// timesteps than another.
    #[must_use]
    pub fn fit(
        runs: &[Vec<Vec<f32>>],
        labels: &[usize],
        burn_in: usize,
        window: usize,
        max_acc_drop: f64,
        model: &str,
    ) -> ExitCalibration {
        assert!(!runs.is_empty(), "exit calibration needs at least one run");
        assert_eq!(runs.len(), labels.len(), "runs/labels length mismatch");
        let timesteps = runs[0].len();
        assert!(
            runs.iter().all(|r| r.len() == timesteps),
            "exit calibration runs must share a timestep count"
        );
        let window = window.clamp(1, timesteps.max(1));

        let correct: Vec<bool> = runs
            .iter()
            .zip(labels)
            .map(|(r, &l)| pred(&r[timesteps - 1]) == l)
            .collect();
        let fixed_accuracy = correct.iter().filter(|&&c| c).count() as f64 / runs.len() as f64;
        let floor = fixed_accuracy - max_acc_drop;

        let margin = fit_family(
            runs,
            labels,
            burn_in,
            floor,
            &candidate_grid(
                runs,
                burn_in,
                window,
                timesteps,
                logit_margin,
                f32::INFINITY,
            ),
            |t| ExitPolicy::Margin {
                threshold: t,
                window,
            },
            // Prefer the larger (stricter) threshold on ties.
            true,
        );
        let entropy = fit_family(
            runs,
            labels,
            burn_in,
            floor,
            &candidate_grid(runs, burn_in, window, timesteps, normalized_entropy, -1.0),
            |t| ExitPolicy::Entropy {
                threshold: t,
                window,
            },
            // Prefer the smaller (stricter) threshold on ties.
            false,
        );

        ExitCalibration {
            version: EXIT_CALIBRATION_VERSION,
            model: model.to_string(),
            timesteps,
            burn_in,
            window,
            max_acc_drop,
            fixed_accuracy,
            margin_threshold: margin.threshold,
            margin_accuracy: margin.accuracy,
            margin_avg_t: margin.avg_t,
            entropy_threshold: entropy.threshold,
            entropy_accuracy: entropy.accuracy,
            entropy_avg_t: entropy.avg_t,
        }
    }

    /// Serializes to the versioned JSON file format (stable field order).
    #[must_use]
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(out, "{{\n  \"version\": {},\n  \"model\": ", self.version);
        sia_telemetry::json::write_escaped(&mut out, &self.model);
        let _ = write!(
            out,
            ",\n  \"timesteps\": {},\n  \"burn_in\": {},\n  \"window\": {},\n  \"max_acc_drop\": ",
            self.timesteps, self.burn_in, self.window
        );
        sia_telemetry::json::write_f64(&mut out, self.max_acc_drop);
        out.push_str(",\n  \"fixed_accuracy\": ");
        sia_telemetry::json::write_f64(&mut out, self.fixed_accuracy);
        out.push_str(",\n  \"margin\": {\"threshold\": ");
        sia_telemetry::json::write_f64(&mut out, f64::from(self.margin_threshold));
        out.push_str(", \"accuracy\": ");
        sia_telemetry::json::write_f64(&mut out, self.margin_accuracy);
        out.push_str(", \"avg_t\": ");
        sia_telemetry::json::write_f64(&mut out, self.margin_avg_t);
        out.push_str("},\n  \"entropy\": {\"threshold\": ");
        sia_telemetry::json::write_f64(&mut out, f64::from(self.entropy_threshold));
        out.push_str(", \"accuracy\": ");
        sia_telemetry::json::write_f64(&mut out, self.entropy_accuracy);
        out.push_str(", \"avg_t\": ");
        sia_telemetry::json::write_f64(&mut out, self.entropy_avg_t);
        out.push_str("}\n}\n");
        out
    }

    /// Parses the JSON file format, rejecting unknown versions.
    ///
    /// # Errors
    ///
    /// Malformed JSON, missing fields, or a version mismatch.
    pub fn from_json(text: &str) -> Result<ExitCalibration, String> {
        use sia_telemetry::json::Json;
        let root = sia_telemetry::json::parse(text)?;
        let version = root
            .get("version")
            .and_then(Json::as_u64)
            .ok_or("exit calibration missing 'version'")?;
        if version != EXIT_CALIBRATION_VERSION {
            return Err(format!(
                "exit calibration version {version} unsupported (expected {EXIT_CALIBRATION_VERSION}); re-run `sia calibrate --exit`"
            ));
        }
        let model = root
            .get("model")
            .and_then(Json::as_str)
            .ok_or("exit calibration missing 'model'")?
            .to_string();
        let usize_field = |name: &str| -> Result<usize, String> {
            root.get(name)
                .and_then(Json::as_u64)
                .and_then(|v| usize::try_from(v).ok())
                .ok_or_else(|| format!("exit calibration missing '{name}'"))
        };
        let f64_field = |obj: &Json, name: &str| -> Result<f64, String> {
            obj.get(name)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("exit calibration missing '{name}'"))
        };
        let margin = root
            .get("margin")
            .ok_or("exit calibration missing 'margin'")?;
        let entropy = root
            .get("entropy")
            .ok_or("exit calibration missing 'entropy'")?;
        Ok(ExitCalibration {
            version,
            model,
            timesteps: usize_field("timesteps")?,
            burn_in: usize_field("burn_in")?,
            window: usize_field("window")?,
            max_acc_drop: f64_field(&root, "max_acc_drop")?,
            fixed_accuracy: f64_field(&root, "fixed_accuracy")?,
            margin_threshold: f64_field(margin, "threshold")? as f32,
            margin_accuracy: f64_field(margin, "accuracy")?,
            margin_avg_t: f64_field(margin, "avg_t")?,
            entropy_threshold: f64_field(entropy, "threshold")? as f32,
            entropy_accuracy: f64_field(entropy, "accuracy")?,
            entropy_avg_t: f64_field(entropy, "avg_t")?,
        })
    }

    /// Loads and parses an exit-calibration file.
    ///
    /// # Errors
    ///
    /// I/O failure or any [`ExitCalibration::from_json`] error.
    pub fn load(path: &Path) -> Result<ExitCalibration, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        ExitCalibration::from_json(&text)
    }

    /// Writes the exit-calibration file, creating parent directories.
    ///
    /// # Errors
    ///
    /// I/O failure.
    pub fn save(&self, path: &Path) -> Result<(), String> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
        }
        std::fs::write(path, self.to_json()).map_err(|e| format!("write {}: {e}", path.display()))
    }
}

fn pred(logits: &[f32]) -> usize {
    let mut best = 0;
    for (i, &v) in logits.iter().enumerate() {
        if v > logits[best] {
            best = i;
        }
    }
    best
}

/// Confidence values observed at every eligible chunk boundary, thinned to
/// a grid of candidate thresholds; `never` is the value that can never
/// trigger an exit (the guaranteed-feasible fallback).
fn candidate_grid(
    runs: &[Vec<Vec<f32>>],
    burn_in: usize,
    window: usize,
    timesteps: usize,
    score: impl Fn(&[f32]) -> f32,
    never: f32,
) -> Vec<f32> {
    let mut seen = Vec::new();
    for r in runs {
        let mut t1 = window.min(timesteps);
        while t1 < timesteps {
            if t1 > burn_in {
                seen.push(score(&r[t1 - 1]));
            }
            t1 = (t1 + window).min(timesteps);
            if t1 == timesteps {
                break;
            }
        }
    }
    seen.retain(|v| v.is_finite());
    seen.sort_by(f32::total_cmp);
    seen.dedup();
    const MAX_CANDIDATES: usize = 64;
    let mut grid: Vec<f32> = if seen.len() > MAX_CANDIDATES {
        (0..MAX_CANDIDATES)
            .map(|i| seen[i * (seen.len() - 1) / (MAX_CANDIDATES - 1)])
            .collect()
    } else {
        seen
    };
    grid.push(never);
    grid.dedup();
    grid
}

/// Evaluates each candidate threshold for one policy family and keeps the
/// feasible point with the lowest average T (ties: higher accuracy, then
/// the stricter threshold per `prefer_larger`).
fn fit_family(
    runs: &[Vec<Vec<f32>>],
    labels: &[usize],
    burn_in: usize,
    floor: f64,
    candidates: &[f32],
    make: impl Fn(f32) -> ExitPolicy,
    prefer_larger: bool,
) -> OperatingPoint {
    let mut best: Option<OperatingPoint> = None;
    for &threshold in candidates {
        let policy = make(threshold);
        let (mut hits, mut total_t) = (0usize, 0usize);
        for (r, &label) in runs.iter().zip(labels) {
            let t = simulate_exit(policy, r, burn_in);
            total_t += t;
            if pred(&r[t - 1]) == label {
                hits += 1;
            }
        }
        let point = OperatingPoint {
            threshold,
            accuracy: hits as f64 / runs.len() as f64,
            avg_t: total_t as f64 / runs.len() as f64,
        };
        if point.accuracy + 1e-12 < floor {
            continue;
        }
        let better = match best {
            None => true,
            Some(b) => {
                point.avg_t < b.avg_t - 1e-12
                    || (point.avg_t < b.avg_t + 1e-12
                        && (point.accuracy > b.accuracy + 1e-12
                            || (point.accuracy > b.accuracy - 1e-12
                                && (prefer_larger == (point.threshold > b.threshold)))))
            }
        };
        if better {
            best = Some(point);
        }
    }
    best.expect("never-exit candidate is always feasible")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn margin_is_top1_minus_top2() {
        assert!((logit_margin(&[3.0, 1.0, 2.5]) - 0.5).abs() < 1e-6);
        assert_eq!(logit_margin(&[7.0]), 0.0);
    }

    #[test]
    fn entropy_spans_zero_to_one() {
        let uniform = normalized_entropy(&[1.0, 1.0, 1.0, 1.0]);
        assert!((uniform - 1.0).abs() < 1e-5, "{uniform}");
        let peaked = normalized_entropy(&[100.0, 0.0, 0.0, 0.0]);
        assert!(peaked < 1e-5, "{peaked}");
    }

    #[test]
    fn fixed_policy_never_confident() {
        assert!(!ExitPolicy::Fixed.confident(&[100.0, 0.0]));
        assert!(!ExitPolicy::Fixed.is_adaptive());
        assert_eq!(ExitPolicy::Fixed.chunk_window(8), 8);
    }

    #[test]
    fn should_exit_respects_burn_in_and_final_step() {
        let p = ExitPolicy::Margin {
            threshold: 0.5,
            window: 1,
        };
        let decisive = [10.0, 0.0];
        assert!(!should_exit(p, &decisive, 2, 8, 3), "inside burn-in");
        assert!(should_exit(p, &decisive, 4, 8, 3));
        assert!(!should_exit(p, &decisive, 8, 8, 3), "already final step");
    }

    #[test]
    fn unreachable_threshold_never_exits_in_simulation() {
        let p = ExitPolicy::Margin {
            threshold: f32::INFINITY,
            window: 2,
        };
        let rows = vec![vec![9.0, 0.0]; 8];
        assert_eq!(simulate_exit(p, &rows, 0), 8);
    }

    #[test]
    fn simulation_exits_at_first_confident_boundary() {
        let p = ExitPolicy::Margin {
            threshold: 1.0,
            window: 2,
        };
        // Decisive from t=3 onwards: first confident boundary is t1=4.
        let mut rows = vec![vec![0.0, 0.0]; 8];
        for row in rows.iter_mut().skip(3) {
            *row = vec![5.0, 0.0];
        }
        assert_eq!(simulate_exit(p, &rows, 0), 4);
    }

    fn toy_runs() -> (Vec<Vec<Vec<f32>>>, Vec<usize>) {
        // Three images over T=4, two classes. Image 0 is decisive early and
        // correct; image 1 becomes decisive late; image 2 is always wrong.
        let easy = vec![
            vec![2.0, 0.0],
            vec![3.0, 0.0],
            vec![3.0, 0.0],
            vec![3.0, 0.0],
        ];
        let late = vec![
            vec![0.1, 0.0],
            vec![0.2, 0.1],
            vec![1.5, 0.2],
            vec![2.0, 0.2],
        ];
        let wrong = vec![
            vec![0.0, 2.0],
            vec![0.0, 2.0],
            vec![0.0, 2.0],
            vec![0.0, 2.0],
        ];
        (vec![easy, late, wrong], vec![0, 0, 0])
    }

    #[test]
    fn fit_recovers_an_early_exit_without_accuracy_loss() {
        let (runs, labels) = toy_runs();
        let cal = ExitCalibration::fit(&runs, &labels, 0, 1, 0.0, "toy");
        assert!((cal.fixed_accuracy - 2.0 / 3.0).abs() < 1e-9);
        assert!(cal.margin_accuracy + 1e-12 >= cal.fixed_accuracy);
        assert!(cal.margin_avg_t < 4.0, "found no early exit: {cal:?}");
        let t = simulate_exit(cal.margin_policy(), &runs[0], 0);
        assert!(t < 4, "easy image should exit early, got {t}");
    }

    #[test]
    fn exit_calibration_json_round_trips() {
        let (runs, labels) = toy_runs();
        let cal = ExitCalibration::fit(&runs, &labels, 1, 2, 0.01, "toy");
        let back = ExitCalibration::from_json(&cal.to_json()).unwrap();
        assert_eq!(back, cal);
        assert_eq!(back.margin_policy(), cal.margin_policy());
    }

    #[test]
    fn exit_calibration_version_mismatch_rejected() {
        let (runs, labels) = toy_runs();
        let text = ExitCalibration::fit(&runs, &labels, 0, 1, 0.0, "toy")
            .to_json()
            .replace("\"version\": 1", "\"version\": 9");
        let err = ExitCalibration::from_json(&text).unwrap_err();
        assert!(err.contains("version 9"), "{err}");
    }
}
