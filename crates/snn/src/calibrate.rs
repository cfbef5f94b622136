//! Measured-per-host kernel auto-tuning for the spiking conv kernels.
//!
//! The scatter-vs-dense crossover depends on how well the host's SIMD
//! units run each kernel, so the coefficients [`KernelPolicy::Auto`]
//! decides with ([`CostModel::DEFAULT`], fitted on one reference host) are
//! at best approximately right elsewhere. This module runs a short one-time
//! micro-benchmark of the two production kernels
//! ([`Calibration::measure`]), fits the three [`CostModel`] coefficients,
//! and persists them to a **host-keyed, versioned** JSON file. `sia eval` /
//! `sia serve` load that file on start-up and run
//! [`KernelPolicy::Calibrated`]; `--kernel-policy` overrides it.
//!
//! Either way the model only decides layers where the tiled kernel's fast
//! path runs ([`crate::sparse::tiled_is_candidate`]); each such layer's
//! engine entry fixes the decision once, as a crossover spike count.
//!
//! Determinism contract: the policy derived from a calibration *file* is a
//! pure function of the file's coefficients (integer picoseconds — no
//! float drift), so two loads of the same file always make identical
//! per-call kernel decisions. The measurement itself is timing-based and
//! may fit slightly different coefficients run to run; that only moves the
//! crossover, never correctness (every kernel is bit-exact).

use crate::network::{ConvInput, NeuronMode, SnnConv};
use crate::sparse::KernelPolicy;
use crate::sparse::{
    conv_psums_int_scatter, conv_psums_int_tiled, dense_padded_outs, scatter_lane_span,
    ConvScratch, CostModel,
};
use crate::spikeplane::SpikePlane;
use sia_fixed::{QuantScale, Q8_8};
use sia_tensor::Conv2dGeom;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Calibration file format version; files with any other version are
/// rejected on load (re-run `sia calibrate`).
pub const CALIBRATION_VERSION: u64 = 1;

/// The key identifying the host a calibration was measured on:
/// `<arch>-<os>-<n>cpu`. Deterministic for a given machine and build.
#[must_use]
pub fn host_key() -> String {
    let cpus = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    format!(
        "{}-{}-{}cpu",
        std::env::consts::ARCH,
        std::env::consts::OS,
        cpus
    )
}

/// Default calibration file location for this host, under `dir` (the
/// repo's convention is `results/calibration/`).
#[must_use]
pub fn default_path(dir: &Path) -> PathBuf {
    dir.join(format!("{}.json", host_key()))
}

/// One raw timing the fit consumed, kept in the file as an audit trail.
#[derive(Clone, Debug, PartialEq)]
pub struct CalSample {
    /// Which kernel was timed (`"scatter"` or `"dense"`).
    pub kind: String,
    /// Geometry label, e.g. `c32s16k3`.
    pub geom: String,
    /// Spike density of the timed plane, percent.
    pub density_pct: f64,
    /// Min-of-iters wall time, nanoseconds.
    pub min_ns: u64,
}

/// A fitted per-host calibration: the [`CostModel`] plus provenance.
#[derive(Clone, Debug, PartialEq)]
pub struct Calibration {
    /// File format version ([`CALIBRATION_VERSION`]).
    pub version: u64,
    /// Host key the measurement ran on ([`host_key`]).
    pub host: String,
    /// The fitted coefficients — everything policy decisions depend on.
    pub model: CostModel,
    /// Raw timings behind the fit (audit trail; not used in decisions).
    pub samples: Vec<CalSample>,
}

impl Calibration {
    /// The kernel policy this calibration prescribes.
    #[must_use]
    pub fn policy(&self) -> KernelPolicy {
        KernelPolicy::Calibrated(self.model)
    }

    /// Whether this calibration was measured on the current host.
    #[must_use]
    pub fn matches_host(&self) -> bool {
        self.host == host_key()
    }

    /// Runs the micro-benchmark and fits the cost model. `quick` shrinks
    /// the channel count and iteration count (the CI smoke configuration:
    /// the deployed 8-channel 16×16 stage); either way this takes well
    /// under a second. Both geometries are 16 columns wide at stride 1, so
    /// the dense timing is the tiled kernel's fast path — the only path
    /// the fitted model ever weighs against the scatter.
    #[must_use]
    pub fn measure(quick: bool) -> Calibration {
        let (ch, hw, iters) = if quick { (8, 16, 5) } else { (32, 16, 40) };
        let conv = calib_conv(ch, hw);
        let g = conv.geom;
        let geom_label = format!("c{ch}s{hw}k{}", g.kernel);
        let n_in = ch * hw * hw;
        let (oh, ow) = g.out_hw();
        let n_out = ch * oh * ow;
        let k2 = (g.kernel * g.kernel) as u64;

        // Two scatter densities bracket the slope; one dense timing
        // suffices because the tiled kernel is density-independent.
        let lo_pct = 12.5;
        let hi_pct = 50.0;
        let plane_lo = calib_plane(ch, hw, lo_pct, 0x5EED);
        let plane_hi = calib_plane(ch, hw, hi_pct, 0xCAFE);
        let mut scr = ConvScratch::new();

        // Warm each kernel once, then interleave the timed iterations so
        // cache and frequency state is comparable across kernels.
        let _ = conv_psums_int_scatter(&conv, &plane_lo, &mut scr, 0);
        let _ = conv_psums_int_scatter(&conv, &plane_hi, &mut scr, 0);
        let _ = conv_psums_int_tiled(&conv, &plane_hi, &mut scr, 0);
        let (mut t_lo, mut t_hi, mut t_dense) = (u64::MAX, u64::MAX, u64::MAX);
        for _ in 0..iters {
            t_lo = t_lo.min(time_ns(|| {
                let _ = conv_psums_int_scatter(&conv, &plane_lo, &mut scr, 0);
            }));
            t_hi = t_hi.min(time_ns(|| {
                let _ = conv_psums_int_scatter(&conv, &plane_hi, &mut scr, 0);
            }));
            t_dense = t_dense.min(time_ns(|| {
                let _ = conv_psums_int_tiled(&conv, &plane_hi, &mut scr, 0);
            }));
        }

        let spikes_lo = plane_lo.count_ones();
        let spikes_hi = plane_hi.count_ones();
        // Lane counts must mirror the padded-block geometry the CostModel
        // multiplies by (scatter_lane_span / dense_padded_outs) so the
        // fitted ps-per-lane divides by exactly what decisions multiply by.
        let lane_span = scatter_lane_span(g.out_channels) as u64;
        let lanes = |spikes: u64| spikes * k2 * lane_span;
        // Fit ps-per-lane from the slope between the two densities, the
        // fixed overhead from the intercept, and the dense lane cost
        // directly. Clamp everything into sane integer ranges so a noisy
        // measurement can never produce a degenerate model.
        let dlanes = lanes(spikes_hi).saturating_sub(lanes(spikes_lo)).max(1);
        let slope_ps = (t_hi.saturating_sub(t_lo) as f64 * 1000.0) / dlanes as f64;
        let scatter_ps_per_lane = clamp_ps(slope_ps);
        let intercept_ps = (t_lo as f64 * 1000.0) - slope_ps * lanes(spikes_lo) as f64;
        let scatter_ps_per_out = clamp_ps(intercept_ps / (2.0 * n_out as f64));
        let dense_lanes = (dense_padded_outs(&g) * ch) as u64 * k2;
        let dense_ps_per_lane = clamp_ps(t_dense as f64 * 1000.0 / dense_lanes as f64);

        let sample = |kind: &str, pct: f64, min_ns: u64| CalSample {
            kind: kind.to_string(),
            geom: geom_label.clone(),
            density_pct: pct,
            min_ns,
        };
        Calibration {
            version: CALIBRATION_VERSION,
            host: host_key(),
            model: CostModel {
                scatter_ps_per_lane,
                scatter_ps_per_out,
                dense_ps_per_lane,
            },
            samples: vec![
                sample("scatter", spikes_lo as f64 * 100.0 / n_in as f64, t_lo),
                sample("scatter", spikes_hi as f64 * 100.0 / n_in as f64, t_hi),
                sample("dense", hi_pct, t_dense),
            ],
        }
    }

    /// Serializes to the versioned JSON file format (stable field order).
    #[must_use]
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(out, "{{\n  \"version\": {},\n  \"host\": ", self.version);
        sia_telemetry::json::write_escaped(&mut out, &self.host);
        let _ = write!(
            out,
            ",\n  \"model\": {{\"scatter_ps_per_lane\": {}, \"scatter_ps_per_out\": {}, \"dense_ps_per_lane\": {}}},\n  \"samples\": [",
            self.model.scatter_ps_per_lane, self.model.scatter_ps_per_out, self.model.dense_ps_per_lane
        );
        for (i, s) in self.samples.iter().enumerate() {
            out.push_str(if i == 0 { "\n    " } else { ",\n    " });
            out.push_str("{\"kind\": ");
            sia_telemetry::json::write_escaped(&mut out, &s.kind);
            out.push_str(", \"geom\": ");
            sia_telemetry::json::write_escaped(&mut out, &s.geom);
            let _ = write!(out, ", \"density_pct\": ");
            sia_telemetry::json::write_f64(&mut out, s.density_pct);
            let _ = write!(out, ", \"min_ns\": {}}}", s.min_ns);
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Parses the JSON file format, rejecting unknown versions.
    ///
    /// # Errors
    ///
    /// Malformed JSON, missing fields, or a version mismatch.
    pub fn from_json(text: &str) -> Result<Calibration, String> {
        let root = sia_telemetry::json::parse(text)?;
        let version = root
            .get("version")
            .and_then(sia_telemetry::json::Json::as_u64)
            .ok_or("calibration file missing 'version'")?;
        if version != CALIBRATION_VERSION {
            return Err(format!(
                "calibration version {version} unsupported (expected {CALIBRATION_VERSION}); re-run `sia calibrate`"
            ));
        }
        let host = root
            .get("host")
            .and_then(sia_telemetry::json::Json::as_str)
            .ok_or("calibration file missing 'host'")?
            .to_string();
        let model = root
            .get("model")
            .ok_or("calibration file missing 'model'")?;
        let coeff = |name: &str| -> Result<u32, String> {
            let v = model
                .get(name)
                .and_then(sia_telemetry::json::Json::as_u64)
                .ok_or_else(|| format!("calibration model missing '{name}'"))?;
            u32::try_from(v).map_err(|_| format!("calibration '{name}' out of range"))
        };
        let model = CostModel {
            scatter_ps_per_lane: coeff("scatter_ps_per_lane")?,
            scatter_ps_per_out: coeff("scatter_ps_per_out")?,
            dense_ps_per_lane: coeff("dense_ps_per_lane")?,
        };
        let mut samples = Vec::new();
        if let Some(sia_telemetry::json::Json::Arr(items)) = root.get("samples") {
            for s in items {
                samples.push(CalSample {
                    kind: s
                        .get("kind")
                        .and_then(sia_telemetry::json::Json::as_str)
                        .unwrap_or_default()
                        .to_string(),
                    geom: s
                        .get("geom")
                        .and_then(sia_telemetry::json::Json::as_str)
                        .unwrap_or_default()
                        .to_string(),
                    density_pct: s
                        .get("density_pct")
                        .and_then(sia_telemetry::json::Json::as_f64)
                        .unwrap_or_default(),
                    min_ns: s
                        .get("min_ns")
                        .and_then(sia_telemetry::json::Json::as_u64)
                        .unwrap_or_default(),
                });
            }
        }
        Ok(Calibration {
            version,
            host,
            model,
            samples,
        })
    }

    /// Loads and parses a calibration file.
    ///
    /// # Errors
    ///
    /// I/O failure or any [`Calibration::from_json`] error.
    pub fn load(path: &Path) -> Result<Calibration, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        Calibration::from_json(&text)
    }

    /// Writes the calibration file, creating parent directories.
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

/// Coefficients live in `[1, u32::MAX]` ps: at least one picosecond so no
/// cost ever models as free, saturated at the top so casts cannot wrap.
fn clamp_ps(ps: f64) -> u32 {
    if ps.is_nan() {
        return 1;
    }
    ps.round().clamp(1.0, f64::from(u32::MAX)) as u32
}

fn time_ns(mut f: impl FnMut()) -> u64 {
    let t = Instant::now();
    f();
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A synthetic 3×3/s1/p1 conv with deterministic full-range weights — the
/// micro-benchmark subject (square channel counts in = out).
fn calib_conv(ch: usize, hw: usize) -> SnnConv {
    let geom = Conv2dGeom {
        in_channels: ch,
        out_channels: ch,
        in_h: hw,
        in_w: hw,
        kernel: 3,
        stride: 1,
        padding: 1,
    };
    let weights = (0..geom.weight_count())
        .map(|i| ((i * 37 + 11) % 255) as i32 - 127)
        .map(|w| w as i8)
        .collect();
    SnnConv {
        geom,
        weights,
        q_w: QuantScale::new(7),
        input: ConvInput::Spikes { value: 1.0 },
        g: vec![Q8_8::ONE; ch],
        h: vec![0; ch],
        theta: 128,
        nu: 1.0 / 128.0,
        gf: vec![1.0; ch],
        hf: vec![0.0; ch],
        step: 1.0,
        levels: 8,
        mode: NeuronMode::If,
    }
}

/// Deterministic LCG spike plane at approximately `pct`% density.
fn calib_plane(ch: usize, hw: usize, pct: f64, seed: u64) -> SpikePlane {
    let n = ch * hw * hw;
    let mut s = seed | 1;
    let bytes: Vec<u8> = (0..n)
        .map(|_| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            u8::from(f64::from((s >> 33) as u32 % 10_000) < pct * 100.0)
        })
        .collect();
    let mut plane = SpikePlane::default();
    plane.pack_from_bytes(ch, hw, hw, &bytes);
    plane
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixed() -> Calibration {
        Calibration {
            version: CALIBRATION_VERSION,
            host: "testhost-linux-4cpu".into(),
            model: CostModel {
                scatter_ps_per_lane: 123,
                scatter_ps_per_out: 456,
                dense_ps_per_lane: 78,
            },
            samples: vec![CalSample {
                kind: "scatter".into(),
                geom: "c8s8k3".into(),
                density_pct: 12.5,
                min_ns: 4321,
            }],
        }
    }

    #[test]
    fn json_round_trip_preserves_everything() {
        let c = fixed();
        let back = Calibration::from_json(&c.to_json()).unwrap();
        assert_eq!(back, c);
        assert_eq!(back.policy(), c.policy());
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let text = fixed()
            .to_json()
            .replace("\"version\": 1", "\"version\": 999");
        let err = Calibration::from_json(&text).unwrap_err();
        assert!(err.contains("version 999"), "{err}");
    }

    #[test]
    fn host_key_is_deterministic() {
        assert_eq!(host_key(), host_key());
        assert!(host_key().contains("cpu"));
    }

    #[test]
    fn quick_measurement_yields_a_usable_model() {
        let c = Calibration::measure(true);
        assert_eq!(c.version, CALIBRATION_VERSION);
        assert!(c.matches_host());
        assert!(c.model.scatter_ps_per_lane >= 1);
        assert!(c.model.dense_ps_per_lane >= 1);
        let [lo, hi, dense] = c.samples.as_slice() else {
            panic!("expected three samples, got {:?}", c.samples);
        };
        // The model must price what was measured: its scatter rises between
        // the two timed densities by what the timings rose, and its dense
        // call costs what the tiled kernel took, each to the fit's rounding
        // (half a picosecond per priced lane). An inverted slope, a swapped
        // coefficient or a lane count that differs from the one the model
        // prices (the padded 16-lane block) fails here.
        let g = calib_conv(8, 16).geom;
        let full = (8 * 16 * 16) as u64;
        let spikes = |s: &CalSample| (s.density_pct * full as f64 / 100.0).round() as u64;
        let k2 = (g.kernel * g.kernel) as u64;
        let close = |modelled_ps: u128, measured_ns: u64, lanes: u64| {
            let tol_ns = lanes as f64 * 0.5e-3 + 1.0;
            (modelled_ps as f64 / 1000.0 - measured_ns as f64).abs() <= tol_ns
        };
        let rise_lanes = (spikes(hi) - spikes(lo)) * k2 * scatter_lane_span(8) as u64;
        let modelled_rise =
            c.model.scatter_cost_ps(&g, spikes(hi)) - c.model.scatter_cost_ps(&g, spikes(lo));
        assert!(
            close(modelled_rise, hi.min_ns - lo.min_ns, rise_lanes),
            "fit {:?} vs samples {:?}",
            c.model,
            c.samples
        );
        let dense_lanes = dense_padded_outs(&g) as u64 * 8 * k2;
        assert!(
            close(c.model.dense_cost_ps(&g), dense.min_ns, dense_lanes),
            "fit {:?} vs samples {:?}",
            c.model,
            c.samples
        );
        // And the fit must send a full plane of the measured geometry to
        // the tiled kernel: the scatter already runs about 4× slower than
        // the tiled kernel there at 20 % density (`BENCH_conv.json`,
        // `8to8k3s1_16_d020`). The crossover must also be a valid density.
        assert!(
            c.policy().scatter_limit(&g) <= full,
            "fit {:?} scatters a full plane",
            c.model
        );
        let cross = c.model.crossover_density(&g);
        assert!((0.0..=1.0).contains(&cross));
    }
}
