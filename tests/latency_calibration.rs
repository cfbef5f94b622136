//! Regression tests pinning the latency model to the paper's Table I/II
//! bands — if a change to the scheduler, the transfer model or the
//! calibration constants moves these numbers outside the documented
//! envelopes, these tests fail before EXPERIMENTS.md silently goes stale.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sia_accel::spiking_core::{layer_passes, processed_segments, ConvPassStats};
use sia_accel::{plan_conv, SiaConfig};
use sia_snn::spikeplane::SpikePlane;
use sia_tensor::Conv2dGeom;

fn spikes(c: usize, h: usize, w: usize, rate: f64, seed: u64) -> SpikePlane {
    let mut rng = StdRng::seed_from_u64(seed);
    let bytes: Vec<u8> = (0..c * h * w)
        .map(|_| u8::from(rng.gen_bool(rate)))
        .collect();
    let mut plane = SpikePlane::default();
    plane.pack_from_bytes(c, h, w, &bytes);
    plane
}

fn per_timestep_ms(geom: &Conv2dGeom, rate: f64, cfg: &SiaConfig, timesteps: usize) -> f64 {
    let s = spikes(geom.in_channels, geom.in_h, geom.in_w, rate, 0xCA1);
    let (groups, _fp, traffic) = plan_conv(geom, cfg, timesteps, 0);
    let compute = layer_passes(geom, &s, &groups, cfg).cycles;
    let cycles = compute.max(traffic.cycles(cfg) / timesteps as u64)
        + cfg.layer_overhead_cycles / timesteps as u64;
    cycles as f64 / cfg.clock_hz as f64 * 1e3
}

fn equal_mac_conv(ch: usize, hw: usize) -> Conv2dGeom {
    Conv2dGeom {
        in_channels: ch,
        out_channels: ch,
        in_h: hw,
        in_w: hw,
        kernel: 3,
        stride: 1,
        padding: 1,
    }
}

#[test]
fn equal_mac_convs_stay_inside_the_table1_band() {
    // Paper: 0.89–0.95 ms per conv per timestep; documented model band:
    // 0.45–1.0 ms (EXPERIMENTS.md reports 0.52–0.90× of the paper).
    let cfg = SiaConfig::pynq_z2();
    for (ch, hw) in [(64usize, 32usize), (128, 16), (256, 8), (512, 4)] {
        let ms = per_timestep_ms(&equal_mac_conv(ch, hw), 0.16, &cfg, 8);
        assert!(
            (0.45..1.0).contains(&ms),
            "conv {ch}@{hw}: {ms:.3} ms left the calibrated band"
        );
    }
}

#[test]
fn fc_latency_stays_within_one_ms_of_table1() {
    // Table I: 58.72 / 58.929 ms; the MMIO-paced model must stay close.
    let cfg = SiaConfig::pynq_z2();
    let weight_words = (512usize * 10).div_ceil(4);
    let spike_words = 512usize.div_ceil(32);
    let words = (weight_words + spike_words + 10) * 8 + 4;
    let ms = sia_accel::axi::mmio_cycles(words, &cfg) as f64 / cfg.clock_hz as f64 * 1e3;
    assert!((57.5..60.0).contains(&ms), "FC model drifted to {ms:.3} ms");
}

#[test]
fn first_layer_geometry_k_sweep_is_flat() {
    // Table II's shape claim: ≤ +4% from 3×3 to 11×11 at the first-layer
    // geometry. Our model's C_in=3 sweep must stay within +60% (it is
    // transfer/overhead-bound; the paper's +3.8% is the reference).
    let cfg = SiaConfig::pynq_z2();
    let ms_at = |k: usize| {
        let geom = Conv2dGeom {
            in_channels: 3,
            out_channels: 64,
            in_h: 32,
            in_w: 32,
            kernel: k,
            stride: 1,
            padding: k / 2,
        };
        per_timestep_ms(&geom, 0.16, &cfg, 8)
    };
    let base = ms_at(3);
    for k in [5usize, 7, 11] {
        let ratio = ms_at(k) / base;
        assert!(
            ratio < 1.6,
            "K={k} grew {ratio:.2}x over 3x3 at the first-layer geometry"
        );
    }
}

#[test]
fn peak_throughput_constants_are_pinned() {
    let cfg = SiaConfig::pynq_z2();
    assert_eq!(cfg.pe_count(), 64);
    assert_eq!(cfg.ops_per_pe_cycle, 6);
    assert!((cfg.peak_ops_per_second() - 38.4e9).abs() < 1.0);
}

#[test]
fn event_driven_saving_tracks_sparsity() {
    // The model's core mechanism: halving the spike rate must cut compute
    // cycles substantially (not necessarily linearly: the +1 handoff per
    // pixel is rate-independent).
    let cfg = SiaConfig::pynq_z2();
    let geom = equal_mac_conv(64, 32);
    let pass = |rate: f64| {
        let s = spikes(64, 32, 32, rate, 1);
        ConvPassStats::new(&geom, &cfg, processed_segments(&geom, &s, &cfg), 64)
    };
    let dense = pass(0.32);
    let sparse = pass(0.16);
    let very_sparse = pass(0.04);
    assert!(sparse.cycles < dense.cycles);
    assert!(very_sparse.cycles < sparse.cycles);
    assert!(
        (very_sparse.cycles as f64) < 0.45 * dense.cycles as f64,
        "8x sparser input saved only {} → {} cycles",
        dense.cycles,
        very_sparse.cycles
    );
}
