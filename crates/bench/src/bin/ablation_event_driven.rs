//! Ablation: the co-design's central trade, measured — the multiplier-free
//! event-driven SIA vs a dense DSP-MAC baseline (the architecture class of
//! Table IV's rows \[18\]–\[22\]) on the same layers.
//!
//! The SIA executes T sparse binary passes with mux-adders; the dense
//! design one dense pass with DSP multipliers. The win the paper claims is
//! utilisation efficiency (GOPS/PE, GOPS/DSP), not raw latency.

use sia_accel::spiking_core::layer_passes;
use sia_accel::{plan_conv, SiaConfig};
use sia_bench::{header, synthetic_spikes};
use sia_hwmodel::dense::{dense_conv, dense_resources, DenseConfig, EventDrivenComparison};
use sia_hwmodel::resources::estimate;
use sia_tensor::Conv2dGeom;

fn sia_cycles(geom: &Conv2dGeom, rate: f64, cfg: &SiaConfig, timesteps: usize) -> u64 {
    let (groups, _fp, _traffic) = plan_conv(geom, cfg, timesteps, 0);
    (0..timesteps)
        .map(|t| {
            let spikes = synthetic_spikes(geom.in_channels, geom.in_h, geom.in_w, rate, t as u64);
            layer_passes(geom, &spikes, &groups, cfg).cycles
        })
        .sum()
}

fn main() {
    let sia_cfg = SiaConfig::pynq_z2();
    let dense_cfg = DenseConfig {
        clock_hz: sia_cfg.clock_hz, // same clock for a fair cycle comparison
        ..DenseConfig::baseline_64()
    };
    let sia_dsps = estimate(&sia_cfg).dsps;
    let dense_res = dense_resources(&dense_cfg);
    let timesteps = 8;

    header("Ablation — event-driven SIA vs dense DSP-MAC baseline (64 PEs each, 100 MHz)");
    println!(
        "{:<22} {:>6} {:>14} {:>14} {:>9} {:>9}",
        "layer", "rate", "SIA cy (T=8)", "dense cy", "cy ratio", "DSP ratio"
    );
    let layers = [
        (64usize, 64usize, 32usize),
        (128, 128, 16),
        (256, 256, 8),
        (512, 512, 4),
    ];
    for &(cin, cout, hw) in &layers {
        let geom = Conv2dGeom {
            in_channels: cin,
            out_channels: cout,
            in_h: hw,
            in_w: hw,
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        for rate in [0.05f64, 0.16, 0.5] {
            let cmp = EventDrivenComparison {
                sia_cycles: sia_cycles(&geom, rate, &sia_cfg, timesteps),
                dense_cycles: dense_conv(&geom, &dense_cfg).cycles,
                sia_dsps,
                dense_dsps: dense_res.dsps,
            };
            println!(
                "{:<22} {:>6.2} {:>14} {:>14} {:>9.2} {:>9.2}",
                format!("conv3x3 {cin}->{cout}@{hw}"),
                rate,
                cmp.sia_cycles,
                cmp.dense_cycles,
                cmp.cycle_ratio(),
                cmp.dsp_ratio()
            );
        }
    }
    println!(
        "\nReading: at the measured spike rates (~0.12-0.16) the SIA's T=8\n\
         sparse passes cost roughly the same cycles as one dense pass — while\n\
         using {sia_dsps} DSPs instead of {}. At rate 0.5 the event-driven\n\
         advantage disappears: sparsity is the resource the co-design spends.",
        dense_res.dsps
    );
}
