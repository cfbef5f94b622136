//! Regenerates **Table II**: latency as a function of the kernel size
//! (3×3 → 11×11, 64 kernels, 32×32 maps) — the reconfigurability
//! demonstration. The PE's three multiplexers consume wider kernel rows in
//! ⌈K/3⌉ segments per row, and the event-driven skip applies per segment.

use sia_accel::spiking_core::layer_passes;
use sia_accel::{plan_conv, SiaConfig};
use sia_bench::{header, print_vs, synthetic_spikes};
use sia_tensor::Conv2dGeom;

fn latency_ms(kernel: usize, in_channels: usize, cfg: &SiaConfig, timesteps: usize) -> f64 {
    let geom = Conv2dGeom {
        in_channels,
        out_channels: 64,
        in_h: 32,
        in_w: 32,
        kernel,
        stride: 1,
        padding: kernel / 2,
    };
    let spikes = synthetic_spikes(in_channels, 32, 32, 0.16, 0x7E);
    let (groups, _fp, traffic) = plan_conv(&geom, cfg, timesteps, 0);
    let compute = layer_passes(&geom, &spikes, &groups, cfg).cycles;
    let transfer_per_t = traffic.cycles(cfg) / timesteps as u64;
    let cycles = compute.max(transfer_per_t) + cfg.layer_overhead_cycles / timesteps as u64;
    cycles as f64 / cfg.clock_hz as f64 * 1e3
}

fn main() {
    let cfg = SiaConfig::pynq_z2();
    let timesteps = 8;
    let paper = [(3usize, 0.9479f64), (5, 0.95), (7, 0.9677), (11, 0.9839)];

    header("Table II — latency vs kernel size (64 kernels @32x32, C_in=64)");
    for (k, p) in paper {
        print_vs(
            &format!("Conv ({k}x{k},64)"),
            p,
            latency_ms(k, 64, &cfg, timesteps),
            "ms",
        );
    }

    header("Same sweep at C_in = 3 (first-layer geometry)");
    for (k, p) in paper {
        print_vs(
            &format!("Conv ({k}x{k},64)"),
            p,
            latency_ms(k, 3, &cfg, timesteps),
            "ms",
        );
    }

    println!(
        "\nShape check: the paper's sweep is near-flat (+3.8% from 3x3 to\n\
         11x11) because transfers and fixed overhead dominate the first-layer\n\
         geometry; our C_in=3 sweep reproduces that flatness, while at\n\
         C_in=64 the extra row segments of wide kernels become compute-bound."
    );
}
