//! Ablation: PE-array scaling — the design-space exploration the
//! "reconfigurable... architecture design methodology" title promises.
//! Sweeps the array from 4×4 to 16×16 and reports resources, power, peak
//! throughput and the measured latency of the reference conv layer
//! (3×3, 64 kernels, 64 channels, 32×32 @ rate 0.16).

use sia_accel::spiking_core::layer_passes;
use sia_accel::{plan_conv, SiaConfig};
use sia_bench::{header, synthetic_spikes};
use sia_hwmodel::power::power_model;
use sia_hwmodel::resources::{estimate, PYNQ_Z2_AVAILABLE};
use sia_tensor::Conv2dGeom;

fn layer_ms(cfg: &SiaConfig) -> f64 {
    // 256 kernels so that arrays larger than 8x8 still shrink the group
    // count (a 64-kernel layer cannot use more than 64 PEs)
    let geom = Conv2dGeom {
        in_channels: 64,
        out_channels: 256,
        in_h: 32,
        in_w: 32,
        kernel: 3,
        stride: 1,
        padding: 1,
    };
    let spikes = synthetic_spikes(64, 32, 32, 0.16, 3);
    let timesteps = 8;
    let (groups, _fp, traffic) = plan_conv(&geom, cfg, timesteps, 0);
    let compute = layer_passes(&geom, &spikes, &groups, cfg).cycles;
    let cycles = compute.max(traffic.cycles(cfg) / timesteps as u64)
        + cfg.layer_overhead_cycles / timesteps as u64;
    cycles as f64 / cfg.clock_hz as f64 * 1e3
}

fn main() {
    header("Ablation — PE-array scaling (100 MHz, PYNQ-Z2 memory map)");
    println!(
        "{:>6} {:>8} {:>8} {:>6} {:>8} {:>10} {:>10} {:>6}",
        "array", "LUTs", "FFs", "DSPs", "peakGOPS", "power(W)", "conv(ms)", "fits?"
    );
    for dim in [4usize, 6, 8, 12, 16] {
        let cfg = SiaConfig {
            pe_rows: dim,
            pe_cols: dim,
            ..SiaConfig::pynq_z2()
        };
        let r = estimate(&cfg);
        let p = power_model(&cfg);
        println!(
            "{:>3}x{:<3} {:>8} {:>8} {:>6} {:>8.1} {:>10.2} {:>10.3} {:>6}",
            dim,
            dim,
            r.luts,
            r.ffs,
            r.dsps,
            cfg.peak_ops_per_second() / 1e9,
            p.total_watts(),
            layer_ms(&cfg),
            if r.fits(&PYNQ_Z2_AVAILABLE) {
                "yes"
            } else {
                "NO"
            }
        );
    }
    println!(
        "\nExpected shape: latency falls roughly linearly with the PE count\n\
         until the layer becomes transfer-bound; resources and power rise\n\
         linearly; the 8x8 point is the paper's prototype."
    );
}
