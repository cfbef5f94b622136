//! The SIA's conv cycle model against its definition: a byte-wise walk of
//! every (output pixel, input channel, kernel row, segment) that skips a
//! segment iff its spike taps are all zero. The row-factorised count the
//! machine prices every pass with must match the walk's processed and
//! skipped segments, cycles and active-PE cycles exactly — over kernels
//! 1–11, strides 1–3, every padding up to K/2, rows wider than one 64-bit
//! word, densities from silent to full and 1–4 taps per cycle.
//!
//! The machine's partial sums come from the shared integer kernels; the
//! last test pins them to the byte-wise `conv_psums_int` oracle at the
//! wide kernels of Table II under every kernel policy.

use sia_accel::spiking_core::{processed_segments, ConvPassStats};
use sia_accel::SiaConfig;
use sia_fixed::{QuantScale, Q8_8};
use sia_snn::network::{ConvInput, NeuronMode, SnnConv};
use sia_snn::spikeplane::SpikePlane;
use sia_snn::{conv_psums_int, conv_psums_int_plane, ConvScratch, KernelPolicy};
use sia_tensor::Conv2dGeom;

fn lcg(seed: &mut u64) -> u64 {
    *seed = seed
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *seed >> 33
}

/// `[C_in, H, W]` spike bytes at `rate` percent, and their packed plane.
fn spikes(g: &Conv2dGeom, rate: u64, seed: &mut u64) -> (Vec<u8>, SpikePlane) {
    let bytes: Vec<u8> = (0..g.in_channels * g.in_h * g.in_w)
        .map(|_| u8::from(lcg(seed) % 100 < rate))
        .collect();
    let mut plane = SpikePlane::default();
    plane.pack_from_bytes(g.in_channels, g.in_h, g.in_w, &bytes);
    (bytes, plane)
}

/// The PE array's segment walk, one spike byte at a time: every output
/// pixel costs its processed segments plus one handoff cycle, with every
/// PE of the group active on a processed segment.
fn walk(g: &Conv2dGeom, spikes: &[u8], taps: usize, group_size: usize) -> ConvPassStats {
    let (oh, ow) = g.out_hw();
    let spiked = |ci: usize, iy: isize, ix: isize| {
        (0..g.in_h as isize).contains(&iy)
            && (0..g.in_w as isize).contains(&ix)
            && spikes[(ci * g.in_h + iy as usize) * g.in_w + ix as usize] != 0
    };
    let mut s = ConvPassStats::default();
    for oy in 0..oh {
        for ox in 0..ow {
            for ci in 0..g.in_channels {
                for ky in 0..g.kernel {
                    let iy = (oy * g.stride + ky) as isize - g.padding as isize;
                    let mut kx = 0;
                    while kx < g.kernel {
                        let seg = (g.kernel - kx).min(taps);
                        let ix0 = (ox * g.stride + kx) as isize - g.padding as isize;
                        if (0..seg as isize).any(|d| spiked(ci, iy, ix0 + d)) {
                            s.cycles += 1;
                            s.active_pe_cycles += group_size as u64;
                            s.processed_segments += 1;
                        } else {
                            s.skipped_segments += 1;
                        }
                        kx += seg;
                    }
                }
            }
            s.cycles += 1;
        }
    }
    s
}

#[test]
fn segment_count_matches_the_byte_wise_walk() {
    let mut seed = 0x5EA;
    let mut cases = 0;
    for k in 1..=11usize {
        for stride in 1..=3 {
            for padding in 0..=k / 2 {
                // one-word, word-straddling and three-word rows; planes just
                // tall enough for a few output rows
                for in_w in [k.max(9), 67, 130] {
                    let g = Conv2dGeom {
                        in_channels: 2,
                        out_channels: 5,
                        in_h: (k + 2).saturating_sub(2 * padding).max(1),
                        in_w,
                        kernel: k,
                        stride,
                        padding,
                    };
                    for rate in [0, 3, 20, 60, 100] {
                        let (bytes, plane) = spikes(&g, rate, &mut seed);
                        for taps in 1..=4 {
                            let cfg = SiaConfig {
                                taps_per_cycle: taps,
                                ..SiaConfig::pynq_z2()
                            };
                            let count = processed_segments(&g, &plane, &cfg);
                            assert_eq!(
                                ConvPassStats::new(&g, &cfg, count, 5),
                                walk(&g, &bytes, taps, 5),
                                "{g} rate {rate}% taps {taps}"
                            );
                            cases += 1;
                        }
                    }
                }
            }
        }
    }
    assert_eq!(cases, 41 * 3 * 3 * 5 * 4);
}

#[test]
fn four_taps_per_cycle_price_a_five_wide_kernel() {
    // a 4-mux PE consumes a 5-tap row as a 4-tap and a 1-tap segment
    let g = Conv2dGeom {
        in_channels: 3,
        out_channels: 64,
        in_h: 8,
        in_w: 8,
        kernel: 5,
        stride: 1,
        padding: 2,
    };
    let cfg = SiaConfig {
        taps_per_cycle: 4,
        ..SiaConfig::pynq_z2()
    };
    cfg.validate().unwrap();
    let (bytes, plane) = spikes(&g, 100, &mut 7);
    let pass = ConvPassStats::new(&g, &cfg, processed_segments(&g, &plane, &cfg), 64);
    assert_eq!(
        pass.processed_segments + pass.skipped_segments,
        64 * 3 * 5 * 2
    );
    assert_eq!(pass, walk(&g, &bytes, 4, 64));
}

#[test]
fn wide_kernel_psums_match_the_reference_under_every_policy() {
    let mut seed = 0x11;
    for k in [7usize, 11] {
        let g = Conv2dGeom {
            in_channels: 3,
            out_channels: 16,
            in_h: 16,
            in_w: 16,
            kernel: k,
            stride: 1,
            padding: k / 2,
        };
        let conv = SnnConv {
            geom: g,
            weights: (0..g.weight_count())
                .map(|_| (lcg(&mut seed) % 255) as i8)
                .collect(),
            q_w: QuantScale::new(7),
            input: ConvInput::Spikes { value: 1.0 },
            g: vec![Q8_8::ONE; 16],
            h: vec![0; 16],
            theta: 128,
            nu: 1.0 / 128.0,
            gf: vec![1.0; 16],
            hf: vec![0.0; 16],
            step: 1.0,
            levels: 8,
            mode: NeuronMode::If,
        };
        for rate in [0, 10, 50, 100] {
            let (bytes, plane) = spikes(&g, rate, &mut seed);
            let want = conv_psums_int(&conv, &bytes);
            for policy in [
                KernelPolicy::Auto,
                KernelPolicy::ForceDense,
                KernelPolicy::ForceSparse,
            ] {
                let mut scr = ConvScratch::new();
                let got = conv_psums_int_plane(&conv, &plane, policy, &mut scr, 0);
                assert_eq!(got, &want[..], "K={k} rate {rate}% {policy:?}");
            }
        }
    }
}
