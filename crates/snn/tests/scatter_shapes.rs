//! Exactness of the scatter walk on shapes the deployed model lacks: row
//! widths that do and do not divide 64, planes whose `H·W` is not a power
//! of two, strides above the kernel (pixels no output reaches), a 5×5
//! kernel, output channels past 64 lanes, all-ones planes, spikes on both
//! sides of every flat-word boundary, and weights on both INT8 rails.
//!
//! The integer scatter must match [`conv_psums_int`] bit for bit (the
//! saturating i16 order included) and the float scatter must match
//! [`conv_psums_f32`] exactly.

use sia_fixed::{QuantScale, Q8_8};
use sia_snn::network::{ConvInput, NeuronMode, SnnConv};
use sia_snn::spikeplane::SpikePlane;
use sia_snn::{
    conv_psums_f32, conv_psums_f32_plane, conv_psums_int, conv_psums_int_scatter, ConvScratch,
    KernelPolicy,
};
use sia_tensor::Conv2dGeom;

/// `(C_in, C_out, H, W, K, stride, padding)`.
type Shape = (usize, usize, usize, usize, usize, usize, usize);

const SHAPES: [Shape; 14] = [
    // Widths 5, 10, 65 and 100; `H·W` = 35, 60, 195 and 400.
    (3, 8, 7, 5, 3, 1, 1),
    (2, 16, 6, 10, 3, 2, 1),
    (2, 8, 3, 65, 3, 1, 1),
    (1, 20, 4, 100, 3, 1, 1),
    // Stride 3 with K = 1 and K = 2: whole rows and columns reach nothing.
    (3, 8, 10, 10, 1, 3, 0),
    (3, 8, 11, 11, 2, 3, 0),
    (2, 4, 9, 7, 2, 3, 1),
    // K = 5 with padding 2, at stride 1 and 2.
    (3, 8, 9, 9, 5, 1, 2),
    (2, 8, 12, 11, 5, 2, 2),
    // 72 and 96 output channels: 16-lane blocks past 64.
    (4, 72, 6, 6, 3, 1, 1),
    (3, 96, 5, 5, 3, 2, 1),
    // Several compaction blocks of flat words, at a width dividing 64 and
    // at one that does not.
    (13, 8, 16, 16, 3, 1, 1),
    (6, 16, 12, 30, 3, 1, 1),
    // Enough channels for the i16 accumulators to reach the rails.
    (96, 8, 4, 4, 3, 1, 1),
];

fn geom((cin, cout, h, w, k, stride, padding): Shape) -> Conv2dGeom {
    Conv2dGeom {
        in_channels: cin,
        out_channels: cout,
        in_h: h,
        in_w: w,
        kernel: k,
        stride,
        padding,
    }
}

fn conv(geom: Conv2dGeom, weights: Vec<i8>) -> SnnConv {
    let cout = geom.out_channels;
    SnnConv {
        geom,
        weights,
        q_w: QuantScale::new(7),
        input: ConvInput::Spikes { value: 1.0 },
        g: vec![Q8_8::ONE; cout],
        h: vec![0; cout],
        theta: 128,
        nu: 1.0 / 128.0,
        gf: vec![1.0; cout],
        hf: vec![0.0; cout],
        step: 1.0,
        levels: 8,
        mode: NeuronMode::If,
    }
}

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

/// Weights spread over the whole INT8 range.
fn spread_weights(g: &Conv2dGeom, seed: u64) -> Vec<i8> {
    let mut state = seed;
    (0..g.weight_count())
        .map(|_| (lcg(&mut state) % 256) as u8 as i8)
        .collect()
}

/// Weights only on the rails, `+127` mostly in the first half of the
/// input channels and `−128` mostly in the second: a tap order other than
/// the reference's saturates at another point and ends elsewhere.
fn rail_weights(g: &Conv2dGeom, seed: u64) -> Vec<i8> {
    let mut state = seed;
    let k2 = g.kernel * g.kernel;
    (0..g.weight_count())
        .map(|i| {
            let ci = i / k2 % g.in_channels;
            // One weight in eight takes the other rail.
            let flipped = lcg(&mut state).is_multiple_of(8);
            if (ci < g.in_channels.div_ceil(2)) != flipped {
                i8::MAX
            } else {
                i8::MIN
            }
        })
        .collect()
}

/// Spike planes: all ones, spikes either side of every flat-word
/// boundary, and random ones at several densities.
fn planes(g: &Conv2dGeom, seed: u64) -> Vec<(String, Vec<u8>)> {
    let n = g.in_channels * g.in_h * g.in_w;
    let mut out = vec![
        ("all ones".to_string(), vec![1u8; n]),
        (
            "word boundaries".to_string(),
            (0..n).map(|f| u8::from(matches!(f % 64, 0 | 63))).collect(),
        ),
    ];
    let mut state = seed;
    for pct in [3u64, 20, 60] {
        let bytes = (0..n)
            .map(|_| u8::from(lcg(&mut state) % 100 < pct))
            .collect();
        out.push((format!("{pct} %"), bytes));
    }
    out
}

fn check(scr: &mut ConvScratch, layer: usize, conv: &SnnConv, case: &str) {
    let g = &conv.geom;
    for (name, bytes) in planes(g, layer as u64 * 131 + 7) {
        let mut plane = SpikePlane::default();
        plane.pack_from_bytes(g.in_channels, g.in_h, g.in_w, &bytes);
        let want = conv_psums_int(conv, &bytes);
        let got = conv_psums_int_scatter(conv, &plane, scr, layer);
        assert_eq!(got, want.as_slice(), "int {case}, {name}");
        let want = conv_psums_f32(conv, &bytes);
        let got = conv_psums_f32_plane(conv, &plane, KernelPolicy::ForceSparse, scr, layer);
        assert_eq!(got, want.as_slice(), "f32 {case}, {name}");
    }
}

#[test]
fn scatters_match_the_references_on_odd_shapes() {
    // One scratch across every shape, as an engine's across its layers.
    let mut scr = ConvScratch::new();
    for (i, &shape) in SHAPES.iter().enumerate() {
        let g = geom(shape);
        check(
            &mut scr,
            i,
            &conv(g, spread_weights(&g, i as u64)),
            &format!("{g}"),
        );
    }
}

#[test]
fn scatters_match_the_references_with_weights_on_the_rails() {
    let mut scr = ConvScratch::new();
    for (i, &shape) in SHAPES.iter().enumerate() {
        let g = geom(shape);
        let conv = conv(g, rail_weights(&g, i as u64 + 99));
        check(&mut scr, i, &conv, &format!("rails {g}"));
    }
    // The rails are reached: without the reference tap order these planes
    // would not match.
    let g = geom(SHAPES[SHAPES.len() - 1]);
    let conv = conv(g, rail_weights(&g, 5));
    let ones = vec![1u8; g.in_channels * g.in_h * g.in_w];
    let psums = conv_psums_int(&conv, &ones);
    let sum: Vec<i32> = (0..psums.len())
        .map(|o| {
            let (co, pix) = (o / 16, o % 16);
            let (oy, ox) = (pix / 4, pix % 4);
            let mut acc = 0i32;
            for ci in 0..g.in_channels {
                for ky in 0..3 {
                    for kx in 0..3 {
                        let (iy, ix) = (oy + ky, ox + kx);
                        if (1..=4).contains(&iy) && (1..=4).contains(&ix) {
                            acc += i32::from(conv.weight(co, ci, ky, kx));
                        }
                    }
                }
            }
            acc
        })
        .collect();
    assert!(
        psums.iter().zip(&sum).any(|(&p, &s)| i32::from(p) != s),
        "no accumulator saturated"
    );
}
