//! Property-based equivalence of the event-driven kernels: over random
//! geometries (kernel ∈ {1, 3, 5}, stride, padding, every scatter lane
//! width) and spike densities from 0 to 100 %, the scatter path must match
//! the dense reference loop
//! **bit for bit** — including the saturating integer tap order — as must
//! the tiled kernel on every layer it covers, and the packed `or_pool`
//! must match the byte-wise one.

use proptest::prelude::*;
use sia_fixed::{QuantScale, Q8_8};
use sia_snn::network::{ConvInput, NeuronMode, SnnConv};
use sia_snn::sparse::tiled_is_candidate;
use sia_snn::spikeplane::{or_pool_packed, SpikePlane};
use sia_snn::{
    conv_psums_f32, conv_psums_f32_plane, conv_psums_int, conv_psums_int_plane,
    conv_psums_int_scatter, conv_psums_int_tiled, or_pool, ConvScratch, KernelPolicy,
};
use sia_tensor::Conv2dGeom;

#[derive(Clone, Debug)]
struct Case {
    cin: usize,
    cout: usize,
    hw: usize,
    k: usize,
    stride: usize,
    padding: usize,
    /// Spike probability in percent (0 ..= 100).
    rate: u32,
    seed: u64,
}

fn case_strategy() -> impl Strategy<Value = Case> {
    (
        1usize..=4,
        1usize..=4,
        prop_oneof![Just(4usize), Just(5), Just(6), Just(8)],
        prop_oneof![Just(1usize), Just(3)],
        1usize..=2,
        0usize..=1,
        0u32..=100,
        any::<u64>(),
    )
        .prop_map(|(cin, cout, hw, k, stride, padding, rate, seed)| Case {
            cin,
            cout,
            hw,
            k,
            stride,
            padding,
            rate,
            seed,
        })
}

/// Geometries that exercise the word-parallel fast paths: 8 to 32 output
/// channels (16- or 32-lane scatter rows — 8 and 12 leave padding lanes,
/// as the deployed 8-channel stage does) on 16- to 20-pixel planes, some
/// of them layers the tiled kernel covers, at spike rates from
/// sparse (5 %) up to the depths where the saturating i16 accumulators
/// hit the ±`i16::MAX` rails — the regime where any reassociation of the
/// tap order becomes observable.
fn hot_case_strategy() -> impl Strategy<Value = Case> {
    (
        8usize..=24,
        prop_oneof![
            Just(8usize),
            Just(12),
            Just(16),
            Just(17),
            Just(20),
            Just(32)
        ],
        prop_oneof![Just(16usize), Just(18), Just(20)],
        prop_oneof![Just(1usize), Just(3)],
        1usize..=2,
        0usize..=1,
        5u32..=100,
        any::<u64>(),
    )
        .prop_map(|(cin, cout, hw, k, stride, padding, rate, seed)| Case {
            cin,
            cout,
            hw,
            k,
            stride,
            padding,
            rate,
            seed,
        })
}

/// Geometries past the deployed ones: every lane width the integer scatter
/// instantiates (16, 32, 48 and 64 lanes — `cout` 16, 24, 32, 48, 64) and
/// the 16-lane blocks of wider rows (72 and 96), on 2- to 8-wide planes,
/// with kernels 1–5, strides 1–3 and padding 0–2 (wider than a 1×1 kernel
/// reaches), from silent to full planes, and up to 64 input channels,
/// where the saturating i16 accumulators reach the rails.
fn lane_width_case_strategy() -> impl Strategy<Value = Case> {
    (
        1usize..=64,
        prop_oneof![
            Just(16usize),
            Just(24),
            Just(32),
            Just(48),
            Just(64),
            Just(72),
            Just(96)
        ],
        prop_oneof![Just(2usize), Just(4), Just(8)],
        prop_oneof![Just(1usize), Just(3), Just(5)],
        1usize..=3,
        0usize..=2,
        0u32..=100,
        any::<u64>(),
    )
        .prop_map(|(cin, cout, hw, k, stride, padding, rate, seed)| Case {
            cin,
            cout,
            hw,
            k,
            stride,
            // A kernel wider than the padded plane has no output: pad up.
            padding: padding.max(k.saturating_sub(hw).div_ceil(2)),
            rate,
            seed,
        })
}

/// Layers the tiled kernel covers, and only those: 3×3 at stride 1,
/// `C_out` ∈ {4, 8, …, 32}, `OW` ∈ {16, 32} (padding 1, or padding 0 on a
/// plane two columns wider), up to 64 input channels, at every spike rate
/// from silent to full. `pattern` picks the weights: 0 the seeded mix,
/// 1 all +127, 2 all −127, 3 +127 except a final all-−127 input channel —
/// at high rates and depths the last three pin the accumulators to the
/// rails and pull them back off, where any reordering of the taps shows.
fn candidate_case_strategy() -> impl Strategy<Value = (Case, u8)> {
    (
        1usize..=64,
        1usize..=8,
        prop_oneof![Just(16usize), Just(32)],
        0usize..=1,
        0u32..=100,
        any::<u64>(),
        0u8..=3,
    )
        .prop_map(|(cin, groups, ow, padding, rate, seed, pattern)| {
            let c = Case {
                cin,
                cout: 4 * groups,
                hw: ow + 2 - 2 * padding,
                k: 3,
                stride: 1,
                padding,
                rate,
                seed,
            };
            (c, pattern)
        })
}

/// Overwrites `conv`'s weights with rail-stress `pattern` (see
/// [`candidate_case_strategy`]); pattern 0 keeps the seeded weights.
fn apply_pattern(conv: &mut SnnConv, pattern: u8) {
    let g = conv.geom;
    let taps_per_co = g.in_channels * g.kernel * g.kernel;
    for (i, w) in conv.weights.iter_mut().enumerate() {
        // weight layout: co-major, ci next
        let ci = (i % taps_per_co) / (g.kernel * g.kernel);
        *w = match pattern {
            0 => *w,
            1 => 127,
            2 => -127,
            _ if ci + 1 == g.in_channels => -127,
            _ => 127,
        };
    }
}

fn make_conv(c: &Case) -> SnnConv {
    let geom = Conv2dGeom {
        in_channels: c.cin,
        out_channels: c.cout,
        in_h: c.hw,
        in_w: c.hw,
        kernel: c.k,
        stride: c.stride,
        padding: c.padding,
    };
    let weights = (0..geom.weight_count())
        .map(|i| (((i * 31 + c.seed as usize % 97) % 255) as i32 - 127) as i8)
        .collect();
    SnnConv {
        geom,
        weights,
        q_w: QuantScale::new(7),
        input: ConvInput::Spikes { value: 1.0 },
        g: vec![Q8_8::ONE; c.cout],
        h: vec![0; c.cout],
        theta: 128,
        nu: 1.0 / 128.0,
        gf: vec![1.0; c.cout],
        hf: vec![0.0; c.cout],
        step: 1.0,
        levels: 8,
        mode: NeuronMode::If,
    }
}

fn spike_bytes(n: usize, rate: u32, seed: u64) -> Vec<u8> {
    let mut s = seed | 1;
    (0..n)
        .map(|_| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            u8::from((s >> 33) % 100 < u64::from(rate))
        })
        .collect()
}

fn packed(c: &Case, bytes: &[u8]) -> SpikePlane {
    let mut plane = SpikePlane::default();
    plane.pack_from_bytes(c.cin, c.hw, c.hw, bytes);
    plane
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn int_scatter_is_bit_exact_with_dense_reference(c in case_strategy()) {
        let conv = make_conv(&c);
        let bytes = spike_bytes(c.cin * c.hw * c.hw, c.rate, c.seed);
        let plane = packed(&c, &bytes);
        let reference = conv_psums_int(&conv, &bytes);
        let mut scr = ConvScratch::new();
        for policy in [KernelPolicy::ForceSparse, KernelPolicy::ForceDense, KernelPolicy::Auto] {
            let got = conv_psums_int_plane(&conv, &plane, policy, &mut scr, 0).to_vec();
            prop_assert_eq!(&got, &reference, "policy {:?}", policy);
        }
    }

    #[test]
    fn word_parallel_kernels_are_bit_exact_on_hot_geometries(c in hot_case_strategy()) {
        // Direct entries, not the policy dispatcher: every kernel on the
        // menu must agree with the byte reference, including the wide
        // scatter's 16-lane blocks and, on the layers it covers, the
        // dense kernel's paired-row register tiles.
        let conv = make_conv(&c);
        let bytes = spike_bytes(c.cin * c.hw * c.hw, c.rate, c.seed);
        let plane = packed(&c, &bytes);
        let reference = conv_psums_int(&conv, &bytes);
        let mut scr = ConvScratch::new();
        let got = conv_psums_int_scatter(&conv, &plane, &mut scr, 0).to_vec();
        prop_assert_eq!(&got, &reference, "scatter");
        if tiled_is_candidate(&conv.geom) {
            let got = conv_psums_int_tiled(&conv, &plane, &mut scr, 0).to_vec();
            prop_assert_eq!(&got, &reference, "tiled");
        }
    }

    #[test]
    fn tiled_kernel_is_bit_exact_on_every_layer_it_covers(cp in candidate_case_strategy()) {
        let (c, pattern) = cp;
        let mut conv = make_conv(&c);
        apply_pattern(&mut conv, pattern);
        prop_assert!(tiled_is_candidate(&conv.geom), "{:?}", conv.geom);
        let bytes = spike_bytes(c.cin * c.hw * c.hw, c.rate, c.seed);
        let plane = packed(&c, &bytes);
        let reference = conv_psums_int(&conv, &bytes);
        let mut scr = ConvScratch::new();
        let got = conv_psums_int_tiled(&conv, &plane, &mut scr, 0).to_vec();
        prop_assert_eq!(&got, &reference, "tiled, pattern {}", pattern);
        // ForceDense runs the tiled kernel on every call here.
        let got = conv_psums_int_plane(&conv, &plane, KernelPolicy::ForceDense, &mut scr, 1)
            .to_vec();
        prop_assert_eq!(&got, &reference, "ForceDense, pattern {}", pattern);
        prop_assert_eq!(scr.take_taps().1, 0, "ForceDense skipped taps");
    }

    #[test]
    fn scatters_are_bit_exact_at_every_lane_width(c in lane_width_case_strategy()) {
        // The tap tables and the fixed-width row instantiations, int and
        // f32, against the byte references.
        let conv = make_conv(&c);
        let bytes = spike_bytes(c.cin * c.hw * c.hw, c.rate, c.seed);
        let plane = packed(&c, &bytes);
        let reference = conv_psums_int(&conv, &bytes);
        let mut scr = ConvScratch::new();
        let got = conv_psums_int_scatter(&conv, &plane, &mut scr, 0).to_vec();
        prop_assert_eq!(&got, &reference, "int scatter");
        let got = conv_psums_int_plane(&conv, &plane, KernelPolicy::Auto, &mut scr, 0).to_vec();
        prop_assert_eq!(&got, &reference, "auto");
        let reference = conv_psums_f32(&conv, &bytes);
        let got = conv_psums_f32_plane(&conv, &plane, KernelPolicy::ForceSparse, &mut scr, 0).to_vec();
        prop_assert_eq!(&got, &reference, "f32 scatter");
    }

    #[test]
    fn f32_scatter_is_exactly_equal_to_dense_reference(c in case_strategy()) {
        // identical accumulation order ⇒ exact f32 equality, no tolerance
        let conv = make_conv(&c);
        let bytes = spike_bytes(c.cin * c.hw * c.hw, c.rate, c.seed);
        let plane = packed(&c, &bytes);
        let reference = conv_psums_f32(&conv, &bytes);
        let mut scr = ConvScratch::new();
        for policy in [KernelPolicy::ForceSparse, KernelPolicy::ForceDense] {
            let got = conv_psums_f32_plane(&conv, &plane, policy, &mut scr, 0).to_vec();
            prop_assert_eq!(&got, &reference, "policy {:?}", policy);
        }
    }

    #[test]
    fn packed_or_pool_matches_byte_reference(
        channels in 1usize..=3,
        half in 1usize..=4,
        rate in 0u32..=100,
        seed in any::<u64>(),
    ) {
        let (h, w) = (2 * half, 2 * half);
        let bytes = spike_bytes(channels * h * w, rate, seed);
        let mut plane = SpikePlane::default();
        plane.pack_from_bytes(channels, h, w, &bytes);
        let mut out = SpikePlane::default();
        or_pool_packed(&plane, &mut out);
        let reference = or_pool(&bytes, channels, h, w);
        prop_assert_eq!(out.to_bytes(), reference);
    }
}

proptest! {
    // Fewer cases: each one runs 4 kernels × 3 weight patterns over a
    // deep (cin ≥ 40) geometry in the unoptimized test profile.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn saturating_accumulation_order_is_observed_at_the_rails(
        cin in 40usize..=56,
        cout in prop_oneof![Just(16usize), Just(17)],
        rate in 90u32..=100,
        seed in any::<u64>(),
    ) {
        // Three rail-stress weight patterns. cin ≥ 40 at ≥ 90 % density
        // makes cin·k²·rate·127 ≈ 41k ≫ i16::MAX, so the all-positive
        // and all-negative patterns must clamp (asserted). The mixed
        // pattern rides the accumulator onto the +rail through the first
        // cin−1 channels, then the final all-−127 channel pulls it back
        // off — exactly the shape where reassociating the (ci, ky, kx)
        // tap order changes the clamped result.
        let hw = 16;
        let c = Case { cin, cout, hw, k: 3, stride: 1, padding: 1, rate, seed };
        let bytes = spike_bytes(cin * hw * hw, rate, seed);
        let plane = packed(&c, &bytes);
        for pattern in 1..=3 {
            let mut conv = make_conv(&c);
            apply_pattern(&mut conv, pattern);
            let reference = conv_psums_int(&conv, &bytes);
            match pattern {
                1 => prop_assert!(
                    reference.contains(&i16::MAX),
                    "positive rail never hit — case is not a saturation probe"
                ),
                2 => prop_assert!(
                    reference.contains(&i16::MIN),
                    "negative rail never hit — case is not a saturation probe"
                ),
                _ => {}
            }
            let mut scr = ConvScratch::new();
            let got = conv_psums_int_scatter(&conv, &plane, &mut scr, 0).to_vec();
            prop_assert_eq!(&got, &reference, "scatter / {}", pattern);
            if tiled_is_candidate(&conv.geom) {
                let got = conv_psums_int_tiled(&conv, &plane, &mut scr, 0).to_vec();
                prop_assert_eq!(&got, &reference, "tiled / {}", pattern);
            }
        }
    }
}

#[test]
fn all_zeros_and_all_ones_planes_agree() {
    for rate in [0u32, 100] {
        let c = Case {
            cin: 3,
            cout: 4,
            hw: 6,
            k: 3,
            stride: 1,
            padding: 1,
            rate,
            seed: 1,
        };
        let conv = make_conv(&c);
        let bytes = vec![u8::from(rate > 0); c.cin * c.hw * c.hw];
        let plane = packed(&c, &bytes);
        let reference = conv_psums_int(&conv, &bytes);
        let mut scr = ConvScratch::new();
        for policy in [
            KernelPolicy::ForceSparse,
            KernelPolicy::ForceDense,
            KernelPolicy::Auto,
        ] {
            let got = conv_psums_int_plane(&conv, &plane, policy, &mut scr, 0).to_vec();
            assert_eq!(got, reference, "rate {rate} policy {policy:?}");
        }
        if rate == 0 {
            assert!(reference.iter().all(|&p| p == 0));
        }
    }
}
