//! The 8×8 spiking core's cycle model: kernel-parallel, event-driven
//! convolution, priced by counting segments.
//!
//! Mapping (§III-A + §III-D): the weight memory holds "up to 64 kernels",
//! one per PE, and every PE of a kernel group sees the same input spike
//! window. A PE consumes a kernel row in segments of `taps_per_cycle` taps
//! (3 muxes ⇒ 3 taps per cycle, so a 3×3 row costs one cycle); a segment
//! whose spike taps are all zero is **skipped without spending a cycle** —
//! the event-driven saving that lets every equal-MAC conv layer of Table I
//! finish in ≈ 0.9 ms instead of the ≈ 2 ms a dense schedule would need —
//! and each output pixel adds one handoff cycle to the aggregation core.
//!
//! The skip decision reads only the input plane, never the weights or the
//! kernel group, so one count prices a whole pass: S, the segments over
//! every (output pixel, input channel, kernel row) that hold a spike
//! ([`processed_segments`]). Each kernel group of the pass then costs
//! S + OH·OW cycles and S × its size active-PE cycles
//! ([`ConvPassStats::new`]); [`layer_passes`] prices one timestep of a
//! layer, every kernel group's pass plus its aggregation pipeline fill.
//! The partial sums themselves are the shared integer kernels'
//! (`sia_snn::conv_psums_int_plane`).

use crate::config::SiaConfig;
use sia_snn::spikeplane::SpikePlane;
use sia_tensor::Conv2dGeom;

/// Cycle accounting of one kernel group's pass over one timestep's input
/// plane.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ConvPassStats {
    /// Clock cycles spent by the spiking core.
    pub cycles: u64,
    /// Σ over cycles of active PEs.
    pub active_pe_cycles: u64,
    /// Kernel-row segments skipped by the event-driven logic.
    pub skipped_segments: u64,
    /// Kernel-row segments processed.
    pub processed_segments: u64,
}

impl ConvPassStats {
    /// The pass of a `group_size`-kernel group over a plane with
    /// `processed` non-zero segments ([`processed_segments`]): one cycle
    /// per processed segment, on which every PE of the group is active,
    /// plus one handoff cycle per output pixel. Every other scheduled
    /// segment — `⌈K/taps_per_cycle⌉` per kernel row, input channel and
    /// output pixel — is skipped.
    ///
    /// # Panics
    ///
    /// Panics if the group exceeds the PE count.
    #[must_use]
    pub fn new(geom: &Conv2dGeom, config: &SiaConfig, processed: u64, group_size: usize) -> Self {
        assert!(
            group_size <= config.pe_count(),
            "kernel group exceeds PE array"
        );
        let (oh, ow) = geom.out_hw();
        let pixels = (oh * ow) as u64;
        let per_pixel =
            geom.in_channels * geom.kernel * geom.kernel.div_ceil(config.taps_per_cycle);
        ConvPassStats {
            cycles: processed + pixels,
            active_pe_cycles: processed * group_size as u64,
            skipped_segments: pixels * per_pixel as u64 - processed,
            processed_segments: processed,
        }
    }
}

/// Cycle and operation accounting of one timestep of a PL conv layer: one
/// [`ConvPassStats`] pass per kernel group over the same input plane.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LayerPassStats {
    /// Clock cycles: every pass plus the aggregation pipeline fill after
    /// it (the aggregation core otherwise overlaps the spiking core).
    pub cycles: u64,
    /// Σ over cycles of active PEs.
    pub active_pe_cycles: u64,
    /// Arithmetic operations performed, `ops_per_pe_cycle` per active-PE
    /// cycle.
    pub ops: u64,
    /// Operations of a dense schedule: every segment, processed or
    /// skipped, at the full group width.
    pub nominal_ops: u64,
    /// Segments processed, summed over the passes.
    pub processed_segments: u64,
    /// Segments skipped, summed over the passes.
    pub skipped_segments: u64,
}

/// Prices one timestep of a PL conv layer over `plane`: one pass per
/// kernel group `(start, size)`, all priced by one segment count.
///
/// # Panics
///
/// Panics if the plane shape mismatches `geom`'s input or a group exceeds
/// the PE count.
#[must_use]
pub fn layer_passes(
    geom: &Conv2dGeom,
    plane: &SpikePlane,
    groups: &[(usize, usize)],
    config: &SiaConfig,
) -> LayerPassStats {
    let processed = processed_segments(geom, plane, config);
    let mut total = LayerPassStats::default();
    for &(_, size) in groups {
        let pass = ConvPassStats::new(geom, config, processed, size);
        let segments = pass.processed_segments + pass.skipped_segments;
        total.cycles += pass.cycles + config.aggregation_pipeline_depth;
        total.active_pe_cycles += pass.active_pe_cycles;
        total.ops += pass.active_pe_cycles * config.ops_per_pe_cycle;
        total.nominal_ops += segments * size as u64 * config.ops_per_pe_cycle;
        total.processed_segments += pass.processed_segments;
        total.skipped_segments += pass.skipped_segments;
    }
    total
}

/// S: the kernel-row segments of one conv pass whose spike taps are not
/// all zero, over every output pixel, input channel, kernel row and
/// `taps_per_cycle`-tap segment (out-of-bounds taps read zero — the
/// padding).
///
/// Counted one input row `(ci, iy)` at a time as S = Σ R·P: P is the
/// number of `(oy, ky)` pairs that read the row, R the row's non-zero
/// segment windows. A `w`-tap window is non-zero iff the row ORed with its
/// shifts by `1 … w−1` has a bit at the window's start, so 64 window
/// starts cost `w` word reads and one popcount.
///
/// # Panics
///
/// Panics if the plane shape mismatches `geom`'s input.
#[must_use]
pub fn processed_segments(geom: &Conv2dGeom, plane: &SpikePlane, config: &SiaConfig) -> u64 {
    assert!(
        plane.channels() == geom.in_channels
            && plane.height() == geom.in_h
            && plane.width() == geom.in_w,
        "spike plane shape mismatches conv geometry"
    );
    let (oh, ow) = geom.out_hw();
    let (k, stride, pad) = (geom.kernel, geom.stride, geom.padding);
    // window starts `ox·stride` (relative to a segment's first tap) of the
    // output columns, taken 64 at a time
    let span = (ow - 1) * stride + 1;
    let mut total = 0u64;
    for base in (0..span).step_by(64) {
        let starts = (base.next_multiple_of(stride)..span.min(base + 64))
            .step_by(stride)
            .fold(0u64, |m, j| m | 1 << (j - base));
        for iy in 0..geom.in_h {
            // output rows `oy` whose kernel row `iy + pad − oy·stride` is in [0, K)
            let lo = (iy + pad + 1).saturating_sub(k).div_ceil(stride);
            let hi = ((iy + pad) / stride + 1).min(oh);
            let readers = hi.saturating_sub(lo) as u64;
            if readers == 0 {
                continue;
            }
            for ci in 0..geom.in_channels {
                if plane.row(ci, iy).iter().all(|&w| w == 0) {
                    continue;
                }
                let mut windows = 0u64;
                let mut kx = 0;
                while kx < k {
                    let seg = (k - kx).min(config.taps_per_cycle);
                    let x0 = (base + kx) as isize - pad as isize;
                    let hit = (0..seg).fold(0u64, |m, d| {
                        m | plane.extract_bits(ci, iy as isize, x0 + d as isize, 64)
                    });
                    windows += u64::from((hit & starts).count_ones());
                    kx += seg;
                }
                total += windows * readers;
            }
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom(cin: usize, hw: usize, k: usize) -> Conv2dGeom {
        Conv2dGeom {
            in_channels: cin,
            out_channels: 8,
            in_h: hw,
            in_w: hw,
            kernel: k,
            stride: 1,
            padding: k / 2,
        }
    }

    fn plane(g: &Conv2dGeom, spiking: impl Fn(usize) -> bool) -> SpikePlane {
        let bytes: Vec<u8> = (0..g.in_channels * g.in_h * g.in_w)
            .map(|i| u8::from(spiking(i)))
            .collect();
        let mut p = SpikePlane::default();
        p.pack_from_bytes(g.in_channels, g.in_h, g.in_w, &bytes);
        p
    }

    fn pass(g: &Conv2dGeom, p: &SpikePlane, size: usize) -> ConvPassStats {
        let cfg = SiaConfig::pynq_z2();
        ConvPassStats::new(g, &cfg, processed_segments(g, p, &cfg), size)
    }

    #[test]
    fn silent_input_costs_only_handoff_cycles() {
        let g = geom(8, 4, 3);
        let out = pass(&g, &plane(&g, |_| false), 4);
        let (oh, ow) = g.out_hw();
        assert_eq!(out.cycles, (oh * ow) as u64); // one handoff per pixel
        assert_eq!(out.processed_segments, 0);
        assert_eq!(out.skipped_segments, (oh * ow * 8 * 3) as u64);
    }

    #[test]
    fn dense_input_skips_only_padded_rows() {
        // all-ones 4×4 input, 3×3 pad 1: a segment is empty only where its
        // kernel row falls in the padding — the top and bottom output rows
        // each lose one kernel row per channel
        let g = geom(2, 4, 3);
        let out = pass(&g, &plane(&g, |_| true), 4);
        assert_eq!(out.processed_segments + out.skipped_segments, 16 * 2 * 3);
        assert_eq!(out.skipped_segments, 2 * 4 * 2);
        assert_eq!(out.cycles, out.processed_segments + 16);
        assert_eq!(out.active_pe_cycles, out.processed_segments * 4);
    }

    #[test]
    fn sparser_input_costs_fewer_cycles() {
        let g = geom(16, 8, 3);
        let sparse = pass(&g, &plane(&g, |i| i % 8 == 0), 8);
        let dense = pass(&g, &plane(&g, |i| i % 2 == 0), 8);
        assert!(sparse.cycles < dense.cycles, "{sparse:?} vs {dense:?}");
    }

    #[test]
    fn wide_kernels_use_multiple_segments() {
        // K=5 ⇒ rows split into 3+2 tap segments: an interior pixel of an
        // all-ones input processes 5 rows × 2 segments
        let g = geom(1, 8, 5);
        let out = pass(&g, &plane(&g, |_| true), 1);
        assert_eq!(out.processed_segments + out.skipped_segments, 64 * 5 * 2);
        assert!(out.cycles <= 64 * 11);
    }

    #[test]
    #[should_panic(expected = "exceeds PE array")]
    fn oversized_group_rejected() {
        let g = geom(1, 4, 3);
        let _ = pass(&g, &plane(&g, |_| false), 128);
    }
}
