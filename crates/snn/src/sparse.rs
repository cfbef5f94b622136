//! Event-driven (scatter) convolution kernels over bit-packed spike planes.
//!
//! The dense reference walks every `(co, oy, ox, ci, ky, kx)` tap whether
//! the input spiked or not, so its cost is independent of sparsity. The
//! scatter path iterates only the **set** spike bits and adds each spike's
//! weight taps into a channels-last psum buffer — the software analogue of
//! the SIA's event-driven PE accumulation (paper Fig. 3), where a silent
//! input costs nothing.
//!
//! ## Bit-exactness
//!
//! Saturating 16-bit accumulation makes the addition order observable, so
//! the scatter loop must deliver contributions to each output accumulator
//! in exactly the reference order `(ci asc, ky asc, kx asc)`:
//!
//! * `ci` is the scatter loop's outermost dimension — same order;
//! * for a fixed output row `oy`, the contributing input row is
//!   `iy = oy·stride + ky − pad`, strictly increasing in `ky`, so visiting
//!   input rows ascending visits `ky` ascending;
//! * within one input row, set bits are visited with `x` ascending; for a
//!   fixed output column `ox` the tap is `kx = x − ox·stride + pad`,
//!   strictly increasing in `x`, so `kx` is visited ascending.
//!
//! The `co` loop is innermost (contiguous in both the transposed weights
//! and the channels-last psums) — its position is free because different
//! `co` values write disjoint accumulators. A final value-preserving
//! transpose restores the canonical `[C_out, OH, OW]` layout. The
//! equivalence is enforced bit-for-bit by proptests
//! (`crates/snn/tests/sparse_dense.rs`).
//!
//! ## Word-level parallelism
//!
//! Two further identities let the production kernels run `i16` lanes in
//! parallel without perturbing a single accumulator:
//!
//! * **lane blocking** — the scatter's innermost `co` sweep is unrolled
//!   into [`LANES`]-wide fixed blocks ([`add_weight_lanes`]); each lane is
//!   a *different* accumulator, so blocking never reorders any one
//!   accumulator's additions, and the autovectorizer lifts the block into
//!   saturating i16 SIMD adds (`PADDSW`-class instructions — the software
//!   image of one PE-array row accumulating eight output channels per
//!   clock);
//! * **masked identity** — `x.saturating_add(0) == x` exactly, so the
//!   register-tiled dense kernel ([`dense_tiled_int`]) may visit *every*
//!   tap branch-free and add `mask & weight`, where `mask` is `-1` for a
//!   set spike bit and `0` otherwise. Silent taps contribute the saturating
//!   identity, which is bit-equivalent to the reference's skip.

use crate::network::SnnConv;
use crate::scratch::scratch_resize;
use crate::spikeplane::SpikePlane;
use sia_fixed::sat::acc_weight;
use sia_tensor::tile::{block, zip_blocks_mut};
use sia_tensor::Conv2dGeom;

/// i16 accumulator lanes per unrolled scatter block: one 256-bit
/// saturating-add's worth on AVX2-class hosts; narrower targets split a
/// block into two 128-bit ops, wider ones fuse adjacent blocks.
pub const LANES: usize = 16;

/// Dense micro-tile rows: output channels held in registers per tile.
const TILE_CO: usize = 4;

/// Dense micro-tile columns: output x positions per tile (one 256-bit i16
/// vector per accumulator row).
const TILE_OX: usize = 16;

/// Which psum kernel the engines use for spiking convolutions.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum KernelPolicy {
    /// Pick per call from the built-in operation-count heuristic (the
    /// default when no calibration file is available).
    #[default]
    Auto,
    /// Always the dense path (for verification and benching).
    ForceDense,
    /// Always the event-driven scatter (for verification and benching).
    ForceSparse,
    /// Pick per call from a measured-per-host [`CostModel`] (produced by
    /// `sia calibrate`, see [`crate::calibrate`]).
    Calibrated(CostModel),
}

impl KernelPolicy {
    /// Whether this policy selects the event-driven scatter for one conv
    /// call with `spikes` set bits and `n_out` output accumulators.
    #[must_use]
    pub fn picks_sparse(self, g: &Conv2dGeom, spikes: u64, n_out: usize) -> bool {
        match self {
            KernelPolicy::Auto => sparse_wins(g, spikes, n_out),
            KernelPolicy::ForceDense => false,
            KernelPolicy::ForceSparse => true,
            KernelPolicy::Calibrated(m) => m.sparse_wins(g, spikes, n_out),
        }
    }
}

/// Output-channel lanes the scatter kernel actually sweeps per spike tap.
///
/// The innermost `co` loop is unrolled into [`LANES`]-wide blocks
/// ([`add_weight_lanes`]); a partial block still executes a full block of
/// saturating adds (trailing lanes land in slack), so the cost model must
/// price `ceil(C_out / LANES) · LANES` lanes, not `C_out`.
#[must_use]
pub fn scatter_lane_span(out_channels: usize) -> usize {
    out_channels.div_ceil(LANES) * LANES
}

/// Output elements the dense tiled kernel actually computes for `g`.
///
/// [`dense_tiled_int`] holds full `TILE_CO × TILE_OX` register tiles even
/// at partial edges — `nco`/`nox` only clamp the writeback — so the work is
/// `ceil(C_out / TILE_CO) · TILE_CO` channel rows by
/// `ceil(OW / TILE_OX) · TILE_OX` columns per output row.
#[must_use]
pub fn dense_padded_outs(g: &Conv2dGeom) -> usize {
    let (oh, ow) = g.out_hw();
    g.out_channels.div_ceil(TILE_CO) * TILE_CO * oh * ow.div_ceil(TILE_OX) * TILE_OX
}

/// Measured per-host kernel cost coefficients, in integer **picoseconds**
/// so the derived policy stays `Copy + Eq` and every decision is exactly
/// reproducible from the calibration file that stored it.
///
/// The model prices one conv call against the lanes the kernels *execute*,
/// not the elements they produce — both production kernels run in fixed
/// blocks, so partial blocks cost a full block:
///
/// * scatter ≈ `scatter_ps_per_lane · spikes·K²·ceil(C_out/LANES)·LANES`
///   `+ scatter_ps_per_out · 2·n_out` (psum clear + transpose sweeps),
/// * dense ≈ `dense_ps_per_lane · padded_outs·C_in·K²` where `padded_outs`
///   rounds `C_out` up to [`TILE_CO`] and `OW` up to [`TILE_OX`]
///   ([`dense_padded_outs`]),
///
/// and selects the scatter when its estimate is no larger.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CostModel {
    /// ps per scatter weight-accumulate lane
    /// (`spikes·K²·scatter_lane_span(C_out)` of them).
    pub scatter_ps_per_lane: u32,
    /// ps per output element of density-independent scatter overhead.
    pub scatter_ps_per_out: u32,
    /// ps per dense tap lane (`dense_padded_outs(g)·C_in·K²` of them).
    pub dense_ps_per_lane: u32,
}

impl CostModel {
    /// Modelled scatter cost for one call, in picoseconds.
    #[must_use]
    pub fn scatter_cost_ps(&self, g: &Conv2dGeom, spikes: u64, n_out: usize) -> u128 {
        let k2 = (g.kernel * g.kernel) as u128;
        let lane_span = scatter_lane_span(g.out_channels) as u128;
        u128::from(self.scatter_ps_per_lane) * u128::from(spikes) * k2 * lane_span
            + u128::from(self.scatter_ps_per_out) * 2 * n_out as u128
    }

    /// Modelled dense cost for one call, in picoseconds. (`n_out` is
    /// accepted for signature symmetry with the scatter estimate but the
    /// tiled kernel's work depends only on the padded geometry.)
    #[must_use]
    pub fn dense_cost_ps(&self, g: &Conv2dGeom, n_out: usize) -> u128 {
        let _ = n_out;
        let k2 = (g.kernel * g.kernel) as u128;
        u128::from(self.dense_ps_per_lane)
            * dense_padded_outs(g) as u128
            * g.in_channels as u128
            * k2
    }

    /// Scatter wins when its modelled cost is no larger than dense's.
    #[must_use]
    pub fn sparse_wins(&self, g: &Conv2dGeom, spikes: u64, n_out: usize) -> bool {
        self.scatter_cost_ps(g, spikes, n_out) <= self.dense_cost_ps(g, n_out)
    }

    /// The spike density (fraction of input neurons set) at which the two
    /// modelled costs cross for geometry `g`, clamped to `[0, 1]`. Densities
    /// below it run the scatter; auditable via the bench fine-density grid.
    #[must_use]
    pub fn crossover_density(&self, g: &Conv2dGeom) -> f64 {
        let (oh, ow) = g.out_hw();
        let n_out = g.out_channels * oh * ow;
        let neurons = (g.in_channels * g.in_h * g.in_w) as f64;
        let k2 = (g.kernel * g.kernel) as f64;
        let per_spike =
            f64::from(self.scatter_ps_per_lane) * k2 * scatter_lane_span(g.out_channels) as f64;
        if per_spike <= 0.0 || neurons <= 0.0 {
            return 1.0;
        }
        let fixed = f64::from(self.scatter_ps_per_out) * 2.0 * n_out as f64;
        let dense = self.dense_cost_ps(g, n_out) as f64;
        let spikes = (dense - fixed) / per_spike;
        (spikes / neurons).clamp(0.0, 1.0)
    }
}

/// Reusable per-engine convolution scratch: psum buffers (canonical and
/// channels-last), a transposed-weight cache keyed by layer, and the
/// event-driven tap accounting surfaced through `Engine::stage_taps`.
#[derive(Clone, Debug, Default)]
pub struct ConvScratch {
    psum_i: Vec<i16>,
    psum_cl_i: Vec<i16>,
    psum_f: Vec<f32>,
    psum_cl_f: Vec<f32>,
    psum_d32: Vec<i32>,
    psum_df: Vec<f32>,
    wt_i: Vec<i8>,
    wt_i_key: Option<usize>,
    wt_w: Vec<i16>,
    wt_w_key: Option<usize>,
    wt_f: Vec<f32>,
    wt_f_key: Option<usize>,
    mask_i: Vec<i16>,
    /// Weight taps the active kernel actually accumulated since the last
    /// [`ConvScratch::take_taps`] (input-centric: one spike touches `K²`
    /// taps).
    pub taps_processed: u64,
    /// Weight taps skipped by event-driven iteration (silent inputs ×
    /// `K²`); zero on the dense path, which touches everything.
    pub taps_skipped: u64,
}

impl ConvScratch {
    /// Empty scratch (buffers grow to their high-water mark on first use).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns and resets the tap counters accumulated since the last call.
    pub fn take_taps(&mut self) -> (u64, u64) {
        let t = (self.taps_processed, self.taps_skipped);
        self.taps_processed = 0;
        self.taps_skipped = 0;
        t
    }
}

/// Cost-model choice between scatter and dense gather. The scatter pass
/// costs ≈ `spikes·K²·C_out` accumulates plus two `n_out`-sized sweeps
/// (clear + transpose); the dense gather costs `n_out·C_in·K²` tap visits.
/// Sparse must win by 2× on the model before it is chosen, so borderline
/// densities keep the well-vectorised dense loop.
fn sparse_wins(g: &Conv2dGeom, spikes: u64, n_out: usize) -> bool {
    let k2 = (g.kernel * g.kernel) as u64;
    let sparse_cost = spikes * k2 * (g.out_channels as u64 + 1) + 2 * n_out as u64;
    let dense_cost = n_out as u64 * g.in_channels as u64 * k2;
    sparse_cost * 2 <= dense_cost
}

fn account_taps(scr: &mut ConvScratch, g: &Conv2dGeom, spikes: u64, sparse: bool) {
    let k2 = (g.kernel * g.kernel) as u64;
    let neurons = (g.in_channels * g.in_h * g.in_w) as u64;
    if sparse {
        scr.taps_processed += spikes * k2;
        scr.taps_skipped += (neurons - spikes) * k2;
    } else {
        scr.taps_processed += neurons * k2;
    }
}

/// Weights transposed to `[(ci, ky, kx), co]` so the scatter inner loop is
/// contiguous, built into `wt` (scratch-tracked).
fn build_wt_int(conv: &SnnConv, wt: &mut Vec<i8>) {
    let g = &conv.geom;
    let (cout, cin, k) = (g.out_channels, g.in_channels, g.kernel);
    scratch_resize(wt, cout * cin * k * k, 0);
    for co in 0..cout {
        for ci in 0..cin {
            for ky in 0..k {
                for kx in 0..k {
                    wt[((ci * k + ky) * k + kx) * cout + co] = conv.weight(co, ci, ky, kx);
                }
            }
        }
    }
}

/// Same transposition pre-widened to i16 for the tiled dense kernel: the
/// micro-kernel then broadcasts weights straight from memory instead of
/// sign-extending each one through a scalar register first.
fn build_wt_wide(conv: &SnnConv, wt: &mut Vec<i16>) {
    let g = &conv.geom;
    let (cout, cin, k) = (g.out_channels, g.in_channels, g.kernel);
    scratch_resize(wt, cout * cin * k * k, 0);
    for co in 0..cout {
        for ci in 0..cin {
            for ky in 0..k {
                for kx in 0..k {
                    wt[((ci * k + ky) * k + kx) * cout + co] =
                        i16::from(conv.weight(co, ci, ky, kx));
                }
            }
        }
    }
}

fn build_wt_f32(conv: &SnnConv, wt: &mut Vec<f32>) {
    let g = &conv.geom;
    let (cout, cin, k) = (g.out_channels, g.in_channels, g.kernel);
    scratch_resize(wt, cout * cin * k * k, 0.0);
    for co in 0..cout {
        for ci in 0..cin {
            for ky in 0..k {
                for kx in 0..k {
                    wt[((ci * k + ky) * k + kx) * cout + co] =
                        f32::from(conv.weight(co, ci, ky, kx));
                }
            }
        }
    }
}

/// Float scatter: for every set spike bit, visit its valid `(ky, kx)` taps
/// and add the transposed weight row into the channels-last psum row (see
/// the module docs for the order proof).
fn scatter_f32(g: &Conv2dGeom, wt: &[f32], plane: &SpikePlane, psum_cl: &mut [f32]) {
    let (oh, ow) = g.out_hw();
    let (k, cout) = (g.kernel, g.out_channels);
    let pad = g.padding as isize;
    let stride = g.stride as isize;
    for ci in 0..g.in_channels {
        for iy in 0..g.in_h {
            plane.for_each_set_in_row(ci, iy, |x| {
                for ky in 0..k {
                    // oy·stride = iy + pad − ky, decreasing in ky: once
                    // negative it stays negative.
                    let oy_num = iy as isize + pad - ky as isize;
                    if oy_num < 0 {
                        break;
                    }
                    if oy_num % stride != 0 {
                        continue;
                    }
                    let oy = (oy_num / stride) as usize;
                    if oy >= oh {
                        continue;
                    }
                    for kx in 0..k {
                        let ox_num = x as isize + pad - kx as isize;
                        if ox_num < 0 {
                            break;
                        }
                        if ox_num % stride != 0 {
                            continue;
                        }
                        let ox = (ox_num / stride) as usize;
                        if ox >= ow {
                            continue;
                        }
                        let wrow = &wt[((ci * k + ky) * k + kx) * cout..][..cout];
                        let prow = &mut psum_cl[(oy * ow + ox) * cout..][..cout];
                        for (p, &w) in prow.iter_mut().zip(wrow) {
                            *p += w;
                        }
                    }
                }
            });
        }
    }
}

/// Valid stride-1 kernel offsets for padded input coordinate `ipad`:
/// `kk` such that `out = ipad − kk` lands in `[0, o_len)`, as a
/// `lo..hi` range (ascending `kk` ⇒ reference tap order).
#[inline]
fn tap_range(ipad: usize, k: usize, o_len: usize) -> (usize, usize) {
    let hi = (ipad + 1).min(k);
    let lo = (ipad + 1).saturating_sub(o_len).min(hi);
    (lo, hi)
}

/// One spike tap, word-parallel: folds a transposed weight row into a
/// channels-last psum row in [`LANES`]-wide blocks. Every lane is a
/// distinct `co` accumulator, so blocking cannot reorder any single
/// accumulator's additions; the scalar tail applies the identical
/// `acc_weight` op, so the lane count never changes values.
#[inline]
fn add_weight_lanes(prow: &mut [i16], wrow: &[i8]) {
    zip_blocks_mut::<LANES, _, _>(
        prow,
        wrow,
        |p, w| {
            for l in 0..LANES {
                p[l] = p[l].saturating_add(i16::from(w[l]));
            }
        },
        |p, &w| *p = acc_weight(*p, w),
    );
}

/// Word-parallel integer scatter: identical tap visit order to
/// [`scatter_f32`], with the innermost `co` sweep unrolled via
/// [`add_weight_lanes`]. Stride-1 planes additionally take a branch-free
/// tap-range fast path (no divisibility tests in the per-spike loop).
fn scatter_int_wide(g: &Conv2dGeom, wt: &[i8], plane: &SpikePlane, psum_cl: &mut [i16]) {
    let (oh, ow) = g.out_hw();
    let (k, cout) = (g.kernel, g.out_channels);
    if g.stride == 1 {
        let pad = g.padding;
        for ci in 0..g.in_channels {
            for iy in 0..g.in_h {
                let (ky_lo, ky_hi) = tap_range(iy + pad, k, oh);
                plane.for_each_set_in_row(ci, iy, |x| {
                    let (kx_lo, kx_hi) = tap_range(x + pad, k, ow);
                    for ky in ky_lo..ky_hi {
                        let oy = iy + pad - ky;
                        let trow = (ci * k + ky) * k;
                        for kx in kx_lo..kx_hi {
                            let ox = x + pad - kx;
                            let wrow = &wt[(trow + kx) * cout..][..cout];
                            let prow = &mut psum_cl[(oy * ow + ox) * cout..][..cout];
                            add_weight_lanes(prow, wrow);
                        }
                    }
                });
            }
        }
    } else {
        // General stride: same validity walk as [`scatter_f32`].
        let pad = g.padding as isize;
        let stride = g.stride as isize;
        for ci in 0..g.in_channels {
            for iy in 0..g.in_h {
                plane.for_each_set_in_row(ci, iy, |x| {
                    for ky in 0..k {
                        let oy_num = iy as isize + pad - ky as isize;
                        if oy_num < 0 {
                            break;
                        }
                        if oy_num % stride != 0 {
                            continue;
                        }
                        let oy = (oy_num / stride) as usize;
                        if oy >= oh {
                            continue;
                        }
                        for kx in 0..k {
                            let ox_num = x as isize + pad - kx as isize;
                            if ox_num < 0 {
                                break;
                            }
                            if ox_num % stride != 0 {
                                continue;
                            }
                            let ox = (ox_num / stride) as usize;
                            if ox >= ow {
                                continue;
                            }
                            let wrow = &wt[((ci * k + ky) * k + kx) * cout..][..cout];
                            let prow = &mut psum_cl[(oy * ow + ox) * cout..][..cout];
                            add_weight_lanes(prow, wrow);
                        }
                    }
                });
            }
        }
    }
}

/// Expands the bit plane into a padded `0 / −1` i16 mask plane for the
/// tiled dense kernel: per channel, `in_h + 2·pad` rows of
/// `in_w + 2·pad` columns, borders zero. `mask & weight` is then exactly
/// `weight` on set bits and `0` — the saturating-add identity — elsewhere,
/// which is what makes the branchless kernel bit-exact with the
/// skip-silent-taps reference (and density-independent in time: no
/// data-dependent branch survives into the inner loop).
fn build_mask_plane(g: &Conv2dGeom, plane: &SpikePlane, mask: &mut Vec<i16>) {
    let mw = g.in_w + 2 * g.padding;
    let mh = g.in_h + 2 * g.padding;
    scratch_resize(mask, g.in_channels * mh * mw, 0);
    for ci in 0..g.in_channels {
        for iy in 0..g.in_h {
            let base = (ci * mh + iy + g.padding) * mw + g.padding;
            for (wi, &word) in plane.row(ci, iy).iter().enumerate() {
                let n = (g.in_w - wi * 64).min(64);
                for (j, m) in mask[base + wi * 64..][..n].iter_mut().enumerate() {
                    *m = 0i16.wrapping_sub(((word >> j) & 1) as i16);
                }
            }
        }
    }
}

/// Register-tiled branchless INT8→INT16 dense kernel (im2col-free).
///
/// Tiles `TILE_CO` output channels × `TILE_OX` output columns of one
/// output row into an i16 register tile, then sweeps the *entire*
/// reduction `(ci, ky, kx)` in reference order, adding `mask & weight`
/// per lane (see [`build_mask_plane`] for why that is bit-exact). The
/// reduction is never split across tiles — saturating addition is not
/// associative, so each accumulator sees all of its taps in one sweep.
/// Weights come from the same `[(ci,ky,kx), co]` transposition as the
/// scatter, so `TILE_CO` adjacent channels are one contiguous load; writes
/// land directly in canonical `[C_out, OH, OW]` (no transpose pass).
fn dense_tiled_int(g: &Conv2dGeom, wt: &[i16], mask: &[i16], out: &mut [i16]) {
    let (oh, ow) = g.out_hw();
    let (k, cout, stride) = (g.kernel, g.out_channels, g.stride);
    let mut co0 = 0;
    while co0 < cout {
        let nco = TILE_CO.min(cout - co0);
        let mut oy = 0;
        while oy < oh {
            // Pair output rows whenever the 3×3 stride-1 micro-kernel
            // applies: each weight broadcast then feeds two accumulator
            // rows, nearly halving the per-tap scalar overhead.
            let rows = if nco == TILE_CO && stride == 1 && k == 3 && oy + 2 <= oh {
                2
            } else {
                1
            };
            let mut ox0 = 0;
            while ox0 < ow {
                let nox = TILE_OX.min(ow - ox0);
                if rows == 2 && nox == TILE_OX {
                    tile_k3_pair(g, wt, mask, oy, ox0, co0, out);
                } else {
                    for r in 0..rows {
                        tile_one_row(g, wt, mask, oy + r, ox0, co0, nco, nox, out);
                    }
                }
                ox0 += TILE_OX;
            }
            oy += rows;
        }
        co0 += TILE_CO;
    }
}

/// 3×3 stride-1 micro-kernel: two output rows × `TILE_CO` channels ×
/// `TILE_OX` columns per sweep. The `kx` loop has a constant trip count,
/// so LLVM unrolls it and proves every window subscript in range — the
/// tap loop carries no bounds checks. One named fixed-width accumulator
/// per (row, channel) — not a 2-D array — keeps the vectorizer on the
/// column dimension (i16 lanes across `ox`) instead of SLP-gathering
/// across channels through stack spills.
#[inline]
fn tile_k3_pair(
    g: &Conv2dGeom,
    wt: &[i16],
    mask: &[i16],
    oy: usize,
    ox0: usize,
    co0: usize,
    out: &mut [i16],
) {
    let (oh, ow) = g.out_hw();
    let cout = g.out_channels;
    let mw = g.in_w + 2 * g.padding;
    let mh = g.in_h + 2 * g.padding;
    let mut a0 = [0i16; TILE_OX];
    let mut a1 = [0i16; TILE_OX];
    let mut a2 = [0i16; TILE_OX];
    let mut a3 = [0i16; TILE_OX];
    let mut b0 = [0i16; TILE_OX];
    let mut b1 = [0i16; TILE_OX];
    let mut b2 = [0i16; TILE_OX];
    let mut b3 = [0i16; TILE_OX];
    for ci in 0..g.in_channels {
        let mch = &mask[ci * mh * mw..][..mh * mw];
        for ky in 0..3 {
            let row = (oy + ky) * mw + ox0;
            let wina: &[i16; TILE_OX + 2] = block(&mch[row..]);
            let winb: &[i16; TILE_OX + 2] = block(&mch[row + mw..]);
            let wtap = &wt[((ci * 3 + ky) * 3) * cout + co0..];
            for kx in 0..3 {
                let ws = block::<TILE_CO, _>(&wtap[kx * cout..]);
                let (w0, w1, w2, w3) = (ws[0], ws[1], ws[2], ws[3]);
                for j in 0..TILE_OX {
                    let ma = wina[kx + j];
                    let mb = winb[kx + j];
                    a0[j] = a0[j].saturating_add(ma & w0);
                    a1[j] = a1[j].saturating_add(ma & w1);
                    a2[j] = a2[j].saturating_add(ma & w2);
                    a3[j] = a3[j].saturating_add(ma & w3);
                    b0[j] = b0[j].saturating_add(mb & w0);
                    b1[j] = b1[j].saturating_add(mb & w1);
                    b2[j] = b2[j].saturating_add(mb & w2);
                    b3[j] = b3[j].saturating_add(mb & w3);
                }
            }
        }
    }
    let per_ch = oh * ow;
    let base = oy * ow + ox0;
    for (r, acc) in [&a0, &a1, &a2, &a3].into_iter().enumerate() {
        out[(co0 + r) * per_ch + base..][..TILE_OX].copy_from_slice(acc);
    }
    for (r, acc) in [&b0, &b1, &b2, &b3].into_iter().enumerate() {
        out[(co0 + r) * per_ch + base + ow..][..TILE_OX].copy_from_slice(acc);
    }
}

/// General single-row tile: any kernel size, stride, and partial tile
/// widths. Full tiles take the fixed-lane fast path; edge tiles and
/// stride > 1 use dynamic lane counts and a strided mask walk.
#[allow(clippy::too_many_arguments)]
#[inline]
fn tile_one_row(
    g: &Conv2dGeom,
    wt: &[i16],
    mask: &[i16],
    oy: usize,
    ox0: usize,
    co0: usize,
    nco: usize,
    nox: usize,
    out: &mut [i16],
) {
    let (oh, ow) = g.out_hw();
    let (k, cout, cin, stride) = (g.kernel, g.out_channels, g.in_channels, g.stride);
    let mw = g.in_w + 2 * g.padding;
    let mh = g.in_h + 2 * g.padding;
    let mut acc = [[0i16; TILE_OX]; TILE_CO];
    if nco == TILE_CO && nox == TILE_OX && stride == 1 {
        let mut a0 = [0i16; TILE_OX];
        let mut a1 = [0i16; TILE_OX];
        let mut a2 = [0i16; TILE_OX];
        let mut a3 = [0i16; TILE_OX];
        for ci in 0..cin {
            let mch = &mask[ci * mh * mw..][..mh * mw];
            for ky in 0..k {
                let mrow = &mch[(oy + ky) * mw..][..mw];
                let trow = (ci * k + ky) * k;
                for kx in 0..k {
                    let m = block::<TILE_OX, _>(&mrow[ox0 + kx..]);
                    let ws = block::<TILE_CO, _>(&wt[(trow + kx) * cout + co0..]);
                    let (w0, w1, w2, w3) = (ws[0], ws[1], ws[2], ws[3]);
                    for j in 0..TILE_OX {
                        a0[j] = a0[j].saturating_add(m[j] & w0);
                        a1[j] = a1[j].saturating_add(m[j] & w1);
                        a2[j] = a2[j].saturating_add(m[j] & w2);
                        a3[j] = a3[j].saturating_add(m[j] & w3);
                    }
                }
            }
        }
        acc = [a0, a1, a2, a3];
    } else {
        // Edge tiles and stride > 1: same order, dynamic lane counts and
        // a strided mask walk.
        for ci in 0..cin {
            let mch = &mask[ci * mh * mw..][..mh * mw];
            for ky in 0..k {
                let mrow = &mch[(oy * stride + ky) * mw..][..mw];
                let trow = (ci * k + ky) * k;
                for kx in 0..k {
                    let ws = &wt[(trow + kx) * cout + co0..][..nco];
                    let mbase = ox0 * stride + kx;
                    for (accr, &w) in acc[..nco].iter_mut().zip(ws) {
                        for (j, a) in accr[..nox].iter_mut().enumerate() {
                            *a = a.saturating_add(mrow[mbase + j * stride] & w);
                        }
                    }
                }
            }
        }
    }
    let per_ch = oh * ow;
    for (r, accr) in acc[..nco].iter().enumerate() {
        let dst = &mut out[(co0 + r) * per_ch + oy * ow + ox0..][..nox];
        dst.copy_from_slice(&accr[..nox]);
    }
}

/// Channels-last → canonical `[C_out, OH, OW]` (value-preserving).
fn transpose_cl<A: Copy>(cl: &[A], out: &mut [A], cout: usize, per_ch: usize) {
    for p in 0..per_ch {
        for co in 0..cout {
            out[co * per_ch + p] = cl[p * cout + co];
        }
    }
}

fn gather_f32(conv: &SnnConv, plane: &SpikePlane, out: &mut [f32]) {
    let g = &conv.geom;
    let (oh, ow) = g.out_hw();
    for co in 0..g.out_channels {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut acc = 0.0f32;
                for ci in 0..g.in_channels {
                    for ky in 0..g.kernel {
                        let iy = (oy * g.stride + ky) as isize - g.padding as isize;
                        if iy < 0 || iy >= g.in_h as isize {
                            continue;
                        }
                        for kx in 0..g.kernel {
                            let ix = (ox * g.stride + kx) as isize - g.padding as isize;
                            if ix < 0 || ix >= g.in_w as isize {
                                continue;
                            }
                            if plane.bit(ci, iy as usize, ix as usize) {
                                acc += f32::from(conv.weight(co, ci, ky, kx));
                            }
                        }
                    }
                }
                out[(co * oh + oy) * ow + ox] = acc;
            }
        }
    }
}

fn check_plane(g: &Conv2dGeom, plane: &SpikePlane) {
    assert_eq!(
        (plane.channels(), plane.height(), plane.width()),
        (g.in_channels, g.in_h, g.in_w),
        "spike plane shape mismatches conv geometry"
    );
}

/// Ensures the transposed integer weight cache holds layer `key`.
fn ensure_wt_int(conv: &SnnConv, scr: &mut ConvScratch, key: usize) {
    if scr.wt_i_key != Some(key) {
        build_wt_int(conv, &mut scr.wt_i);
        scr.wt_i_key = Some(key);
    }
}

/// Ensures the widened transposed weight cache holds layer `key`.
fn ensure_wt_wide(conv: &SnnConv, scr: &mut ConvScratch, key: usize) {
    if scr.wt_w_key != Some(key) {
        build_wt_wide(conv, &mut scr.wt_w);
        scr.wt_w_key = Some(key);
    }
}

/// Word-parallel scatter pipeline: build/reuse transposed weights, scatter
/// into the channels-last psums, transpose to canonical layout.
fn run_scatter_int<'a>(
    conv: &SnnConv,
    plane: &SpikePlane,
    scr: &'a mut ConvScratch,
    key: usize,
) -> &'a [i16] {
    let g = &conv.geom;
    let (oh, ow) = g.out_hw();
    let n_out = g.out_channels * oh * ow;
    ensure_wt_int(conv, scr, key);
    let ConvScratch {
        psum_i,
        psum_cl_i,
        wt_i,
        ..
    } = scr;
    scratch_resize(psum_cl_i, n_out, 0);
    scatter_int_wide(g, wt_i, plane, psum_cl_i);
    scratch_resize(psum_i, n_out, 0);
    transpose_cl(psum_cl_i, psum_i, g.out_channels, oh * ow);
    &scr.psum_i
}

/// Tiled dense pipeline: build/reuse transposed weights, expand the mask
/// plane, run the register-tiled kernel straight into canonical psums.
fn run_tiled_int<'a>(
    conv: &SnnConv,
    plane: &SpikePlane,
    scr: &'a mut ConvScratch,
    key: usize,
) -> &'a [i16] {
    let g = &conv.geom;
    let (oh, ow) = g.out_hw();
    ensure_wt_wide(conv, scr, key);
    let ConvScratch {
        psum_i,
        wt_w,
        mask_i,
        ..
    } = scr;
    build_mask_plane(g, plane, mask_i);
    scratch_resize(psum_i, g.out_channels * oh * ow, 0);
    dense_tiled_int(g, wt_w, mask_i, psum_i);
    &scr.psum_i
}

/// Direct entry to the word-parallel scatter (the production sparse path).
/// Same contract as [`conv_psums_int_plane`] minus policy selection and tap
/// accounting — used by `sia bench conv`, calibration and the proptests.
///
/// # Panics
///
/// Panics if the plane shape mismatches the conv geometry.
pub fn conv_psums_int_scatter<'a>(
    conv: &SnnConv,
    plane: &SpikePlane,
    scr: &'a mut ConvScratch,
    key: usize,
) -> &'a [i16] {
    check_plane(&conv.geom, plane);
    run_scatter_int(conv, plane, scr, key)
}

/// Direct entry to the register-tiled dense kernel (the production
/// high-density path).
///
/// # Panics
///
/// Panics if the plane shape mismatches the conv geometry.
pub fn conv_psums_int_tiled<'a>(
    conv: &SnnConv,
    plane: &SpikePlane,
    scr: &'a mut ConvScratch,
    key: usize,
) -> &'a [i16] {
    check_plane(&conv.geom, plane);
    run_tiled_int(conv, plane, scr, key)
}

/// Integer partial sums from a packed spike plane: the word-parallel
/// event-driven scatter when `policy` selects it, the register-tiled dense
/// kernel otherwise. Bit-exact with [`crate::runner::conv_psums_int`]
/// either way. `key` identifies the layer for the transposed-weight cache
/// (stable per engine, e.g. `item_index * 2 + is_downsample`).
///
/// # Panics
///
/// Panics if the plane shape mismatches the conv geometry.
pub fn conv_psums_int_plane<'a>(
    conv: &SnnConv,
    plane: &SpikePlane,
    policy: KernelPolicy,
    scr: &'a mut ConvScratch,
    key: usize,
) -> &'a [i16] {
    let g = &conv.geom;
    check_plane(g, plane);
    let (oh, ow) = g.out_hw();
    let n_out = g.out_channels * oh * ow;
    let spikes = plane.count_ones();
    let sparse = policy.picks_sparse(g, spikes, n_out);
    account_taps(scr, g, spikes, sparse);
    if sparse {
        run_scatter_int(conv, plane, scr, key)
    } else {
        run_tiled_int(conv, plane, scr, key)
    }
}

/// Float twin of [`conv_psums_int_plane`] (same selection and iteration
/// order, `f32` accumulation — addition order preserved, so results match
/// the dense float reference exactly).
///
/// # Panics
///
/// Panics if the plane shape mismatches the conv geometry.
pub fn conv_psums_f32_plane<'a>(
    conv: &SnnConv,
    plane: &SpikePlane,
    policy: KernelPolicy,
    scr: &'a mut ConvScratch,
    key: usize,
) -> &'a [f32] {
    let g = &conv.geom;
    check_plane(g, plane);
    let (oh, ow) = g.out_hw();
    let n_out = g.out_channels * oh * ow;
    let spikes = plane.count_ones();
    let sparse = policy.picks_sparse(g, spikes, n_out);
    account_taps(scr, g, spikes, sparse);
    if sparse {
        if scr.wt_f_key != Some(key) {
            build_wt_f32(conv, &mut scr.wt_f);
            scr.wt_f_key = Some(key);
        }
        let ConvScratch {
            psum_f,
            psum_cl_f,
            wt_f,
            ..
        } = scr;
        scratch_resize(psum_cl_f, n_out, 0.0);
        scatter_f32(g, wt_f, plane, psum_cl_f);
        scratch_resize(psum_f, n_out, 0.0);
        transpose_cl(psum_cl_f, psum_f, g.out_channels, oh * ow);
    } else {
        scratch_resize(&mut scr.psum_f, n_out, 0.0);
        gather_f32(conv, plane, &mut scr.psum_f);
    }
    &scr.psum_f
}

/// Scratch-buffer variant of [`crate::runner::conv_psums_dense`] (dense
/// INT8 first-layer codes, 32-bit accumulation) — same values, zero
/// steady-state allocation.
pub fn conv_psums_dense_into<'a>(
    conv: &SnnConv,
    codes: &[i8],
    scr: &'a mut ConvScratch,
) -> &'a [i32] {
    let g = &conv.geom;
    let (oh, ow) = g.out_hw();
    scratch_resize(&mut scr.psum_d32, g.out_channels * oh * ow, 0);
    for co in 0..g.out_channels {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut acc = 0i32;
                for ci in 0..g.in_channels {
                    for ky in 0..g.kernel {
                        let iy = (oy * g.stride + ky) as isize - g.padding as isize;
                        if iy < 0 || iy >= g.in_h as isize {
                            continue;
                        }
                        for kx in 0..g.kernel {
                            let ix = (ox * g.stride + kx) as isize - g.padding as isize;
                            if ix < 0 || ix >= g.in_w as isize {
                                continue;
                            }
                            let sidx = (ci * g.in_h + iy as usize) * g.in_w + ix as usize;
                            acc += i32::from(codes[sidx]) * i32::from(conv.weight(co, ci, ky, kx));
                        }
                    }
                }
                scr.psum_d32[(co * oh + oy) * ow + ox] = acc;
            }
        }
    }
    &scr.psum_d32
}

/// Float twin of [`conv_psums_dense_into`].
pub fn conv_psums_dense_f32_into<'a>(
    conv: &SnnConv,
    codes: &[i8],
    scr: &'a mut ConvScratch,
) -> &'a [f32] {
    let g = &conv.geom;
    let (oh, ow) = g.out_hw();
    scratch_resize(&mut scr.psum_df, g.out_channels * oh * ow, 0.0);
    for co in 0..g.out_channels {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut acc = 0.0f32;
                for ci in 0..g.in_channels {
                    for ky in 0..g.kernel {
                        let iy = (oy * g.stride + ky) as isize - g.padding as isize;
                        if iy < 0 || iy >= g.in_h as isize {
                            continue;
                        }
                        for kx in 0..g.kernel {
                            let ix = (ox * g.stride + kx) as isize - g.padding as isize;
                            if ix < 0 || ix >= g.in_w as isize {
                                continue;
                            }
                            let sidx = (ci * g.in_h + iy as usize) * g.in_w + ix as usize;
                            acc += f32::from(codes[sidx]) * f32::from(conv.weight(co, ci, ky, kx));
                        }
                    }
                }
                scr.psum_df[(co * oh + oy) * ow + ox] = acc;
            }
        }
    }
    &scr.psum_df
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{ConvInput, NeuronMode};
    use sia_fixed::{QuantScale, Q8_8};

    pub(crate) fn test_conv(
        cin: usize,
        cout: usize,
        hw: usize,
        k: usize,
        stride: usize,
        padding: usize,
        wseed: usize,
    ) -> SnnConv {
        let geom = Conv2dGeom {
            in_channels: cin,
            out_channels: cout,
            in_h: hw,
            in_w: hw,
            kernel: k,
            stride,
            padding,
        };
        let weights = (0..geom.weight_count())
            .map(|i| (((i * 31 + wseed * 13) % 255) as i32 - 127) as i8)
            .collect();
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

    fn spikes(n: usize, rate: u32, seed: u64) -> Vec<u8> {
        let mut s = seed | 1;
        (0..n)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                u8::from(((s >> 33) as u32 % 100) < rate)
            })
            .collect()
    }

    #[test]
    fn scatter_matches_dense_reference_int() {
        let mut scr = ConvScratch::new();
        for (i, &(cin, cout, hw, k, stride, pad)) in [
            (1usize, 1usize, 4usize, 1usize, 1usize, 0usize),
            (3, 5, 6, 3, 1, 1),
            (2, 4, 8, 3, 2, 1),
            (4, 3, 7, 3, 1, 0),
            (2, 2, 5, 1, 2, 0),
        ]
        .iter()
        .enumerate()
        {
            let conv = test_conv(cin, cout, hw, k, stride, pad, i + 1);
            for rate in [0u32, 3, 25, 60, 100] {
                let bytes = spikes(cin * hw * hw, rate, (i as u64 + 1) * 97 + u64::from(rate));
                let mut plane = SpikePlane::default();
                plane.pack_from_bytes(cin, hw, hw, &bytes);
                let reference = crate::runner::conv_psums_int(&conv, &bytes);
                let got =
                    conv_psums_int_plane(&conv, &plane, KernelPolicy::ForceSparse, &mut scr, i)
                        .to_vec();
                assert_eq!(got, reference, "sparse case {i} rate {rate}");
                let dense =
                    conv_psums_int_plane(&conv, &plane, KernelPolicy::ForceDense, &mut scr, i)
                        .to_vec();
                assert_eq!(dense, reference, "dense case {i} rate {rate}");
                let auto =
                    conv_psums_int_plane(&conv, &plane, KernelPolicy::Auto, &mut scr, i).to_vec();
                assert_eq!(auto, reference, "auto case {i} rate {rate}");
                let wide = conv_psums_int_scatter(&conv, &plane, &mut scr, i).to_vec();
                assert_eq!(wide, reference, "wide scatter case {i} rate {rate}");
                let tiled = conv_psums_int_tiled(&conv, &plane, &mut scr, i).to_vec();
                assert_eq!(tiled, reference, "tiled case {i} rate {rate}");
                let cal = KernelPolicy::Calibrated(CostModel {
                    scatter_ps_per_lane: 200,
                    scatter_ps_per_out: 500,
                    dense_ps_per_lane: 60,
                });
                let calibrated = conv_psums_int_plane(&conv, &plane, cal, &mut scr, i).to_vec();
                assert_eq!(calibrated, reference, "calibrated case {i} rate {rate}");
            }
        }
    }

    #[test]
    fn cost_model_crossover_is_consistent_with_decisions() {
        let g = test_conv(32, 32, 16, 3, 1, 1, 0).geom;
        let m = CostModel {
            scatter_ps_per_lane: 250,
            scatter_ps_per_out: 800,
            dense_ps_per_lane: 70,
        };
        let n_out = g.out_neurons();
        let neurons = (g.in_channels * g.in_h * g.in_w) as f64;
        let cross = m.crossover_density(&g);
        assert!(cross > 0.0 && cross < 1.0, "crossover {cross} not interior");
        // Just below the crossover the model must pick sparse, just above
        // it dense (decisions are monotone in the spike count).
        let below = (cross * 0.9 * neurons) as u64;
        let above = (cross * 1.1 * neurons).ceil() as u64;
        assert!(m.sparse_wins(&g, below, n_out));
        assert!(!m.sparse_wins(&g, above, n_out));
        assert!(
            KernelPolicy::Calibrated(m).picks_sparse(&g, below, n_out)
                && !KernelPolicy::Calibrated(m).picks_sparse(&g, above, n_out)
        );
    }

    #[test]
    fn cost_model_prices_padded_kernel_blocks() {
        // The rounding helpers mirror the kernels' fixed block sizes.
        assert_eq!(scatter_lane_span(1), LANES);
        assert_eq!(scatter_lane_span(16), 16);
        assert_eq!(scatter_lane_span(17), 32);

        let m = CostModel {
            scatter_ps_per_lane: 250,
            scatter_ps_per_out: 800,
            dense_ps_per_lane: 70,
        };

        // Scatter: a 17-channel layer sweeps the same LANES-wide blocks as
        // a 32-channel one, so the per-spike term must be identical (the
        // n_out overhead is zeroed out to isolate it).
        let g17 = test_conv(8, 17, 18, 3, 1, 1, 0).geom;
        let g32 = test_conv(8, 32, 18, 3, 1, 1, 0).geom;
        let spikes = 64;
        assert_eq!(
            m.scatter_cost_ps(&g17, spikes, 0),
            m.scatter_cost_ps(&g32, spikes, 0)
        );

        // Dense: C_out=17 pads to 5 row tiles of TILE_CO=4 and OW=18 to 2
        // column tiles of TILE_OX=16, so the modelled work strictly exceeds
        // a naive n_out·C_in·K² element count.
        let (oh, _) = g17.out_hw();
        assert_eq!(dense_padded_outs(&g17), 20 * oh * 32);
        let n_out = g17.out_neurons();
        let naive = u128::from(m.dense_ps_per_lane) * (n_out * g17.in_channels * 9) as u128;
        assert!(m.dense_cost_ps(&g17, n_out) > naive);

        // Decisions stay monotone and consistent with the crossover on the
        // misaligned geometry, same invariant as the aligned test above.
        let neurons = (g17.in_channels * g17.in_h * g17.in_w) as f64;
        let cross = m.crossover_density(&g17);
        assert!(cross > 0.0 && cross < 1.0, "crossover {cross} not interior");
        assert!(m.sparse_wins(&g17, (cross * 0.9 * neurons) as u64, n_out));
        assert!(!m.sparse_wins(&g17, (cross * 1.1 * neurons).ceil() as u64, n_out));
    }

    #[test]
    fn scatter_matches_dense_reference_f32() {
        let mut scr = ConvScratch::new();
        let conv = test_conv(3, 4, 6, 3, 1, 1, 9);
        let bytes = spikes(3 * 36, 30, 5);
        let mut plane = SpikePlane::default();
        plane.pack_from_bytes(3, 6, 6, &bytes);
        let sparse =
            conv_psums_f32_plane(&conv, &plane, KernelPolicy::ForceSparse, &mut scr, 0).to_vec();
        let dense =
            conv_psums_f32_plane(&conv, &plane, KernelPolicy::ForceDense, &mut scr, 0).to_vec();
        // identical accumulation order ⇒ exact f32 equality, not approximate
        assert_eq!(sparse, dense);
    }

    #[test]
    fn saturating_paths_agree_under_extreme_weights() {
        // all-max weights + dense spikes drive the i16 accumulator into
        // saturation; order equality is what keeps the paths bit-exact
        let mut conv = test_conv(40, 2, 6, 3, 1, 1, 0);
        conv.weights.iter_mut().for_each(|w| *w = 127);
        let bytes = vec![1u8; 40 * 36];
        let mut plane = SpikePlane::default();
        plane.pack_from_bytes(40, 6, 6, &bytes);
        let mut scr = ConvScratch::new();
        let reference = crate::runner::conv_psums_int(&conv, &bytes);
        assert!(reference.contains(&i16::MAX), "not saturating");
        let got =
            conv_psums_int_plane(&conv, &plane, KernelPolicy::ForceSparse, &mut scr, 0).to_vec();
        assert_eq!(got, reference);
    }

    #[test]
    fn auto_heuristic_tracks_density() {
        let g = test_conv(16, 16, 8, 3, 1, 1, 0).geom;
        let neurons = (16 * 8 * 8) as u64;
        assert!(sparse_wins(&g, neurons / 50, 16 * 8 * 8)); // 2% density
        assert!(!sparse_wins(&g, neurons, 16 * 8 * 8)); // all-ones
    }

    #[test]
    fn tap_accounting_is_input_centric() {
        let conv = test_conv(2, 3, 4, 3, 1, 1, 2);
        let bytes = spikes(2 * 16, 25, 11);
        let n_spikes: u64 = bytes.iter().map(|&b| u64::from(b)).sum();
        let mut plane = SpikePlane::default();
        plane.pack_from_bytes(2, 4, 4, &bytes);
        let mut scr = ConvScratch::new();
        let _ = conv_psums_int_plane(&conv, &plane, KernelPolicy::ForceSparse, &mut scr, 0);
        assert_eq!(scr.take_taps(), (n_spikes * 9, (32 - n_spikes) * 9));
        let _ = conv_psums_int_plane(&conv, &plane, KernelPolicy::ForceDense, &mut scr, 0);
        assert_eq!(scr.take_taps(), (32 * 9, 0));
        assert_eq!(scr.take_taps(), (0, 0));
    }

    #[test]
    fn dense_into_matches_allocating_reference() {
        let conv = test_conv(3, 4, 5, 3, 1, 1, 7);
        let codes: Vec<i8> = (0..3 * 25).map(|i| ((i * 7 % 255) - 127) as i8).collect();
        let mut scr = ConvScratch::new();
        assert_eq!(
            conv_psums_dense_into(&conv, &codes, &mut scr),
            crate::runner::conv_psums_dense(&conv, &codes).as_slice()
        );
    }
}
