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
//! ## Tap tables and fixed-width rows
//!
//! Two further identities let the production kernels run `i16` lanes in
//! parallel without perturbing a single accumulator:
//!
//! * **tap tables** — which `(ky, oy)` pairs an input row reaches, and which
//!   `(kx, ox)` pairs an input column reaches, depend only on the layer's
//!   geometry. Each layer entry lists them once (a `TapTable`, ascending in
//!   `k`, for any stride, padding and kernel), so a spike's taps are a walk
//!   over two short precomputed lists: no division, remainder or range
//!   test per tap. The walk reads the plane's row words directly and skips
//!   an all-zero row before touching the table;
//! * **fixed-width rows** — the scatter's innermost `co` sweep runs over
//!   weight and psum rows viewed as `[i16; S]`/`[i8; S]` arrays whose width
//!   `S` is a compile-time constant ([`scatter_lane_span`] rounded to
//!   [`LANES`]: 16, 32, 48 or 64 lanes, and 16-lane blocks beyond). Each
//!   lane is a *different* accumulator, so the width never reorders any
//!   one accumulator's additions, and the autovectorizer lifts the row into
//!   saturating i16 SIMD adds (`PADDSW`-class instructions — the software
//!   image of one PE-array row accumulating eight output channels per
//!   clock). Rows past `C_out` are zero lanes that add zeros into slack
//!   accumulators nobody reads;
//! * **masked identity** — `x.saturating_add(0) == x` exactly, so the
//!   register-tiled dense kernel ([`conv_psums_int_tiled`]) may visit *every*
//!   tap branch-free and add `mask & weight`, where `mask` is `-1` for a
//!   set spike bit and `0` otherwise. Silent taps contribute the saturating
//!   identity, which is bit-equivalent to the reference's skip.
//!
//! ## One entry per conv layer
//!
//! Each engine's [`ConvScratch`] keeps one entry per conv layer, filled on
//! that layer's first call and reused for every later image and timestep
//! (the SIA streams a layer's weights in once per inference; the engines
//! transpose them once per engine). An entry holds:
//!
//! * the layer's weights transposed to `[(ci, ky, kx), co]`, in the layout
//!   of each kernel the layer can run — padded `i8` rows for the scatter,
//!   widened `i16` rows for the tiled kernel, `f32` rows for the float
//!   scatter;
//! * the tap table both scatters walk, built with the first scatter
//!   layout;
//! * the kernel decision, fixed once from the layer's geometry and the
//!   engine's [`KernelPolicy`] as one scatter limit
//!   ([`KernelPolicy::scatter_limit`]): a call scatters iff its plane has
//!   fewer set spikes than the limit, so each call costs one compare. The
//!   tiled kernel is a candidate only where its fast path covers every
//!   tile ([`tiled_is_candidate`]); every other layer's limit is
//!   `u64::MAX` (always scatter).
//!
//! A layer that only ever scatters (limit `u64::MAX`) or only ever tiles
//! (limit 0) holds one layout; only a layer where both kernels are
//! candidates holds two.

use crate::network::SnnConv;
use crate::scratch::{note_growth, scratch_reserve_default, scratch_resize};
use crate::spikeplane::SpikePlane;
use sia_tensor::tile::block;
use sia_tensor::Conv2dGeom;

/// The scatter's lane granule: rows are padded to a multiple of this many
/// i16 accumulators (one 256-bit saturating add on AVX2-class hosts), and
/// layers wider than 64 lanes sweep their rows in blocks of it.
pub const LANES: usize = 16;

/// Dense micro-tile rows: output channels held in registers per tile.
const TILE_CO: usize = 4;

/// Dense micro-tile columns: output x positions per tile (one 256-bit i16
/// vector per accumulator row).
const TILE_OX: usize = 16;

/// Which psum kernel the engines use for spiking convolutions.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum KernelPolicy {
    /// Decide per layer from the layer's geometry with
    /// [`CostModel::DEFAULT`], as the SIA fixes each layer's dataflow when
    /// its registers are programmed.
    #[default]
    Auto,
    /// Always the dense path (for verification and benching).
    ForceDense,
    /// Always the event-driven scatter (for verification and benching).
    ForceSparse,
}

impl KernelPolicy {
    /// The kernel decision this policy fixes for a layer of geometry `g`:
    /// a call whose plane has fewer set spikes than this runs the scatter,
    /// any other the tiled kernel. `u64::MAX` always scatters, `0` always
    /// tiles. Under [`KernelPolicy::Auto`] a layer whose geometry misses
    /// the tiled kernel's fast path ([`tiled_is_candidate`]) always
    /// scatters.
    #[must_use]
    pub fn scatter_limit(self, g: &Conv2dGeom) -> u64 {
        match self {
            KernelPolicy::Auto => CostModel::DEFAULT.scatter_limit(g),
            KernelPolicy::ForceDense => 0,
            KernelPolicy::ForceSparse => u64::MAX,
        }
    }
}

/// Whether the tiled kernel's fast path covers every tile of `g`: stride
/// 1, whole 4-channel groups (`TILE_CO`) and whole 16-column tiles
/// (`TILE_OX`). Anywhere else it runs its dynamic-lane edge branch, which
/// loses to the scatter at every measured density (see
/// `BENCH_conv.json`'s deployed geometries), so only these layers ever
/// weigh it.
#[must_use]
pub fn tiled_is_candidate(g: &Conv2dGeom) -> bool {
    let (_, ow) = g.out_hw();
    g.stride == 1 && g.out_channels.is_multiple_of(TILE_CO) && ow > 0 && ow.is_multiple_of(TILE_OX)
}

/// Output-channel lanes the scatter kernel actually sweeps per spike tap.
///
/// The innermost `co` loop runs over fixed-width rows padded to
/// `ceil(C_out / LANES) · LANES` lanes (see the module docs), so the cost
/// model prices that many lanes, not `C_out`.
#[must_use]
pub fn scatter_lane_span(out_channels: usize) -> usize {
    out_channels.div_ceil(LANES) * LANES
}

/// Output elements the dense tiled kernel actually computes for `g`.
///
/// The tiled kernel holds full `TILE_CO × TILE_OX` register tiles even
/// at partial edges — `nco`/`nox` only clamp the writeback — so the work is
/// `ceil(C_out / TILE_CO) · TILE_CO` channel rows by
/// `ceil(OW / TILE_OX) · TILE_OX` columns per output row.
#[must_use]
pub fn dense_padded_outs(g: &Conv2dGeom) -> usize {
    let (oh, ow) = g.out_hw();
    g.out_channels.div_ceil(TILE_CO) * TILE_CO * oh * ow.div_ceil(TILE_OX) * TILE_OX
}

/// Kernel cost coefficients, in integer **picoseconds** so every decision
/// is an exact integer comparison, reproducible on any host.
///
/// The model prices one conv call against the lanes the kernels *execute*,
/// not the elements they produce — both production kernels run in fixed
/// blocks, so partial blocks cost a full block:
///
/// * scatter ≈ `scatter_ps_per_lane · spikes·K²·ceil(C_out/LANES)·LANES`
///   `+ scatter_ps_per_out · 2·n_out` (psum clear + transpose sweeps),
/// * dense ≈ `dense_ps_per_lane · padded_outs·C_in·K²` where `padded_outs`
///   rounds `C_out` up to `TILE_CO` (4) and `OW` up to `TILE_OX` (16)
///   ([`dense_padded_outs`]),
///
/// and selects the scatter when its estimate is no larger. The model is
/// only consulted where the tiled kernel's fast path runs
/// ([`tiled_is_candidate`]); [`CostModel::scatter_limit`] fixes the result
/// per layer as a crossover spike count.
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
    /// The coefficients [`KernelPolicy::Auto`] decides with: a rounded
    /// fit to a full `sia bench conv` of the row-by-row scatter on a
    /// 2-vCPU x86-64 virtual machine. They put the crossover of the
    /// 32-channel 16×16 bench layer near 11 % density and of the deployed
    /// 8-channel 16×16 layers near 2 %. The bench times one spike plane
    /// repeated, which flatters the scatter: coefficients refitted to a
    /// run where the tap-table scatter beat the tiled kernel on the
    /// 8-channel layer up to ~8 % (`8to8k3s1_16_dNNN`) made the deployed
    /// 16×16 stage slower in traced `eval-fixed` runs, so these stay.
    pub const DEFAULT: CostModel = CostModel {
        scatter_ps_per_lane: 250,
        scatter_ps_per_out: 800,
        dense_ps_per_lane: 32,
    };

    /// Modelled scatter cost for one call, in picoseconds.
    #[must_use]
    pub fn scatter_cost_ps(&self, g: &Conv2dGeom, spikes: u64) -> u128 {
        let k2 = (g.kernel * g.kernel) as u128;
        let lane_span = scatter_lane_span(g.out_channels) as u128;
        u128::from(self.scatter_ps_per_lane) * u128::from(spikes) * k2 * lane_span
            + u128::from(self.scatter_ps_per_out) * 2 * g.out_neurons() as u128
    }

    /// Modelled dense cost for one call, in picoseconds.
    #[must_use]
    pub fn dense_cost_ps(&self, g: &Conv2dGeom) -> u128 {
        let k2 = (g.kernel * g.kernel) as u128;
        u128::from(self.dense_ps_per_lane)
            * dense_padded_outs(g) as u128
            * g.in_channels as u128
            * k2
    }

    /// The kernel decision for a layer of geometry `g`, as the fewest set
    /// spikes at which the layer runs the tiled kernel (calls below it
    /// scatter): `u64::MAX` where the tiled kernel's fast path does not
    /// run, otherwise the count at which the modelled scatter first costs
    /// more than the dense kernel (zero when the scatter's fixed overhead
    /// alone exceeds the dense cost).
    #[must_use]
    pub fn scatter_limit(&self, g: &Conv2dGeom) -> u64 {
        if !tiled_is_candidate(g) {
            return u64::MAX;
        }
        let dense = self.dense_cost_ps(g);
        let fixed = self.scatter_cost_ps(g, 0);
        let per_spike = self.scatter_cost_ps(g, 1) - fixed;
        if dense < fixed {
            return 0;
        }
        (dense - fixed)
            .checked_div(per_spike)
            .and_then(|n| u64::try_from(n + 1).ok())
            .unwrap_or(u64::MAX)
    }

    /// The spike density (fraction of input neurons set) at which the
    /// layer switches from the scatter to the tiled kernel, in `[0, 1]`:
    /// `1` for layers that always scatter. Auditable via the bench's fine
    /// density grid.
    #[must_use]
    pub fn crossover_density(&self, g: &Conv2dGeom) -> f64 {
        let neurons = (g.in_channels * g.in_h * g.in_w).max(1) as f64;
        (self.scatter_limit(g) as f64 / neurons).min(1.0)
    }
}

/// One conv layer's entry: its transposed weights in the layouts its
/// kernels read and its scatter tap table (each built on first need), and
/// its kernel decision.
#[derive(Clone, Debug, Default)]
struct LayerEntry {
    /// The policy `limit` was fixed under (`None` before the first call).
    policy: Option<KernelPolicy>,
    /// Calls with fewer set spikes than this scatter
    /// ([`KernelPolicy::scatter_limit`]).
    limit: u64,
    /// `[(ci, ky, kx), co]` rows padded to `scatter_lane_span(C_out)`
    /// lanes: the integer scatter's layout.
    wt_i: Vec<i8>,
    /// The same transposition widened to `i16`, unpadded: the tiled
    /// kernel's layout (the micro-kernel broadcasts weights straight from
    /// memory instead of sign-extending each one first).
    wt_w: Vec<i16>,
    /// The same transposition in `f32`, unpadded: the float scatter's.
    wt_f: Vec<f32>,
    /// The valid taps both scatters walk, built with the first scatter
    /// layout.
    taps: TapTable,
}

impl LayerEntry {
    fn scatter_wt(&mut self, conv: &SnnConv) -> (&[i8], &TapTable) {
        if self.wt_i.is_empty() {
            let span = scatter_lane_span(conv.geom.out_channels);
            build_wt(conv, span, &mut self.wt_i, |w| w);
        }
        (&self.wt_i, self.taps.get_or_build(&conv.geom))
    }

    fn tiled_wt(&mut self, conv: &SnnConv) -> &[i16] {
        if self.wt_w.is_empty() {
            build_wt(conv, conv.geom.out_channels, &mut self.wt_w, i16::from);
        }
        &self.wt_w
    }

    fn f32_wt(&mut self, conv: &SnnConv) -> (&[f32], &TapTable) {
        if self.wt_f.is_empty() {
            build_wt(conv, conv.geom.out_channels, &mut self.wt_f, f32::from);
        }
        (&self.wt_f, self.taps.get_or_build(&conv.geom))
    }

    /// The layer's scatter limit under `policy`, fixed on the first call
    /// (and again only if the policy changes). Every layout the decision
    /// can use is built here, so steady-state calls never build one.
    fn scatter_limit(&mut self, conv: &SnnConv, policy: KernelPolicy) -> u64 {
        if self.policy != Some(policy) {
            self.policy = Some(policy);
            self.limit = policy.scatter_limit(&conv.geom);
            if self.limit > 0 {
                self.scatter_wt(conv);
            }
            if self.limit < u64::MAX {
                self.tiled_wt(conv);
            }
        }
        self.limit
    }
}

/// A layer's valid scatter taps, by input coordinate.
///
/// Input row `iy` reaches output row `oy` through kernel row `ky` iff
/// `oy·stride = iy + pad − ky` has a solution with `0 ≤ oy < OH`, and
/// likewise for columns. The table lists, for every input row, the
/// `(ky·K, oy·OW)` pairs that solve it and, for every input column, the
/// `(kx, ox)` pairs, each ascending in `k` (the reference tap order). A
/// spike at `(ci, iy, x)` then adds weight row `ci·K² + ky·K + kx` into
/// psum row `oy·OW + ox` for every pair of pairs.
#[derive(Clone, Debug, Default)]
struct TapTable {
    rows: Vec<(u32, u32)>,
    /// `rows[row_start[iy]..row_start[iy + 1]]` are input row `iy`'s pairs.
    row_start: Vec<u32>,
    cols: Vec<(u32, u32)>,
    /// `cols[col_start[x]..col_start[x + 1]]` are input column `x`'s pairs.
    col_start: Vec<u32>,
}

impl TapTable {
    /// The table, built on first use (scratch-tracked).
    fn get_or_build(&mut self, g: &Conv2dGeom) -> &TapTable {
        if self.row_start.is_empty() {
            let (oh, ow) = g.out_hw();
            (self.rows, self.row_start) =
                axis_taps(g, g.in_h, oh, |ky, oy| (ky * g.kernel, oy * ow));
            (self.cols, self.col_start) = axis_taps(g, g.in_w, ow, |kx, ox| (kx, ox));
            note_growth();
        }
        self
    }

    #[inline(always)]
    fn row(&self, iy: usize) -> &[(u32, u32)] {
        &self.rows[self.row_start[iy] as usize..self.row_start[iy + 1] as usize]
    }

    #[inline(always)]
    fn col(&self, x: usize) -> &[(u32, u32)] {
        &self.cols[self.col_start[x] as usize..self.col_start[x + 1] as usize]
    }
}

/// One axis of a [`TapTable`]: for each input coordinate `i < len`, the
/// kernel offsets `kk` (ascending) whose output coordinate
/// `o = (i + pad − kk) / stride` is exact and below `o_len`, stored as
/// `pair(kk, o)`; plus the start offset of each coordinate's run.
fn axis_taps(
    g: &Conv2dGeom,
    len: usize,
    o_len: usize,
    pair: impl Fn(usize, usize) -> (usize, usize),
) -> (Vec<(u32, u32)>, Vec<u32>) {
    let narrow = |v: usize| u32::try_from(v).expect("conv layer too large for a tap table");
    let mut taps = Vec::new();
    let mut start = vec![0];
    for i in 0..len {
        for kk in 0..g.kernel {
            let Some(num) = (i + g.padding).checked_sub(kk) else {
                break;
            };
            if num % g.stride == 0 && num / g.stride < o_len {
                let (a, b) = pair(kk, num / g.stride);
                taps.push((narrow(a), narrow(b)));
            }
        }
        start.push(narrow(taps.len()));
    }
    (taps, start)
}

/// Reusable per-engine convolution scratch: psum buffers (canonical and
/// channels-last), one entry per conv layer (transposed weights and kernel
/// decision, see the module docs), and the event-driven tap accounting
/// surfaced through `Engine::stage_taps`.
#[derive(Clone, Debug, Default)]
pub struct ConvScratch {
    psum_i: Vec<i16>,
    psum_cl_i: Vec<i16>,
    psum_f: Vec<f32>,
    psum_cl_f: Vec<f32>,
    psum_d32: Vec<i32>,
    psum_df: Vec<f32>,
    mask_i: Vec<i16>,
    layers: Vec<LayerEntry>,
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

/// Layer `layer`'s entry, growing the table on the layer's first call.
fn entry_mut(layers: &mut Vec<LayerEntry>, layer: usize) -> &mut LayerEntry {
    scratch_reserve_default(layers, layer + 1);
    &mut layers[layer]
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

/// Weights transposed to `[(ci, ky, kx), co]` so the kernels' `co` sweep
/// is contiguous, each row `span ≥ C_out` lanes wide (lanes past `C_out`
/// stay zero), converted by `f`, built into `wt` (scratch-tracked).
fn build_wt<T: Copy + Default>(conv: &SnnConv, span: usize, wt: &mut Vec<T>, f: impl Fn(i8) -> T) {
    let g = &conv.geom;
    let taps = g.in_channels * g.kernel * g.kernel;
    scratch_resize(wt, taps * span, T::default());
    // `[C_out, C_in, K, K]` row-major: filter `co` lists its taps in
    // `(ci, ky, kx)` order.
    for (co, filter) in conv.weights.chunks_exact(taps).enumerate() {
        for (tap, &w) in filter.iter().enumerate() {
            wt[tap * span + co] = f(w);
        }
    }
}

/// One scatter kernel's per-tap work: add transposed weight row `t`
/// (`(ci, ky, kx)`) into channels-last psum row `p` (`(oy, ox)`). A trait
/// method, not a closure, so [`for_each_tap`]'s callers can force it inline
/// into the walk.
trait TapAdd {
    fn add(&mut self, t: usize, p: usize);
}

/// Calls `sink.add(t, p)` for every valid tap of every set spike of
/// `plane`. The walk reads each row's words directly, skips an all-zero
/// row before touching the table, and visits taps in the order the module
/// docs prove bit-exact.
#[inline(always)]
fn for_each_tap(taps: &TapTable, k2: usize, plane: &SpikePlane, sink: &mut impl TapAdd) {
    let wpr = plane.words_per_row();
    if plane.is_empty() {
        return;
    }
    for (ci, words) in plane.channel_words().enumerate() {
        let t0 = ci * k2;
        for (iy, row) in words.chunks_exact(wpr).enumerate() {
            if row.iter().all(|&w| w == 0) {
                continue;
            }
            let row_taps = taps.row(iy);
            for (wi, &word) in row.iter().enumerate() {
                let mut m = word;
                while m != 0 {
                    let col_taps = taps.col(wi * 64 + m.trailing_zeros() as usize);
                    m &= m - 1;
                    for &(ky_k, oy_ow) in row_taps {
                        for &(kx, ox) in col_taps {
                            sink.add(t0 + (ky_k + kx) as usize, (oy_ow + ox) as usize);
                        }
                    }
                }
            }
        }
    }
}

/// Float rows: `C_out` unpadded `f32` lanes.
struct F32Rows<'a> {
    wt: &'a [f32],
    psum: &'a mut [f32],
    cout: usize,
}

impl TapAdd for F32Rows<'_> {
    #[inline(always)]
    fn add(&mut self, t: usize, p: usize) {
        let wrow = &self.wt[t * self.cout..][..self.cout];
        for (acc, &w) in self.psum[p * self.cout..][..self.cout].iter_mut().zip(wrow) {
            *acc += w;
        }
    }
}

/// Integer rows: `nb` blocks of `S` saturating `i16` lanes.
struct IntRows<'a, const S: usize> {
    wt: &'a [[i8; S]],
    psum: &'a mut [[i16; S]],
    nb: usize,
}

impl<const S: usize> TapAdd for IntRows<'_, S> {
    #[inline(always)]
    fn add(&mut self, t: usize, p: usize) {
        let w = &self.wt[t * self.nb..][..self.nb];
        for (acc, w) in self.psum[p * self.nb..][..self.nb].iter_mut().zip(w) {
            add_lanes(acc, w);
        }
    }
}

/// `S` saturating i16 lanes: `acc[l] += w[l]`. The weight row is widened
/// into a local first: every load then precedes every store, so the
/// vectorizer needs no proof that the rows do not overlap, and even a
/// 16-lane row becomes one SIMD add instead of sixteen scalar ones.
#[inline(always)]
fn add_lanes<const S: usize>(acc: &mut [i16; S], w: &[i8; S]) {
    let w: [i16; S] = std::array::from_fn(|l| i16::from(w[l]));
    for l in 0..S {
        acc[l] = acc[l].saturating_add(w[l]);
    }
}

/// Float scatter: adds each valid tap's transposed weight row into its
/// channels-last psum row (`C_out` lanes, unpadded).
fn scatter_f32(
    g: &Conv2dGeom,
    taps: &TapTable,
    wt: &[f32],
    plane: &SpikePlane,
    psum_cl: &mut [f32],
) {
    let mut rows = F32Rows {
        wt,
        psum: psum_cl,
        cout: g.out_channels,
    };
    for_each_tap(taps, g.kernel * g.kernel, plane, &mut rows);
}

/// Integer scatter pipeline at a compile-time lane width `S`: clears the
/// channels-last psums, adds each valid tap's weight row into its psum row
/// (`nb` blocks of `S` saturating i16 lanes per row), and transposes the
/// rows into canonical `[C_out, OH, OW]` `out`. The callers pass `nb` as a
/// literal, so after inlining the whole row is a fixed-width sweep.
#[inline(always)]
fn scatter_int<const S: usize>(
    g: &Conv2dGeom,
    taps: &TapTable,
    wt: &[i8],
    plane: &SpikePlane,
    psum_cl: &mut Vec<i16>,
    out: &mut [i16],
    nb: usize,
) {
    let (oh, ow) = g.out_hw();
    scratch_resize(psum_cl, oh * ow * S * nb, 0);
    let mut rows = IntRows::<S> {
        wt: wt.as_chunks::<S>().0,
        psum: psum_cl.as_chunks_mut::<S>().0,
        nb,
    };
    for_each_tap(taps, g.kernel * g.kernel, plane, &mut rows);
    transpose_cl(rows.psum.as_flattened(), out, g.out_channels, S * nb);
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

/// Channels-last rows of `span ≥ cout` lanes → canonical `[C_out, OH, OW]`
/// `out` (value-preserving; padding lanes are dropped). Inlined, so the
/// integer scatter's rows keep their compile-time width.
#[inline(always)]
fn transpose_cl<A: Copy>(cl: &[A], out: &mut [A], cout: usize, span: usize) {
    let per_ch = out.len() / cout;
    for (p, row) in cl.chunks_exact(span).enumerate() {
        for (co, &v) in row[..cout].iter().enumerate() {
            out[co * per_ch + p] = v;
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

/// Word-parallel scatter pipeline: scatter into the padded channels-last
/// psums with the layer's padded weight rows and tap table, transpose to
/// canonical layout. The row width picks the lane-width instantiation.
fn run_scatter_int<'a>(
    conv: &SnnConv,
    plane: &SpikePlane,
    scr: &'a mut ConvScratch,
    layer: usize,
) -> &'a [i16] {
    let g = &conv.geom;
    let ConvScratch {
        psum_i,
        psum_cl_i,
        layers,
        ..
    } = scr;
    let (wt, taps) = entry_mut(layers, layer).scatter_wt(conv);
    scratch_resize(psum_i, g.out_neurons(), 0);
    let out = psum_i.as_mut_slice();
    match scatter_lane_span(g.out_channels) {
        16 => scatter_int::<16>(g, taps, wt, plane, psum_cl_i, out, 1),
        32 => scatter_int::<32>(g, taps, wt, plane, psum_cl_i, out, 1),
        48 => scatter_int::<48>(g, taps, wt, plane, psum_cl_i, out, 1),
        64 => scatter_int::<64>(g, taps, wt, plane, psum_cl_i, out, 1),
        span => scatter_int::<LANES>(g, taps, wt, plane, psum_cl_i, out, span / LANES),
    }
    &scr.psum_i
}

/// Tiled dense pipeline: expand the mask plane, run the register-tiled
/// kernel over the layer's widened weights straight into canonical psums.
fn run_tiled_int<'a>(
    conv: &SnnConv,
    plane: &SpikePlane,
    scr: &'a mut ConvScratch,
    layer: usize,
) -> &'a [i16] {
    let g = &conv.geom;
    let (oh, ow) = g.out_hw();
    let ConvScratch {
        psum_i,
        layers,
        mask_i,
        ..
    } = scr;
    let wt = entry_mut(layers, layer).tiled_wt(conv);
    build_mask_plane(g, plane, mask_i);
    scratch_resize(psum_i, g.out_channels * oh * ow, 0);
    dense_tiled_int(g, wt, mask_i, psum_i);
    &scr.psum_i
}

/// Direct entry to the word-parallel scatter (the production sparse path).
/// Same contract as [`conv_psums_int_plane`] minus policy selection and tap
/// accounting — used by `sia bench conv` and the proptests.
///
/// # Panics
///
/// Panics if the plane shape mismatches the conv geometry.
pub fn conv_psums_int_scatter<'a>(
    conv: &SnnConv,
    plane: &SpikePlane,
    scr: &'a mut ConvScratch,
    layer: usize,
) -> &'a [i16] {
    check_plane(&conv.geom, plane);
    run_scatter_int(conv, plane, scr, layer)
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
    layer: usize,
) -> &'a [i16] {
    check_plane(&conv.geom, plane);
    run_tiled_int(conv, plane, scr, layer)
}

/// Integer partial sums from a packed spike plane: the word-parallel
/// event-driven scatter or the register-tiled dense kernel, as the layer's
/// kernel decision under `policy` picks for this plane's spike count.
/// Bit-exact with [`crate::runner::conv_psums_int`] either way.
///
/// `layer` names the conv's entry in `scr` (transposed weights and kernel
/// decision, built on the layer's first call): one slot per conv layer,
/// always called with the same conv. The engines pass the index of the
/// network item that owns the conv (a residual add's downsample conv is
/// its item's only conv).
///
/// # Panics
///
/// Panics if the plane shape mismatches the conv geometry.
pub fn conv_psums_int_plane<'a>(
    conv: &SnnConv,
    plane: &SpikePlane,
    policy: KernelPolicy,
    scr: &'a mut ConvScratch,
    layer: usize,
) -> &'a [i16] {
    let g = &conv.geom;
    check_plane(g, plane);
    let spikes = plane.count_ones();
    let sparse = spikes < entry_mut(&mut scr.layers, layer).scatter_limit(conv, policy);
    account_taps(scr, g, spikes, sparse);
    if sparse {
        run_scatter_int(conv, plane, scr, layer)
    } else {
        run_tiled_int(conv, plane, scr, layer)
    }
}

/// Float twin of [`conv_psums_int_plane`]: the scatter under every policy
/// but [`KernelPolicy::ForceDense`], which runs the dense gather (`f32`
/// accumulation in the same tap order either way, so results match the
/// dense float reference exactly). The gather has no fast path to win
/// with, so no density makes it worth picking.
///
/// # Panics
///
/// Panics if the plane shape mismatches the conv geometry.
pub fn conv_psums_f32_plane<'a>(
    conv: &SnnConv,
    plane: &SpikePlane,
    policy: KernelPolicy,
    scr: &'a mut ConvScratch,
    layer: usize,
) -> &'a [f32] {
    let g = &conv.geom;
    check_plane(g, plane);
    let (oh, ow) = g.out_hw();
    let n_out = g.out_channels * oh * ow;
    let sparse = policy != KernelPolicy::ForceDense;
    account_taps(scr, g, plane.count_ones(), sparse);
    let ConvScratch {
        psum_f,
        psum_cl_f,
        layers,
        ..
    } = scr;
    scratch_resize(psum_f, n_out, 0.0);
    if sparse {
        let (wt, taps) = entry_mut(layers, layer).f32_wt(conv);
        scratch_resize(psum_cl_f, n_out, 0.0);
        scatter_f32(g, taps, wt, plane, psum_cl_f);
        transpose_cl(psum_cl_f, psum_f, g.out_channels, g.out_channels);
    } else {
        gather_f32(conv, plane, psum_f);
    }
    psum_f
}

/// Output columns `ox` whose input column `ox·stride + kx − pad` lies in
/// `[0, in_w)`, as a `lo..hi` range.
fn valid_cols(kx: usize, g: &Conv2dGeom, ow: usize) -> (usize, usize) {
    let lo = g.padding.saturating_sub(kx).div_ceil(g.stride);
    let hi = if g.in_w + g.padding > kx {
        ((g.in_w + g.padding - kx - 1) / g.stride + 1).min(ow)
    } else {
        0
    };
    (lo.min(hi), hi)
}

/// Scratch-buffer variant of [`crate::runner::conv_psums_dense`] (dense
/// INT8 first-layer codes, 32-bit accumulation) — same values, zero
/// steady-state allocation.
///
/// The 32-bit sums of `i8 · i8` products cannot overflow, so their order
/// is free: the loop walks `(co, ci, ky, kx)` and adds `w · code` across
/// each output row's valid columns at once (contiguous input columns at
/// stride 1), instead of gathering every output's taps one by one.
///
/// # Panics
///
/// Panics if `codes` does not hold exactly one `C_in × H × W` image.
pub fn conv_psums_dense_into<'a>(
    conv: &SnnConv,
    codes: &[i8],
    scr: &'a mut ConvScratch,
) -> &'a [i32] {
    let g = &conv.geom;
    let (oh, ow) = g.out_hw();
    let (k, s, pad) = (g.kernel, g.stride, g.padding);
    let plane_len = g.in_h * g.in_w;
    assert_eq!(
        codes.len(),
        g.in_channels * plane_len,
        "input codes mismatch conv geometry"
    );
    scratch_resize(&mut scr.psum_d32, g.out_channels * oh * ow, 0);
    for (co, out) in scr.psum_d32.chunks_exact_mut(oh * ow).enumerate() {
        for (ci, plane) in codes.chunks_exact(plane_len).enumerate() {
            for ky in 0..k {
                for kx in 0..k {
                    let (lo, hi) = valid_cols(kx, g, ow);
                    if lo == hi {
                        continue;
                    }
                    let w = i32::from(conv.weight(co, ci, ky, kx));
                    let first = lo * s + kx - pad;
                    for (oy, orow) in out.chunks_exact_mut(ow).enumerate() {
                        let Some(iy) = (oy * s + ky).checked_sub(pad).filter(|&iy| iy < g.in_h)
                        else {
                            continue;
                        };
                        let irow = &plane[iy * g.in_w..][..g.in_w];
                        let orow = &mut orow[lo..hi];
                        if s == 1 {
                            // Contiguous on both sides: one vector sweep.
                            for (o, &c) in orow.iter_mut().zip(&irow[first..][..hi - lo]) {
                                *o += w * i32::from(c);
                            }
                        } else {
                            for (o, &c) in orow.iter_mut().zip(irow[first..].iter().step_by(s)) {
                                *o += w * i32::from(c);
                            }
                        }
                    }
                }
            }
        }
    }
    &scr.psum_d32
}

/// Float twin of [`conv_psums_dense_into`] (reference tap order: `f32`
/// sums are order-sensitive, so this one keeps the per-output gather).
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
            (3, 8, 16, 3, 1, 1),
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
        let neurons = (g.in_channels * g.in_h * g.in_w) as u64;
        let limit = m.scatter_limit(&g);
        assert!(
            limit > 0 && limit < neurons,
            "crossover {limit} not interior"
        );
        // The stored count sits exactly where the modelled costs cross.
        assert!(m.scatter_cost_ps(&g, limit - 1) <= m.dense_cost_ps(&g));
        assert!(m.scatter_cost_ps(&g, limit) > m.dense_cost_ps(&g));
        assert_eq!(m.crossover_density(&g), limit as f64 / neurons as f64);
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
        // a 32-channel one, so the per-spike term must be identical.
        let g17 = test_conv(8, 17, 18, 3, 1, 1, 0).geom;
        let g32 = test_conv(8, 32, 18, 3, 1, 1, 0).geom;
        let per_spikes = |g: &Conv2dGeom| m.scatter_cost_ps(g, 64) - m.scatter_cost_ps(g, 0);
        assert_eq!(per_spikes(&g17), per_spikes(&g32));

        // Dense: C_out=17 pads to 5 row tiles of TILE_CO=4 and OW=18 to 2
        // column tiles of TILE_OX=16, so the modelled work strictly exceeds
        // a naive n_out·C_in·K² element count.
        let (oh, _) = g17.out_hw();
        assert_eq!(dense_padded_outs(&g17), 20 * oh * 32);
        let naive =
            u128::from(m.dense_ps_per_lane) * (g17.out_neurons() * g17.in_channels * 9) as u128;
        assert!(m.dense_cost_ps(&g17) > naive);

        // Partial tiles run the tiled kernel's edge branch, so the model is
        // never consulted there: the misaligned layer always scatters.
        assert!(!tiled_is_candidate(&g17));
        assert_eq!(m.scatter_limit(&g17), u64::MAX);
        assert_eq!(m.crossover_density(&g17), 1.0);
    }

    #[test]
    fn default_auto_never_tiles_where_the_fast_path_misses() {
        // The deployed downsample and deeper-stage geometries: stride 2
        // (3×3 and 1×1) and OW ∈ {8, 4, 2}. Auto scatters at any density.
        for (cin, cout, hw, k, stride, pad) in [
            (8usize, 16usize, 16usize, 3usize, 2usize, 1usize),
            (8, 16, 16, 1, 2, 0),
            (16, 16, 8, 3, 1, 1),
            (32, 32, 4, 3, 1, 1),
            (64, 64, 2, 3, 1, 1),
        ] {
            let g = test_conv(cin, cout, hw, k, stride, pad, 0).geom;
            assert!(!tiled_is_candidate(&g), "{g:?}");
            assert_eq!(KernelPolicy::Auto.scatter_limit(&g), u64::MAX, "{g:?}");
        }
    }

    #[test]
    fn default_auto_tiles_the_deployed_16_column_layers() {
        // 8→8 @16², the deployed first residual stage: the tiled kernel's
        // fast path covers it, and Auto goes tiled at 10 % density while a
        // silent plane still scatters.
        let g = test_conv(8, 8, 16, 3, 1, 1, 0).geom;
        assert!(tiled_is_candidate(&g));
        let neurons = (8 * 16 * 16) as u64;
        let limit = KernelPolicy::Auto.scatter_limit(&g);
        assert!(0 < limit && limit <= neurons / 10, "limit {limit}");
        // The forced policies ignore geometry.
        assert_eq!(KernelPolicy::ForceDense.scatter_limit(&g), 0);
        assert_eq!(KernelPolicy::ForceSparse.scatter_limit(&g), u64::MAX);
    }

    #[test]
    fn layer_entries_hold_only_the_layouts_their_decision_uses() {
        let mut scr = ConvScratch::new();
        let plane = |c: &SnnConv| {
            let g = &c.geom;
            let mut p = SpikePlane::default();
            p.pack_from_bytes(
                g.in_channels,
                g.in_h,
                g.in_w,
                &spikes(g.in_channels * g.in_h * g.in_w, 10, 3),
            );
            p
        };
        // 0: stride 2 (always scatters); 1: 8→8 @16² (both candidates);
        // 2: the float runner's layout; 3: 8→8 @16² forced dense (always
        // tiles).
        let down = test_conv(8, 16, 16, 3, 2, 1, 1);
        let res16 = test_conv(8, 8, 16, 3, 1, 1, 2);
        let (down_in, res16_in) = (plane(&down), plane(&res16));
        let _ = conv_psums_int_plane(&down, &down_in, KernelPolicy::Auto, &mut scr, 0);
        let _ = conv_psums_int_plane(&res16, &res16_in, KernelPolicy::Auto, &mut scr, 1);
        let _ = conv_psums_f32_plane(&res16, &res16_in, KernelPolicy::Auto, &mut scr, 2);
        let _ = conv_psums_int_plane(&res16, &res16_in, KernelPolicy::ForceDense, &mut scr, 3);
        let sizes: Vec<_> = scr
            .layers
            .iter()
            .map(|e| (e.wt_i.len(), e.wt_w.len(), e.wt_f.len()))
            .collect();
        // Scatter rows are padded to one 16-lane block; the tiled and float
        // layouts are not.
        assert_eq!(
            sizes,
            [
                (8 * 9 * 16, 0, 0),
                (8 * 9 * 16, 8 * 9 * 8, 0),
                (0, 0, 8 * 9 * 8),
                (0, 8 * 9 * 8, 0)
            ]
        );
        // A later call reuses the entry: nothing grows.
        let before = crate::scratch::scratch_growth();
        let _ = conv_psums_int_plane(&down, &down_in, KernelPolicy::Auto, &mut scr, 0);
        assert_eq!(crate::scratch::scratch_growth(), before);
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
        // Stride 1 and 2, 1×1 and 3×3, and padding wider than the kernel
        // reach (a column range that is empty for some taps).
        for (i, &(cin, cout, hw, k, stride, pad)) in [
            (3usize, 4usize, 5usize, 3usize, 1usize, 1usize),
            (3, 8, 16, 3, 1, 1),
            (2, 4, 7, 3, 2, 1),
            (2, 3, 6, 1, 2, 0),
            (1, 2, 2, 3, 1, 2),
            (2, 2, 3, 3, 2, 2),
        ]
        .iter()
        .enumerate()
        {
            let conv = test_conv(cin, cout, hw, k, stride, pad, i + 7);
            let codes: Vec<i8> = (0..cin * hw * hw)
                .map(|j| ((j * 7 + i) % 255) as i32 - 127)
                .map(|c| c as i8)
                .collect();
            let mut scr = ConvScratch::new();
            assert_eq!(
                conv_psums_dense_into(&conv, &codes, &mut scr),
                crate::runner::conv_psums_dense(&conv, &codes).as_slice(),
                "case {i}"
            );
        }
    }
}
