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
//! the scatter must deliver contributions to each output accumulator in
//! exactly the reference order `(ci asc, ky asc, kx asc)`. It visits the
//! set spikes in ascending flat `(ci, iy, x)` order, and each spike's taps
//! go to distinct outputs, so each accumulator sees its contributions in
//! spike order:
//!
//! * `ci` is the spike order's outermost dimension — same order;
//! * for a fixed output row `oy`, the contributing input row is
//!   `iy = oy·stride + ky − pad`, strictly increasing in `ky`, so spikes
//!   ascending in `iy` arrive with `ky` ascending;
//! * within one input row, for a fixed output column `ox` the tap is
//!   `kx = x − ox·stride + pad`, strictly increasing in `x`, so spikes
//!   ascending in `x` arrive with `kx` ascending.
//!
//! The `co` loop is innermost (contiguous in both the transposed weights
//! and the channels-last psums) — its position is free because different
//! `co` values write disjoint accumulators. A final value-preserving
//! transpose restores the canonical `[C_out, OH, OW]` layout, moving
//! blocks of eight output pixels (then four, then single ones) so that
//! each channel's run of pixels lands with one contiguous store. The
//! equivalence is enforced bit-for-bit by proptests
//! (`crates/snn/tests/sparse_dense.rs`) and on shapes the deployed model
//! lacks (`crates/snn/tests/scatter_shapes.rs`).
//!
//! ## A branch-free walk and fixed-width rows
//!
//! The scatter's cost is its walk, and a walk that branches on the spike
//! bits pays for every mispredicted branch. The walk here runs no branch
//! that depends on the bits, per input row or per spike — the software
//! image of the SIA's fixed work per event (a 3×3 kernel takes 3+1
//! cycles, paper §III-A). It runs in two steps over a block of
//! `BLOCK_WORDS` flat 64-neuron words at a time (a bounded,
//! scratch-tracked spike list; one test skips a block with no spike):
//!
//! * **compact** — the block's words ([`SpikePlane::flat_words`], masked by
//!   the layer's pixels that reach an output) become a list of flat spike
//!   indices, ascending: each byte writes all eight entries of its row of a
//!   byte table of set-bit positions and advances the list by its popcount;
//! * **add** — each listed spike's flat index splits into channel, row and
//!   column by two multiplies (a per-layer `Divisor`, no divide
//!   instruction), and the spike runs the same `r·c` taps as every other:
//!   its row's `(ky·K, oy·OW)` list times its column's `(kx, ox)` list,
//!   each padded to the layer's longest list (`r`, `c`; a `TapWalk`,
//!   built on the layer's first call for any kernel, stride and padding).
//!   A padded pair is junk: it adds a weight row into a junk psum row past
//!   the real ones, which nothing reads, so no tap needs a range test or
//!   a zero weight row. Where `r·c` is 1, 4 or 9 the count is a
//!   compile-time constant;
//!
//! and the rows it adds are fixed-width:
//!
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
//! ## One tiled micro-kernel
//!
//! The tiled kernel is one 3×3 stride-1 micro-kernel: two output rows ×
//! four output channels × sixteen output columns per sweep, each weight
//! broadcast feeding both rows — the software image of a PE row built for
//! one 3-tap kernel row. It covers a layer only when every tile is whole
//! ([`tiled_is_candidate`]: 3×3, stride 1, `C_out` a multiple of 4, `OW` a
//! multiple of 16, `OH` even); every other layer always scatters, under
//! every [`KernelPolicy`].
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
//! * the tap walk both scatters run, built with the first scatter layout;
//! * the kernel decision, fixed once from the layer's geometry and the
//!   engine's [`KernelPolicy`] as one scatter limit
//!   ([`KernelPolicy::scatter_limit`]): a call scatters iff its plane has
//!   fewer set spikes than the limit, so each call costs one compare. A
//!   layer the tiled kernel does not cover ([`tiled_is_candidate`]) has
//!   limit `u64::MAX` (always scatter).
//!
//! A layer that only ever scatters (limit `u64::MAX`) or only ever tiles
//! (limit 0) holds one layout; only a layer where both kernels are
//! candidates holds two.

use crate::network::SnnConv;
use crate::runner::conv_reference;
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

/// Which psum kernel the integer engines use for spiking convolutions
/// (the float datapath has one, the scatter).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum KernelPolicy {
    /// Decide per layer from the layer's geometry with
    /// [`CostModel::DEFAULT`], as the SIA fixes each layer's dataflow when
    /// its registers are programmed.
    #[default]
    Auto,
    /// The tiled kernel wherever it applies ([`tiled_is_candidate`]), the
    /// scatter elsewhere (for verification and benching).
    ForceDense,
    /// Always the event-driven scatter (for verification and benching).
    ForceSparse,
}

impl KernelPolicy {
    /// The kernel decision this policy fixes for a layer of geometry `g`:
    /// a call whose plane has fewer set spikes than this runs the scatter,
    /// any other the tiled kernel. `u64::MAX` always scatters, `0` always
    /// tiles. A layer the tiled kernel does not cover
    /// ([`tiled_is_candidate`]) always scatters, under every policy.
    #[must_use]
    pub fn scatter_limit(self, g: &Conv2dGeom) -> u64 {
        match self {
            _ if !tiled_is_candidate(g) => u64::MAX,
            KernelPolicy::Auto => CostModel::DEFAULT.scatter_limit(g),
            KernelPolicy::ForceDense => 0,
            KernelPolicy::ForceSparse => u64::MAX,
        }
    }
}

/// Whether the tiled kernel covers `g`: exactly the shapes its paired-row
/// micro-kernel sweeps in whole tiles — a 3×3 kernel at stride 1, whole
/// 4-channel groups (`TILE_CO`), whole 16-column tiles (`TILE_OX`) and an
/// even number of output rows. Any padding works: the mask plane carries
/// it.
#[must_use]
pub fn tiled_is_candidate(g: &Conv2dGeom) -> bool {
    let (oh, ow) = g.out_hw();
    g.kernel == 3
        && g.stride == 1
        && g.out_channels.is_multiple_of(TILE_CO)
        && ow > 0
        && ow.is_multiple_of(TILE_OX)
        && oh.is_multiple_of(2)
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

/// Kernel cost coefficients, in integer **picoseconds** so every decision
/// is an exact integer comparison, reproducible on any host.
///
/// The model prices one conv call against the lanes the kernels *execute*,
/// not the elements they produce — the scatter runs in fixed blocks, so a
/// partial block costs a full block:
///
/// * scatter ≈ `scatter_ps_per_lane · spikes·K²·ceil(C_out/LANES)·LANES`
///   `+ scatter_ps_per_out · 2·n_out` (psum clear + transpose sweeps),
/// * dense ≈ `dense_ps_per_lane · n_out·C_in·K²` (the tiled kernel covers
///   only layers it tiles whole, so it computes exactly `n_out` outputs),
///
/// and selects the scatter when its estimate is no larger. The model is
/// only consulted where the tiled kernel applies
/// ([`tiled_is_candidate`]); [`CostModel::scatter_limit`] fixes the result
/// per layer as a crossover spike count.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CostModel {
    /// ps per scatter weight-accumulate lane
    /// (`spikes·K²·scatter_lane_span(C_out)` of them).
    pub scatter_ps_per_lane: u32,
    /// ps per output element of density-independent scatter overhead.
    pub scatter_ps_per_out: u32,
    /// ps per dense tap lane (`n_out·C_in·K²` of them).
    pub dense_ps_per_lane: u32,
}

impl CostModel {
    /// The coefficients [`KernelPolicy::Auto`] decides with: a rounded
    /// fit to a full `sia bench conv` of the row-by-row scatter on a
    /// 2-vCPU x86-64 virtual machine. They put the crossover of the
    /// 32-channel 16×16 bench layer near 11 % density and of the deployed
    /// 8-channel 16×16 layers near 2 %. The bench then timed one spike
    /// plane repeated, which flatters the scatter: coefficients refitted
    /// to a run where the tap-table scatter beat the tiled kernel on the
    /// 8-channel layer up to ~8 % (`8to8k3s1_16_dNNN`) made the deployed
    /// 16×16 stage slower in traced `eval-fixed` runs, so these stay.
    /// Both scatter costs have fallen since: the psum transpose that
    /// `scatter_ps_per_out` prices moved to blocks of output pixels, and
    /// the branch-free walk made each spike cheaper (in the full run
    /// recorded in `BENCH_conv.json` the scatter beats the tiled kernel on
    /// the 8-channel layer at 5 % density, 2.9 µs against 3.8 µs, and
    /// loses at 10 %, 4.5 µs against 3.8 µs). The coefficients were not
    /// refitted for either, so every layer keeps the kernel decision it
    /// had.
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
        u128::from(self.dense_ps_per_lane) * g.out_neurons() as u128 * g.in_channels as u128 * k2
    }

    /// The kernel decision for a layer of geometry `g`, as the fewest set
    /// spikes at which the layer runs the tiled kernel (calls below it
    /// scatter): `u64::MAX` where the tiled kernel does not apply,
    /// otherwise the count at which the modelled scatter first costs
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
/// kernels read and its scatter walk (each built on first need), and its
/// kernel decision.
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
    /// The tap lists both scatters walk, built with the first scatter
    /// layout.
    walk: Option<TapWalk>,
}

impl LayerEntry {
    fn scatter_wt(&mut self, conv: &SnnConv) -> (&[i8], &TapWalk) {
        if self.wt_i.is_empty() {
            let span = scatter_lane_span(conv.geom.out_channels);
            build_wt(conv, span, &mut self.wt_i, |w| w);
        }
        (
            &self.wt_i,
            self.walk.get_or_insert_with(|| TapWalk::new(&conv.geom)),
        )
    }

    fn tiled_wt(&mut self, conv: &SnnConv) -> &[i16] {
        if self.wt_w.is_empty() {
            build_wt(conv, conv.geom.out_channels, &mut self.wt_w, i16::from);
        }
        &self.wt_w
    }

    fn f32_wt(&mut self, conv: &SnnConv) -> (&[f32], &TapWalk) {
        if self.wt_f.is_empty() {
            build_wt(conv, conv.geom.out_channels, &mut self.wt_f, f32::from);
        }
        (
            &self.wt_f,
            self.walk.get_or_insert_with(|| TapWalk::new(&conv.geom)),
        )
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

/// A layer's scatter walk: every spike runs the same `r·c` taps.
///
/// Input row `iy` reaches output row `oy` through kernel row `ky` iff
/// `oy·stride = iy + pad − ky` has a solution with `0 ≤ oy < OH`, and
/// likewise for columns. Row `iy`'s list holds its `(ky·K, oy·OW)` pairs
/// and column `x`'s its `(kx, ox)` pairs, each ascending in `k` (the
/// reference tap order), then junk pairs `(0, OH·OW)` up to the longest
/// list's length (`r` for rows, `c` for columns). A spike at `(ci, iy, x)`
/// adds weight row `ci·K² + ky·K + kx` into psum row
/// `min(oy·OW + ox, OH·OW)` for each pair of pairs, so a tap with a junk
/// half adds into the junk row `OH·OW`, past the real ones, which nothing
/// reads.
#[derive(Clone, Debug)]
struct TapWalk {
    rows: Vec<(u32, u32)>,
    cols: Vec<(u32, u32)>,
    /// Pairs per row list and per column list.
    r: usize,
    c: usize,
    /// The junk psum row, `OH·OW`.
    junk: u32,
    /// The pixels that reach an output, as flat `[C_in, H, W]` words
    /// (the order of [`SpikePlane::flat_words`]); empty when every pixel
    /// does.
    reach: Vec<u64>,
    /// Split a flat spike index into its flat row and column, and a flat
    /// row into its channel and row.
    by_w: Divisor,
    by_h: Divisor,
}

impl TapWalk {
    /// The walk of a layer of geometry `g` (scratch-tracked: a layer
    /// builds it once, on its first scatter).
    fn new(g: &Conv2dGeom) -> TapWalk {
        note_growth();
        let (oh, ow) = g.out_hw();
        let junk = narrow(oh * ow);
        let (rows, r, row_reaches) =
            padded_taps(g, g.in_h, oh, junk, |ky, oy| (ky * g.kernel, oy * ow));
        let (cols, c, col_reaches) = padded_taps(g, g.in_w, ow, junk, |kx, ox| (kx, ox));
        let neurons = g.in_channels * g.in_h * g.in_w;
        // Flat spike indices up to the end of the plane's last word, weight
        // rows, and a junk pair's row sum `2·OH·OW` are all `u32`.
        narrow(neurons.next_multiple_of(64));
        narrow(g.in_channels * g.kernel * g.kernel);
        narrow(2 * oh * ow);
        let mut reach = Vec::new();
        if !row_reaches.iter().chain(&col_reaches).all(|&b| b) {
            reach = vec![0u64; neurons.div_ceil(64)];
            for f in 0..neurons {
                let (iy, x) = (f / g.in_w % g.in_h, f % g.in_w);
                reach[f / 64] |= u64::from(row_reaches[iy] && col_reaches[x]) << (f % 64);
            }
        }
        TapWalk {
            rows,
            cols,
            r,
            c,
            junk,
            reach,
            // A plane with no neurons lists no spike to split.
            by_w: Divisor::new(narrow(g.in_w.max(1))),
            by_h: Divisor::new(narrow(g.in_h.max(1))),
        }
    }
}

fn narrow(v: usize) -> u32 {
    u32::try_from(v).expect("conv layer too large for the scatter walk")
}

/// One axis of a [`TapWalk`]: for each input coordinate `i < len`, the
/// kernel offsets `kk` (ascending) whose output coordinate
/// `o = (i + pad − kk) / stride` is exact and below `o_len`, stored as
/// `pair(kk, o)` and padded with `(0, junk)` pairs to the longest list's
/// length. Returns the lists, that length and whether each coordinate
/// has a tap.
fn padded_taps(
    g: &Conv2dGeom,
    len: usize,
    o_len: usize,
    junk: u32,
    pair: impl Fn(usize, usize) -> (usize, usize),
) -> (Vec<(u32, u32)>, usize, Vec<bool>) {
    let lists: Vec<Vec<(u32, u32)>> = (0..len)
        .map(|i| {
            (0..g.kernel)
                .filter_map(|kk| {
                    let num = (i + g.padding).checked_sub(kk)?;
                    let o = num / g.stride;
                    (num.is_multiple_of(g.stride) && o < o_len).then(|| {
                        let (a, b) = pair(kk, o);
                        (narrow(a), narrow(b))
                    })
                })
                .collect()
        })
        .collect();
    let width = lists.iter().map(Vec::len).max().unwrap_or(0);
    let reaches = lists.iter().map(|l| !l.is_empty()).collect();
    let padded = lists
        .into_iter()
        .flat_map(|l| {
            let pad = width - l.len();
            l.into_iter().chain(std::iter::repeat_n((0, junk), pad))
        })
        .collect();
    (padded, width, reaches)
}

/// Division by a layer constant `d` with one multiply: for `n = q·d + a`,
/// `(n + 1)·m / 2⁶⁴` with `m = ⌊(2⁶⁴ − 1) / d⌋` equals
/// `(n + 1)/d − (n + 1)(1 + ρ)/(d·2⁶⁴)`, `ρ = (2⁶⁴ − 1) mod d`. The
/// subtracted term is positive and, for `n < 2³²` and `d ≤ 2³²`, at most
/// `1/d`, so the value lies in `[q, q + 1)`: its floor is exactly `q`.
#[derive(Clone, Copy, Debug)]
struct Divisor {
    d: u32,
    m: u64,
}

impl Divisor {
    fn new(d: u32) -> Divisor {
        assert!(d > 0, "division by zero");
        Divisor {
            d,
            m: u64::MAX / u64::from(d),
        }
    }

    /// `(n / d, n % d)`.
    #[inline(always)]
    fn split(self, n: u32) -> (u32, u32) {
        let q = ((u128::from(u64::from(n) + 1) * u128::from(self.m)) >> 64) as u32;
        (q, n - q * self.d)
    }
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
    /// The dense input layer's codes, widened and zero-padded.
    codes_pad: Vec<i32>,
    psum_df: Vec<f32>,
    mask_i: Vec<i16>,
    /// One block of compacted spikes (flat input indices) for the scatter.
    spikes: Vec<u32>,
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

/// Flat spike-plane words the scatter compacts at a time.
const BLOCK_WORDS: usize = 16;

/// The spike list's length: one block's worth of spikes.
const LIST_LEN: usize = 64 * BLOCK_WORDS;

/// The set-bit positions of every byte value, ascending, then zeros.
static BYTE_BITS: [[u8; 8]; 256] = {
    let mut table = [[0u8; 8]; 256];
    let mut byte = 0;
    while byte < 256 {
        let (mut n, mut bit) = (0, 0);
        while bit < 8 {
            if byte >> bit & 1 == 1 {
                table[byte][n] = bit as u8;
                n += 1;
            }
            bit += 1;
        }
        byte += 1;
    }
    table
};

/// Lists the set bits of `block` (at most [`BLOCK_WORDS`] words, word `i`
/// holding flat indices `base + 64·i …`) into `list`, ascending, and
/// returns how many. Each byte writes all eight entries of its
/// [`BYTE_BITS`] row and advances by its popcount, so nothing branches on
/// the bits.
#[inline(always)]
fn compact(block: &[u64], base: u32, list: &mut [u32; LIST_LEN]) -> usize {
    let mut n = 0;
    let mut at = base;
    for &word in block.iter().take(BLOCK_WORDS) {
        for byte in word.to_le_bytes() {
            // The bytes before this one listed at most eight spikes each,
            // so `n ≤ LIST_LEN − 8`: the clamp never binds, and it lets the
            // compiler see the write in bounds.
            let m = n.min(LIST_LEN - 8);
            let dst: &mut [u32; 8] = (&mut list[m..m + 8]).try_into().expect("eight entries");
            for (d, &bit) in dst.iter_mut().zip(&BYTE_BITS[usize::from(byte)]) {
                *d = at + u32::from(bit);
            }
            n += byte.count_ones() as usize;
            at += 8;
        }
    }
    n
}

/// One scatter kernel's per-tap work: add transposed weight row `t`
/// (`(ci, ky, kx)`) into channels-last psum row `p` (`(oy, ox)`, or the
/// junk row). A trait method, not a closure, so [`for_each_tap`]'s callers
/// can force it inline into the walk.
trait TapAdd {
    fn add(&mut self, t: usize, p: usize);
}

/// Calls `sink.add(t, p)` for the `r·c` taps of every set spike of `plane`
/// whose pixel reaches an output, in the order the module docs prove
/// bit-exact. The plane's flat words are masked by the walk's `reach` and
/// compacted [`BLOCK_WORDS`] at a time into `list`; the walk then splits
/// each spike's flat index by multiplies and runs the layer's fixed tap
/// count, so no branch depends on the bits.
#[inline(always)]
fn for_each_tap(
    walk: &TapWalk,
    k2: usize,
    plane: &SpikePlane,
    list: &mut Vec<u32>,
    sink: &mut impl TapAdd,
) {
    if list.len() != LIST_LEN {
        scratch_resize(list, LIST_LEN, 0);
    }
    let list: &mut [u32; LIST_LEN] = list.as_mut_slice().try_into().expect("one block");
    let k2 = narrow(k2);
    let n_words = plane.len().div_ceil(64);
    let mut words = plane.flat_words();
    let mut block = [0u64; BLOCK_WORDS];
    for j in (0..n_words).step_by(BLOCK_WORDS) {
        let block = &mut block[..(n_words - j).min(BLOCK_WORDS)];
        for (slot, word) in block.iter_mut().zip(&mut words) {
            *slot = word;
        }
        if let Some(reach) = walk.reach.get(j..j + block.len()) {
            for (word, &m) in block.iter_mut().zip(reach) {
                *word &= m;
            }
        }
        // A silent block (a whole silent plane, on most layers) costs one
        // test.
        if block.iter().fold(0, |any, &word| any | word) == 0 {
            continue;
        }
        let n = compact(block, narrow(64 * j), list);
        let spikes = &list[..n];
        match (walk.r, walk.c) {
            (1, 1) => spike_taps::<1, 1>(walk, k2, spikes, sink),
            (2, 2) => spike_taps::<2, 2>(walk, k2, spikes, sink),
            (3, 3) => spike_taps::<3, 3>(walk, k2, spikes, sink),
            _ => spike_taps::<0, 0>(walk, k2, spikes, sink),
        }
    }
}

/// The taps of listed spikes: `R·C` per spike, a compile-time count for
/// the common lists (`R = 0`: the walk's own `r·c`, counted at run time).
#[inline(always)]
fn spike_taps<const R: usize, const C: usize>(
    walk: &TapWalk,
    k2: u32,
    spikes: &[u32],
    sink: &mut impl TapAdd,
) {
    let (r, c) = if R == 0 { (walk.r, walk.c) } else { (R, C) };
    for &f in spikes {
        let (row, x) = walk.by_w.split(f);
        let (ci, iy) = walk.by_h.split(row);
        let t0 = ci * k2;
        let cols = &walk.cols[x as usize * c..][..c];
        for &(ky_k, oy_ow) in &walk.rows[iy as usize * r..][..r] {
            for &(kx, ox) in cols {
                let p = (oy_ow + ox).min(walk.junk);
                sink.add((t0 + ky_k + kx) as usize, p as usize);
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
        // `nb` is a literal after inlining: one row needs one index each.
        if self.nb == 1 {
            add_lanes(&mut self.psum[p], &self.wt[t]);
            return;
        }
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

/// Float scatter: adds each tap's transposed weight row into its
/// channels-last psum row (`C_out` lanes, unpadded; `OH·OW + 1` rows, the
/// last the junk row).
fn scatter_f32(
    g: &Conv2dGeom,
    walk: &TapWalk,
    wt: &[f32],
    plane: &SpikePlane,
    list: &mut Vec<u32>,
    psum_cl: &mut [f32],
) {
    let mut rows = F32Rows {
        wt,
        psum: psum_cl,
        cout: g.out_channels,
    };
    for_each_tap(walk, g.kernel * g.kernel, plane, list, &mut rows);
}

/// Integer scatter pipeline at a compile-time lane width `S`: clears the
/// channels-last psums (`OH·OW` rows and the junk row), adds each tap's
/// weight row into its psum row (`nb` blocks of `S` saturating i16 lanes
/// per row), and transposes the real rows into canonical `[C_out, OH, OW]`
/// `out`. The callers pass `nb` as a literal, so after inlining the whole
/// row is a fixed-width sweep.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn scatter_int<const S: usize>(
    g: &Conv2dGeom,
    walk: &TapWalk,
    wt: &[i8],
    plane: &SpikePlane,
    list: &mut Vec<u32>,
    psum_cl: &mut Vec<i16>,
    out: &mut [i16],
    nb: usize,
) {
    let (oh, ow) = g.out_hw();
    scratch_resize(psum_cl, (oh * ow + 1) * S * nb, 0);
    let mut rows = IntRows::<S> {
        wt: wt.as_chunks::<S>().0,
        psum: psum_cl.as_chunks_mut::<S>().0,
        nb,
    };
    for_each_tap(walk, g.kernel * g.kernel, plane, list, &mut rows);
    transpose_cl(rows.psum.as_flattened(), out, g.out_channels, S * nb);
}

/// Expands the bit plane into a padded `0 / −1` i16 mask plane for the
/// tiled dense kernel: per channel, `in_h + 2·pad` rows of
/// `in_w + 2·pad` columns, borders zero. `mask & weight` is then exactly
/// `weight` on set bits and `0` — the saturating-add identity — elsewhere,
/// which is what makes the branchless kernel bit-exact with the
/// skip-silent-taps reference (and density-independent in time: no
/// data-dependent branch survives into the inner loop). Each row expands
/// sixteen lanes at a time from a 16-bit slice of its row word
/// ([`expand16`]).
fn build_mask_plane(g: &Conv2dGeom, plane: &SpikePlane, mask: &mut Vec<i16>) {
    let mw = g.in_w + 2 * g.padding;
    let mh = g.in_h + 2 * g.padding;
    scratch_resize(mask, g.in_channels * mh * mw, 0);
    let wpr = plane.words_per_row();
    for (words, mch) in plane.channel_words().zip(mask.chunks_exact_mut(mh * mw)) {
        let mrows = mch[g.padding * mw..].chunks_exact_mut(mw);
        for (row, mrow) in words.chunks_exact(wpr).zip(mrows) {
            let mut bits = row
                .iter()
                .flat_map(|&word| (0..4).map(move |k| (word >> (16 * k)) as u16));
            let (whole, tail) = mrow[g.padding..][..g.in_w].as_chunks_mut::<16>();
            for (lanes, b) in whole.iter_mut().zip(&mut bits) {
                *lanes = expand16(b);
            }
            if !tail.is_empty() {
                if let Some(b) = bits.next() {
                    tail.copy_from_slice(&expand16(b)[..tail.len()]);
                }
            }
        }
    }
}

/// Sixteen mask lanes from sixteen spike bits: lane `l` is `−1` where bit
/// `l` is set, `0` elsewhere (one vector compare per call).
#[inline(always)]
fn expand16(bits: u16) -> [i16; 16] {
    std::array::from_fn(|l| -i16::from(bits & (1 << l) != 0))
}

/// Register-tiled branchless INT8→INT16 dense kernel (im2col-free), over
/// a layer it tiles whole ([`tiled_is_candidate`]).
///
/// Sweeps [`tile_k3_pair`] over every `TILE_CO`-channel group, output row
/// pair and `TILE_OX`-column tile. Each tile runs the *entire* reduction
/// `(ci, ky, kx)` in reference order, adding `mask & weight` per lane (see
/// [`build_mask_plane`] for why that is bit-exact). The reduction is never
/// split across tiles — saturating addition is not associative, so each
/// accumulator sees all of its taps in one sweep. Weights come from the
/// same `[(ci,ky,kx), co]` transposition as the scatter, so `TILE_CO`
/// adjacent channels are one contiguous load; writes land directly in
/// canonical `[C_out, OH, OW]` (no transpose pass).
fn dense_tiled_int(g: &Conv2dGeom, wt: &[i16], mask: &[i16], out: &mut [i16]) {
    let (oh, ow) = g.out_hw();
    for co0 in (0..g.out_channels).step_by(TILE_CO) {
        for oy in (0..oh).step_by(2) {
            for ox0 in (0..ow).step_by(TILE_OX) {
                tile_k3_pair(g, wt, mask, oy, ox0, co0, out);
            }
        }
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

/// Channels-last rows of `span ≥ cout` lanes → canonical `[C_out, OH, OW]`
/// `out` (value-preserving; padding lanes are dropped). Output pixels move
/// in blocks ([`transpose_blocks`]) of eight, then of four, and the last
/// few one by one. Inlined, so the integer scatter's rows keep their
/// compile-time width.
#[inline(always)]
fn transpose_cl<A: Copy>(cl: &[A], out: &mut [A], cout: usize, span: usize) {
    let per_ch = out.len() / cout;
    let p = transpose_blocks::<A, 8>(cl, out, cout, span, 0);
    let p = transpose_blocks::<A, 4>(cl, out, cout, span, p);
    for p in p..per_ch {
        for (co, &v) in cl[p * span..][..cout].iter().enumerate() {
            out[co * per_ch + p] = v;
        }
    }
}

/// Moves the whole blocks of `B` output pixels from pixel `p0` on, and
/// returns the first pixel it left: each block's `B` rows are read once,
/// then each channel's run of `B` lands with one contiguous store instead
/// of `B` scattered ones.
#[inline(always)]
fn transpose_blocks<A: Copy, const B: usize>(
    cl: &[A],
    out: &mut [A],
    cout: usize,
    span: usize,
    p0: usize,
) -> usize {
    let per_ch = out.len() / cout;
    let end = p0 + (per_ch - p0) / B * B;
    for p in (p0..end).step_by(B) {
        let rows: [&[A]; B] = std::array::from_fn(|k| &cl[(p + k) * span..][..cout]);
        for (co, run) in out[p..].chunks_mut(per_ch).take(cout).enumerate() {
            let px: [A; B] = std::array::from_fn(|k| rows[k][co]);
            run[..B].copy_from_slice(&px);
        }
    }
    end
}

fn check_plane(g: &Conv2dGeom, plane: &SpikePlane) {
    assert_eq!(
        (plane.channels(), plane.height(), plane.width()),
        (g.in_channels, g.in_h, g.in_w),
        "spike plane shape mismatches conv geometry"
    );
}

/// Word-parallel scatter pipeline: scatter into the padded channels-last
/// psums with the layer's padded weight rows and tap walk, transpose to
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
        spikes,
        layers,
        ..
    } = scr;
    let (wt, walk) = entry_mut(layers, layer).scatter_wt(conv);
    scratch_resize(psum_i, g.out_neurons(), 0);
    let (cl, out) = (psum_cl_i, psum_i.as_mut_slice());
    match scatter_lane_span(g.out_channels) {
        16 => scatter_int::<16>(g, walk, wt, plane, spikes, cl, out, 1),
        32 => scatter_int::<32>(g, walk, wt, plane, spikes, cl, out, 1),
        48 => scatter_int::<48>(g, walk, wt, plane, spikes, cl, out, 1),
        64 => scatter_int::<64>(g, walk, wt, plane, spikes, cl, out, 1),
        span => scatter_int::<LANES>(g, walk, wt, plane, spikes, cl, out, span / LANES),
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
    let ConvScratch {
        psum_i,
        layers,
        mask_i,
        ..
    } = scr;
    let wt = entry_mut(layers, layer).tiled_wt(conv);
    build_mask_plane(g, plane, mask_i);
    scratch_resize(psum_i, g.out_neurons(), 0);
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
/// Panics if the plane shape mismatches the conv geometry, or if the tiled
/// kernel does not cover it ([`tiled_is_candidate`]).
pub fn conv_psums_int_tiled<'a>(
    conv: &SnnConv,
    plane: &SpikePlane,
    scr: &'a mut ConvScratch,
    layer: usize,
) -> &'a [i16] {
    let g = &conv.geom;
    check_plane(g, plane);
    assert!(
        tiled_is_candidate(g),
        "the tiled kernel covers only 3x3 stride-1 layers with C_out % 4 == 0, \
         OW % 16 == 0 and OH even, not {g}"
    );
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

/// Float twin of [`conv_psums_int_plane`]. The float datapath has one
/// kernel, the event-driven scatter, and runs it under every `policy`
/// (`f32` accumulation in the reference tap order, so results equal
/// [`crate::runner::conv_psums_f32`] exactly).
///
/// # Panics
///
/// Panics if the plane shape mismatches the conv geometry.
pub fn conv_psums_f32_plane<'a>(
    conv: &SnnConv,
    plane: &SpikePlane,
    _policy: KernelPolicy,
    scr: &'a mut ConvScratch,
    layer: usize,
) -> &'a [f32] {
    let g = &conv.geom;
    check_plane(g, plane);
    let n_out = g.out_neurons();
    account_taps(scr, g, plane.count_ones(), true);
    let ConvScratch {
        psum_f,
        psum_cl_f,
        spikes,
        layers,
        ..
    } = scr;
    scratch_resize(psum_f, n_out, 0.0);
    let (wt, walk) = entry_mut(layers, layer).f32_wt(conv);
    scratch_resize(psum_cl_f, n_out + g.out_channels, 0.0);
    scatter_f32(g, walk, wt, plane, spikes, psum_cl_f);
    transpose_cl(psum_cl_f, psum_f, g.out_channels, g.out_channels);
    psum_f
}

/// Scratch-buffer variant of [`crate::runner::conv_psums_dense`] (dense
/// INT8 first-layer codes, 32-bit accumulation) — same values, zero
/// steady-state allocation.
///
/// The codes are widened once per call into a zero-padded `i32` plane
/// (`in_h + 2·pad` rows of `in_w + 2·pad` columns per channel), so every
/// tap reads inside it and the padding adds zeros. The 32-bit sums of
/// `i8 · i8` products cannot overflow, so their order is free: the loop
/// walks `(co, ci, ky, kx)` and adds `w · code` across a whole output
/// plane at once, a fixed-length sweep with no range test, instead of
/// gathering every output's taps one by one. At stride 1 the output rows
/// are laid out as wide as the padded rows while they accumulate, so the
/// sweep is one contiguous run over the plane; the columns past `OW` read
/// past their row, and are dropped when the rows are packed to `OW` at the
/// end. At any other stride each output row is one strided sweep.
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
    assert_eq!(
        codes.len(),
        g.in_channels * g.in_h * g.in_w,
        "input codes mismatch conv geometry"
    );
    let (ph, pw) = (g.in_h + 2 * pad, g.in_w + 2 * pad);
    let ConvScratch {
        psum_d32,
        codes_pad,
        ..
    } = scr;
    scratch_resize(codes_pad, g.in_channels * ph * pw, 0);
    for (r, src) in codes.chunks_exact(g.in_w.max(1)).enumerate() {
        let (ci, iy) = (r / g.in_h, r % g.in_h);
        let dst = &mut codes_pad[(ci * ph + iy + pad) * pw + pad..][..g.in_w];
        for (d, &c) in dst.iter_mut().zip(src) {
            *d = i32::from(c);
        }
    }
    // Output row pitch while accumulating.
    let pitch = if s == 1 { pw } else { ow };
    // Stride 1: the last row's columns past `OW` are never needed, so the
    // sweep stops there and stays inside the padded plane.
    let sweep = (oh - 1) * pitch + ow;
    scratch_resize(psum_d32, g.out_channels * oh * pitch, 0);
    for (co, out) in psum_d32.chunks_exact_mut(oh * pitch).enumerate() {
        for (ci, plane) in codes_pad.chunks_exact(ph * pw).enumerate() {
            for ky in 0..k {
                for kx in 0..k {
                    let w = i32::from(conv.weight(co, ci, ky, kx));
                    if s == 1 {
                        let src = &plane[ky * pw + kx..][..sweep];
                        for (o, &c) in out[..sweep].iter_mut().zip(src) {
                            *o += w * c;
                        }
                        continue;
                    }
                    for (oy, orow) in out.chunks_exact_mut(ow).enumerate() {
                        let src = plane[(oy * s + ky) * pw + kx..].iter().step_by(s);
                        for (o, &c) in orow.iter_mut().zip(src) {
                            *o += w * c;
                        }
                    }
                }
            }
        }
    }
    if pitch != ow {
        // Rows move down to their packed place, first to last.
        for row in 0..g.out_channels * oh {
            psum_d32.copy_within(row * pitch..row * pitch + ow, row * ow);
        }
        psum_d32.truncate(g.out_channels * oh * ow);
    }
    psum_d32
}

/// Float twin of [`conv_psums_dense_into`] (reference tap order: `f32`
/// sums are order-sensitive, so this one keeps the per-output gather).
pub fn conv_psums_dense_f32_into<'a>(
    conv: &SnnConv,
    codes: &[i8],
    scr: &'a mut ConvScratch,
) -> &'a [f32] {
    scratch_resize(&mut scr.psum_df, conv.out_neurons(), 0.0);
    conv_reference(conv, 0.0, &mut scr.psum_df, |acc, i, w| {
        acc + f32::from(codes[i]) * f32::from(w)
    });
    &scr.psum_df
}

#[cfg(test)]
pub(crate) mod tests {
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
                if tiled_is_candidate(&conv.geom) {
                    let tiled = conv_psums_int_tiled(&conv, &plane, &mut scr, i).to_vec();
                    assert_eq!(tiled, reference, "tiled case {i} rate {rate}");
                }
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

        // The tiled kernel has no path for partial tiles, so the model is
        // never consulted there: the misaligned layer always scatters.
        assert!(!tiled_is_candidate(&g17));
        assert_eq!(m.scatter_limit(&g17), u64::MAX);
        assert_eq!(m.crossover_density(&g17), 1.0);
    }

    #[test]
    fn default_auto_never_tiles_where_the_fast_path_misses() {
        // The deployed downsample and deeper-stage geometries (stride 2,
        // 3×3 and 1×1; OW ∈ {8, 4, 2}), then each whole-tile condition on
        // its own: 5×5 and 1×1 kernels, a partial channel group, a partial
        // column tile and (below) an odd output row count. Auto and
        // ForceDense scatter there at any density.
        for (cin, cout, hw, k, stride, pad) in [
            (8usize, 16usize, 16usize, 3usize, 2usize, 1usize),
            (8, 16, 16, 1, 2, 0),
            (16, 16, 8, 3, 1, 1),
            (32, 32, 4, 3, 1, 1),
            (64, 64, 2, 3, 1, 1),
            (8, 8, 16, 5, 1, 2),
            (8, 8, 16, 1, 1, 0),
            (8, 6, 16, 3, 1, 1),
            (8, 8, 18, 3, 1, 1),
        ] {
            let g = test_conv(cin, cout, hw, k, stride, pad, 0).geom;
            assert!(!tiled_is_candidate(&g), "{g:?}");
            for policy in [KernelPolicy::Auto, KernelPolicy::ForceDense] {
                assert_eq!(policy.scatter_limit(&g), u64::MAX, "{policy:?} {g:?}");
            }
        }
        let odd_rows = Conv2dGeom {
            in_h: 15,
            ..test_conv(8, 8, 16, 3, 1, 1, 0).geom
        };
        assert!(!tiled_is_candidate(&odd_rows));
    }

    #[test]
    fn default_auto_tiles_the_deployed_16_column_layers() {
        // 8→8 @16², the deployed first residual stage: the tiled kernel
        // covers it, and Auto goes tiled at 10 % density while a silent
        // plane still scatters.
        let g = test_conv(8, 8, 16, 3, 1, 1, 0).geom;
        assert!(tiled_is_candidate(&g));
        let neurons = (8 * 16 * 16) as u64;
        let limit = KernelPolicy::Auto.scatter_limit(&g);
        assert!(0 < limit && limit <= neurons / 10, "limit {limit}");
        // Where the tiled kernel applies, the forced policies pin one kernel.
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
    #[should_panic(expected = "tiled kernel covers only")]
    fn tiled_entry_rejects_layers_it_does_not_cover() {
        // Stride 2: no paired-row tile exists for it.
        let conv = test_conv(8, 16, 16, 3, 2, 1, 1);
        let mut plane = SpikePlane::default();
        plane.pack_from_bytes(8, 16, 16, &spikes(8 * 256, 10, 3));
        let _ = conv_psums_int_tiled(&conv, &plane, &mut ConvScratch::new(), 0);
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
    fn divisor_splits_like_the_divide_instruction() {
        for d in [
            1u32,
            2,
            3,
            5,
            7,
            10,
            16,
            60,
            100,
            255,
            1000,
            65_535,
            65_536,
            1 << 20 | 7,
        ] {
            let div = Divisor::new(d);
            let edges = [0u32, 1, d - 1, d, d.wrapping_add(1), u32::MAX - 1, u32::MAX];
            let near_multiples = (1..200u32).flat_map(|q| {
                let m = q.wrapping_mul(d);
                [m.wrapping_sub(1), m, m.wrapping_add(1)]
            });
            let mut state = u64::from(d);
            let random = (0..2000).map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 32) as u32
            });
            for n in edges.into_iter().chain(near_multiples).chain(random) {
                assert_eq!(div.split(n), (n / d, n % d), "{n} / {d}");
            }
        }
        let div = Divisor::new(u32::MAX);
        for n in [0, 1, u32::MAX - 1, u32::MAX] {
            assert_eq!(div.split(n), (n / u32::MAX, n % u32::MAX));
        }
    }

    /// Records every tap the walk issues.
    struct Record(Vec<(usize, usize)>);

    impl TapAdd for Record {
        fn add(&mut self, t: usize, p: usize) {
            self.0.push((t, p));
        }
    }

    #[test]
    fn walk_visits_the_reaching_spikes_in_flat_order() {
        // Every tap the walk issues is either a real tap, in the reference
        // order (spikes ascending in flat `(ci, iy, x)`, then `ky`, then
        // `kx`), or a junk tap into row `OH·OW`; each spike whose pixel
        // reaches an output issues exactly `r·c` of them, and no other
        // spike issues any. Planes span several compaction blocks, with
        // spikes on both sides of every word boundary, at widths that do
        // and do not divide 64 and with tapless pixels (stride above the
        // kernel, and far edges no window reaches).
        for (i, &(cin, h, w, k, stride, pad)) in [
            (3usize, 16usize, 16usize, 3usize, 1usize, 1usize),
            (13, 16, 16, 3, 1, 1),
            (5, 8, 8, 3, 2, 1),
            (9, 16, 16, 1, 2, 0),
            (4, 10, 10, 1, 3, 0),
            (4, 11, 11, 2, 3, 0),
            (3, 9, 5, 2, 3, 1),
            (2, 7, 65, 3, 1, 1),
            (3, 6, 100, 5, 2, 2),
            (40, 6, 10, 3, 1, 0),
        ]
        .iter()
        .enumerate()
        {
            let g = Conv2dGeom {
                in_channels: cin,
                out_channels: 8,
                in_h: h,
                in_w: w,
                kernel: k,
                stride,
                padding: pad,
            };
            let (oh, ow) = g.out_hw();
            let walk = TapWalk::new(&g);
            let n = cin * h * w;
            let patterns: [Box<dyn Fn(usize) -> bool>; 3] = [
                Box::new(|f| matches!(f % 64, 0 | 63)),
                Box::new(|_| true),
                Box::new(move |f| (f * 7 + i) % 5 == 0),
            ];
            for (pi, on) in patterns.iter().enumerate() {
                let bytes: Vec<u8> = (0..n).map(|f| u8::from(on(f))).collect();
                let mut plane = SpikePlane::default();
                plane.pack_from_bytes(cin, h, w, &bytes);
                let mut rec = Record(Vec::new());
                let mut list = Vec::new();
                for_each_tap(&walk, k * k, &plane, &mut list, &mut rec);

                let junk = oh * ow;
                let mut real = Vec::new();
                let mut reaching = 0;
                for f in (0..n).filter(|&f| bytes[f] != 0) {
                    let (ci, iy, x) = (f / (h * w), f / w % h, f % w);
                    let axis = |i: usize, o_len: usize| -> Vec<(usize, usize)> {
                        (0..k)
                            .filter(|&kk| i + pad >= kk && (i + pad - kk).is_multiple_of(stride))
                            .map(|kk| (kk, (i + pad - kk) / stride))
                            .filter(|&(_, o)| o < o_len)
                            .collect()
                    };
                    let (rows, cols) = (axis(iy, oh), axis(x, ow));
                    if rows.is_empty() || cols.is_empty() {
                        continue;
                    }
                    reaching += 1;
                    for &(ky, oy) in &rows {
                        for &(kx, ox) in &cols {
                            real.push(((ci * k + ky) * k + kx, oy * ow + ox));
                        }
                    }
                }
                let case = format!("{cin}x{h}x{w} K={k} s={stride} p={pad} pattern {pi}");
                assert_eq!(rec.0.len(), reaching * walk.r * walk.c, "{case}");
                let (issued_real, issued_junk): (Vec<_>, Vec<_>) =
                    rec.0.iter().partition(|&&(_, p)| p < junk);
                assert_eq!(issued_real, real, "{case}");
                assert!(
                    issued_junk
                        .iter()
                        .all(|&(t, p)| p == junk && t < cin * k * k),
                    "{case}"
                );
            }
        }
    }

    #[test]
    fn scatters_return_zero_psums_for_a_plane_with_no_neurons() {
        // A 1×1 kernel with padding 1 reads only padding from a 0×0 input.
        let conv = test_conv(2, 4, 0, 1, 1, 1, 3);
        let (oh, ow) = conv.geom.out_hw();
        let plane = SpikePlane::new(2, 0, 0);
        let mut scr = ConvScratch::new();
        let got = conv_psums_int_scatter(&conv, &plane, &mut scr, 0).to_vec();
        assert_eq!(got, vec![0; 4 * oh * ow]);
        let got = conv_psums_f32_plane(&conv, &plane, KernelPolicy::ForceSparse, &mut scr, 1);
        assert_eq!(got, vec![0.0; 4 * oh * ow]);
    }

    #[test]
    fn walk_tables_fit_the_deployed_layers() {
        // 3×3 stride 1 reaches three rows and columns; 3×3 stride 2 at most
        // two; 1×1 stride 2 one, and only from even rows and columns, which
        // the reach mask alone keeps.
        for (cin, hw, k, stride, pad, rc, masked) in [
            (
                8usize,
                16usize,
                3usize,
                1usize,
                1usize,
                (3usize, 3usize),
                false,
            ),
            (16, 8, 3, 1, 1, (3, 3), false),
            (64, 2, 3, 1, 1, (2, 2), false),
            (8, 16, 3, 2, 1, (2, 2), false),
            (8, 16, 1, 2, 0, (1, 1), true),
        ] {
            let g = test_conv(cin, 16, hw, k, stride, pad, 0).geom;
            let walk = TapWalk::new(&g);
            assert_eq!((walk.r, walk.c), rc, "{g}");
            assert_eq!(!walk.reach.is_empty(), masked, "{g}");
            if masked {
                // Rows 0–3 of channel 0: even columns of the even rows.
                assert_eq!(walk.reach[0], 0x0000_5555_0000_5555);
            }
        }
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
        // The tiled kernel touches every tap, on a layer it covers.
        let conv = test_conv(2, 4, 16, 3, 1, 1, 2);
        let mut plane = SpikePlane::default();
        plane.pack_from_bytes(2, 16, 16, &spikes(2 * 256, 25, 11));
        let _ = conv_psums_int_plane(&conv, &plane, KernelPolicy::ForceDense, &mut scr, 1);
        assert_eq!(scr.take_taps(), (512 * 9, 0));
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

    /// The element-wise transpose the blocked one replaced: its oracle.
    fn transpose_by_elements<A: Copy>(cl: &[A], out: &mut [A], cout: usize, span: usize) {
        let per_ch = out.len() / cout;
        for (p, row) in cl.chunks_exact(span).enumerate() {
            for (co, &v) in row[..cout].iter().enumerate() {
                out[co * per_ch + p] = v;
            }
        }
    }

    #[test]
    fn blocked_transpose_matches_the_element_wise_one() {
        // Pixel counts below, at and around whole blocks; every scatter
        // lane width (16, 32, 48, 64) and the 16-lane blocks past 64
        // channels; and the float scatter's unpadded rows.
        for per_ch in [1usize, 4, 7, 8, 9, 16, 64, 65] {
            for cout in [1usize, 8, 16, 24, 32, 40, 48, 64, 72, 96] {
                let span = scatter_lane_span(cout);
                let cl: Vec<i16> = (0..per_ch * span)
                    .map(|i| (i as u32).wrapping_mul(0x9E37_79B1) as i16)
                    .collect();
                let mut got = vec![0i16; cout * per_ch];
                let mut want = vec![1i16; cout * per_ch];
                transpose_cl(&cl, &mut got, cout, span);
                transpose_by_elements(&cl, &mut want, cout, span);
                assert_eq!(got, want, "P={per_ch} C_out={cout} span={span}");
                let clf: Vec<f32> = cl[..per_ch * cout].iter().map(|&v| f32::from(v)).collect();
                let mut gotf = vec![0.0f32; cout * per_ch];
                let mut wantf = vec![1.0f32; cout * per_ch];
                transpose_cl(&clf, &mut gotf, cout, cout);
                transpose_by_elements(&clf, &mut wantf, cout, cout);
                assert_eq!(gotf, wantf, "f32 P={per_ch} C_out={cout}");
            }
        }
    }

    /// The bit-by-bit mask expansion the 16-lane one replaced: its oracle.
    fn mask_plane_by_bits(g: &Conv2dGeom, plane: &SpikePlane) -> Vec<i16> {
        let mw = g.in_w + 2 * g.padding;
        let mh = g.in_h + 2 * g.padding;
        let mut mask = vec![0i16; g.in_channels * mh * mw];
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
        mask
    }

    #[test]
    fn mask_expansion_matches_the_bit_by_bit_one() {
        // Row widths of whole 16-lane steps (16, 32, 64, 128) and with a
        // tail (1, 5, 20, 63, 70, 130), at paddings 0–2, over a stale
        // buffer.
        let mut mask = vec![7i16; 4096];
        for (i, in_w) in [16usize, 32, 64, 128, 1, 5, 20, 63, 70, 130]
            .into_iter()
            .enumerate()
        {
            for pad in 0..3 {
                let g = Conv2dGeom {
                    in_w,
                    in_h: 3,
                    ..test_conv(2, 4, 3, 3, 1, pad, 0).geom
                };
                let bytes = spikes(2 * 3 * in_w, 45, i as u64 * 7 + pad as u64);
                let mut plane = SpikePlane::default();
                plane.pack_from_bytes(2, 3, in_w, &bytes);
                build_mask_plane(&g, &plane, &mut mask);
                assert_eq!(mask, mask_plane_by_bits(&g, &plane), "W={in_w} pad={pad}");
            }
        }
    }

    #[test]
    fn padded_input_conv_matches_the_reference() {
        // K 1, 3 and 5 at strides 1–3 and paddings 0–2 on non-square
        // images, codes spanning both INT8 rails, over one scratch whose
        // padded plane changes shape from call to call.
        let mut scr = ConvScratch::new();
        for k in [1usize, 3, 5] {
            for stride in 1..=3 {
                for pad in 0..=2 {
                    for (in_h, in_w) in [(7usize, 5usize), (5, 9), (6, 11)] {
                        let mut conv = test_conv(3, 4, in_h, k, stride, pad, k + stride);
                        conv.geom.in_w = in_w;
                        let codes: Vec<i8> = (0..3 * in_h * in_w)
                            .map(|j| match j % 11 {
                                0 => i8::MIN,
                                1 => i8::MAX,
                                _ => ((j * 37 + k) % 256) as u8 as i8,
                            })
                            .collect();
                        assert_eq!(
                            conv_psums_dense_into(&conv, &codes, &mut scr),
                            crate::runner::conv_psums_dense(&conv, &codes).as_slice(),
                            "K={k} s={stride} p={pad} {in_h}x{in_w}"
                        );
                    }
                }
            }
        }
    }
}
