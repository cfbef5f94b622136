//! Cache-blocked, register-tiled GEMM backend.
//!
//! The naive `i-k-j` loops in [`crate::matmul()`] re-stream the whole `B`
//! matrix once per output row; for the GEMM shapes the paper's networks
//! emit (e.g. the ResNet-18 stem at base 64: `64×576 · 576×1024`) that is
//! the dominant memory traffic of training. This module applies the same
//! blocking discipline the SIA applies in hardware — the 8×8 PE array
//! computes an output *tile* while operands stay resident in on-chip SRAM —
//! in software:
//!
//! * **MC/KC/NC cache blocking** — `B` is processed in `KC×NC` panels that
//!   fit in L2 while an `MC`-row band of `A` is swept over them;
//! * **operand packing** — each `B` panel is repacked into `NR`-wide
//!   column strips and each `A` band into `MR`-interleaved row strips
//!   (reusable thread-local buffers), so the micro-kernel reads both
//!   operands contiguously at stride 1;
//! * **register tiling** — the micro-kernel keeps an `MR×NR` accumulator
//!   tile in registers, so every loaded `B` value feeds `MR` rows and
//!   every loaded `A` value feeds `NR` columns.
//!
//! # Bit-exactness contract
//!
//! Every kernel here produces **bit-identical** `f32` output to its naive
//! reference loop, enforced by proptests and asserted by `sia bench gemm`
//! before timing. Three rules make that possible:
//!
//! 1. tiles cover *output* coordinates only — the reduction dimension is
//!    never split across accumulators, so each output element sees its
//!    partial products in exactly the reference order;
//! 2. `KC` blocking round-trips partial sums through `f32` memory, which
//!    is lossless (the reference accumulates through `f32` memory too);
//! 3. the reference's zero-skip (`if a == 0.0 { continue }`) is *not*
//!    replicated — the micro-kernel stays branchless and adds the `±0.0`
//!    products. That is bitwise unobservable for finite operands: an
//!    accumulator that starts at `+0.0` can never become `-0.0` through
//!    additions, so `acc + (±0.0)` returns `acc` unchanged bit for bit.
//!    (Only non-finite `B` values could tell the difference, via
//!    `0·∞ = NaN`; network weights and activations are finite.)
//!
//! Because blocked and reference kernels agree bitwise, the global
//! [`Kernel`] override never changes results, only speed.

use crate::pool;
use crate::tensor::Tensor;
use crate::tile;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Mutex;

/// Which GEMM implementation [`crate::matmul()`] dispatches to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kernel {
    /// Cache-blocked, register-tiled, pool-parallel kernels (default).
    Blocked,
    /// The original naive `i-k-j` loops — the bit-exactness oracle.
    Reference,
}

static KERNEL: AtomicU8 = AtomicU8::new(0);

/// Selects the GEMM implementation process-wide. Both kernels are
/// bit-identical, so this only affects speed (and telemetry).
pub fn set_kernel(k: Kernel) {
    KERNEL.store(k as u8, Ordering::Relaxed);
}

/// The currently selected GEMM implementation.
#[must_use]
pub fn kernel() -> Kernel {
    match KERNEL.load(Ordering::Relaxed) {
        0 => Kernel::Blocked,
        _ => Kernel::Reference,
    }
}

/// Register-tile rows (output rows per micro-kernel call).
const MR: usize = 4;
/// Register-tile columns (output columns per micro-kernel call).
const NR: usize = 8;
/// Row-band height swept over one packed panel before the next `KC` block.
const MC: usize = 64;
/// Reduction-dimension block: `KC×NR` strips stay L1-resident.
const KC: usize = 384;
/// Column block: one packed `KC×NC` panel stays L2-resident.
const NC: usize = 256;

/// The blocking parameters `(MR, NR, MC, KC, NC)`, exported so reports
/// (e.g. the `sia bench gemm` JSON) record the tiling they measured.
pub const TILING: (usize, usize, usize, usize, usize) = (MR, NR, MC, KC, NC);

/// Below this many nominal FLOPs a GEMM stays single-threaded — spawning
/// scoped workers costs more than the multiply.
const PARALLEL_FLOP_THRESHOLD: u64 = 1 << 20;

/// Worker count for one GEMM: the pool setting, capped at the physical
/// core count (a compute-bound kernel gains nothing from oversubscription
/// — extra scoped workers on a busy core are pure spawn/contend overhead)
/// and at the number of `MR`-row bands there are to hand out.
fn gemm_workers(m: usize, flops: u64) -> usize {
    if flops < PARALLEL_FLOP_THRESHOLD {
        return 1;
    }
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    pool::threads().min(cores).min(m.div_ceil(MR))
}

thread_local! {
    /// Reusable B-panel packing buffer (one per pool worker; grows to the
    /// largest panel seen and is never shrunk, so steady-state training
    /// does not allocate per GEMM call).
    static PACK_BUF: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    /// Reusable A-block packing buffer (`MR`-interleaved strips).
    static PACK_A_BUF: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Per-call kernel statistics, merged across workers and reported to
/// telemetry by the dispatch layer.
#[derive(Default)]
struct GemmStats {
    tiles: AtomicU64,
    pack_bytes: AtomicU64,
}

impl GemmStats {
    fn report(&self, workers: usize) {
        sia_telemetry::counter!("tensor.gemm.tiles", self.tiles.load(Ordering::Relaxed));
        sia_telemetry::counter!(
            "tensor.gemm.pack_bytes",
            self.pack_bytes.load(Ordering::Relaxed)
        );
        sia_telemetry::gauge!("tensor.gemm.threads", workers as f64);
    }
}

/// `MR×NR` micro-kernel over one packed strip, full-tile fast path.
///
/// `a` starts at `(row0, pc)` of the row-major `A` (leading dim `lda`);
/// `panel` is the packed `kc×NR` strip; `c` starts at `(row0, j0)` of the
/// output (leading dim `ldc`). Accumulators load the current partial sums
/// from `c` and store back after the `kc` sweep, so `KC` blocking keeps
/// the reference's per-element accumulation order exactly.
#[inline]
fn micro_full(kc: usize, apanel: &[f32], bpanel: &[f32], c: &mut [f32], ldc: usize) {
    let mut acc = [[0.0f32; NR]; MR];
    for (r, row) in acc.iter_mut().enumerate() {
        row.copy_from_slice(&c[r * ldc..r * ldc + NR]);
    }
    for p in 0..kc {
        // fixed-size views of the packed strips keep the inner loops
        // branchless, contiguous and unrollable
        let avs = tile::block::<MR, _>(&apanel[p * MR..]);
        let brow = tile::block::<NR, _>(&bpanel[p * NR..]);
        for (row, &av) in acc.iter_mut().zip(avs) {
            for (o, &bv) in row.iter_mut().zip(brow) {
                *o += av * bv;
            }
        }
    }
    for (r, row) in acc.iter().enumerate() {
        c[r * ldc..r * ldc + NR].copy_from_slice(row);
    }
}

/// Two-strip micro-kernel: an `MR×2NR` tile over two adjacent packed `B`
/// strips. Same per-element accumulation order as two [`micro_full`] calls
/// (each output column still sums its products in `p` order), but every
/// `A` broadcast now feeds `2·NR` columns, halving the non-FLOP work per
/// multiply-add.
#[inline]
fn micro_full2(kc: usize, apanel: &[f32], b0: &[f32], b1: &[f32], c: &mut [f32], ldc: usize) {
    let mut acc0 = [[0.0f32; NR]; MR];
    let mut acc1 = [[0.0f32; NR]; MR];
    for r in 0..MR {
        acc0[r].copy_from_slice(&c[r * ldc..r * ldc + NR]);
        acc1[r].copy_from_slice(&c[r * ldc + NR..r * ldc + 2 * NR]);
    }
    for p in 0..kc {
        let avs = tile::block::<MR, _>(&apanel[p * MR..]);
        let b0row = tile::block::<NR, _>(&b0[p * NR..]);
        let b1row = tile::block::<NR, _>(&b1[p * NR..]);
        for (r, &av) in avs.iter().enumerate() {
            for (o, &bv) in acc0[r].iter_mut().zip(b0row) {
                *o += av * bv;
            }
            for (o, &bv) in acc1[r].iter_mut().zip(b1row) {
                *o += av * bv;
            }
        }
    }
    for r in 0..MR {
        c[r * ldc..r * ldc + NR].copy_from_slice(&acc0[r]);
        c[r * ldc + NR..r * ldc + 2 * NR].copy_from_slice(&acc1[r]);
    }
}

/// Edge-tile micro-kernel for `mr < MR` and/or `nr < NR` remainders.
#[allow(clippy::too_many_arguments)] // mirrors the BLIS micro-kernel signature
fn micro_edge(
    kc: usize,
    mr: usize,
    nr: usize,
    a: &[f32],
    lda: usize,
    panel: &[f32],
    c: &mut [f32],
    ldc: usize,
) {
    for p in 0..kc {
        let brow = &panel[p * NR..p * NR + nr];
        for r in 0..mr {
            let av = a[r * lda + p];
            let crow = &mut c[r * ldc..r * ldc + nr];
            for (o, &bv) in crow.iter_mut().zip(brow) {
                *o += av * bv;
            }
        }
    }
}

/// Packs `B[pc..pc+kc, jc..jc+nc]` into `NR`-wide strips: strip `s` holds
/// columns `jc+s·NR..` as a contiguous `kc×NR` block (zero-padded on the
/// right edge; the edge micro-kernel never reads the padding).
fn pack_b(b: &[f32], n: usize, pc: usize, kc: usize, jc: usize, nc: usize, pack: &mut Vec<f32>) {
    let strips = nc.div_ceil(NR);
    pack.clear();
    pack.resize(strips * kc * NR, 0.0);
    for s in 0..strips {
        let j0 = jc + s * NR;
        let nr = NR.min(jc + nc - j0);
        let strip = &mut pack[s * kc * NR..(s + 1) * kc * NR];
        for p in 0..kc {
            let src = &b[(pc + p) * n + j0..(pc + p) * n + j0 + nr];
            strip[p * NR..p * NR + nr].copy_from_slice(src);
        }
    }
}

/// Packs the full `MR`-row groups of `A[ic..ic+mc, pc..pc+kc]` into
/// `MR`-interleaved strips: strip `g` holds rows `ic+g·MR..+MR` as
/// `apack[g·kc·MR + p·MR + r]`, so the micro-kernel reads `MR` contiguous
/// `A` values per `p` step. Remainder rows (`mc % MR`) are not packed —
/// they go through the edge micro-kernel on the raw matrix.
fn pack_a(a: &[f32], lda: usize, ic: usize, mc: usize, pc: usize, kc: usize, apack: &mut Vec<f32>) {
    let full = mc / MR;
    apack.clear();
    apack.resize(full * kc * MR, 0.0);
    for g in 0..full {
        let strip = &mut apack[g * kc * MR..(g + 1) * kc * MR];
        for r in 0..MR {
            let row = &a[(ic + g * MR + r) * lda + pc..(ic + g * MR + r) * lda + pc + kc];
            for (p, &v) in row.iter().enumerate() {
                strip[p * MR + r] = v;
            }
        }
    }
}

/// Single-threaded blocked core: `out[rows×n] += a[rows×k] · b[k×n]` for a
/// contiguous row band (`out` must be zero-initialised by the caller).
fn gemm_core(
    rows: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    stats: &GemmStats,
) {
    let mut tiles = 0u64;
    let mut pack_bytes = 0u64;
    PACK_BUF.with(|bbuf| {
        PACK_A_BUF.with(|abuf| {
            let bpack = &mut *bbuf.borrow_mut();
            let apack = &mut *abuf.borrow_mut();
            let mut jc = 0;
            while jc < n {
                let nc = NC.min(n - jc);
                let strips = nc.div_ceil(NR);
                let mut pc = 0;
                while pc < k {
                    let kc = KC.min(k - pc);
                    pack_b(b, n, pc, kc, jc, nc, bpack);
                    pack_bytes += (kc * nc * 4) as u64;
                    let mut ic = 0;
                    while ic < rows {
                        let mc = MC.min(rows - ic);
                        let full = mc / MR; // full MR-row groups in this band
                        pack_a(a, k, ic, mc, pc, kc, apack);
                        pack_bytes += (full * MR * kc * 4) as u64;
                        let mr_tail = mc - full * MR;
                        let mut s = 0;
                        while s < strips {
                            let j0 = jc + s * NR;
                            // pair two full-width strips so each A
                            // broadcast feeds 2·NR output columns
                            if s + 1 < strips && jc + nc - j0 >= 2 * NR {
                                let b0 = &bpack[s * kc * NR..(s + 1) * kc * NR];
                                let b1 = &bpack[(s + 1) * kc * NR..(s + 2) * kc * NR];
                                for g in 0..full {
                                    let apanel = &apack[g * kc * MR..(g + 1) * kc * MR];
                                    micro_full2(
                                        kc,
                                        apanel,
                                        b0,
                                        b1,
                                        &mut out[(ic + g * MR) * n + j0..],
                                        n,
                                    );
                                    tiles += 2;
                                }
                                if mr_tail > 0 {
                                    let i0 = ic + full * MR;
                                    micro_edge(
                                        kc,
                                        mr_tail,
                                        NR,
                                        &a[i0 * k + pc..],
                                        k,
                                        b0,
                                        &mut out[i0 * n + j0..],
                                        n,
                                    );
                                    micro_edge(
                                        kc,
                                        mr_tail,
                                        NR,
                                        &a[i0 * k + pc..],
                                        k,
                                        b1,
                                        &mut out[i0 * n + j0 + NR..],
                                        n,
                                    );
                                    tiles += 2;
                                }
                                s += 2;
                                continue;
                            }
                            let nr = NR.min(jc + nc - j0);
                            let bpanel = &bpack[s * kc * NR..(s + 1) * kc * NR];
                            for g in 0..full {
                                let apanel = &apack[g * kc * MR..(g + 1) * kc * MR];
                                let csub = &mut out[(ic + g * MR) * n + j0..];
                                if nr == NR {
                                    micro_full(kc, apanel, bpanel, csub, n);
                                } else {
                                    micro_edge(
                                        kc,
                                        MR,
                                        nr,
                                        &a[(ic + g * MR) * k + pc..],
                                        k,
                                        bpanel,
                                        csub,
                                        n,
                                    );
                                }
                                tiles += 1;
                            }
                            if mr_tail > 0 {
                                let i0 = ic + full * MR;
                                micro_edge(
                                    kc,
                                    mr_tail,
                                    nr,
                                    &a[i0 * k + pc..],
                                    k,
                                    bpanel,
                                    &mut out[i0 * n + j0..],
                                    n,
                                );
                                tiles += 1;
                            }
                            s += 1;
                        }
                        ic += mc;
                    }
                    pc += kc;
                }
                jc += nc;
            }
        });
    });
    stats.tiles.fetch_add(tiles, Ordering::Relaxed);
    stats.pack_bytes.fetch_add(pack_bytes, Ordering::Relaxed);
}

/// Splits `out` (and implicitly `a`) into row bands and runs `gemm_core`
/// on each band under the shared pool, stealing bands off an atomic
/// cursor. Bands write disjoint output rows, so any schedule produces the
/// same (bit-exact) result.
fn gemm_banded(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    let stats = GemmStats::default();
    let workers = gemm_workers(m, 2 * (m * k * n) as u64);
    if workers <= 1 {
        gemm_core(m, k, n, a, b, out, &stats);
        stats.report(1);
        return;
    }
    // Band height: a few bands per worker for load balance, MR-aligned.
    let band = m.div_ceil(workers * 2).next_multiple_of(MR);
    let bands: Vec<Mutex<(usize, &mut [f32])>> = out
        .chunks_mut(band * n)
        .enumerate()
        .map(|(bi, chunk)| Mutex::new((bi * band, chunk))) // concurrency-allow: per-band data partition, no blocking protocol
        .collect();
    pool::for_each(bands.len(), workers, |t| {
        let mut guard = bands[t]
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let (row0, chunk) = &mut *guard;
        let rows = chunk.len() / n;
        gemm_core(
            rows,
            k,
            n,
            &a[*row0 * k..(*row0 + rows) * k],
            b,
            chunk,
            &stats,
        );
    });
    stats.report(workers);
}

/// Blocked `C[m×n] = A[m×k] · B[k×n]`, bit-identical to
/// [`crate::matmul::matmul_reference`].
#[must_use]
pub(crate) fn matmul_blocked(m: usize, k: usize, n: usize, a: &[f32], b: &[f32]) -> Tensor {
    let mut out = vec![0.0f32; m * n];
    gemm_banded(m, k, n, a, b, &mut out);
    Tensor::from_vec(vec![m, n], out)
}

/// Blocked `C[k×n] = Aᵀ·B` for `A[m×k]`, `B[m×n]`, bit-identical to
/// [`crate::matmul::matmul_at_b_reference`].
///
/// `A` is transposed once (a layout-only repack, bit-safe) and the result
/// computed as `matmul(Aᵀ, B)` — term order and zero-skips then match the
/// reference exactly: element `C[p][j]` sums `A[i][p]·B[i][j]` over `i` in
/// increasing order, skipping terms where `A[i][p] == 0.0`.
#[must_use]
pub(crate) fn matmul_at_b_blocked(m: usize, k: usize, n: usize, a: &[f32], b: &[f32]) -> Tensor {
    let mut at = vec![0.0f32; k * m];
    for i in 0..m {
        for p in 0..k {
            at[p * m + i] = a[i * k + p];
        }
    }
    sia_telemetry::counter!("tensor.gemm.pack_bytes", (k * m * 4) as u64);
    let mut out = vec![0.0f32; k * n];
    gemm_banded(k, m, n, &at, b, &mut out);
    Tensor::from_vec(vec![k, n], out)
}

/// `A·Bᵀ` register-tiled core over a row band of `A`.
///
/// Both operands stream contiguously along `q`; the `MR×NR` tile keeps
/// each loaded value feeding multiple accumulators. Each output element is
/// a single dot product accumulated in one register from zero in `q`
/// order — exactly the reference — so no packing or `KC` split is needed.
fn gemm_a_bt_core(
    rows: usize,
    n: usize,
    kk: usize,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    stats: &GemmStats,
) {
    const NR_BT: usize = 4;
    let mut tiles = 0u64;
    let mut p0 = 0;
    while p0 < kk {
        let nr = NR_BT.min(kk - p0);
        let mut i0 = 0;
        while i0 < rows {
            let mr = MR.min(rows - i0);
            let mut acc = [[0.0f32; NR_BT]; MR];
            if mr == MR && nr == NR_BT {
                // full tile: 16 independent dot-product chains, branchless
                for q in 0..n {
                    let avs: [f32; MR] = std::array::from_fn(|r| a[(i0 + r) * n + q]);
                    let bvs: [f32; NR_BT] = std::array::from_fn(|c| b[(p0 + c) * n + q]);
                    for (row, &av) in acc.iter_mut().zip(&avs) {
                        for (o, &bv) in row.iter_mut().zip(&bvs) {
                            *o += av * bv;
                        }
                    }
                }
            } else {
                for q in 0..n {
                    for (r, row) in acc.iter_mut().enumerate().take(mr) {
                        let av = a[(i0 + r) * n + q];
                        for (c, o) in row.iter_mut().enumerate().take(nr) {
                            *o += av * b[(p0 + c) * n + q];
                        }
                    }
                }
            }
            for (r, row) in acc.iter().enumerate().take(mr) {
                out[(i0 + r) * kk + p0..(i0 + r) * kk + p0 + nr].copy_from_slice(&row[..nr]);
            }
            tiles += 1;
            i0 += MR;
        }
        p0 += NR_BT;
    }
    stats.tiles.fetch_add(tiles, Ordering::Relaxed);
}

/// Blocked `C[m×k] = A·Bᵀ` for `A[m×n]`, `B[k×n]`, bit-identical to
/// [`crate::matmul::matmul_a_bt_reference`].
#[must_use]
pub(crate) fn matmul_a_bt_blocked(m: usize, n: usize, kk: usize, a: &[f32], b: &[f32]) -> Tensor {
    let stats = GemmStats::default();
    let mut out = vec![0.0f32; m * kk];
    let workers = gemm_workers(m, 2 * (m * n * kk) as u64);
    if workers <= 1 {
        gemm_a_bt_core(m, n, kk, a, b, &mut out, &stats);
        stats.report(1);
        return Tensor::from_vec(vec![m, kk], out);
    }
    let band = m.div_ceil(workers * 2).next_multiple_of(MR);
    let bands: Vec<Mutex<(usize, &mut [f32])>> = out
        .chunks_mut(band * kk)
        .enumerate()
        .map(|(bi, chunk)| Mutex::new((bi * band, chunk))) // concurrency-allow: per-band data partition, no blocking protocol
        .collect();
    pool::for_each(bands.len(), workers, |t| {
        let mut guard = bands[t]
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let (row0, chunk) = &mut *guard;
        let rows = chunk.len() / kk;
        gemm_a_bt_core(
            rows,
            n,
            kk,
            &a[*row0 * n..(*row0 + rows) * n],
            b,
            chunk,
            &stats,
        );
    });
    drop(bands);
    stats.report(workers);
    Tensor::from_vec(vec![m, kk], out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matmul::{matmul_a_bt_reference, matmul_at_b_reference, matmul_reference};

    fn pseudo(shape: Vec<usize>, seed: u32) -> Tensor {
        let count: usize = shape.iter().product();
        let mut s = seed.wrapping_mul(2_654_435_761).max(1);
        let data = (0..count)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 17;
                s ^= s << 5;
                // sprinkle exact zeros to exercise the skip path
                if s.is_multiple_of(5) {
                    0.0
                } else {
                    #[allow(clippy::cast_precision_loss)]
                    let v = (s % 2001) as f32 / 1000.0 - 1.0;
                    v
                }
            })
            .collect();
        Tensor::from_vec(shape, data)
    }

    #[test]
    fn blocked_matmul_is_bit_identical_across_shapes() {
        for &(m, k, n) in &[(1, 1, 1), (3, 5, 7), (4, 8, 8), (17, 33, 19), (64, 40, 70)] {
            let a = pseudo(vec![m, k], (m * 31 + k) as u32);
            let b = pseudo(vec![k, n], (k * 17 + n) as u32);
            let fast = matmul_blocked(m, k, n, a.data(), b.data());
            assert_eq!(fast, matmul_reference(&a, &b), "{m}x{k}x{n}");
        }
    }

    #[test]
    fn blocked_at_b_is_bit_identical() {
        for &(m, k, n) in &[(1, 1, 1), (5, 3, 9), (12, 20, 33), (64, 18, 50)] {
            let a = pseudo(vec![m, k], (m + k * 7) as u32);
            let b = pseudo(vec![m, n], (m + n * 11) as u32);
            let fast = matmul_at_b_blocked(m, k, n, a.data(), b.data());
            assert_eq!(fast, matmul_at_b_reference(&a, &b), "{m}x{k}x{n}");
        }
    }

    #[test]
    fn blocked_a_bt_is_bit_identical() {
        for &(m, n, kk) in &[(1, 1, 1), (6, 10, 3), (13, 29, 21), (64, 36, 48)] {
            let a = pseudo(vec![m, n], (m * 3 + n) as u32);
            let b = pseudo(vec![kk, n], (kk * 5 + n) as u32);
            let fast = matmul_a_bt_blocked(m, n, kk, a.data(), b.data());
            assert_eq!(fast, matmul_a_bt_reference(&a, &b), "{m}x{n}x{kk}");
        }
    }

    #[test]
    fn blocked_is_bit_identical_multithreaded() {
        // Large enough to clear PARALLEL_FLOP_THRESHOLD and use the pool.
        let (m, k, n) = (96, 64, 130);
        let a = pseudo(vec![m, k], 1);
        let b = pseudo(vec![k, n], 2);
        let want = matmul_reference(&a, &b);
        pool::set_threads(4);
        let got = matmul_blocked(m, k, n, a.data(), b.data());
        pool::set_threads(1);
        assert_eq!(got, want);
    }

    #[test]
    fn zeros_and_negative_zeros_are_bit_identical() {
        // The blocked kernel does not replicate the reference's zero-skip
        // branch; for finite operands (including ±0.0 on either side) the
        // added ±0.0 products are bitwise no-ops, so results still match.
        let a = Tensor::from_vec(vec![2, 4], vec![0.0, -0.0, 2.0, 0.0, -0.0, 1.5, 0.0, -3.0]);
        let b = Tensor::from_vec(vec![4, 2], vec![5.0, -0.0, 0.0, 7.0, 1.0, -0.0, -0.0, 0.25]);
        let fast = matmul_blocked(2, 4, 2, a.data(), b.data());
        let want = matmul_reference(&a, &b);
        for (f, w) in fast.data().iter().zip(want.data()) {
            assert_eq!(f.to_bits(), w.to_bits());
        }
        // The divergence boundary: 0·∞ is NaN in the blocked kernel but
        // skipped by the reference. The bit-exactness contract is scoped
        // to finite inputs (all network data).
        let a = Tensor::from_vec(vec![1, 2], vec![0.0, 1.0]);
        let b = Tensor::from_vec(vec![2, 1], vec![f32::INFINITY, 5.0]);
        assert!(matmul_blocked(1, 2, 1, a.data(), b.data()).data()[0].is_nan());
        assert_eq!(matmul_reference(&a, &b).data()[0], 5.0);
    }

    #[test]
    fn kernel_override_round_trips() {
        assert_eq!(kernel(), Kernel::Blocked);
        set_kernel(Kernel::Reference);
        assert_eq!(kernel(), Kernel::Reference);
        set_kernel(Kernel::Blocked);
        assert_eq!(kernel(), Kernel::Blocked);
    }
}
