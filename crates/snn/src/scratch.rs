//! Reusable scratch buffers with growth accounting.
//!
//! The per-timestep hot loop must not allocate: every buffer it writes is
//! resized through [`scratch_resize`] (or
//! [`SpikePlane::reset`](crate::spikeplane::SpikePlane::reset)), which reuses the existing
//! capacity and bumps a **thread-local growth counter** only when the
//! underlying allocation actually had to grow. After a warm-up run every
//! buffer has reached its high-water mark, so a steady-state inference run
//! leaves the counter untouched — which is exactly what the zero-allocation
//! tests assert.
//!
//! The counter is thread-local (engines are single-threaded; the batch
//! evaluator gives each worker its own engine), so parallel tests and
//! workers never observe each other's growth.

use std::cell::Cell;

thread_local! {
    static GROWTH: Cell<u64> = const { Cell::new(0) };
}

/// Number of scratch-buffer capacity growths observed on this thread since
/// it started. Steady-state inference must leave this unchanged between
/// runs.
#[must_use]
pub fn scratch_growth() -> u64 {
    GROWTH.with(Cell::get)
}

/// Records `n` capacity growths (used by the scratch containers).
pub(crate) fn note_growth() {
    GROWTH.with(|g| g.set(g.get() + 1));
}

/// Resizes `v` to exactly `n` elements of `fill`, reusing capacity. Counts
/// a growth event if (and only if) the allocation had to grow.
pub fn scratch_resize<T: Copy>(v: &mut Vec<T>, n: usize, fill: T) {
    let cap = v.capacity();
    v.clear();
    v.resize(n, fill);
    if v.capacity() > cap {
        note_growth();
    }
}

/// Grows `v` to at least `n` elements built by `Default`, keeping existing
/// elements (used for arenas of reusable sub-buffers, e.g. spike planes).
pub fn scratch_reserve_default<T: Default>(v: &mut Vec<T>, n: usize) {
    let cap = v.capacity();
    if v.len() < n {
        v.resize_with(n, T::default);
    }
    if v.capacity() > cap {
        note_growth();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resize_counts_only_real_growth() {
        let mut v: Vec<i16> = Vec::new();
        let base = scratch_growth();
        scratch_resize(&mut v, 100, 0);
        assert_eq!(scratch_growth(), base + 1);
        // shrink and regrow within capacity: no new growth
        scratch_resize(&mut v, 10, 1);
        scratch_resize(&mut v, 100, 2);
        assert_eq!(scratch_growth(), base + 1);
        assert!(v.iter().all(|&x| x == 2));
        // exceeding capacity counts again
        scratch_resize(&mut v, 10_000, 3);
        assert_eq!(scratch_growth(), base + 2);
    }

    #[test]
    fn reserve_default_keeps_existing_elements() {
        let mut v: Vec<Vec<u8>> = vec![vec![7]];
        scratch_reserve_default(&mut v, 3);
        assert_eq!(v.len(), 3);
        assert_eq!(v[0], vec![7]);
    }
}
