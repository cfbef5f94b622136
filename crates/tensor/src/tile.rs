//! Shared register-tile helpers for the safe-Rust micro-kernels.
//!
//! Both the f32 training GEMM ([`crate::gemm`]) and the INT8 spiking
//! inference kernels (`sia-snn`'s `sparse` module) get their SIMD from the
//! same trick: expose fixed-size array views over slice blocks so the
//! autovectorizer sees a compile-time lane count and lifts the inner loop
//! into vector instructions — no `unsafe`, no intrinsics. These helpers
//! centralise that idiom so every kernel states its tile shape as a
//! `const` and borrows the views the same way.

/// A `&[T; N]` view of the first `N` elements of `s`.
///
/// # Panics
///
/// Panics if `s` has fewer than `N` elements.
#[inline]
#[must_use]
pub fn block<const N: usize, T>(s: &[T]) -> &[T; N] {
    s.get(..N)
        .and_then(|p| p.try_into().ok())
        .expect("slice shorter than block")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_views_see_the_prefix() {
        let v = [1i16, 2, 3, 4, 5];
        assert_eq!(block::<4, _>(&v), &[1, 2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "slice shorter than block")]
    fn short_block_panics() {
        let v = [0u8; 3];
        let _ = block::<4, _>(&v);
    }
}
