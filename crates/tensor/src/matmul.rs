//! The GEMM kernels behind convolution (im2col) and fully-connected layers.
//!
//! Three variants are provided because training needs all three data flows
//! without materialising transposes:
//!
//! * [`matmul`]      — `C = A·B`
//! * [`matmul_at_b`] — `C = Aᵀ·B` (weight gradients)
//! * [`matmul_a_bt`] — `C = A·Bᵀ` (input gradients)
//!
//! Each entry point runs the cache-blocked, register-tiled backend in
//! [`crate::gemm`]. The naive `i-k-j` reference loops kept here
//! (`*_reference`) are the bit-exactness oracle the proptests and `sia
//! bench gemm` compare it against; both produce bit-identical results.
//!
//! ## FLOP accounting
//!
//! Each call adds `2·m·k·n` to `tensor.matmul.flops_nominal`: the blocked
//! kernels execute every product, zeros included.

use crate::gemm;
use crate::tensor::Tensor;

/// Emits the FLOPs of one `m×k·k×n` GEMM.
fn count_flops(m: usize, k: usize, n: usize) {
    sia_telemetry::counter!("tensor.matmul.flops_nominal", 2 * (m * k * n) as u64);
}

/// `C[m×n] = A[m×k] · B[k×n]`.
///
/// # Panics
///
/// Panics if either input is not rank-2 or the inner dimensions disagree.
///
/// # Examples
///
/// ```
/// use sia_tensor::{matmul, Tensor};
/// let a = Tensor::from_vec(vec![2, 2], vec![1.0, 2.0, 3.0, 4.0]);
/// let i = Tensor::from_vec(vec![2, 2], vec![1.0, 0.0, 0.0, 1.0]);
/// assert_eq!(matmul(&a, &i), a);
/// ```
#[must_use]
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = dims2(a, "A");
    let (k2, n) = dims2(b, "B");
    assert_eq!(k, k2, "matmul inner dims: A is {m}x{k}, B is {k2}x{n}");
    let _span = sia_telemetry::span!("tensor.matmul");
    sia_telemetry::counter!("tensor.matmul.calls", 1);
    count_flops(m, k, n);
    gemm::matmul_blocked(m, k, n, a.data(), b.data())
}

/// The naive `i-k-j` reference `C = A·B` — the bit-exactness oracle for
/// the blocked kernel.
///
/// # Panics
///
/// Panics if either input is not rank-2 or the inner dimensions disagree.
#[must_use]
pub fn matmul_reference(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = dims2(a, "A");
    let (k2, n) = dims2(b, "B");
    assert_eq!(k, k2, "matmul inner dims: A is {m}x{k}, B is {k2}x{n}");
    let mut out = vec![0.0f32; m * n];
    let ad = a.data();
    let bd = b.data();
    for i in 0..m {
        let arow = &ad[i * k..(i + 1) * k];
        let orow = &mut out[i * n..(i + 1) * n];
        for (p, &av) in arow.iter().enumerate() {
            if av == 0.0 {
                continue; // spiking workloads are sparse; skip zero rows cheaply
            }
            let brow = &bd[p * n..(p + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += av * bv;
            }
        }
    }
    Tensor::from_vec(vec![m, n], out)
}

/// `C[k×n] = Aᵀ·B` for `A[m×k]`, `B[m×n]` — the weight-gradient flow
/// (`∂L/∂W = Xᵀ·∂L/∂Y`).
///
/// # Panics
///
/// Panics if either input is not rank-2 or the `m` dimensions disagree.
#[must_use]
pub fn matmul_at_b(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = dims2(a, "A");
    let (m2, n) = dims2(b, "B");
    assert_eq!(m, m2, "matmul_at_b outer dims: A is {m}x{k}, B is {m2}x{n}");
    let _span = sia_telemetry::span!("tensor.matmul_at_b");
    sia_telemetry::counter!("tensor.matmul.calls", 1);
    count_flops(m, k, n);
    gemm::matmul_at_b_blocked(m, k, n, a.data(), b.data())
}

/// The naive reference `C = Aᵀ·B` — bit-exactness oracle.
///
/// # Panics
///
/// Panics if either input is not rank-2 or the `m` dimensions disagree.
#[must_use]
pub fn matmul_at_b_reference(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = dims2(a, "A");
    let (m2, n) = dims2(b, "B");
    assert_eq!(m, m2, "matmul_at_b outer dims: A is {m}x{k}, B is {m2}x{n}");
    let mut out = vec![0.0f32; k * n];
    let ad = a.data();
    let bd = b.data();
    for i in 0..m {
        let arow = &ad[i * k..(i + 1) * k];
        let brow = &bd[i * n..(i + 1) * n];
        for (p, &av) in arow.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let orow = &mut out[p * n..(p + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += av * bv;
            }
        }
    }
    Tensor::from_vec(vec![k, n], out)
}

/// `C[m×k] = A·Bᵀ` for `A[m×n]`, `B[k×n]` — the input-gradient flow
/// (`∂L/∂X = ∂L/∂Y·Wᵀ`).
///
/// # Panics
///
/// Panics if either input is not rank-2 or the `n` dimensions disagree.
#[must_use]
pub fn matmul_a_bt(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, n) = dims2(a, "A");
    let (k, n2) = dims2(b, "B");
    assert_eq!(n, n2, "matmul_a_bt inner dims: A is {m}x{n}, B is {k}x{n2}");
    let _span = sia_telemetry::span!("tensor.matmul_a_bt");
    sia_telemetry::counter!("tensor.matmul.calls", 1);
    count_flops(m, n, k);
    gemm::matmul_a_bt_blocked(m, n, k, a.data(), b.data())
}

/// The naive reference `C = A·Bᵀ` — bit-exactness oracle.
///
/// # Panics
///
/// Panics if either input is not rank-2 or the `n` dimensions disagree.
#[must_use]
pub fn matmul_a_bt_reference(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, n) = dims2(a, "A");
    let (k, n2) = dims2(b, "B");
    assert_eq!(n, n2, "matmul_a_bt inner dims: A is {m}x{n}, B is {k}x{n2}");
    let mut out = vec![0.0f32; m * k];
    let ad = a.data();
    let bd = b.data();
    for i in 0..m {
        let arow = &ad[i * n..(i + 1) * n];
        let orow = &mut out[i * k..(i + 1) * k];
        for (p, o) in orow.iter_mut().enumerate() {
            let brow = &bd[p * n..(p + 1) * n];
            let mut acc = 0.0f32;
            for (&av, &bv) in arow.iter().zip(brow) {
                acc += av * bv;
            }
            *o = acc;
        }
    }
    Tensor::from_vec(vec![m, k], out)
}

fn dims2(t: &Tensor, name: &str) -> (usize, usize) {
    assert_eq!(
        t.shape().rank(),
        2,
        "{name} must be rank-2, got {}",
        t.shape()
    );
    (t.shape().dim(0), t.shape().dim(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(r: usize, c: usize, v: &[f32]) -> Tensor {
        Tensor::from_vec(vec![r, c], v.to_vec())
    }

    #[test]
    fn matmul_2x2() {
        let a = t(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let b = t(2, 2, &[5.0, 6.0, 7.0, 8.0]);
        assert_eq!(matmul(&a, &b).data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_rectangular() {
        let a = t(1, 3, &[1.0, 2.0, 3.0]);
        let b = t(3, 2, &[1.0, 0.0, 0.0, 1.0, 1.0, 1.0]);
        assert_eq!(matmul(&a, &b).data(), &[4.0, 5.0]);
    }

    #[test]
    #[should_panic(expected = "inner dims")]
    fn matmul_dim_checked() {
        let _ = matmul(&t(2, 3, &[0.0; 6]), &t(2, 2, &[0.0; 4]));
    }

    #[test]
    fn at_b_equals_manual_transpose() {
        let a = t(3, 2, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = t(3, 2, &[1.0, 0.0, 0.0, 1.0, 1.0, 1.0]);
        // Aᵀ is [[1,3,5],[2,4,6]]
        let at = t(2, 3, &[1.0, 3.0, 5.0, 2.0, 4.0, 6.0]);
        assert_eq!(matmul_at_b(&a, &b), matmul(&at, &b));
    }

    #[test]
    fn a_bt_equals_manual_transpose() {
        let a = t(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = t(2, 3, &[1.0, 0.0, 1.0, 0.0, 1.0, 0.0]);
        let bt = t(3, 2, &[1.0, 0.0, 0.0, 1.0, 1.0, 0.0]);
        assert_eq!(matmul_a_bt(&a, &b), matmul(&a, &bt));
    }

    #[test]
    fn zero_skip_does_not_change_result() {
        let a = t(2, 3, &[0.0, 2.0, 0.0, 4.0, 0.0, 6.0]);
        let b = t(3, 2, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(matmul(&a, &b).data(), &[6.0, 8.0, 34.0, 44.0]);
    }

    #[test]
    fn identity_is_neutral_for_all_variants() {
        let a = t(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let i = t(2, 2, &[1.0, 0.0, 0.0, 1.0]);
        assert_eq!(matmul(&a, &i), a);
        assert_eq!(matmul_a_bt(&a, &i), a);
        // Iᵀ·A = A as well
        assert_eq!(matmul_at_b(&i, &a), a);
    }
}
