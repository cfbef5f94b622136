//! Dense `f32` tensor substrate for the software half of the co-design flow.
//!
//! The paper's methodology (Fig. 1) starts from a *full-precision ANN trained
//! via traditional back-propagation*. No deep-learning framework is assumed
//! here; this crate implements the numerical substrate that the `sia-nn`
//! training framework builds on:
//!
//! * [`Tensor`] — an owned, contiguous, row-major (NCHW for 4-D) `f32`
//!   tensor with shape tracking and elementwise/reduction ops,
//! * [`matmul()`] — the GEMM kernel used by convolution-as-im2col and
//!   fully-connected layers,
//! * [`im2col`]/[`conv`] — convolution lowering plus the three convolution
//!   kernels needed for training (forward, ∂input, ∂weights),
//! * [`pooling`] — max/average pooling with backward companions,
//! * [`gemm`] — the cache-blocked, register-tiled GEMM backend every
//!   [`matmul()`] flow runs (the naive `*_reference` loops are kept as
//!   its bit-exactness oracle),
//! * [`pool`] — the shared scoped thread pool every data-parallel region
//!   in the workspace runs on.
//!
//! # Examples
//!
//! ```
//! use sia_tensor::Tensor;
//!
//! let a = Tensor::from_vec(vec![2, 2], vec![1.0, 2.0, 3.0, 4.0]);
//! let b = a.map(|x| x * 2.0);
//! assert_eq!(b.data(), &[2.0, 4.0, 6.0, 8.0]);
//! assert_eq!(b.sum(), 20.0);
//! ```

#![forbid(unsafe_code)]

pub mod conv;
pub mod gemm;
pub mod im2col;
pub mod matmul;
pub mod pool;
pub mod pooling;
pub mod shape;
pub mod tensor;
pub mod tile;

pub use conv::{conv2d_backward_input, conv2d_backward_weights, conv2d_forward, Conv2dGeom};
pub use matmul::{
    matmul, matmul_a_bt, matmul_a_bt_reference, matmul_at_b, matmul_at_b_reference,
    matmul_reference,
};
pub use shape::Shape;
pub use tensor::Tensor;

#[cfg(test)]
mod proptests;
