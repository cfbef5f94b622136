//! Fully-connected layer (the classification head of both networks).

use crate::layer::Layer;
use crate::param::Param;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sia_tensor::{matmul_a_bt, matmul_at_b, Tensor};

/// A fully-connected layer `y = x·Wᵀ + b` over `[N, in]` batches.
///
/// # Examples
///
/// ```
/// use sia_nn::{Layer, Linear};
/// use sia_tensor::Tensor;
/// let mut fc = Linear::new(8, 10, 1);
/// let y = fc.forward(&Tensor::zeros(vec![4, 8]), false);
/// assert_eq!(y.shape().dims(), &[4, 10]);
/// ```
#[derive(Clone, Debug)]
pub struct Linear {
    in_features: usize,
    out_features: usize,
    weight: Param, // [out, in]
    bias: Param,   // [out]
    cached_input: Option<Tensor>,
}

impl Linear {
    /// Creates the layer with Kaiming-uniform weights and zero bias.
    #[must_use]
    pub fn new(in_features: usize, out_features: usize, seed: u64) -> Self {
        let bound = (6.0 / in_features as f32).sqrt();
        let mut rng = StdRng::seed_from_u64(seed);
        Linear {
            in_features,
            out_features,
            weight: Param::new(Tensor::rand_uniform(
                vec![out_features, in_features],
                bound,
                &mut rng,
            )),
            bias: Param::new_no_decay(Tensor::zeros(vec![out_features])),
            cached_input: None,
        }
    }

    /// Input feature count.
    #[must_use]
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output feature count.
    #[must_use]
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// Read access to the `[out, in]` weight matrix.
    #[must_use]
    pub fn weights(&self) -> &Tensor {
        &self.weight.value
    }

    /// Read access to the bias vector.
    #[must_use]
    pub fn bias(&self) -> &Tensor {
        &self.bias.value
    }
}

impl Layer for Linear {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        assert_eq!(x.shape().rank(), 2, "Linear expects [N, in]");
        assert_eq!(x.shape().dim(1), self.in_features, "feature mismatch");
        if train {
            self.cached_input = Some(x.clone());
        }
        // y[N, out] = x[N, in] · Wᵀ[in, out]
        let mut y = matmul_a_bt(x, &self.weight.value);
        let n = y.shape().dim(0);
        for b in 0..n {
            for o in 0..self.out_features {
                let i = b * self.out_features + o;
                y.data_mut()[i] += self.bias.value.data()[o];
            }
        }
        y
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let x = self
            .cached_input
            .as_ref()
            .expect("Linear::backward without training forward");
        // ∂W[out, in] = gradᵀ[out, N] · x[N, in]
        let gw = matmul_at_b(grad, x);
        self.weight.grad.add_assign(&gw);
        let n = grad.shape().dim(0);
        for b in 0..n {
            for o in 0..self.out_features {
                self.bias.grad.data_mut()[o] += grad.data()[b * self.out_features + o];
            }
        }
        // ∂x[N, in] = grad[N, out] · W[out, in]
        sia_tensor::matmul(grad, &self.weight.value)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_applies_weights_and_bias() {
        let mut fc = Linear::new(2, 2, 1);
        fc.weight.value = Tensor::from_vec(vec![2, 2], vec![1.0, 0.0, 0.0, 1.0]);
        fc.bias.value = Tensor::from_vec(vec![2], vec![10.0, 20.0]);
        let y = fc.forward(&Tensor::from_vec(vec![1, 2], vec![3.0, 4.0]), false);
        assert_eq!(y.data(), &[13.0, 24.0]);
    }

    #[test]
    fn backward_gradcheck() {
        let mut fc = Linear::new(3, 2, 7);
        let mut x = Tensor::from_vec(vec![2, 3], vec![0.5, -1.0, 2.0, 1.0, 0.0, -0.5]);
        let gy = Tensor::from_vec(vec![2, 2], vec![1.0, -1.0, 0.5, 2.0]);
        let _ = fc.forward(&x, true);
        let gx = fc.backward(&gy);
        let eps = 1e-3;
        let loss = |fc: &mut Linear, x: &Tensor| -> f32 {
            fc.forward(x, false)
                .data()
                .iter()
                .zip(gy.data())
                .map(|(a, b)| a * b)
                .sum()
        };
        // input gradient
        for i in 0..6 {
            let orig = x.data()[i];
            x.data_mut()[i] = orig + eps;
            let hi = loss(&mut fc, &x);
            x.data_mut()[i] = orig - eps;
            let lo = loss(&mut fc, &x);
            x.data_mut()[i] = orig;
            let numeric = (hi - lo) / (2.0 * eps);
            assert!((gx.data()[i] - numeric).abs() < 1e-2);
        }
        // weight gradient (spot check)
        for i in [0usize, 3, 5] {
            let orig = fc.weight.value.data()[i];
            fc.weight.value.data_mut()[i] = orig + eps;
            let hi = loss(&mut fc, &x);
            fc.weight.value.data_mut()[i] = orig - eps;
            let lo = loss(&mut fc, &x);
            fc.weight.value.data_mut()[i] = orig;
            let numeric = (hi - lo) / (2.0 * eps);
            assert!((fc.weight.grad.data()[i] - numeric).abs() < 1e-2);
        }
    }

    #[test]
    fn bias_gradient_sums_over_batch() {
        let mut fc = Linear::new(1, 2, 3);
        let x = Tensor::zeros(vec![3, 1]);
        let _ = fc.forward(&x, true);
        let gy = Tensor::full(vec![3, 2], 1.0);
        let _ = fc.backward(&gy);
        assert_eq!(fc.bias.grad.data(), &[3.0, 3.0]);
    }

    #[test]
    fn param_count() {
        let mut fc = Linear::new(512, 10, 0);
        assert_eq!(fc.param_count(), 512 * 10 + 10);
    }

    #[test]
    #[should_panic(expected = "feature mismatch")]
    fn input_width_checked() {
        let mut fc = Linear::new(4, 2, 0);
        let _ = fc.forward(&Tensor::zeros(vec![1, 3]), false);
    }
}
