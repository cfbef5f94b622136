//! 2-D convolution layer (bias-free; shifts live in batch norm, as in the
//! accelerator's aggregation core).

use crate::layer::Layer;
use crate::param::Param;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sia_tensor::{
    conv2d_backward_input, conv2d_backward_weights, conv2d_forward, Conv2dGeom, Tensor,
};

/// A bias-free 2-D convolution with Kaiming-uniform initialisation.
///
/// # Examples
///
/// ```
/// use sia_nn::{Conv2d, Layer};
/// use sia_tensor::{Conv2dGeom, Tensor};
/// let geom = Conv2dGeom { in_channels: 3, out_channels: 8, in_h: 8, in_w: 8,
///                         kernel: 3, stride: 1, padding: 1 };
/// let mut conv = Conv2d::new(geom, 42);
/// let y = conv.forward(&Tensor::zeros(vec![1, 3, 8, 8]), false);
/// assert_eq!(y.shape().dims(), &[1, 8, 8, 8]);
/// ```
#[derive(Clone, Debug)]
pub struct Conv2d {
    geom: Conv2dGeom,
    weight: Param,
    cached_input: Option<Tensor>,
}

impl Conv2d {
    /// Creates the layer with Kaiming-uniform weights
    /// (`bound = sqrt(6 / fan_in)`), seeded for reproducibility.
    #[must_use]
    pub fn new(geom: Conv2dGeom, seed: u64) -> Self {
        let fan_in = (geom.in_channels * geom.kernel * geom.kernel) as f32;
        let bound = (6.0 / fan_in).sqrt();
        let mut rng = StdRng::seed_from_u64(seed);
        let weight = Param::new(Tensor::rand_uniform(
            vec![
                geom.out_channels,
                geom.in_channels,
                geom.kernel,
                geom.kernel,
            ],
            bound,
            &mut rng,
        ));
        Conv2d {
            geom,
            weight,
            cached_input: None,
        }
    }

    /// The layer geometry.
    #[must_use]
    pub fn geom(&self) -> &Conv2dGeom {
        &self.geom
    }

    /// Read access to the weights (for quantisation and spec export).
    #[must_use]
    pub fn weights(&self) -> &Tensor {
        &self.weight.value
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        if train {
            self.cached_input = Some(x.clone());
        }
        conv2d_forward(x, &self.weight.value, &self.geom)
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let x = self
            .cached_input
            .as_ref()
            .expect("Conv2d::backward without training forward");
        let gw = conv2d_backward_weights(x, grad, &self.geom);
        self.weight.grad.add_assign(&gw);
        conv2d_backward_input(grad, &self.weight.value, &self.geom)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom() -> Conv2dGeom {
        Conv2dGeom {
            in_channels: 2,
            out_channels: 3,
            in_h: 4,
            in_w: 4,
            kernel: 3,
            stride: 1,
            padding: 1,
        }
    }

    #[test]
    fn init_is_seeded_and_bounded() {
        let a = Conv2d::new(geom(), 1);
        let b = Conv2d::new(geom(), 1);
        let c = Conv2d::new(geom(), 2);
        assert_eq!(a.weights().data(), b.weights().data());
        assert_ne!(a.weights().data(), c.weights().data());
        let bound = (6.0f32 / 18.0).sqrt();
        assert!(a.weights().max_abs() <= bound);
    }

    #[test]
    fn forward_shape() {
        let mut conv = Conv2d::new(geom(), 3);
        let y = conv.forward(&Tensor::zeros(vec![2, 2, 4, 4]), false);
        assert_eq!(y.shape().dims(), &[2, 3, 4, 4]);
    }

    #[test]
    fn backward_accumulates_weight_grad() {
        let mut conv = Conv2d::new(geom(), 3);
        let x = Tensor::full(vec![1, 2, 4, 4], 1.0);
        let _ = conv.forward(&x, true);
        let gy = Tensor::full(vec![1, 3, 4, 4], 1.0);
        let _ = conv.backward(&gy);
        let g1 = conv.weight.grad.clone();
        assert!(g1.norm() > 0.0);
        // second backward accumulates
        let _ = conv.forward(&x, true);
        let _ = conv.backward(&gy);
        assert!((conv.weight.grad.norm() - 2.0 * g1.norm()).abs() < 1e-3);
    }

    #[test]
    #[should_panic(expected = "without training forward")]
    fn backward_requires_training_forward() {
        let mut conv = Conv2d::new(geom(), 3);
        let _ = conv.forward(&Tensor::zeros(vec![1, 2, 4, 4]), false);
        let _ = conv.backward(&Tensor::zeros(vec![1, 3, 4, 4]));
    }

    #[test]
    fn param_count_matches_weight_tensor() {
        let mut conv = Conv2d::new(geom(), 3);
        assert_eq!(conv.param_count(), 3 * 2 * 9);
    }
}
