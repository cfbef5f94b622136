//! Swappable activation: plain ReLU or the L-level quantized clip.
//!
//! Step 2 of the paper's pipeline replaces each ReLU with a *quantized ReLU
//! of L levels* whose step size `s^l` is trained (the QCFS formulation of
//! Bu et al., ref. \[12\] in the paper):
//!
//! ```text
//! y = (s/L) · clip( floor(x·L/s + 1/2), 0, L )
//! ```
//!
//! Training uses the straight-through estimator for the floor and the
//! LSQ-style gradient for the step size. Step 3 then swaps this activation
//! for an integrate-and-fire neuron with threshold `s^l` (see `sia-snn`).

use crate::layer::Layer;
use crate::param::Param;
use sia_tensor::Tensor;

/// Which activation function the layer computes.
#[derive(Clone, Debug, PartialEq)]
pub enum ActKind {
    /// Plain rectifier, `max(0, x)` — the FP32 baseline network.
    Relu,
    /// L-level quantized clip with learnable step (threshold-to-be).
    QuantClip {
        /// Number of quantization levels `L` (the paper uses `L = 8`,
        /// matching the 8-timestep inference target).
        levels: usize,
    },
}

/// A swappable activation layer.
///
/// # Examples
///
/// ```
/// use sia_nn::{Activation, Layer};
/// use sia_tensor::Tensor;
/// let mut act = Activation::quant_clip(4, 1.0);
/// let x = Tensor::from_vec(vec![5], vec![-1.0, 0.1, 0.5, 0.9, 2.0]);
/// let y = act.forward(&x, false);
/// // step 1.0, 4 levels: quantized to {0, 0, 0.5, 1.0, 1.0}
/// assert_eq!(y.data(), &[0.0, 0.0, 0.5, 1.0, 1.0]);
/// ```
#[derive(Clone, Debug)]
pub struct Activation {
    kind: ActKind,
    /// Learnable step size `s` (meaningful only for `QuantClip`).
    step: Param,
    cached_input: Option<Tensor>,
    observing: bool,
    observed_max: f32,
}

impl Activation {
    /// Plain ReLU.
    #[must_use]
    pub fn relu() -> Self {
        Activation {
            kind: ActKind::Relu,
            step: Param::new_no_decay(Tensor::full(vec![1], 1.0)),
            cached_input: None,
            observing: false,
            observed_max: 0.0,
        }
    }

    /// L-level quantized clip with initial step `s0`.
    ///
    /// # Panics
    ///
    /// Panics if `levels == 0` or `s0 <= 0`.
    #[must_use]
    pub fn quant_clip(levels: usize, s0: f32) -> Self {
        assert!(levels > 0, "need at least one quantization level");
        assert!(s0 > 0.0, "step must be positive");
        Activation {
            kind: ActKind::QuantClip { levels },
            step: Param::new_no_decay(Tensor::full(vec![1], s0)),
            cached_input: None,
            observing: false,
            observed_max: 0.0,
        }
    }

    /// The activation kind.
    #[must_use]
    pub fn kind(&self) -> &ActKind {
        &self.kind
    }

    /// Current step size `s` (1.0 for plain ReLU).
    #[must_use]
    pub fn step(&self) -> f32 {
        self.step.value.data()[0]
    }

    /// Overwrites the step size (used by calibration).
    ///
    /// # Panics
    ///
    /// Panics if `s <= 0`.
    pub fn set_step(&mut self, s: f32) {
        assert!(s > 0.0, "step must be positive");
        self.step.value.data_mut()[0] = s;
    }

    /// Converts a ReLU into an L-level quantized clip in place, keeping the
    /// current step (callers typically calibrate afterwards).
    pub fn make_quantized(&mut self, levels: usize) {
        assert!(levels > 0, "need at least one quantization level");
        self.kind = ActKind::QuantClip { levels };
    }

    /// Starts recording the maximum pre-activation value seen by `forward`
    /// (step-size calibration; see `sia-quant`).
    pub fn begin_observation(&mut self) {
        self.observing = true;
        self.observed_max = 0.0;
    }

    /// Stops recording and returns the observed maximum (0 if nothing ran).
    pub fn end_observation(&mut self) -> f32 {
        self.observing = false;
        self.observed_max
    }
}

impl Layer for Activation {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        if self.observing {
            self.observed_max = self.observed_max.max(x.max());
            // Calibration must see FP32 statistics: with the not-yet
            // calibrated step in force, shallow layers would clip wrongly and
            // distort the maxima observed by every deeper layer. Act as a
            // plain ReLU until observation ends.
            return x.map(|v| v.max(0.0));
        }
        if train {
            self.cached_input = Some(x.clone());
        }
        match self.kind {
            ActKind::Relu => x.map(|v| v.max(0.0)),
            ActKind::QuantClip { levels } => {
                let s = self.step();
                let l = levels as f32;
                x.map(|v| {
                    let q = (v * l / s + 0.5).floor().clamp(0.0, l);
                    q * s / l
                })
            }
        }
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let x = self
            .cached_input
            .as_ref()
            .expect("Activation::backward without training forward");
        match self.kind {
            ActKind::Relu => grad.zip_map(x, |g, v| if v > 0.0 { g } else { 0.0 }),
            ActKind::QuantClip { levels } => {
                let s = self.step();
                let l = levels as f32;
                // LSQ gradient scale stabilises the step update.
                let gscale = 1.0 / ((x.numel() as f32) * l).sqrt();
                let mut ds = 0.0f32;
                let mut gx = vec![0.0f32; grad.numel()];
                for ((out, &g), &v) in gx.iter_mut().zip(grad.data()).zip(x.data()) {
                    if v <= 0.0 {
                        // below the range: no gradient flows
                    } else if v >= s {
                        ds += g; // ∂y/∂s = 1 at the clip rail
                    } else {
                        let q = (v * l / s + 0.5).floor().clamp(0.0, l);
                        let y = q * s / l;
                        ds += g * (y - v) / s; // rounding residual term
                        *out = g;
                    }
                }
                self.step.grad.data_mut()[0] += ds * gscale;
                Tensor::from_vec(grad.shape().dims().to_vec(), gx)
            }
        }
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        if matches!(self.kind, ActKind::QuantClip { .. }) {
            f(&mut self.step);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_forward_backward() {
        let mut act = Activation::relu();
        let x = Tensor::from_vec(vec![4], vec![-2.0, -0.1, 0.1, 2.0]);
        let y = act.forward(&x, true);
        assert_eq!(y.data(), &[0.0, 0.0, 0.1, 2.0]);
        let gx = act.backward(&Tensor::full(vec![4], 1.0));
        assert_eq!(gx.data(), &[0.0, 0.0, 1.0, 1.0]);
    }

    #[test]
    fn quant_clip_levels_and_rails() {
        let mut act = Activation::quant_clip(8, 2.0);
        // values inside [0, 2]: quantized to multiples of 0.25
        let x = Tensor::from_vec(vec![5], vec![-1.0, 0.1, 0.13, 1.0, 5.0]);
        let y = act.forward(&x, false);
        assert_eq!(y.data()[0], 0.0);
        assert_eq!(y.data()[1], 0.0); // 0.1*4 + 0.5 = 0.9 → floor 0
        assert_eq!(y.data()[2], 0.25); // 0.13*4+0.5 = 1.02 → floor 1
        assert_eq!(y.data()[3], 1.0);
        assert_eq!(y.data()[4], 2.0); // clipped at s
    }

    #[test]
    fn quant_clip_error_bounded_by_half_step() {
        let act_s = 1.5f32;
        let levels = 8;
        let mut act = Activation::quant_clip(levels, act_s);
        for i in 0..100 {
            let v = i as f32 * 0.015; // covers [0, 1.5)
            let y = act.forward(&Tensor::from_vec(vec![1], vec![v]), false);
            assert!(
                (y.data()[0] - v).abs() <= 0.5 * act_s / levels as f32 + 1e-6,
                "v={v} y={}",
                y.data()[0]
            );
        }
    }

    #[test]
    fn ste_passes_gradient_in_range_only() {
        let mut act = Activation::quant_clip(4, 1.0);
        let x = Tensor::from_vec(vec![3], vec![-0.5, 0.5, 1.5]);
        let _ = act.forward(&x, true);
        let gx = act.backward(&Tensor::full(vec![3], 1.0));
        assert_eq!(gx.data(), &[0.0, 1.0, 0.0]);
    }

    #[test]
    fn step_gradient_is_one_at_rail() {
        let mut act = Activation::quant_clip(4, 1.0);
        let x = Tensor::from_vec(vec![1], vec![2.0]); // above the rail
        let _ = act.forward(&x, true);
        let _ = act.backward(&Tensor::full(vec![1], 1.0));
        let gscale = 1.0 / (1.0f32 * 4.0).sqrt();
        assert!((act.step.grad.data()[0] - gscale).abs() < 1e-6);
    }

    #[test]
    fn make_quantized_swaps_kind_and_keeps_step() {
        let mut act = Activation::relu();
        act.set_step(0.7);
        act.make_quantized(8);
        assert_eq!(act.kind(), &ActKind::QuantClip { levels: 8 });
        assert_eq!(act.step(), 0.7);
    }

    #[test]
    fn relu_has_no_trainable_params() {
        let mut relu = Activation::relu();
        let mut quant = Activation::quant_clip(8, 1.0);
        assert_eq!(relu.param_count(), 0);
        assert_eq!(quant.param_count(), 1);
    }

    #[test]
    #[should_panic(expected = "step must be positive")]
    fn step_validation() {
        let mut act = Activation::relu();
        act.set_step(0.0);
    }

    #[test]
    fn quant_forward_is_monotone() {
        let mut act = Activation::quant_clip(6, 1.2);
        let xs: Vec<f32> = (-10..30).map(|i| i as f32 * 0.07).collect();
        let y = act.forward(&Tensor::from_vec(vec![xs.len()], xs), false);
        for w in y.data().windows(2) {
            assert!(w[1] >= w[0]);
        }
    }
}
