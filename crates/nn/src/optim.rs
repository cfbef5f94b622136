//! SGD with momentum, weight decay and a step learning-rate schedule.

use crate::model::Model;

/// SGD hyper-parameters.
///
/// # Examples
///
/// ```
/// use sia_nn::optim::Sgd;
/// let opt = Sgd::new(0.1).momentum(0.9).weight_decay(5e-4);
/// assert_eq!(opt.lr(), 0.1);
/// ```
#[derive(Clone, Debug)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    weight_decay: f32,
    grad_clip: Option<f32>,
}

impl Sgd {
    /// Plain SGD at learning rate `lr`.
    ///
    /// # Panics
    ///
    /// Panics if `lr <= 0`.
    #[must_use]
    pub fn new(lr: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        Sgd {
            lr,
            momentum: 0.0,
            weight_decay: 0.0,
            grad_clip: None,
        }
    }

    /// Sets the momentum coefficient (0.9 is the usual choice).
    #[must_use]
    pub fn momentum(mut self, m: f32) -> Self {
        assert!((0.0..1.0).contains(&m), "momentum must be in [0, 1)");
        self.momentum = m;
        self
    }

    /// Sets L2 weight decay (applied only to params with `decay == true`).
    #[must_use]
    pub fn weight_decay(mut self, wd: f32) -> Self {
        assert!(wd >= 0.0, "weight decay must be non-negative");
        self.weight_decay = wd;
        self
    }

    /// Clips each parameter's gradient tensor to the given L2 norm.
    #[must_use]
    pub fn grad_clip(mut self, max_norm: f32) -> Self {
        assert!(max_norm > 0.0, "clip norm must be positive");
        self.grad_clip = Some(max_norm);
        self
    }

    /// Current learning rate.
    #[must_use]
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// Multiplies the current learning rate (step decay).
    pub fn decay_lr(&mut self, factor: f32) {
        assert!(factor > 0.0, "decay factor must be positive");
        self.lr *= factor;
    }

    /// Applies one update step to every parameter of `model`, consuming the
    /// accumulated gradients (and zeroing them).
    pub fn step(&self, model: &mut dyn Model) {
        let lr = self.lr;
        let mom = self.momentum;
        let wd = self.weight_decay;
        let clip = self.grad_clip;
        model.visit_params(&mut |p| {
            if let Some(max_norm) = clip {
                let norm = p.grad.norm();
                if norm > max_norm {
                    let scale = max_norm / norm;
                    p.grad.map_inplace(|g| g * scale);
                }
            }
            let decay = if p.decay { wd } else { 0.0 };
            let n = p.value.numel();
            for i in 0..n {
                let g = p.grad.data()[i] + decay * p.value.data()[i];
                let v = mom * p.momentum.data()[i] + g;
                p.momentum.data_mut()[i] = v;
                p.value.data_mut()[i] -= lr * v;
            }
            p.zero_grad();
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Activation;
    use crate::param::Param;
    use crate::spec::NetworkSpec;
    use sia_tensor::Tensor;

    struct OneParam {
        p: Param,
    }

    impl Model for OneParam {
        fn forward(&mut self, x: &Tensor, _t: bool) -> Tensor {
            x.clone()
        }
        fn backward(&mut self, _g: &Tensor) {}
        fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
            f(&mut self.p);
        }
        fn visit_activations(&mut self, _f: &mut dyn FnMut(&mut Activation)) {}
        fn to_spec(&self) -> NetworkSpec {
            NetworkSpec {
                name: "one".into(),
                input: (1, 1, 1),
                items: vec![],
            }
        }
        fn name(&self) -> &str {
            "one"
        }
    }

    fn model_with(value: f32, grad: f32) -> OneParam {
        let mut p = Param::new(Tensor::full(vec![1], value));
        p.grad = Tensor::full(vec![1], grad);
        OneParam { p }
    }

    #[test]
    fn vanilla_step_descends() {
        let mut m = model_with(1.0, 0.5);
        Sgd::new(0.1).step(&mut m);
        assert!((m.p.value.data()[0] - 0.95).abs() < 1e-6);
        assert_eq!(m.p.grad.data()[0], 0.0); // consumed
    }

    #[test]
    fn momentum_accumulates_velocity() {
        let mut m = model_with(0.0, 1.0);
        let opt = Sgd::new(0.1).momentum(0.5);
        opt.step(&mut m);
        assert!((m.p.value.data()[0] + 0.1).abs() < 1e-6);
        // re-apply the same gradient: velocity = 0.5·1 + 1 = 1.5
        m.p.grad = Tensor::full(vec![1], 1.0);
        opt.step(&mut m);
        assert!((m.p.value.data()[0] + 0.25).abs() < 1e-6);
    }

    #[test]
    fn weight_decay_pulls_towards_zero() {
        let mut m = model_with(2.0, 0.0);
        Sgd::new(0.1).weight_decay(0.5).step(&mut m);
        assert!((m.p.value.data()[0] - 1.9).abs() < 1e-6);
    }

    #[test]
    fn no_decay_param_is_exempt() {
        let mut m = model_with(2.0, 0.0);
        m.p.decay = false;
        Sgd::new(0.1).weight_decay(0.5).step(&mut m);
        assert_eq!(m.p.value.data()[0], 2.0);
    }

    #[test]
    fn grad_clip_bounds_update() {
        let mut m = model_with(0.0, 100.0);
        Sgd::new(1.0).grad_clip(1.0).step(&mut m);
        assert!((m.p.value.data()[0] + 1.0).abs() < 1e-5);
    }

    #[test]
    fn lr_decay_and_scale() {
        let mut opt = Sgd::new(0.4);
        opt.decay_lr(0.5);
        assert!((opt.lr() - 0.2).abs() < 1e-7);
    }

    #[test]
    #[should_panic(expected = "learning rate must be positive")]
    fn lr_validated() {
        let _ = Sgd::new(0.0);
    }
}
