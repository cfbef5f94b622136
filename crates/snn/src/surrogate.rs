//! Direct SNN training with surrogate gradients — the alternative the
//! paper's background section contrasts against conversion (its ref. [10],
//! Neftci et al.). Implemented as a baseline so the trade-off the paper
//! asserts ("most of these networks require hundreds of time steps" or
//! heavy training) can be *measured* against the conversion pipeline.
//!
//! The model is a fully-connected SNN (input current → IF hidden layers
//! with reset-by-subtraction → accumulating readout), trained with
//! backpropagation-through-time where the Heaviside spike derivative is
//! replaced by the SuperSpike surrogate `σ'(v) = 1 / (1 + α·|v|)²`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sia_dataset::LabelledSet;

/// Hyper-parameters for surrogate-gradient training.
#[derive(Clone, Debug)]
pub struct SurrogateConfig {
    /// Hidden layer widths.
    pub hidden: Vec<usize>,
    /// Simulation timesteps (both in training and inference).
    pub timesteps: usize,
    /// Spiking threshold θ.
    pub theta: f32,
    /// Surrogate sharpness α.
    pub alpha: f32,
    /// Learning rate.
    pub lr: f32,
    /// SGD momentum.
    pub momentum: f32,
    /// Training epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch: usize,
    /// Weight-init / shuffle seed.
    pub seed: u64,
}

impl Default for SurrogateConfig {
    fn default() -> Self {
        SurrogateConfig {
            hidden: vec![128],
            timesteps: 8,
            theta: 1.0,
            alpha: 2.0,
            lr: 0.02,
            momentum: 0.9,
            epochs: 10,
            batch: 32,
            seed: 0x5039,
        }
    }
}

/// A fully-connected spiking network trained directly with surrogate
/// gradients (BPTT).
///
/// # Examples
///
/// ```
/// use sia_snn::surrogate::{SurrogateConfig, SurrogateMlp};
/// let net = SurrogateMlp::new(12, &[16], 4, 7);
/// assert_eq!(net.layer_count(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct SurrogateMlp {
    /// Layer sizes `[in, h1, …, out]`.
    sizes: Vec<usize>,
    /// Row-major weight matrices `[out_l × in_l]` per layer.
    weights: Vec<Vec<f32>>,
    velocity: Vec<Vec<f32>>,
    theta: f32,
    alpha: f32,
}

/// Per-timestep forward trace of one sample (kept for BPTT).
struct Trace {
    /// Hidden spikes `spikes[l][t][i]` (layer 0 = first hidden).
    spikes: Vec<Vec<Vec<f32>>>,
    /// Hidden membranes before the spike test, same indexing.
    membranes: Vec<Vec<Vec<f32>>>,
    /// Accumulated output logits.
    logits: Vec<f32>,
}

impl SurrogateMlp {
    /// Creates the network with Kaiming-uniform weights.
    #[must_use]
    pub fn new(inputs: usize, hidden: &[usize], outputs: usize, seed: u64) -> Self {
        let mut sizes = vec![inputs];
        sizes.extend_from_slice(hidden);
        sizes.push(outputs);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut weights = Vec::new();
        let mut velocity = Vec::new();
        for l in 0..sizes.len() - 1 {
            let (fan_in, fan_out) = (sizes[l], sizes[l + 1]);
            let bound = (6.0 / fan_in as f32).sqrt();
            weights.push(
                (0..fan_in * fan_out)
                    .map(|_| rng.gen_range(-bound..=bound))
                    .collect(),
            );
            velocity.push(vec![0.0; fan_in * fan_out]);
        }
        SurrogateMlp {
            sizes,
            weights,
            velocity,
            theta: 1.0,
            alpha: 2.0,
        }
    }

    /// Number of weight layers.
    #[must_use]
    pub fn layer_count(&self) -> usize {
        self.weights.len()
    }

    /// Total trainable parameters.
    #[must_use]
    pub fn param_count(&self) -> usize {
        self.weights.iter().map(Vec::len).sum()
    }

    fn matvec(w: &[f32], x: &[f32], out_dim: usize) -> Vec<f32> {
        let in_dim = x.len();
        let mut out = vec![0.0f32; out_dim];
        for (o, row) in out.iter_mut().zip(w.chunks(in_dim)) {
            let mut acc = 0.0;
            for (&wi, &xi) in row.iter().zip(x) {
                acc += wi * xi;
            }
            *o = acc;
        }
        out
    }

    fn matvec_t(w: &[f32], g: &[f32], in_dim: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; in_dim];
        for (gi, row) in g.iter().zip(w.chunks(in_dim)) {
            if *gi == 0.0 {
                continue;
            }
            for (o, &wi) in out.iter_mut().zip(row) {
                *o += gi * wi;
            }
        }
        out
    }

    /// SuperSpike surrogate derivative at membrane distance `v = u − θ`.
    fn surrogate(&self, v: f32) -> f32 {
        let d = 1.0 + self.alpha * v.abs();
        1.0 / (d * d)
    }

    fn forward_trace(&self, x: &[f32], timesteps: usize) -> Trace {
        let n_hidden = self.layer_count() - 1;
        let mut spikes = vec![Vec::with_capacity(timesteps); n_hidden];
        let mut membranes = vec![Vec::with_capacity(timesteps); n_hidden];
        let mut u: Vec<Vec<f32>> = (1..=n_hidden)
            .map(|l| vec![0.5 * self.theta; self.sizes[l]])
            .collect();
        let out_dim = *self.sizes.last().unwrap();
        let mut logits = vec![0.0f32; out_dim];
        for _t in 0..timesteps {
            let mut prev: Vec<f32> = x.to_vec();
            for l in 0..n_hidden {
                let current = Self::matvec(&self.weights[l], &prev, self.sizes[l + 1]);
                let mut s = vec![0.0f32; self.sizes[l + 1]];
                for i in 0..self.sizes[l + 1] {
                    u[l][i] += current[i];
                    if u[l][i] >= self.theta {
                        s[i] = 1.0;
                        u[l][i] -= self.theta;
                    }
                }
                // membrane recorded *at the spike decision* (post-integration,
                // pre-reset) — the point the surrogate differentiates
                let mut u_pre = u[l].clone();
                for i in 0..s.len() {
                    if s[i] == 1.0 {
                        u_pre[i] += self.theta;
                    }
                }
                membranes[l].push(u_pre);
                spikes[l].push(s.clone());
                prev = s;
            }
            let o = Self::matvec(&self.weights[n_hidden], &prev, out_dim);
            for (li, oi) in logits.iter_mut().zip(&o) {
                *li += oi / timesteps as f32;
            }
        }
        Trace {
            spikes,
            membranes,
            logits,
        }
    }

    /// Inference: logits after `timesteps`.
    #[must_use]
    pub fn forward(&self, x: &[f32], timesteps: usize) -> Vec<f32> {
        self.forward_trace(x, timesteps).logits
    }

    /// One BPTT step on a single sample; returns the loss. Gradients are
    /// accumulated into `grads` (same shapes as the weights).
    #[allow(clippy::needless_range_loop)]
    fn backward_sample(
        &self,
        x: &[f32],
        label: usize,
        timesteps: usize,
        grads: &mut [Vec<f32>],
    ) -> f32 {
        let n_hidden = self.layer_count() - 1;
        let out_dim = *self.sizes.last().unwrap();
        let trace = self.forward_trace(x, timesteps);
        // softmax cross-entropy on the accumulated logits
        let max = trace
            .logits
            .iter()
            .fold(f32::NEG_INFINITY, |m, &v| m.max(v));
        let exps: Vec<f32> = trace.logits.iter().map(|&v| (v - max).exp()).collect();
        let z: f32 = exps.iter().sum();
        let loss = z.ln() + max - trace.logits[label];
        let g_logits: Vec<f32> = (0..out_dim)
            .map(|j| exps[j] / z - if j == label { 1.0 } else { 0.0 })
            .collect();
        // BPTT: walk timesteps backwards; du carries the membrane chain
        let mut du: Vec<Vec<f32>> = (1..=n_hidden)
            .map(|l| vec![0.0f32; self.sizes[l]])
            .collect();
        for t in (0..timesteps).rev() {
            // output layer: logits += W_out·s_last[t] / T
            let s_last = &trace.spikes[n_hidden - 1][t];
            let w_out = &self.weights[n_hidden];
            let in_dim = self.sizes[n_hidden];
            for o in 0..out_dim {
                let go = g_logits[o] / timesteps as f32;
                if go != 0.0 {
                    for i in 0..in_dim {
                        grads[n_hidden][o * in_dim + i] += go * s_last[i];
                    }
                }
            }
            let mut ds_next = Self::matvec_t(w_out, &g_logits, in_dim)
                .into_iter()
                .map(|v| v / timesteps as f32)
                .collect::<Vec<_>>();
            for l in (0..n_hidden).rev() {
                // total gradient on s_l[t]: downstream (ds_next) plus the
                // reset path from u_l[t+1] (reset-by-subtraction: −θ)
                let ds: Vec<f32> = ds_next
                    .iter()
                    .zip(&du[l])
                    .map(|(&a, &b)| a - self.theta * b)
                    .collect();
                // du_l[t] = ds·σ'(u−θ) + du_l[t+1] (membrane carry)
                let mut du_t = vec![0.0f32; self.sizes[l + 1]];
                for i in 0..du_t.len() {
                    let v = trace.membranes[l][t][i] - self.theta;
                    du_t[i] = ds[i] * self.surrogate(v) + du[l][i];
                }
                // weight gradient: du_t ⊗ input spikes (or x at layer 0)
                let input: &[f32] = if l == 0 { x } else { &trace.spikes[l - 1][t] };
                let in_dim = self.sizes[l];
                for o in 0..du_t.len() {
                    if du_t[o] != 0.0 {
                        for i in 0..in_dim {
                            grads[l][o * in_dim + i] += du_t[o] * input[i];
                        }
                    }
                }
                // propagate to the previous layer's spikes at this timestep
                if l > 0 {
                    ds_next = Self::matvec_t(&self.weights[l], &du_t, in_dim);
                }
                du[l] = du_t;
            }
        }
        loss
    }

    /// Trains on `set` and returns the per-epoch mean loss curve.
    pub fn train(&mut self, set: &LabelledSet, cfg: &SurrogateConfig) -> Vec<f32> {
        self.theta = cfg.theta;
        self.alpha = cfg.alpha;
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut losses = Vec::with_capacity(cfg.epochs);
        for _epoch in 0..cfg.epochs {
            let mut loss_sum = 0.0f64;
            let mut count = 0usize;
            for (imgs, labels) in set.batches(cfg.batch, &mut rng) {
                let mut grads: Vec<Vec<f32>> =
                    self.weights.iter().map(|w| vec![0.0; w.len()]).collect();
                let n = labels.len();
                for (b, &label) in labels.iter().enumerate() {
                    let x = imgs.batch_item(b).into_vec();
                    loss_sum +=
                        f64::from(self.backward_sample(&x, label, cfg.timesteps, &mut grads));
                    count += 1;
                }
                for ((w, v), g) in self.weights.iter_mut().zip(&mut self.velocity).zip(&grads) {
                    for ((wi, vi), gi) in w.iter_mut().zip(v.iter_mut()).zip(g) {
                        *vi = cfg.momentum * *vi + gi / n as f32;
                        *wi -= cfg.lr * *vi;
                    }
                }
            }
            losses.push((loss_sum / count.max(1) as f64) as f32);
        }
        losses
    }

    /// Top-1 accuracy on a labelled set.
    #[must_use]
    pub fn accuracy(&self, set: &LabelledSet, timesteps: usize) -> f32 {
        let mut correct = 0usize;
        for i in 0..set.len() {
            let (img, label) = set.get(i);
            let logits = self.forward(img.data(), timesteps);
            let mut best = 0;
            for (j, &v) in logits.iter().enumerate() {
                if v > logits[best] {
                    best = j;
                }
            }
            if best == label {
                correct += 1;
            }
        }
        correct as f32 / set.len().max(1) as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sia_dataset::{SynthConfig, SynthDataset};
    use sia_tensor::Tensor;

    fn flat_set(set: &LabelledSet) -> LabelledSet {
        let mut imgs = Vec::new();
        let mut labels = Vec::new();
        for i in 0..set.len() {
            let (img, label) = set.get(i);
            imgs.push(Tensor::from_vec(vec![img.numel()], img.data().to_vec()));
            labels.push(label);
        }
        LabelledSet::new(imgs, labels)
    }

    #[test]
    fn forward_shapes_and_determinism() {
        let net = SurrogateMlp::new(12, &[8, 6], 4, 3);
        assert_eq!(net.layer_count(), 3);
        assert_eq!(net.param_count(), 12 * 8 + 8 * 6 + 6 * 4);
        let x = vec![0.4; 12];
        assert_eq!(net.forward(&x, 8), net.forward(&x, 8));
        assert_eq!(net.forward(&x, 8).len(), 4);
    }

    #[test]
    fn surrogate_gradient_matches_numeric_on_smooth_path() {
        // Numeric gradient of the *surrogate-smoothed* loss is not available
        // (forward uses hard spikes), so verify a weaker but meaningful
        // property: the analytic gradient points downhill for a step small
        // enough not to flip any spike decision.
        let mut net = SurrogateMlp::new(6, &[10], 3, 5);
        let x: Vec<f32> = (0..6).map(|i| 0.3 + 0.1 * i as f32).collect();
        let mut grads: Vec<Vec<f32>> = net.weights.iter().map(|w| vec![0.0; w.len()]).collect();
        let loss0 = net.backward_sample(&x, 1, 6, &mut grads);
        // take a tiny gradient step
        for (w, g) in net.weights.iter_mut().zip(&grads) {
            for (wi, gi) in w.iter_mut().zip(g) {
                *wi -= 1e-3 * gi;
            }
        }
        let mut scratch: Vec<Vec<f32>> = net.weights.iter().map(|w| vec![0.0; w.len()]).collect();
        let loss1 = net.backward_sample(&x, 1, 6, &mut scratch);
        assert!(
            loss1 <= loss0 + 1e-4,
            "gradient step went uphill: {loss0} → {loss1}"
        );
    }

    #[test]
    fn training_reaches_above_chance_quickly() {
        let data = SynthDataset::generate(
            &SynthConfig {
                image_size: 8,
                noise_std: 0.04,
                seed: 61,
            },
            200,
            60,
        );
        let train = flat_set(&data.train);
        let test = flat_set(&data.test);
        let mut net = SurrogateMlp::new(3 * 64, &[64], 10, 9);
        let cfg = SurrogateConfig {
            epochs: 6,
            timesteps: 8,
            lr: 0.05,
            ..SurrogateConfig::default()
        };
        let losses = net.train(&train, &cfg);
        assert!(
            losses.last().unwrap() < losses.first().unwrap(),
            "loss did not decrease: {losses:?}"
        );
        let acc = net.accuracy(&test, 8);
        assert!(acc > 0.3, "surrogate training stuck at chance: {acc}");
    }

    #[test]
    fn more_timesteps_do_not_change_shape() {
        let net = SurrogateMlp::new(4, &[6], 3, 1);
        let x = vec![0.5; 4];
        for t in [1usize, 4, 16] {
            assert_eq!(net.forward(&x, t).len(), 3);
        }
    }
}
