//! Procedural 10-class image generator.

use crate::loader::LabelledSet;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sia_tensor::Tensor;
use std::f32::consts::PI;

/// Number of classes, matching CIFAR-10.
pub const NUM_CLASSES: usize = 10;

/// Generation parameters for the synthetic dataset.
///
/// # Examples
///
/// ```
/// use sia_dataset::SynthConfig;
/// let cfg = SynthConfig::cifar_like();
/// assert_eq!(cfg.image_size, 32);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SynthConfig {
    /// Square image side in pixels.
    pub image_size: usize,
    /// Standard deviation of the additive Gaussian pixel noise.
    pub noise_std: f32,
    /// Master seed; the dataset is a pure function of the config.
    pub seed: u64,
}

impl SynthConfig {
    /// CIFAR-10-shaped images (3×32×32).
    #[must_use]
    pub fn cifar_like() -> Self {
        SynthConfig {
            image_size: 32,
            noise_std: 0.08,
            seed: 0x51A_2024,
        }
    }

    /// Small 3×16×16 images — same task at a quarter of the compute; used by
    /// the fast training loops in tests and figures.
    #[must_use]
    pub fn small() -> Self {
        SynthConfig {
            image_size: 16,
            noise_std: 0.08,
            seed: 0x51A_2024,
        }
    }
}

impl Default for SynthConfig {
    fn default() -> Self {
        SynthConfig::cifar_like()
    }
}

/// A generated train/test split.
#[derive(Clone, Debug)]
pub struct SynthDataset {
    /// Training samples.
    pub train: LabelledSet,
    /// Held-out test samples.
    pub test: LabelledSet,
    /// The configuration the data was generated from.
    pub config: SynthConfig,
}

impl SynthDataset {
    /// Generates `n_train` + `n_test` samples with balanced classes.
    /// Deterministic for a given config.
    ///
    /// # Examples
    ///
    /// ```
    /// use sia_dataset::{SynthConfig, SynthDataset};
    /// let a = SynthDataset::generate(&SynthConfig::small(), 10, 10);
    /// let b = SynthDataset::generate(&SynthConfig::small(), 10, 10);
    /// assert_eq!(a.train.get(3).0.data(), b.train.get(3).0.data());
    /// ```
    #[must_use]
    pub fn generate(config: &SynthConfig, n_train: usize, n_test: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let train = generate_set(config, n_train, &mut rng);
        let test = generate_set(config, n_test, &mut rng);
        SynthDataset {
            train,
            test,
            config: *config,
        }
    }
}

fn generate_set(config: &SynthConfig, n: usize, rng: &mut StdRng) -> LabelledSet {
    let mut images = Vec::with_capacity(n);
    let mut labels = Vec::with_capacity(n);
    for i in 0..n {
        let class = i % NUM_CLASSES; // balanced
        images.push(render_class(class, config, rng));
        labels.push(class);
    }
    LabelledSet::new(images, labels)
}

/// Renders one sample of `class` under per-sample jitter.
///
/// # Panics
///
/// Panics if `class >= NUM_CLASSES`.
pub fn render_class(class: usize, config: &SynthConfig, rng: &mut StdRng) -> Tensor {
    assert!(class < NUM_CLASSES, "class {class} out of range");
    let s = config.image_size;
    let sf = s as f32;
    // Per-sample jitter: phase, centre offset, base colour, scale.
    let phase: f32 = rng.gen_range(0.0..(2.0 * PI));
    let cx = sf / 2.0 + rng.gen_range(-0.15..0.15) * sf;
    let cy = sf / 2.0 + rng.gen_range(-0.15..0.15) * sf;
    let colour: [f32; 3] = [
        rng.gen_range(0.4..1.0),
        rng.gen_range(0.4..1.0),
        rng.gen_range(0.4..1.0),
    ];
    let freq = rng.gen_range(0.8..1.2);
    let mut data = vec![0.0f32; 3 * s * s];
    for y in 0..s {
        for x in 0..s {
            let xf = x as f32;
            let yf = y as f32;
            let v = match class {
                // 0: horizontal stripes
                0 => 0.5 + 0.5 * (freq * yf * 2.0 * PI / 4.0 + phase).sin(),
                // 1: vertical stripes
                1 => 0.5 + 0.5 * (freq * xf * 2.0 * PI / 4.0 + phase).sin(),
                // 2: diagonal stripes
                2 => 0.5 + 0.5 * (freq * (xf + yf) * 2.0 * PI / 6.0 + phase).sin(),
                // 3: checkerboard
                3 => {
                    let cell = (s / 8).max(2);
                    if ((x / cell) + (y / cell)).is_multiple_of(2) {
                        0.9
                    } else {
                        0.1
                    }
                }
                // 4: filled disk
                4 => {
                    let r = ((xf - cx).powi(2) + (yf - cy).powi(2)).sqrt();
                    if r < sf * 0.28 {
                        0.95
                    } else {
                        0.05
                    }
                }
                // 5: ring
                5 => {
                    let r = ((xf - cx).powi(2) + (yf - cy).powi(2)).sqrt();
                    if (r - sf * 0.3).abs() < sf * 0.08 {
                        0.95
                    } else {
                        0.05
                    }
                }
                // 6: horizontal then vertical gradient per half
                6 => {
                    if yf < sf / 2.0 {
                        xf / sf
                    } else {
                        1.0 - xf / sf
                    }
                }
                // 7: centred cross
                7 => {
                    let band = sf * 0.12;
                    if (xf - cx).abs() < band || (yf - cy).abs() < band {
                        0.9
                    } else {
                        0.08
                    }
                }
                // 8: four corner blobs
                8 => {
                    let corners = [
                        (sf * 0.2, sf * 0.2),
                        (sf * 0.8, sf * 0.2),
                        (sf * 0.2, sf * 0.8),
                        (sf * 0.8, sf * 0.8),
                    ];
                    let near = corners
                        .iter()
                        .map(|&(ax, ay)| ((xf - ax).powi(2) + (yf - ay).powi(2)).sqrt())
                        .fold(f32::INFINITY, f32::min);
                    if near < sf * 0.15 {
                        0.95
                    } else {
                        0.05
                    }
                }
                // 9: radial sinusoid (bullseye texture)
                _ => {
                    let r = ((xf - cx).powi(2) + (yf - cy).powi(2)).sqrt();
                    0.5 + 0.5 * (freq * r * 2.0 * PI / 5.0 + phase).sin()
                }
            };
            for (c, &tint) in colour.iter().enumerate() {
                let noise: f32 = {
                    // Box-Muller from two uniforms; cheap and deterministic.
                    let u1: f32 = rng.gen_range(1e-6..1.0);
                    let u2: f32 = rng.gen_range(0.0..1.0);
                    (-2.0 * u1.ln()).sqrt() * (2.0 * PI * u2).cos()
                };
                let px = (v * tint + config.noise_std * noise).clamp(0.0, 1.0);
                data[(c * s + y) * s + x] = px;
            }
        }
    }
    Tensor::from_vec(vec![3, s, s], data)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let cfg = SynthConfig::small();
        let a = SynthDataset::generate(&cfg, 20, 5);
        let b = SynthDataset::generate(&cfg, 20, 5);
        for i in 0..20 {
            assert_eq!(a.train.get(i).0.data(), b.train.get(i).0.data());
            assert_eq!(a.train.get(i).1, b.train.get(i).1);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut cfg2 = SynthConfig::small();
        cfg2.seed = 99;
        let a = SynthDataset::generate(&SynthConfig::small(), 5, 0);
        let b = SynthDataset::generate(&cfg2, 5, 0);
        assert_ne!(a.train.get(0).0.data(), b.train.get(0).0.data());
    }

    #[test]
    fn classes_are_balanced() {
        let d = SynthDataset::generate(&SynthConfig::small(), 100, 50);
        let mut counts = [0usize; NUM_CLASSES];
        for i in 0..100 {
            counts[d.train.get(i).1] += 1;
        }
        assert!(counts.iter().all(|&c| c == 10), "{counts:?}");
    }

    #[test]
    fn pixels_are_in_unit_range() {
        let d = SynthDataset::generate(&SynthConfig::small(), 30, 0);
        for i in 0..30 {
            let (img, _) = d.train.get(i);
            for &px in img.data() {
                assert!((0.0..=1.0).contains(&px), "pixel {px} out of range");
            }
        }
    }

    #[test]
    fn train_and_test_are_disjoint_draws() {
        // Same class index 0 in train and test must not be pixel-identical
        // (independent jitter draws).
        let d = SynthDataset::generate(&SynthConfig::small(), 10, 10);
        assert_ne!(d.train.get(0).0.data(), d.test.get(0).0.data());
    }

    #[test]
    fn classes_are_visually_distinct() {
        // Mean intra-class pixel distance should be clearly below mean
        // inter-class distance — otherwise the task is unlearnable.
        let cfg = SynthConfig {
            noise_std: 0.02,
            ..SynthConfig::small()
        };
        let d = SynthDataset::generate(&cfg, 100, 0);
        let dist = |a: &Tensor, b: &Tensor| -> f32 {
            a.data()
                .iter()
                .zip(b.data())
                .map(|(x, y)| (x - y).powi(2))
                .sum::<f32>()
        };
        let mut intra = (0.0f32, 0usize);
        let mut inter = (0.0f32, 0usize);
        for i in 0..40 {
            for j in (i + 1)..40 {
                let (a, la) = d.train.get(i);
                let (b, lb) = d.train.get(j);
                let dd = dist(a, b);
                if la == lb {
                    intra = (intra.0 + dd, intra.1 + 1);
                } else {
                    inter = (inter.0 + dd, inter.1 + 1);
                }
            }
        }
        let intra_mean = intra.0 / intra.1 as f32;
        let inter_mean = inter.0 / inter.1 as f32;
        assert!(
            inter_mean > 1.2 * intra_mean,
            "inter {inter_mean} not above intra {intra_mean}"
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn render_class_checks_range() {
        let mut rng = StdRng::seed_from_u64(1);
        let _ = render_class(10, &SynthConfig::small(), &mut rng);
    }

    #[test]
    fn image_size_is_respected() {
        let cfg = SynthConfig {
            image_size: 8,
            ..SynthConfig::small()
        };
        let d = SynthDataset::generate(&cfg, 2, 0);
        assert_eq!(d.train.get(0).0.shape().dims(), &[3, 8, 8]);
    }
}
