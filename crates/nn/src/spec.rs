//! Flat, typed export of a trained network.
//!
//! A [`NetworkSpec`] is the hand-off format between the four stages of the
//! pipeline: the trainer produces it, the quantiser rewrites it, the SNN
//! converter lowers it to integer spiking form, and the accelerator compiler
//! turns it into SIA layer programs. It deliberately flattens the residual
//! topology into `BlockStart`/`BlockAdd` markers — exactly the structure the
//! paper's hardware supports ("for residual layers, pre-computed partial
//! sums are read from the processor", §IV).

use sia_tensor::{Conv2dGeom, Tensor};

/// A quantized-clip activation: `L` levels with trained step `s^l`. After
/// conversion this becomes an IF neuron with threshold `s^l` (paper §II-A,
/// step 3).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ActSpec {
    /// Quantization levels `L`.
    pub levels: usize,
    /// Trained step size `s^l` — the spiking threshold after conversion.
    pub step: f32,
}

/// Batch-norm parameters of one convolution, everything Eq. 2 needs.
#[derive(Clone, Debug, PartialEq)]
pub struct BnSpec {
    /// Scale γ (per channel).
    pub gamma: Vec<f32>,
    /// Shift β (per channel).
    pub beta: Vec<f32>,
    /// Running mean μ (per channel).
    pub mean: Vec<f32>,
    /// Running variance σ² (per channel).
    pub var: Vec<f32>,
    /// Numerical-stability term ε.
    pub eps: f32,
}

impl BnSpec {
    /// The affine form `y_bn = y·g + h` equivalent to this batch norm:
    /// `g = γ/√(σ²+ε)`, `h = β − μ·g`, per channel.
    #[must_use]
    pub fn affine(&self) -> (Vec<f32>, Vec<f32>) {
        let mut g = Vec::with_capacity(self.gamma.len());
        let mut h = Vec::with_capacity(self.gamma.len());
        for c in 0..self.gamma.len() {
            let gc = self.gamma[c] / (self.var[c] + self.eps).sqrt();
            g.push(gc);
            h.push(self.beta[c] - self.mean[c] * gc);
        }
        (g, h)
    }
}

/// One convolution stage: weights, optional batch norm, optional activation.
/// `act == None` means the raw (post-BN) value feeds a residual add.
#[derive(Clone, Debug)]
pub struct ConvSpec {
    /// Geometry (channels, spatial size, kernel, stride, padding).
    pub geom: Conv2dGeom,
    /// FP32 weights `[C_out, C_in, K, K]`.
    pub weights: Tensor,
    /// Batch-norm parameters, if the conv is followed by BN.
    pub bn: Option<BnSpec>,
    /// Activation, if the conv output spikes directly.
    pub act: Option<ActSpec>,
}

/// The fully-connected classification head.
#[derive(Clone, Debug)]
pub struct LinearSpec {
    /// Input feature count.
    pub in_features: usize,
    /// Output feature count (classes).
    pub out_features: usize,
    /// FP32 weights `[out, in]`.
    pub weights: Tensor,
    /// Bias `[out]`.
    pub bias: Vec<f32>,
}

/// One item of the flattened network graph.
#[derive(Clone, Debug)]
pub enum SpecItem {
    /// A convolution stage.
    Conv(ConvSpec),
    /// Push the current activation (spikes) as the skip branch.
    BlockStart,
    /// Pop the skip branch, optionally transform it with a 1×1
    /// conv(+BN), add it to the main branch's pre-activation value, then
    /// apply `act`.
    BlockAdd {
        /// The downsample path (stride-2 1×1 conv + BN), if any.
        down: Option<ConvSpec>,
        /// Activation applied to the summed value.
        act: ActSpec,
    },
    /// 2×2 stride-2 max pooling (OR gate in the spike domain).
    MaxPool2x2,
    /// Global average pooling before the head; records the spatial area so
    /// that the converter can fold `1/area` into the FC scale.
    GlobalAvgPool,
    /// The classification head. Its output is read out as accumulated
    /// membrane potential, never spiking.
    Linear(LinearSpec),
}

/// A flattened network description.
#[derive(Clone, Debug)]
pub struct NetworkSpec {
    /// Human-readable model name ("resnet18-w8", "vgg11-w64", …).
    pub name: String,
    /// Input shape `(C, H, W)`.
    pub input: (usize, usize, usize),
    /// The item sequence.
    pub items: Vec<SpecItem>,
}

impl SpecItem {
    /// Stable short label for this item, used as the span text of
    /// diagnostics that point back into the spec ("conv3x3,64", "block-add",
    /// "linear→10", …). Converter and checker stage names are derived from
    /// the same vocabulary, so a report line can be matched to its spec item
    /// by eye.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            SpecItem::Conv(c) => format!(
                "conv{}x{},{}",
                c.geom.kernel, c.geom.kernel, c.geom.out_channels
            ),
            SpecItem::BlockStart => "block-start".into(),
            SpecItem::BlockAdd { down, .. } => {
                if down.is_some() {
                    "block-add(down)".into()
                } else {
                    "block-add".into()
                }
            }
            SpecItem::MaxPool2x2 => "maxpool2x2".into(),
            SpecItem::GlobalAvgPool => "global-avgpool".into(),
            SpecItem::Linear(l) => format!("linear→{}", l.out_features),
        }
    }
}

impl NetworkSpec {
    /// One-line `item → item → …` plan of the whole spec, built from
    /// [`SpecItem::label`].
    #[must_use]
    pub fn summary(&self) -> String {
        self.items
            .iter()
            .map(SpecItem::label)
            .collect::<Vec<_>>()
            .join(" → ")
    }

    /// Total parameter count (weights + bias; BN affine terms excluded since
    /// they fold into `G`/`H`).
    #[must_use]
    pub fn weight_count(&self) -> usize {
        self.items
            .iter()
            .map(|it| match it {
                SpecItem::Conv(c) => c.geom.weight_count(),
                SpecItem::BlockAdd { down: Some(c), .. } => c.geom.weight_count(),
                SpecItem::Linear(l) => l.in_features * l.out_features + l.out_features,
                _ => 0,
            })
            .sum()
    }

    /// All activation steps (`s^l` per spiking layer), in network order —
    /// the per-layer thresholds of Fig. 7/9.
    #[must_use]
    pub fn steps(&self) -> Vec<f32> {
        let mut steps = Vec::new();
        for it in &self.items {
            match it {
                SpecItem::Conv(c) => {
                    if let Some(a) = &c.act {
                        steps.push(a.step);
                    }
                }
                SpecItem::BlockAdd { act, .. } => steps.push(act.step),
                _ => {}
            }
        }
        steps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn conv_spec(cin: usize, cout: usize, hw: usize, act: bool) -> ConvSpec {
        let geom = Conv2dGeom {
            in_channels: cin,
            out_channels: cout,
            in_h: hw,
            in_w: hw,
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        ConvSpec {
            geom,
            weights: Tensor::zeros(vec![cout, cin, 3, 3]),
            bn: None,
            act: act.then_some(ActSpec {
                levels: 8,
                step: 1.0,
            }),
        }
    }

    fn spec() -> NetworkSpec {
        NetworkSpec {
            name: "test".into(),
            input: (3, 8, 8),
            items: vec![
                SpecItem::Conv(conv_spec(3, 4, 8, true)),
                SpecItem::BlockStart,
                SpecItem::Conv(conv_spec(4, 4, 8, true)),
                SpecItem::Conv(conv_spec(4, 4, 8, false)),
                SpecItem::BlockAdd {
                    down: None,
                    act: ActSpec {
                        levels: 8,
                        step: 0.5,
                    },
                },
                SpecItem::GlobalAvgPool,
                SpecItem::Linear(LinearSpec {
                    in_features: 4,
                    out_features: 10,
                    weights: Tensor::zeros(vec![10, 4]),
                    bias: vec![0.0; 10],
                }),
            ],
        }
    }

    #[test]
    fn counts() {
        let s = spec();
        assert_eq!(s.weight_count(), 4 * 3 * 9 + 2 * (4 * 4 * 9) + 40 + 10);
    }

    #[test]
    fn steps_in_order() {
        assert_eq!(spec().steps(), vec![1.0, 1.0, 0.5]);
    }

    #[test]
    fn labels_and_summary() {
        let s = spec();
        assert_eq!(s.items[0].label(), "conv3x3,4");
        assert_eq!(s.items[1].label(), "block-start");
        assert_eq!(s.items[4].label(), "block-add");
        assert_eq!(s.items[6].label(), "linear→10");
        assert_eq!(
            s.summary(),
            "conv3x3,4 → block-start → conv3x3,4 → conv3x3,4 → block-add \
             → global-avgpool → linear→10"
        );
    }

    #[test]
    fn bn_affine_folds_correctly() {
        let bn = BnSpec {
            gamma: vec![2.0],
            beta: vec![1.0],
            mean: vec![3.0],
            var: vec![4.0],
            eps: 0.0,
        };
        let (g, h) = bn.affine();
        assert!((g[0] - 1.0).abs() < 1e-6); // 2 / sqrt(4)
        assert!((h[0] - (1.0 - 3.0)).abs() < 1e-6); // β − μ·g
    }
}
