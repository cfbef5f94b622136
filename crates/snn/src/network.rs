//! Converted spiking-network data structures.
//!
//! An [`SnnNetwork`] carries **both** parameter sets for every layer: the
//! integer set (INT8 weight codes, Q8.8 `G`, 16-bit `H`/θ — what the
//! accelerator executes) and the float reference set (what the accuracy
//! curves are measured against). The integer set is derived from the float
//! set by [`mod@crate::convert`], which documents the scaling scheme.

use sia_fixed::{QuantScale, Q8_8};
use sia_tensor::Conv2dGeom;
use std::fmt;

/// Neuron dynamics mode — the aggregation core's mode bit (paper §III-B).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum NeuronMode {
    /// Integrate-and-fire (mode bit 0) — used for all accuracy results.
    #[default]
    If,
    /// Leaky integrate-and-fire (mode bit 1); the leak is a right-shift,
    /// `U ← U − (U >> leak_shift)`, the hardware-friendly form.
    Lif {
        /// Leak shift λ.
        leak_shift: u32,
    },
}

/// How a convolution receives its input.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ConvInput {
    /// Dense INT8 codes (the first layer; the ZYNQ PS performs this "frame
    /// data conversion", paper §IV). `scale` is the real value per code.
    Dense {
        /// Input quantisation scale `q_in`.
        scale: f32,
    },
    /// Binary spikes, each representing `value` (= the emitting layer's
    /// threshold `s^prev`).
    Spikes {
        /// Real value carried by one spike.
        value: f32,
    },
}

/// One converted convolution stage (weights + folded BN + neuron constants).
#[derive(Clone, Debug)]
pub struct SnnConv {
    /// Geometry (same struct the accelerator compiler consumes).
    pub geom: Conv2dGeom,
    /// INT8 weight codes, `[C_out, C_in, K, K]` row-major.
    pub weights: Vec<i8>,
    /// Weight scale `q_w` (power of two).
    pub q_w: QuantScale,
    /// Input kind and scaling.
    pub input: ConvInput,
    /// Integer BN multiplier per output channel (membrane LSBs per weight
    /// code), Q8.8.
    pub g: Vec<Q8_8>,
    /// Integer per-timestep offset per output channel (membrane LSBs),
    /// **added** to the membrane (sign already folded).
    pub h: Vec<i16>,
    /// Integer threshold (membrane LSBs). Zero for psum-only stages whose
    /// spiking happens in a downstream `BlockAdd`.
    pub theta: i16,
    /// Membrane unit ν: real volts per membrane LSB.
    pub nu: f32,
    /// Float reference: BN multiplier per channel (applied to real psum).
    pub gf: Vec<f32>,
    /// Float reference: per-timestep offset per channel.
    pub hf: Vec<f32>,
    /// Float threshold = trained step `s^l` (0 for psum-only stages).
    pub step: f32,
    /// Quantization levels `L` of the source activation.
    pub levels: usize,
    /// Neuron mode.
    pub mode: NeuronMode,
}

impl SnnConv {
    /// Number of output neurons.
    #[must_use]
    pub fn out_neurons(&self) -> usize {
        self.geom.out_neurons()
    }

    /// Weight code at `[co, ci, ky, kx]`.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range (debug-checked by slice indexing).
    #[inline]
    #[must_use]
    pub fn weight(&self, co: usize, ci: usize, ky: usize, kx: usize) -> i8 {
        let k = self.geom.kernel;
        self.weights[((co * self.geom.in_channels + ci) * k + ky) * k + kx]
    }
}

/// The residual-add + activation stage closing a basic block.
#[derive(Clone, Debug)]
pub struct SnnAdd {
    /// Optional downsample path (1×1 conv + BN), emitting into this add's
    /// membrane units; `theta == 0` on it.
    pub down: Option<SnnConv>,
    /// Membrane LSBs added per identity-skip spike (unused if `down` is
    /// present).
    pub skip_add: i16,
    /// Float value of one skip spike (= producing layer's step).
    pub skip_value: f32,
    /// Integer threshold of the post-add IF neurons.
    pub theta: i16,
    /// Membrane unit ν of this stage.
    pub nu: f32,
    /// Float threshold (trained step).
    pub step: f32,
    /// Quantization levels `L`.
    pub levels: usize,
    /// Neuron mode.
    pub mode: NeuronMode,
    /// Output channels.
    pub channels: usize,
    /// Output height.
    pub h: usize,
    /// Output width.
    pub w: usize,
}

impl SnnAdd {
    /// Number of neurons in this stage.
    #[must_use]
    pub fn neurons(&self) -> usize {
        self.channels * self.h * self.w
    }
}

/// The classification head: global-average-pool folded into an FC layer.
/// Outputs accumulate (no spiking); classification reads the largest
/// accumulated potential.
#[derive(Clone, Debug)]
pub struct SnnLinear {
    /// INT8 codes of the folded weights `W·s_prev/(H·W)`, `[out, channels]`.
    pub weights: Vec<i8>,
    /// Scale of the folded weights.
    pub q: QuantScale,
    /// Float bias per class (applied at readout on the PS side).
    pub bias: Vec<f32>,
    /// Float folded weights (reference path), `[out, channels]`.
    pub weights_f: Vec<f32>,
    /// Input channels (after pooling).
    pub channels: usize,
    /// Spatial height feeding the fold.
    pub in_h: usize,
    /// Spatial width feeding the fold.
    pub in_w: usize,
    /// Output classes.
    pub out: usize,
}

/// One stage of the converted network.
#[derive(Clone, Debug)]
pub enum SnnItem {
    /// First, dense-input convolution (PS-side frame conversion).
    InputConv(SnnConv),
    /// Spiking convolution (emits spikes through its own IF/LIF units).
    Conv(SnnConv),
    /// Convolution whose partial sums feed the next `BlockAdd` (θ unused).
    ConvPsum(SnnConv),
    /// Push the current spike grid as the pending skip branch.
    BlockStart,
    /// Residual add + activation.
    BlockAdd(SnnAdd),
    /// 2×2 OR-pooling of spikes (the spike-domain max pool).
    MaxPoolOr {
        /// Channels of the pooled grid.
        channels: usize,
        /// Input height (output is `h/2`).
        h: usize,
        /// Input width (output is `w/2`).
        w: usize,
    },
    /// Accumulating classification head.
    Head(SnnLinear),
}

/// A converted spiking network.
#[derive(Clone, Debug)]
pub struct SnnNetwork {
    /// Source model name.
    pub name: String,
    /// Input shape `(C, H, W)`.
    pub input: (usize, usize, usize),
    /// Stage sequence.
    pub items: Vec<SnnItem>,
    /// Output classes.
    pub num_classes: usize,
}

impl SnnNetwork {
    /// Number of spiking stages (stages owning membranes and emitting
    /// spikes): input conv + convs + adds.
    #[must_use]
    pub fn spiking_stage_count(&self) -> usize {
        self.items
            .iter()
            .filter(|it| {
                matches!(
                    it,
                    SnnItem::InputConv(_) | SnnItem::Conv(_) | SnnItem::BlockAdd(_)
                )
            })
            .count()
    }
}

impl fmt::Display for SnnNetwork {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SNN {} ({} items, {} spiking stages, {} classes)",
            self.name,
            self.items.len(),
            self.spiking_stage_count(),
            self.num_classes
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy_conv() -> SnnConv {
        let geom = Conv2dGeom {
            in_channels: 1,
            out_channels: 2,
            in_h: 4,
            in_w: 4,
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        SnnConv {
            geom,
            weights: vec![1i8; 18],
            q_w: QuantScale::new(7),
            input: ConvInput::Spikes { value: 1.0 },
            g: vec![Q8_8::ONE; 2],
            h: vec![0; 2],
            theta: 128,
            nu: 1.0 / 128.0,
            gf: vec![1.0; 2],
            hf: vec![0.0; 2],
            step: 1.0,
            levels: 8,
            mode: NeuronMode::If,
        }
    }

    #[test]
    fn weight_indexing_is_row_major() {
        let mut c = dummy_conv();
        c.weights[9] = 42; // co=1, ci=0, ky=0, kx=0
        assert_eq!(c.weight(1, 0, 0, 0), 42);
        c.weights[4] = 7; // co=0, ky=1, kx=1 (centre)
        assert_eq!(c.weight(0, 0, 1, 1), 7);
    }

    #[test]
    fn stage_counting() {
        let net = SnnNetwork {
            name: "t".into(),
            input: (1, 4, 4),
            items: vec![
                SnnItem::InputConv(dummy_conv()),
                SnnItem::BlockStart,
                SnnItem::Conv(dummy_conv()),
                SnnItem::ConvPsum(dummy_conv()),
                SnnItem::BlockAdd(SnnAdd {
                    down: None,
                    skip_add: 128,
                    skip_value: 1.0,
                    theta: 128,
                    nu: 1.0 / 128.0,
                    step: 1.0,
                    levels: 8,
                    mode: NeuronMode::If,
                    channels: 2,
                    h: 4,
                    w: 4,
                }),
            ],
            num_classes: 10,
        };
        assert_eq!(net.spiking_stage_count(), 3);
        assert!(net.to_string().contains("3 spiking stages"));
    }

    #[test]
    fn default_mode_is_if() {
        assert_eq!(NeuronMode::default(), NeuronMode::If);
    }
}
