//! Hardware-budget lints against the SIA resource model.
//!
//! Each PL-resident layer is planned with the accelerator compiler's own
//! scheduler ([`sia_accel::plan_conv`]) and the resulting
//! [`sia_accel::memory::LayerFootprint`] is checked against the memory map of the
//! target [`SiaConfig`] (paper Fig. 5 / §III):
//!
//! | rule | budget (PYNQ-Z2) | outcome when exceeded |
//! |------|------------------|-----------------------|
//! | `budget.weight-sram`   | 8 kB weight SRAM (64 × 3×3 kernels) | chunked weight streaming (warning) |
//! | `budget.membrane-bank` | 64 kB ping-pong U-banks (16 384 neurons/bank) | DDR membrane spill per timestep (warning) |
//! | `budget.residual-sram` | 128 kB residual memory | unschedulable (error) |
//! | `budget.output-sram`   | 56 kB output memory | unschedulable (error) |
//! | `budget.pe-map`        | 8×8 PE array | row-segment schedule, lower utilisation (warning) |
//!
//! Errors here coincide exactly with the compiler's
//! [`sia_accel::CompileError::LayerTooLarge`] rejections; warnings are the
//! fallback paths (streaming, spills) that cost bandwidth and latency but
//! still execute. Suggested fixes carry the mechanical remedy — the
//! channel-tiling factor that would bring the layer back inside the budget.

use crate::diag::{Diagnostic, Severity};
use sia_accel::{plan_conv, SiaConfig};
use sia_snn::{SnnConv, SnnItem, SnnNetwork};

/// Lints one PL-scheduled convolution geometry.
fn lint_conv(
    c: &SnnConv,
    config: &SiaConfig,
    timesteps: usize,
    idx: usize,
    name: &str,
    diags: &mut Vec<Diagnostic>,
) {
    let (_groups, footprint, _traffic) = plan_conv(&c.geom, config, timesteps, 0);
    let kernel_bytes = c.geom.in_channels * c.geom.kernel * c.geom.kernel;
    let group_bytes = config.pe_count().min(c.geom.out_channels) * kernel_bytes;
    if footprint.weight_chunks > 1 {
        diags.push(
            Diagnostic::new(
                "budget.weight-sram",
                Severity::Warning,
                idx,
                name,
                format!(
                    "kernel-group weights ({group_bytes} B) exceed the {} B weight SRAM; \
                     the compiler streams them in {} input-channel chunks per pass",
                    config.weight_mem_bytes, footprint.weight_chunks
                ),
            )
            .with_suggestion(format!(
                "tile input channels by a factor of {} so one chunk fits the weight \
                 memory, or shrink the layer width",
                footprint.weight_chunks
            )),
        );
    }
    if let Err(reason) = footprint.check(config) {
        // plan_conv clamps the chunk size, so in practice only the output
        // and residual memories can fail here; map the message to its rule.
        let rule = if reason.contains("output memory") {
            "budget.output-sram"
        } else if reason.contains("residual memory") {
            "budget.residual-sram"
        } else {
            "budget.weight-sram"
        };
        let factor = footprint
            .spike_out_bytes
            .div_ceil(config.output_mem_bytes.max(1))
            .max(2);
        diags.push(
            Diagnostic::new(rule, Severity::Error, idx, name, reason).with_suggestion(format!(
                "tile the layer's output channels by a factor of {factor} and run the \
                 slices as separate passes"
            )),
        );
    }
    let spill = footprint.membrane_spill_bytes(config);
    if spill > 0 {
        let bank_neurons = config.membrane_mem_bytes / 4;
        diags.push(
            Diagnostic::new(
                "budget.membrane-bank",
                Severity::Warning,
                idx,
                name,
                format!(
                    "{} membranes exceed the {} neurons one ping-pong U-bank holds \
                     ({} B membrane memory); {spill} B spill to DDR every timestep",
                    footprint.neurons, bank_neurons, config.membrane_mem_bytes
                ),
            )
            .with_suggestion(format!(
                "tile channels by a factor of {} so each slice's membranes fit one bank",
                footprint.neurons.div_ceil(bank_neurons)
            )),
        );
    }
    if c.geom.kernel > config.pe_rows {
        diags.push(
            Diagnostic::new(
                "budget.pe-map",
                Severity::Warning,
                idx,
                name,
                format!(
                    "kernel {0}x{0} is wider than the {1}x{2} PE array edge; rows are \
                     processed in segments, lowering PE utilisation",
                    c.geom.kernel, config.pe_rows, config.pe_cols
                ),
            )
            .with_suggestion(format!(
                "prefer kernels of at most {}x{} (the array is sized for 3x3)",
                config.pe_rows, config.pe_rows
            )),
        );
    }
}

/// Runs the budget lint suite for a `timesteps`-step inference on `config`.
#[must_use]
pub fn lint_budgets(net: &SnnNetwork, config: &SiaConfig, timesteps: usize) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    if let Err(m) = config.validate() {
        diags.push(Diagnostic::new(
            "budget.config",
            Severity::Error,
            0,
            "config",
            format!("invalid accelerator configuration: {m}"),
        ));
        return diags;
    }
    for (idx, item) in net.items.iter().enumerate() {
        match item {
            // The dense first layer and the head run PS-side (frame
            // conversion / driver-paced FC): no PL budgets apply.
            SnnItem::InputConv(_) | SnnItem::Head(_) => {}
            SnnItem::Conv(c) | SnnItem::ConvPsum(c) => {
                let name = format!(
                    "conv{}x{},{}@{}",
                    c.geom.kernel,
                    c.geom.kernel,
                    c.geom.out_channels,
                    c.geom.out_hw().0
                );
                lint_conv(c, config, timesteps, idx, &name, &mut diags);
            }
            SnnItem::BlockAdd(a) => {
                let name = format!("block-add@{}", a.h);
                if let Some(d) = &a.down {
                    lint_conv(d, config, timesteps, idx, &name, &mut diags);
                }
                // The skip currents stream through the residual memory: one
                // i16 per neuron per timestep (compiler footprint model).
                let residual_bytes = a.neurons() * 2;
                if residual_bytes > config.residual_mem_bytes {
                    diags.push(
                        Diagnostic::new(
                            "budget.residual-sram",
                            Severity::Error,
                            idx,
                            name.clone(),
                            format!(
                                "{residual_bytes} B of residual currents exceed the {} B \
                                 residual memory",
                                config.residual_mem_bytes
                            ),
                        )
                        .with_suggestion(format!(
                            "tile the block's channels by a factor of {}",
                            residual_bytes.div_ceil(config.residual_mem_bytes)
                        )),
                    );
                }
                let out_bytes = a.neurons().div_ceil(8);
                if out_bytes > config.output_mem_bytes {
                    diags.push(
                        Diagnostic::new(
                            "budget.output-sram",
                            Severity::Error,
                            idx,
                            name,
                            format!(
                                "{out_bytes} B of output spikes exceed the {} B output memory",
                                config.output_mem_bytes
                            ),
                        )
                        .with_suggestion(format!(
                            "tile the block's channels by a factor of {}",
                            out_bytes.div_ceil(config.output_mem_bytes)
                        )),
                    );
                }
            }
            SnnItem::BlockStart | SnnItem::MaxPoolOr { .. } => {}
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use sia_fixed::{QuantScale, Q8_8};
    use sia_snn::network::{ConvInput, NeuronMode, SnnLinear};
    use sia_tensor::Conv2dGeom;

    /// Hand-builds a converted conv with unit coefficients.
    fn conv(geom: Conv2dGeom, theta: i16) -> SnnConv {
        let n = geom.weight_count();
        let co = geom.out_channels;
        SnnConv {
            geom,
            weights: vec![1i8; n],
            q_w: QuantScale::new(7),
            input: ConvInput::Spikes { value: 1.0 },
            g: vec![Q8_8::ONE; co],
            h: vec![0; co],
            theta,
            nu: 1.0 / f32::from(theta.max(1)),
            gf: vec![1.0 / f32::from(theta.max(1)); co],
            hf: vec![0.0; co],
            step: 1.0,
            levels: 8,
            mode: NeuronMode::If,
        }
    }

    fn head(channels: usize) -> SnnLinear {
        SnnLinear {
            weights: vec![1i8; 2 * channels],
            q: QuantScale::new(7),
            bias: vec![0.0; 2],
            weights_f: vec![0.01; 2 * channels],
            channels,
            in_h: 1,
            in_w: 1,
            out: 2,
        }
    }

    fn net_of(items: Vec<SnnItem>) -> SnnNetwork {
        SnnNetwork {
            name: "lint-test".into(),
            input: (1, 8, 8),
            items,
            num_classes: 2,
        }
    }

    #[test]
    fn small_conv_is_clean() {
        let g = Conv2dGeom {
            in_channels: 4,
            out_channels: 8,
            in_h: 8,
            in_w: 8,
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        let net = net_of(vec![SnnItem::Conv(conv(g, 128)), SnnItem::Head(head(8))]);
        let diags = lint_budgets(&net, &SiaConfig::pynq_z2(), 8);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn oversized_weights_warn_with_tiling_factor() {
        // 64 kernels × (64·3·3 = 576 B) = 36 kB > 8 kB weight SRAM
        let g = Conv2dGeom {
            in_channels: 64,
            out_channels: 64,
            in_h: 8,
            in_w: 8,
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        let net = net_of(vec![SnnItem::Conv(conv(g, 128)), SnnItem::Head(head(64))]);
        let diags = lint_budgets(&net, &SiaConfig::pynq_z2(), 8);
        let w = diags
            .iter()
            .find(|d| d.rule == "budget.weight-sram")
            .expect("weight lint");
        assert_eq!(w.severity, Severity::Warning);
        assert!(w.suggestion.as_ref().unwrap().contains("factor of 5"));
    }

    #[test]
    fn membrane_spill_warns() {
        // 64 × 32 × 32 = 65 536 neurons > 16 384-neuron bank
        let g = Conv2dGeom {
            in_channels: 4,
            out_channels: 64,
            in_h: 32,
            in_w: 32,
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        let net = net_of(vec![SnnItem::Conv(conv(g, 128)), SnnItem::Head(head(64))]);
        let diags = lint_budgets(&net, &SiaConfig::pynq_z2(), 8);
        let m = diags
            .iter()
            .find(|d| d.rule == "budget.membrane-bank")
            .expect("membrane lint");
        assert!(m.message.contains("65536 membranes"));
        assert!(m.suggestion.as_ref().unwrap().contains("factor of 4"));
    }

    #[test]
    fn output_overflow_is_an_error() {
        // 1 024 × 64 × 64 spikes / 8 = 524 288 B > 56 kB output memory; use
        // 1×1 kernels to keep the weight side small.
        let g = Conv2dGeom {
            in_channels: 1,
            out_channels: 1024,
            in_h: 64,
            in_w: 64,
            kernel: 1,
            stride: 1,
            padding: 0,
        };
        let net = net_of(vec![SnnItem::Conv(conv(g, 128)), SnnItem::Head(head(1024))]);
        let diags = lint_budgets(&net, &SiaConfig::pynq_z2(), 8);
        let e = diags
            .iter()
            .find(|d| d.rule == "budget.output-sram")
            .expect("output lint");
        assert_eq!(e.severity, Severity::Error);
    }

    #[test]
    fn wide_kernels_trip_pe_map() {
        let g = Conv2dGeom {
            in_channels: 1,
            out_channels: 4,
            in_h: 32,
            in_w: 32,
            kernel: 11,
            stride: 1,
            padding: 5,
        };
        let net = net_of(vec![SnnItem::Conv(conv(g, 128)), SnnItem::Head(head(4))]);
        let diags = lint_budgets(&net, &SiaConfig::pynq_z2(), 8);
        assert!(diags.iter().any(|d| d.rule == "budget.pe-map"));
    }

    #[test]
    fn invalid_config_short_circuits() {
        let g = Conv2dGeom {
            in_channels: 4,
            out_channels: 8,
            in_h: 8,
            in_w: 8,
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        let net = net_of(vec![SnnItem::Conv(conv(g, 128)), SnnItem::Head(head(8))]);
        let mut cfg = SiaConfig::pynq_z2();
        cfg.pe_rows = 0;
        let diags = lint_budgets(&net, &cfg, 8);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, "budget.config");
        assert_eq!(diags[0].severity, Severity::Error);
    }
}
