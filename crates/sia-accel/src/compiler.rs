//! Maps a converted spiking network onto the SIA (Fig. 5's "implementation
//! flow"): kernel-group tiling, weight-chunk streaming, footprint checking
//! and PS↔PL traffic planning.

use crate::axi::LayerTraffic;
use crate::config::SiaConfig;
use crate::memory::LayerFootprint;
use sia_snn::{SnnItem, SnnNetwork};
use std::fmt;

/// Why a network cannot be compiled for a given configuration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CompileError {
    /// The configuration itself is invalid.
    BadConfig(String),
    /// A layer exceeds a memory even after chunking; carries the layer
    /// index and the memory-check message.
    LayerTooLarge {
        /// Index into the network's item list.
        layer: usize,
        /// The failing footprint check.
        reason: String,
    },
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::BadConfig(m) => write!(f, "invalid configuration: {m}"),
            CompileError::LayerTooLarge { layer, reason } => {
                write!(f, "layer {layer} cannot be scheduled: {reason}")
            }
        }
    }
}

impl std::error::Error for CompileError {}

/// Scheduling decisions for one network item.
#[derive(Clone, Debug, PartialEq)]
pub struct LayerProgram {
    /// Index into `SnnNetwork::items`.
    pub item_index: usize,
    /// Human-readable label.
    pub name: String,
    /// Kernel groups `(start, size)` — one PE-array pass each.
    pub kernel_groups: Vec<(usize, usize)>,
    /// Memory footprint (absent for markers like `BlockStart`).
    pub footprint: Option<LayerFootprint>,
    /// Planned PS↔PL traffic for a `T`-timestep inference.
    pub traffic: LayerTraffic,
    /// Whether this item runs on the PL (false = PS-side: input layer,
    /// head).
    pub on_pl: bool,
}

/// A compiled accelerator program.
#[derive(Clone, Debug)]
pub struct Program {
    /// The source network (owned; the machine executes against it).
    pub network: SnnNetwork,
    /// One entry per network item.
    pub layers: Vec<LayerProgram>,
    /// Timestep count the traffic plan was computed for.
    pub timesteps: usize,
}

fn kernel_groups(out_channels: usize, pe_count: usize) -> Vec<(usize, usize)> {
    let mut groups = Vec::new();
    let mut start = 0;
    while start < out_channels {
        let size = (out_channels - start).min(pe_count);
        groups.push((start, size));
        start += size;
    }
    groups
}

/// Plans one convolution geometry: kernel groups, memory footprint and
/// PS↔PL traffic for a `timesteps`-step inference. Public so that latency
/// studies (Tables I and II) can cost arbitrary geometries without building
/// a full network.
#[must_use]
pub fn plan_conv(
    geom: &sia_tensor::Conv2dGeom,
    config: &SiaConfig,
    timesteps: usize,
    residual_neurons: usize,
) -> (Vec<(usize, usize)>, LayerFootprint, LayerTraffic) {
    let groups = kernel_groups(geom.out_channels, config.pe_count());
    let kernel_bytes = geom.in_channels * geom.kernel * geom.kernel;
    let group_weight_bytes = config.pe_count().min(geom.out_channels) * kernel_bytes;
    let weight_total = geom.weight_count();
    // If a group's weights exceed the weight memory, the layer streams them
    // in input-channel chunks; each chunk still holds all group kernels for
    // the covered channels.
    let weight_chunks = group_weight_bytes.div_ceil(config.weight_mem_bytes);
    let weight_chunk_bytes = group_weight_bytes.min(config.weight_mem_bytes);
    let (oh, ow) = geom.out_hw();
    let neurons = geom.out_channels * oh * ow;
    let spike_in_bytes = (geom.in_channels * geom.in_h * geom.in_w).div_ceil(8);
    let spike_out_bytes = neurons.div_ceil(8);
    let footprint = LayerFootprint {
        weight_chunk_bytes,
        weight_total_bytes: weight_total,
        weight_chunks,
        neurons,
        spike_in_bytes,
        spike_out_bytes,
        residual_bytes: residual_neurons * 2,
    };
    // Weights stream once per inference: when a layer exceeds the weight
    // memory it is processed chunk-by-chunk with all T timesteps per chunk
    // (partial sums parked in the residual memory), so chunking never
    // re-streams weights. The per-channel G/H coefficients (4 bytes per
    // output channel) ride the same stream path.
    let traffic = LayerTraffic {
        weight_bytes: weight_total + 4 * geom.out_channels,
        // membrane spill (neurons beyond the U-state banks) rides the same
        // stream path, once per timestep
        spike_in_bytes: spike_in_bytes * timesteps
            + footprint.membrane_spill_bytes(config) * timesteps,
        spike_out_bytes: spike_out_bytes * timesteps,
        residual_bytes: residual_neurons * 2 * timesteps,
        config_words: 8, // geometry/threshold/mode registers
        mmio_data_words: 0,
    };
    (groups, footprint, traffic)
}

/// Compiles `network` for `config`, planning a `timesteps`-step inference.
///
/// # Errors
///
/// Returns [`CompileError`] when the configuration is invalid or a layer
/// exceeds the memory map even after chunking.
pub fn compile(network: &SnnNetwork, config: &SiaConfig) -> Result<Program, CompileError> {
    compile_for(network, config, 8)
}

/// [`compile`] with an explicit timestep count for the traffic plan.
///
/// # Errors
///
/// Same as [`compile`].
pub fn compile_for(
    network: &SnnNetwork,
    config: &SiaConfig,
    timesteps: usize,
) -> Result<Program, CompileError> {
    config.validate().map_err(CompileError::BadConfig)?;
    let mut layers = Vec::new();
    for (idx, item) in network.items.iter().enumerate() {
        let lp = match item {
            SnnItem::InputConv(c) => {
                // PS-side frame conversion: traffic is the output spikes
                // handed to the PL plus configuration.
                let (groups, footprint, mut traffic) = plan_conv(&c.geom, config, timesteps, 0);
                traffic.weight_bytes = 0; // weights stay in DDR (PS compute)
                traffic.spike_in_bytes = 0;
                LayerProgram {
                    item_index: idx,
                    name: format!(
                        "input-conv{}x{},{}",
                        c.geom.kernel, c.geom.kernel, c.geom.out_channels
                    ),
                    kernel_groups: groups,
                    footprint: Some(footprint),
                    traffic,
                    on_pl: false,
                }
            }
            SnnItem::Conv(c) | SnnItem::ConvPsum(c) => {
                let (groups, footprint, traffic) = plan_conv(&c.geom, config, timesteps, 0);
                footprint
                    .check(config)
                    .map_err(|reason| CompileError::LayerTooLarge { layer: idx, reason })?;
                LayerProgram {
                    item_index: idx,
                    name: format!(
                        "conv{}x{},{}@{}",
                        c.geom.kernel,
                        c.geom.kernel,
                        c.geom.out_channels,
                        c.geom.out_hw().0
                    ),
                    kernel_groups: groups,
                    footprint: Some(footprint),
                    traffic,
                    on_pl: true,
                }
            }
            SnnItem::BlockStart => LayerProgram {
                item_index: idx,
                name: "block-start".into(),
                kernel_groups: Vec::new(),
                footprint: None,
                traffic: LayerTraffic::default(),
                on_pl: true,
            },
            SnnItem::BlockAdd(a) => {
                // The skip currents are "pre-computed partial sums read from
                // the processor" (§IV): residual stream traffic, one i16 per
                // neuron per timestep, buffered in the 128 kB residual
                // memory.
                let neurons = a.neurons();
                let footprint = LayerFootprint {
                    weight_chunk_bytes: 0,
                    weight_total_bytes: a.down.as_ref().map_or(0, |d| d.geom.weight_count()),
                    weight_chunks: 0,
                    neurons,
                    spike_in_bytes: 0,
                    spike_out_bytes: neurons.div_ceil(8),
                    residual_bytes: neurons * 2,
                };
                footprint
                    .check(config)
                    .map_err(|reason| CompileError::LayerTooLarge { layer: idx, reason })?;
                LayerProgram {
                    item_index: idx,
                    name: format!("block-add@{}", a.h),
                    kernel_groups: Vec::new(),
                    footprint: Some(footprint),
                    traffic: LayerTraffic {
                        weight_bytes: 0,
                        spike_in_bytes: 0,
                        spike_out_bytes: neurons.div_ceil(8) * timesteps,
                        residual_bytes: neurons * 2 * timesteps,
                        config_words: 4,
                        mmio_data_words: 0,
                    },
                    on_pl: true,
                }
            }
            SnnItem::MaxPoolOr { channels, h, w } => LayerProgram {
                item_index: idx,
                name: format!("or-pool@{h}"),
                kernel_groups: Vec::new(),
                footprint: None,
                traffic: LayerTraffic {
                    spike_out_bytes: (channels * h * w / 4).div_ceil(8) * timesteps,
                    ..LayerTraffic::default()
                },
                on_pl: true,
            },
            SnnItem::Head(l) => {
                // Driver-paced FC (Table I's ≈ 59 ms row): weights re-sent
                // per timestep over MMIO plus spike upload and readback.
                let weight_words = (l.out * l.channels).div_ceil(4);
                let spike_words = (l.channels * l.in_h * l.in_w).div_ceil(32);
                LayerProgram {
                    item_index: idx,
                    name: format!("fc{}x{}", l.channels * l.in_h * l.in_w, l.out),
                    kernel_groups: Vec::new(),
                    footprint: None,
                    traffic: LayerTraffic {
                        mmio_data_words: (weight_words + spike_words + l.out) * timesteps,
                        config_words: 4,
                        ..LayerTraffic::default()
                    },
                    on_pl: false,
                }
            }
        };
        layers.push(lp);
    }
    Ok(Program {
        network: network.clone(),
        layers,
        timesteps,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sia_nn::{ActSpec, ConvSpec, LinearSpec, NetworkSpec, SpecItem};
    use sia_snn::{convert, ConvertOptions};
    use sia_tensor::{Conv2dGeom, Tensor};

    fn spec(cout: usize, hw: usize) -> NetworkSpec {
        let geom = Conv2dGeom {
            in_channels: 3,
            out_channels: cout,
            in_h: hw,
            in_w: hw,
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        NetworkSpec {
            name: "t".into(),
            input: (3, hw, hw),
            items: vec![
                SpecItem::Conv(ConvSpec {
                    geom,
                    weights: Tensor::full(vec![cout, 3, 3, 3], 0.1),
                    bn: None,
                    act: Some(ActSpec {
                        levels: 8,
                        step: 1.0,
                    }),
                }),
                SpecItem::Conv(ConvSpec {
                    geom: Conv2dGeom {
                        in_channels: cout,
                        out_channels: cout,
                        ..geom
                    },
                    weights: Tensor::full(vec![cout, cout, 3, 3], 0.1),
                    bn: None,
                    act: Some(ActSpec {
                        levels: 8,
                        step: 1.0,
                    }),
                }),
                SpecItem::GlobalAvgPool,
                SpecItem::Linear(LinearSpec {
                    in_features: cout,
                    out_features: 10,
                    weights: Tensor::full(vec![10, cout], 0.1),
                    bias: vec![0.0; 10],
                }),
            ],
        }
    }

    #[test]
    fn kernel_groups_split_at_pe_count() {
        assert_eq!(kernel_groups(64, 64), vec![(0, 64)]);
        assert_eq!(kernel_groups(100, 64), vec![(0, 64), (64, 36)]);
        assert_eq!(kernel_groups(10, 64), vec![(0, 10)]);
    }

    #[test]
    fn compile_small_network() {
        let net = convert(&spec(16, 8), &ConvertOptions::default());
        let p = compile(&net, &SiaConfig::pynq_z2()).unwrap();
        assert_eq!(p.layers.len(), net.items.len());
        // input conv runs PS-side, second conv on PL, head PS-side
        assert!(!p.layers[0].on_pl);
        assert!(p.layers[1].on_pl);
        assert!(!p.layers.last().unwrap().on_pl);
    }

    #[test]
    fn wide_layers_get_multiple_groups() {
        let net = convert(&spec(100, 8), &ConvertOptions::default());
        let p = compile(&net, &SiaConfig::pynq_z2()).unwrap();
        assert_eq!(p.layers[1].kernel_groups.len(), 2);
    }

    #[test]
    fn oversized_weight_chunks_are_streamed_not_rejected() {
        // conv 64→64 at 3×3: one group's weights are 36 kB > 8 kB weight
        // memory ⇒ chunked streaming, still compilable.
        let net = convert(&spec(64, 16), &ConvertOptions::default());
        let p = compile(&net, &SiaConfig::pynq_z2()).unwrap();
        let fp = p.layers[1].footprint.as_ref().unwrap();
        assert!(fp.weight_chunks > 1);
        // chunked, but still streamed only once per inference (+ G/H)
        assert_eq!(p.layers[1].traffic.weight_bytes, 64 * 64 * 9 + 4 * 64);
    }

    #[test]
    fn membrane_overflow_spills_to_ddr() {
        // 64 channels at 64×64 = 262144 neurons > 16384-neuron bank:
        // compiles, with spill traffic planned on the stream path.
        let net = convert(&spec(64, 64), &ConvertOptions::default());
        let p = compile(&net, &SiaConfig::pynq_z2()).unwrap();
        let fp = p.layers[1].footprint.as_ref().unwrap();
        assert!(fp.membrane_spill_bytes(&SiaConfig::pynq_z2()) > 0);
        assert!(p.layers[1].traffic.spike_in_bytes > 64 * 64 * 64 / 8 * 8);
    }

    #[test]
    fn bad_config_is_rejected() {
        let net = convert(&spec(8, 8), &ConvertOptions::default());
        let mut cfg = SiaConfig::pynq_z2();
        cfg.pe_rows = 0;
        assert!(matches!(
            compile(&net, &cfg),
            Err(CompileError::BadConfig(_))
        ));
    }

    #[test]
    fn head_traffic_is_mmio_paced() {
        let net = convert(&spec(16, 8), &ConvertOptions::default());
        let p = compile(&net, &SiaConfig::pynq_z2()).unwrap();
        let head = p.layers.last().unwrap();
        assert!(head.traffic.mmio_data_words > 0);
        assert_eq!(head.traffic.stream_bytes(), 0);
    }
}
