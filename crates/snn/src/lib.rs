//! ANN→SNN conversion and functional spiking simulation (step 3 of Fig. 1).
//!
//! Takes the quantized [`sia_nn::NetworkSpec`] produced by `sia-quant` and
//! *"replaces the Quantized ReLU with an IF layer with threshold `s^l` (all
//! parameters in INT8 precision)"* (paper §II-A). Two execution modes share
//! one converted network:
//!
//! * **float mode** — IF/LIF dynamics in `f32`, the reference used for the
//!   accuracy-vs-timesteps curves (Figs. 7 and 9),
//! * **integer mode** — INT8 weights, Q8.8 batch-norm coefficients `G`/`H`,
//!   saturating 16-bit membranes and thresholds: exactly the datapath of the
//!   SIA accelerator. The cycle-level machine in `sia-accel` is proven
//!   bit-exact against this runner.
//!
//! Both modes use **reset-by-subtraction** (the paper's choice, §II) with the
//! θ/2 membrane pre-charge that makes layer-1 spike counts reproduce the
//! quantized ReLU exactly when `T = L`.
//!
//! Spike-rate statistics per layer ([`stats`]) regenerate Figs. 6 and 8.
//!
//! # Examples
//!
//! ```no_run
//! use sia_snn::{convert, ConvertOptions, FloatRunner};
//! # let spec: sia_nn::NetworkSpec = unimplemented!();
//! let net = convert(&spec, &ConvertOptions::default());
//! let mut runner = FloatRunner::new(&net);
//! # let image: sia_tensor::Tensor = unimplemented!();
//! let out = runner.run(&image, 8);
//! println!("predicted class {}", out.predicted());
//! ```

#![forbid(unsafe_code)]

pub mod convert;
pub mod encode;
pub mod eval;
pub mod exit;
pub mod network;
pub mod neuron;
pub mod runner;
pub mod scratch;
pub mod sparse;
pub mod spikeplane;
pub mod stats;
pub mod surrogate;

pub use convert::{convert, ConvertOptions, InputEncoding};
pub use encode::{rate_encode, EventStream};
pub use eval::{
    BatchEvaluator, EngineFactory, EnginePool, EvalBatch, EvalConfig, EvalEncoding, EvalOutcome,
    FloatEngineFactory, IntEngineFactory, PoolError,
};
pub use exit::{
    default_exit_path, logit_margin, normalized_entropy, should_exit, simulate_exit,
    ExitCalibration, ExitPolicy, EXIT_CALIBRATION_VERSION,
};
pub use network::{NeuronMode, SnnConv, SnnItem, SnnLinear, SnnNetwork};
pub use runner::{
    conv_psums_dense, conv_psums_f32, conv_psums_int, drive, drive_policy, head_readout_int,
    or_pool, spiking_stage_sizes, DriveScratch, Engine, EngineInput, FloatRunner, IntRunner,
    SnnOutput,
};
pub use scratch::{scratch_growth, scratch_reserve_default, scratch_resize};
pub use sparse::{
    conv_psums_dense_f32_into, conv_psums_dense_into, conv_psums_f32_plane, conv_psums_int_plane,
    conv_psums_int_scatter, conv_psums_int_tiled, ConvScratch, CostModel, KernelPolicy,
};
pub use spikeplane::{or_pool_packed, SpikePlane};
pub use stats::SpikeStats;
