//! Shared harness for the table/figure regeneration binaries.
//!
//! Every table and figure of the paper's evaluation section has a binary in
//! `src/bin/` (see DESIGN.md §4 for the index); the helpers here hold the
//! code they share: the train → quantize → convert pipeline on the slim
//! networks, synthetic spike-grid generation for the data-independent
//! latency tables, and side-by-side paper-vs-measured printing.

#![forbid(unsafe_code)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sia_dataset::{SynthConfig, SynthDataset};
use sia_nn::resnet::ResNet;
use sia_nn::trainer::TrainConfig;
use sia_nn::vgg::Vgg;
use sia_nn::Model;
use sia_quant::{quantize_pipeline, QatConfig, QuantizedOutcome};
use sia_snn::spikeplane::SpikePlane;
use sia_snn::{convert, ConvertOptions, SnnNetwork};
use std::sync::Arc;

/// Scale of a figure run: `quick` trains smaller/shorter (CI-friendly),
/// `full` is the default reported in EXPERIMENTS.md.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunScale {
    /// Reduced sample counts and epochs.
    Quick,
    /// The EXPERIMENTS.md configuration.
    Full,
}

impl RunScale {
    /// Parses `--quick` from the process arguments.
    #[must_use]
    pub fn from_args() -> Self {
        if std::env::args().any(|a| a == "--quick") {
            RunScale::Quick
        } else {
            RunScale::Full
        }
    }
}

/// Parses `--threads N` from the process arguments (default 1; `0` means
/// one worker per available core). Passed to [`sia_snn::BatchEvaluator`]
/// by the accuracy/spike-rate figure binaries.
#[must_use]
pub fn threads_from_args() -> usize {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--threads" {
            return args.next().and_then(|v| v.parse().ok()).unwrap_or(1);
        }
    }
    1
}

/// Everything the accuracy/spike-rate figures need.
pub struct TrainedPipeline {
    /// The dataset the curves are measured on.
    pub data: SynthDataset,
    /// Quantisation outcome (FP32 + quantized accuracies, steps).
    pub outcome: QuantizedOutcome,
    /// The converted spiking network, shared with the engine factories
    /// ([`sia_snn::FloatEngineFactory`] et al. take an `Arc`).
    pub snn: Arc<SnnNetwork>,
}

fn dataset(scale: RunScale) -> SynthDataset {
    let cfg = SynthConfig {
        image_size: 16,
        noise_std: 0.10,
        seed: 0x51A,
    };
    match scale {
        RunScale::Quick => SynthDataset::generate(&cfg, 300, 80),
        RunScale::Full => SynthDataset::generate(&cfg, 1000, 200),
    }
}

fn train_cfg(scale: RunScale) -> TrainConfig {
    match scale {
        RunScale::Quick => TrainConfig {
            epochs: 6,
            batch_size: 32,
            lr: 0.05,
            augment_shift: 1,
            lr_decay_epochs: vec![5],
            ..TrainConfig::default()
        },
        RunScale::Full => TrainConfig {
            epochs: 16,
            batch_size: 32,
            lr: 0.05,
            augment_shift: 1,
            lr_decay_epochs: vec![12, 15],
            ..TrainConfig::default()
        },
    }
}

fn qat_cfg(scale: RunScale) -> QatConfig {
    QatConfig {
        levels: 8,
        calib_fraction: 0.95,
        calib_batch: 32,
        finetune: TrainConfig {
            epochs: if scale == RunScale::Quick { 2 } else { 5 },
            batch_size: 32,
            lr: 0.01,
            augment_shift: 1,
            lr_decay_epochs: vec![],
            ..TrainConfig::default()
        },
    }
}

fn finish(mut model: Box<dyn Model>, data: SynthDataset, scale: RunScale) -> TrainedPipeline {
    let t0 = std::time::Instant::now();
    let report = sia_nn::trainer::train(model.as_mut(), &data, &train_cfg(scale));
    eprintln!(
        "[harness] trained {} to {:.3} test accuracy in {:.0?}",
        model.name(),
        report.final_test_acc(),
        t0.elapsed()
    );
    let outcome = quantize_pipeline(model.as_mut(), &data, &qat_cfg(scale));
    eprintln!(
        "[harness] quantized: fp32 {:.3} → quant {:.3}",
        outcome.fp32_accuracy, outcome.quantized_accuracy
    );
    let snn = convert(
        &model.to_spec(),
        &ConvertOptions {
            input_max_abs: 1.0,
            ..ConvertOptions::default()
        },
    );
    TrainedPipeline {
        data,
        outcome,
        snn: Arc::new(snn),
    }
}

/// Trains, quantizes and converts the slim ResNet-18 (Figs. 6 and 7).
#[must_use]
pub fn resnet_pipeline(scale: RunScale) -> TrainedPipeline {
    let data = dataset(scale);
    let model = Box::new(ResNet::resnet18(8, 16, 10, 0xE5));
    finish(model, data, scale)
}

/// Trains, quantizes and converts the slim VGG-11 (Figs. 8 and 9).
#[must_use]
pub fn vgg_pipeline(scale: RunScale) -> TrainedPipeline {
    let data = dataset(scale);
    let model = Box::new(Vgg::vgg11(8, 16, 10, 0xB6));
    finish(model, data, scale)
}

/// A random spike plane `[channels, h, w]` at the given rate (the measured
/// average rates of Figs. 6/8 drive the Table I/II latency benches).
#[must_use]
pub fn synthetic_spikes(channels: usize, h: usize, w: usize, rate: f64, seed: u64) -> SpikePlane {
    let mut rng = StdRng::seed_from_u64(seed);
    let bytes: Vec<u8> = (0..channels * h * w)
        .map(|_| u8::from(rng.gen_bool(rate)))
        .collect();
    let mut plane = SpikePlane::default();
    plane.pack_from_bytes(channels, h, w, &bytes);
    plane
}

/// Prints a two-column paper-vs-measured comparison line.
pub fn print_vs(label: &str, paper: f64, measured: f64, unit: &str) {
    let ratio = if paper != 0.0 {
        measured / paper
    } else {
        f64::NAN
    };
    println!("{label:<28} paper {paper:>10.4} {unit:<8} measured {measured:>10.4} {unit:<8} (x{ratio:.2})");
}

/// Prints a section header.
pub fn header(title: &str) {
    println!("\n=== {title} ===");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_spikes_hit_requested_rate() {
        let rate = synthetic_spikes(16, 32, 32, 0.16, 1).density();
        assert!((rate - 0.16).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn synthetic_spikes_are_seeded() {
        assert_eq!(
            synthetic_spikes(2, 4, 4, 0.5, 9),
            synthetic_spikes(2, 4, 4, 0.5, 9)
        );
        assert_ne!(
            synthetic_spikes(2, 4, 4, 0.5, 9),
            synthetic_spikes(2, 4, 4, 0.5, 10)
        );
    }

    #[test]
    fn quick_dataset_is_smaller() {
        assert!(dataset(RunScale::Quick).train.len() < dataset(RunScale::Full).train.len());
    }
}
