//! Accelerator end-to-end integration tests: the cycle-level machine
//! against the functional simulators across whole trained networks, plus
//! latency-model invariants.

use sia_accel::{compile_for, plan_conv, SiaConfig, SiaMachine};
use sia_dataset::{SynthConfig, SynthDataset};
use sia_nn::resnet::ResNet;
use sia_nn::trainer::TrainConfig;
use sia_nn::vgg::Vgg;
use sia_nn::Model;
use sia_quant::{quantize_pipeline, QatConfig};
use sia_snn::{convert, ConvertOptions, IntRunner, SnnNetwork};
use sia_tensor::Conv2dGeom;

fn trained_snn(resnet: bool) -> (SnnNetwork, SynthDataset) {
    let data = SynthDataset::generate(
        &SynthConfig {
            image_size: 8,
            noise_std: 0.05,
            seed: 91,
        },
        160,
        24,
    );
    let cfg = TrainConfig {
        epochs: 3,
        batch_size: 32,
        lr: 0.04,
        augment_shift: 0,
        lr_decay_epochs: vec![],
        ..TrainConfig::default()
    };
    let qat = QatConfig {
        finetune: TrainConfig {
            epochs: 1,
            batch_size: 32,
            lr: 0.005,
            augment_shift: 0,
            lr_decay_epochs: vec![],
            ..TrainConfig::default()
        },
        ..QatConfig::default()
    };
    let spec = if resnet {
        let mut m = ResNet::resnet18(3, 8, 10, 17);
        let _ = sia_nn::trainer::train(&mut m, &data, &cfg);
        let _ = quantize_pipeline(&mut m, &data, &qat);
        m.to_spec()
    } else {
        let mut m = Vgg::vgg11(2, 8, 10, 18);
        let _ = sia_nn::trainer::train(&mut m, &data, &cfg);
        let _ = quantize_pipeline(&mut m, &data, &qat);
        m.to_spec()
    };
    (convert(&spec, &ConvertOptions::default()), data)
}

#[test]
fn machine_is_bit_exact_on_trained_resnet() {
    let (snn, data) = trained_snn(true);
    let cfg = SiaConfig::pynq_z2();
    let mut machine = SiaMachine::new(compile_for(&snn, &cfg, 8).unwrap(), cfg);
    for i in 0..6 {
        let (img, _) = data.test.get(i);
        let hw = machine.run(img, 8);
        let sw = IntRunner::new(&snn).run(img, 8);
        assert_eq!(hw.logits_per_t, sw.logits_per_t, "image {i} diverged");
        assert_eq!(
            hw.stats.spikes, sw.stats.spikes,
            "image {i} spikes diverged"
        );
    }
}

#[test]
fn machine_is_bit_exact_on_trained_vgg() {
    let (snn, data) = trained_snn(false);
    let cfg = SiaConfig::pynq_z2();
    let mut machine = SiaMachine::new(compile_for(&snn, &cfg, 8).unwrap(), cfg);
    for i in 0..4 {
        let (img, _) = data.test.get(i);
        let hw = machine.run(img, 8);
        let sw = IntRunner::new(&snn).run(img, 8);
        assert_eq!(hw.logits_per_t, sw.logits_per_t, "image {i} diverged");
    }
}

#[test]
fn machine_is_bit_exact_on_smaller_pe_arrays() {
    // Reconfigurability: results must be identical for any array size —
    // only the cycle counts change.
    let (snn, data) = trained_snn(true);
    let (img, _) = data.test.get(0);
    let reference = IntRunner::new(&snn).run(img, 8);
    let mut cycles = Vec::new();
    for dim in [2usize, 4, 8] {
        let cfg = SiaConfig {
            pe_rows: dim,
            pe_cols: dim,
            ..SiaConfig::pynq_z2()
        };
        let mut machine = SiaMachine::new(compile_for(&snn, &cfg, 8).unwrap(), cfg);
        let run = machine.run(img, 8);
        assert_eq!(
            run.logits_per_t, reference.logits_per_t,
            "{dim}x{dim} diverged"
        );
        // total latency is overhead/transfer-dominated for this tiny net,
        // so compare the spiking-core compute cycles
        let compute: u64 = run
            .report
            .layers
            .iter()
            .filter(|l| l.name.starts_with("conv"))
            .map(|l| l.compute_cycles)
            .sum();
        cycles.push(compute);
    }
    // fewer PEs ⇒ more compute cycles
    assert!(cycles[0] > cycles[1] && cycles[1] > cycles[2], "{cycles:?}");
}

#[test]
fn equal_mac_layers_have_comparable_compute() {
    // The Table I invariant: conv 64@32², 128@16², 256@8², 512@4² (C_in =
    // C_out) all have 37.7M MACs; at equal spike rates the event-driven
    // compute cycles must agree within a small factor.
    use sia_accel::spiking_core::layer_passes;
    use sia_snn::spikeplane::SpikePlane;
    let cfg = SiaConfig::pynq_z2();
    let mut compute = Vec::new();
    for (ch, hw) in [(64usize, 32usize), (128, 16), (256, 8), (512, 4)] {
        let geom = Conv2dGeom {
            in_channels: ch,
            out_channels: ch,
            in_h: hw,
            in_w: hw,
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        // deterministic ~0.16-rate spikes
        let spikes: Vec<u8> = (0..ch * hw * hw).map(|i| u8::from(i % 6 == 0)).collect();
        let mut plane = SpikePlane::default();
        plane.pack_from_bytes(ch, hw, hw, &spikes);
        let (groups, _, _) = plan_conv(&geom, &cfg, 8, 0);
        compute.push(layer_passes(&geom, &plane, &groups, &cfg).cycles);
    }
    let min = *compute.iter().min().unwrap() as f64;
    let max = *compute.iter().max().unwrap() as f64;
    assert!(
        max / min < 2.0,
        "equal-MAC layers diverged in compute: {compute:?}"
    );
}

#[test]
fn traffic_plan_scales_with_timesteps() {
    let geom = Conv2dGeom {
        in_channels: 16,
        out_channels: 16,
        in_h: 16,
        in_w: 16,
        kernel: 3,
        stride: 1,
        padding: 1,
    };
    let cfg = SiaConfig::pynq_z2();
    let (_, _, t8) = plan_conv(&geom, &cfg, 8, 0);
    let (_, _, t16) = plan_conv(&geom, &cfg, 16, 0);
    // weights stream once regardless of T; spikes scale linearly
    assert_eq!(t8.weight_bytes, t16.weight_bytes);
    assert_eq!(t16.spike_in_bytes, 2 * t8.spike_in_bytes);
    assert_eq!(t16.spike_out_bytes, 2 * t8.spike_out_bytes);
}

#[test]
fn lif_mode_runs_end_to_end_on_the_machine() {
    let (snn, data) = trained_snn(true);
    let mut lif = snn.clone();
    for item in &mut lif.items {
        match item {
            sia_snn::SnnItem::InputConv(c)
            | sia_snn::SnnItem::Conv(c)
            | sia_snn::SnnItem::ConvPsum(c) => {
                c.mode = sia_snn::NeuronMode::Lif { leak_shift: 3 };
            }
            sia_snn::SnnItem::BlockAdd(a) => {
                a.mode = sia_snn::NeuronMode::Lif { leak_shift: 3 };
            }
            _ => {}
        }
    }
    let cfg = SiaConfig::pynq_z2();
    let mut machine = SiaMachine::new(compile_for(&lif, &cfg, 8).unwrap(), cfg);
    let (img, _) = data.test.get(0);
    let hw = machine.run(img, 8);
    let sw = IntRunner::new(&lif).run(img, 8);
    assert_eq!(hw.logits_per_t, sw.logits_per_t, "LIF mode diverged");
    // the leak strictly reduces total activity vs IF on the same input
    let if_run = IntRunner::new(&snn).run(img, 8);
    let lif_total: u64 = sw.stats.spikes.iter().sum();
    let if_total: u64 = if_run.stats.spikes.iter().sum();
    assert!(lif_total <= if_total, "LIF {lif_total} > IF {if_total}");
}
