//! The pass-through engine and factory must be invisible: with them in
//! place `drive_policy` and the pool produce the same outcome, the same taps
//! and the same cycle report as with the bare engine, on every backend and
//! under both exit policies.

use sia_accel::SiaEngineFactory;
use sia_e2ebench::common::{
    build_machine, evaluator, image_pool, load_model, margin_policy, TIMESTEPS,
};
use sia_e2ebench::passthrough::{Recorder, Traced, TracedFactory};
use sia_e2ebench::trace::Clock;
use sia_serve::LoadedModel;
use sia_snn::{
    drive_policy, BatchEvaluator, Engine, EngineFactory, EngineInput, EvalConfig, EvalEncoding,
    ExitPolicy, FloatEngineFactory, IntEngineFactory, KernelPolicy,
};
use sia_tensor::Tensor;
use std::fmt::Debug;
use std::sync::Arc;

const IMAGES: usize = 6;

fn policies() -> [ExitPolicy; 3] {
    [
        ExitPolicy::Fixed,
        margin_policy(),
        ExitPolicy::Margin {
            threshold: 2.0,
            window: 2,
        },
    ]
}

fn taps_counters() -> (u64, u64) {
    let snap = sia_telemetry::snapshot();
    (
        snap.counter("snn.taps.processed"),
        snap.counter("snn.taps.skipped"),
    )
}

/// Drives `images` on a bare and a wrapped engine from the same factory
/// and compares logits (bitwise), stats, the backend's extra, and taps.
fn check_drive_policy<F>(factory: &F, model: &LoadedModel, images: &[&Tensor])
where
    F: EngineFactory,
    for<'a> <F::Engine<'a> as Engine>::Extra: PartialEq + Debug,
{
    for policy in policies() {
        let rec = Recorder::new(Clock::start(), &model.network).unwrap();
        let mut bare = factory.build();
        let mut traced = Traced::new(factory.build(), Arc::clone(&rec));
        for (i, image) in images.iter().enumerate() {
            let before = taps_counters();
            let (a, ea) = drive_policy(&mut bare, EngineInput::Image(image), TIMESTEPS, 0, policy);
            let mid = taps_counters();
            let (b, eb) =
                drive_policy(&mut traced, EngineInput::Image(image), TIMESTEPS, 0, policy);
            let after = taps_counters();
            let bits = |o: &sia_snn::SnnOutput| -> Vec<u32> {
                o.logits_per_t
                    .iter()
                    .flatten()
                    .map(|v| v.to_bits())
                    .collect()
            };
            assert_eq!(
                bits(&a),
                bits(&b),
                "logits differ on image {i} under {policy:?}"
            );
            assert_eq!(
                a.stats, b.stats,
                "stats differ on image {i} under {policy:?}"
            );
            assert_eq!(ea, eb, "engine extra differs on image {i} under {policy:?}");
            let bare_taps = (mid.0 - before.0, mid.1 - before.1);
            let traced_taps = (after.0 - mid.0, after.1 - mid.1);
            assert_eq!(bare_taps, traced_taps, "taps differ on image {i}");
            let record = rec.take().pop().expect("one record per driven image");
            assert_eq!(
                record.taps, traced_taps,
                "recorded taps ≠ drive_policy's taps"
            );
            let stage: u64 = record.stage_ns.iter().sum();
            assert!(stage > 0 && stage <= record.end_ns - record.start_ns);
        }
    }
}

/// Evaluates through the real pool with the bare and the wrapped factory.
fn check_pool<F: EngineFactory + Clone>(factory: &F, model: &LoadedModel, threads: usize) {
    let set = image_pool(9).take(IMAGES);
    for policy in policies() {
        let eval = BatchEvaluator::new(EvalConfig {
            timesteps: TIMESTEPS,
            burn_in: 0,
            threads,
            encoding: EvalEncoding::Dense,
            exit: policy,
        });
        let rec = Recorder::new(Clock::start(), &model.network).unwrap();
        let bare = eval.evaluate(factory.clone(), &set);
        let traced = eval.evaluate(TracedFactory::new(factory.clone(), Arc::clone(&rec)), &set);
        assert_eq!(
            bare, traced,
            "outcome differs under {policy:?} at {threads} thread(s)"
        );
        assert_eq!(rec.take().len(), IMAGES, "one record per image");
    }
}

fn fixture() -> (LoadedModel, Vec<Tensor>) {
    let model = load_model().unwrap();
    let pool = image_pool(3);
    let images = (0..IMAGES).map(|i| pool.get(i * 37).0.clone()).collect();
    (model, images)
}

#[test]
fn int_engine_is_transparent() {
    let (model, images) = fixture();
    let refs: Vec<&Tensor> = images.iter().collect();
    let factory =
        IntEngineFactory::new(Arc::clone(&model.network)).with_kernel_policy(KernelPolicy::Auto);
    check_drive_policy(&factory, &model, &refs);
    check_pool(&factory, &model, 1);
    check_pool(&factory, &model, 2);
}

#[test]
fn float_engine_is_transparent() {
    let (model, images) = fixture();
    let refs: Vec<&Tensor> = images.iter().collect();
    let factory =
        FloatEngineFactory::new(Arc::clone(&model.network)).with_kernel_policy(KernelPolicy::Auto);
    check_drive_policy(&factory, &model, &refs);
    check_pool(&factory, &model, 1);
}

#[test]
fn accel_engine_is_transparent() {
    let (model, images) = fixture();
    let refs: Vec<&Tensor> = images.iter().collect();
    let program = build_machine(&model).unwrap().program().clone();
    let factory =
        SiaEngineFactory::new(program, model.config.clone()).with_kernel_policy(KernelPolicy::Auto);
    check_drive_policy(&factory, &model, &refs);
    check_pool(&factory, &model, 1);
}

#[test]
fn evaluator_outcome_matches_with_one_worker_helper() {
    // the workload's own evaluator helper is the plain one-worker evaluator
    let (model, _) = fixture();
    let set = image_pool(4).take(IMAGES);
    let factory =
        IntEngineFactory::new(Arc::clone(&model.network)).with_kernel_policy(KernelPolicy::Auto);
    let ours = evaluator(ExitPolicy::Fixed).evaluate(factory.clone(), &set);
    let plain = BatchEvaluator::default().evaluate(factory, &set);
    assert_eq!(ours, plain);
}
