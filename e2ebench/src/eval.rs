//! `eval-fixed`: `BatchEvaluator::evaluate` on the int backend at fixed
//! T = 8 with one worker, one large batch (the pool) per call.

use crate::common::{
    evaluator, exit_layers, finish, image_pool, int_factory, latency_metrics, load_model,
    machine_layers, machine_sample, ordered_set, peak_rss_mb, push_records, reference,
    runner_layers, setup_layers, setup_seconds, total_taps, Checks, RunResult, ACCURACY_FLOOR,
    MACHINE_SAMPLE, MIN_SAMPLES, POOL,
};
use crate::model;
use crate::passthrough::{Recorder, TracedFactory, RUNNER_SPANS};
use crate::schedule::image_order;
use crate::trace::{Clock, Tracer};
use sia_snn::{EvalOutcome, ExitPolicy};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Runs `eval-fixed`.
///
/// # Errors
///
/// Fails on set-up errors and on a p99 below the sample rule.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<RunResult, String> {
    model::verify()?;
    let setup_s = setup_seconds(load_model)?;
    let model = load_model()?;
    let mut tracer = Tracer::new(Clock::start(), trace);
    let mut checks = Checks::default();
    let pool = image_pool(seed);
    let set = ordered_set(&pool, &image_order(seed, POOL, POOL));
    let evaluator = evaluator(ExitPolicy::Fixed);
    let factory = int_factory(&model);
    // warm-up pass; every timed pass must reproduce its outcome exactly
    let warm = evaluator.evaluate(factory.clone(), &set);
    let rec = Recorder::new(tracer.clock, &model.network)?;
    let mut outcomes: Vec<EvalOutcome> = Vec::new();
    let mut taps = (0, 0);
    let start = Instant::now();
    loop {
        let call = outcomes.len() as u64;
        let (outcome, span) = tracer.time("pool.evaluate", call, None, |_| {
            if trace {
                evaluator.evaluate(TracedFactory::new(factory.clone(), Arc::clone(&rec)), &set)
            } else {
                evaluator.evaluate(factory.clone(), &set)
            }
        });
        if trace {
            let records = rec.take();
            let (p, s) = total_taps(&records);
            taps = (taps.0 + p, taps.1 + s);
            let first_id = call * POOL as u64;
            push_records(
                &mut tracer,
                &records,
                Some("runner.image"),
                &RUNNER_SPANS,
                span,
                first_id,
            );
        }
        outcomes.push(outcome);
        if start.elapsed().as_secs_f64() >= seconds && outcomes.len() * POOL >= MIN_SAMPLES {
            break;
        }
    }
    let wall = start.elapsed().as_secs_f64();
    let peak_rss = peak_rss_mb()?;
    for (c, o) in outcomes.iter().enumerate() {
        checks.attempt(o.total);
        if *o != warm {
            let wrong = o
                .predictions
                .iter()
                .zip(&warm.predictions)
                .filter(|(a, b)| a != b)
                .count();
            checks.fail(wrong.max(1), format!("evaluate pass {c} ≠ warm-up pass"));
        }
    }
    let sample: Vec<_> = (0..MACHINE_SAMPLE).map(|i| set.get(i).0).collect();
    let expected = &warm.predictions[..MACHINE_SAMPLE];
    let sim = machine_sample(
        &model,
        &sample,
        expected,
        ExitPolicy::Fixed,
        &mut tracer,
        &mut checks,
    )?;
    let reference = reference(&model, ExitPolicy::Fixed, &mut checks)?;
    let latencies: Vec<f64> = outcomes
        .iter()
        .flat_map(|o| o.latency_us.iter().map(|&us| us as f64 / 1e3))
        .collect();
    // every pass runs the same images, so an image's latency is its mean
    // over the passes; a percentile over all samples would sit at whichever
    // host speed level held more than half of the run
    let per_image: Vec<f64> = (0..POOL)
        .map(|i| {
            let us: u64 = outcomes.iter().map(|o| o.latency_us[i]).sum();
            us as f64 / outcomes.len() as f64 / 1e3
        })
        .collect();
    let images = latencies.len();
    let correct: u64 = outcomes.iter().map(EvalOutcome::correct).sum();
    if (correct as f64) < ACCURACY_FLOOR * images as f64 {
        checks.problem(format!("accuracy {correct}/{images} below the floor"));
    }
    let mut values = BTreeMap::new();
    values.insert("img_per_s", images as f64 / wall);
    latency_metrics(&per_image, &latencies, &mut values)?;
    values.insert("setup_s", setup_s);
    values.insert("accuracy", reference.accuracy);
    values.insert("peak_rss_mb", peak_rss);
    values.insert("sim_ms_per_img", sim.ms_per_img());
    values.insert("sim_gops", reference.sim.gops());
    if trace {
        runner_layers(&tracer, images, taps, &mut values);
        exit_layers(&warm, &mut values);
        machine_layers(&tracer, &sim, &mut values);
        crate::serve::probe(
            &pool,
            ExitPolicy::Fixed,
            seed,
            &mut tracer,
            &mut checks,
            &mut values,
        )?;
        setup_layers(&mut tracer, &mut values)?;
    }
    finish("eval-fixed", seed, &tracer, values, checks, images, 1)
}
