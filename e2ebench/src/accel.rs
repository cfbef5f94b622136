//! `accel-sim`: the cycle-level `SiaMachine` (`compile_for`, then
//! `run_policy`) at fixed T = 8, one image at a time on one thread.

use crate::common::{
    build_machine, exit_layers, finish, image_pool, int_run, int_runner, latency_metrics,
    load_model, machine_layers, machine_run, ordered_set, peak_rss_mb, reference, runner_layers,
    setup_layers, setup_seconds, total_taps, traced_evaluate, Checks, RunResult, SimTotals,
    ACCURACY_FLOOR, MIN_SAMPLES, POOL, TIMESTEPS,
};
use crate::model::{self, logits_fingerprint, Fnv1a};
use crate::passthrough::{Recorder, Traced};
use crate::schedule::image_order;
use crate::trace::{Clock, Tracer};
use sia_accel::CycleReport;
use sia_snn::ExitPolicy;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Untimed machine runs before the timed phase.
const WARMUP_IMAGES: usize = 16;
/// Passes over the pool in the precomputed image order (the timed phase
/// wraps around if a fast machine exhausts it).
const ORDER_PASSES: usize = 40;

/// Fingerprint of every layer's cycle and operation counts, so each run's
/// report can be compared with the image's first without storing it.
fn report_fingerprint(report: &CycleReport) -> u64 {
    report
        .layers
        .iter()
        .flat_map(|l| {
            [
                l.compute_cycles,
                l.transfer_cycles,
                l.overhead_cycles,
                l.active_pe_cycles,
                l.ops,
                l.nominal_ops,
                l.spikes,
            ]
        })
        .fold(Fnv1a::default(), Fnv1a::word)
        .finish()
}

/// Runs `accel-sim`.
///
/// # Errors
///
/// Fails on set-up errors and on a p99 below the sample rule.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<RunResult, String> {
    model::verify()?;
    let setup_s = setup_seconds(|| {
        let model = load_model()?;
        let machine = build_machine(&model)?;
        Ok((model, machine))
    })?;
    let model = load_model()?;
    let mut tracer = Tracer::new(Clock::start(), trace);
    let mut checks = Checks::default();
    let rec = Recorder::new(tracer.clock, &model.network)?;
    let mut machine = Traced::new(build_machine(&model)?, Arc::clone(&rec));
    let pool = image_pool(seed);
    // the int datapath's answer per pool image (the machine ≡ runner contract)
    let mut runner = int_runner(&model);
    let expected: Vec<u64> = (0..POOL)
        .map(|i| {
            logits_fingerprint(&int_run(&mut runner, pool.get(i).0, ExitPolicy::Fixed).logits_per_t)
        })
        .collect();
    let order = image_order(seed, POOL, POOL * ORDER_PASSES);
    for &i in order.iter().take(WARMUP_IMAGES) {
        let _ = machine
            .inner_mut()
            .run_policy(pool.get(i).0, TIMESTEPS, 0, ExitPolicy::Fixed);
    }
    // first report and class per pool image, then a fingerprint per run
    let mut first: Vec<Option<(usize, CycleReport)>> = vec![None; POOL];
    let mut covered = 0usize;
    let mut runs: Vec<(usize, u64, u64)> = Vec::new();
    let mut latencies: Vec<f64> = Vec::new();
    let mut sim_runs = SimTotals::default();
    let start = Instant::now();
    loop {
        let k = runs.len();
        let idx = order[k % order.len()];
        let (out, report, ns) = machine_run(
            &mut machine,
            pool.get(idx).0,
            ExitPolicy::Fixed,
            &mut tracer,
            k as u64,
            &rec,
        );
        latencies.push(ns as f64 / 1e6);
        runs.push((
            idx,
            logits_fingerprint(&out.logits_per_t),
            report_fingerprint(&report),
        ));
        if trace {
            sim_runs.add(&report, rec.stages());
        }
        if first[idx].is_none() {
            first[idx] = Some((out.predicted(), report));
            covered += 1;
        }
        if start.elapsed().as_secs_f64() >= seconds && runs.len() >= MIN_SAMPLES && covered == POOL
        {
            break;
        }
    }
    let wall = start.elapsed().as_secs_f64();
    let peak_rss = peak_rss_mb()?;
    let first: Vec<(usize, CycleReport)> = first.into_iter().flatten().collect();
    checks.attempt(runs.len());
    for (k, &(idx, logits_fp, report_fp)) in runs.iter().enumerate() {
        if logits_fp != expected[idx] {
            checks.fail(1, format!("run {k}: machine logits ≠ int datapath"));
        } else if report_fp != report_fingerprint(&first[idx].1) {
            checks.fail(
                1,
                format!("run {k}: cycle report differs from the image's first run"),
            );
        }
    }
    let reference = reference(&model, ExitPolicy::Fixed, &mut checks)?;
    // simulated latency over the distinct pool images, so it is a pure
    // function of the seed
    let mut sim = SimTotals::default();
    let mut correct = 0usize;
    for (i, (class, report)) in first.iter().enumerate() {
        sim.add(report, rec.stages());
        correct += usize::from(*class == pool.get(i).1);
    }
    if (correct as f64) < ACCURACY_FLOOR * POOL as f64 {
        checks.problem(format!("accuracy {correct}/{POOL} below the floor"));
    }
    let mut values = BTreeMap::new();
    values.insert("img_per_s", runs.len() as f64 / wall);
    latency_metrics(&latencies, &latencies, &mut values)?;
    values.insert("setup_s", setup_s);
    values.insert("accuracy", reference.accuracy);
    values.insert("peak_rss_mb", peak_rss);
    values.insert("sim_ms_per_img", sim.ms_per_img());
    values.insert("sim_gops", reference.sim.gops());
    if trace {
        machine_layers(&tracer, &sim_runs, &mut values);
        // the pool replayed on the integer datapath through the
        // pass-through engine inside the real evaluator
        let set = ordered_set(&pool, &order[..POOL]);
        let (outcome, records) = traced_evaluate(
            &model,
            &set,
            ExitPolicy::Fixed,
            &mut tracer,
            runs.len() as u64,
        )?;
        checks.attempt(outcome.total);
        for (k, (&pred, &i)) in outcome.predictions.iter().zip(&order[..POOL]).enumerate() {
            if pred != first[i].0 {
                checks.fail(1, format!("replay image {k}: int class ≠ machine class"));
            }
        }
        runner_layers(&tracer, outcome.total, total_taps(&records), &mut values);
        exit_layers(&outcome, &mut values);
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
    finish(
        "accel-sim",
        seed,
        &tracer,
        values,
        checks,
        latencies.len(),
        1,
    )
}
