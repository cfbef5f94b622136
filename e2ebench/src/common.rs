//! Pinned settings, inputs, set-up timing, output checks and the metric
//! tables every workload shares.

use crate::model::{logits_fingerprint, MODEL_PATH, REFERENCE_FIXED, REFERENCE_MARGIN};
use crate::passthrough::{
    ImageRecord, Recorder, StageMap, Traced, TracedFactory, GROUPS, MACHINE_KCYCLES, MACHINE_SPANS,
    MACHINE_US, RUNNER_SPANS, RUNNER_US,
};
use crate::schedule::{stream, SplitMix64};
use crate::stats;
use crate::trace::{Clock, Tracer};
use sia_accel::{compile_for, CycleReport, SiaMachine};
use sia_dataset::{LabelledSet, SynthConfig, SynthDataset};
use sia_serve::LoadedModel;
use sia_snn::{
    drive_policy, BatchEvaluator, EngineInput, EvalConfig, EvalEncoding, EvalOutcome, ExitPolicy,
    IntEngineFactory, IntRunner, KernelPolicy, SnnOutput,
};
use sia_tensor::Tensor;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Timesteps per image (the paper's deployment point).
pub const TIMESTEPS: usize = 8;
/// Distinct images in the input pool, reused across a run.
pub const POOL: usize = 512;
/// Fewest latency samples per run (a p99 needs 1000).
pub const MIN_SAMPLES: usize = 1000;
/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 21;
/// Pool images cross-checked on the cycle-level machine.
pub const MACHINE_SAMPLE: usize = 64;
/// A run whose accuracy falls below this is wrong, not slow.
pub const ACCURACY_FLOOR: f64 = 0.9;
/// Margin threshold of the serving workload: the calibrated value in
/// `results/calibration/exit.json`, to f32 precision.
pub const EXIT_MARGIN: f32 = 3.842_136_6;

/// The serving workload's exit policy: margin, window 1.
#[must_use]
pub fn margin_policy() -> ExitPolicy {
    ExitPolicy::Margin {
        threshold: EXIT_MARGIN,
        window: 1,
    }
}

/// One reported metric.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// End-to-end metrics, in report order.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("img_per_s", "img/s"),
    ("latency_p50_ms", "ms"),
    ("accuracy", "fraction"),
    ("peak_rss_mb", "MiB"),
    ("sim_ms_per_img", "ms"),
    ("sim_gops", "GOPS"),
];

/// Per-layer metrics of the traced run, in report order.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("registry.load_ms", "ms"),
    ("registry.hash_ms", "ms"),
    ("registry.parse_ms", "ms"),
    ("check.verify_ms", "ms"),
    ("compiler.compile_ms", "ms"),
    ("server.bind_ms", "ms"),
    ("runner.res16_us", "us"),
    ("runner.res8_us", "us"),
    ("runner.res4_us", "us"),
    ("runner.res2_us", "us"),
    ("runner.head_us", "us"),
    ("runner.driver_us", "us"),
    ("runner.ktaps", "ktap/img"),
    ("runner.ns_per_tap", "ns/tap"),
    ("runner.skip_share", "fraction"),
    ("pool.overhead_us", "us"),
    ("exit.avg_t", "steps"),
    ("exit.early_share", "fraction"),
    ("server.parse_us", "us"),
    ("server.encode_us", "us"),
    ("batcher.wait_us", "us"),
    ("server.predict_us", "us"),
    ("runner.image_us", "us"),
    ("pool.dispatch_us", "us"),
    ("http.us", "us"),
    ("loadgen.late_p99_ms", "ms"),
    ("machine.res16_us", "us"),
    ("machine.res8_us", "us"),
    ("machine.res4_us", "us"),
    ("machine.res2_us", "us"),
    ("machine.head_us", "us"),
    ("machine.driver_us", "us"),
    ("machine.res16_kcycles", "kcycles"),
    ("machine.res8_kcycles", "kcycles"),
    ("machine.res4_kcycles", "kcycles"),
    ("machine.res2_kcycles", "kcycles"),
    ("machine.head_kcycles", "kcycles"),
    ("machine.ns_per_cycle", "ns/cycle"),
    ("traced.img_per_s", "img/s"),
    ("traced.latency_p50_ms", "ms"),
];

/// Builds the metric list for `table` from `values`.
///
/// # Errors
///
/// Fails when a metric is missing or not finite.
pub fn collect_metrics(
    table: &[(&'static str, &'static str)],
    values: &BTreeMap<&'static str, f64>,
) -> Result<Vec<Metric>, String> {
    table
        .iter()
        .map(|&(name, unit)| match values.get(name) {
            Some(&value) if value.is_finite() => Ok(Metric { name, value, unit }),
            Some(value) => Err(format!("metric {name} is {value}")),
            None => Err(format!("metric {name} was not measured")),
        })
        .collect()
}

/// Picks the traced or untraced metric table from `values` (adding the
/// traced run's own figures, whose gap to the untraced medians is the
/// tracing overhead), writes the trace, and assembles the run result.
///
/// # Errors
///
/// Fails when a metric is missing or the trace cannot be written.
pub fn finish(
    workload: &str,
    seed: u64,
    tracer: &Tracer,
    mut values: BTreeMap<&'static str, f64>,
    checks: Checks,
    samples: usize,
    parallelism: usize,
) -> Result<RunResult, String> {
    let table: &[(&'static str, &'static str)] = if tracer.enabled() {
        values.insert("traced.img_per_s", values["img_per_s"]);
        values.insert("traced.latency_p50_ms", values["latency_p50_ms"]);
        &PER_LAYER
    } else {
        &END_TO_END
    };
    let metrics = collect_metrics(table, &values)?;
    crate::output::write_trace(tracer, workload, seed)?;
    Ok(RunResult {
        checks,
        metrics,
        samples,
        p95_ms: values["latency_p95_ms"],
        p99_ms: values["latency_p99_ms"],
        parallelism,
    })
}

/// Attempted and failed operations, with the first few failure messages.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations attempted (images, requests, cross-checks).
    pub attempted: u64,
    /// Operations that errored, were refused or mismatched.
    pub failed: u64,
    /// First failure messages.
    pub problems: Vec<String>,
}

impl Checks {
    /// Books `n` attempted operations.
    pub fn attempt(&mut self, n: usize) {
        self.attempted += n as u64;
    }

    /// Books `n` failed operations with a reason.
    pub fn fail(&mut self, n: usize, reason: impl Into<String>) {
        self.failed += n as u64;
        if self.problems.len() < 8 {
            self.problems.push(reason.into());
        }
    }

    /// Records a run-level problem (not an operation).
    pub fn problem(&mut self, reason: impl Into<String>) {
        self.problems.push(reason.into());
    }
}

/// Everything one workload run produced.
#[derive(Debug)]
pub struct RunResult {
    /// Operation accounting.
    pub checks: Checks,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Latency samples behind the percentiles.
    pub samples: usize,
    /// p95 and p99 latency over every sample: printed and recorded, not
    /// gated, because on a shared host they measure the host's worst
    /// seconds (see the README's Steadiness section).
    pub p95_ms: f64,
    /// See `p95_ms`.
    pub p99_ms: f64,
    /// Engine threads the workload ran on (`min(threads, cpus)`).
    pub parallelism: usize,
}

/// The seeded pool of distinct held-out images (3×16×16, noise 0.08).
/// The generator seed is drawn from the workload seed, so no workload
/// seed reproduces the training split's generator seed.
#[must_use]
pub fn image_pool(seed: u64) -> LabelledSet {
    let cfg = SynthConfig {
        image_size: 16,
        noise_std: 0.08,
        seed: SplitMix64::new(seed, stream::DATASET).next_u64(),
    };
    SynthDataset::generate(&cfg, 0, POOL).test
}

/// The pool images at the positions of `order`, with their labels.
#[must_use]
pub fn ordered_set(pool: &LabelledSet, order: &[usize]) -> LabelledSet {
    LabelledSet::new(
        order.iter().map(|&i| pool.get(i).0.clone()).collect(),
        order.iter().map(|&i| pool.get(i).1).collect(),
    )
}

/// Held-out images of the reference set.
pub const REFERENCE: usize = 512;
/// Generator seed of the reference set: fixed, and neither a training seed
/// nor one a workload pool draws (those come from [`SplitMix64`]).
const REFERENCE_SEED: u64 = 0x0E2E_BE4C;

/// The reference set: [`REFERENCE`] held-out images (3×16×16, noise 0.08)
/// that are the same for every seed, so what is measured on it does not
/// move with the seed.
#[must_use]
pub fn reference_set() -> LabelledSet {
    let cfg = SynthConfig {
        image_size: 16,
        noise_std: 0.08,
        seed: REFERENCE_SEED,
    };
    SynthDataset::generate(&cfg, 0, REFERENCE).test
}

/// What the reference set gave under a workload's policy.
#[derive(Debug)]
pub struct Reference {
    /// Correct / answered on the integer datapath.
    pub accuracy: f64,
    /// Simulated totals of the machine over the first [`MACHINE_SAMPLE`]
    /// images.
    pub sim: SimTotals,
}

/// Runs the reference set on the integer datapath under `policy` and checks
/// its logits against the committed fingerprint — the one check a changed
/// kernel cannot pass by agreeing with itself — then runs the first
/// [`MACHINE_SAMPLE`] images on the cycle-level machine, cross-checked as in
/// [`machine_sample`] and untraced.
///
/// # Errors
///
/// Fails when the model cannot be compiled or staged.
pub fn reference(
    model: &LoadedModel,
    policy: ExitPolicy,
    checks: &mut Checks,
) -> Result<Reference, String> {
    let set = reference_set();
    let mut runner = int_runner(model);
    let outs: Vec<SnnOutput> = (0..set.len())
        .map(|i| int_run(&mut runner, set.get(i).0, policy))
        .collect();
    let committed = if policy == ExitPolicy::Fixed {
        REFERENCE_FIXED
    } else {
        REFERENCE_MARGIN
    };
    let got = logits_fingerprint(outs.iter().flat_map(|o| &o.logits_per_t));
    checks.attempt(1);
    if got != committed {
        checks.fail(
            1,
            format!("reference-set logits hash to {got:#018x}, committed {committed:#018x}"),
        );
    }
    let predicted: Vec<usize> = outs.iter().map(SnnOutput::predicted).collect();
    let correct = (0..set.len())
        .filter(|&i| predicted[i] == set.get(i).1)
        .count();
    let sample: Vec<_> = (0..MACHINE_SAMPLE).map(|i| set.get(i).0).collect();
    let mut untraced = Tracer::new(Clock::start(), false);
    let sim = machine_sample(
        model,
        &sample,
        &predicted[..MACHINE_SAMPLE],
        policy,
        &mut untraced,
        checks,
    )?;
    Ok(Reference {
        accuracy: correct as f64 / set.len() as f64,
        sim,
    })
}

/// Median wall time in seconds of [`SETUP_REPS`] back-to-back runs of
/// `setup`; each result is dropped (torn down) before the next run starts
/// and outside its timing.
///
/// # Errors
///
/// Propagates the first set-up failure.
pub fn setup_seconds<T>(mut setup: impl FnMut() -> Result<T, String>) -> Result<f64, String> {
    let mut secs = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        let built = setup()?;
        secs.push(start.elapsed().as_secs_f64());
        drop(built);
    }
    stats::median(&secs).ok_or_else(|| "no set-up repetitions".to_string())
}

/// Reads the model file and loads it the way `sia eval` does.
///
/// # Errors
///
/// Propagates read, parse and verification failures.
pub fn load_model() -> Result<LoadedModel, String> {
    let bytes = std::fs::read(MODEL_PATH).map_err(|e| format!("reading {MODEL_PATH}: {e}"))?;
    sia_serve::load_bytes(&bytes, MODEL_PATH, TIMESTEPS)
}

/// Builds the cycle-level machine for a loaded model.
///
/// # Errors
///
/// Propagates compile failures.
pub fn build_machine(model: &LoadedModel) -> Result<SiaMachine, String> {
    let program =
        compile_for(&model.network, &model.config, TIMESTEPS).map_err(|e| e.to_string())?;
    let mut machine = SiaMachine::new(program, model.config.clone());
    machine.set_kernel_policy(KernelPolicy::Auto);
    Ok(machine)
}

/// An integer runner with the pinned kernel policy.
#[must_use]
pub fn int_runner(model: &LoadedModel) -> IntRunner<'_> {
    let mut runner = IntRunner::new(&model.network);
    runner.set_kernel_policy(KernelPolicy::Auto);
    runner
}

/// The int-backend engine factory with the pinned kernel policy.
#[must_use]
pub fn int_factory(model: &LoadedModel) -> IntEngineFactory {
    IntEngineFactory::new(Arc::clone(&model.network)).with_kernel_policy(KernelPolicy::Auto)
}

/// A one-worker evaluator (the `sia eval` default) under `policy`.
#[must_use]
pub fn evaluator(policy: ExitPolicy) -> BatchEvaluator {
    BatchEvaluator::new(EvalConfig {
        timesteps: TIMESTEPS,
        burn_in: 0,
        threads: 1,
        encoding: EvalEncoding::Dense,
        exit: policy,
    })
}

/// Drives one image on the integer datapath.
pub fn int_run(runner: &mut IntRunner<'_>, image: &Tensor, policy: ExitPolicy) -> SnnOutput {
    drive_policy(runner, EngineInput::Image(image), TIMESTEPS, 0, policy).0
}

/// Whether two runs' logits are equal bit for bit.
#[must_use]
pub fn same_logits(a: &[Vec<f32>], b: &[Vec<f32>]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
        })
}

/// Simulated totals over a set of machine runs.
#[derive(Clone, Debug, Default)]
pub struct SimTotals {
    /// Runs folded in.
    pub runs: usize,
    /// Σ simulated latency, ms.
    pub ms: f64,
    /// Σ arithmetic operations.
    pub ops: u64,
    /// Σ latency cycles.
    pub cycles: u64,
    /// Σ latency cycles per stage group.
    pub group_cycles: [u64; GROUPS],
}

impl SimTotals {
    /// Folds in one run's report.
    pub fn add(&mut self, report: &CycleReport, stages: &StageMap) {
        self.runs += 1;
        self.ms += report.total_ms();
        self.ops += report.total_ops();
        self.cycles += report.total_cycles();
        // the machine reports one layer per network item, in item order
        for (idx, layer) in report.layers.iter().enumerate() {
            self.group_cycles[stages.group(idx)] += layer.total_cycles();
        }
    }

    /// Mean simulated latency per image, ms.
    #[must_use]
    pub fn ms_per_img(&self) -> f64 {
        self.ms / self.runs as f64
    }

    /// Effective GOPS: Σ operations over Σ simulated seconds.
    #[must_use]
    pub fn gops(&self) -> f64 {
        self.ops as f64 / (self.ms / 1e3) / 1e9
    }
}

/// Runs one image on the machine — through a [`Traced`] wrapper inside a
/// `machine.run` span when tracing — and returns the run, its host time
/// in ns and the span index.
pub fn machine_run(
    machine: &mut Traced<SiaMachine>,
    image: &Tensor,
    policy: ExitPolicy,
    tracer: &mut Tracer,
    id: u64,
    rec: &Recorder,
) -> (SnnOutput, CycleReport, u64) {
    let clock = tracer.clock;
    let start = clock.now_ns();
    let (out, report) = if tracer.enabled() {
        drive_policy(machine, EngineInput::Image(image), TIMESTEPS, 0, policy)
    } else {
        let run = machine.inner_mut().run_policy(image, TIMESTEPS, 0, policy);
        (
            SnnOutput {
                logits_per_t: run.logits_per_t,
                stats: run.stats,
            },
            run.report,
        )
    };
    let end = clock.now_ns();
    if tracer.enabled() {
        let parent = tracer.push("machine.run", id, None, start, end);
        push_records(tracer, &rec.take(), None, &MACHINE_SPANS, parent, id);
    }
    (out, report, end - start)
}

/// Cross-checks `images` on the cycle-level machine against the integer
/// datapath under `policy` (logits bit-for-bit, spike statistics equal)
/// and against `expected` classes. Returns the simulated totals; machine
/// spans are traced when the tracer is on.
///
/// # Errors
///
/// Fails when the model cannot be compiled or staged.
pub fn machine_sample(
    model: &LoadedModel,
    images: &[&Tensor],
    expected: &[usize],
    policy: ExitPolicy,
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> Result<SimTotals, String> {
    let rec = Recorder::new(tracer.clock, &model.network)?;
    let mut machine = Traced::new(build_machine(model)?, Arc::clone(&rec));
    let mut runner = int_runner(model);
    let mut sim = SimTotals::default();
    for (k, (image, &want)) in images.iter().zip(expected).enumerate() {
        checks.attempt(1);
        let int = int_run(&mut runner, image, policy);
        let (out, report, _) = machine_run(&mut machine, image, policy, tracer, k as u64, &rec);
        if !same_logits(&int.logits_per_t, &out.logits_per_t) || int.stats != out.stats {
            checks.fail(1, format!("machine ≠ int datapath on sample image {k}"));
        } else if out.predicted() != want {
            checks.fail(
                1,
                format!("machine class ≠ workload answer on sample image {k}"),
            );
        }
        sim.add(&report, rec.stages());
    }
    Ok(sim)
}

/// Pushes pass-through records as spans: an optional per-image span named
/// `image_span` under `parent`, with the stage spans under it (directly
/// under `parent` without one). Image ids count up from `first_id`.
pub fn push_records(
    tracer: &mut Tracer,
    records: &[ImageRecord],
    image_span: Option<&'static str>,
    stage_spans: &[&'static str; GROUPS],
    parent: Option<usize>,
    first_id: u64,
) {
    for (k, r) in records.iter().enumerate() {
        let id = first_id + k as u64;
        let p = match image_span {
            Some(name) => tracer.push(name, id, parent, r.start_ns, r.end_ns),
            None => parent,
        };
        for s in &r.spans {
            tracer.push(
                stage_spans[s.group],
                id,
                p,
                s.start_ns,
                s.start_ns + s.busy_ns,
            );
        }
    }
}

/// Σ `(processed, skipped)` taps over records.
#[must_use]
pub fn total_taps(records: &[ImageRecord]) -> (u64, u64) {
    records
        .iter()
        .fold((0, 0), |(p, s), r| (p + r.taps.0, s + r.taps.1))
}

/// The integer datapath replayed through a [`TracedFactory`] inside the
/// real one-worker [`BatchEvaluator`], one `pool.evaluate` span over
/// `runner.image` spans and their stage spans. Returns the outcome and the
/// records (for tap counts).
///
/// # Errors
///
/// Propagates [`Recorder::new`] failures.
pub fn traced_evaluate(
    model: &LoadedModel,
    set: &LabelledSet,
    policy: ExitPolicy,
    tracer: &mut Tracer,
    first_id: u64,
) -> Result<(EvalOutcome, Vec<ImageRecord>), String> {
    let rec = Recorder::new(tracer.clock, &model.network)?;
    let factory = TracedFactory::new(int_factory(model), Arc::clone(&rec));
    let (outcome, span) = tracer.time("pool.evaluate", first_id, None, |_| {
        evaluator(policy).evaluate(factory, set)
    });
    let records = rec.take();
    push_records(
        tracer,
        &records,
        Some("runner.image"),
        &RUNNER_SPANS,
        span,
        first_id,
    );
    Ok((outcome, records))
}

/// Per-layer values of the int-runner and pool spans, from the tracer's
/// self times over `images` images with `taps` processed/skipped.
pub fn runner_layers(
    tracer: &Tracer,
    images: usize,
    taps: (u64, u64),
    values: &mut BTreeMap<&'static str, f64>,
) {
    let st = tracer.self_times();
    let self_ns = |name: &str| st.get(name).map_or(0.0, |s| s.self_ns as f64);
    let per_img_us = |name: &str| self_ns(name) / images as f64 / 1e3;
    for (span, metric) in RUNNER_SPANS.iter().zip(RUNNER_US) {
        values.insert(metric, per_img_us(span));
    }
    let stage_ns: f64 = RUNNER_SPANS.iter().map(|s| self_ns(s)).sum();
    values.insert("runner.driver_us", per_img_us("runner.image"));
    values.insert("pool.overhead_us", per_img_us("pool.evaluate"));
    values.insert("runner.ktaps", taps.0 as f64 / images as f64 / 1e3);
    values.insert("runner.ns_per_tap", stage_ns / taps.0 as f64);
    values.insert(
        "runner.skip_share",
        taps.1 as f64 / (taps.0 + taps.1) as f64,
    );
}

/// Per-layer values of the machine spans over `sim.runs` runs.
pub fn machine_layers(tracer: &Tracer, sim: &SimTotals, values: &mut BTreeMap<&'static str, f64>) {
    let st = tracer.self_times();
    let runs = sim.runs as f64;
    let per_run_us = |name: &str| st.get(name).map_or(0.0, |s| s.self_ns as f64) / runs / 1e3;
    for g in 0..GROUPS {
        values.insert(MACHINE_US[g], per_run_us(MACHINE_SPANS[g]));
        values.insert(MACHINE_KCYCLES[g], sim.group_cycles[g] as f64 / runs / 1e3);
    }
    values.insert("machine.driver_us", per_run_us("machine.run"));
    let host_ns: u64 = tracer
        .spans()
        .iter()
        .filter(|s| s.name == "machine.run")
        .map(|s| s.end_ns - s.start_ns)
        .sum();
    values.insert("machine.ns_per_cycle", host_ns as f64 / sim.cycles as f64);
}

/// Per-layer values of the exit policy over an outcome.
pub fn exit_layers(outcome: &EvalOutcome, values: &mut BTreeMap<&'static str, f64>) {
    values.insert("exit.avg_t", f64::from(outcome.avg_t()));
    values.insert("exit.early_share", f64::from(outcome.exit_rate()));
}

/// Set-up probe for the traced run: every set-up layer timed on its own,
/// [`SETUP_REPS`] times, each repetition torn down before the next. The
/// per-layer value is the median duration of each layer's span.
///
/// # Errors
///
/// Propagates load, compile and bind failures.
pub fn setup_layers(
    tracer: &mut Tracer,
    values: &mut BTreeMap<&'static str, f64>,
) -> Result<(), String> {
    for rep in 0..SETUP_REPS as u64 {
        let parent = tracer.open("setup", rep, None);
        let server = (|| -> Result<_, String> {
            let t = &mut *tracer;
            let bytes =
                std::fs::read(MODEL_PATH).map_err(|e| format!("reading {MODEL_PATH}: {e}"))?;
            t.time("registry.hash", rep, parent, |_| {
                std::hint::black_box(sia_serve::content_hash(&bytes))
            });
            let (parsed, _) = t.time("registry.parse", rep, parent, |_| {
                sia_accel::read_image(&bytes).map_err(|e| e.to_string())
            });
            let (net, cfg) = parsed?;
            let _ = t.time("check.verify", rep, parent, |_| {
                std::hint::black_box(sia_check::check_network(&net, &cfg, TIMESTEPS))
            });
            let (model, _) = t.time("registry.load", rep, parent, |_| {
                sia_serve::load_bytes(&bytes, MODEL_PATH, TIMESTEPS)
            });
            let model = model?;
            let (program, _) = t.time("compiler.compile", rep, parent, |_| {
                compile_for(&model.network, &model.config, TIMESTEPS).map_err(|e| e.to_string())
            });
            drop(program?);
            let registry = Arc::new(sia_serve::ModelRegistry::new(TIMESTEPS));
            let model = registry.insert(Arc::new(model));
            let (server, _) = t.time("server.bind", rep, parent, |_| {
                crate::serve::bind(registry, model, ExitPolicy::Fixed)
            });
            server
        })();
        tracer.close(parent);
        // teardown (joins the serving unit's threads) outside every span
        drop(server?);
    }
    for (span, metric) in [
        ("registry.load", "registry.load_ms"),
        ("registry.hash", "registry.hash_ms"),
        ("registry.parse", "registry.parse_ms"),
        ("check.verify", "check.verify_ms"),
        ("compiler.compile", "compiler.compile_ms"),
        ("server.bind", "server.bind_ms"),
    ] {
        let ms: Vec<f64> = tracer
            .self_times_of(span)
            .iter()
            .map(|&ns| ns as f64 / 1e6)
            .collect();
        values.insert(
            metric,
            stats::median(&ms).ok_or_else(|| format!("no {span} spans"))?,
        );
    }
    Ok(())
}

/// Process high-water resident set (`VmHWM`), MiB.
///
/// # Errors
///
/// Fails where `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// The latency percentiles shared by every workload: the gated p50 over
/// `per_image_ms`, and the ungated p95 and p99 over every sample in
/// `all_ms` (the two are the same slice except on `eval-fixed`).
///
/// # Errors
///
/// Refuses a p99 below [`MIN_SAMPLES`] samples.
pub fn latency_metrics(
    per_image_ms: &[f64],
    all_ms: &[f64],
    values: &mut BTreeMap<&'static str, f64>,
) -> Result<(), String> {
    values.insert("latency_p50_ms", stats::percentile(per_image_ms, 0.50)?);
    values.insert("latency_p95_ms", stats::percentile(all_ms, 0.95)?);
    values.insert("latency_p99_ms", stats::percentile(all_ms, 0.99)?);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn image_pool_is_a_pure_function_of_the_seed() {
        let a = image_pool(5);
        let b = image_pool(5);
        let c = image_pool(6);
        assert_eq!(a.len(), POOL);
        assert_eq!(a.labels(), b.labels());
        assert!((0..POOL).all(|i| a.get(i).0.data() == b.get(i).0.data()));
        assert!((0..POOL).any(|i| a.get(i).0.data() != c.get(i).0.data()));
    }

    #[test]
    fn reference_set_is_fixed_and_differs_from_a_pool() {
        let a = reference_set();
        let b = reference_set();
        assert_eq!(a.len(), REFERENCE);
        assert!((0..REFERENCE).all(|i| a.get(i).0.data() == b.get(i).0.data()));
        let pool = image_pool(1);
        assert!((0..POOL).all(|i| pool.get(i).0.data() != a.get(0).0.data()));
    }

    #[test]
    fn reference_set_matches_the_committed_fingerprints() {
        let model = load_model().unwrap();
        for policy in [ExitPolicy::Fixed, margin_policy()] {
            let mut checks = Checks::default();
            let r = reference(&model, policy, &mut checks).unwrap();
            assert_eq!(checks.failed, 0, "{policy:?}: {:?}", checks.problems);
            assert!(r.accuracy > 0.98, "{policy:?}: {}", r.accuracy);
            assert_eq!(r.sim.runs, MACHINE_SAMPLE);
        }
    }

    #[test]
    fn setup_median_runs_every_repetition() {
        let mut runs = 0;
        let secs = setup_seconds(|| {
            runs += 1;
            Ok(runs)
        })
        .unwrap();
        assert_eq!(runs, SETUP_REPS);
        assert!(secs >= 0.0);
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        use sia_telemetry::json::{parse, Json};
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .unwrap();
        let bench = parse(&text).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            let Some(Json::Arr(items)) = bench.get(key) else {
                panic!("BENCHMARK.json has no {key} list");
            };
            items
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let ours = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), ours(&END_TO_END));
        assert_eq!(listed("per_layer"), ours(&PER_LAYER));
    }

    #[test]
    fn missing_or_non_finite_metrics_are_refused() {
        let mut values = BTreeMap::new();
        values.insert("setup_s", 1.0);
        assert!(collect_metrics(&END_TO_END, &values).is_err());
        let all: BTreeMap<&'static str, f64> = END_TO_END.iter().map(|&(n, _)| (n, 1.0)).collect();
        assert_eq!(
            collect_metrics(&END_TO_END, &all).unwrap().len(),
            END_TO_END.len()
        );
        let mut bad = all.clone();
        bad.insert("img_per_s", f64::NAN);
        assert!(collect_metrics(&END_TO_END, &bad).is_err());
    }
}
