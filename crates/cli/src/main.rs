//! `sia` — the command-line face of the reproduction. `sia help` (or a
//! bare `sia --help`) prints the usage of every subcommand; each accepts
//! only the flags listed in `known_flags`, and rejects any other before
//! doing any work.
//!
//! `train` runs the full Fig.-1 pipeline (FP32 training → L=8 quantized
//! ReLU + INT8 weights → IF conversion) on the synthetic dataset and writes
//! a deployment image. `eval` classifies a held-out split through the
//! [`BatchEvaluator`] on any of the three engine backends, with
//! `--threads N` worker threads (results are bit-identical for every
//! thread count); on the cycle-level SIA (`--backend accel`, compiled for
//! the image's own configuration) it then runs the split's last image once
//! more and prints that run's modelled latency, spike rate and energy.
//!
//! `serve` keeps the same engines resident behind an HTTP front end
//! (`/predict`, `/healthz`, `/metrics`, `/models`; see [`sia_serve`]): each
//! request goes straight to the resident engine pool, and a bounded
//! in-flight count answers the excess with HTTP 503; served predictions are
//! bit-identical to `sia eval` on the same model, backend and timesteps.
//! `bench serve` is its load generator.
//!
//! `check` statically verifies a model against the SIA — the
//! interval-analysis overflow pass plus the hardware-budget lints from
//! [`sia_check`] — and exits 0 (pass), 1 (errors, including `--deny`-promoted
//! warnings) or 2 (usage). `eval` and `serve` run the same verification and
//! refuse models with error-severity findings.
//!
//! `bench` runs one family from the unified registry (see [`mod@bench`]):
//! `conv` and `gemm` are the kernel micro-benchmarks (bit-exactness
//! asserted before any timing), `eval` is end-to-end inference throughput
//! through the [`BatchEvaluator`] and `serve` is the HTTP load generator.
//! All four share the `sia_perf` JSON schema and the
//! `--check-baseline`/`--update-baseline` regression gate.
//! `--smoke` shrinks any of them to a CI-friendly pass.
//!
//! `train` takes `--threads N` (shared pool workers for GEMM/conv and
//! trainer shards) and `--micro-batch M` (data-parallel gradient shard
//! size); trained weights are bit-identical for every thread count.
//!
//! `train`, `eval` and `serve` take `--metrics <out.jsonl>` to stream
//! structured telemetry events (or bare `--metrics` to print the
//! counter/gauge table on exit) and `--trace <out.json>` to export a Chrome
//! `trace_event` flamegraph; `report` (see [`report`]) summarises a
//! previously written JSONL file — event counts, training curve, spike
//! sparsity — and turns its `accel.layer` events into per-layer
//! attribution with a roofline classification, reconciled exactly against
//! the run's counters.

#![forbid(unsafe_code)]

mod args;
mod bench;
mod calibrate;
mod report;

use args::{ArgError, Args};
use sia_accel::{compile_for, write_image, MachineRun, SiaConfig, SiaEngineFactory, SiaMachine};
use sia_dataset::{SynthConfig, SynthDataset};
use sia_hwmodel::energy_report;
use sia_nn::resnet::ResNet;
use sia_nn::trainer::TrainConfig;
use sia_nn::vgg::Vgg;
use sia_nn::Model;
use sia_quant::{quantize_pipeline, QatConfig};
use sia_serve::{Backend, LoadedModel, ModelRegistry, ServeConfig, Server};
use sia_snn::encode::rate_encode;
use sia_snn::{
    convert, drive_policy, BatchEvaluator, ConvertOptions, EngineInput, EvalConfig, EvalEncoding,
    FloatEngineFactory, InputEncoding, IntEngineFactory, SnnItem,
};
use std::process::ExitCode;
use std::sync::Arc;

fn main() -> ExitCode {
    let tokens: Vec<String> = std::env::args().skip(1).collect();
    // `Args::parse` would read a bare `--help` as an option of no command
    if tokens == ["--help"] {
        print!("{HELP}");
        return ExitCode::SUCCESS;
    }
    let args = match Args::parse(tokens) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(key) = known_flags(&args).and_then(|known| args.unknown_key(&known)) {
        let cmd = &args.command;
        eprintln!("error: unknown flag --{key} for `sia {cmd}` (see `sia help`)");
        return ExitCode::from(2);
    }
    let result = match args.command.as_str() {
        "train" => with_metrics(&args, cmd_train).map(|()| ExitCode::SUCCESS),
        "info" => cmd_info(&args).map(|()| ExitCode::SUCCESS),
        "check" => cmd_check(&args),
        "eval" => with_metrics(&args, cmd_eval).map(|()| ExitCode::SUCCESS),
        "serve" => with_metrics(&args, cmd_serve).map(|()| ExitCode::SUCCESS),
        "calibrate" => calibrate::cmd_calibrate(&args).map(|()| ExitCode::SUCCESS),
        "bench" => bench::cmd_bench(&args).map(|()| ExitCode::SUCCESS),
        "report" => report::cmd_report(&args).map(|()| ExitCode::SUCCESS),
        "help" => {
            print!("{HELP}");
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown subcommand '{other}' (try `sia help`)")),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const HELP: &str = "\
sia — spiking inference accelerator toolchain (paper reproduction)

USAGE:
  sia train   --out model.sia [--model resnet18|vgg11] [--width N]
              [--size N] [--epochs N] [--levels L] [--events]
              [--threads N] [--micro-batch N]
              [--metrics [out.jsonl]] [--trace out.json]
  sia info    <model.sia>
  sia check   <model.sia> [--timesteps N] [--format text|json] [--deny <rules>]
  sia check   --model resnet18|vgg11 [--width N] [--size N] [--events] [...]
  sia check   --list-rules
  sia eval    <model.sia> [--backend float|int|accel] [--threads N]
              [--timesteps N] [--burn-in N] [--images N] [--events] [--smoke]
              [--kernel-policy auto|sparse|dense]
              [--policy fixed|margin|entropy|calibrated] [--exit-margin X]
              [--exit-entropy X] [--exit-window N] [--exit-calibration FILE]
              [--policy-sweep] [--min-accuracy X] [--max-acc-drop X]
              [--metrics [out.jsonl]] [--trace out.json]
  sia serve   <model.sia> [--host H] [--port N] [--backend float|int|accel]
              [--threads N] [--timesteps N] [--burn-in N] [--queue N]
              [--port-file FILE]
              [--kernel-policy auto|sparse|dense]
              [--policy fixed|margin|entropy|calibrated] [--exit-margin X]
              [--exit-entropy X] [--exit-window N] [--exit-calibration FILE]
  sia calibrate <model.sia> [--timesteps N] [--burn-in N] [--exit-window N]
              [--max-acc-drop X] [--images N] [--smoke] [--out FILE]
  sia bench   [conv|gemm|eval|serve] [--out FILE.json] [--smoke] [--threads N]
              [--check-baseline] [--update-baseline] [--baseline-dir DIR]
              [--rel-slack PCT] [--mad-k K] [--allow-missing]
  sia bench   serve [--url HOST:PORT | --model model.sia] [--backend B]
              [--requests N] [--shutdown] [...]
  sia report  <metrics.jsonl> [--html report.html] [--trace spans.json]
  sia help

  --metrics out.jsonl  stream telemetry events to a JSON-lines file
  --metrics            print the counter/gauge/histogram table on exit
  --trace out.json     export spans as Chrome trace_event JSON
                       (open in chrome://tracing or ui.perfetto.dev)

  `eval --backend accel` ends with one more cycle-level run of the
  split's last image under the same settings and prints its modelled
  per-inference latency, spike rate and energy.

  `serve` answers POST /predict with predictions bit-identical to
  `sia eval` on the same model/backend/timesteps; each request runs on
  the resident engine pool, and once --queue requests are in flight
  further ones get HTTP 503 instead of waiting without bound.
  GET /metrics exposes the telemetry snapshot (p50/p95/p99 of
  snn.eval.image_us included); POST /models with a path field hot-swaps
  after static verification passes; POST /shutdown drains and exits.
  --port 0 picks an ephemeral port (write it with --port-file).

  `bench` runs one family from the unified registry — `conv` (event-driven
  scatter kernel vs dense, bit-exactness asserted at every density),
  `gemm` (blocked register-tiled GEMM vs naive across ResNet-18/VGG-11
  shapes), `eval` (end-to-end img/s through the BatchEvaluator on all
  three backends) or `serve` (HTTP load generator: latency quantiles and
  images/sec vs client concurrency against a self-hosted server, or
  --url for a running one; with a model available it first asserts served
  predictions match the local engine bit-for-bit; --shutdown stops the
  target afterwards). Every family writes one JSON schema (warmup
  discard, min-of-iters, median + MAD) to one file: --out, or by default
  BENCH_<name>.json for a full run and nothing for a --smoke run.
  --threads defaults to one worker per core, as does --threads 0; the
  report records the resolved count.
  --update-baseline records the run under --baseline-dir (default
  results/baselines/); --check-baseline exits 1 when any case exceeds its
  noise-aware threshold: min > baseline × (1 + rel-slack% + mad-k × MAD/median).
  --allow-missing downgrades baseline cases this mode cannot produce
  (e.g. serve --url cannot host the early-exit comparison server) from a
  failure to a notice.

  `report` summarises a metrics file: event-kind counts, the training
  curve and per-stage spike sparsity when present, and a per-layer table
  of the accel.layer events — wall-time, cycles, spikes, effective vs
  nominal ops, GOPS, spike density, AXI stalls, compute/memory/driver-bound
  classification against the Fig. 5 roofline — whose every sum it
  reconciles against the run's own counters (exit 1 on any mismatch).
  --html writes a self-contained dashboard (needs accel.layer events);
  add --trace spans.json for an inline flamegraph.

  `train --threads N` runs GEMM/conv and trainer shards on N pool workers
  (0 = one per core); `--micro-batch M` shards each batch for data-parallel
  gradient accumulation. Weights are bit-identical for every N.

  `check` statically verifies a model against the SIA (fixed-point interval
  analysis + hardware budget lints). --deny takes a comma-separated list of
  rule ids or prefixes (e.g. `--deny sat,budget.weight-sram`) promoted to
  errors. Exit codes: 0 pass, 1 errors, 2 usage. `eval` and `serve` refuse
  models whose check reports errors.

  Each spiking conv layer runs the event-driven scatter or the
  register-tiled dense kernel (3x3 stride-1 layers it tiles whole only),
  fixed once per layer from its geometry by a built-in integer cost model
  (--kernel-policy auto, the default); sparse always scatters, dense tiles
  wherever the tiled kernel applies. Every choice is bit-exact. The float
  backend has one kernel, the scatter. An unknown flag is a usage error
  (exit 2).

  Adaptive early exit: --policy margin|entropy stops integrating timesteps
  once the head's logits clear a confidence threshold (--exit-margin /
  --exit-entropy, checked every --exit-window timesteps after --burn-in).
  `calibrate` fits thresholds on held-out training data (accuracy
  floor --max-acc-drop below fixed-T) and writes
  results/calibration/exit.json; --policy calibrated loads it. `eval`
  prints avg executed T and exit rate; --policy-sweep prints the
  accuracy / avg-T / img/s Pareto table over a threshold grid;
  --min-accuracy and --max-acc-drop turn the run into a CI gate (exit 1
  below the floor). Unsound thresholds (provably unreachable or trivially
  satisfied) are flagged by the `exit.*` static lints before the run.
";

/// Every `--key` `args`'s subcommand (and bench family) reads; `None` for
/// an unknown subcommand, which fails by name on its own. `eval`, `serve`
/// and `bench serve` resolve their kernel and exit policies from
/// `POLICY`; the commands run under [`with_metrics`] read `metrics trace`.
fn known_flags(args: &Args) -> Option<Vec<&'static str>> {
    const POLICY: &str =
        "kernel-policy policy exit-margin exit-entropy exit-window exit-calibration";
    const BENCH: &str =
        "smoke threads out baseline-dir update-baseline check-baseline rel-slack mad-k allow-missing";
    let keys: &[&str] = match args.command.as_str() {
        "train" => &["out model width size epochs threads micro-batch levels events metrics trace"],
        "info" | "help" => &[],
        "check" => &["list-rules format timesteps deny model width size events"],
        "eval" => &[
            "backend timesteps burn-in smoke images threads events metrics trace",
            "policy-sweep min-accuracy max-acc-drop",
            POLICY,
        ],
        "serve" => &[
            "host port backend threads timesteps burn-in queue port-file metrics trace",
            POLICY,
        ],
        "calibrate" => &["timesteps burn-in exit-window max-acc-drop images smoke out"],
        "bench" => match args.positional.first().map_or("conv", String::as_str) {
            "eval" => &[BENCH, "model size kernel-policy"],
            "serve" => &[
                BENCH,
                "model size requests timesteps url shutdown backend burn-in queue",
                POLICY,
            ],
            _ => &[BENCH],
        },
        "report" => &["html trace"],
        _ => return None,
    };
    Some(keys.iter().flat_map(|k| k.split_whitespace()).collect())
}

/// Runs `cmd` with the `--metrics`/`--trace` sinks installed around it.
fn with_metrics(args: &Args, cmd: fn(&Args) -> Result<(), String>) -> Result<(), String> {
    let metrics = args.options.get("metrics").cloned();
    if let Some(v) = &metrics {
        let path = if v == "true" { None } else { Some(v.as_str()) };
        sia_telemetry::install_jsonl(path).map_err(|e| format!("opening metrics sink: {e}"))?;
    }
    if args.options.contains_key("trace") {
        sia_telemetry::capture_trace(true);
    }
    let result = cmd(args);
    if let Some(v) = &metrics {
        // Close the file with the run's final counter values: `sia report`
        // reconciles the per-layer event sums against exactly this event.
        sia_telemetry::emit_counters(&sia_telemetry::global_snapshot());
        let _ = sia_telemetry::uninstall_jsonl();
        if v == "true" {
            print!(
                "{}",
                sia_telemetry::render_table(&sia_telemetry::global_snapshot())
            );
        } else if result.is_ok() {
            println!("metrics written to {v}");
        }
    }
    if let Some(out) = args.options.get("trace") {
        let doc = sia_telemetry::chrome_trace_json(&sia_telemetry::take_trace_events());
        std::fs::write(out, doc).map_err(|e| format!("writing {out}: {e}"))?;
        if result.is_ok() {
            println!("chrome trace written to {out} (open in chrome://tracing)");
        }
    }
    result
}

/// Prints a usage error and yields the usage exit code (2).
fn usage(msg: impl std::fmt::Display) -> Result<ExitCode, String> {
    eprintln!("error: {msg}");
    Ok(ExitCode::from(2))
}

/// Loads the model to check: either a deployment image (positional path,
/// carrying its own target config, via the shared [`sia_serve::parse_file`]
/// loader — unverified, since `check` is the verifier) or a freshly
/// converted untrained `--model resnet18|vgg11` (static legality does not
/// depend on training).
fn check_subject(
    args: &Args,
) -> Result<Result<(sia_snn::SnnNetwork, SiaConfig), String>, ArgError> {
    if let Some(path) = args.positional.first() {
        return Ok(sia_serve::parse_file(path));
    }
    let model_kind = args.str_required("model")?;
    let width = args.usize_or("width", 4)?;
    let size = args.usize_or("size", 16)?;
    let mut model: Box<dyn Model> = match model_kind.as_str() {
        "resnet18" => Box::new(ResNet::resnet18(width, size, 10, 0xC11)),
        "vgg11" => Box::new(Vgg::vgg11(width, size, 10, 0xC11)),
        other => return Ok(Err(format!("unknown model '{other}' (resnet18|vgg11)"))),
    };
    // Static legality only needs the architecture and the quantized
    // activation grid, not trained weights.
    model.visit_activations(&mut |a| a.make_quantized(8));
    let snn = convert(
        &model.to_spec(),
        &ConvertOptions {
            encoding: if args.switch("events") {
                InputEncoding::EventDriven
            } else {
                InputEncoding::DirectCurrent
            },
            ..ConvertOptions::default()
        },
    );
    Ok(Ok((snn, SiaConfig::pynq_z2())))
}

fn cmd_check(args: &Args) -> Result<ExitCode, String> {
    if args.switch("list-rules") {
        println!("{:<22} {:<8} rule", "id", "default");
        for r in sia_check::rules() {
            println!("{:<22} {:<8} {}", r.id, r.severity.to_string(), r.summary);
        }
        return Ok(ExitCode::SUCCESS);
    }
    let format = args.str_or("format", "text");
    if format != "text" && format != "json" {
        return usage(format!("--format: expected text|json, got '{format}'"));
    }
    let timesteps = match args.usize_or("timesteps", 16) {
        Ok(t) => t,
        Err(e) => return usage(e),
    };
    let denied: Vec<String> = match args.options.get("deny") {
        None => Vec::new(),
        Some(v) if v == "true" => return usage("--deny needs a rule id or prefix"),
        Some(v) => v.split(',').map(|s| s.trim().to_string()).collect(),
    };
    for pat in &denied {
        if !sia_check::rules()
            .iter()
            .any(|r| r.id == pat || (r.id.starts_with(pat.as_str()) && pat.len() < r.id.len()))
        {
            return usage(format!(
                "--deny: '{pat}' matches no rule (see `sia check --list-rules`)"
            ));
        }
    }
    let (net, cfg) = match check_subject(args) {
        Ok(Ok(subject)) => subject,
        Ok(Err(e)) => return Err(e),
        Err(ArgError::Missing { .. }) => {
            return usage("usage: sia check <model.sia> | sia check --model resnet18|vgg11");
        }
        Err(e) => return usage(e),
    };
    let mut report = sia_check::check_network(&net, &cfg, timesteps);
    report.deny(&denied);
    if format == "json" {
        println!("{}", report.to_json());
    } else {
        print!("{report}");
    }
    Ok(if report.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

// `eval`/`calibrate`/`serve` all load through `sia_serve::load_for_run` /
// `ModelRegistry`, which enforce the shared encoding guard and the
// static-verification gate (`sia_serve::enforce_static_checks`) with the
// canonical messages — the three near-duplicate load paths this binary
// used to carry live there now.

/// The synthetic dataset every subcommand (and the eval bench) shares.
pub(crate) fn data_for(size: usize) -> SynthDataset {
    SynthDataset::generate(
        &SynthConfig {
            image_size: size,
            noise_std: 0.08,
            seed: 0x51A,
        },
        600,
        100,
    )
}

/// Evaluates a loaded model on one backend through the engine-pool path —
/// the exact pipeline `sia serve` answers `/predict` with, shared by
/// `sia eval` and `sia bench eval`.
pub(crate) fn evaluate_backend(
    evaluator: &BatchEvaluator,
    backend: Backend,
    model: &LoadedModel,
    timesteps: usize,
    policy: sia_snn::KernelPolicy,
    set: &sia_dataset::LabelledSet,
) -> Result<sia_snn::EvalOutcome, String> {
    Ok(match backend {
        Backend::Float => evaluator.evaluate(
            FloatEngineFactory::new(Arc::clone(&model.network)).with_kernel_policy(policy),
            set,
        ),
        Backend::Int => evaluator.evaluate(
            IntEngineFactory::new(Arc::clone(&model.network)).with_kernel_policy(policy),
            set,
        ),
        Backend::Accel => {
            let program =
                compile_for(&model.network, &model.config, timesteps).map_err(|e| e.to_string())?;
            evaluator.evaluate(
                SiaEngineFactory::new(program, model.config.clone()).with_kernel_policy(policy),
                set,
            )
        }
    })
}

fn cmd_serve(args: &Args) -> Result<(), String> {
    let path = args
        .positional
        .first()
        .ok_or("usage: sia serve <model.sia>")?;
    let host = args.str_or("host", "127.0.0.1");
    let port = args.usize_or("port", 8080).map_err(err)?;
    let port = u16::try_from(port).map_err(|_| format!("--port {port} out of range"))?;
    let backend: Backend = args.str_or("backend", "int").parse()?;
    let config = ServeConfig {
        backend,
        threads: args.usize_or("threads", 0).map_err(err)?,
        timesteps: args.usize_or("timesteps", 8).map_err(err)?,
        burn_in: args.usize_or("burn-in", 0).map_err(err)?,
        queue_capacity: args.usize_or("queue", 256).map_err(err)?,
        kernel_policy: calibrate::resolve_policy(args)?,
        exit: calibrate::resolve_exit_policy(args)?,
    };
    let registry = Arc::new(ModelRegistry::new(config.timesteps));
    let model = registry.load(path)?;
    warn_exit_policy(&model.network, config.exit, config.timesteps);
    let server = Server::bind(&host, port, registry, model, config)?;
    if let Some(port_file) = args.options.get("port-file") {
        std::fs::write(port_file, server.port().to_string())
            .map_err(|e| format!("writing {port_file}: {e}"))?;
    }
    let unit = server.serving();
    let exit_label = if config.exit.is_adaptive() {
        format!(" (early exit: {} policy)", config.exit.kind())
    } else {
        String::new()
    };
    println!(
        "serving {path} on http://{host}:{} — {} backend, {} worker(s), T={}{exit_label}, \
         queue {} (POST /shutdown to stop)",
        server.port(),
        config.backend,
        unit.workers(),
        config.timesteps,
        config.queue_capacity
    );
    server.run()
}

fn cmd_train(args: &Args) -> Result<(), String> {
    let out = args.str_required("out").map_err(err)?;
    let model_kind = args.str_or("model", "resnet18");
    let width = args.usize_or("width", 4).map_err(err)?;
    let size = args.usize_or("size", 16).map_err(err)?;
    let epochs = args.usize_or("epochs", 8).map_err(err)?;
    let threads = args.usize_or("threads", 1).map_err(err)?;
    let micro_batch = args.usize_or("micro-batch", 0).map_err(err)?;
    let levels = args.usize_or("levels", 8).map_err(err)?;
    if levels < 2 {
        return Err("--levels must be at least 2".into());
    }
    let events = args.switch("events");
    let data = data_for(size);
    let mut model: Box<dyn Model> = match model_kind.as_str() {
        "resnet18" => Box::new(ResNet::resnet18(width, size, 10, 0xC11)),
        "vgg11" => Box::new(Vgg::vgg11(width, size, 10, 0xC11)),
        other => return Err(format!("unknown model '{other}' (resnet18|vgg11)")),
    };
    println!("training {} on the synthetic dataset…", model.name());
    let report = sia_nn::trainer::train(
        model.as_mut(),
        &data,
        &TrainConfig {
            epochs,
            lr_decay_epochs: vec![epochs.saturating_sub(2).max(1)],
            threads,
            micro_batch,
            ..TrainConfig::default()
        },
    );
    println!("FP32 test accuracy {:.3}", report.final_test_acc());
    // The QAT fine-tune epochs inherit the same pool/sharding settings.
    // `--levels L` sets the QCFS quantization depth: accuracy saturates
    // near T ≈ L timesteps, so a low-T or early-exit deployment wants a
    // matching (smaller) L rather than the paper's default 8.
    let mut qat = QatConfig {
        levels,
        ..QatConfig::default()
    };
    qat.finetune.threads = threads;
    qat.finetune.micro_batch = micro_batch;
    let outcome = quantize_pipeline(model.as_mut(), &data, &qat);
    println!("quantized accuracy {:.3}", outcome.quantized_accuracy);
    let spec = model.to_spec();
    println!("plan: {}", spec.summary());
    let snn = convert(
        &spec,
        &ConvertOptions {
            encoding: if events {
                InputEncoding::EventDriven
            } else {
                InputEncoding::DirectCurrent
            },
            ..ConvertOptions::default()
        },
    );
    let report = sia_check::check_network(&snn, &SiaConfig::pynq_z2(), 16);
    if report.passed() {
        println!("static check: pass ({} warning(s))", report.warning_count());
    } else {
        println!(
            "static check: FAIL — {} error(s); `sia eval` will refuse this model \
             (see `sia check {out}`)",
            report.error_count()
        );
    }
    let image = write_image(&snn, &SiaConfig::pynq_z2());
    std::fs::write(&out, &image).map_err(|e| format!("writing {out}: {e}"))?;
    println!("wrote {} ({} bytes)", out, image.len());
    Ok(())
}

fn cmd_info(args: &Args) -> Result<(), String> {
    let path = args
        .positional
        .first()
        .ok_or("usage: sia info <model.sia>")?;
    let (net, cfg) = sia_serve::parse_file(path)?;
    println!("{net}");
    println!(
        "input {}x{}x{}, target: {}x{} PE array @ {} MHz",
        net.input.0,
        net.input.1,
        net.input.2,
        cfg.pe_rows,
        cfg.pe_cols,
        cfg.clock_hz / 1_000_000
    );
    for (i, item) in net.items.iter().enumerate() {
        match item {
            SnnItem::InputConv(c) => println!("  [{i}] input-conv {} (θ={})", c.geom, c.theta),
            SnnItem::Conv(c) => println!("  [{i}] conv {} (θ={})", c.geom, c.theta),
            SnnItem::ConvPsum(c) => println!("  [{i}] conv-psum {}", c.geom),
            SnnItem::BlockStart => println!("  [{i}] block-start"),
            SnnItem::BlockAdd(a) => println!(
                "  [{i}] block-add {}ch@{}x{} (down={}, θ={})",
                a.channels,
                a.h,
                a.w,
                a.down.is_some(),
                a.theta
            ),
            SnnItem::MaxPoolOr { channels, h, w } => {
                println!("  [{i}] or-pool {channels}ch@{h}x{w}");
            }
            SnnItem::Head(l) => println!("  [{i}] head {}→{}", l.channels, l.out),
        }
    }
    Ok(())
}

/// The cycle-level SIA's closing lines of `sia eval --backend accel`: one
/// more machine run of `image` under the eval's own settings, priced in
/// modelled latency and energy.
fn print_machine_run(
    model: &LoadedModel,
    eval: EvalConfig,
    policy: sia_snn::KernelPolicy,
    image: &sia_tensor::Tensor,
) -> Result<(), String> {
    let (timesteps, burn_in) = (eval.timesteps, eval.burn_in);
    let program =
        compile_for(&model.network, &model.config, timesteps).map_err(|e| e.to_string())?;
    let mut machine = SiaMachine::new(program, model.config.clone());
    machine.set_kernel_policy(policy);
    let events;
    let input = match eval.encoding {
        EvalEncoding::Dense => EngineInput::Image(image),
        EvalEncoding::Events { value_per_event } => {
            events = rate_encode(image, timesteps, value_per_event);
            EngineInput::Events(&events)
        }
    };
    let run: MachineRun = drive_policy(&mut machine, input, timesteps, burn_in, eval.exit).into();
    println!(
        "per-inference: {:.3} ms, overall spike rate {:.3}",
        run.report.total_ms(),
        run.stats.overall_rate()
    );
    println!("energy: {}", energy_report(&model.config, &run.report));
    Ok(())
}

/// Prints early-exit soundness warnings (`exit.*` lints) for a policy the
/// user is about to run with.
fn warn_exit_policy(net: &sia_snn::SnnNetwork, exit: sia_snn::ExitPolicy, timesteps: usize) {
    for d in sia_check::lint_exit(net, exit, timesteps) {
        eprintln!("{d}");
    }
}

/// One measured point on the accuracy-vs-timesteps Pareto front.
struct SweepPoint {
    label: String,
    accuracy: f32,
    avg_t: f32,
    exit_rate: f32,
    img_s: f64,
}

/// `sia eval --policy-sweep`: evaluates the fixed baseline plus a grid of
/// margin and entropy thresholds and prints the Pareto table (accuracy,
/// average executed T, exit rate, throughput per policy).
fn eval_policy_sweep(
    backend: Backend,
    model: &LoadedModel,
    base: EvalConfig,
    policy: sia_snn::KernelPolicy,
    set: &sia_dataset::LabelledSet,
) -> Result<(), String> {
    use sia_snn::ExitPolicy;
    let timesteps = base.timesteps;
    const MARGINS: [f32; 5] = [0.1, 0.25, 0.5, 1.0, 2.0];
    const ENTROPIES: [f32; 5] = [0.5, 0.3, 0.2, 0.1, 0.05];
    let mut grid: Vec<(String, ExitPolicy)> = vec![("fixed".into(), ExitPolicy::Fixed)];
    grid.extend(MARGINS.iter().map(|&threshold| {
        (
            format!("margin ≥ {threshold}"),
            ExitPolicy::Margin {
                threshold,
                window: 1,
            },
        )
    }));
    grid.extend(ENTROPIES.iter().map(|&threshold| {
        (
            format!("entropy ≤ {threshold}"),
            ExitPolicy::Entropy {
                threshold,
                window: 1,
            },
        )
    }));
    let mut points = Vec::with_capacity(grid.len());
    for (label, exit) in grid {
        let evaluator = BatchEvaluator::new(EvalConfig { exit, ..base });
        let t0 = std::time::Instant::now();
        let outcome = evaluate_backend(&evaluator, backend, model, timesteps, policy, set)?;
        let wall = t0.elapsed().as_secs_f64().max(1e-9);
        points.push(SweepPoint {
            label,
            accuracy: outcome.accuracy(),
            avg_t: outcome.avg_t(),
            exit_rate: outcome.exit_rate(),
            img_s: outcome.total as f64 / wall,
        });
    }
    println!(
        "policy sweep: {} images, T={timesteps}, {backend} backend",
        set.len()
    );
    println!(
        "{:<16} {:>9} {:>7} {:>9} {:>9}",
        "policy", "accuracy", "avg T", "exit %", "img/s"
    );
    for p in &points {
        println!(
            "{:<16} {:>8.1}% {:>7.2} {:>8.1}% {:>9.1}",
            p.label,
            p.accuracy * 100.0,
            p.avg_t,
            p.exit_rate * 100.0,
            p.img_s
        );
    }
    Ok(())
}

fn cmd_eval(args: &Args) -> Result<(), String> {
    let path = args
        .positional
        .first()
        .ok_or("usage: sia eval <model.sia>")?;
    let backend = args.str_or("backend", "int");
    let timesteps = args.usize_or("timesteps", 8).map_err(err)?;
    let burn_in = args.usize_or("burn-in", 0).map_err(err)?;
    let smoke = args.switch("smoke");
    let n_images = args
        .usize_or("images", if smoke { 40 } else { 100 })
        .map_err(err)?;
    let threads = args.usize_or("threads", 1).map_err(err)?;
    let use_events = args.switch("events");
    let backend: Backend = backend.parse()?;
    let model = sia_serve::load_for_run(path, use_events, timesteps)?;
    let data = data_for(model.network.input.1);
    let set = data.test.take(n_images);
    let encoding = if use_events {
        EvalEncoding::Events {
            value_per_event: 1.0,
        }
    } else {
        EvalEncoding::Dense
    };
    let policy = calibrate::resolve_policy(args)?;
    if args.switch("policy-sweep") {
        return eval_policy_sweep(
            backend,
            &model,
            EvalConfig {
                timesteps,
                burn_in,
                threads,
                encoding,
                exit: sia_snn::ExitPolicy::Fixed,
            },
            policy,
            &set,
        );
    }
    let exit = calibrate::resolve_exit_policy(args)?;
    warn_exit_policy(&model.network, exit, timesteps);
    let eval = EvalConfig {
        timesteps,
        burn_in,
        threads,
        encoding,
        exit,
    };
    let evaluator = BatchEvaluator::new(eval);
    let t0 = std::time::Instant::now();
    let outcome = evaluate_backend(&evaluator, backend, &model, timesteps, policy, &set)?;
    let wall = t0.elapsed();
    println!(
        "{}/{} correct ({:.1}%) at T={timesteps} (burn-in {burn_in}) on the {backend} backend",
        outcome.correct(),
        outcome.total,
        outcome.accuracy() * 100.0
    );
    if exit.is_adaptive() {
        println!(
            "early exit ({} policy): avg T {:.2} of {timesteps}, {:.1}% of images exited early",
            exit.kind(),
            outcome.avg_t(),
            outcome.exit_rate() * 100.0
        );
    }
    let threads_label = if threads == 0 {
        "auto".to_string()
    } else {
        threads.to_string()
    };
    println!(
        "{threads_label} thread(s), {:.2}s wall ({:.1} img/s)",
        wall.as_secs_f64(),
        outcome.total as f64 / wall.as_secs_f64().max(1e-9)
    );
    println!("{}", outcome.stats);
    if backend == Backend::Accel && !set.is_empty() {
        print_machine_run(&model, eval, policy, set.get(set.len() - 1).0)?;
    }
    if let Some(min) = args.options.get("min-accuracy") {
        let min: f32 = min
            .parse()
            .map_err(|_| format!("--min-accuracy: '{min}' is not a number"))?;
        if outcome.accuracy() < min {
            return Err(format!(
                "accuracy {:.3} below the --min-accuracy floor {min}",
                outcome.accuracy()
            ));
        }
    }
    if exit.is_adaptive() && args.options.contains_key("max-acc-drop") {
        let drop = args.f64_or("max-acc-drop", 0.01).map_err(err)? as f32;
        let fixed_eval = BatchEvaluator::new(EvalConfig {
            timesteps,
            burn_in,
            threads,
            encoding,
            exit: sia_snn::ExitPolicy::Fixed,
        });
        let fixed = evaluate_backend(&fixed_eval, backend, &model, timesteps, policy, &set)?;
        let floor = fixed.accuracy() - drop;
        println!(
            "fixed-T reference: {:.1}% accuracy (adaptive floor {:.1}%)",
            fixed.accuracy() * 100.0,
            floor * 100.0
        );
        if outcome.accuracy() < floor {
            return Err(format!(
                "adaptive accuracy {:.3} dropped more than {drop} below the fixed-T \
                 accuracy {:.3}",
                outcome.accuracy(),
                fixed.accuracy()
            ));
        }
    }
    Ok(())
}

pub(crate) fn err(e: ArgError) -> String {
    e.to_string()
}
