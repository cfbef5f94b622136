//! `serve-exit-open`: the `sia serve` stack hosted in-process under an
//! open loop of single-image `/predict` requests, and the serving probe
//! the other workloads' traced runs use.

use crate::common::{
    exit_layers, finish, image_pool, latency_metrics, machine_layers, machine_sample,
    margin_policy, ordered_set, peak_rss_mb, reference, runner_layers, same_logits, setup_layers,
    setup_seconds, total_taps, traced_evaluate, Checks, RunResult, ACCURACY_FLOOR, MACHINE_SAMPLE,
    MIN_SAMPLES, POOL, TIMESTEPS,
};
use crate::model::{self, MODEL_PATH};
use crate::schedule::{image_order, poisson_schedule};
use crate::stats;
use crate::trace::{Clock, Tracer};
use sia_dataset::LabelledSet;
use sia_serve::{
    images_json, parse_images, parse_predictions, predictions_json, Client, LoadedModel,
    ModelRegistry, Prediction, ServeConfig, Server, ServingUnit,
};
use sia_snn::{ExitPolicy, KernelPolicy};
use sia_telemetry::json::{self, Json};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Offered load, requests per second.
pub const RATE: f64 = 40.0;
/// Keep-alive client connections.
pub const CONNECTIONS: usize = 8;
/// Paced requests before the timed phase.
pub const WARMUP_REQUESTS: usize = 40;
/// Rounds of the codec probe over the pool's bodies.
const CODEC_ROUNDS: usize = 4;
/// Server histograms read from `/metrics` before and after the phase.
const HISTOGRAMS: [&str; 3] = [
    "serve.queue_wait_us",
    "serve.request_us",
    "snn.eval.image_us",
];

/// The `sia serve` defaults (int backend, T = 8, one worker per core,
/// max-batch 16, max-delay 2000 µs, queue 256) under `policy`, with the
/// kernel policy pinned to `Auto`.
#[must_use]
pub fn serve_config(policy: ExitPolicy) -> ServeConfig {
    ServeConfig {
        kernel_policy: KernelPolicy::Auto,
        exit: policy,
        ..ServeConfig::default()
    }
}

/// Binds an ephemeral loopback server for `model`.
///
/// # Errors
///
/// Propagates bind and unit start failures.
pub fn bind(
    registry: Arc<ModelRegistry>,
    model: Arc<LoadedModel>,
    policy: ExitPolicy,
) -> Result<Arc<Server>, String> {
    Server::bind("127.0.0.1", 0, registry, model, serve_config(policy))
}

/// One request of the open loop, timed on the shared clock.
#[derive(Debug)]
pub struct RequestRecord {
    /// Position in the schedule.
    pub k: usize,
    /// When it was due, ns.
    pub due_ns: u64,
    /// When the generator began sending it, ns.
    pub send_ns: u64,
    /// When the response was read, ns.
    pub done_ns: u64,
    /// Status and body, or the I/O error.
    pub response: Result<(u16, Vec<u8>), String>,
}

/// Mean of each server histogram over the timed phase, from two
/// `/metrics` reads.
fn histogram_means(
    before: &BTreeMap<String, (u64, f64)>,
    after: &BTreeMap<String, (u64, f64)>,
) -> Result<[f64; 3], String> {
    let mut out = [0.0; 3];
    for (slot, name) in out.iter_mut().zip(HISTOGRAMS) {
        let (c0, m0) = before.get(name).copied().unwrap_or((0, 0.0));
        let (c1, m1) = after
            .get(name)
            .copied()
            .ok_or_else(|| format!("/metrics has no {name} histogram"))?;
        if c1 <= c0 {
            return Err(format!("{name} recorded nothing during the phase"));
        }
        *slot = (c1 as f64 * m1 - c0 as f64 * m0) / (c1 - c0) as f64;
    }
    Ok(out)
}

/// `(count, mean)` of the server histograms, from `GET /metrics`.
fn read_histograms(client: &mut Client) -> Result<BTreeMap<String, (u64, f64)>, String> {
    let (status, body) = client
        .get("/metrics")
        .map_err(|e| format!("GET /metrics: {e}"))?;
    if status != 200 {
        return Err(format!("GET /metrics answered {status}"));
    }
    let text = std::str::from_utf8(&body).map_err(|e| e.to_string())?;
    let parsed = json::parse(text)?;
    let Some(Json::Obj(hists)) = parsed.get("histograms") else {
        return Err("/metrics has no histograms object".to_string());
    };
    Ok(hists
        .iter()
        .filter_map(|(name, h)| {
            let count = h.get("count")?.as_u64()?;
            let mean = h.get("mean")?.as_f64()?;
            Some((name.clone(), (count, mean)))
        })
        .collect())
}

/// Sends `due.len()` requests on a fixed schedule over the pre-connected
/// `clients`, one in flight per connection: each connection thread takes
/// the next unsent request, sleeps until it is due, sends it and waits for
/// the response. A request due while every connection is busy goes out
/// late, and its latency counts that wait. Returns the connections (for
/// reuse) and the records in schedule order.
fn open_loop(
    clients: Vec<Option<Client>>,
    addr: &str,
    clock: Clock,
    start_ns: u64,
    due: &[f64],
    bodies: &[&[u8]],
) -> (Vec<Option<Client>>, Vec<RequestRecord>) {
    // a work counter only: it publishes no data, so Relaxed suffices
    let next = AtomicUsize::new(0);
    let (clients, mut records): (Vec<_>, Vec<_>) = std::thread::scope(|s| {
        let threads: Vec<_> = clients
            .into_iter()
            .map(|mut client| {
                let next = &next;
                s.spawn(move || {
                    // concurrency-allow: load-generator connection threads (joined by the scope)
                    let mut out = Vec::new();
                    loop {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        if k >= due.len() {
                            break (client, out);
                        }
                        let due_ns = start_ns + (due[k] * 1e9) as u64;
                        let now = clock.now_ns();
                        if due_ns > now {
                            std::thread::sleep(Duration::from_nanos(due_ns - now));
                        }
                        let send_ns = clock.now_ns();
                        let response = post(&mut client, addr, bodies[k]);
                        out.push(RequestRecord {
                            k,
                            due_ns,
                            send_ns,
                            done_ns: clock.now_ns(),
                            response,
                        });
                    }
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().unwrap_or_else(|_| (None, Vec::new())))
            .unzip()
    });
    let mut records: Vec<RequestRecord> = records.drain(..).flatten().collect();
    records.sort_by_key(|r| r.k);
    (clients, records)
}

/// Posts one body, connecting first if the connection was lost.
fn post(client: &mut Option<Client>, addr: &str, body: &[u8]) -> Result<(u16, Vec<u8>), String> {
    if client.is_none() {
        *client = Some(Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?);
    }
    let conn = client.as_mut().ok_or("no connection")?;
    let result = conn.post("/predict", body).map_err(|e| e.to_string());
    if result.is_err() {
        *client = None;
    }
    result
}

/// What a serving session measured.
#[derive(Debug)]
pub struct Served {
    /// Requests of the timed phase, in schedule order.
    pub records: Vec<RequestRecord>,
    /// Pool index each request carried.
    pub order: Vec<usize>,
    /// Phase start on the shared clock, ns.
    pub start_ns: u64,
    /// Means of `serve.queue_wait_us`, `serve.request_us` and
    /// `snn.eval.image_us` over the phase.
    pub server_us: [f64; 3],
    /// Peak RSS right after the phase, MiB.
    pub peak_rss_mb: f64,
    /// Engine workers behind the served unit.
    pub workers: usize,
    /// One `/predict` body per pool image.
    pub bodies: Vec<Vec<u8>>,
    /// Local single-thread reference answer per pool image.
    pub reference: Vec<Prediction>,
    /// Served answer (`None` when failed) per request.
    pub answers: Vec<Option<usize>>,
}

impl Served {
    /// Latency from due time to response (or error) of every request, ms:
    /// a wrong answer still took this long, and is counted as failed.
    #[must_use]
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.records
            .iter()
            .map(|r| (r.done_ns - r.due_ns) as f64 / 1e6)
            .collect()
    }

    /// Answered requests per second of phase wall time (phase start to the
    /// last response).
    #[must_use]
    pub fn img_per_s(&self) -> f64 {
        let answered = self.answers.iter().filter(|a| a.is_some()).count();
        let end = self.records.iter().map(|r| r.done_ns).max().unwrap_or(0);
        answered as f64 / ((end - self.start_ns) as f64 / 1e9)
    }
}

/// Hosts a server for `model` under `policy`, answers every pool image on a
/// local threads = 1 [`ServingUnit`] as the reference, drives the open loop
/// (`due`, `order`) after a paced warm-up, and verifies every answer
/// bit-for-bit against the reference.
///
/// # Errors
///
/// Fails when the server cannot be bound or read; per-request failures
/// are booked in `checks` instead.
#[allow(clippy::too_many_arguments)]
pub fn session(
    server: &Arc<Server>,
    model: &Arc<LoadedModel>,
    pool: &LabelledSet,
    policy: ExitPolicy,
    seed: u64,
    due: &[f64],
    order: &[usize],
    clock: Clock,
    checks: &mut Checks,
) -> Result<Served, String> {
    let images: Vec<_> = (0..pool.len()).map(|i| pool.get(i).0.clone()).collect();
    let bodies: Vec<Vec<u8>> = images
        .iter()
        .map(|img| images_json(std::slice::from_ref(img)).into_bytes())
        .collect();
    let reference = {
        let unit = ServingUnit::start(
            Arc::clone(model),
            ServeConfig {
                threads: 1,
                ..serve_config(policy)
            },
        )?;
        let answers = unit.predict(images).map_err(|e| e.to_string())?;
        unit.shutdown();
        answers
    };
    let addr = format!("127.0.0.1:{}", server.port());
    let warm_due = poisson_schedule(seed ^ 0x5741_524D, RATE, WARMUP_REQUESTS);
    let warm_bodies: Vec<&[u8]> = (0..WARMUP_REQUESTS)
        .map(|k| bodies[k % bodies.len()].as_slice())
        .collect();
    let phase_bodies: Vec<&[u8]> = order.iter().map(|&i| bodies[i].as_slice()).collect();
    let workers = server.serving().workers();
    let (records, start_ns, server_us, peak_rss) = std::thread::scope(|s| {
        // concurrency-allow: server host thread (joined by the scope)
        let host = s.spawn(|| server.run());
        let body = || -> Result<_, String> {
            let connect = || Client::connect(&addr).map_err(|e| format!("connect {addr}: {e}"));
            let clients = (0..CONNECTIONS)
                .map(|_| connect().map(Some))
                .collect::<Result<Vec<_>, _>>()?;
            let mut probe = connect()?;
            let warm_start = clock.now_ns();
            let (clients, _) =
                open_loop(clients, &addr, clock, warm_start, &warm_due, &warm_bodies);
            let before = read_histograms(&mut probe)?;
            let start_ns = clock.now_ns();
            let (_, records) = open_loop(clients, &addr, clock, start_ns, due, &phase_bodies);
            let peak_rss = peak_rss_mb()?;
            let after = read_histograms(&mut probe)?;
            Ok((
                records,
                start_ns,
                histogram_means(&before, &after)?,
                peak_rss,
            ))
        };
        let result = body();
        server.request_shutdown();
        match host.join() {
            Ok(Ok(())) => result,
            Ok(Err(e)) => Err(format!("server stopped with an error: {e}")),
            Err(_) => Err("server host thread panicked".to_string()),
        }
    })?;
    checks.attempt(records.len());
    let answers = records
        .iter()
        .map(|r| {
            let want = &reference[order[r.k]];
            let got = match &r.response {
                Ok((200, body)) => parse_predictions(body),
                Ok((status, _)) => Err(format!("HTTP {status}")),
                Err(e) => Err(e.clone()),
            };
            match got {
                Ok(p) if p.len() == 1 && same_prediction(&p[0], want) => Some(p[0].class),
                Ok(_) => {
                    checks.fail(1, format!("request {}: answer ≠ local reference", r.k));
                    None
                }
                Err(e) => {
                    checks.fail(1, format!("request {}: {e}", r.k));
                    None
                }
            }
        })
        .collect();
    Ok(Served {
        records,
        order: order.to_vec(),
        start_ns,
        server_us,
        peak_rss_mb: peak_rss,
        workers,
        bodies,
        reference,
        answers,
    })
}

fn same_prediction(a: &Prediction, b: &Prediction) -> bool {
    a.class == b.class
        && same_logits(
            std::slice::from_ref(&a.logits),
            std::slice::from_ref(&b.logits),
        )
}

/// Correct answers among the answered requests.
fn correct(served: &Served, pool: &LabelledSet) -> (usize, usize) {
    let answered = served.answers.iter().filter(|a| a.is_some()).count();
    let correct = served
        .answers
        .iter()
        .zip(&served.order)
        .filter(|(a, &i)| **a == Some(pool.get(i).1))
        .count();
    (correct, answered)
}

/// Records the session's request spans and fills the serving-layer
/// per-layer values: server histograms, the codec probe (`parse_images` on
/// the pool's bodies, `predictions_json` on their answers), HTTP time and
/// generator lateness.
///
/// # Errors
///
/// Refuses a lateness p99 below the sample rule.
pub fn serve_layers(
    served: &Served,
    dims: (usize, usize, usize),
    tracer: &mut Tracer,
    values: &mut BTreeMap<&'static str, f64>,
) -> Result<(), String> {
    for r in &served.records {
        let id = r.k as u64;
        let root = tracer.push("loadgen.request", id, None, r.due_ns, r.done_ns);
        tracer.push("loadgen.late", id, root, r.due_ns, r.send_ns);
        tracer.push("http.exchange", id, root, r.send_ns, r.done_ns);
    }
    for round in 0..CODEC_ROUNDS {
        for (i, body) in served.bodies.iter().enumerate() {
            let id = (round * served.bodies.len() + i) as u64;
            let (parsed, _) = tracer.time("server.parse", id, None, |_| parse_images(body, dims));
            parsed?;
            let answer = [served.reference[i].clone()];
            tracer.time("server.encode", id, None, |_| {
                std::hint::black_box(predictions_json(&answer))
            });
        }
    }
    let st = tracer.self_times();
    let mean_us = |name: &str| {
        st.get(name)
            .map_or(0.0, |s| s.self_ns as f64 / s.count as f64 / 1e3)
    };
    let [wait, predict, image] = served.server_us;
    let parse = mean_us("server.parse");
    let encode = mean_us("server.encode");
    values.insert("batcher.wait_us", wait);
    values.insert("server.predict_us", predict);
    values.insert("runner.image_us", image);
    values.insert("pool.dispatch_us", predict - wait - image);
    values.insert("server.parse_us", parse);
    values.insert("server.encode_us", encode);
    values.insert(
        "http.us",
        mean_us("http.exchange") - predict - parse - encode,
    );
    let late_ms: Vec<f64> = tracer
        .self_times_of("loadgen.late")
        .iter()
        .map(|&ns| ns as f64 / 1e6)
        .collect();
    values.insert("loadgen.late_p99_ms", stats::percentile(&late_ms, 0.99)?);
    Ok(())
}

/// The serving probe of a traced run whose workload does not serve: the
/// same stack, loop and checks on the workload's pool under its `policy`,
/// for [`MIN_SAMPLES`] requests.
///
/// # Errors
///
/// Propagates session failures.
pub fn probe(
    pool: &LabelledSet,
    policy: ExitPolicy,
    seed: u64,
    tracer: &mut Tracer,
    checks: &mut Checks,
    values: &mut BTreeMap<&'static str, f64>,
) -> Result<(), String> {
    let registry = Arc::new(ModelRegistry::new(TIMESTEPS));
    let model = registry.load(MODEL_PATH)?;
    let server = bind(Arc::clone(&registry), Arc::clone(&model), policy)?;
    let due = poisson_schedule(seed, RATE, MIN_SAMPLES);
    let order = image_order(seed, POOL, MIN_SAMPLES);
    let served = session(
        &server,
        &model,
        pool,
        policy,
        seed,
        &due,
        &order,
        tracer.clock,
        checks,
    )?;
    serve_layers(&served, model.network.input, tracer, values)
}

/// Runs `serve-exit-open`.
///
/// # Errors
///
/// Fails on set-up errors and on a p99 below the sample rule.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<RunResult, String> {
    model::verify()?;
    let policy = margin_policy();
    let setup_s = setup_seconds(|| {
        let registry = Arc::new(ModelRegistry::new(TIMESTEPS));
        let model = registry.load(MODEL_PATH)?;
        bind(registry, model, policy)
    })?;
    let registry = Arc::new(ModelRegistry::new(TIMESTEPS));
    let model = registry.load(MODEL_PATH)?;
    let server = bind(Arc::clone(&registry), Arc::clone(&model), policy)?;
    let mut tracer = Tracer::new(Clock::start(), trace);
    let mut checks = Checks::default();
    let pool = image_pool(seed);
    let n = MIN_SAMPLES.max((RATE * seconds).round() as usize);
    let due = poisson_schedule(seed, RATE, n);
    let order = image_order(seed, POOL, n);
    let served = session(
        &server,
        &model,
        &pool,
        policy,
        seed,
        &due,
        &order,
        tracer.clock,
        &mut checks,
    )?;
    drop(server);
    // the cycle-level machine on a pool sample under the same policy
    let sample: Vec<_> = (0..MACHINE_SAMPLE).map(|i| pool.get(i).0).collect();
    let expected: Vec<usize> = served.reference[..MACHINE_SAMPLE]
        .iter()
        .map(|p| p.class)
        .collect();
    let sim = machine_sample(&model, &sample, &expected, policy, &mut tracer, &mut checks)?;
    let reference = reference(&model, policy, &mut checks)?;
    let latencies = served.latencies_ms();
    let (correct, answered) = correct(&served, &pool);
    let mut values = BTreeMap::new();
    values.insert("img_per_s", served.img_per_s());
    latency_metrics(&latencies, &latencies, &mut values)?;
    values.insert("setup_s", setup_s);
    values.insert("accuracy", reference.accuracy);
    values.insert("peak_rss_mb", served.peak_rss_mb);
    values.insert("sim_ms_per_img", sim.ms_per_img());
    values.insert("sim_gops", reference.sim.gops());
    if trace {
        // the served image sequence replayed on the integer datapath
        // through the pass-through engine, under the same policy
        let replay_set = ordered_set(&pool, &order);
        let (outcome, records) = traced_evaluate(&model, &replay_set, policy, &mut tracer, 0)?;
        checks.attempt(outcome.total);
        for (k, (&pred, served_class)) in
            outcome.predictions.iter().zip(&served.answers).enumerate()
        {
            if served_class.is_some_and(|c| c != pred) {
                checks.fail(1, format!("replay of request {k} ≠ served answer"));
            }
        }
        runner_layers(&tracer, outcome.total, total_taps(&records), &mut values);
        exit_layers(&outcome, &mut values);
        machine_layers(&tracer, &sim, &mut values);
        serve_layers(&served, model.network.input, &mut tracer, &mut values)?;
        setup_layers(&mut tracer, &mut values)?;
    }
    if (correct as f64) < ACCURACY_FLOOR * answered as f64 {
        checks.problem(format!("accuracy {correct}/{answered} below the floor"));
    }
    finish(
        "serve-exit-open",
        seed,
        &tracer,
        values,
        checks,
        latencies.len(),
        served.workers,
    )
}
