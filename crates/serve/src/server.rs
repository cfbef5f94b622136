//! The serving front end: persistent engines behind an HTTP/1.1 listener.
//!
//! A [`Server`] owns a [`ModelRegistry`] and one *serving unit* — the
//! currently-served model plus its long-lived [`EnginePool`]. Connection
//! threads parse `/predict` bodies and submit them straight to the pool, so
//! engines stay resident across requests, the pool's submission queue is
//! the only queue between a request and an engine, and the per-request
//! cost is the inference itself, not setup.
//!
//! Admission: a request is refused with [`Overloaded`] (HTTP 503) when
//! `queue_capacity` requests are already in flight — running or waiting
//! for an engine — or once the unit has been shut down. The in-flight
//! count is an RAII claim, so a request that leaves by any path, unwinding
//! included, frees its slot.
//!
//! Determinism: a predict request flows through the exact pipeline
//! `sia eval` uses — [`EnginePool::submit`] with the same per-image
//! independent runs and index-order reduction — so served predictions are
//! bit-identical to offline evaluation on the same model, backend and
//! timestep count, for any thread count and any request interleaving.
//!
//! Endpoints (all JSON):
//!
//! * `POST /predict` — `{"images": [[f32; C·H·W], …]}` →
//!   `{"predictions": [class, …], "logits": [[f32; classes], …]}`;
//!   `503` with `{"error": "overloaded", …}` under backpressure.
//! * `GET /healthz` — serving model hash, backend, shapes.
//! * `GET /metrics` — telemetry snapshot: counters, gauges, histogram
//!   summaries (count/mean/p50/p95/p99) including `snn.eval.image_us`.
//! * `GET /models` — registry contents; `POST /models`
//!   (`{"path": "other.sia"}`) loads, verifies and hot-swaps — a model
//!   failing `sia_check` is refused and the old unit keeps serving.
//! * `POST /shutdown` — clean drain-and-exit (the CI gate's stop signal).

use crate::http::{read_request, write_response, ReadOutcome, Request};
use crate::registry::{Backend, LoadedModel, ModelRegistry};
use sia_accel::{compile_for, SiaEngineFactory};
use sia_snn::{
    EnginePool, EvalBatch, EvalEncoding, ExitPolicy, FloatEngineFactory, IntEngineFactory,
};
use sia_telemetry::json::{self, Json};
use sia_tensor::Tensor;
use std::io::BufReader;
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

/// How long a connection thread blocks in `read` before polling the
/// shutdown flag (keep-alive connections notice shutdown within this).
const IDLE_POLL: Duration = Duration::from_millis(200);

/// Serving parameters (`sia serve`'s knobs).
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Engine backend.
    pub backend: Backend,
    /// Pool worker threads; `0` = one per core.
    pub threads: usize,
    /// Timesteps per image.
    pub timesteps: usize,
    /// Readout burn-in.
    pub burn_in: usize,
    /// Requests admitted at once (running or waiting for an engine);
    /// beyond it `/predict` returns 503.
    pub queue_capacity: usize,
    /// Psum kernel policy every pooled engine starts with (`Auto` = each
    /// layer's kernel fixed from its geometry by the built-in cost model;
    /// or a forced kernel).
    pub kernel_policy: sia_snn::KernelPolicy,
    /// Confidence-gated early-exit policy applied per served image
    /// ([`ExitPolicy::Fixed`] = run every timestep, the classic behaviour).
    pub exit: ExitPolicy,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            backend: Backend::Int,
            threads: 0,
            timesteps: 8,
            burn_in: 0,
            queue_capacity: 256,
            kernel_policy: sia_snn::KernelPolicy::Auto,
            exit: ExitPolicy::Fixed,
        }
    }
}

/// One served prediction.
#[derive(Clone, Debug, PartialEq)]
pub struct Prediction {
    /// Predicted class at the final timestep.
    pub class: usize,
    /// Final-timestep logits.
    pub logits: Vec<f32>,
}

/// Backpressure rejection: `capacity` requests were already in flight, or
/// the serving unit was shutting down.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Overloaded {
    /// The in-flight bound (`ServeConfig::queue_capacity`).
    pub capacity: usize,
}

impl std::fmt::Display for Overloaded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "serving unit full ({} requests in flight) or shutting down",
            self.capacity
        )
    }
}

impl std::error::Error for Overloaded {}

/// Why a predict call failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PredictError {
    /// Backpressure: the in-flight bound was reached or the unit is closed.
    Overloaded(Overloaded),
    /// An engine failed.
    Internal(String),
}

impl std::fmt::Display for PredictError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PredictError::Overloaded(o) => o.fmt(f),
            PredictError::Internal(msg) => write!(f, "inference failed: {msg}"),
        }
    }
}

impl std::error::Error for PredictError {}

/// The admission gate: an in-flight count bounded by `capacity`, plus the
/// closed flag [`ServingUnit::shutdown`] sets.
struct Admission {
    in_flight: AtomicUsize,
    closed: AtomicBool,
    capacity: usize,
}

/// One admitted request's claim on the in-flight count, released on drop.
struct Slot<'a>(&'a AtomicUsize);

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

impl Admission {
    fn admit(&self) -> Result<Slot<'_>, Overloaded> {
        let admitted = !self.closed.load(Ordering::SeqCst)
            && self
                .in_flight
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                    (n < self.capacity).then_some(n + 1)
                })
                .is_ok();
        if admitted {
            Ok(Slot(&self.in_flight))
        } else {
            sia_telemetry::counter!("serve.rejected.overloaded", 1);
            Err(Overloaded {
                capacity: self.capacity,
            })
        }
    }
}

/// A model bound to live engines: the hot-swappable half of a [`Server`].
///
/// Requests run on their caller's thread through the resident pool;
/// dropping the last handle joins the pool's workers.
pub struct ServingUnit {
    /// The model this unit serves.
    pub model: Arc<LoadedModel>,
    pool: EnginePool,
    params: EvalBatch,
    admission: Admission,
    config: ServeConfig,
}

impl ServingUnit {
    /// Builds the engine pool for `model`.
    ///
    /// # Errors
    ///
    /// Fails when the accel backend cannot compile the model.
    pub fn start(model: Arc<LoadedModel>, config: ServeConfig) -> Result<Arc<ServingUnit>, String> {
        let pool = match config.backend {
            Backend::Float => EnginePool::new(
                FloatEngineFactory::new(Arc::clone(&model.network))
                    .with_kernel_policy(config.kernel_policy),
                config.threads,
            ),
            Backend::Int => EnginePool::new(
                IntEngineFactory::new(Arc::clone(&model.network))
                    .with_kernel_policy(config.kernel_policy),
                config.threads,
            ),
            Backend::Accel => {
                let program = compile_for(&model.network, &model.config, config.timesteps)
                    .map_err(|e| e.to_string())?;
                EnginePool::new(
                    SiaEngineFactory::new(program, model.config.clone())
                        .with_kernel_policy(config.kernel_policy),
                    config.threads,
                )
            }
        };
        Ok(ServingUnit::with_pool(model, config, pool))
    }

    fn with_pool(model: Arc<LoadedModel>, config: ServeConfig, pool: EnginePool) -> Arc<Self> {
        let params = EvalBatch {
            timesteps: config.timesteps,
            burn_in: config.burn_in,
            encoding: if model.event_input {
                EvalEncoding::Events {
                    value_per_event: 1.0,
                }
            } else {
                EvalEncoding::Dense
            },
            exit: config.exit,
        };
        Arc::new(ServingUnit {
            model,
            pool,
            params,
            admission: Admission {
                in_flight: AtomicUsize::new(0),
                closed: AtomicBool::new(false),
                capacity: config.queue_capacity,
            },
            config,
        })
    }

    /// Engine-pool workers behind this unit.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.pool.workers()
    }

    /// The serving parameters.
    #[must_use]
    pub fn config(&self) -> ServeConfig {
        self.config
    }

    /// Runs `images` on the resident engine pool and returns one
    /// [`Prediction`] per image, in request order. Blocks the calling
    /// thread until every image has run.
    ///
    /// # Errors
    ///
    /// [`PredictError::Overloaded`] when `queue_capacity` requests are
    /// already in flight or the unit is shut down (nothing runs),
    /// [`PredictError::Internal`] when an engine fails.
    pub fn predict(&self, images: Vec<Tensor>) -> Result<Vec<Prediction>, PredictError> {
        let arrived = Instant::now();
        let _slot = self.admission.admit().map_err(PredictError::Overloaded)?;
        // a one-worker pool runs on this thread and propagates engine
        // panics; pooled workers report them as a `PoolError` instead
        let run = catch_unwind(AssertUnwindSafe(|| self.pool.submit(images, self.params)));
        let results = match run {
            Ok(Ok(results)) => results,
            Ok(Err(e)) => return Err(internal(e.to_string())),
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| payload.downcast_ref::<&str>().copied())
                    .unwrap_or("opaque panic payload");
                return Err(internal(format!("engine panicked: {msg}")));
            }
        };
        let request_us = arrived.elapsed().as_micros() as u64;
        let engine_us = results.iter().map(|&(_, us)| us).max().unwrap_or(0);
        sia_telemetry::histogram!("serve.queue_wait_us", request_us.saturating_sub(engine_us));
        sia_telemetry::histogram!("serve.request_us", request_us);
        sia_telemetry::counter!("serve.requests", 1);
        sia_telemetry::counter!("serve.images", results.len() as u64);
        Ok(results
            .into_iter()
            .map(|(out, _us)| Prediction {
                class: out.predicted(),
                logits: out.logits().to_vec(),
            })
            .collect())
    }

    /// Refuses every later request; requests already admitted still
    /// complete (idempotent, never blocks).
    pub fn shutdown(&self) {
        self.admission.closed.store(true, Ordering::SeqCst);
    }
}

fn internal(msg: String) -> PredictError {
    sia_telemetry::counter!("serve.errors", 1);
    PredictError::Internal(msg)
}

/// The HTTP front end: a bound listener plus the hot-swappable serving
/// unit and the registry behind `/models`.
pub struct Server {
    registry: Arc<ModelRegistry>,
    serving: RwLock<Arc<ServingUnit>>,
    listener: TcpListener,
    port: u16,
    shutdown: AtomicBool,
}

impl Server {
    /// Binds `host:port` (port 0 picks an ephemeral port) and starts the
    /// serving unit for `model`, which must already be in `registry`.
    ///
    /// # Errors
    ///
    /// Fails on bind errors or unit start failures.
    pub fn bind(
        host: &str,
        port: u16,
        registry: Arc<ModelRegistry>,
        model: Arc<LoadedModel>,
        config: ServeConfig,
    ) -> Result<Arc<Server>, String> {
        let listener =
            TcpListener::bind((host, port)).map_err(|e| format!("binding {host}:{port}: {e}"))?;
        let port = listener.local_addr().map_err(|e| e.to_string())?.port();
        let unit = ServingUnit::start(model, config)?;
        Ok(Arc::new(Server {
            registry,
            serving: RwLock::new(unit), // concurrency-allow: reader-heavy hot-swap lock, no condvar protocol
            listener,
            port,
            shutdown: AtomicBool::new(false),
        }))
    }

    /// The bound port (useful with ephemeral binds).
    #[must_use]
    pub fn port(&self) -> u16 {
        self.port
    }

    /// The currently serving unit.
    #[must_use]
    pub fn serving(&self) -> Arc<ServingUnit> {
        Arc::clone(
            &self
                .serving
                .read()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        )
    }

    /// Requests shutdown: the accept loop and every keep-alive connection
    /// exit within one idle-poll interval.
    pub fn request_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // wake the blocking accept with a throwaway connection
        let _ = TcpStream::connect(("127.0.0.1", self.port));
    }

    /// Serves until [`Server::request_shutdown`] (or `POST /shutdown`),
    /// then drains: joins connection threads and closes the serving unit.
    ///
    /// # Errors
    ///
    /// Returns accept-loop failures other than shutdown.
    pub fn run(self: &Arc<Self>) -> Result<(), String> {
        let mut connections = Vec::new();
        loop {
            if self.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let (stream, _) = match self.listener.accept() {
                Ok(accepted) => accepted,
                Err(e) => {
                    if self.shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    return Err(format!("accept failed: {e}"));
                }
            };
            if self.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let server = Arc::clone(self);
            connections.push(std::thread::spawn(move || {
                // concurrency-allow: the accept loop's per-connection threads
                server.handle_connection(stream);
            }));
            // reap finished connection threads so the list stays bounded
            connections.retain(|c| !c.is_finished());
        }
        for c in connections {
            let _ = c.join();
        }
        self.serving().shutdown();
        Ok(())
    }

    /// One keep-alive connection: parse → route → respond, until close,
    /// error, or shutdown.
    fn handle_connection(&self, stream: TcpStream) {
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(IDLE_POLL));
        let mut reader = BufReader::new(stream);
        loop {
            match read_request(&mut reader) {
                Ok(ReadOutcome::Idle) => {
                    if self.shutdown.load(Ordering::SeqCst) {
                        return;
                    }
                }
                Ok(ReadOutcome::Closed) => return,
                Ok(ReadOutcome::Request(req)) => {
                    let (status, body) = self.route(&req);
                    let close = req.wants_close() || self.shutdown.load(Ordering::SeqCst);
                    if write_response(
                        reader.get_mut(),
                        status,
                        "application/json",
                        body.as_bytes(),
                        !close,
                    )
                    .is_err()
                        || close
                    {
                        return;
                    }
                }
                Err(e) => {
                    let _ = write_response(
                        reader.get_mut(),
                        400,
                        "application/json",
                        error_json(&format!("bad request: {e}")).as_bytes(),
                        false,
                    );
                    return;
                }
            }
        }
    }

    /// Routes one request to `(status, json_body)`.
    fn route(&self, req: &Request) -> (u16, String) {
        match (req.method.as_str(), req.path.as_str()) {
            ("POST", "/predict") => self.handle_predict(&req.body),
            ("GET", "/healthz") => (200, self.healthz_json()),
            ("GET", "/metrics") => (200, metrics_json(&sia_telemetry::global_snapshot())),
            ("GET", "/models") => (200, self.models_json()),
            ("POST", "/models") => self.handle_swap(&req.body),
            ("POST", "/shutdown") => {
                self.request_shutdown();
                (200, "{\"status\":\"shutting-down\"}".to_string())
            }
            ("GET" | "POST", _) => (404, error_json(&format!("no route {}", req.path))),
            _ => (
                405,
                error_json(&format!("method {} not allowed", req.method)),
            ),
        }
    }

    fn handle_predict(&self, body: &[u8]) -> (u16, String) {
        let unit = self.serving();
        let dims = unit.model.network.input;
        let images = match parse_images(body, dims) {
            Ok(images) => images,
            Err(e) => return (400, error_json(&e)),
        };
        match unit.predict(images) {
            Ok(predictions) => (200, predictions_json(&predictions)),
            Err(PredictError::Overloaded(o)) => (
                503,
                format!(
                    "{{\"error\":\"overloaded\",\"queue_capacity\":{}}}",
                    o.capacity
                ),
            ),
            Err(PredictError::Internal(msg)) => (500, error_json(&msg)),
        }
    }

    fn handle_swap(&self, body: &[u8]) -> (u16, String) {
        let parsed = match std::str::from_utf8(body)
            .map_err(|e| e.to_string())
            .and_then(json::parse)
        {
            Ok(v) => v,
            Err(e) => return (400, error_json(&format!("bad /models body: {e}"))),
        };
        let Some(path) = parsed.get("path").and_then(Json::as_str) else {
            return (400, error_json("expected {\"path\": \"model.sia\"}"));
        };
        // load refuses images that fail static verification, so a broken
        // model can never displace the serving unit
        let model = match self.registry.load(path) {
            Ok(model) => model,
            Err(e) => return (400, error_json(&e)),
        };
        let config = self.serving().config();
        let unit = match ServingUnit::start(Arc::clone(&model), config) {
            Ok(unit) => unit,
            Err(e) => return (400, error_json(&e)),
        };
        if let Err(e) = self.registry.set_serving(model.hash) {
            return (400, error_json(&e));
        }
        let old = {
            let mut serving = self
                .serving
                .write()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            std::mem::replace(&mut *serving, unit)
        };
        // close the displaced unit after the swap; requests it already
        // admitted hold their own handle and still complete
        old.shutdown();
        sia_telemetry::counter!("serve.models.swapped", 1);
        (
            200,
            format!(
                "{{\"status\":\"swapped\",\"model\":\"{}\"}}",
                model.hash_hex()
            ),
        )
    }

    fn healthz_json(&self) -> String {
        let unit = self.serving();
        let model = &unit.model;
        let (c, h, w) = model.network.input;
        let cfg = unit.config();
        let mut out = String::from("{\"status\":\"ok\",\"model\":");
        json::write_escaped(&mut out, &model.hash_hex());
        out.push_str(",\"source\":");
        json::write_escaped(&mut out, &model.source);
        out.push_str(",\"backend\":");
        json::write_escaped(&mut out, cfg.backend.as_str());
        out.push_str(",\"exit_policy\":");
        json::write_escaped(&mut out, cfg.exit.kind());
        if let Some(threshold) = cfg.exit.threshold() {
            out.push_str(",\"exit_threshold\":");
            json::write_f64(&mut out, f64::from(threshold));
        }
        let _ = std::fmt::Write::write_fmt(
            &mut out,
            format_args!(
                ",\"timesteps\":{},\"burn_in\":{},\"input\":[{c},{h},{w}],\
                 \"events\":{},\"classes\":{},\"workers\":{},\"queue_capacity\":{}}}",
                cfg.timesteps,
                cfg.burn_in,
                model.event_input,
                model.network.num_classes,
                unit.workers(),
                cfg.queue_capacity
            ),
        );
        out
    }

    fn models_json(&self) -> String {
        let serving_hash = self.serving().model.hash;
        let mut out = String::from("{\"serving\":");
        json::write_escaped(&mut out, &format!("{serving_hash:016x}"));
        out.push_str(",\"models\":[");
        for (i, model) in self.registry.list().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let (c, h, w) = model.network.input;
            out.push_str("{\"hash\":");
            json::write_escaped(&mut out, &model.hash_hex());
            out.push_str(",\"source\":");
            json::write_escaped(&mut out, &model.source);
            let _ = std::fmt::Write::write_fmt(
                &mut out,
                format_args!(
                    ",\"input\":[{c},{h},{w}],\"events\":{},\"serving\":{}}}",
                    model.event_input,
                    model.hash == serving_hash
                ),
            );
        }
        out.push_str("]}");
        out
    }
}

/// Parses a `/predict` body — `{"images": [[…], …]}` or `{"image": […]}` —
/// into `C×H×W` tensors.
///
/// # Errors
///
/// Rejects malformed JSON, missing keys, and images whose length is not
/// `C·H·W`.
pub fn parse_images(body: &[u8], dims: (usize, usize, usize)) -> Result<Vec<Tensor>, String> {
    let text = std::str::from_utf8(body).map_err(|e| format!("body is not UTF-8: {e}"))?;
    let parsed = json::parse(text).map_err(|e| format!("bad JSON body: {e}"))?;
    let arrays: Vec<&Json> = if let Some(Json::Arr(images)) = parsed.get("images") {
        images.iter().collect()
    } else if let Some(image) = parsed.get("image") {
        vec![image]
    } else {
        return Err("expected {\"images\": [[…]]} or {\"image\": […]}".to_string());
    };
    if arrays.is_empty() {
        return Err("empty image list".to_string());
    }
    let (c, h, w) = dims;
    let expected = c * h * w;
    let mut out = Vec::with_capacity(arrays.len());
    for (i, image) in arrays.iter().enumerate() {
        let Json::Arr(values) = image else {
            return Err(format!("image {i} is not an array"));
        };
        if values.len() != expected {
            return Err(format!(
                "image {i} has {} values, model expects {expected} ({c}x{h}x{w})",
                values.len()
            ));
        }
        let mut data = Vec::with_capacity(expected);
        for (j, v) in values.iter().enumerate() {
            let Some(x) = v.as_f64() else {
                return Err(format!("image {i} value {j} is not a number"));
            };
            data.push(x as f32);
        }
        out.push(Tensor::from_vec(vec![c, h, w], data));
    }
    Ok(out)
}

/// Renders predictions as the `/predict` response body. Logits are f32
/// written via the shortest-round-trip f64 form, so a client parsing them
/// back to f32 recovers the exact bits.
#[must_use]
pub fn predictions_json(predictions: &[Prediction]) -> String {
    let mut out = String::from("{\"predictions\":[");
    for (i, p) in predictions.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = std::fmt::Write::write_fmt(&mut out, format_args!("{}", p.class));
    }
    out.push_str("],\"logits\":[");
    for (i, p) in predictions.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        for (j, &l) in p.logits.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            json::write_f64(&mut out, f64::from(l));
        }
        out.push(']');
    }
    out.push_str("]}");
    out
}

/// Renders tensors as a `/predict` request body — the client half used by
/// `sia bench serve` and the determinism tests. Values round-trip
/// bit-exactly through [`parse_images`] (same shortest-round-trip f64
/// form as [`predictions_json`]).
#[must_use]
pub fn images_json(images: &[Tensor]) -> String {
    let mut out = String::from("{\"images\":[");
    for (i, image) in images.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        for (j, &v) in image.data().iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            json::write_f64(&mut out, f64::from(v));
        }
        out.push(']');
    }
    out.push_str("]}");
    out
}

/// Parses a `/predict` response body back into [`Prediction`]s — the
/// client half used by `sia bench serve` and the determinism tests.
///
/// # Errors
///
/// Rejects malformed bodies.
pub fn parse_predictions(body: &[u8]) -> Result<Vec<Prediction>, String> {
    let text = std::str::from_utf8(body).map_err(|e| format!("body is not UTF-8: {e}"))?;
    let parsed = json::parse(text).map_err(|e| format!("bad JSON body: {e}"))?;
    let Some(Json::Arr(classes)) = parsed.get("predictions") else {
        return Err("missing predictions array".to_string());
    };
    let Some(Json::Arr(logit_rows)) = parsed.get("logits") else {
        return Err("missing logits array".to_string());
    };
    if classes.len() != logit_rows.len() {
        return Err("predictions/logits length mismatch".to_string());
    }
    classes
        .iter()
        .zip(logit_rows)
        .enumerate()
        .map(|(i, (class, row))| {
            let class = class
                .as_u64()
                .ok_or_else(|| format!("prediction {i} is not a number"))?
                as usize;
            let Json::Arr(values) = row else {
                return Err(format!("logits {i} is not an array"));
            };
            let logits = values
                .iter()
                .map(|v| v.as_f64().map(|x| x as f32))
                .collect::<Option<Vec<f32>>>()
                .ok_or_else(|| format!("logits {i} holds a non-number"))?;
            Ok(Prediction { class, logits })
        })
        .collect()
}

/// Renders a telemetry snapshot as the `/metrics` body.
#[must_use]
pub fn metrics_json(snapshot: &sia_telemetry::Snapshot) -> String {
    let mut out = String::from("{\"counters\":{");
    for (i, (name, value)) in snapshot.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::write_escaped(&mut out, name);
        let _ = std::fmt::Write::write_fmt(&mut out, format_args!(":{value}"));
    }
    out.push_str("},\"gauges\":{");
    for (i, (name, value)) in snapshot.gauges.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::write_escaped(&mut out, name);
        out.push(':');
        json::write_f64(&mut out, *value);
    }
    out.push_str("},\"histograms\":{");
    for (i, (name, h)) in snapshot.histograms.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::write_escaped(&mut out, name);
        let _ = std::fmt::Write::write_fmt(
            &mut out,
            format_args!(":{{\"count\":{},\"mean\":", h.count),
        );
        json::write_f64(&mut out, h.mean());
        let _ = std::fmt::Write::write_fmt(
            &mut out,
            format_args!(
                ",\"min\":{},\"max\":{},\"p50\":{},\"p95\":{},\"p99\":{}}}",
                h.min,
                h.max,
                h.p50(),
                h.p95(),
                h.p99()
            ),
        );
    }
    out.push_str("}}");
    out
}

fn error_json(msg: &str) -> String {
    let mut out = String::from("{\"error\":");
    json::write_escaped(&mut out, msg);
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sia_snn::{EngineFactory, IntRunner};
    use std::sync::Barrier;

    /// Int engines whose builds are counted. A one-worker pool builds one
    /// engine per admitted request, so the count is the number of requests
    /// that reached an engine. With `gate`, the first build waits at both
    /// barriers, holding its request in flight until the test releases it.
    struct ProbeFactory {
        inner: IntEngineFactory,
        builds: Arc<AtomicUsize>,
        gate: Option<Arc<(Barrier, Barrier)>>,
    }

    impl EngineFactory for ProbeFactory {
        type Engine<'a> = IntRunner<'a>;

        fn build(&self) -> IntRunner<'_> {
            if self.builds.fetch_add(1, Ordering::SeqCst) == 0 {
                if let Some(gate) = &self.gate {
                    gate.0.wait();
                    gate.1.wait();
                }
            }
            self.inner.build()
        }
    }

    /// A one-worker unit admitting `capacity` requests, and its build count.
    fn probe_unit(
        capacity: usize,
        gate: Option<Arc<(Barrier, Barrier)>>,
    ) -> (Arc<ServingUnit>, Arc<AtomicUsize>) {
        let model = Arc::new(
            crate::registry::load_bytes(&crate::registry::tests::tiny_image(), "mem", 4).unwrap(),
        );
        let builds = Arc::new(AtomicUsize::new(0));
        let factory = ProbeFactory {
            inner: IntEngineFactory::new(Arc::clone(&model.network)),
            builds: Arc::clone(&builds),
            gate,
        };
        let config = ServeConfig {
            threads: 1,
            timesteps: 4,
            queue_capacity: capacity,
            ..ServeConfig::default()
        };
        let unit = ServingUnit::with_pool(model, config, EnginePool::new(factory, 1));
        (unit, builds)
    }

    fn image() -> Vec<Tensor> {
        vec![Tensor::from_vec(vec![3, 8, 8], vec![0.5; 3 * 8 * 8])]
    }

    #[test]
    fn predict_at_capacity_is_refused_and_runs_nothing() {
        let (unit, builds) = probe_unit(2, None);
        let held = [
            unit.admission.admit().unwrap(),
            unit.admission.admit().unwrap(),
        ];
        assert_eq!(
            unit.predict(image()),
            Err(PredictError::Overloaded(Overloaded { capacity: 2 }))
        );
        assert_eq!(builds.load(Ordering::SeqCst), 0, "a refused request ran");
        drop(held);
        assert_eq!(unit.predict(image()).unwrap().len(), 1);
        assert_eq!(builds.load(Ordering::SeqCst), 1);
        assert_eq!(
            unit.admission.in_flight.load(Ordering::SeqCst),
            0,
            "a finished request keeps its slot"
        );
    }

    #[test]
    fn a_request_frees_its_slot_when_it_unwinds() {
        let (unit, _builds) = probe_unit(1, None);
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            let _slot = unit.admission.admit().unwrap();
            panic!("request died mid-flight");
        }));
        assert!(unwound.is_err());
        // an engine panic (an image of the wrong shape) is a 500, and its
        // slot is free again for the next request
        let wrong_shape = vec![Tensor::from_vec(vec![1, 2, 2], vec![0.0; 4])];
        assert!(matches!(
            unit.predict(wrong_shape),
            Err(PredictError::Internal(_))
        ));
        assert_eq!(unit.predict(image()).unwrap().len(), 1);
    }

    #[test]
    fn shutdown_refuses_new_requests_while_in_flight_ones_complete() {
        let gate = Arc::new((Barrier::new(2), Barrier::new(2)));
        let (unit, builds) = probe_unit(4, Some(Arc::clone(&gate)));
        std::thread::scope(|scope| {
            let in_flight = scope.spawn(|| unit.predict(image()));
            gate.0.wait(); // the first request now holds the engine
            unit.shutdown();
            unit.shutdown(); // idempotent
            assert_eq!(
                unit.predict(image()),
                Err(PredictError::Overloaded(Overloaded { capacity: 4 }))
            );
            gate.1.wait();
            let answered = in_flight.join().unwrap();
            assert_eq!(answered.unwrap().len(), 1, "admitted request completes");
        });
        assert_eq!(builds.load(Ordering::SeqCst), 1, "the refused request ran");
    }

    #[test]
    fn predictions_round_trip_bit_exactly() {
        let predictions = vec![
            Prediction {
                class: 3,
                logits: vec![0.1_f32, -2.5, 1.0e-7, f32::MIN_POSITIVE, 1234.5678],
            },
            Prediction {
                class: 0,
                logits: vec![0.0, -0.0, 7.25],
            },
        ];
        let body = predictions_json(&predictions);
        let back = parse_predictions(body.as_bytes()).unwrap();
        assert_eq!(back.len(), predictions.len());
        for (a, b) in predictions.iter().zip(&back) {
            assert_eq!(a.class, b.class);
            // bit-for-bit, not approximate: the shortest-round-trip f64
            // form must reproduce the exact f32
            let a_bits: Vec<u32> = a.logits.iter().map(|l| l.to_bits()).collect();
            let b_bits: Vec<u32> = b.logits.iter().map(|l| l.to_bits()).collect();
            assert_eq!(a_bits, b_bits);
        }
    }

    #[test]
    fn images_round_trip_bit_exactly() {
        let dims = (1, 1, 3);
        let images = vec![
            Tensor::from_vec(vec![1, 1, 3], vec![0.1_f32, -2.5, f32::MIN_POSITIVE]),
            Tensor::from_vec(vec![1, 1, 3], vec![0.0, -0.0, 1234.5678]),
        ];
        let body = images_json(&images);
        let back = parse_images(body.as_bytes(), dims).unwrap();
        assert_eq!(back.len(), images.len());
        for (a, b) in images.iter().zip(&back) {
            let a_bits: Vec<u32> = a.data().iter().map(|v| v.to_bits()).collect();
            let b_bits: Vec<u32> = b.data().iter().map(|v| v.to_bits()).collect();
            assert_eq!(a_bits, b_bits);
        }
    }

    #[test]
    fn parse_images_validates_shape() {
        let dims = (1, 2, 2);
        let images = parse_images(b"{\"images\":[[1,2,3,4],[5,6,7,8]]}", dims).unwrap();
        assert_eq!(images.len(), 2);
        assert_eq!(images[0].data(), &[1.0, 2.0, 3.0, 4.0]);
        let single = parse_images(b"{\"image\":[1,2,3,4]}", dims).unwrap();
        assert_eq!(single.len(), 1);
        assert!(parse_images(b"{\"images\":[[1,2,3]]}", dims).is_err());
        assert!(parse_images(b"{\"images\":[]}", dims).is_err());
        assert!(parse_images(b"{}", dims).is_err());
        assert!(parse_images(b"not json", dims).is_err());
    }

    #[test]
    fn metrics_json_is_parseable_and_complete() {
        sia_telemetry::counter!("serve.test.counter", 2);
        sia_telemetry::histogram!("serve.test.hist", 100);
        sia_telemetry::histogram!("serve.test.hist", 200);
        let body = metrics_json(&sia_telemetry::global_snapshot());
        let parsed = json::parse(&body).unwrap();
        // structural keys always present, even on an empty snapshot
        assert!(parsed.get("counters").is_some());
        assert!(parsed.get("gauges").is_some());
        assert!(parsed.get("histograms").is_some());
        if let Some(h) = parsed
            .get("histograms")
            .and_then(|h| h.get("serve.test.hist"))
        {
            assert!(h.get("count").and_then(Json::as_u64).unwrap() >= 2);
            assert!(h.get("p50").is_some() && h.get("p95").is_some() && h.get("p99").is_some());
        }
    }
}
