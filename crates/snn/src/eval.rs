//! Batched dataset evaluation on the unified engine layer — built on a
//! reusable, long-lived [`EnginePool`].
//!
//! The pool owns one engine per worker thread, built once from an
//! [`EngineFactory`] and kept alive across submissions, so a serving front
//! end can keep compiled/allocated engines resident instead of rebuilding
//! them per request. Work arrives as [`EvalBatch`] jobs on a submission
//! queue; inside a job, items are dispatched by the same **atomic cursor**
//! the scoped [`sia_tensor::pool`] uses, and results are collected in
//! **item-index order**, so every outcome is bit-for-bit identical for any
//! worker count.
//!
//! [`BatchEvaluator`] is a thin client of the pool: it submits a
//! [`LabelledSet`]'s images as one batch, keeps of each image's run only
//! the class after each timestep and the spike counts (shrunk on the
//! worker as the image completes), and reduces them into an
//! [`EvalOutcome`] — the accuracy-vs-timesteps curve, per-image
//! predictions, and per-stage [`SpikeStats`] merged via
//! [`SpikeStats::merge`] (the only aggregation path).
//!
//! Determinism: every engine run is independent (one image, freshly reset
//! state), the cursor only decides *which worker* runs an item, and the
//! reduction happens in item-index order, so the outcome is **bit-for-bit
//! identical for any thread count** — pooled or inline.

use crate::encode::rate_encode;
use crate::exit::ExitPolicy;
use crate::runner::{
    drive_policy, Datapath, Engine, EngineInput, FloatDatapath, IntDatapath, Runner, SnnOutput,
};
use crate::stats::SpikeStats;
use sia_dataset::LabelledSet;
use sia_sched::{
    AtomicUsizeApi, CondvarApi, JoinHandleApi, MutexApi, ReceiverApi, SenderApi, StdSync, SyncOps,
};
use sia_tensor::{pool, Tensor};
use std::marker::PhantomData;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// How the evaluator feeds images to the engines.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum EvalEncoding {
    /// Dense `C×H×W` images (PS-side frame conversion; networks converted
    /// with [`crate::InputEncoding::DirectCurrent`]).
    Dense,
    /// Rate-code each image into a DVS-style event stream first (networks
    /// converted with [`crate::InputEncoding::EventDriven`]).
    Events {
        /// Input value one event carries into the first spiking layer.
        value_per_event: f32,
    },
}

/// Evaluation parameters.
#[derive(Clone, Copy, Debug)]
pub struct EvalConfig {
    /// Timesteps per image.
    pub timesteps: usize,
    /// Readout burn-in (see [`crate::drive`]).
    pub burn_in: usize,
    /// Worker threads; `0` means one per available core.
    pub threads: usize,
    /// Input encoding.
    pub encoding: EvalEncoding,
    /// Confidence-gated early-exit policy ([`ExitPolicy::Fixed`] runs every
    /// timestep, bit-identical to the pre-adaptive evaluator).
    pub exit: ExitPolicy,
}

impl Default for EvalConfig {
    fn default() -> Self {
        EvalConfig {
            timesteps: 8,
            burn_in: 0,
            threads: 1,
            encoding: EvalEncoding::Dense,
            exit: ExitPolicy::Fixed,
        }
    }
}

/// Builds one engine per pool worker.
///
/// The generic-associated lifetime lets a factory hand out engines that
/// *borrow* from it ([`crate::FloatRunner`]/[`crate::IntRunner`] borrow
/// their `SnnNetwork`), while the factory itself is `'static` and shared
/// across the pool's long-lived worker threads behind an [`Arc`]. Owning
/// engines (`sia_accel::SiaMachine`) simply ignore the lifetime.
pub trait EngineFactory: Send + Sync + 'static {
    /// The engine type this factory builds, borrowing from `&self`.
    type Engine<'a>: Engine
    where
        Self: 'a;

    /// Builds one engine. Called once per worker thread at pool start (and
    /// again only if a run panics and the engine must be replaced).
    fn build(&self) -> Self::Engine<'_>;
}

/// [`EngineFactory`] building one functional [`Runner`] per worker, all
/// sharing one network.
#[derive(Clone, Debug)]
pub struct RunnerFactory<D> {
    net: Arc<crate::SnnNetwork>,
    policy: crate::KernelPolicy,
    datapath: PhantomData<fn() -> D>,
}

/// [`EngineFactory`] for the float reference dynamics.
pub type FloatEngineFactory = RunnerFactory<FloatDatapath>;

/// [`EngineFactory`] for the integer datapath.
pub type IntEngineFactory = RunnerFactory<IntDatapath>;

impl<D: Datapath> RunnerFactory<D> {
    /// Creates a factory over a shared network.
    #[must_use]
    pub fn new(net: Arc<crate::SnnNetwork>) -> Self {
        RunnerFactory {
            net,
            policy: crate::KernelPolicy::Auto,
            datapath: PhantomData,
        }
    }

    /// Sets the psum kernel policy every built engine starts with.
    #[must_use]
    pub fn with_kernel_policy(mut self, policy: crate::KernelPolicy) -> Self {
        self.policy = policy;
        self
    }
}

impl<D: Datapath> EngineFactory for RunnerFactory<D> {
    type Engine<'a> = Runner<'a, D>;

    fn build(&self) -> Runner<'_, D> {
        let mut runner = Runner::new(&self.net);
        runner.set_kernel_policy(self.policy);
        runner
    }
}

/// Per-batch run parameters (the non-dispatch half of [`EvalConfig`]).
#[derive(Clone, Copy, Debug)]
pub struct EvalBatch {
    /// Timesteps per image.
    pub timesteps: usize,
    /// Readout burn-in.
    pub burn_in: usize,
    /// Input encoding.
    pub encoding: EvalEncoding,
    /// Early-exit policy applied per image (exits depend only on that
    /// image's own logits, so pooled dispatch stays thread-deterministic).
    pub exit: ExitPolicy,
}

impl From<EvalConfig> for EvalBatch {
    fn from(cfg: EvalConfig) -> Self {
        EvalBatch {
            timesteps: cfg.timesteps,
            burn_in: cfg.burn_in,
            encoding: cfg.encoding,
            exit: cfg.exit,
        }
    }
}

/// A worker panicked while executing a batch item.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PoolError {
    /// Index of the failing item within the batch.
    pub item: usize,
    /// Panic payload rendered as text.
    pub message: String,
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "engine pool item {} panicked: {}",
            self.item, self.message
        )
    }
}

impl std::error::Error for PoolError {}

/// One item's result inside a job: what the job keeps of the run and its
/// wall-clock µs, or the panic that killed it.
type ItemResult = Result<(Kept, u64), String>;

/// What a job keeps of one item's run: the whole output
/// ([`EnginePool::submit`]), or only what an [`EvalOutcome`] reads of it
/// ([`BatchEvaluator::evaluate`]), so a batch holds no image's logits
/// past that image's completion.
enum Kept {
    Output(SnnOutput),
    Image(ImageRecord),
}

/// What an [`EvalOutcome`] reads of one image's run: the class after each
/// executed timestep and the run's spike counts.
struct ImageRecord {
    classes: Box<[usize]>,
    stats: SpikeStats,
}

impl From<SnnOutput> for ImageRecord {
    fn from(out: SnnOutput) -> Self {
        ImageRecord {
            classes: (0..out.logits_per_t.len())
                .map(|t| out.predicted_at(t))
                .collect(),
            stats: out.stats,
        }
    }
}

/// One image's run as [`reduce_outcome`] reads it.
trait ImageRun {
    /// Timesteps the run executed.
    fn executed(&self) -> usize;
    /// Predicted class using only timesteps `0..=t`.
    fn class_at(&self, t: usize) -> usize;
    /// The run's spike statistics.
    fn stats(&self) -> &SpikeStats;
}

impl ImageRun for SnnOutput {
    fn executed(&self) -> usize {
        self.logits_per_t.len()
    }

    fn class_at(&self, t: usize) -> usize {
        self.predicted_at(t)
    }

    fn stats(&self) -> &SpikeStats {
        &self.stats
    }
}

impl ImageRun for ImageRecord {
    fn executed(&self) -> usize {
        self.classes.len()
    }

    fn class_at(&self, t: usize) -> usize {
        self.classes[t]
    }

    fn stats(&self) -> &SpikeStats {
        &self.stats
    }
}

/// One submitted batch: owned inputs, shared steal cursor, per-item result
/// slots (written by whichever worker claimed the index) and a
/// completion condvar the submitting client blocks on.
///
/// Generic over the sync backend so `sia-sched` can exhaustively explore
/// the cursor/slot/condvar protocol on the production type itself;
/// production code uses the [`StdSync`] default.
struct Job<S: SyncOps = StdSync> {
    images: Arc<[Tensor]>,
    params: EvalBatch,
    /// Keep only each image's [`ImageRecord`], not its whole output.
    records: bool,
    cursor: S::AtomicUsize,
    slots: Vec<S::Mutex<Option<ItemResult>>>,
    done: S::AtomicUsize,
    finished: S::Mutex<bool>,
    cv: S::Condvar,
}

impl<S: SyncOps> Job<S> {
    fn new(images: Arc<[Tensor]>, params: EvalBatch, records: bool) -> Self {
        let n = images.len();
        Job {
            images,
            params,
            records,
            cursor: S::atomic_usize(0),
            slots: (0..n).map(|_| S::mutex(None)).collect(),
            done: S::atomic_usize(0),
            finished: S::mutex(false),
            cv: S::condvar(),
        }
    }

    /// Stores item `i`'s result and signals the client on the last one.
    fn complete(&self, i: usize, result: ItemResult) {
        *self.slots[i].lock() = Some(result);
        if self.done.fetch_add(1, Ordering::AcqRel) + 1 == self.slots.len() {
            *self.finished.lock() = true;
            self.cv.notify_all();
        }
    }
}

/// Runs one claimed item on the worker's engine, keeping what the job
/// keeps of it.
fn run_item<E: Engine, S: SyncOps>(engine: &mut E, job: &Job<S>, i: usize) -> (Kept, u64) {
    let started = std::time::Instant::now();
    let out = match job.params.encoding {
        EvalEncoding::Dense => {
            drive_policy(
                engine,
                EngineInput::Image(&job.images[i]),
                job.params.timesteps,
                job.params.burn_in,
                job.params.exit,
            )
            .0
        }
        EvalEncoding::Events { value_per_event } => {
            let events = rate_encode(&job.images[i], job.params.timesteps, value_per_event);
            drive_policy(
                engine,
                EngineInput::Events(&events),
                job.params.timesteps,
                job.params.burn_in,
                job.params.exit,
            )
            .0
        }
    };
    let us = started.elapsed().as_micros() as u64;
    let kept = if job.records {
        Kept::Image(ImageRecord::from(out))
    } else {
        Kept::Output(out)
    };
    (kept, us)
}

/// Drains a job's cursor on one engine, isolating per-item panics so the
/// worker (and its engine) outlive a poisoned input: the engine is rebuilt
/// from the factory and the failure is reported through the item's slot.
fn drain_job<'f, F: EngineFactory, S: SyncOps>(
    factory: &'f F,
    engine: &mut F::Engine<'f>,
    job: &Job<S>,
) {
    let n = job.images.len();
    loop {
        let i = job.cursor.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            break;
        }
        match catch_unwind(AssertUnwindSafe(|| run_item(engine, job, i))) {
            Ok(result) => job.complete(i, Ok(result)),
            Err(payload) => {
                // a panicking run leaves the engine in an unknown state —
                // replace it before touching the next item
                *engine = factory.build();
                job.complete(i, Err(panic_message(payload.as_ref())));
            }
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_else(|| {
            payload
                .downcast_ref::<&str>()
                .map_or_else(|| "opaque panic payload".to_string(), ToString::to_string)
        })
}

/// Zero-worker fast path: runs a job inline on the submitting thread.
type InlineRunner<S> = Box<dyn Fn(&Job<S>) + Send + Sync>;

/// A pool of long-lived per-worker engines fed by a submission queue.
///
/// `workers >= 2` spawns that many threads, each owning one engine built
/// from the factory at thread start and reused across every subsequent
/// batch — the persistent-serving configuration. `workers <= 1` spawns
/// nothing: batches run inline on the submitting thread (one engine per
/// [`EnginePool::submit`] call), preserving the zero-spawn single-thread
/// path the scoped evaluator always had. Inline runs hold one pool-wide
/// lock, so concurrent submitters still run at most one engine at a time.
///
/// Batches are *broadcast*: every worker receives the job and steals item
/// indices from its shared cursor, so an uneven batch load-balances and a
/// worker that arrives late (still finishing the previous job) finds the
/// cursor drained and moves on. Concurrent `submit`s from different
/// threads are safe and pipeline naturally.
pub struct EnginePool<S: SyncOps = StdSync> {
    senders: Vec<S::Sender<Arc<Job<S>>>>,
    handles: Vec<S::JoinHandle>,
    inline: Option<InlineRunner<S>>,
    workers: usize,
}

impl EnginePool {
    /// Creates a pool of `threads` workers (`0` = one per available core)
    /// with one long-lived engine each.
    #[must_use]
    pub fn new<F: EngineFactory>(factory: F, threads: usize) -> EnginePool {
        EnginePool::<StdSync>::new_in(factory, threads)
    }
}

impl<S: SyncOps> EnginePool<S> {
    /// [`EnginePool::new`] generic over the sync backend — the entry point
    /// `sia-sched` uses to model-check this pool's production protocol.
    #[must_use]
    pub fn new_in<F: EngineFactory>(factory: F, threads: usize) -> EnginePool<S> {
        let workers = pool::resolve_threads(threads);
        let factory = Arc::new(factory);
        if workers <= 1 {
            let one_engine = S::mutex(());
            let inline = Box::new(move |job: &Job<S>| {
                let _running = one_engine.lock();
                let mut engine = factory.build();
                let n = job.images.len();
                loop {
                    let i = job.cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    // inline runs propagate panics directly, exactly like
                    // the pre-pool sequential path (no catch/rebuild)
                    let result = run_item(&mut engine, job, i);
                    job.complete(i, Ok(result));
                }
            });
            return EnginePool {
                senders: Vec::new(),
                handles: Vec::new(),
                inline: Some(inline),
                workers: 1,
            };
        }
        let mut senders = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let (tx, rx) = S::channel::<Arc<Job<S>>>();
            let factory = Arc::clone(&factory);
            handles.push(S::spawn(&format!("engine-worker-{i}"), move || {
                // nested GEMM/conv parallel regions run inline on this
                // thread, like any scoped pool worker
                let _guard = pool::enter_worker();
                let mut engine = factory.build();
                while let Some(job) = rx.recv() {
                    drain_job(&*factory, &mut engine, &job);
                }
            }));
            senders.push(tx);
        }
        EnginePool {
            senders,
            handles,
            inline: None,
            workers,
        }
    }

    /// Worker threads backing this pool (1 for the inline configuration).
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs one batch to completion and returns `(output, wall_us)` per
    /// item **in item-index order**. Blocks the calling thread; other
    /// threads may submit concurrently. The batch's images are shared with
    /// the workers as they come: an `Arc<[Tensor]>` (such as
    /// [`LabelledSet::images`]) is not copied; a `Vec<Tensor>` moves in.
    ///
    /// Each returned item's wall-clock µs is also recorded into the
    /// `snn.eval.image_us` histogram (on the calling thread, in item
    /// order), the latency series `/metrics` and `sia report` read.
    ///
    /// # Errors
    ///
    /// Returns [`PoolError`] if a worker panicked on an item; the worker
    /// itself survives with a freshly built engine.
    pub fn submit(
        &self,
        images: impl Into<Arc<[Tensor]>>,
        params: EvalBatch,
    ) -> Result<Vec<(SnnOutput, u64)>, PoolError> {
        let kept = self.run(images.into(), params, false)?;
        Ok(kept
            .into_iter()
            .map(|(kept, us)| match kept {
                Kept::Output(out) => (out, us),
                Kept::Image(_) => unreachable!("an output job keeps outputs"),
            })
            .collect())
    }

    /// [`EnginePool::submit`] keeping each item's [`ImageRecord`] or whole
    /// output (`records`), in item-index order.
    fn run(
        &self,
        images: Arc<[Tensor]>,
        params: EvalBatch,
        records: bool,
    ) -> Result<Vec<(Kept, u64)>, PoolError> {
        let n = images.len();
        if n == 0 {
            return Ok(Vec::new());
        }
        let job = Arc::new(Job::<S>::new(images, params, records));
        if let Some(run) = &self.inline {
            run(&job);
        } else {
            for tx in &self.senders {
                // a worker whose queue closed already panicked fatally;
                // remaining workers still complete the job
                let _ = tx.send(Arc::clone(&job));
            }
            let mut finished = job.finished.lock();
            while !*finished {
                finished = job.cv.wait(finished);
            }
        }
        let mut out = Vec::with_capacity(n);
        for (i, slot) in job.slots.iter().enumerate() {
            let result = slot
                .lock()
                .take()
                .expect("completed job has a result per slot");
            match result {
                Ok((output, us)) => {
                    sia_telemetry::histogram!("snn.eval.image_us", us);
                    out.push((output, us));
                }
                Err(message) => return Err(PoolError { item: i, message }),
            }
        }
        Ok(out)
    }
}

impl<S: SyncOps> Drop for EnginePool<S> {
    fn drop(&mut self) {
        // closing the channels ends the worker loops; join so engines (and
        // their telemetry stores) are released before the pool's owner moves on
        self.senders.clear();
        for handle in self.handles.drain(..) {
            handle.join();
        }
    }
}

/// Reduced result of one dataset evaluation.
#[derive(Clone, Debug)]
pub struct EvalOutcome {
    /// Images evaluated.
    pub total: usize,
    /// Timesteps per image.
    pub timesteps: usize,
    /// Predicted class per image, in dataset order.
    pub predictions: Vec<usize>,
    /// Correct predictions using only timesteps `0..=t`, per `t` — one run
    /// yields the whole accuracy-vs-timesteps curve.
    pub correct_per_t: Vec<u64>,
    /// Per-stage spike statistics merged across all images.
    pub stats: SpikeStats,
    /// Executed timesteps per image, in dataset order. Equal to
    /// `timesteps` everywhere under [`ExitPolicy::Fixed`]; shorter where a
    /// confidence gate fired. Deterministic, so part of `PartialEq`.
    pub executed_t: Vec<usize>,
    /// Wall-clock µs per image, in dataset order — the raw material for
    /// latency SLOs (p50/p95/p99 via [`EvalOutcome::latency_quantile`]).
    /// Timing, not arithmetic: excluded from `PartialEq` so determinism
    /// checks compare results only.
    pub latency_us: Vec<u64>,
}

/// Equality over the *deterministic* fields only — `latency_us` is
/// wall-clock measurement noise and would make bit-exactness assertions
/// (`outcome(1 thread) == outcome(4 threads)`) spuriously fail.
impl PartialEq for EvalOutcome {
    fn eq(&self, other: &Self) -> bool {
        self.total == other.total
            && self.timesteps == other.timesteps
            && self.predictions == other.predictions
            && self.correct_per_t == other.correct_per_t
            && self.stats == other.stats
            && self.executed_t == other.executed_t
    }
}

impl EvalOutcome {
    /// Correct predictions at the final timestep.
    #[must_use]
    pub fn correct(&self) -> u64 {
        self.correct_per_t.last().copied().unwrap_or(0)
    }

    /// Accuracy at the final timestep, in `[0, 1]`.
    #[must_use]
    pub fn accuracy(&self) -> f32 {
        self.accuracy_at(self.timesteps.saturating_sub(1))
    }

    /// Accuracy using only timesteps `0..=t`, in `[0, 1]`.
    #[must_use]
    pub fn accuracy_at(&self, t: usize) -> f32 {
        if self.total == 0 {
            return 0.0;
        }
        self.correct_per_t[t] as f32 / self.total as f32
    }

    /// Average executed timesteps per image — the x-axis of the early-exit
    /// accuracy/latency Pareto sweep. Equals `timesteps` for fixed runs.
    #[must_use]
    pub fn avg_t(&self) -> f32 {
        if self.executed_t.is_empty() {
            return 0.0;
        }
        self.executed_t.iter().sum::<usize>() as f32 / self.executed_t.len() as f32
    }

    /// Fraction of images that exited before the final timestep.
    #[must_use]
    pub fn exit_rate(&self) -> f32 {
        if self.executed_t.is_empty() {
            return 0.0;
        }
        let exited = self
            .executed_t
            .iter()
            .filter(|&&t| t < self.timesteps)
            .count();
        exited as f32 / self.executed_t.len() as f32
    }

    /// Exact per-image latency quantile `q ∈ [0, 1]` in µs (nearest-rank
    /// over the recorded samples; 0 when no images ran).
    #[must_use]
    pub fn latency_quantile(&self, q: f64) -> u64 {
        if self.latency_us.is_empty() {
            return 0;
        }
        let mut sorted = self.latency_us.clone();
        sorted.sort_unstable();
        let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
        sorted[rank.max(1) - 1]
    }
}

/// Parallel dataset evaluator over any [`Engine`] backend — a thin client
/// of [`EnginePool`].
#[derive(Clone, Copy, Debug, Default)]
pub struct BatchEvaluator {
    /// Evaluation parameters.
    pub config: EvalConfig,
}

impl BatchEvaluator {
    /// Creates an evaluator with the given parameters.
    #[must_use]
    pub fn new(config: EvalConfig) -> Self {
        BatchEvaluator { config }
    }

    /// Evaluates `set` with engines built by `factory` (one per worker).
    ///
    /// Constructs an [`EnginePool`], submits the whole split as one batch,
    /// and reduces. Each image's run shrinks to the classes and spike
    /// counts the outcome reads as soon as it completes, so the batch never
    /// holds every image's logits at once. Engines never migrate between
    /// items of different workers, and each image is a fresh
    /// [`crate::drive_policy`] run, so results match a sequential
    /// evaluation exactly — for any thread count.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`crate::drive_policy`], or if a pool worker
    /// panics.
    pub fn evaluate<F: EngineFactory>(&self, factory: F, set: &LabelledSet) -> EvalOutcome {
        let cfg = self.config;
        let n = set.len();
        if n == 0 {
            return EvalOutcome {
                total: 0,
                timesteps: cfg.timesteps,
                predictions: Vec::new(),
                correct_per_t: vec![0; cfg.timesteps],
                stats: SpikeStats::default(),
                executed_t: Vec::new(),
                latency_us: Vec::new(),
            };
        }
        let _span = sia_telemetry::span!("snn.batch_eval");
        let pool = EnginePool::new(factory, cfg.threads);
        let records: Vec<(ImageRecord, u64)> = pool
            .run(set.images(), EvalBatch::from(cfg), true)
            .unwrap_or_else(|e| panic!("{e}"))
            .into_iter()
            .map(|(kept, us)| match kept {
                Kept::Image(record) => (record, us),
                Kept::Output(_) => unreachable!("a record job keeps records"),
            })
            .collect();
        let outcome = reduce_outcome(cfg.timesteps, set, &records);
        if cfg.exit.is_adaptive() {
            sia_telemetry::gauge!("snn.exit.rate", f64::from(outcome.exit_rate()));
        }
        outcome
    }
}

/// Folds per-image pool results (item-index order) into one
/// [`EvalOutcome`]. [`SpikeStats::merge`] stays the only aggregation path.
fn reduce_outcome<R: ImageRun>(
    timesteps: usize,
    set: &LabelledSet,
    results: &[(R, u64)],
) -> EvalOutcome {
    let n = results.len();
    let mut correct_per_t = vec![0u64; timesteps];
    let mut predictions = Vec::with_capacity(n);
    let mut executed_t = Vec::with_capacity(n);
    let mut latency_us = Vec::with_capacity(n);
    let mut stats: Option<SpikeStats> = None;
    for (i, (out, us)) in results.iter().enumerate() {
        latency_us.push(*us);
        let label = set.get(i).1;
        // an early-exited image freezes at its last readout: its exit-time
        // prediction stands in for every later point on the curve
        let last = out.executed().saturating_sub(1);
        for (t, c) in correct_per_t.iter_mut().enumerate() {
            if out.class_at(t.min(last)) == label {
                *c += 1;
            }
        }
        predictions.push(out.class_at(last));
        executed_t.push(out.executed());
        match &mut stats {
            Some(s) => s.merge(out.stats()),
            None => stats = Some(out.stats().clone()),
        }
    }
    EvalOutcome {
        total: n,
        timesteps,
        predictions,
        correct_per_t,
        stats: stats.expect("non-empty set produced stats"),
        executed_t,
        latency_us,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convert::{convert, ConvertOptions};
    use crate::runner::IntRunner;
    use sia_dataset::{SynthConfig, SynthDataset};
    use sia_nn::{ActSpec, ConvSpec, LinearSpec, NetworkSpec, SpecItem};
    use sia_tensor::{Conv2dGeom, Tensor};

    fn small_net() -> Arc<crate::SnnNetwork> {
        let geom = Conv2dGeom {
            in_channels: 3,
            out_channels: 4,
            in_h: 16,
            in_w: 16,
            kernel: 3,
            stride: 2,
            padding: 1,
        };
        let spec = NetworkSpec {
            name: "eval-test".into(),
            input: (3, 16, 16),
            items: vec![
                SpecItem::Conv(ConvSpec {
                    geom,
                    weights: Tensor::from_vec(
                        vec![4, 3, 3, 3],
                        (0..108).map(|i| ((i % 9) as f32 - 4.0) * 0.1).collect(),
                    ),
                    bn: None,
                    act: Some(ActSpec {
                        levels: 8,
                        step: 1.0,
                    }),
                }),
                SpecItem::MaxPool2x2,
                SpecItem::GlobalAvgPool,
                SpecItem::Linear(LinearSpec {
                    in_features: 4,
                    out_features: 10,
                    weights: Tensor::from_vec(
                        vec![10, 4],
                        (0..40).map(|i| ((i % 5) as f32 - 2.0) * 0.3).collect(),
                    ),
                    bias: vec![0.0; 10],
                }),
            ],
        };
        Arc::new(convert(&spec, &ConvertOptions::default()))
    }

    fn small_set(n: usize) -> LabelledSet {
        let cfg = SynthConfig {
            seed: 0xE7A1,
            ..SynthConfig::small()
        };
        SynthDataset::generate(&cfg, 2, n).test
    }

    #[test]
    fn sequential_matches_manual_loop() {
        let net = small_net();
        let set = small_set(6);
        let outcome = BatchEvaluator::new(EvalConfig {
            timesteps: 6,
            ..EvalConfig::default()
        })
        .evaluate(IntEngineFactory::new(Arc::clone(&net)), &set);
        assert_eq!(outcome.total, set.len());
        assert_eq!(outcome.predictions.len(), set.len());
        // manual single-image loop must agree
        let mut runner = IntRunner::new(&net);
        let mut correct = 0u64;
        for i in 0..set.len() {
            let (img, label) = set.get(i);
            let out = runner.run(img, 6);
            assert_eq!(out.predicted(), outcome.predictions[i]);
            if out.predicted() == label {
                correct += 1;
            }
        }
        assert_eq!(outcome.correct(), correct);
    }

    #[test]
    fn merged_stats_count_every_image_once() {
        let net = small_net();
        let set = small_set(5);
        let outcome = BatchEvaluator::new(EvalConfig {
            timesteps: 4,
            ..EvalConfig::default()
        })
        .evaluate(FloatEngineFactory::new(net), &set);
        assert_eq!(outcome.stats.images, set.len() as u64);
        // `timesteps` sums executed integration time across images
        assert_eq!(outcome.stats.timesteps, 4 * set.len() as u64);
    }

    #[test]
    fn thread_count_does_not_change_the_outcome() {
        let net = small_net();
        let set = small_set(9);
        let run = |threads| {
            BatchEvaluator::new(EvalConfig {
                timesteps: 5,
                burn_in: 1,
                threads,
                encoding: EvalEncoding::Dense,
                exit: ExitPolicy::Fixed,
            })
            .evaluate(IntEngineFactory::new(Arc::clone(&net)), &set)
        };
        let one = run(1);
        let four = run(4);
        assert_eq!(one, four);
    }

    #[test]
    fn adaptive_exit_shortens_average_t_and_stays_thread_deterministic() {
        let net = small_net();
        let set = small_set(8);
        let run = |threads, exit| {
            BatchEvaluator::new(EvalConfig {
                timesteps: 6,
                threads,
                exit,
                ..EvalConfig::default()
            })
            .evaluate(IntEngineFactory::new(Arc::clone(&net)), &set)
        };
        let fixed = run(1, ExitPolicy::Fixed);
        assert_eq!(fixed.executed_t, vec![6; set.len()]);
        assert_eq!(fixed.avg_t(), 6.0);
        assert_eq!(fixed.exit_rate(), 0.0);
        let eager = ExitPolicy::Margin {
            threshold: 0.0,
            window: 1,
        };
        let one = run(1, eager);
        assert!(one.avg_t() < 6.0, "threshold 0 exits at the first boundary");
        assert!(one.exit_rate() > 0.0);
        assert_eq!(one.executed_t.len(), set.len());
        // per-image exits depend only on that image's logits: identical
        // outcome (including executed_t) for any worker count
        assert_eq!(one, run(4, eager));
    }

    #[test]
    fn persistent_pool_reuses_engines_across_batches() {
        let net = small_net();
        let set = small_set(4);
        let params = EvalBatch {
            timesteps: 3,
            burn_in: 0,
            encoding: EvalEncoding::Dense,
            exit: ExitPolicy::Fixed,
        };
        let pool = EnginePool::new(IntEngineFactory::new(Arc::clone(&net)), 2);
        assert_eq!(pool.workers(), 2);
        // three batches through the same long-lived engines must each
        // match a fresh sequential evaluation bit-for-bit
        let expected = BatchEvaluator::new(EvalConfig {
            timesteps: 3,
            ..EvalConfig::default()
        })
        .evaluate(IntEngineFactory::new(Arc::clone(&net)), &set);
        for _ in 0..3 {
            let results = pool.submit(set.images(), params).unwrap();
            let outcome = reduce_outcome(3, &set, &results);
            assert_eq!(outcome, expected);
        }
    }

    #[test]
    fn concurrent_submits_are_independent() {
        let net = small_net();
        let set = small_set(6);
        let params = EvalBatch {
            timesteps: 3,
            burn_in: 0,
            encoding: EvalEncoding::Dense,
            exit: ExitPolicy::Fixed,
        };
        let expected = BatchEvaluator::new(EvalConfig {
            timesteps: 3,
            ..EvalConfig::default()
        })
        .evaluate(IntEngineFactory::new(Arc::clone(&net)), &set);
        let pool = EnginePool::new(IntEngineFactory::new(Arc::clone(&net)), 3);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let results = pool.submit(set.images(), params).unwrap();
                    assert_eq!(reduce_outcome(3, &set, &results), expected);
                });
            }
        });
    }

    #[test]
    fn empty_batch_and_empty_set_are_no_ops() {
        let net = small_net();
        let pool = EnginePool::new(IntEngineFactory::new(Arc::clone(&net)), 2);
        let results = pool
            .submit(
                Vec::new(),
                EvalBatch {
                    timesteps: 4,
                    burn_in: 0,
                    encoding: EvalEncoding::Dense,
                    exit: ExitPolicy::Fixed,
                },
            )
            .unwrap();
        assert!(results.is_empty());
        let outcome = BatchEvaluator::new(EvalConfig::default())
            .evaluate(IntEngineFactory::new(net), &LabelledSet::default());
        assert_eq!(outcome.total, 0);
        assert_eq!(outcome.accuracy(), 0.0);
        assert!(outcome.predictions.is_empty());
    }

    #[test]
    fn per_image_latency_is_recorded_and_quantiles_are_ordered() {
        let net = small_net();
        let set = small_set(7);
        let outcome = BatchEvaluator::new(EvalConfig {
            timesteps: 3,
            ..EvalConfig::default()
        })
        .evaluate(IntEngineFactory::new(net), &set);
        assert_eq!(outcome.latency_us.len(), set.len());
        let p50 = outcome.latency_quantile(0.50);
        let p95 = outcome.latency_quantile(0.95);
        let p99 = outcome.latency_quantile(0.99);
        assert!(p50 <= p95 && p95 <= p99);
        assert_eq!(
            outcome.latency_quantile(1.0),
            *outcome.latency_us.iter().max().unwrap()
        );
        assert_eq!(
            outcome.latency_quantile(0.0),
            *outcome.latency_us.iter().min().unwrap()
        );
        // equality ignores the timing field: a clone with different
        // latencies still compares equal (the determinism contract)
        let mut jittered = outcome.clone();
        for us in &mut jittered.latency_us {
            *us += 1000;
        }
        assert_eq!(outcome, jittered);
    }
}
