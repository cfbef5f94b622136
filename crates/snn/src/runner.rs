//! Timestep-driven SNN inference: the unified engine layer.
//!
//! One generic **timestep driver** ([`drive`]) owns everything every
//! executor used to duplicate — input encoding and first-layer scale
//! resolution, event-stream validation, precondition checking, the
//! layer × timestep traversal, [`SpikeStats`] accumulation and the
//! per-timestep readout — while the backends implement only their
//! genuinely distinct arithmetic behind the [`Engine`] trait. There are
//! two backends:
//!
//! * the functional [`Runner`], one skeleton over two [`Datapath`]s. It
//!   owns membranes, head evidence, pending residual currents, scratch and
//!   the whole [`Engine`] frame; the datapath holds only the arithmetic.
//!   [`IntRunner`] runs the integer datapath ([`IntDatapath`]: saturating
//!   16-bit partial sums in a fixed tap order, Q8.8 batch-norm, 16-bit
//!   membranes). [`FloatRunner`] runs the float reference
//!   ([`FloatDatapath`]: `f32`, no saturation or coefficient rounding);
//! * `sia_accel::SiaMachine` — the integer arithmetic plus
//!   cycle/memory/AXI accounting on the modelled hardware, with its own
//!   neuron-by-neuron epilogue and spike-by-spike head, so it stays an
//!   independent oracle of the integer runner.
//!
//! The driver runs **layer-major** (all timesteps of a stage before the
//! next stage), the schedule of the hardware's per-layer ping-pong membrane
//! memory. Each `(layer, t)` value is a pure function of the previous
//! layer's timestep-`t` spikes and the layer's own membrane at `t − 1`, so
//! the results are identical to a timestep-major sweep — which is why one
//! traversal can serve every backend, and why backend agreement is now
//! structural rather than merely test-enforced.
//!
//! The same purity argument lets the traversal run **timestep-chunked**
//! ([`drive_policy`]): all layers sweep a window of `W` timesteps, the head
//! is read out at the chunk boundary, and an adaptive [`ExitPolicy`] may
//! stop the run there — confidence-gated early exit with per-chunk kernel
//! and cache locality. [`drive`] is the `W = T` special case
//! ([`ExitPolicy::Fixed`]), bit-identical to the pre-chunking driver;
//! adaptive runs are bit-identical prefixes of the fixed run.
//!
//! Spike frames travel between stages as bit-packed [`SpikePlane`]s held in
//! per-engine [`DriveScratch`] arenas, so the steady-state timestep loop
//! performs **zero heap allocations**: psums, membranes, pending residual
//! currents and the spike planes themselves are all reusable scratch
//! (tracked by [`crate::scratch::scratch_growth`]). Each integer conv layer
//! runs the event-driven scatter or the register-tiled dense kernel of
//! [`crate::sparse`], a choice each engine fixes once per layer from the
//! layer's geometry (and, where both kernels are candidates, a crossover
//! spike count); the float datapath always scatters. The integer neuron
//! epilogue steps each stage in flat 64-neuron words, firing without
//! divisions or data-dependent branches ([`crate::neuron::fire_int`]), and
//! the integer head reads each timestep as per-channel spike counts.
//!
//! One run at `T` yields the entire accuracy-vs-timesteps curve up to `T`
//! (Figs. 7 and 9) and per-stage spike counts (Figs. 6 and 8).

use crate::encode::{encode_image, EventStream};
use crate::exit::{should_exit, ExitPolicy};
use crate::network::{ConvInput, NeuronMode, SnnAdd, SnnConv, SnnItem, SnnLinear, SnnNetwork};
use crate::neuron::{fire_int, step_f32};
use crate::scratch::{scratch_reserve_default, scratch_resize};
use crate::sparse::{
    conv_psums_dense_f32_into, conv_psums_dense_into, conv_psums_f32_plane, conv_psums_int_plane,
    ConvScratch, KernelPolicy,
};
use crate::spikeplane::{or_pool_packed, SpikePlane};
use crate::stats::SpikeStats;
use sia_fixed::sat::{acc_weight, add16};
use sia_fixed::{QuantScale, Q8_8};
use sia_telemetry::Value;
use sia_tensor::Tensor;
use std::fmt;
use std::sync::Arc;

/// The result of one inference run.
#[derive(Clone, Debug)]
pub struct SnnOutput {
    /// Readout (PS-side float logits) after every *executed* timestep;
    /// index `t` holds the logits using spikes from timesteps `0..=t`.
    /// Under an adaptive [`ExitPolicy`] this may be shorter than the
    /// requested run length — its length is the executed T.
    pub logits_per_t: Vec<Vec<f32>>,
    /// Spike statistics of the run.
    pub stats: SpikeStats,
}

impl SnnOutput {
    /// Final-timestep logits.
    ///
    /// # Panics
    ///
    /// Panics if the run had zero timesteps.
    #[must_use]
    pub fn logits(&self) -> &[f32] {
        self.logits_per_t.last().expect("zero-timestep run")
    }

    /// Predicted class at the final timestep.
    #[must_use]
    pub fn predicted(&self) -> usize {
        argmax(self.logits())
    }

    /// Predicted class using only timesteps `0..=t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    #[must_use]
    pub fn predicted_at(&self, t: usize) -> usize {
        argmax(&self.logits_per_t[t])
    }
}

fn argmax(v: &[f32]) -> usize {
    let mut best = 0;
    for (i, &x) in v.iter().enumerate() {
        if x > v[best] {
            best = i;
        }
    }
    best
}

/// The byte-wise walk the reference convs share: each output `(co, oy,
/// ox)` folds `tap(acc, input, weight)` over its in-bounds taps from
/// `zero`, `input` being the tap's flat `[C_in, H, W]` index, in the
/// canonical tap order — input channels outer, kernel rows, kernel
/// columns inner: the row-by-row schedule of the PE array (paper §III-A).
/// Saturating and `f32` arithmetic make the order observable, so the
/// cycle-level machine (`sia-accel`) and the fast kernels of
/// [`crate::sparse`] share this exact definition; the references built on
/// it are what those kernels are proven against.
pub(crate) fn conv_reference<A: Copy>(
    conv: &SnnConv,
    zero: A,
    out: &mut [A],
    tap: impl Fn(A, usize, i8) -> A,
) {
    let g = &conv.geom;
    let (oh, ow) = g.out_hw();
    for co in 0..g.out_channels {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut acc = zero;
                for ci in 0..g.in_channels {
                    for ky in 0..g.kernel {
                        let iy = (oy * g.stride + ky) as isize - g.padding as isize;
                        if iy < 0 || iy >= g.in_h as isize {
                            continue;
                        }
                        for kx in 0..g.kernel {
                            let ix = (ox * g.stride + kx) as isize - g.padding as isize;
                            if ix < 0 || ix >= g.in_w as isize {
                                continue;
                            }
                            let input = (ci * g.in_h + iy as usize) * g.in_w + ix as usize;
                            acc = tap(acc, input, conv.weight(co, ci, ky, kx));
                        }
                    }
                }
                out[(co * oh + oy) * ow + ox] = acc;
            }
        }
    }
}

/// Integer partial sums of a spike bitmap: saturating 16-bit accumulation
/// in the canonical tap order. The one integer bit-exactness oracle of the
/// event-driven scatter and the tiled kernel ([`crate::sparse`]).
pub fn conv_psums_int(conv: &SnnConv, spikes: &[u8]) -> Vec<i16> {
    let mut psums = vec![0; conv.out_neurons()];
    conv_reference(conv, 0, &mut psums, |acc, i, w| {
        if spikes[i] == 0 {
            acc
        } else {
            acc_weight(acc, w)
        }
    });
    psums
}

/// Float-reference partial sums in weight-code units (no saturation) — the
/// byte-wise reference for the `f32` scatter path.
pub fn conv_psums_f32(conv: &SnnConv, spikes: &[u8]) -> Vec<f32> {
    let mut psums = vec![0.0; conv.out_neurons()];
    conv_reference(conv, 0.0, &mut psums, |acc, i, w| {
        if spikes[i] == 0 {
            acc
        } else {
            acc + f32::from(w)
        }
    });
    psums
}

/// Dense (first-layer) partial sums: INT8 image codes × INT8 weights, 32-bit
/// accumulation (PS-side frame conversion). Shared with the cycle-level
/// machine, which runs this layer on the PS exactly as the prototype does.
pub fn conv_psums_dense(conv: &SnnConv, codes: &[i8]) -> Vec<i32> {
    let mut psums = vec![0; conv.out_neurons()];
    conv_reference(conv, 0, &mut psums, |acc, i, w| {
        acc + i32::from(codes[i]) * i32::from(w)
    });
    psums
}

/// 2×2 OR-pooling of a spike bitmap — the spike-domain max pool. The
/// byte-wise reference for [`or_pool_packed`], which the engines use.
pub fn or_pool(spikes: &[u8], channels: usize, h: usize, w: usize) -> Vec<u8> {
    let (oh, ow) = (h / 2, w / 2);
    let mut out = vec![0u8; channels * oh * ow];
    for c in 0..channels {
        for oy in 0..oh {
            for ox in 0..ow {
                let base = (c * h + 2 * oy) * w + 2 * ox;
                let any = spikes[base] | spikes[base + 1] | spikes[base + w] | spikes[base + w + 1];
                out[(c * oh + oy) * ow + ox] = u8::from(any != 0);
            }
        }
    }
    out
}

/// Names and neuron counts of the spiking stages, in network order — the
/// shared layout of [`crate::stats::SpikeStats`] across all executors.
pub fn spiking_stage_sizes(net: &SnnNetwork) -> (Vec<String>, Vec<u64>) {
    let mut names = Vec::new();
    let mut sizes = Vec::new();
    for it in &net.items {
        match it {
            SnnItem::InputConv(c) | SnnItem::Conv(c) => {
                let (oh, _) = c.geom.out_hw();
                names.push(format!("conv{}x{}@{}", c.geom.kernel, c.geom.kernel, oh));
                sizes.push(c.out_neurons() as u64);
            }
            SnnItem::BlockAdd(a) => {
                names.push(format!("add@{}", a.h));
                sizes.push(a.neurons() as u64);
            }
            _ => {}
        }
    }
    (names, sizes)
}

// ---------------------------------------------------------------------------
// The unified engine layer
// ---------------------------------------------------------------------------

/// Input to one inference run, as accepted by [`drive`].
#[derive(Clone, Copy, Debug)]
pub enum EngineInput<'a> {
    /// A dense `C×H×W` image (PS-side frame conversion; the network must
    /// start with a dense-input conv).
    Image(&'a Tensor),
    /// A DVS-style event stream (the network must have been converted with
    /// [`crate::InputEncoding::EventDriven`]).
    Events(&'a EventStream),
}

/// The driver's reusable per-run buffers: `cur` holds the current chunk's
/// timesteps of the stage last executed, `nxt` receives the stage being
/// executed (the two swap, ping-pong style), `skip` parks the pending
/// residual branch. The flat `logits` buffer (`T × classes`), per-timestep
/// observability counters and per-stage tap totals also live here, as does
/// the network's stage layout (item kinds, stage names and neuron counts),
/// built on the first run: an engine runs one network for its whole life,
/// so the layout never goes stale. Engines keep one of these across runs (via
/// [`Engine::take_drive_scratch`]) so a warm run re-uses every buffer.
#[derive(Debug, Default)]
pub struct DriveScratch {
    cur: Vec<SpikePlane>,
    nxt: Vec<SpikePlane>,
    skip: Vec<SpikePlane>,
    logits: Vec<f32>,
    spikes_per_t: Vec<u64>,
    saturated_per_t: Vec<u64>,
    taps_per_stage: Vec<(u64, u64)>,
    layout: Option<StageLayout>,
}

/// The network-static facts every run of an engine shares, built on its
/// first run: item kinds, and the stage names and neuron counts each run's
/// [`SpikeStats`] points at instead of copying.
#[derive(Debug)]
struct StageLayout {
    kinds: Vec<ItemKind>,
    names: Arc<[String]>,
    neurons: Arc<[u64]>,
}

impl StageLayout {
    fn of(net: &SnnNetwork) -> Self {
        let kinds: Vec<ItemKind> = net
            .items
            .iter()
            .map(|it| match it {
                SnnItem::InputConv(_) => ItemKind::Input,
                SnnItem::Conv(_) => ItemKind::Conv,
                SnnItem::ConvPsum(_) => ItemKind::ConvPsum,
                SnnItem::BlockStart => ItemKind::BlockStart,
                SnnItem::BlockAdd(_) => ItemKind::BlockAdd,
                SnnItem::MaxPoolOr { .. } => ItemKind::Pool,
                SnnItem::Head(_) => ItemKind::Head,
            })
            .collect();
        assert!(
            kinds.iter().any(|k| matches!(k, ItemKind::Head)),
            "network has no classification head"
        );
        let (names, neurons) = spiking_stage_sizes(net);
        StageLayout {
            kinds,
            names: names.into(),
            neurons: neurons.into(),
        }
    }
}

/// A spiking inference backend.
///
/// Implementors provide only the per-`(stage, timestep)` arithmetic; the
/// [`drive`]/[`drive_policy`] functions own input encoding, validation,
/// the layer-major traversal, spike statistics and readout collection.
/// Within each timestep chunk every stage runs all of the chunk's
/// timesteps before the next stage starts (the hardware's per-layer
/// ping-pong schedule); `begin_item` fires once per item at the first
/// chunk and `end_item` once per item after the traversal, carrying the
/// executed timestep count. Engines always receive **absolute** timestep
/// indices, so per-run caches keyed on `t == 0` survive chunking. Spike
/// frames are bit-packed [`SpikePlane`]s owned by the driver's arenas;
/// each step writes its output frame into a caller-provided plane
/// (resizing it to the stage's output shape).
pub trait Engine {
    /// Backend-specific per-run artefact beyond logits and statistics
    /// (the cycle report for the accelerator; `()` for the functional
    /// runners).
    type Extra;

    /// The network being executed.
    fn network(&self) -> &SnnNetwork;

    /// Telemetry span name covering one run.
    fn span_name(&self) -> &'static str;

    /// Whether the driver should emit per-timestep `snn.timestep` events
    /// and `snn.spikes`/`snn.membrane.saturated` counters for this backend
    /// (the integer runner's observability contract).
    fn emits_timestep_events(&self) -> bool {
        false
    }

    /// Hands the driver the engine's retained [`DriveScratch`] (returned
    /// through [`Engine::put_drive_scratch`] after the run). The default
    /// allocates fresh arenas each run; engines override both hooks to make
    /// warm runs allocation-free.
    fn take_drive_scratch(&mut self) -> DriveScratch {
        DriveScratch::default()
    }

    /// Returns the arenas for reuse by the next run.
    fn put_drive_scratch(&mut self, _scratch: DriveScratch) {}

    /// Resets per-run state: θ/2 membrane pre-charge (the optimal initial
    /// potential for QCFS conversion), head accumulators, reports.
    fn begin_run(&mut self, timesteps: usize);

    /// Stage-entry hook, called once per item at the start of the run's
    /// first chunk (before any of the item's timesteps execute).
    fn begin_item(&mut self, _idx: usize, _timesteps: usize) {}

    /// Stage-exit hook, called once per item after the traversal finishes,
    /// with the number of timesteps actually executed (`executed <
    /// timesteps` when an adaptive exit policy stopped the run early).
    fn end_item(&mut self, _idx: usize, _executed: usize) {}

    /// One timestep of the dense-input convolution. `codes` is the INT8
    /// image encoding (constant across timesteps — backends may cache
    /// derived currents at `t == 0`). Output spikes go into `out`.
    fn step_input_conv(&mut self, idx: usize, codes: &[i8], t: usize, out: &mut SpikePlane);

    /// One timestep of a spiking convolution over the previous stage's
    /// timestep-`t` spike plane.
    fn step_conv(&mut self, idx: usize, spikes: &SpikePlane, t: usize, out: &mut SpikePlane);

    /// One timestep of a psum-only convolution; the resulting currents are
    /// held by the backend until the closing `step_block_add`.
    fn step_conv_psum(&mut self, idx: usize, spikes: &SpikePlane, t: usize);

    /// One timestep of a residual add + activation. `skip` is the pending
    /// skip branch's timestep-`t` spike plane.
    fn step_block_add(&mut self, idx: usize, skip: &SpikePlane, t: usize, out: &mut SpikePlane);

    /// One timestep of spike-domain max pooling (backends only override to
    /// add accounting — the arithmetic is the shared packed
    /// [`or_pool_packed`]).
    fn step_pool(&mut self, idx: usize, spikes: &SpikePlane, _t: usize, out: &mut SpikePlane) {
        match &self.network().items[idx] {
            SnnItem::MaxPoolOr { .. } => or_pool_packed(spikes, out),
            _ => unreachable!("step_pool on a non-pool item"),
        }
    }

    /// Accumulates one timestep of classification evidence (only called for
    /// post-burn-in timesteps).
    fn head_accumulate(&mut self, idx: usize, spikes: &SpikePlane);

    /// Writes the logits from the accumulated evidence into `out`,
    /// time-averaged over `t_eff` timesteps.
    fn head_readout_into(&self, idx: usize, t_eff: usize, out: &mut [f32]);

    /// Membranes of stage `idx` currently pinned at the integer rails
    /// (saturation = precision loss on hardware); 0 where not applicable.
    fn saturated_membranes(&self, _idx: usize) -> u64 {
        0
    }

    /// Weight taps `(processed, skipped)` by stage `idx`'s convolutions
    /// since the last call (event-driven accounting; `None` when the
    /// backend does not track taps). Psum-stage taps are reported by the
    /// closing `BlockAdd` stage, whose timestep loop consumes them.
    fn stage_taps(&mut self, _idx: usize) -> Option<(u64, u64)> {
        None
    }

    /// Takes the backend's per-run artefact after the traversal.
    fn finish_run(&mut self) -> Self::Extra;
}

/// Checked preconditions shared by every engine, with the offending values
/// in every message.
fn check_run_params(timesteps: usize, burn_in: usize) {
    assert!(
        timesteps > 0,
        "need at least one timestep (timesteps = {timesteps})"
    );
    assert!(
        burn_in < timesteps,
        "burn-in {burn_in} must be below T {timesteps}"
    );
}

/// Resolves the first-layer input scale and encodes a dense image to INT8.
fn resolve_dense_codes(net: &SnnNetwork, image: &Tensor) -> Vec<i8> {
    let first_scale = match net.items.first() {
        Some(SnnItem::InputConv(c)) => match c.input {
            ConvInput::Dense { scale } => QuantScale::for_max_abs(scale * 127.0),
            ConvInput::Spikes { .. } => panic!("first layer must be dense-input"),
        },
        _ => panic!("network must start with InputConv (use run_events for spike input)"),
    };
    encode_image(image, first_scale)
}

/// Validates an event stream against the network and requested run length.
fn validate_events(net: &SnnNetwork, events: &EventStream, timesteps: usize) {
    assert!(
        !matches!(net.items.first(), Some(SnnItem::InputConv(_))),
        "network was converted for dense input; use run/run_with"
    );
    assert!(
        events.timesteps() >= timesteps,
        "event stream too short (stream has {} timesteps, need {timesteps})",
        events.timesteps()
    );
    events.validate();
}

/// Item discriminants, precomputed so the traversal below can dispatch
/// without holding a borrow of the engine's network.
#[derive(Clone, Copy, Debug)]
enum ItemKind {
    Input,
    Conv,
    ConvPsum,
    BlockStart,
    BlockAdd,
    Pool,
    Head,
}

/// Per-stage sparsity observability: `snn.taps.*` counters and one
/// `snn.stage` event (carrying the stage's spike density) — emitted for
/// every backend per spiking stage after the traversal, with taps and
/// spikes accumulated across all executed chunks.
fn emit_stage_telemetry(
    stage: usize,
    stats: &SpikeStats,
    executed: usize,
    processed: u64,
    skipped: u64,
) {
    sia_telemetry::counter!("snn.taps.processed", processed);
    sia_telemetry::counter!("snn.taps.skipped", skipped);
    let spikes = stats.spikes[stage];
    let neurons = stats.neurons[stage];
    let density = spikes as f64 / (neurons.max(1) * executed.max(1) as u64) as f64;
    sia_telemetry::emit(
        "snn.stage",
        &[
            ("name", Value::from(stats.names[stage].as_str())),
            ("spikes", Value::from(spikes)),
            ("neurons", Value::from(neurons)),
            ("timesteps", Value::from(executed)),
            ("density", Value::from(density)),
            ("taps_processed", Value::from(processed)),
            ("taps_skipped", Value::from(skipped)),
        ],
    );
}

/// Runs `timesteps` of inference on `engine` — **the** timestep × layer
/// traversal every backend shares.
///
/// The head ignores the first `burn_in` timesteps ("readout burn-in"): the
/// spiking layers still run from t = 0 so their membranes settle, but
/// classification evidence accumulates only from t = `burn_in`. A
/// PS-side-only change that mitigates the deep-network transient at small T.
///
/// # Panics
///
/// Panics if `timesteps == 0`, `burn_in >= timesteps`, the input kind
/// mismatches the network's first layer, an event stream is shorter than
/// `timesteps` or malformed, or the network has no classification head.
pub fn drive<E: Engine>(
    engine: &mut E,
    input: EngineInput<'_>,
    timesteps: usize,
    burn_in: usize,
) -> (SnnOutput, E::Extra) {
    drive_policy(engine, input, timesteps, burn_in, ExitPolicy::Fixed)
}

/// [`drive`] with a confidence-gated [`ExitPolicy`].
///
/// The traversal runs in **timestep chunks** of the policy's window: every
/// stage sweeps the chunk's timesteps (layer-major within the chunk,
/// preserving kernel and cache locality plus the bit-exact saturating tap
/// order), the head is read out at the chunk boundary, and an adaptive
/// policy may stop the run there. Exits never fire inside the burn-in
/// window. [`ExitPolicy::Fixed`] runs one chunk spanning the whole run —
/// exactly the pre-chunking driver.
///
/// The returned `logits_per_t` has one row per *executed* timestep;
/// `stats.timesteps` likewise counts executed timesteps.
///
/// # Panics
///
/// Same conditions as [`drive`].
pub fn drive_policy<E: Engine>(
    engine: &mut E,
    input: EngineInput<'_>,
    timesteps: usize,
    burn_in: usize,
    policy: ExitPolicy,
) -> (SnnOutput, E::Extra) {
    check_run_params(timesteps, burn_in);
    let _span = sia_telemetry::span!(engine.span_name());
    let mut arenas = engine.take_drive_scratch();
    let layout = arenas
        .layout
        .take()
        .unwrap_or_else(|| StageLayout::of(engine.network()));
    let classes = engine.network().num_classes;
    let stage_count = layout.names.len();
    let window = policy.chunk_window(timesteps);
    scratch_reserve_default(&mut arenas.cur, window);
    scratch_reserve_default(&mut arenas.nxt, window);
    scratch_reserve_default(&mut arenas.skip, window);
    scratch_resize(&mut arenas.logits, timesteps * classes, 0.0);
    scratch_resize(&mut arenas.spikes_per_t, timesteps, 0);
    scratch_resize(&mut arenas.saturated_per_t, timesteps, 0);
    scratch_resize(&mut arenas.taps_per_stage, stage_count, (0, 0));
    // Input resolution: dense images are encoded once; event-stream frames
    // are bit-packed at each chunk boundary (the arenas only hold one
    // chunk's planes).
    let codes: Vec<i8> = match input {
        EngineInput::Image(img) => resolve_dense_codes(engine.network(), img),
        EngineInput::Events(es) => {
            validate_events(engine.network(), es, timesteps);
            Vec::new()
        }
    };
    engine.begin_run(timesteps);
    let mut stats = SpikeStats::new(Arc::clone(&layout.names), Arc::clone(&layout.neurons));
    stats.images = 1;
    // Chunked layer-major traversal: `t0..t1` is the current chunk (chunk-
    // local plane index `k` = absolute timestep `t0 + k`). `t_done` drops
    // from the requested T to the boundary where the policy became
    // confident; the loop then stops issuing chunks.
    let mut t_done = timesteps;
    let mut t0 = 0usize;
    while t0 < t_done {
        let t1 = (t0 + window).min(timesteps);
        let w = t1 - t0;
        if let EngineInput::Events(es) = input {
            for (plane, frame) in arenas.cur.iter_mut().zip(&es.frames[t0..t1]) {
                plane.pack_from_bytes(es.channels, es.h, es.w, frame);
            }
        }
        let mut stage = 0usize;
        for (idx, kind) in layout.kinds.iter().enumerate() {
            if t0 == 0 {
                engine.begin_item(idx, timesteps);
            }
            let DriveScratch {
                cur,
                nxt,
                skip,
                logits,
                spikes_per_t,
                saturated_per_t,
                taps_per_stage,
                ..
            } = &mut arenas;
            match kind {
                ItemKind::Input | ItemKind::Conv | ItemKind::BlockAdd => {
                    for k in 0..w {
                        let t = t0 + k;
                        match kind {
                            ItemKind::Input => engine.step_input_conv(idx, &codes, t, &mut nxt[k]),
                            ItemKind::Conv => engine.step_conv(idx, &cur[k], t, &mut nxt[k]),
                            ItemKind::BlockAdd => {
                                engine.step_block_add(idx, &skip[k], t, &mut nxt[k]);
                            }
                            _ => unreachable!(),
                        }
                        let count = nxt[k].count_ones();
                        stats.spikes[stage] += count;
                        spikes_per_t[t] += count;
                        saturated_per_t[t] += engine.saturated_membranes(idx);
                    }
                    if let Some((processed, skipped)) = engine.stage_taps(idx) {
                        taps_per_stage[stage].0 += processed;
                        taps_per_stage[stage].1 += skipped;
                    }
                    stage += 1;
                    std::mem::swap(cur, nxt);
                }
                ItemKind::ConvPsum => {
                    for (k, plane) in cur.iter().enumerate().take(w) {
                        engine.step_conv_psum(idx, plane, t0 + k);
                    }
                    // cur unchanged: the psums wait for the closing BlockAdd
                }
                ItemKind::BlockStart => {
                    for (dst, src) in skip.iter_mut().zip(cur.iter()).take(w) {
                        dst.copy_from(src);
                    }
                }
                ItemKind::Pool => {
                    for k in 0..w {
                        engine.step_pool(idx, &cur[k], t0 + k, &mut nxt[k]);
                    }
                    std::mem::swap(cur, nxt);
                }
                ItemKind::Head => {
                    for (k, plane) in cur.iter().enumerate().take(w) {
                        let t = t0 + k;
                        if t >= burn_in {
                            engine.head_accumulate(idx, plane);
                        }
                        let t_eff = (t + 1).saturating_sub(burn_in).max(1);
                        engine.head_readout_into(
                            idx,
                            t_eff,
                            &mut logits[t * classes..(t + 1) * classes],
                        );
                    }
                }
            }
        }
        if should_exit(
            policy,
            &arenas.logits[(t1 - 1) * classes..t1 * classes],
            t1,
            timesteps,
            burn_in,
        ) {
            t_done = t1;
        }
        t0 = t1;
    }
    stats.timesteps = t_done as u64;
    for idx in 0..layout.kinds.len() {
        engine.end_item(idx, t_done);
    }
    for stage in 0..stage_count {
        let (processed, skipped) = arenas.taps_per_stage[stage];
        emit_stage_telemetry(stage, &stats, t_done, processed, skipped);
    }
    if engine.emits_timestep_events() {
        for t in 0..t_done {
            sia_telemetry::counter!("snn.spikes", arenas.spikes_per_t[t]);
            sia_telemetry::counter!("snn.membrane.saturated", arenas.saturated_per_t[t]);
            sia_telemetry::emit(
                "snn.timestep",
                &[
                    ("t", Value::from(t)),
                    ("spikes", Value::from(arenas.spikes_per_t[t])),
                    ("saturated", Value::from(arenas.saturated_per_t[t])),
                ],
            );
        }
    }
    if policy.is_adaptive() {
        sia_telemetry::histogram!("snn.exit.t", t_done as u64);
    }
    let extra = engine.finish_run();
    let logits_per_t: Vec<Vec<f32>> = arenas.logits[..t_done * classes]
        .chunks(classes.max(1))
        .map(<[f32]>::to_vec)
        .collect();
    arenas.layout = Some(layout);
    engine.put_drive_scratch(arenas);
    (
        SnnOutput {
            logits_per_t,
            stats,
        },
        extra,
    )
}

// ---------------------------------------------------------------------------
// The functional runner
// ---------------------------------------------------------------------------

/// The functional runner: one network's membranes, head evidence and
/// scratch, stepped in the arithmetic of its [`Datapath`] —
/// [`IntRunner`] and [`FloatRunner`].
#[derive(Debug)]
pub struct Runner<'a, D: Datapath> {
    net: &'a SnnNetwork,
    datapath: D,
    membranes: Vec<Vec<D::Value>>,
    head_acc: Vec<D::Evidence>,
    /// Dense first-layer currents, constant across timesteps (cached at
    /// `t == 0`).
    input_currents: Vec<D::Value>,
    /// Flat per-timestep psum currents awaiting the closing `BlockAdd`
    /// (`run_timesteps` frames of `pending_len` each).
    pending: Vec<D::Value>,
    pending_len: usize,
    run_timesteps: usize,
    /// One stage's neuron currents, staged between the BN epilogue and
    /// the neuron step.
    currents: Vec<D::Value>,
    /// Per item: membranes at a rail after its latest step (the count
    /// [`Datapath::fire`] returns).
    rails: Vec<u64>,
    conv: ConvScratch,
    policy: KernelPolicy,
    arenas: DriveScratch,
}

/// Integer-datapath runner (the accelerator semantics).
pub type IntRunner<'a> = Runner<'a, IntDatapath>;

/// Float-reference runner: identical topology and dynamics, `f32`
/// arithmetic, no saturation or coefficient rounding.
pub type FloatRunner<'a> = Runner<'a, FloatDatapath>;

impl<'a, D: Datapath> Runner<'a, D> {
    /// Prepares runner state for `net`.
    #[must_use]
    pub fn new(net: &'a SnnNetwork) -> Self {
        let membranes = net
            .items
            .iter()
            .map(|it| match it {
                SnnItem::InputConv(c) | SnnItem::Conv(c) => {
                    vec![D::Value::default(); c.out_neurons()]
                }
                SnnItem::BlockAdd(a) => vec![D::Value::default(); a.neurons()],
                _ => Vec::new(),
            })
            .collect();
        Runner {
            net,
            datapath: D::default(),
            membranes,
            head_acc: vec![D::Evidence::default(); net.num_classes],
            input_currents: Vec::new(),
            pending: Vec::new(),
            pending_len: 0,
            run_timesteps: 0,
            currents: Vec::new(),
            rails: vec![0; net.items.len()],
            conv: ConvScratch::new(),
            policy: KernelPolicy::Auto,
            arenas: DriveScratch::default(),
        }
    }

    /// Overrides the sparse-vs-dense kernel selection (used by equivalence
    /// tests and benches). The integer datapath is bit-exact under every
    /// policy; the float datapath has one kernel, the scatter, and runs it
    /// under every policy.
    pub fn set_kernel_policy(&mut self, policy: KernelPolicy) {
        self.policy = policy;
    }

    /// Runs `timesteps` of inference on one `C×H×W` image.
    ///
    /// # Panics
    ///
    /// Panics if `timesteps == 0`, the image shape mismatches the network,
    /// or the network does not start with an `InputConv`.
    #[must_use]
    pub fn run(&mut self, image: &Tensor, timesteps: usize) -> SnnOutput {
        self.run_with(image, timesteps, 0)
    }

    /// Like [`Runner::run`] with readout burn-in (see [`drive`]).
    ///
    /// # Panics
    ///
    /// Panics if `timesteps == 0` or `burn_in >= timesteps`.
    #[must_use]
    pub fn run_with(&mut self, image: &Tensor, timesteps: usize, burn_in: usize) -> SnnOutput {
        drive(self, EngineInput::Image(image), timesteps, burn_in).0
    }

    /// Runs on a DVS-style [`EventStream`] (event-driven first layer; the
    /// network must have been converted with
    /// [`crate::InputEncoding::EventDriven`]).
    ///
    /// # Panics
    ///
    /// Panics if the network starts with a dense `InputConv`, the stream is
    /// shorter than `timesteps`, or `burn_in >= timesteps`.
    #[must_use]
    pub fn run_events(
        &mut self,
        events: &EventStream,
        timesteps: usize,
        burn_in: usize,
    ) -> SnnOutput {
        drive(self, EngineInput::Events(events), timesteps, burn_in).0
    }

    /// Like [`Runner::run_with`] under a confidence-gated exit policy
    /// (see [`drive_policy`]).
    ///
    /// # Panics
    ///
    /// Same conditions as [`Runner::run_with`].
    #[must_use]
    pub fn run_policy(
        &mut self,
        image: &Tensor,
        timesteps: usize,
        burn_in: usize,
        policy: ExitPolicy,
    ) -> SnnOutput {
        drive_policy(self, EngineInput::Image(image), timesteps, burn_in, policy).0
    }
}

impl<D: Datapath> Engine for Runner<'_, D> {
    type Extra = ();

    fn network(&self) -> &SnnNetwork {
        self.net
    }

    fn span_name(&self) -> &'static str {
        D::SPAN
    }

    fn emits_timestep_events(&self) -> bool {
        D::TIMESTEP_EVENTS
    }

    fn take_drive_scratch(&mut self) -> DriveScratch {
        std::mem::take(&mut self.arenas)
    }

    fn put_drive_scratch(&mut self, scratch: DriveScratch) {
        self.arenas = scratch;
    }

    fn begin_run(&mut self, timesteps: usize) {
        for (item, mem) in self.net.items.iter().zip(&mut self.membranes) {
            let threshold = match item {
                SnnItem::InputConv(c) | SnnItem::Conv(c) => D::threshold(c.theta, c.step),
                SnnItem::BlockAdd(a) => D::threshold(a.theta, a.step),
                _ => continue,
            };
            mem.fill(D::precharge(threshold));
        }
        self.head_acc.fill(D::Evidence::default());
        self.input_currents.clear();
        self.pending.clear();
        self.pending_len = 0;
        self.run_timesteps = timesteps;
    }

    fn step_input_conv(&mut self, idx: usize, codes: &[i8], t: usize, out: &mut SpikePlane) {
        let net = self.net;
        let SnnItem::InputConv(c) = &net.items[idx] else {
            unreachable!("step_input_conv on a non-input item")
        };
        if t == 0 {
            scratch_resize(
                &mut self.input_currents,
                c.out_neurons(),
                D::Value::default(),
            );
            self.datapath
                .input_currents(c, idx, codes, &mut self.conv, &mut self.input_currents);
        }
        let (oh, ow) = c.geom.out_hw();
        out.reset(c.geom.out_channels, oh, ow);
        self.rails[idx] = D::fire(
            &mut self.membranes[idx],
            &self.input_currents,
            D::threshold(c.theta, c.step),
            c.mode,
            out,
        );
    }

    fn step_conv(&mut self, idx: usize, spikes: &SpikePlane, _t: usize, out: &mut SpikePlane) {
        let net = self.net;
        let SnnItem::Conv(c) = &net.items[idx] else {
            unreachable!("step_conv on a non-conv item")
        };
        scratch_resize(&mut self.currents, c.out_neurons(), D::Value::default());
        self.datapath.conv_currents(
            c,
            idx,
            spikes,
            self.policy,
            &mut self.conv,
            &mut self.currents,
        );
        let (oh, ow) = c.geom.out_hw();
        out.reset(c.geom.out_channels, oh, ow);
        self.rails[idx] = D::fire(
            &mut self.membranes[idx],
            &self.currents,
            D::threshold(c.theta, c.step),
            c.mode,
            out,
        );
    }

    fn step_conv_psum(&mut self, idx: usize, spikes: &SpikePlane, t: usize) {
        let net = self.net;
        let SnnItem::ConvPsum(c) = &net.items[idx] else {
            unreachable!("step_conv_psum on a non-psum item")
        };
        // Differently-sized psum stages share this buffer; under the
        // chunked driver each stage revisits it every chunk (not only at
        // t == 0), so re-shape whenever the frame geometry changes. Earlier
        // frames are dead — the closing BlockAdd consumed them in-chunk.
        let len = c.out_neurons();
        let needed = self.run_timesteps * len;
        if len != self.pending_len || self.pending.len() != needed {
            self.pending_len = len;
            scratch_resize(&mut self.pending, needed, D::Value::default());
        }
        let dst = &mut self.pending[t * len..(t + 1) * len];
        self.datapath
            .conv_currents(c, idx, spikes, self.policy, &mut self.conv, dst);
    }

    fn step_block_add(&mut self, idx: usize, skip: &SpikePlane, t: usize, out: &mut SpikePlane) {
        let net = self.net;
        let SnnItem::BlockAdd(a) = &net.items[idx] else {
            unreachable!("step_block_add on a non-add item")
        };
        let skip_len = match &a.down {
            Some(d) => d.out_neurons(),
            None => skip.len(),
        };
        let len = self.pending_len;
        assert_eq!(
            len, skip_len,
            "residual shape mismatch (pending {len}, skip {skip_len})"
        );
        let pending = &self.pending[t * len..(t + 1) * len];
        scratch_resize(&mut self.currents, len, D::Value::default());
        match &a.down {
            Some(d) => {
                let dst = &mut self.currents;
                self.datapath
                    .conv_currents(d, idx, skip, self.policy, &mut self.conv, dst);
                D::join(pending, dst);
            }
            None => D::join_skip(a, pending, skip, &mut self.currents),
        }
        out.reset(a.channels, a.h, a.w);
        self.rails[idx] = D::fire(
            &mut self.membranes[idx],
            &self.currents,
            D::threshold(a.theta, a.step),
            a.mode,
            out,
        );
    }

    fn head_accumulate(&mut self, idx: usize, spikes: &SpikePlane) {
        let SnnItem::Head(l) = &self.net.items[idx] else {
            unreachable!("head_accumulate on a non-head item")
        };
        D::head_accumulate(&mut self.head_acc, l, spikes);
    }

    fn head_readout_into(&self, idx: usize, t_eff: usize, out: &mut [f32]) {
        let SnnItem::Head(l) = &self.net.items[idx] else {
            unreachable!("head_readout on a non-head item")
        };
        D::head_readout(&self.head_acc, l, t_eff, out);
    }

    fn saturated_membranes(&self, idx: usize) -> u64 {
        self.rails[idx]
    }

    fn stage_taps(&mut self, _idx: usize) -> Option<(u64, u64)> {
        Some(self.conv.take_taps())
    }

    fn finish_run(&mut self) -> Self::Extra {}
}

mod sealed {
    pub trait Sealed {}
    impl Sealed for super::IntDatapath {}
    impl Sealed for super::FloatDatapath {}
}

/// The arithmetic a [`Runner`] steps its network in; the runner owns the
/// rest. Sealed: [`IntDatapath`] and [`FloatDatapath`] are its only
/// implementations.
pub trait Datapath: sealed::Sealed + Default + fmt::Debug + 'static {
    /// Membrane potentials and neuron currents.
    type Value: Copy + Default + fmt::Debug;
    /// The head's per-class evidence.
    type Evidence: Copy + Default + fmt::Debug;
    /// [`Engine::span_name`].
    const SPAN: &'static str;
    /// [`Engine::emits_timestep_events`].
    const TIMESTEP_EVENTS: bool;

    /// A stage's firing threshold: its integer `theta` or its float `step`.
    fn threshold(theta: i16, step: f32) -> Self::Value;

    /// The membrane pre-charge: half the threshold, the optimal initial
    /// potential for QCFS conversion.
    fn precharge(threshold: Self::Value) -> Self::Value;

    /// The dense input conv's currents: `codes`' psums, then batch-norm.
    fn input_currents(
        &mut self,
        c: &SnnConv,
        idx: usize,
        codes: &[i8],
        scr: &mut ConvScratch,
        dst: &mut [Self::Value],
    );

    /// A conv's currents: its psums over `spikes` under `policy`, then
    /// batch-norm. `idx` is the item that owns the conv.
    fn conv_currents(
        &mut self,
        c: &SnnConv,
        idx: usize,
        spikes: &SpikePlane,
        policy: KernelPolicy,
        scr: &mut ConvScratch,
        dst: &mut [Self::Value],
    );

    /// A downsample branch's residual join: `dst` becomes `pending + dst`.
    fn join(pending: &[Self::Value], dst: &mut [Self::Value]);

    /// An identity branch's residual join: `dst[i]` is `pending[i]` plus
    /// one skip spike's value where skip spike `i` is set.
    fn join_skip(a: &SnnAdd, pending: &[Self::Value], skip: &SpikePlane, dst: &mut [Self::Value]);

    /// One timestep of a stage's neurons: neuron `i` integrates
    /// `currents[i]`, and its spike lands in `out` (already shaped).
    /// Returns how many membranes sit at a rail afterwards.
    fn fire(
        mem: &mut [Self::Value],
        currents: &[Self::Value],
        threshold: Self::Value,
        mode: NeuronMode,
        out: &mut SpikePlane,
    ) -> u64;

    /// Adds one timestep's classification evidence to `acc`.
    fn head_accumulate(acc: &mut [Self::Evidence], head: &SnnLinear, spikes: &SpikePlane);

    /// Writes the logits from `acc`, time-averaged over `t_eff` timesteps.
    fn head_readout(acc: &[Self::Evidence], head: &SnnLinear, t_eff: usize, out: &mut [f32]);
}

// ---------------------------------------------------------------------------
// Integer datapath
// ---------------------------------------------------------------------------

/// The aggregation core's batch-norm epilogue (paper Eq. 2) over one
/// stage: `dst[i] = add16(mul(g[i], psums[i]), h[i])`, one flat sweep
/// over the stage's per-output coefficient rows ([`bn_coefs`]), so it
/// vectorises whatever the size of a channel plane. `mul` is
/// [`Q8_8::mul_int`] for 16-bit psums, [`Q8_8::mul_int_wide`] for the
/// dense input layer's 32-bit ones.
fn bn_currents<P: Copy>(
    dst: &mut [i16],
    psums: &[P],
    g: &[Q8_8],
    h: &[i16],
    mul: impl Fn(Q8_8, P) -> i16,
) {
    for (((d, &p), &g), &h) in dst.iter_mut().zip(psums).zip(g).zip(h) {
        *d = add16(mul(g, p), h);
    }
}

/// One layer's per-output batch-norm coefficients: `G` and `H` repeated
/// across each channel's plane.
#[derive(Clone, Debug, Default)]
struct BnRows {
    g: Vec<Q8_8>,
    h: Vec<i16>,
}

/// The per-output coefficient rows [`bn_currents`] reads for `conv`, the
/// conv of item `idx`, built from its per-channel `G` and `H` on the
/// item's first call (like the conv kernels' layer entries).
fn bn_coefs<'s>(rows: &'s mut Vec<BnRows>, idx: usize, conv: &SnnConv) -> (&'s [Q8_8], &'s [i16]) {
    scratch_reserve_default(rows, idx + 1);
    let r = &mut rows[idx];
    if r.g.is_empty() {
        let n = conv.out_neurons();
        let per_ch = n / conv.geom.out_channels;
        scratch_resize(&mut r.g, n, Q8_8::ZERO);
        scratch_resize(&mut r.h, n, 0);
        for (((g, h), &cg), &ch) in
            r.g.chunks_exact_mut(per_ch)
                .zip(r.h.chunks_exact_mut(per_ch))
                .zip(&conv.g)
                .zip(&conv.h)
        {
            g.fill(cg);
            h.fill(ch);
        }
    }
    (&r.g, &r.h)
}

/// The identity branch of a residual add: `dst[i] = add16(pending[i],
/// skip_add)` where skip spike `i` is set and `pending[i]` elsewhere
/// (`add16(x, 0) == x`), reading the skip plane in flat 64-neuron words
/// ([`SpikePlane::flat_words`]) whatever its row width.
fn skip_currents(dst: &mut [i16], pending: &[i16], skip: &SpikePlane, skip_add: i16) {
    for ((d, p), word) in dst
        .chunks_mut(64)
        .zip(pending.chunks(64))
        .zip(skip.flat_words())
    {
        for (j, (d, &p)) in d.iter_mut().zip(p).enumerate() {
            *d = add16(p, skip_add & -i16::from((word >> j) & 1 == 1));
        }
    }
}

/// The head's evidence for one timestep: `acc[o] += Σ_c w[o][c] · n_c`,
/// where `n_c` counts channel `c`'s spikes (per-channel popcounts; the i64
/// sum is order-free, so this equals adding `w[o][c]` once per spike).
/// The cycle-level machine keeps its own spike-by-spike walk.
fn head_accumulate_int(acc: &mut [i64], head: &SnnLinear, spikes: &SpikePlane) {
    for (c, words) in spikes.channel_words().enumerate() {
        let n: u32 = words.iter().map(|w| w.count_ones()).sum();
        if n == 0 {
            continue;
        }
        let column = head.weights[c..].iter().step_by(head.channels);
        for (a, &w) in acc.iter_mut().zip(column) {
            *a += i64::from(w) * i64::from(n);
        }
    }
}

/// The integer datapath of the accelerator: saturating 16-bit partial
/// sums in a fixed tap order, Q8.8 batch-norm, 16-bit membranes that fire
/// in flat 64-neuron words ([`fire_int`]), and a head that reads each
/// timestep as per-channel spike counts.
#[derive(Clone, Debug, Default)]
pub struct IntDatapath {
    /// Per item: its conv's per-output batch-norm rows ([`bn_coefs`]).
    bn_rows: Vec<BnRows>,
}

impl Datapath for IntDatapath {
    type Value = i16;
    type Evidence = i64;
    const SPAN: &'static str = "snn.int_run";
    const TIMESTEP_EVENTS: bool = true;

    fn threshold(theta: i16, _step: f32) -> i16 {
        theta
    }

    fn precharge(theta: i16) -> i16 {
        theta / 2
    }

    fn input_currents(
        &mut self,
        c: &SnnConv,
        idx: usize,
        codes: &[i8],
        scr: &mut ConvScratch,
        dst: &mut [i16],
    ) {
        let psums = conv_psums_dense_into(c, codes, scr);
        let (g, h) = bn_coefs(&mut self.bn_rows, idx, c);
        bn_currents(dst, psums, g, h, Q8_8::mul_int_wide);
    }

    fn conv_currents(
        &mut self,
        c: &SnnConv,
        idx: usize,
        spikes: &SpikePlane,
        policy: KernelPolicy,
        scr: &mut ConvScratch,
        dst: &mut [i16],
    ) {
        let psums = conv_psums_int_plane(c, spikes, policy, scr, idx);
        let (g, h) = bn_coefs(&mut self.bn_rows, idx, c);
        bn_currents(dst, psums, g, h, Q8_8::mul_int);
    }

    fn join(pending: &[i16], dst: &mut [i16]) {
        for (d, &p) in dst.iter_mut().zip(pending) {
            *d = add16(p, *d);
        }
    }

    fn join_skip(a: &SnnAdd, pending: &[i16], skip: &SpikePlane, dst: &mut [i16]) {
        skip_currents(dst, pending, skip, a.skip_add);
    }

    fn fire(
        mem: &mut [i16],
        currents: &[i16],
        theta: i16,
        mode: NeuronMode,
        out: &mut SpikePlane,
    ) -> u64 {
        fire_int(mem, currents, theta, mode, out)
    }

    fn head_accumulate(acc: &mut [i64], head: &SnnLinear, spikes: &SpikePlane) {
        head_accumulate_int(acc, head, spikes);
    }

    fn head_readout(acc: &[i64], head: &SnnLinear, t_eff: usize, out: &mut [f32]) {
        for ((o, &a), &b) in out.iter_mut().zip(acc).zip(&head.bias) {
            *o = a as f32 * head.q.scale() / t_eff as f32 + b;
        }
    }
}

// ---------------------------------------------------------------------------
// Float-reference datapath
// ---------------------------------------------------------------------------

/// The float reference dynamics: `f32` partial sums (the scatter, under
/// every kernel policy), per-channel `gf`/`hf` batch-norm, `f32` membranes
/// ([`step_f32`]), no saturation or coefficient rounding.
#[derive(Clone, Debug, Default)]
pub struct FloatDatapath;

/// The float batch-norm: `dst[i] = gf[c]·psums[i] + hf[c]`, `c` being
/// output `i`'s channel.
fn bn_f32(c: &SnnConv, psums: &[f32], dst: &mut [f32]) {
    let per_ch = psums.len() / c.geom.out_channels;
    for (i, (d, &p)) in dst.iter_mut().zip(psums).enumerate() {
        *d = c.gf[i / per_ch] * p + c.hf[i / per_ch];
    }
}

impl Datapath for FloatDatapath {
    type Value = f32;
    type Evidence = f32;
    const SPAN: &'static str = "snn.float_run";
    const TIMESTEP_EVENTS: bool = false;

    fn threshold(_theta: i16, step: f32) -> f32 {
        step
    }

    fn precharge(step: f32) -> f32 {
        step / 2.0
    }

    fn input_currents(
        &mut self,
        c: &SnnConv,
        _idx: usize,
        codes: &[i8],
        scr: &mut ConvScratch,
        dst: &mut [f32],
    ) {
        bn_f32(c, conv_psums_dense_f32_into(c, codes, scr), dst);
    }

    fn conv_currents(
        &mut self,
        c: &SnnConv,
        idx: usize,
        spikes: &SpikePlane,
        policy: KernelPolicy,
        scr: &mut ConvScratch,
        dst: &mut [f32],
    ) {
        bn_f32(c, conv_psums_f32_plane(c, spikes, policy, scr, idx), dst);
    }

    fn join(pending: &[f32], dst: &mut [f32]) {
        for (d, &p) in dst.iter_mut().zip(pending) {
            *d += p;
        }
    }

    fn join_skip(a: &SnnAdd, pending: &[f32], skip: &SpikePlane, dst: &mut [f32]) {
        for (i, (d, &p)) in dst.iter_mut().zip(pending).enumerate() {
            *d = p + if skip.bit_linear(i) {
                a.skip_value
            } else {
                0.0
            };
        }
    }

    fn fire(
        mem: &mut [f32],
        currents: &[f32],
        step: f32,
        mode: NeuronMode,
        out: &mut SpikePlane,
    ) -> u64 {
        for (i, (u, &cur)) in mem.iter_mut().zip(currents).enumerate() {
            if step_f32(u, cur, step, mode) {
                out.set_linear(i);
            }
        }
        0
    }

    fn head_accumulate(acc: &mut [f32], head: &SnnLinear, spikes: &SpikePlane) {
        let per_ch = head.in_h * head.in_w;
        for (o, acc) in acc.iter_mut().enumerate() {
            // bit iteration visits linear indices ascending — the exact f32
            // addition order of the byte-wise loop this replaced
            let mut a = 0.0f32;
            spikes.for_each_set_linear(|i| {
                a += head.weights_f[o * head.channels + i / per_ch];
            });
            *acc += a;
        }
    }

    fn head_readout(acc: &[f32], head: &SnnLinear, t_eff: usize, out: &mut [f32]) {
        for ((o, &a), &b) in out.iter_mut().zip(acc).zip(&head.bias) {
            *o = a / t_eff as f32 + b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convert::{convert, ConvertOptions};
    use crate::neuron::constant_current_count;
    use sia_nn::{ActSpec, ConvSpec, LinearSpec, NetworkSpec, SpecItem};
    use sia_tensor::Conv2dGeom;

    /// One 1×1 conv (identity-ish) + head: small enough to verify by hand.
    fn one_layer_spec(weight: f32, step: f32, levels: usize) -> NetworkSpec {
        let geom = Conv2dGeom {
            in_channels: 1,
            out_channels: 1,
            in_h: 2,
            in_w: 2,
            kernel: 1,
            stride: 1,
            padding: 0,
        };
        NetworkSpec {
            name: "one".into(),
            input: (1, 2, 2),
            items: vec![
                SpecItem::Conv(ConvSpec {
                    geom,
                    weights: Tensor::full(vec![1, 1, 1, 1], weight),
                    bn: None,
                    act: Some(ActSpec { levels, step }),
                }),
                SpecItem::GlobalAvgPool,
                SpecItem::Linear(LinearSpec {
                    in_features: 1,
                    out_features: 2,
                    weights: Tensor::from_vec(vec![2, 1], vec![1.0, -1.0]),
                    bias: vec![0.0, 0.0],
                }),
            ],
        }
    }

    #[test]
    fn layer1_spike_count_matches_quantized_relu_closed_form() {
        // With T = L and constant input current, the IF layer's spike count
        // must equal clip(floor(x·L/s + ½), 0, L): the conversion theorem
        // that makes SNN ≈ quantized ANN at T = L.
        let levels = 8;
        let spec = one_layer_spec(1.0, 1.0, levels);
        let net = convert(
            &spec,
            &ConvertOptions {
                input_max_abs: 1.0,
                ..ConvertOptions::default()
            },
        );
        let mut runner = FloatRunner::new(&net);
        for &x in &[0.0f32, 0.05, 0.3, 0.55, 0.81, 0.99] {
            let img = Tensor::full(vec![1, 2, 2], x);
            let out = runner.run(&img, levels);
            // every pixel has the same input: spikes per pixel = count
            let total: u64 = out.stats.spikes[0];
            let per_pixel = total / 4;
            // the input was quantised to INT8 first
            let scale = sia_fixed::QuantScale::for_max_abs(1.0);
            let xq = sia_fixed::dequantize_i8(sia_fixed::quantize_i8(x, scale), scale);
            let expected = constant_current_count(xq, 1.0, levels) as u64;
            assert_eq!(per_pixel, expected, "x={x} (quantised {xq})");
        }
    }

    #[test]
    fn int_runner_matches_float_runner_closely() {
        let spec = one_layer_spec(0.8, 1.0, 8);
        let net = convert(&spec, &ConvertOptions::default());
        let img = Tensor::from_vec(vec![1, 2, 2], vec![0.2, 0.5, 0.8, 0.95]);
        let f = FloatRunner::new(&net).run(&img, 8);
        let i = IntRunner::new(&net).run(&img, 8);
        // same spike counts layer-1 (integer rounding differences possible,
        // but this layer's coefficients are exactly representable)
        assert_eq!(f.stats.spikes, i.stats.spikes);
        assert_eq!(f.predicted(), i.predicted());
    }

    #[test]
    fn logits_per_t_has_one_entry_per_timestep() {
        let spec = one_layer_spec(0.5, 1.0, 8);
        let net = convert(&spec, &ConvertOptions::default());
        let img = Tensor::full(vec![1, 2, 2], 0.7);
        let out = FloatRunner::new(&net).run(&img, 5);
        assert_eq!(out.logits_per_t.len(), 5);
        assert_eq!(out.logits().len(), 2);
        let _ = out.predicted_at(0);
    }

    #[test]
    fn repeated_runs_are_deterministic_and_reset() {
        let spec = one_layer_spec(0.9, 1.0, 8);
        let net = convert(&spec, &ConvertOptions::default());
        let img = Tensor::full(vec![1, 2, 2], 0.6);
        let mut r = IntRunner::new(&net);
        let a = r.run(&img, 8);
        let b = r.run(&img, 8);
        assert_eq!(a.logits_per_t, b.logits_per_t);
        assert_eq!(a.stats.spikes, b.stats.spikes);
    }

    #[test]
    fn head_sign_separates_classes() {
        // positive activity ⇒ class 0 (weight +1) beats class 1 (−1)
        let spec = one_layer_spec(1.0, 1.0, 8);
        let net = convert(&spec, &ConvertOptions::default());
        let img = Tensor::full(vec![1, 2, 2], 0.9);
        let out = IntRunner::new(&net).run(&img, 8);
        assert_eq!(out.predicted(), 0);
        assert!(out.logits()[0] > out.logits()[1]);
    }

    #[test]
    fn zero_input_emits_no_spikes() {
        let spec = one_layer_spec(1.0, 1.0, 8);
        let net = convert(&spec, &ConvertOptions::default());
        let img = Tensor::zeros(vec![1, 2, 2]);
        let out = IntRunner::new(&net).run(&img, 8);
        assert_eq!(out.stats.spikes[0], 0);
        assert_eq!(out.stats.overall_rate(), 0.0);
    }

    #[test]
    fn driver_sets_image_and_timestep_counts_once() {
        let spec = one_layer_spec(1.0, 1.0, 8);
        let net = convert(&spec, &ConvertOptions::default());
        let img = Tensor::full(vec![1, 2, 2], 0.4);
        let out = IntRunner::new(&net).run(&img, 6);
        assert_eq!(out.stats.images, 1);
        assert_eq!(out.stats.timesteps, 6);
    }

    fn lcg(seed: &mut u64) -> u64 {
        *seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *seed >> 33
    }

    fn random_plane(c: usize, h: usize, w: usize, seed: &mut u64) -> SpikePlane {
        let bytes: Vec<u8> = (0..c * h * w)
            .map(|_| u8::from(lcg(seed).is_multiple_of(3)))
            .collect();
        let mut plane = SpikePlane::default();
        plane.pack_from_bytes(c, h, w, &bytes);
        plane
    }

    /// The row-by-row skip-branch walk the flat one replaced: its oracle.
    fn skip_currents_by_rows(dst: &mut [i16], pending: &[i16], skip: &SpikePlane, skip_add: i16) {
        let (h, w) = (skip.height(), skip.width().max(1));
        for (r, (drow, prow)) in dst
            .chunks_exact_mut(w)
            .zip(pending.chunks_exact(w))
            .enumerate()
        {
            let words = skip.row(r / h, r % h);
            for ((d, p), &word) in drow.chunks_mut(64).zip(prow.chunks(64)).zip(words) {
                for (j, (d, &p)) in d.iter_mut().zip(p).enumerate() {
                    *d = add16(p, skip_add & -i16::from((word >> j) & 1 == 1));
                }
            }
        }
    }

    /// The spike-by-spike head walk (one pass per class) the per-channel
    /// popcounts replaced: their oracle.
    fn head_accumulate_by_spikes(acc: &mut [i64], l: &SnnLinear, spikes: &SpikePlane) {
        let per_ch = l.in_h * l.in_w;
        for (o, acc) in acc.iter_mut().enumerate() {
            let mut a = 0i64;
            spikes.for_each_set_linear(|i| {
                a += i64::from(l.weights[o * l.channels + i / per_ch]);
            });
            *acc += a;
        }
    }

    #[test]
    fn skip_currents_match_the_row_by_row_oracle() {
        let mut seed = 17u64;
        for w in [1usize, 2, 3, 8, 10, 16, 63, 64, 65, 100] {
            let (c, h) = (3, 2);
            let skip = random_plane(c, h, w, &mut seed);
            let pending: Vec<i16> = (0..c * h * w)
                .map(|_| lcg(&mut seed) as u16 as i16)
                .collect();
            for skip_add in [0i16, 1, 100, -5, i16::MAX] {
                let mut got = vec![0; pending.len()];
                let mut want = vec![0; pending.len()];
                skip_currents(&mut got, &pending, &skip, skip_add);
                skip_currents_by_rows(&mut want, &pending, &skip, skip_add);
                assert_eq!(got, want, "w={w} skip_add={skip_add}");
            }
        }
    }

    #[test]
    fn head_accumulate_matches_the_spike_by_spike_oracle() {
        let mut seed = 29u64;
        for (channels, h, w, out) in [
            (1usize, 1usize, 1usize, 1usize),
            (8, 2, 2, 10),
            (64, 2, 2, 10),
            (5, 3, 70, 4),
        ] {
            let l = SnnLinear {
                weights: (0..out * channels)
                    .map(|_| lcg(&mut seed) as u8 as i8)
                    .collect(),
                q: QuantScale::new(7),
                bias: vec![0.0; out],
                weights_f: vec![0.0; out * channels],
                channels,
                in_h: h,
                in_w: w,
                out,
            };
            let mut got: Vec<i64> = (0..out).map(|o| o as i64 - 3).collect();
            let mut want = got.clone();
            for _ in 0..3 {
                let spikes = random_plane(channels, h, w, &mut seed);
                head_accumulate_int(&mut got, &l, &spikes);
                head_accumulate_by_spikes(&mut want, &l, &spikes);
                assert_eq!(got, want, "{channels}x{h}x{w} -> {out}");
            }
        }
    }

    /// A 1×1 conv whose channel planes are `per_ch` outputs long, with
    /// batch-norm coefficients that reach both rails.
    fn bn_conv(channels: usize, per_ch: usize, seed: &mut u64) -> SnnConv {
        let mut c = crate::sparse::tests::test_conv(1, channels, 1, 1, 1, 0, 0);
        c.geom.in_w = per_ch;
        let mut rail = |i: usize| match i % 5 {
            0 => i16::MIN,
            1 => i16::MAX,
            _ => lcg(seed) as u16 as i16,
        };
        c.g = (0..channels).map(|i| Q8_8::from_raw(rail(i))).collect();
        c.h = (0..channels).map(|i| rail(i + 2)).collect();
        c
    }

    #[test]
    fn bn_currents_match_the_per_output_formula() {
        // Channel planes shorter and longer than a vector, with psums and
        // coefficients at both rails, for the 16-bit psums and the input
        // layer's 32-bit ones.
        let mut seed = 23u64;
        let mut rows = Vec::new();
        let planes = [1usize, 2, 3, 4, 16, 63, 64, 256];
        let convs: Vec<SnnConv> = planes.iter().map(|&p| bn_conv(7, p, &mut seed)).collect();
        for (idx, (&per_ch, c)) in planes.iter().zip(&convs).enumerate() {
            let n = c.out_neurons();
            let ch = |i: usize| (c.g[i / per_ch], c.h[i / per_ch]);
            let psums: Vec<i16> = (0..n)
                .map(|i| match i % 7 {
                    0 => i16::MIN,
                    1 => i16::MAX,
                    _ => lcg(&mut seed) as u16 as i16,
                })
                .collect();
            let wide: Vec<i32> = (0..n)
                .map(|i| match i % 7 {
                    0 => i32::MIN,
                    1 => i32::MAX,
                    _ => lcg(&mut seed) as u32 as i32 >> (i % 17),
                })
                .collect();
            let (g, h) = bn_coefs(&mut rows, idx, c);
            let mut got = vec![0i16; n];
            bn_currents(&mut got, &psums, g, h, Q8_8::mul_int);
            let want: Vec<i16> = (0..n)
                .map(|i| add16(ch(i).0.mul_int(psums[i]), ch(i).1))
                .collect();
            assert_eq!(got, want, "plane {per_ch}");
            bn_currents(&mut got, &wide, g, h, Q8_8::mul_int_wide);
            let want: Vec<i16> = (0..n)
                .map(|i| add16(ch(i).0.mul_int_wide(wide[i]), ch(i).1))
                .collect();
            assert_eq!(got, want, "plane {per_ch}, 32-bit psums");
        }
        // Every conv built its rows once, and later calls build none.
        let built: Vec<usize> = rows.iter().map(|r| r.g.len()).collect();
        assert_eq!(built, [7, 14, 21, 28, 112, 441, 448, 1792]);
        let before = crate::scratch::scratch_growth();
        for (idx, c) in convs.iter().enumerate() {
            let _ = bn_coefs(&mut rows, idx, c);
        }
        assert_eq!(crate::scratch::scratch_growth(), before);
    }

    #[test]
    #[should_panic(expected = "at least one timestep")]
    fn zero_timesteps_rejected() {
        let spec = one_layer_spec(1.0, 1.0, 8);
        let net = convert(&spec, &ConvertOptions::default());
        let _ = IntRunner::new(&net).run(&Tensor::zeros(vec![1, 2, 2]), 0);
    }

    #[test]
    fn unreachable_threshold_is_bit_identical_to_fixed() {
        // An adaptive policy that can never fire exercises the chunked
        // traversal (window < T) and must reproduce the fixed run exactly.
        let spec = one_layer_spec(0.8, 1.0, 8);
        let net = convert(&spec, &ConvertOptions::default());
        let img = Tensor::from_vec(vec![1, 2, 2], vec![0.2, 0.5, 0.8, 0.95]);
        let fixed = IntRunner::new(&net).run(&img, 8);
        for window in [1, 2, 3, 5, 8, 13] {
            let policy = ExitPolicy::Margin {
                threshold: f32::INFINITY,
                window,
            };
            let out = IntRunner::new(&net).run_policy(&img, 8, 0, policy);
            assert_eq!(out.logits_per_t, fixed.logits_per_t, "window {window}");
            assert_eq!(out.stats, fixed.stats, "window {window}");
        }
    }

    #[test]
    fn adaptive_run_is_a_bit_exact_prefix_of_fixed() {
        let spec = one_layer_spec(1.0, 1.0, 8);
        let net = convert(&spec, &ConvertOptions::default());
        let img = Tensor::full(vec![1, 2, 2], 0.9);
        let fixed = IntRunner::new(&net).run(&img, 8);
        let policy = ExitPolicy::Margin {
            threshold: 0.01,
            window: 2,
        };
        let out = IntRunner::new(&net).run_policy(&img, 8, 0, policy);
        let t_done = out.logits_per_t.len();
        assert!(t_done < 8, "strongly-driven image should exit early");
        assert_eq!(out.logits_per_t[..], fixed.logits_per_t[..t_done]);
        assert_eq!(out.stats.timesteps, t_done as u64);
        assert_eq!(out.predicted(), fixed.predicted());
    }

    #[test]
    fn exit_respects_burn_in_boundary() {
        // With burn-in 3 the earliest legal exit is t1 = 4 even for a
        // trivially-confident threshold.
        let spec = one_layer_spec(1.0, 1.0, 8);
        let net = convert(&spec, &ConvertOptions::default());
        let img = Tensor::full(vec![1, 2, 2], 0.9);
        let policy = ExitPolicy::Margin {
            threshold: 0.0,
            window: 1,
        };
        let out = IntRunner::new(&net).run_policy(&img, 8, 3, policy);
        assert!(out.logits_per_t.len() >= 4, "exited inside burn-in");
    }

    #[test]
    fn entropy_policy_exits_on_peaked_logits() {
        let spec = one_layer_spec(1.0, 1.0, 8);
        let net = convert(&spec, &ConvertOptions::default());
        let img = Tensor::full(vec![1, 2, 2], 0.9);
        let policy = ExitPolicy::Entropy {
            threshold: 0.999,
            window: 1,
        };
        let out = IntRunner::new(&net).run_policy(&img, 8, 0, policy);
        assert!(out.logits_per_t.len() < 8);
    }
}

#[cfg(test)]
mod burn_in_tests {
    use super::*;
    use crate::convert::{convert, ConvertOptions};
    use sia_nn::{ActSpec, ConvSpec, LinearSpec, NetworkSpec, SpecItem};
    use sia_tensor::Conv2dGeom;

    fn net() -> crate::SnnNetwork {
        let geom = Conv2dGeom {
            in_channels: 1,
            out_channels: 1,
            in_h: 2,
            in_w: 2,
            kernel: 1,
            stride: 1,
            padding: 0,
        };
        let spec = NetworkSpec {
            name: "b".into(),
            input: (1, 2, 2),
            items: vec![
                SpecItem::Conv(ConvSpec {
                    geom,
                    weights: Tensor::full(vec![1, 1, 1, 1], 1.0),
                    bn: None,
                    act: Some(ActSpec {
                        levels: 8,
                        step: 1.0,
                    }),
                }),
                SpecItem::GlobalAvgPool,
                SpecItem::Linear(LinearSpec {
                    in_features: 1,
                    out_features: 2,
                    weights: Tensor::from_vec(vec![2, 1], vec![1.0, -1.0]),
                    bias: vec![0.0, 0.0],
                }),
            ],
        };
        convert(&spec, &ConvertOptions::default())
    }

    #[test]
    fn burn_in_zero_equals_plain_run() {
        let n = net();
        let img = Tensor::full(vec![1, 2, 2], 0.6);
        let a = IntRunner::new(&n).run(&img, 8);
        let b = IntRunner::new(&n).run_with(&img, 8, 0);
        assert_eq!(a.logits_per_t, b.logits_per_t);
    }

    #[test]
    fn burn_in_ignores_early_evidence() {
        // For a constant-rate layer-1 network the steady-state logits are the
        // same, but during the burn-in window logits must be bias-only.
        let n = net();
        let img = Tensor::full(vec![1, 2, 2], 0.6);
        let out = IntRunner::new(&n).run_with(&img, 8, 3);
        assert_eq!(out.logits_per_t[1], vec![0.0, 0.0]); // inside burn-in
        assert!(out.logits()[0] > 0.0); // evidence after burn-in
    }

    #[test]
    #[should_panic(expected = "must be below T")]
    fn burn_in_bounds_checked() {
        let n = net();
        let _ = FloatRunner::new(&n).run_with(&Tensor::zeros(vec![1, 2, 2]), 4, 4);
    }
}
