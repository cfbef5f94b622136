//! Timestep-driven SNN inference: the unified engine layer.
//!
//! One generic **timestep driver** ([`drive`]) owns everything every
//! executor used to duplicate — input encoding and first-layer scale
//! resolution, event-stream validation, precondition checking, the
//! layer × timestep traversal, [`SpikeStats`] accumulation and the
//! per-timestep readout — while the backends implement only their
//! genuinely distinct arithmetic behind the [`Engine`] trait:
//!
//! * [`FloatRunner`] — the float reference dynamics (`f32`, no saturation),
//! * [`IntRunner`] — the integer datapath (saturating 16-bit partial sums
//!   in a fixed tap order, Q8.8 batch-norm multiply, 16-bit membranes),
//! * `sia_accel::SiaMachine` — the same integer arithmetic plus
//!   cycle/memory/AXI accounting on the modelled hardware.
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
//! (tracked by [`crate::scratch::scratch_growth`]). Each conv layer runs the
//! event-driven scatter or the register-tiled dense kernel of
//! [`crate::sparse`], a choice each engine fixes once per layer from the
//! layer's geometry (and, where both kernels are candidates, a crossover
//! spike count); the integer runner's neuron epilogue then walks each
//! stage channel by channel and row by row, firing without divisions or
//! data-dependent branches ([`crate::neuron::fire_int`]).
//!
//! One run at `T` yields the entire accuracy-vs-timesteps curve up to `T`
//! (Figs. 7 and 9) and per-stage spike counts (Figs. 6 and 8).

use crate::encode::{encode_image, EventStream};
use crate::exit::{should_exit, ExitPolicy};
use crate::network::{ConvInput, SnnConv, SnnItem, SnnLinear, SnnNetwork};
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

/// Canonical tap order for partial-sum accumulation: input channels outer,
/// kernel rows, kernel columns inner — the row-by-row schedule of the PE
/// array (paper §III-A). Saturating arithmetic makes the order observable,
/// so the cycle-level machine (`sia-accel`) and the event-driven scatter
/// path ([`crate::sparse`]) share this exact definition; this byte-wise
/// loop is the reference they are proven against.
pub fn conv_psums_int(conv: &SnnConv, spikes: &[u8]) -> Vec<i16> {
    let g = &conv.geom;
    let (oh, ow) = g.out_hw();
    let mut psums = vec![0i16; g.out_channels * oh * ow];
    for co in 0..g.out_channels {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut acc = 0i16;
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
                            let sidx = (ci * g.in_h + iy as usize) * g.in_w + ix as usize;
                            if spikes[sidx] != 0 {
                                acc = acc_weight(acc, conv.weight(co, ci, ky, kx));
                            }
                        }
                    }
                }
                psums[(co * oh + oy) * ow + ox] = acc;
            }
        }
    }
    psums
}

/// Float-reference partial sums in weight-code units (no saturation) — the
/// byte-wise reference for the `f32` scatter path.
pub fn conv_psums_f32(conv: &SnnConv, spikes: &[u8]) -> Vec<f32> {
    let g = &conv.geom;
    let (oh, ow) = g.out_hw();
    let mut psums = vec![0.0f32; g.out_channels * oh * ow];
    for co in 0..g.out_channels {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut acc = 0.0f32;
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
                            let sidx = (ci * g.in_h + iy as usize) * g.in_w + ix as usize;
                            if spikes[sidx] != 0 {
                                acc += f32::from(conv.weight(co, ci, ky, kx));
                            }
                        }
                    }
                }
                psums[(co * oh + oy) * ow + ox] = acc;
            }
        }
    }
    psums
}

/// Dense (first-layer) partial sums: INT8 image codes × INT8 weights, 32-bit
/// accumulation (PS-side frame conversion). Shared with the cycle-level
/// machine, which runs this layer on the PS exactly as the prototype does.
pub fn conv_psums_dense(conv: &SnnConv, codes: &[i8]) -> Vec<i32> {
    let g = &conv.geom;
    let (oh, ow) = g.out_hw();
    let mut psums = vec![0i32; g.out_channels * oh * ow];
    for co in 0..g.out_channels {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut acc = 0i32;
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
                            let sidx = (ci * g.in_h + iy as usize) * g.in_w + ix as usize;
                            acc += i32::from(codes[sidx]) * i32::from(conv.weight(co, ci, ky, kx));
                        }
                    }
                }
                psums[(co * oh + oy) * ow + ox] = acc;
            }
        }
    }
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

/// Integer head readout: accumulated INT8 evidence scaled back to float
/// logits, time-averaged over the `t_done` post-burn-in timesteps. Shared
/// by the integer runner and the cycle-level machine.
#[must_use]
pub fn head_readout_int(head: &SnnLinear, acc: &[i64], t_done: usize) -> Vec<f32> {
    acc.iter()
        .zip(&head.bias)
        .map(|(&a, &b)| a as f32 * head.q.scale() / t_done as f32 + b)
        .collect()
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
/// observability counters and per-stage tap totals also live here so the
/// steady-state run allocates nothing. Engines keep one of these across
/// runs (via [`Engine::take_drive_scratch`]) so a warm run re-uses every
/// buffer.
#[derive(Debug, Default)]
pub struct DriveScratch {
    cur: Vec<SpikePlane>,
    nxt: Vec<SpikePlane>,
    skip: Vec<SpikePlane>,
    logits: Vec<f32>,
    spikes_per_t: Vec<u64>,
    saturated_per_t: Vec<u64>,
    taps_per_stage: Vec<(u64, u64)>,
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
#[derive(Clone, Copy)]
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
    let (names, sizes) = spiking_stage_sizes(engine.network());
    let kinds: Vec<ItemKind> = engine
        .network()
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
    let classes = engine.network().num_classes;
    let stage_count = names.len();
    let window = policy.chunk_window(timesteps);
    let mut arenas = engine.take_drive_scratch();
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
    let mut stats = SpikeStats::new(names, sizes);
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
        for (idx, kind) in kinds.iter().enumerate() {
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
    for idx in 0..kinds.len() {
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
// Integer backend
// ---------------------------------------------------------------------------

/// The aggregation core's batch-norm epilogue (paper Eq. 2) over one
/// stage: `dst[i] = add16(mul(G, psums[i]), H)`, channel by channel over
/// contiguous slices with each channel's `G` and `H` hoisted. `mul` is
/// [`Q8_8::mul_int`] for 16-bit psums, [`Q8_8::mul_int_wide`] for the
/// dense input layer's 32-bit ones.
fn bn_currents<P: Copy>(
    dst: &mut [i16],
    psums: &[P],
    g: &[Q8_8],
    h: &[i16],
    mul: impl Fn(Q8_8, P) -> i16,
) {
    let per_ch = psums.len() / g.len();
    for (((dst, p), &g), &h) in dst
        .chunks_exact_mut(per_ch)
        .zip(psums.chunks_exact(per_ch))
        .zip(g)
        .zip(h)
    {
        for (d, &p) in dst.iter_mut().zip(p) {
            *d = add16(mul(g, p), h);
        }
    }
}

/// The identity branch of a residual add: `dst[i] = add16(pending[i],
/// skip_add)` where skip spike `i` is set and `pending[i]` elsewhere
/// (`add16(x, 0) == x`), reading the skip plane a word at a time.
fn skip_currents(dst: &mut [i16], pending: &[i16], skip: &SpikePlane, skip_add: i16) {
    let w = skip.width().max(1);
    for ((drow, prow), words) in dst
        .chunks_exact_mut(w)
        .zip(pending.chunks_exact(w))
        .zip(skip.rows())
    {
        for ((d, p), &word) in drow.chunks_mut(64).zip(prow.chunks(64)).zip(words) {
            for (j, (d, &p)) in d.iter_mut().zip(p).enumerate() {
                *d = add16(p, skip_add & -i16::from((word >> j) & 1 == 1));
            }
        }
    }
}

/// Integer-datapath runner (the accelerator semantics).
#[derive(Debug)]
pub struct IntRunner<'a> {
    net: &'a SnnNetwork,
    membranes: Vec<Vec<i16>>,
    head_acc: Vec<i64>,
    /// Dense first-layer currents, constant across timesteps (cached at
    /// `t == 0`).
    input_currents: Vec<i16>,
    /// Flat per-timestep psum currents awaiting the closing `BlockAdd`
    /// (`run_timesteps` frames of `pending_len` each).
    pending: Vec<i16>,
    pending_len: usize,
    run_timesteps: usize,
    /// One stage's neuron currents, staged between the BN epilogue and
    /// the neuron step.
    currents: Vec<i16>,
    conv: ConvScratch,
    policy: KernelPolicy,
    arenas: DriveScratch,
}

impl<'a> IntRunner<'a> {
    /// Prepares runner state for `net`.
    #[must_use]
    pub fn new(net: &'a SnnNetwork) -> Self {
        let membranes = net
            .items
            .iter()
            .map(|it| match it {
                SnnItem::InputConv(c) | SnnItem::Conv(c) => vec![0i16; c.out_neurons()],
                SnnItem::BlockAdd(a) => vec![0i16; a.neurons()],
                _ => Vec::new(),
            })
            .collect();
        IntRunner {
            net,
            membranes,
            head_acc: vec![0; net.num_classes],
            input_currents: Vec::new(),
            pending: Vec::new(),
            pending_len: 0,
            run_timesteps: 0,
            currents: Vec::new(),
            conv: ConvScratch::new(),
            policy: KernelPolicy::Auto,
            arenas: DriveScratch::default(),
        }
    }

    /// Overrides the sparse-vs-dense kernel selection (bit-exact either
    /// way; used by equivalence tests and benches).
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

    /// Like [`IntRunner::run`] with readout burn-in (see [`drive`]).
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

    /// Like [`IntRunner::run_with`] under a confidence-gated exit policy
    /// (see [`drive_policy`]).
    ///
    /// # Panics
    ///
    /// Same conditions as [`IntRunner::run_with`].
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

impl Engine for IntRunner<'_> {
    type Extra = ();

    fn network(&self) -> &SnnNetwork {
        self.net
    }

    fn span_name(&self) -> &'static str {
        "snn.int_run"
    }

    fn emits_timestep_events(&self) -> bool {
        true
    }

    fn take_drive_scratch(&mut self) -> DriveScratch {
        std::mem::take(&mut self.arenas)
    }

    fn put_drive_scratch(&mut self, scratch: DriveScratch) {
        self.arenas = scratch;
    }

    fn begin_run(&mut self, timesteps: usize) {
        for (item, mem) in self.net.items.iter().zip(&mut self.membranes) {
            let theta = match item {
                SnnItem::InputConv(c) | SnnItem::Conv(c) => c.theta,
                SnnItem::BlockAdd(a) => a.theta,
                _ => continue,
            };
            // θ/2 pre-charge (optimal initial potential for QCFS conversion)
            mem.fill(theta / 2);
        }
        self.head_acc.fill(0);
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
            let psums = conv_psums_dense_into(c, codes, &mut self.conv);
            scratch_resize(&mut self.input_currents, psums.len(), 0);
            bn_currents(
                &mut self.input_currents,
                psums,
                &c.g,
                &c.h,
                Q8_8::mul_int_wide,
            );
        }
        let (oh, ow) = c.geom.out_hw();
        out.reset(c.geom.out_channels, oh, ow);
        fire_int(
            &mut self.membranes[idx],
            &self.input_currents,
            c.theta,
            c.mode,
            out,
        );
    }

    fn step_conv(&mut self, idx: usize, spikes: &SpikePlane, _t: usize, out: &mut SpikePlane) {
        let net = self.net;
        let SnnItem::Conv(c) = &net.items[idx] else {
            unreachable!("step_conv on a non-conv item")
        };
        let psums = conv_psums_int_plane(c, spikes, self.policy, &mut self.conv, idx);
        scratch_resize(&mut self.currents, psums.len(), 0);
        bn_currents(&mut self.currents, psums, &c.g, &c.h, Q8_8::mul_int);
        let (oh, ow) = c.geom.out_hw();
        out.reset(c.geom.out_channels, oh, ow);
        fire_int(
            &mut self.membranes[idx],
            &self.currents,
            c.theta,
            c.mode,
            out,
        );
    }

    fn step_conv_psum(&mut self, idx: usize, spikes: &SpikePlane, t: usize) {
        let net = self.net;
        let SnnItem::ConvPsum(c) = &net.items[idx] else {
            unreachable!("step_conv_psum on a non-psum item")
        };
        let psums = conv_psums_int_plane(c, spikes, self.policy, &mut self.conv, idx);
        // Differently-sized psum stages share this buffer; under the
        // chunked driver each stage revisits it every chunk (not only at
        // t == 0), so re-shape whenever the frame geometry changes. Earlier
        // frames are dead — the closing BlockAdd consumed them in-chunk.
        let needed = self.run_timesteps * psums.len();
        if psums.len() != self.pending_len || self.pending.len() != needed {
            self.pending_len = psums.len();
            scratch_resize(&mut self.pending, needed, 0);
        }
        let dst = &mut self.pending[t * self.pending_len..(t + 1) * self.pending_len];
        bn_currents(dst, psums, &c.g, &c.h, Q8_8::mul_int);
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
        assert_eq!(
            self.pending_len, skip_len,
            "residual shape mismatch (pending {}, skip {})",
            self.pending_len, skip_len
        );
        let pending = &self.pending[t * self.pending_len..(t + 1) * self.pending_len];
        scratch_resize(&mut self.currents, self.pending_len, 0);
        match &a.down {
            Some(d) => {
                let psums = conv_psums_int_plane(d, skip, self.policy, &mut self.conv, idx);
                bn_currents(&mut self.currents, psums, &d.g, &d.h, Q8_8::mul_int);
                for (cur, &p) in self.currents.iter_mut().zip(pending) {
                    *cur = add16(p, *cur);
                }
            }
            None => skip_currents(&mut self.currents, pending, skip, a.skip_add),
        }
        out.reset(a.channels, a.h, a.w);
        fire_int(
            &mut self.membranes[idx],
            &self.currents,
            a.theta,
            a.mode,
            out,
        );
    }

    fn head_accumulate(&mut self, idx: usize, spikes: &SpikePlane) {
        let net = self.net;
        let SnnItem::Head(l) = &net.items[idx] else {
            unreachable!("head_accumulate on a non-head item")
        };
        let per_ch = l.in_h * l.in_w;
        for (o, acc) in self.head_acc.iter_mut().enumerate() {
            let mut a = 0i64;
            spikes.for_each_set_linear(|i| {
                a += i64::from(l.weights[o * l.channels + i / per_ch]);
            });
            *acc += a;
        }
    }

    fn head_readout_into(&self, idx: usize, t_eff: usize, out: &mut [f32]) {
        let SnnItem::Head(l) = &self.net.items[idx] else {
            unreachable!("head_readout on a non-head item")
        };
        for ((o, &a), &b) in out.iter_mut().zip(&self.head_acc).zip(&l.bias) {
            *o = a as f32 * l.q.scale() / t_eff as f32 + b;
        }
    }

    fn saturated_membranes(&self, idx: usize) -> u64 {
        self.membranes[idx]
            .iter()
            .filter(|&&m| m == i16::MAX || m == i16::MIN)
            .count() as u64
    }

    fn stage_taps(&mut self, _idx: usize) -> Option<(u64, u64)> {
        Some(self.conv.take_taps())
    }

    fn finish_run(&mut self) -> Self::Extra {}
}

// ---------------------------------------------------------------------------
// Float-reference backend
// ---------------------------------------------------------------------------

/// Float-reference runner: identical topology and dynamics, `f32`
/// arithmetic, no saturation or coefficient rounding.
#[derive(Debug)]
pub struct FloatRunner<'a> {
    net: &'a SnnNetwork,
    membranes: Vec<Vec<f32>>,
    head_acc: Vec<f32>,
    input_currents: Vec<f32>,
    pending: Vec<f32>,
    pending_len: usize,
    run_timesteps: usize,
    conv: ConvScratch,
    policy: KernelPolicy,
    arenas: DriveScratch,
}

impl<'a> FloatRunner<'a> {
    /// Prepares runner state for `net`.
    #[must_use]
    pub fn new(net: &'a SnnNetwork) -> Self {
        let membranes = net
            .items
            .iter()
            .map(|it| match it {
                SnnItem::InputConv(c) | SnnItem::Conv(c) => vec![0.0f32; c.out_neurons()],
                SnnItem::BlockAdd(a) => vec![0.0f32; a.neurons()],
                _ => Vec::new(),
            })
            .collect();
        FloatRunner {
            net,
            membranes,
            head_acc: vec![0.0; net.num_classes],
            input_currents: Vec::new(),
            pending: Vec::new(),
            pending_len: 0,
            run_timesteps: 0,
            conv: ConvScratch::new(),
            policy: KernelPolicy::Auto,
            arenas: DriveScratch::default(),
        }
    }

    /// Overrides the sparse-vs-dense kernel selection (exact either way —
    /// the scatter path preserves `f32` addition order).
    pub fn set_kernel_policy(&mut self, policy: KernelPolicy) {
        self.policy = policy;
    }

    /// Runs `timesteps` of reference inference on one image.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`IntRunner::run`].
    #[must_use]
    pub fn run(&mut self, image: &Tensor, timesteps: usize) -> SnnOutput {
        self.run_with(image, timesteps, 0)
    }

    /// Float-reference twin of [`IntRunner::run_with`] (readout burn-in).
    ///
    /// # Panics
    ///
    /// Panics if `timesteps == 0` or `burn_in >= timesteps`.
    #[must_use]
    pub fn run_with(&mut self, image: &Tensor, timesteps: usize, burn_in: usize) -> SnnOutput {
        drive(self, EngineInput::Image(image), timesteps, burn_in).0
    }

    /// Float-reference twin of [`IntRunner::run_events`].
    ///
    /// # Panics
    ///
    /// Same conditions as [`IntRunner::run_events`].
    #[must_use]
    pub fn run_events(
        &mut self,
        events: &EventStream,
        timesteps: usize,
        burn_in: usize,
    ) -> SnnOutput {
        drive(self, EngineInput::Events(events), timesteps, burn_in).0
    }

    /// Float-reference twin of [`IntRunner::run_policy`].
    ///
    /// # Panics
    ///
    /// Same conditions as [`FloatRunner::run_with`].
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

impl Engine for FloatRunner<'_> {
    type Extra = ();

    fn network(&self) -> &SnnNetwork {
        self.net
    }

    fn span_name(&self) -> &'static str {
        "snn.float_run"
    }

    fn take_drive_scratch(&mut self) -> DriveScratch {
        std::mem::take(&mut self.arenas)
    }

    fn put_drive_scratch(&mut self, scratch: DriveScratch) {
        self.arenas = scratch;
    }

    fn begin_run(&mut self, timesteps: usize) {
        for (item, mem) in self.net.items.iter().zip(&mut self.membranes) {
            let step = match item {
                SnnItem::InputConv(c) | SnnItem::Conv(c) => c.step,
                SnnItem::BlockAdd(a) => a.step,
                _ => continue,
            };
            mem.fill(step / 2.0);
        }
        self.head_acc.fill(0.0);
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
            let psums = conv_psums_dense_f32_into(c, codes, &mut self.conv);
            let per_ch = psums.len() / c.geom.out_channels;
            scratch_resize(&mut self.input_currents, psums.len(), 0.0);
            for (i, &p) in psums.iter().enumerate() {
                self.input_currents[i] = c.gf[i / per_ch] * p + c.hf[i / per_ch];
            }
        }
        let (oh, ow) = c.geom.out_hw();
        out.reset(c.geom.out_channels, oh, ow);
        let mem = &mut self.membranes[idx];
        for (i, &cur) in self.input_currents.iter().enumerate() {
            if step_f32(&mut mem[i], cur, c.step, c.mode) {
                out.set_linear(i);
            }
        }
    }

    fn step_conv(&mut self, idx: usize, spikes: &SpikePlane, _t: usize, out: &mut SpikePlane) {
        let net = self.net;
        let SnnItem::Conv(c) = &net.items[idx] else {
            unreachable!("step_conv on a non-conv item")
        };
        let psums = conv_psums_f32_plane(c, spikes, self.policy, &mut self.conv, idx);
        let per_ch = psums.len() / c.geom.out_channels;
        let (oh, ow) = c.geom.out_hw();
        out.reset(c.geom.out_channels, oh, ow);
        let mem = &mut self.membranes[idx];
        for (i, &p) in psums.iter().enumerate() {
            let cur = c.gf[i / per_ch] * p + c.hf[i / per_ch];
            if step_f32(&mut mem[i], cur, c.step, c.mode) {
                out.set_linear(i);
            }
        }
    }

    fn step_conv_psum(&mut self, idx: usize, spikes: &SpikePlane, t: usize) {
        let net = self.net;
        let SnnItem::ConvPsum(c) = &net.items[idx] else {
            unreachable!("step_conv_psum on a non-psum item")
        };
        let psums = conv_psums_f32_plane(c, spikes, self.policy, &mut self.conv, idx);
        let per_ch = psums.len() / c.geom.out_channels;
        // Same chunk-revisit re-shape as the integer runner (see there).
        let needed = self.run_timesteps * psums.len();
        if psums.len() != self.pending_len || self.pending.len() != needed {
            self.pending_len = psums.len();
            scratch_resize(&mut self.pending, needed, 0.0);
        }
        let dst = &mut self.pending[t * self.pending_len..(t + 1) * self.pending_len];
        for (i, &p) in psums.iter().enumerate() {
            dst[i] = c.gf[i / per_ch] * p + c.hf[i / per_ch];
        }
    }

    fn step_block_add(&mut self, idx: usize, skip: &SpikePlane, t: usize, out: &mut SpikePlane) {
        let net = self.net;
        let SnnItem::BlockAdd(a) = &net.items[idx] else {
            unreachable!("step_block_add on a non-add item")
        };
        out.reset(a.channels, a.h, a.w);
        match &a.down {
            Some(d) => {
                let psums = conv_psums_f32_plane(d, skip, self.policy, &mut self.conv, idx);
                assert_eq!(
                    self.pending_len,
                    psums.len(),
                    "residual shape mismatch (pending {}, skip {})",
                    self.pending_len,
                    psums.len()
                );
                let per_ch = psums.len() / d.geom.out_channels;
                let pending = &self.pending[t * self.pending_len..(t + 1) * self.pending_len];
                let mem = &mut self.membranes[idx];
                for (i, &p) in psums.iter().enumerate() {
                    let skip_cur = d.gf[i / per_ch] * p + d.hf[i / per_ch];
                    let cur = pending[i] + skip_cur;
                    if step_f32(&mut mem[i], cur, a.step, a.mode) {
                        out.set_linear(i);
                    }
                }
            }
            None => {
                assert_eq!(
                    self.pending_len,
                    skip.len(),
                    "residual shape mismatch (pending {}, skip {})",
                    self.pending_len,
                    skip.len()
                );
                let pending = &self.pending[t * self.pending_len..(t + 1) * self.pending_len];
                let mem = &mut self.membranes[idx];
                for (i, &pend) in pending.iter().enumerate() {
                    let skip_cur = if skip.bit_linear(i) {
                        a.skip_value
                    } else {
                        0.0
                    };
                    let cur = pend + skip_cur;
                    if step_f32(&mut mem[i], cur, a.step, a.mode) {
                        out.set_linear(i);
                    }
                }
            }
        }
    }

    fn head_accumulate(&mut self, idx: usize, spikes: &SpikePlane) {
        let net = self.net;
        let SnnItem::Head(l) = &net.items[idx] else {
            unreachable!("head_accumulate on a non-head item")
        };
        let per_ch = l.in_h * l.in_w;
        for (o, acc) in self.head_acc.iter_mut().enumerate() {
            // bit iteration visits linear indices ascending — the exact f32
            // addition order of the byte-wise loop this replaced
            let mut a = 0.0f32;
            spikes.for_each_set_linear(|i| {
                a += l.weights_f[o * l.channels + i / per_ch];
            });
            *acc += a;
        }
    }

    fn head_readout_into(&self, idx: usize, t_eff: usize, out: &mut [f32]) {
        let SnnItem::Head(l) = &self.net.items[idx] else {
            unreachable!("head_readout on a non-head item")
        };
        for ((o, &a), &b) in out.iter_mut().zip(&self.head_acc).zip(&l.bias) {
            *o = a / t_eff as f32 + b;
        }
    }

    fn stage_taps(&mut self, _idx: usize) -> Option<(u64, u64)> {
        Some(self.conv.take_taps())
    }

    fn finish_run(&mut self) -> Self::Extra {}
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

    #[test]
    fn forced_kernel_policies_agree_end_to_end() {
        let spec = one_layer_spec(0.8, 1.0, 8);
        let net = convert(&spec, &ConvertOptions::default());
        let img = Tensor::from_vec(vec![1, 2, 2], vec![0.2, 0.5, 0.8, 0.95]);
        let mut dense = IntRunner::new(&net);
        dense.set_kernel_policy(KernelPolicy::ForceDense);
        let mut sparse = IntRunner::new(&net);
        sparse.set_kernel_policy(KernelPolicy::ForceSparse);
        let a = dense.run(&img, 8);
        let b = sparse.run(&img, 8);
        assert_eq!(a.logits_per_t, b.logits_per_t);
        assert_eq!(a.stats.spikes, b.stats.spikes);
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
