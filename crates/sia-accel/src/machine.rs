//! The top-level SIA machine: executes a compiled [`Program`] layer by
//! layer (the sequential flow of Fig. 5), producing **bit-exact** spike
//! trains against `sia-snn`'s integer runner together with the cycle
//! accounting behind Tables I, II and IV.
//!
//! The machine is a backend of the shared [`sia_snn::Engine`] layer: the
//! timestep × layer traversal, input encoding, validation and spike
//! statistics all live in [`sia_snn::drive`], so agreement with the
//! functional runners is structural. A PL conv takes its partial sums from
//! the shared integer kernels ([`conv_psums_int_plane`], pinned to
//! `sia_snn::conv_psums_int`) and its cycles from one segment count over
//! the input plane ([`crate::spiking_core::layer_passes`]); the machine
//! adds the rest of the hardware — the controller's register protocol per
//! kernel group, the aggregation epilogue (batch-norm `y·G + H`, then the
//! IF/LIF step) over ping-pong membrane memory — and the cycle/traffic
//! accounting.
//!
//! Everything network-static comes from the [`Program`], once: each
//! spiking item's U1/U2 banks are built with the machine and only
//! precharged per run, each PL conv runs the kernel groups its
//! [`crate::LayerProgram`] lists, and batch-norm reads the conv's own
//! `G`/`H`.

use crate::compiler::Program;
use crate::config::SiaConfig;
use crate::controller::Controller;
use crate::memory::PingPongMembranes;
use crate::report::{CycleReport, LayerCycles};
use crate::spiking_core::layer_passes;
use sia_fixed::sat::add16;
use sia_snn::encode::EventStream;
use sia_snn::neuron::step_int;
use sia_snn::scratch::scratch_resize;
use sia_snn::spikeplane::SpikePlane;
use sia_snn::{
    conv_psums_dense_into, conv_psums_int_plane, drive, drive_policy, ConvScratch, DriveScratch,
    Engine, EngineInput, ExitPolicy, KernelPolicy, SnnConv, SnnItem, SnnNetwork, SnnOutput,
    SpikeStats,
};
use sia_telemetry::Value;
use sia_tensor::Tensor;
use std::sync::Arc;

/// Result of one machine inference.
#[derive(Clone, Debug)]
pub struct MachineRun {
    /// PS-side readout after every timestep (same convention as
    /// [`sia_snn::SnnOutput`]).
    pub logits_per_t: Vec<Vec<f32>>,
    /// Spike statistics, structured identically to the functional runner's.
    pub stats: SpikeStats,
    /// Cycle/traffic accounting.
    pub report: CycleReport,
}

impl From<(SnnOutput, CycleReport)> for MachineRun {
    fn from((out, report): (SnnOutput, CycleReport)) -> Self {
        MachineRun {
            logits_per_t: out.logits_per_t,
            stats: out.stats,
            report,
        }
    }
}

impl MachineRun {
    /// Predicted class at the final timestep.
    ///
    /// # Panics
    ///
    /// Panics on a zero-timestep run.
    #[must_use]
    pub fn predicted(&self) -> usize {
        let logits = self.logits_per_t.last().expect("zero-timestep run");
        let mut best = 0;
        for (i, &v) in logits.iter().enumerate() {
            if v > logits[best] {
                best = i;
            }
        }
        best
    }
}

/// The spiking unit of an item with membranes — input conv, spiking conv,
/// residual join: its threshold θ and neuron count.
fn spiking_unit(item: &SnnItem) -> Option<(i16, usize)> {
    match item {
        SnnItem::InputConv(c) | SnnItem::Conv(c) => Some((c.theta, c.out_neurons())),
        SnnItem::BlockAdd(a) => Some((a.theta, a.neurons())),
        _ => None,
    }
}

/// The accelerator executor.
#[derive(Debug)]
pub struct SiaMachine {
    /// Shared by every machine one factory builds.
    program: Arc<Program>,
    config: SiaConfig,
    controller: Controller,
    /// The U1/U2 membrane banks of every spiking item, sized to the layer
    /// when the machine is built and precharged by `begin_item`; `None`
    /// for items without membranes (a psum stage's currents bypass them).
    membranes: Vec<Option<PingPongMembranes>>,
    // per-run state, reset by `begin_run`
    /// One accounting row per program item, pushed by `begin_item` at the
    /// run's first chunk and closed by `end_item` after the traversal.
    report: CycleReport,
    /// Flat per-timestep psum currents awaiting the closing `BlockAdd`
    /// (`run_timesteps` frames of `pending_len` each).
    pending: Vec<i16>,
    pending_len: usize,
    /// Dense first-layer currents, constant across timesteps.
    input_currents: Vec<i16>,
    head_acc: Vec<i64>,
    run_timesteps: usize,
    // reusable scratch, retained across runs (zero-allocation hot loop)
    conv: ConvScratch,
    mems: Vec<i16>,
    residual: Vec<i16>,
    arenas: DriveScratch,
    /// PE kernel-row segments `(processed, skipped)` since the last
    /// `stage_taps` — psum-stage segments are reported by the closing
    /// `BlockAdd`, matching the functional runners' tap attribution.
    seg_taps: (u64, u64),
    /// Psum kernel policy of every conv the machine runs.
    policy: KernelPolicy,
}

impl SiaMachine {
    /// Builds a machine for a compiled program, owned or shared.
    #[must_use]
    pub fn new(program: impl Into<Arc<Program>>, config: SiaConfig) -> Self {
        let program = program.into();
        // One self-describing configuration event per machine so a metrics
        // JSONL file carries everything `sia report` needs to derive the
        // roofline (PE-array peak + Fig. 5 memory/AXI budget).
        sia_telemetry::emit(
            "accel.config",
            &[
                ("pe_rows", Value::from(config.pe_rows)),
                ("pe_cols", Value::from(config.pe_cols)),
                ("clock_hz", Value::from(config.clock_hz)),
                ("taps_per_cycle", Value::from(config.taps_per_cycle)),
                ("ops_per_pe_cycle", Value::from(config.ops_per_pe_cycle)),
                (
                    "dma_bytes_per_cycle",
                    Value::from(config.dma_bytes_per_cycle),
                ),
                (
                    "mmio_cycles_per_word",
                    Value::from(config.mmio_cycles_per_word),
                ),
                ("weight_mem_bytes", Value::from(config.weight_mem_bytes)),
                ("membrane_mem_bytes", Value::from(config.membrane_mem_bytes)),
                ("output_mem_bytes", Value::from(config.output_mem_bytes)),
                ("residual_mem_bytes", Value::from(config.residual_mem_bytes)),
                ("spike_in_mem_bytes", Value::from(config.spike_in_mem_bytes)),
                (
                    "layer_overhead_cycles",
                    Value::from(config.layer_overhead_cycles),
                ),
            ],
        );
        let membranes = program
            .network
            .items
            .iter()
            .map(|item| spiking_unit(item).map(|(_, neurons)| PingPongMembranes::new(neurons * 4)))
            .collect();
        SiaMachine {
            program,
            config,
            controller: Controller::new(),
            membranes,
            report: CycleReport::default(),
            pending: Vec::new(),
            pending_len: 0,
            input_currents: Vec::new(),
            head_acc: Vec::new(),
            run_timesteps: 0,
            conv: ConvScratch::new(),
            mems: Vec::new(),
            residual: Vec::new(),
            arenas: DriveScratch::default(),
            seg_taps: (0, 0),
            policy: KernelPolicy::Auto,
        }
    }

    /// Selects the psum kernel policy of every conv the machine runs — the
    /// PL convs and the PS-side downsample convs — the same per-layer
    /// scatter/tiled decision the functional runners make (see
    /// [`sia_snn::KernelPolicy`]). The kernels are bit-exact and the
    /// segment count reads only the input plane, so the policy moves host
    /// time, never results or cycle counts.
    pub fn set_kernel_policy(&mut self, policy: KernelPolicy) {
        self.policy = policy;
    }

    /// Layer passes started since construction (controller status).
    #[must_use]
    pub fn layers_started(&self) -> u64 {
        self.controller.layers_started
    }

    /// The program being executed.
    #[must_use]
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Runs a `timesteps`-step inference on one `C×H×W` image.
    ///
    /// # Panics
    ///
    /// Panics if `timesteps == 0` or the network does not start with an
    /// input conv.
    #[must_use]
    pub fn run(&mut self, image: &Tensor, timesteps: usize) -> MachineRun {
        self.run_with(image, timesteps, 0)
    }

    /// [`SiaMachine::run`] with readout burn-in (see
    /// [`sia_snn::IntRunner::run_with`]).
    ///
    /// # Panics
    ///
    /// Panics if `timesteps == 0` or `burn_in >= timesteps`.
    #[must_use]
    pub fn run_with(&mut self, image: &Tensor, timesteps: usize, burn_in: usize) -> MachineRun {
        drive(self, EngineInput::Image(image), timesteps, burn_in).into()
    }

    /// Runs on a DVS-style event stream (paper §IV: event-driven data
    /// transferred directly to the SIA; the first layer executes on the PE
    /// array like any other spiking convolution).
    ///
    /// # Panics
    ///
    /// Panics if the network was converted for dense input, the stream is
    /// shorter than `timesteps`, or `burn_in >= timesteps`.
    #[must_use]
    pub fn run_events(
        &mut self,
        events: &EventStream,
        timesteps: usize,
        burn_in: usize,
    ) -> MachineRun {
        drive(self, EngineInput::Events(events), timesteps, burn_in).into()
    }

    /// [`SiaMachine::run_with`] under a confidence-gated exit policy (see
    /// [`sia_snn::drive_policy`]): exited images cost proportionally fewer
    /// modelled cycles, so the report prices the *real* hardware saving.
    ///
    /// # Panics
    ///
    /// Panics if `timesteps == 0` or `burn_in >= timesteps`.
    #[must_use]
    pub fn run_policy(
        &mut self,
        image: &Tensor,
        timesteps: usize,
        burn_in: usize,
        policy: ExitPolicy,
    ) -> MachineRun {
        drive_policy(self, EngineInput::Image(image), timesteps, burn_in, policy).into()
    }
}

/// Where a PL conv timestep delivers its result: spikes into a packed
/// plane through the layer's membrane banks (spiking stage) or
/// batch-normed currents into a pending-psum frame (psum stage).
enum PlOut<'a> {
    Spikes(&'a mut SpikePlane, &'a mut PingPongMembranes),
    Currents(&'a mut [i16]),
}

/// The machine state one PL conv timestep works with: configuration, the
/// controller, the layer's kernel groups and accounting row, and the
/// reusable scratch buffers (bundled so the pass sequence stays a free
/// function without an unwieldy parameter list).
struct PlConvCtx<'a> {
    cfg: &'a SiaConfig,
    controller: &'a mut Controller,
    /// Kernel groups `(start_channel, size)` — §III-B: output channels are
    /// processed in groups of at most `pe_count`.
    groups: &'a [(usize, usize)],
    cycles: &'a mut LayerCycles,
    conv: &'a mut ConvScratch,
    policy: KernelPolicy,
    mems: &'a mut Vec<i16>,
    taps: &'a mut (u64, u64),
}

/// One PE-array pass sequence for one timestep of PL conv layer `idx`: the
/// PS programs the register file per kernel group, the controller
/// validates and starts the pass, the cores run, aggregation spikes (or
/// exports currents for a psum stage). Works entirely on the bit-packed
/// input plane and the context's scratch buffers — the warm timestep loop
/// allocates nothing.
fn pl_conv_timestep(
    c: &SnnConv,
    idx: usize,
    ctx: &mut PlConvCtx<'_>,
    plane: &SpikePlane,
    timesteps: usize,
    mut out: PlOut<'_>,
) {
    let (oh, ow) = c.geom.out_hw();
    let per_ch = oh * ow;
    let cfg = ctx.cfg;
    // the aggregation core's batch norm `y·G + H` of output channel `ch`
    let bn = |p: i16, ch: usize| add16(c.g[ch].mul_int(p), c.h[ch]);
    if let PlOut::Spikes(o, _) = &mut out {
        o.reset(c.geom.out_channels, oh, ow);
    }
    // every kernel group's psums, and the price of every group's pass
    let psums = conv_psums_int_plane(c, plane, ctx.policy, ctx.conv, idx);
    let pass = layer_passes(&c.geom, plane, ctx.groups, cfg);
    let cycles = &mut *ctx.cycles;
    cycles.compute_cycles += pass.cycles;
    cycles.active_pe_cycles += pass.active_pe_cycles;
    cycles.ops += pass.ops;
    cycles.nominal_ops += pass.nominal_ops;
    ctx.taps.0 += pass.processed_segments;
    ctx.taps.1 += pass.skipped_segments;
    sia_telemetry::counter!("accel.pe.active_cycles", pass.active_pe_cycles);
    sia_telemetry::counter!("accel.pe.segments_processed", pass.processed_segments);
    sia_telemetry::counter!("accel.pe.segments_skipped", pass.skipped_segments);
    for &(start, size) in ctx.groups {
        // §III-C: the PS programs the register file and starts the pass; the
        // controller validates the image before the cores run. A compiled
        // program can never produce a bad image.
        ctx.controller
            .program_layer(&c.geom, c.theta, c.mode, timesteps, start, size);
        ctx.controller
            .start(cfg.pe_count())
            .expect("compiled programs produce valid register images");
        ctx.controller.finish(); // per-pass done interrupt
        let group = &psums[start * per_ch..(start + size) * per_ch];
        match &mut out {
            PlOut::Spikes(o, mem) => {
                scratch_resize(ctx.mems, size * per_ch, 0);
                for (j, m) in ctx.mems.iter_mut().enumerate() {
                    *m = mem.read(start * per_ch + j);
                }
                // aggregation tile (BN + IF/LIF), overlapped with the
                // spiking core except the pipeline fill priced above
                for (j, (&p, u)) in group.iter().zip(ctx.mems.iter_mut()).enumerate() {
                    if step_int(u, bn(p, start + j / per_ch), c.theta, c.mode) {
                        o.set_linear(start * per_ch + j);
                        cycles.spikes += 1;
                    }
                }
                for (j, &u) in ctx.mems.iter().enumerate() {
                    mem.write(start * per_ch + j, u);
                }
            }
            PlOut::Currents(o) => {
                for (j, &p) in group.iter().enumerate() {
                    o[start * per_ch + j] = bn(p, start + j / per_ch);
                }
            }
        }
    }
    // the stage reports PE segments, not the kernel's own tap accounting
    let _ = ctx.conv.take_taps();
    if let PlOut::Spikes(_, mem) = out {
        mem.toggle();
        sia_telemetry::counter!("accel.pingpong.switches", 1);
    }
}

impl Engine for SiaMachine {
    type Extra = CycleReport;

    fn network(&self) -> &SnnNetwork {
        &self.program.network
    }

    fn span_name(&self) -> &'static str {
        "accel.run"
    }

    fn take_drive_scratch(&mut self) -> DriveScratch {
        std::mem::take(&mut self.arenas)
    }

    fn put_drive_scratch(&mut self, scratch: DriveScratch) {
        self.arenas = scratch;
    }

    fn begin_run(&mut self, timesteps: usize) {
        self.report = CycleReport::for_config(&self.config);
        self.pending.clear();
        self.pending_len = 0;
        self.input_currents.clear();
        self.head_acc.clear();
        self.run_timesteps = timesteps;
        self.seg_taps = (0, 0);
    }

    fn begin_item(&mut self, idx: usize, _timesteps: usize) {
        let lp = &self.program.layers[idx];
        let cfg = &self.config;
        let item = &self.program.network.items[idx];
        let mut cycles = LayerCycles {
            name: lp.name.clone(),
            transfer_cycles: lp.traffic.cycles(cfg),
            overhead_cycles: cfg.layer_overhead_cycles,
            overlapped: lp.on_pl,
            ..LayerCycles::default()
        };
        match item {
            SnnItem::InputConv(c) => {
                // dense frame conversion runs on the PS once per image
                cycles.compute_cycles += (c.geom.macs() as f64 * cfg.ps_cycles_per_mac) as u64;
            }
            SnnItem::MaxPoolOr { channels, h, w } => {
                // one OR gate per output per timestep, fully parallel in
                // the PL: a handful of cycles, dominated by streaming
                cycles.compute_cycles += (channels * h * w / 4) as u64 / 16;
                cycles.overhead_cycles = 0;
            }
            SnnItem::Head(l) => {
                // driver-paced; per-timestep PS compute is priced in
                // `end_item`, once the executed timestep count (early
                // exit!) is known
                cycles.overlapped = false;
                scratch_resize(&mut self.head_acc, l.out, 0);
            }
            SnnItem::BlockStart => cycles.overhead_cycles = 0,
            SnnItem::Conv(_) | SnnItem::ConvPsum(_) | SnnItem::BlockAdd(_) => {}
        }
        if let Some((theta, neurons)) = spiking_unit(item) {
            let mem = self.membranes[idx].as_mut().expect("`new` built the banks");
            mem.precharge(theta / 2, neurons);
        }
        debug_assert_eq!(self.report.layers.len(), idx, "items begin in order");
        self.report.layers.push(cycles);
    }

    fn end_item(&mut self, idx: usize, executed: usize) {
        let lp = &self.program.layers[idx];
        let cycles = &mut self.report.layers[idx];
        if let SnnItem::Head(l) = &self.program.network.items[idx] {
            // one INT8 GEMV over the spike accumulators per executed
            // timestep — an early exit skips the remaining readouts
            cycles.compute_cycles += ((l.out * l.channels * l.in_h * l.in_w) as f64
                * self.config.ps_cycles_per_mac
                * executed as f64) as u64;
        }
        // spiking-unit count of the stage, for spike-density attribution
        let neurons = match &self.program.network.items[idx] {
            SnnItem::InputConv(c) | SnnItem::Conv(c) | SnnItem::ConvPsum(c) => c.out_neurons(),
            SnnItem::BlockAdd(a) => a.neurons(),
            SnnItem::MaxPoolOr { channels, h, w } => channels * h * w / 4,
            SnnItem::Head(l) => l.out,
            SnnItem::BlockStart => 0,
        };
        // live counters, reconciled against the CycleReport totals by the
        // telemetry integration tests
        sia_telemetry::counter!("accel.layers", 1);
        sia_telemetry::counter!("accel.compute_cycles", cycles.compute_cycles);
        sia_telemetry::counter!("accel.transfer_cycles", cycles.transfer_cycles);
        sia_telemetry::counter!("accel.total_cycles", cycles.total_cycles());
        sia_telemetry::counter!("accel.spikes", cycles.spikes);
        sia_telemetry::counter!("accel.ops", cycles.ops);
        sia_telemetry::counter!("accel.nominal_ops", cycles.nominal_ops);
        sia_telemetry::counter!("accel.axi.stream_bytes", lp.traffic.stream_bytes() as u64);
        sia_telemetry::counter!(
            "accel.axi.mmio_words",
            (lp.traffic.config_words + lp.traffic.mmio_data_words) as u64
        );
        sia_telemetry::emit(
            "accel.layer",
            &[
                ("name", Value::from(cycles.name.as_str())),
                ("compute_cycles", Value::from(cycles.compute_cycles)),
                ("transfer_cycles", Value::from(cycles.transfer_cycles)),
                ("overhead_cycles", Value::from(cycles.overhead_cycles)),
                ("total_cycles", Value::from(cycles.total_cycles())),
                ("overlapped", Value::from(cycles.overlapped)),
                ("spikes", Value::from(cycles.spikes)),
                ("ops", Value::from(cycles.ops)),
                ("nominal_ops", Value::from(cycles.nominal_ops)),
                ("active_pe_cycles", Value::from(cycles.active_pe_cycles)),
                ("neurons", Value::from(neurons)),
                ("timesteps", Value::from(executed)),
                ("stream_bytes", Value::from(lp.traffic.stream_bytes())),
                (
                    "mmio_words",
                    Value::from(lp.traffic.config_words + lp.traffic.mmio_data_words),
                ),
            ],
        );
    }

    fn step_input_conv(&mut self, idx: usize, codes: &[i8], t: usize, out: &mut SpikePlane) {
        if t == 0 {
            let SnnItem::InputConv(c) = &self.program.network.items[idx] else {
                unreachable!("step_input_conv on a non-input item")
            };
            let psums = conv_psums_dense_into(c, codes, &mut self.conv);
            let per_ch = psums.len() / c.geom.out_channels;
            scratch_resize(&mut self.input_currents, psums.len(), 0);
            for (i, &p) in psums.iter().enumerate() {
                self.input_currents[i] = add16(c.g[i / per_ch].mul_int_wide(p), c.h[i / per_ch]);
            }
        }
        let SiaMachine {
            program,
            membranes,
            report,
            input_currents,
            ..
        } = self;
        let SnnItem::InputConv(c) = &program.network.items[idx] else {
            unreachable!("step_input_conv on a non-input item")
        };
        let cycles = &mut report.layers[idx];
        let mem = membranes[idx].as_mut().expect("input conv has membranes");
        let (oh, ow) = c.geom.out_hw();
        out.reset(c.geom.out_channels, oh, ow);
        for (i, &cur) in input_currents.iter().enumerate() {
            let mut u = mem.read(i);
            if step_int(&mut u, cur, c.theta, c.mode) {
                out.set_linear(i);
                cycles.spikes += 1;
            }
            mem.write(i, u);
        }
        mem.toggle();
        sia_telemetry::counter!("accel.pingpong.switches", 1);
        cycles.compute_cycles += input_currents.len() as u64;
    }

    fn step_conv(&mut self, idx: usize, spikes: &SpikePlane, _t: usize, out: &mut SpikePlane) {
        let SiaMachine {
            program,
            config,
            controller,
            membranes,
            report,
            run_timesteps,
            conv,
            mems,
            seg_taps,
            policy,
            ..
        } = self;
        let SnnItem::Conv(c) = &program.network.items[idx] else {
            unreachable!("step_conv on a non-conv item")
        };
        let mem = membranes[idx].as_mut().expect("spiking conv has membranes");
        let dst = PlOut::Spikes(out, mem);
        let mut ctx = PlConvCtx {
            cfg: config,
            controller,
            groups: &program.layers[idx].kernel_groups,
            cycles: &mut report.layers[idx],
            conv,
            policy: *policy,
            mems,
            taps: seg_taps,
        };
        pl_conv_timestep(c, idx, &mut ctx, spikes, *run_timesteps, dst);
    }

    fn step_conv_psum(&mut self, idx: usize, spikes: &SpikePlane, t: usize) {
        let SiaMachine {
            program,
            config,
            controller,
            report,
            pending,
            pending_len,
            run_timesteps,
            conv,
            mems,
            seg_taps,
            policy,
            ..
        } = self;
        let SnnItem::ConvPsum(c) = &program.network.items[idx] else {
            unreachable!("step_conv_psum on a non-psum item")
        };
        // Differently-sized psum stages share this buffer; under the
        // chunked driver each stage revisits it every chunk (not only at
        // t == 0), so re-shape whenever the frame geometry changes.
        let needed = *run_timesteps * c.out_neurons();
        if c.out_neurons() != *pending_len || pending.len() != needed {
            *pending_len = c.out_neurons();
            scratch_resize(pending, needed, 0);
        }
        let frame = &mut pending[t * *pending_len..(t + 1) * *pending_len];
        let mut ctx = PlConvCtx {
            cfg: config,
            controller,
            groups: &program.layers[idx].kernel_groups,
            cycles: &mut report.layers[idx],
            conv,
            policy: *policy,
            mems,
            taps: seg_taps,
        };
        pl_conv_timestep(
            c,
            idx,
            &mut ctx,
            spikes,
            *run_timesteps,
            PlOut::Currents(frame),
        );
    }

    fn step_block_add(&mut self, idx: usize, skip: &SpikePlane, t: usize, out: &mut SpikePlane) {
        let SiaMachine {
            program,
            config,
            membranes,
            report,
            pending,
            pending_len,
            conv,
            mems,
            residual,
            policy,
            ..
        } = self;
        let SnnItem::BlockAdd(a) = &program.network.items[idx] else {
            unreachable!("step_block_add on a non-add item")
        };
        let n = a.neurons();
        // PS-side residual currents (§IV), saturating accumulation with the
        // pending psum frame of this timestep
        scratch_resize(residual, n, 0);
        match &a.down {
            Some(d) => {
                let psums = conv_psums_int_plane(d, skip, *policy, conv, idx);
                assert_eq!(
                    *pending_len,
                    psums.len(),
                    "residual shape mismatch (pending {}, skip {})",
                    pending_len,
                    psums.len()
                );
                let per_ch = psums.len() / d.geom.out_channels;
                let pend = &pending[t * *pending_len..(t + 1) * *pending_len];
                for (i, (r, &p)) in residual.iter_mut().zip(psums).enumerate() {
                    let skip_cur = add16(d.g[i / per_ch].mul_int(p), d.h[i / per_ch]);
                    *r = add16(pend[i], skip_cur);
                }
            }
            None => {
                assert_eq!(
                    *pending_len,
                    skip.len(),
                    "residual shape mismatch (pending {}, skip {})",
                    pending_len,
                    skip.len()
                );
                let pend = &pending[t * *pending_len..(t + 1) * *pending_len];
                for (i, (r, &p)) in residual.iter_mut().zip(pend).enumerate() {
                    let skip_cur = if skip.bit_linear(i) { a.skip_add } else { 0 };
                    *r = add16(p, skip_cur);
                }
            }
        }
        let cycles = &mut report.layers[idx];
        let mem = membranes[idx].as_mut().expect("block add has membranes");
        scratch_resize(mems, n, 0);
        for (i, m) in mems.iter_mut().enumerate() {
            *m = mem.read(i);
        }
        out.reset(a.channels, a.h, a.w);
        // aggregation tile over the accumulated currents (batch norm is
        // the identity here)
        for (i, (&total, u)) in residual.iter().zip(mems.iter_mut()).enumerate() {
            if step_int(u, total, a.theta, a.mode) {
                out.set_linear(i);
                cycles.spikes += 1;
            }
        }
        for (i, &u) in mems.iter().enumerate() {
            mem.write(i, u);
        }
        mem.toggle();
        sia_telemetry::counter!("accel.pingpong.switches", 1);
        cycles.compute_cycles += config.aggregation_pipeline_depth + n as u64;
        if let Some(d) = &a.down {
            cycles.compute_cycles += (d.geom.macs() as f64 * config.ps_cycles_per_mac) as u64;
        }
    }

    fn head_accumulate(&mut self, idx: usize, spikes: &SpikePlane) {
        let SnnItem::Head(l) = &self.program.network.items[idx] else {
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
        let SnnItem::Head(l) = &self.program.network.items[idx] else {
            unreachable!("head_readout on a non-head item")
        };
        for ((o, &a), &b) in out.iter_mut().zip(&self.head_acc).zip(&l.bias) {
            *o = a as f32 * l.q.scale() / t_eff as f32 + b;
        }
    }

    fn stage_taps(&mut self, _idx: usize) -> Option<(u64, u64)> {
        // PE kernel-row segments plus the PS-side (down/input) conv taps —
        // the machine's event-driven accounting in the same two buckets as
        // the functional runners
        let (cp, cs) = self.conv.take_taps();
        let (sp, ss) = std::mem::take(&mut self.seg_taps);
        Some((cp + sp, cs + ss))
    }

    fn finish_run(&mut self) -> CycleReport {
        std::mem::take(&mut self.report)
    }
}

/// [`sia_snn::EngineFactory`] building one [`SiaMachine`] per pool worker
/// from a compiled program — the accelerator backend of the persistent
/// engine pool. Every machine shares the factory's one program; each
/// worker's machine keeps its scratch arenas resident across every batch
/// the pool serves.
#[derive(Clone, Debug)]
pub struct SiaEngineFactory {
    program: Arc<Program>,
    config: SiaConfig,
    policy: KernelPolicy,
}

impl SiaEngineFactory {
    /// Creates a factory over a compiled program and its configuration.
    #[must_use]
    pub fn new(program: impl Into<Arc<Program>>, config: SiaConfig) -> Self {
        SiaEngineFactory {
            program: program.into(),
            config,
            policy: KernelPolicy::Auto,
        }
    }

    /// Sets the psum kernel policy every built machine starts with.
    #[must_use]
    pub fn with_kernel_policy(mut self, policy: KernelPolicy) -> Self {
        self.policy = policy;
        self
    }
}

impl sia_snn::EngineFactory for SiaEngineFactory {
    type Engine<'a> = SiaMachine;

    fn build(&self) -> SiaMachine {
        let mut machine = SiaMachine::new(Arc::clone(&self.program), self.config.clone());
        machine.set_kernel_policy(self.policy);
        machine
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::compile_for;
    use sia_nn::{ActSpec, BnSpec, ConvSpec, LinearSpec, NetworkSpec, SpecItem};
    use sia_snn::{convert, ConvertOptions, IntRunner};
    use sia_tensor::Conv2dGeom;

    /// A small but structurally complete network: input conv, residual
    /// block with downsample, OR-pool, head.
    fn full_spec() -> NetworkSpec {
        let g1 = Conv2dGeom {
            in_channels: 3,
            out_channels: 4,
            in_h: 8,
            in_w: 8,
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        let g2 = Conv2dGeom {
            in_channels: 4,
            out_channels: 8,
            in_h: 8,
            in_w: 8,
            kernel: 3,
            stride: 2,
            padding: 1,
        };
        let g3 = Conv2dGeom {
            in_channels: 8,
            out_channels: 8,
            in_h: 4,
            in_w: 4,
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        let gd = Conv2dGeom {
            in_channels: 4,
            out_channels: 8,
            in_h: 8,
            in_w: 8,
            kernel: 1,
            stride: 2,
            padding: 0,
        };
        let bn = |ch: usize| BnSpec {
            gamma: vec![1.0; ch],
            beta: vec![0.05; ch],
            mean: vec![0.1; ch],
            var: vec![1.0; ch],
            eps: 1e-5,
        };
        let w = |n: usize, seed: usize| {
            Tensor::from_vec(
                vec![n],
                (0..n)
                    .map(|i| (((i * 31 + seed * 7) % 17) as f32 - 8.0) * 0.05)
                    .collect(),
            )
        };
        NetworkSpec {
            name: "full".into(),
            input: (3, 8, 8),
            items: vec![
                SpecItem::Conv(ConvSpec {
                    geom: g1,
                    weights: w(4 * 3 * 9, 1).reshape(vec![4, 3, 3, 3]),
                    bn: Some(bn(4)),
                    act: Some(ActSpec {
                        levels: 8,
                        step: 0.7,
                    }),
                }),
                SpecItem::BlockStart,
                SpecItem::Conv(ConvSpec {
                    geom: g2,
                    weights: w(8 * 4 * 9, 2).reshape(vec![8, 4, 3, 3]),
                    bn: Some(bn(8)),
                    act: Some(ActSpec {
                        levels: 8,
                        step: 0.5,
                    }),
                }),
                SpecItem::Conv(ConvSpec {
                    geom: g3,
                    weights: w(8 * 8 * 9, 3).reshape(vec![8, 8, 3, 3]),
                    bn: Some(bn(8)),
                    act: None,
                }),
                SpecItem::BlockAdd {
                    down: Some(ConvSpec {
                        geom: gd,
                        weights: w(8 * 4, 4).reshape(vec![8, 4, 1, 1]),
                        bn: Some(bn(8)),
                        act: None,
                    }),
                    act: ActSpec {
                        levels: 8,
                        step: 0.6,
                    },
                },
                SpecItem::MaxPool2x2,
                SpecItem::GlobalAvgPool,
                SpecItem::Linear(LinearSpec {
                    in_features: 8,
                    out_features: 10,
                    weights: w(80, 5).reshape(vec![10, 8]),
                    bias: vec![0.01; 10],
                }),
            ],
        }
    }

    fn image() -> Tensor {
        Tensor::from_vec(
            vec![3, 8, 8],
            (0..192).map(|i| ((i * 13 % 29) as f32) / 29.0).collect(),
        )
    }

    #[test]
    fn machine_is_bit_exact_with_int_runner() {
        let net = convert(&full_spec(), &ConvertOptions::default());
        let cfg = SiaConfig::pynq_z2();
        let program = compile_for(&net, &cfg, 8).unwrap();
        let mut machine = SiaMachine::new(program, cfg);
        let img = image();
        let hw = machine.run(&img, 8);
        let sw = IntRunner::new(&net).run(&img, 8);
        assert_eq!(hw.logits_per_t, sw.logits_per_t, "logits diverged");
        assert_eq!(hw.stats.spikes, sw.stats.spikes, "spike counts diverged");
        assert_eq!(hw.predicted(), sw.predicted());
    }

    #[test]
    fn machine_burn_in_matches_runner_burn_in() {
        let net = convert(&full_spec(), &ConvertOptions::default());
        let cfg = SiaConfig::pynq_z2();
        let program = compile_for(&net, &cfg, 8).unwrap();
        let mut machine = SiaMachine::new(program, cfg);
        let img = image();
        let hw = machine.run_with(&img, 8, 3);
        let sw = IntRunner::new(&net).run_with(&img, 8, 3);
        assert_eq!(hw.logits_per_t, sw.logits_per_t);
    }

    #[test]
    fn report_has_meaningful_cycles() {
        let net = convert(&full_spec(), &ConvertOptions::default());
        let cfg = SiaConfig::pynq_z2();
        let program = compile_for(&net, &cfg, 8).unwrap();
        let mut machine = SiaMachine::new(program, cfg.clone());
        let run = machine.run(&image(), 8);
        assert!(run.report.total_cycles() > 0);
        assert!(run.report.total_ms() > 0.0);
        assert!(run.report.total_ops() > 0);
        let util = run.report.pe_utilization();
        assert!(util > 0.0 && util <= 1.0, "utilisation {util}");
        // every PL conv layer spent compute cycles
        for l in &run.report.layers {
            if l.name.starts_with("conv") {
                assert!(l.compute_cycles > 0, "{} has no compute", l.name);
            }
        }
    }

    #[test]
    fn sparser_input_is_faster() {
        let net = convert(&full_spec(), &ConvertOptions::default());
        let cfg = SiaConfig::pynq_z2();
        let program = compile_for(&net, &cfg, 8).unwrap();
        let mut machine = SiaMachine::new(program, cfg);
        let bright = machine.run(&image(), 8);
        let dark = machine.run(&Tensor::zeros(vec![3, 8, 8]), 8);
        let conv_cycles = |r: &MachineRun| -> u64 {
            r.report
                .layers
                .iter()
                .filter(|l| l.name.starts_with("conv"))
                .map(|l| l.compute_cycles)
                .sum()
        };
        assert!(conv_cycles(&dark) < conv_cycles(&bright));
    }

    #[test]
    fn unreachable_exit_threshold_is_bit_exact_with_fixed_run() {
        let net = convert(&full_spec(), &ConvertOptions::default());
        let cfg = SiaConfig::pynq_z2();
        let program = compile_for(&net, &cfg, 8).unwrap();
        let mut machine = SiaMachine::new(program, cfg);
        let img = image();
        let fixed = machine.run(&img, 8);
        for window in [1, 2, 3, 8] {
            let never = machine.run_policy(
                &img,
                8,
                0,
                ExitPolicy::Margin {
                    threshold: f32::INFINITY,
                    window,
                },
            );
            assert_eq!(never.logits_per_t, fixed.logits_per_t, "window {window}");
            assert_eq!(never.stats, fixed.stats, "window {window}");
            assert_eq!(
                never.report.total_cycles(),
                fixed.report.total_cycles(),
                "window {window}"
            );
        }
    }

    #[test]
    fn early_exit_is_a_prefix_and_saves_cycles() {
        let net = convert(&full_spec(), &ConvertOptions::default());
        let cfg = SiaConfig::pynq_z2();
        let program = compile_for(&net, &cfg, 8).unwrap();
        let mut machine = SiaMachine::new(program, cfg);
        let img = image();
        let fixed = machine.run(&img, 8);
        let policy = ExitPolicy::Margin {
            threshold: 0.0,
            window: 1,
        };
        let early = machine.run_policy(&img, 8, 0, policy);
        let t = early.logits_per_t.len();
        assert!(t < 8, "threshold 0 must exit at the first boundary");
        assert_eq!(early.logits_per_t[..], fixed.logits_per_t[..t]);
        assert_eq!(early.stats.timesteps, t as u64);
        // the modelled hardware prices the skipped timesteps: fewer PL conv
        // passes and head readouts → strictly fewer cycles
        assert!(
            early.report.total_cycles() < fixed.report.total_cycles(),
            "exit at t={t} saved no cycles ({} vs {})",
            early.report.total_cycles(),
            fixed.report.total_cycles()
        );
    }

    /// Input conv, then a spiking 3×3 stride-1 conv with 4 output channels
    /// over 16 output columns — a layer the tiled kernel covers — then the
    /// head.
    fn tiled_spec() -> NetworkSpec {
        let geom = |cin: usize| Conv2dGeom {
            in_channels: cin,
            out_channels: 4,
            in_h: 16,
            in_w: 16,
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        let conv = |cin: usize, seed: usize| {
            let n = 4 * cin * 9;
            SpecItem::Conv(ConvSpec {
                geom: geom(cin),
                weights: Tensor::from_vec(
                    vec![4, cin, 3, 3],
                    (0..n)
                        .map(|i| (((i * 31 + seed * 7) % 17) as f32 - 6.0) * 0.06)
                        .collect(),
                ),
                bn: None,
                act: Some(ActSpec {
                    levels: 8,
                    step: 0.5,
                }),
            })
        };
        NetworkSpec {
            name: "tiled".into(),
            input: (1, 16, 16),
            items: vec![
                conv(1, 1),
                conv(4, 2),
                SpecItem::GlobalAvgPool,
                SpecItem::Linear(LinearSpec {
                    in_features: 4,
                    out_features: 10,
                    weights: Tensor::from_vec(
                        vec![10, 4],
                        (0..40).map(|i| ((i % 7) as f32 - 3.0) * 0.1).collect(),
                    ),
                    bias: vec![0.0; 10],
                }),
            ],
        }
    }

    #[test]
    fn forced_kernel_policies_agree_end_to_end() {
        let net = convert(&tiled_spec(), &ConvertOptions::default());
        let SnnItem::Conv(c) = &net.items[1] else {
            panic!("item 1 is the spiking conv")
        };
        assert!(sia_snn::sparse::tiled_is_candidate(&c.geom));
        let img = Tensor::from_vec(
            vec![1, 16, 16],
            (0..256).map(|i| ((i * 13 % 29) as f32) / 29.0).collect(),
        );
        let int_run = |policy| {
            let mut runner = IntRunner::new(&net);
            runner.set_kernel_policy(policy);
            sia_telemetry::reset();
            let out = runner.run(&img, 8);
            (out, sia_telemetry::snapshot())
        };
        let (sparse, sparse_taps) = int_run(KernelPolicy::ForceSparse);
        let (dense, dense_taps) = int_run(KernelPolicy::ForceDense);
        assert_eq!(dense.logits_per_t, sparse.logits_per_t);
        assert_eq!(dense.stats.spikes, sparse.stats.spikes);
        // the tiled stage's input plane is neither silent nor full
        let input_spikes = sparse.stats.spikes[0];
        assert!(
            input_spikes > 0 && input_spikes < 8 * 4 * 256,
            "{input_spikes}"
        );
        if cfg!(feature = "telemetry") {
            // ForceDense tiled the stage: the tiled kernel skips no tap
            assert_eq!(dense_taps.counter("snn.taps.skipped"), 0);
            assert!(dense_taps.counter("snn.taps.processed") > 0);
            assert!(sparse_taps.counter("snn.taps.skipped") > 0);
        }
        // the machine's PL convs follow its policy; results, cycles and the
        // PE segments its stages report do not
        let cfg = SiaConfig::pynq_z2();
        let program = compile_for(&net, &cfg, 8).unwrap();
        let mut costs = Vec::new();
        for policy in [
            KernelPolicy::ForceSparse,
            KernelPolicy::ForceDense,
            KernelPolicy::Auto,
        ] {
            let mut machine = SiaMachine::new(program.clone(), cfg.clone());
            machine.set_kernel_policy(policy);
            sia_telemetry::reset();
            let hw = machine.run(&img, 8);
            assert_eq!(hw.logits_per_t, sparse.logits_per_t, "{policy:?}");
            assert_eq!(hw.stats.spikes, sparse.stats.spikes, "{policy:?}");
            let snap = sia_telemetry::snapshot();
            costs.push((
                hw.report.total_cycles(),
                snap.counter("snn.taps.processed"),
                snap.counter("snn.taps.skipped"),
            ));
        }
        assert!(costs.windows(2).all(|w| w[0] == w[1]), "{costs:?}");
    }

    #[test]
    fn more_timesteps_cost_more_cycles() {
        let net = convert(&full_spec(), &ConvertOptions::default());
        let cfg = SiaConfig::pynq_z2();
        let mut m4 = SiaMachine::new(compile_for(&net, &cfg, 4).unwrap(), cfg.clone());
        let mut m8 = SiaMachine::new(compile_for(&net, &cfg, 8).unwrap(), cfg);
        let img = image();
        let a = m4.run(&img, 4);
        let b = m8.run(&img, 8);
        assert!(a.report.total_cycles() < b.report.total_cycles());
    }

    #[test]
    fn machine_runs_the_kernel_groups_its_program_lists() {
        let net = convert(&full_spec(), &ConvertOptions::default());
        let cfg = SiaConfig::pynq_z2();
        let program = compile_for(&net, &cfg, 8).unwrap();
        let img = image();
        let mut machine = SiaMachine::new(program.clone(), cfg.clone());
        let base = machine.run(&img, 8);
        let base_starts = machine.layers_started();
        // a spiking conv and a psum conv, each one 8-kernel group on the
        // 64-PE array, re-tiled by hand into two groups
        assert!(matches!(net.items[2], SnnItem::Conv(_)));
        assert!(matches!(net.items[3], SnnItem::ConvPsum(_)));
        for idx in [2, 3] {
            assert_eq!(program.layers[idx].kernel_groups, [(0, 8)]);
            let mut retiled = program.clone();
            retiled.layers[idx].kernel_groups = vec![(0, 3), (3, 5)];
            let mut machine = SiaMachine::new(retiled, cfg.clone());
            let run = machine.run(&img, 8);
            assert_eq!(run.logits_per_t, base.logits_per_t, "item {idx}");
            assert_eq!(run.stats, base.stats, "item {idx}");
            // one more pass per timestep: one more controller start, and a
            // pass over a plane costs the same cycles at any group size
            assert_eq!(machine.layers_started(), base_starts + 8, "item {idx}");
            for (i, (l, b)) in run
                .report
                .layers
                .iter()
                .zip(&base.report.layers)
                .enumerate()
            {
                let extra = if i == idx { b.compute_cycles } else { 0 };
                assert_eq!(l.compute_cycles, b.compute_cycles + extra, "{idx}: {i}");
            }
        }
    }
}

#[cfg(test)]
mod controller_integration {
    use super::*;
    use crate::compiler::compile_for;
    use sia_nn::{ActSpec, ConvSpec, LinearSpec, NetworkSpec, SpecItem};
    use sia_snn::{convert, ConvertOptions};
    use sia_tensor::Conv2dGeom;

    #[test]
    fn controller_counts_one_start_per_group_pass_per_timestep() {
        let geom = Conv2dGeom {
            in_channels: 3,
            out_channels: 100, // two kernel groups on a 64-PE array
            in_h: 4,
            in_w: 4,
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        let spec = NetworkSpec {
            name: "ctl".into(),
            input: (3, 4, 4),
            items: vec![
                SpecItem::Conv(ConvSpec {
                    geom,
                    weights: Tensor::full(vec![100, 3, 3, 3], 0.05),
                    bn: None,
                    act: Some(ActSpec {
                        levels: 4,
                        step: 1.0,
                    }),
                }),
                SpecItem::Conv(ConvSpec {
                    geom: Conv2dGeom {
                        in_channels: 100,
                        out_channels: 10,
                        ..geom
                    },
                    weights: Tensor::full(vec![10, 100, 3, 3], 0.01),
                    bn: None,
                    act: Some(ActSpec {
                        levels: 4,
                        step: 1.0,
                    }),
                }),
                SpecItem::GlobalAvgPool,
                SpecItem::Linear(LinearSpec {
                    in_features: 10,
                    out_features: 4,
                    weights: Tensor::full(vec![4, 10], 0.1),
                    bias: vec![0.0; 4],
                }),
            ],
        };
        let net = convert(&spec, &ConvertOptions::default());
        let cfg = SiaConfig::pynq_z2();
        let mut m = SiaMachine::new(compile_for(&net, &cfg, 4).unwrap(), cfg);
        assert_eq!(m.layers_started(), 0);
        let _ = m.run(&Tensor::full(vec![3, 4, 4], 0.5), 4);
        // first conv is dense-input (PS-side, no controller); the second PL
        // conv has one group, but the first *spiking* conv in this net is
        // the 100-channel one? No: the 100-channel conv is dense-input.
        // PL convs: the 10-channel conv → 1 group × 4 timesteps = 4 starts.
        assert_eq!(m.layers_started(), 4);
    }
}
