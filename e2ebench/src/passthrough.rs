//! A pass-through [`Engine`] that times every engine call `drive_policy` makes
//! while the real pool and `drive_policy` run unchanged.
//!
//! [`Traced`] forwards each call to the wrapped engine and returns its
//! result untouched, so outcomes, tap counts and cycle reports are
//! bit-identical to the bare engine (see `tests/passthrough.rs`). Around
//! the calls it records, per image:
//!
//! * the image interval, from `drive_policy`'s first engine call
//!   (`span_name`) to its last (`put_drive_scratch`);
//! * the time inside engine calls made for each stage group (the items at
//!   one output resolution, or the head) — `begin_item`, the step calls,
//!   `saturated_membranes`, `stage_taps` and `end_item` — coalesced into
//!   one span per run of consecutive calls in one group;
//! * processed and skipped taps, as the engine reports them.
//!
//! The image time outside those calls is `drive_policy`'s own (encoding, the
//! chunk loop, readout, exit checks, stats, telemetry emission).

use crate::trace::Clock;
use sia_snn::{DriveScratch, Engine, EngineFactory, SnnItem, SnnNetwork, SpikePlane};
use std::cell::RefCell;
use std::sync::{Arc, Mutex};

/// Output resolutions of the stage groups, in network order — Table I's
/// layer groups for the 16×16 ResNet-18. The head is the group after them.
pub const RESOLUTIONS: [usize; 4] = [16, 8, 4, 2];

/// Number of stage groups (the resolutions plus the head).
pub const GROUPS: usize = RESOLUTIONS.len() + 1;

/// Span names of the int runner's stage groups.
pub const RUNNER_SPANS: [&str; GROUPS] = [
    "runner.res16",
    "runner.res8",
    "runner.res4",
    "runner.res2",
    "runner.head",
];

/// Per-image stage-time metrics of the int runner.
pub const RUNNER_US: [&str; GROUPS] = [
    "runner.res16_us",
    "runner.res8_us",
    "runner.res4_us",
    "runner.res2_us",
    "runner.head_us",
];

/// Per-image host-time metrics of the machine's stage groups.
pub const MACHINE_US: [&str; GROUPS] = [
    "machine.res16_us",
    "machine.res8_us",
    "machine.res4_us",
    "machine.res2_us",
    "machine.head_us",
];

/// Per-image simulated-cycle metrics of the machine's stage groups.
pub const MACHINE_KCYCLES: [&str; GROUPS] = [
    "machine.res16_kcycles",
    "machine.res8_kcycles",
    "machine.res4_kcycles",
    "machine.res2_kcycles",
    "machine.head_kcycles",
];

/// Span names of the cycle-level machine's stage groups.
pub const MACHINE_SPANS: [&str; GROUPS] = [
    "machine.res16",
    "machine.res8",
    "machine.res4",
    "machine.res2",
    "machine.head",
];

/// Which stage group each network item belongs to.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StageMap {
    group_of_item: Vec<usize>,
}

impl StageMap {
    /// Maps every item of `net` to its group: convolutions, residual adds
    /// and pools by output resolution, a block start with the item before
    /// it, the head to the last group.
    ///
    /// # Errors
    ///
    /// Fails on an output resolution outside [`RESOLUTIONS`].
    pub fn new(net: &SnnNetwork) -> Result<Self, String> {
        let mut group_of_item = Vec::with_capacity(net.items.len());
        for (idx, item) in net.items.iter().enumerate() {
            let res = match item {
                SnnItem::InputConv(c) | SnnItem::Conv(c) | SnnItem::ConvPsum(c) => {
                    Some(c.geom.out_hw().0)
                }
                SnnItem::BlockAdd(a) => Some(a.h),
                SnnItem::MaxPoolOr { h, .. } => Some(h / 2),
                SnnItem::BlockStart | SnnItem::Head(_) => None,
            };
            let group = match (item, res) {
                (SnnItem::Head(_), _) => GROUPS - 1,
                (_, Some(r)) => RESOLUTIONS.iter().position(|&x| x == r).ok_or_else(|| {
                    format!("item {idx} outputs {r}×{r}; stage groups are {RESOLUTIONS:?}")
                })?,
                (_, None) => group_of_item.last().copied().unwrap_or(0),
            };
            group_of_item.push(group);
        }
        Ok(StageMap { group_of_item })
    }

    /// The group of item `idx`.
    #[must_use]
    pub fn group(&self, idx: usize) -> usize {
        self.group_of_item[idx]
    }
}

/// A run of consecutive engine calls in one stage group: it starts at the
/// first call and lasts the calls' summed duration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StageSpan {
    /// Stage group.
    pub group: usize,
    /// Start of the first call, ns since the clock origin.
    pub start_ns: u64,
    /// Summed call time, ns.
    pub busy_ns: u64,
}

/// What one driven image cost, as seen through the engine calls.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ImageRecord {
    /// Driver's first engine call, ns since the clock origin.
    pub start_ns: u64,
    /// Driver's last engine call returned, ns since the clock origin.
    pub end_ns: u64,
    /// Time inside engine calls per stage group, ns.
    pub stage_ns: [u64; GROUPS],
    /// Coalesced stage spans in call order.
    pub spans: Vec<StageSpan>,
    /// `(processed, skipped)` taps reported through `stage_taps`.
    pub taps: (u64, u64),
}

/// Collects the records of every engine a [`TracedFactory`] builds.
#[derive(Debug)]
pub struct Recorder {
    clock: Clock,
    stages: StageMap,
    done: Mutex<Vec<ImageRecord>>,
}

impl Recorder {
    /// A recorder for engines over `net`, timed on `clock`.
    ///
    /// # Errors
    ///
    /// Propagates [`StageMap::new`] failures.
    pub fn new(clock: Clock, net: &SnnNetwork) -> Result<Arc<Self>, String> {
        Ok(Arc::new(Recorder {
            clock,
            stages: StageMap::new(net)?,
            done: Mutex::new(Vec::new()), // concurrency-allow: record sink of the benchmark's pass-through engines
        }))
    }

    /// The stage groups of the recorded network.
    #[must_use]
    pub fn stages(&self) -> &StageMap {
        &self.stages
    }

    /// Takes every finished record, in completion order.
    ///
    /// # Panics
    ///
    /// Panics if an engine panicked while pushing a record.
    #[must_use]
    pub fn take(&self) -> Vec<ImageRecord> {
        std::mem::take(&mut *self.done.lock().expect("recorder poisoned"))
    }
}

/// The pass-through engine.
#[derive(Debug)]
pub struct Traced<E> {
    inner: E,
    rec: Arc<Recorder>,
    cur: RefCell<ImageRecord>,
}

impl<E> Traced<E> {
    /// Wraps `inner`; records go to `rec`.
    pub fn new(inner: E, rec: Arc<Recorder>) -> Self {
        Traced {
            inner,
            rec,
            cur: RefCell::new(ImageRecord::default()),
        }
    }

    /// The wrapped engine, for untimed calls.
    pub fn inner_mut(&mut self) -> &mut E {
        &mut self.inner
    }

    fn now(&self) -> u64 {
        self.rec.clock.now_ns()
    }

    /// Books the call to item `idx` that started at `start`.
    fn note(&self, idx: usize, start: u64) {
        let end = self.now();
        let group = self.rec.stages.group(idx);
        let busy = end - start;
        let mut cur = self.cur.borrow_mut();
        cur.stage_ns[group] += busy;
        match cur.spans.last_mut() {
            Some(s) if s.group == group => s.busy_ns += busy,
            _ => cur.spans.push(StageSpan {
                group,
                start_ns: start,
                busy_ns: busy,
            }),
        }
    }
}

impl<E: Engine> Engine for Traced<E> {
    type Extra = E::Extra;

    fn network(&self) -> &SnnNetwork {
        self.inner.network()
    }

    fn span_name(&self) -> &'static str {
        // `drive_policy`'s first engine call of a run: open the image record
        *self.cur.borrow_mut() = ImageRecord {
            start_ns: self.now(),
            ..ImageRecord::default()
        };
        self.inner.span_name()
    }

    fn emits_timestep_events(&self) -> bool {
        self.inner.emits_timestep_events()
    }

    fn take_drive_scratch(&mut self) -> DriveScratch {
        self.inner.take_drive_scratch()
    }

    fn put_drive_scratch(&mut self, scratch: DriveScratch) {
        self.inner.put_drive_scratch(scratch);
        // `drive_policy`'s last engine call of a run: close the record
        let mut record = std::mem::take(&mut *self.cur.borrow_mut());
        record.end_ns = self.now();
        self.rec
            .done
            .lock()
            .expect("recorder poisoned")
            .push(record);
    }

    fn begin_run(&mut self, timesteps: usize) {
        self.inner.begin_run(timesteps);
    }

    fn begin_item(&mut self, idx: usize, timesteps: usize) {
        let s = self.now();
        self.inner.begin_item(idx, timesteps);
        self.note(idx, s);
    }

    fn end_item(&mut self, idx: usize, executed: usize) {
        let s = self.now();
        self.inner.end_item(idx, executed);
        self.note(idx, s);
    }

    fn step_input_conv(&mut self, idx: usize, codes: &[i8], t: usize, out: &mut SpikePlane) {
        let s = self.now();
        self.inner.step_input_conv(idx, codes, t, out);
        self.note(idx, s);
    }

    fn step_conv(&mut self, idx: usize, spikes: &SpikePlane, t: usize, out: &mut SpikePlane) {
        let s = self.now();
        self.inner.step_conv(idx, spikes, t, out);
        self.note(idx, s);
    }

    fn step_conv_psum(&mut self, idx: usize, spikes: &SpikePlane, t: usize) {
        let s = self.now();
        self.inner.step_conv_psum(idx, spikes, t);
        self.note(idx, s);
    }

    fn step_block_add(&mut self, idx: usize, skip: &SpikePlane, t: usize, out: &mut SpikePlane) {
        let s = self.now();
        self.inner.step_block_add(idx, skip, t, out);
        self.note(idx, s);
    }

    fn step_pool(&mut self, idx: usize, spikes: &SpikePlane, t: usize, out: &mut SpikePlane) {
        let s = self.now();
        self.inner.step_pool(idx, spikes, t, out);
        self.note(idx, s);
    }

    fn head_accumulate(&mut self, idx: usize, spikes: &SpikePlane) {
        let s = self.now();
        self.inner.head_accumulate(idx, spikes);
        self.note(idx, s);
    }

    fn head_readout_into(&self, idx: usize, t_eff: usize, out: &mut [f32]) {
        let s = self.now();
        self.inner.head_readout_into(idx, t_eff, out);
        self.note(idx, s);
    }

    fn saturated_membranes(&self, idx: usize) -> u64 {
        let s = self.now();
        let n = self.inner.saturated_membranes(idx);
        self.note(idx, s);
        n
    }

    fn stage_taps(&mut self, idx: usize) -> Option<(u64, u64)> {
        let s = self.now();
        let taps = self.inner.stage_taps(idx);
        self.note(idx, s);
        if let Some((processed, skipped)) = taps {
            let mut cur = self.cur.borrow_mut();
            cur.taps.0 += processed;
            cur.taps.1 += skipped;
        }
        taps
    }

    fn finish_run(&mut self) -> Self::Extra {
        self.inner.finish_run()
    }
}

/// Wraps every engine an inner factory builds in a [`Traced`] engine, so
/// the real [`sia_snn::EnginePool`] and `drive_policy` run the timed engines.
#[derive(Clone, Debug)]
pub struct TracedFactory<F> {
    inner: F,
    rec: Arc<Recorder>,
}

impl<F> TracedFactory<F> {
    /// Wraps `inner`; every built engine records into `rec`.
    pub fn new(inner: F, rec: Arc<Recorder>) -> Self {
        TracedFactory { inner, rec }
    }
}

impl<F: EngineFactory> EngineFactory for TracedFactory<F> {
    type Engine<'a>
        = Traced<F::Engine<'a>>
    where
        Self: 'a;

    fn build(&self) -> Self::Engine<'_> {
        Traced::new(self.inner.build(), Arc::clone(&self.rec))
    }
}
