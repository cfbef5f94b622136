//! The deterministic cooperative scheduler and the schedule explorer.
//!
//! One *virtual thread* runs at a time. Real OS threads execute the
//! explored body, but every [`crate::ModelSync`] primitive funnels into
//! `RunCore::reach`, which parks the calling thread and hands control to
//! the controller (the thread that called [`Explorer::explore`]). The
//! controller sees the complete set of parked threads, computes which are
//! *enabled* (a `lock` on a held mutex or a `recv` on an empty open
//! channel is not), applies the chosen operation's effect on the virtual
//! object state, and resumes exactly one thread — so the interleaving is
//! a pure function of the controller's decision sequence.
//!
//! Schedules are enumerated two ways:
//!
//! * **DFS with CHESS-style bounded preemptions** ([`Explorer`]): the
//!   decision stack is replayed as a prefix and extended; switching away
//!   from a still-enabled thread costs one preemption, and the bound is
//!   iterated from zero upward, so the first failure found uses a minimal
//!   number of context switches — the schedule-explorer notion of a
//!   minimized counterexample.
//! * **Seeded random walk** ([`RandomWalk`]): uniformly random decisions
//!   from a deterministic xorshift stream, for depth beyond the exhaustive
//!   frontier. The same seed replays the same schedules.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe, Location};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};

/// Default per-schedule step bound (a schedule running longer is reported
/// as [`Failure::Livelock`]).
pub const DEFAULT_MAX_STEPS: usize = 20_000;

/// Default bound on explored schedules before [`Exploration::truncated`]
/// is set.
pub const DEFAULT_MAX_SCHEDULES: usize = 20_000;

/// Panic payload used to unwind virtual threads once a schedule is
/// cancelled (failure found); swallowed by the thread wrappers.
pub(crate) struct CancelToken;

/// One scheduled operation in a failure trace: which virtual thread ran
/// which primitive from which production source line.
#[derive(Clone, Debug)]
pub struct TraceStep {
    /// Virtual thread id (0 is the explored body itself).
    pub thread: usize,
    /// Thread name (`main`, `engine-worker-1`, `worker-2`, …).
    pub name: String,
    /// Operation, e.g. `mutex#1.lock` or `cv#0.notify_all`.
    pub op: String,
    /// Production call site, `file:line`.
    pub location: String,
}

impl std::fmt::Display for TraceStep {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[t{} {}] {:24} at {}",
            self.thread, self.name, self.op, self.location
        )
    }
}

/// What went wrong on a schedule.
#[derive(Clone, Debug)]
pub enum Failure {
    /// Every live virtual thread is blocked. A lost wakeup manifests
    /// exactly like this: a consumer asleep forever while its work sits
    /// queued.
    Deadlock {
        /// The blocked threads: `(tid, name, operation blocked on)`.
        blocked: Vec<(usize, String, String)>,
    },
    /// The schedule exceeded the step bound without finishing.
    Livelock {
        /// The bound that was hit.
        steps: usize,
    },
    /// A virtual thread panicked — a failed protocol invariant
    /// (`assert!`) inside the explored body.
    Panic {
        /// The panicking virtual thread.
        thread: usize,
        /// The panic payload, rendered.
        message: String,
    },
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Failure::Deadlock { blocked } => {
                write!(f, "deadlock: all {} live threads blocked (", blocked.len())?;
                for (i, (tid, name, op)) in blocked.iter().enumerate() {
                    if i > 0 {
                        f.write_str("; ")?;
                    }
                    write!(f, "t{tid} {name} on {op}")?;
                }
                f.write_str(")")
            }
            Failure::Livelock { steps } => {
                write!(f, "livelock: no completion within {steps} scheduler steps")
            }
            Failure::Panic { thread, message } => {
                write!(
                    f,
                    "invariant violation: thread t{thread} panicked: {message}"
                )
            }
        }
    }
}

impl Failure {
    /// Short machine-matchable kind tag (`deadlock`/`livelock`/`panic`).
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Failure::Deadlock { .. } => "deadlock",
            Failure::Livelock { .. } => "livelock",
            Failure::Panic { .. } => "panic",
        }
    }
}

/// A failing schedule: what failed, the full interleaving that got there,
/// and the decision list that reproduces it via [`Explorer::replay`].
#[derive(Clone, Debug)]
pub struct FailureReport {
    /// The failure itself.
    pub failure: Failure,
    /// Every scheduled operation, in order.
    pub trace: Vec<TraceStep>,
    /// Free scheduling choices made, in order — replay input.
    pub decisions: Vec<usize>,
    /// The preemption bound the failing schedule was found under
    /// (`usize::MAX` for random walks); replay must use the same bound.
    pub preemption_bound: usize,
    /// The random-walk seed, when found by [`RandomWalk`].
    pub seed: Option<u64>,
    /// 1-based index of the failing schedule within its exploration.
    pub schedule: usize,
}

impl std::fmt::Display for FailureReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "{}", self.failure)?;
        write!(
            f,
            "schedule #{} (preemption bound {}",
            self.schedule,
            if self.preemption_bound == usize::MAX {
                "unbounded".to_string()
            } else {
                self.preemption_bound.to_string()
            }
        )?;
        if let Some(seed) = self.seed {
            write!(f, ", seed {seed:#x}")?;
        }
        writeln!(f, "), decisions {:?}", self.decisions)?;
        writeln!(f, "interleaving ({} steps):", self.trace.len())?;
        for (i, step) in self.trace.iter().enumerate() {
            writeln!(f, "  {i:4}  {step}")?;
        }
        Ok(())
    }
}

/// Summary of one exploration.
#[derive(Clone, Debug)]
pub struct Exploration {
    /// Schedules executed.
    pub schedules: usize,
    /// True when the schedule budget ran out before the space was covered.
    pub truncated: bool,
    /// The first failure found, if any (exploration stops at the first).
    pub failure: Option<FailureReport>,
}

impl Exploration {
    /// True when no failure was found (the space may still be truncated —
    /// check [`Exploration::truncated`] for full coverage claims).
    #[must_use]
    pub fn passed(&self) -> bool {
        self.failure.is_none()
    }

    /// Panics with the full schedule trace if a failure was found, or if
    /// the exploration was truncated (a pass over a partial space is not
    /// the exhaustive guarantee callers of this helper want).
    ///
    /// # Panics
    ///
    /// See above.
    pub fn assert_pass(&self, what: &str) {
        if let Some(report) = &self.failure {
            panic!("{what}: schedule exploration failed\n{report}");
        }
        assert!(
            !self.truncated,
            "{what}: exploration truncated at {} schedules — raise max_schedules \
             or shrink the scenario",
            self.schedules
        );
    }

    /// Returns the failure report, panicking (with context) on a pass —
    /// the mutant self-tests' accessor.
    ///
    /// # Panics
    ///
    /// Panics when the exploration found no failure.
    #[must_use]
    pub fn expect_failure(&self, what: &str) -> &FailureReport {
        self.failure.as_ref().unwrap_or_else(|| {
            panic!(
                "{what}: expected the checker to catch a failure, \
                 but {} schedules passed",
                self.schedules
            )
        })
    }
}

/// A virtual operation a thread can park on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Op {
    /// First scheduling point of a thread, before its body runs.
    Start,
    MutexLock(usize),
    MutexUnlock(usize),
    CvWait {
        cv: usize,
        mutex: usize,
    },
    CvNotifyAll(usize),
    AtomicLoad(usize),
    AtomicStore(usize),
    AtomicFetchAdd(usize),
    ChanSend(usize),
    ChanRecv(usize),
    ChanCloseTx(usize),
    Join(usize),
}

impl Op {
    fn describe(self) -> String {
        match self {
            Op::Start => "start".to_string(),
            Op::MutexLock(m) => format!("mutex#{m}.lock"),
            Op::MutexUnlock(m) => format!("mutex#{m}.unlock"),
            Op::CvWait { cv, .. } => format!("cv#{cv}.wait"),
            Op::CvNotifyAll(c) => format!("cv#{c}.notify_all"),
            Op::AtomicLoad(a) => format!("atomic#{a}.load"),
            Op::AtomicStore(a) => format!("atomic#{a}.store"),
            Op::AtomicFetchAdd(a) => format!("atomic#{a}.fetch_add"),
            Op::ChanSend(c) => format!("chan#{c}.send"),
            Op::ChanRecv(c) => format!("chan#{c}.recv"),
            Op::ChanCloseTx(c) => format!("chan#{c}.close_tx"),
            Op::Join(t) => format!("join(t{t})"),
        }
    }
}

/// Scheduling state of one virtual thread.
#[derive(Debug)]
enum Status {
    /// Holds the baton: executing body code between scheduling points.
    Running,
    /// Parked at `op`, waiting for a grant.
    Parked {
        op: Op,
        loc: &'static Location<'static>,
    },
    /// Asleep inside a condvar wait (released the mutex, not runnable
    /// until notified).
    Sleeping {
        cv: usize,
        mutex: usize,
        loc: &'static Location<'static>,
    },
    /// Body returned (or unwound); a `Join` on this thread is enabled.
    Finished,
}

#[derive(Debug)]
struct Thr {
    status: Status,
    /// Set by the controller to resume the thread out of `reach`.
    resume: bool,
    /// Whether the last channel op observed a closed/receiver-less end.
    chan_closed: bool,
    name: String,
}

#[derive(Debug, Default)]
struct MutexObj {
    owner: Option<usize>,
}

#[derive(Debug, Default)]
struct CvObj {
    /// FIFO wait queue of sleeping tids.
    waiters: VecDeque<usize>,
}

#[derive(Debug)]
struct ChanObj {
    /// Queue length mirror (the values live in the model-side real queue).
    len: usize,
    senders: usize,
    rx_alive: bool,
}

/// Everything a single schedule run shares between its threads and the
/// controller, behind one real mutex.
struct Core {
    threads: Vec<Thr>,
    mutexes: Vec<MutexObj>,
    cvs: Vec<CvObj>,
    chans: Vec<ChanObj>,
    atomics: usize,
    trace: Vec<TraceStep>,
    steps: usize,
    cancelled: bool,
    /// First non-cancel panic on any virtual thread.
    panic_failure: Option<(usize, String)>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

/// Shared schedule-run state: the virtual object arena, thread table and
/// the one real condvar every park/grant handshake goes through.
pub(crate) struct RunCore {
    m: Mutex<Core>,
    cv: Condvar,
}

/// Outcome flags `reach` hands back to the model primitive that parked.
pub(crate) struct Reached {
    pub chan_closed: bool,
}

thread_local! {
    static CTX: RefCell<Option<(Arc<RunCore>, usize)>> = const { RefCell::new(None) };
}

/// The current virtual-thread context, if any (Drop impls must tolerate
/// running outside an exploration, e.g. after a cancelled unwind).
pub(crate) fn try_cur() -> Option<(Arc<RunCore>, usize)> {
    CTX.with(|c| c.borrow().clone())
}

/// The current virtual-thread context; panics outside an exploration.
pub(crate) fn cur() -> (Arc<RunCore>, usize) {
    CTX.with(|c| c.borrow().clone()).unwrap_or_else(|| {
        panic!(
            "sia-sched: a ModelSync primitive was used outside \
             Explorer::explore / RandomWalk::explore"
        )
    })
}

struct CtxGuard(Option<(Arc<RunCore>, usize)>);

fn set_ctx(core: Arc<RunCore>, tid: usize) -> CtxGuard {
    CtxGuard(CTX.with(|c| c.borrow_mut().replace((core, tid))))
}

impl Drop for CtxGuard {
    fn drop(&mut self) {
        let prev = self.0.take();
        CTX.with(|c| *c.borrow_mut() = prev);
    }
}

/// Installs (once, globally) a panic hook that silences [`CancelToken`]
/// unwinds — they are control flow, not failures — and delegates
/// everything else to the previously installed hook.
fn install_quiet_hook() {
    static HOOK: OnceLock<()> = OnceLock::new();
    HOOK.get_or_init(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<CancelToken>().is_none() {
                prev(info);
            }
        }));
    });
}

fn lock_core(core: &RunCore) -> MutexGuard<'_, Core> {
    core.m
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
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

impl RunCore {
    fn new() -> Arc<RunCore> {
        Arc::new(RunCore {
            m: Mutex::new(Core {
                threads: Vec::new(),
                mutexes: Vec::new(),
                cvs: Vec::new(),
                chans: Vec::new(),
                atomics: 0,
                trace: Vec::new(),
                steps: 0,
                cancelled: false,
                panic_failure: None,
                handles: Vec::new(),
            }),
            cv: Condvar::new(),
        })
    }

    pub(crate) fn alloc_mutex(&self) -> usize {
        let mut g = lock_core(self);
        g.mutexes.push(MutexObj::default());
        g.mutexes.len() - 1
    }

    pub(crate) fn alloc_cv(&self) -> usize {
        let mut g = lock_core(self);
        g.cvs.push(CvObj::default());
        g.cvs.len() - 1
    }

    pub(crate) fn alloc_atomic(&self) -> usize {
        let mut g = lock_core(self);
        g.atomics += 1;
        g.atomics - 1
    }

    pub(crate) fn alloc_chan(&self) -> usize {
        let mut g = lock_core(self);
        g.chans.push(ChanObj {
            len: 0,
            senders: 1,
            rx_alive: true,
        });
        g.chans.len() - 1
    }

    /// Registers a new virtual thread, parked at [`Op::Start`]. Called by
    /// the spawner while it holds the baton, so the controller's candidate
    /// set grows deterministically.
    pub(crate) fn register_thread(&self, name: &str, loc: &'static Location<'static>) -> usize {
        let mut g = lock_core(self);
        g.threads.push(Thr {
            status: Status::Parked { op: Op::Start, loc },
            resume: false,
            chan_closed: false,
            name: name.to_string(),
        });
        g.threads.len() - 1
    }

    /// Spawns the real thread backing virtual thread `tid`.
    pub(crate) fn spawn_thread(
        self: &Arc<Self>,
        tid: usize,
        body: Box<dyn FnOnce() + Send>,
    ) -> std::thread::JoinHandle<()> {
        let core = Arc::clone(self);
        let handle = std::thread::Builder::new()
            .name(format!("sia-sched-t{tid}"))
            .spawn(move || thread_main(&core, tid, body))
            .unwrap_or_else(|e| panic!("sia-sched: spawning virtual thread: {e}"));
        // a second handle cannot be cloned; keep it for the end-of-run join
        handle
    }

    pub(crate) fn store_handle(&self, handle: std::thread::JoinHandle<()>) {
        lock_core(self).handles.push(handle);
    }

    /// Marks a receiver dropped (silent effect: enabledness of pending
    /// sends changes, but receiver drop itself is not a scheduling point).
    pub(crate) fn chan_rx_drop(&self, chan: usize) {
        lock_core(self).chans[chan].rx_alive = false;
    }

    /// Parks the calling virtual thread at `op` and blocks until the
    /// controller grants it. The heart of the cooperative scheduler.
    pub(crate) fn reach(&self, tid: usize, op: Op, loc: &'static Location<'static>) -> Reached {
        let mut g = lock_core(self);
        if g.cancelled {
            return cancelled_reach(g, op);
        }
        g.threads[tid].status = Status::Parked { op, loc };
        self.cv.notify_all();
        loop {
            if g.cancelled {
                return cancelled_reach(g, op);
            }
            if g.threads[tid].resume {
                break;
            }
            g = self
                .cv
                .wait(g)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        let t = &mut g.threads[tid];
        t.resume = false;
        Reached {
            chan_closed: std::mem::take(&mut t.chan_closed),
        }
    }

    /// Marks the virtual thread finished and wakes the controller.
    fn finish(&self, tid: usize) {
        let mut g = lock_core(self);
        g.threads[tid].status = Status::Finished;
        self.cv.notify_all();
    }

    /// Records a production panic as the run's failure and cancels every
    /// other thread.
    pub(crate) fn record_panic(&self, tid: usize, payload: &(dyn std::any::Any + Send)) {
        let mut g = lock_core(self);
        if g.panic_failure.is_none() && !g.cancelled {
            g.panic_failure = Some((tid, panic_message(payload)));
        }
        cancel_locked(&mut g);
        self.cv.notify_all();
    }
}

/// Cancels a run in progress: wakes every parked thread so it can unwind.
fn cancel_locked(g: &mut Core) {
    g.cancelled = true;
    for t in &mut g.threads {
        t.resume = true;
    }
}

/// `reach` semantics once the run is cancelled: never block, keep Drop
/// paths consistent, and unwind threads that would otherwise wait forever.
fn cancelled_reach(mut g: MutexGuard<'_, Core>, op: Op) -> Reached {
    match op {
        // Drop-path effects still apply so other cancelled threads'
        // channel reads terminate
        Op::ChanCloseTx(c) => {
            g.chans[c].senders = g.chans[c].senders.saturating_sub(1);
        }
        Op::ChanRecv(_) => {
            // report "closed" so `while let` worker loops exit cleanly
            return Reached { chan_closed: true };
        }
        _ => {}
    }
    // Blocking ops would wait forever; atomics would let a spin loop
    // (`while flag.load() != 1 {}`) run hot forever. Both must unwind.
    // Unlock/notify/close stay silent: they run on Drop paths that must
    // complete for the unwind itself to make progress.
    let must_unwind = matches!(
        op,
        Op::MutexLock(_)
            | Op::CvWait { .. }
            | Op::Join(_)
            | Op::AtomicLoad(_)
            | Op::AtomicStore(_)
            | Op::AtomicFetchAdd(_)
    );
    if must_unwind && !std::thread::panicking() {
        drop(g);
        std::panic::panic_any(CancelToken);
    }
    Reached { chan_closed: true }
}

/// Real-thread entry point for a virtual thread: wait for the start
/// grant, run the body, report panics, mark finished.
fn thread_main(core: &Arc<RunCore>, tid: usize, body: Box<dyn FnOnce() + Send>) {
    let _ctx = set_ctx(Arc::clone(core), tid);
    if wait_for_start(core, tid) {
        if let Err(payload) = catch_unwind(AssertUnwindSafe(body)) {
            if payload.downcast_ref::<CancelToken>().is_none() {
                core.record_panic(tid, payload.as_ref());
            }
        }
    }
    core.finish(tid);
}

/// Scoped variant of [`thread_main`] for `run_threads` children (the body
/// borrows from the caller's stack, so it cannot be boxed `'static`).
pub(crate) fn scoped_thread_main<F: FnOnce()>(core: &Arc<RunCore>, tid: usize, body: F) {
    let _ctx = set_ctx(Arc::clone(core), tid);
    if wait_for_start(core, tid) {
        if let Err(payload) = catch_unwind(AssertUnwindSafe(body)) {
            if payload.downcast_ref::<CancelToken>().is_none() {
                core.record_panic(tid, payload.as_ref());
            }
        }
    }
    core.finish(tid);
}

/// Blocks until the controller grants [`Op::Start`]; false = cancelled
/// before ever starting (skip the body).
fn wait_for_start(core: &RunCore, tid: usize) -> bool {
    let mut g = lock_core(core);
    loop {
        if g.cancelled {
            return false;
        }
        if g.threads[tid].resume {
            g.threads[tid].resume = false;
            return true;
        }
        g = core
            .cv
            .wait(g)
            .unwrap_or_else(std::sync::PoisonError::into_inner);
    }
}

/// One free scheduling choice in a DFS prefix.
#[derive(Clone, Copy, Debug)]
struct Decision {
    chosen: usize,
    n: usize,
}

enum Mode<'a> {
    /// Replay `prefix`, then extend with first-choice decisions.
    Dfs { prefix: &'a mut Vec<Decision> },
    /// Follow a recorded decision list exactly.
    Replay { decisions: &'a [usize] },
    /// Uniform choices from a xorshift stream.
    Random { state: &'a mut u64 },
}

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

struct ScheduleOutcome {
    failure: Option<Failure>,
    trace: Vec<TraceStep>,
    decisions: Vec<usize>,
}

/// True when `op` can be granted in the current virtual state.
fn op_enabled(g: &Core, op: Op) -> bool {
    match op {
        Op::MutexLock(m) => g.mutexes[m].owner.is_none(),
        Op::ChanRecv(c) => g.chans[c].len > 0 || g.chans[c].senders == 0,
        Op::Join(t) => matches!(g.threads[t].status, Status::Finished),
        _ => true,
    }
}

/// Applies `op`'s effect on the virtual state at grant time. Returns
/// whether the granted thread is resumed (everything except `CvWait`,
/// which puts it to sleep instead).
fn apply_effect(g: &mut Core, tid: usize, op: Op) -> bool {
    match op {
        Op::MutexLock(m) => {
            g.mutexes[m].owner = Some(tid);
        }
        Op::MutexUnlock(m) => {
            g.mutexes[m].owner = None;
        }
        Op::CvWait { cv, mutex } => {
            g.mutexes[mutex].owner = None;
            g.cvs[cv].waiters.push_back(tid);
            let loc = match g.threads[tid].status {
                Status::Parked { loc, .. } => loc,
                _ => Location::caller(),
            };
            g.threads[tid].status = Status::Sleeping { cv, mutex, loc };
            return false;
        }
        Op::CvNotifyAll(c) => {
            while let Some(w) = g.cvs[c].waiters.pop_front() {
                wake_sleeper(g, w);
            }
        }
        Op::ChanSend(c) => {
            if g.chans[c].rx_alive {
                g.chans[c].len += 1;
                g.threads[tid].chan_closed = false;
            } else {
                g.threads[tid].chan_closed = true;
            }
        }
        Op::ChanRecv(c) => {
            if g.chans[c].len > 0 {
                g.chans[c].len -= 1;
                g.threads[tid].chan_closed = false;
            } else {
                // enabled with an empty queue only when every sender is gone
                g.threads[tid].chan_closed = true;
            }
        }
        Op::ChanCloseTx(c) => {
            g.chans[c].senders = g.chans[c].senders.saturating_sub(1);
        }
        Op::Start
        | Op::AtomicLoad(_)
        | Op::AtomicStore(_)
        | Op::AtomicFetchAdd(_)
        | Op::Join(_) => {}
    }
    true
}

/// Converts a sleeping cv waiter into a parked mutex-reacquire.
fn wake_sleeper(g: &mut Core, tid: usize) {
    let (mutex, loc) = match g.threads[tid].status {
        Status::Sleeping { mutex, loc, .. } => (mutex, loc),
        ref other => panic!("sia-sched: waking t{tid} in state {other:?}"),
    };
    g.threads[tid].status = Status::Parked {
        op: Op::MutexLock(mutex),
        loc,
    };
}

/// Runs one complete schedule of `body` under `mode`, returning the
/// outcome plus the free decisions actually taken.
fn run_schedule<F>(
    body: &Arc<F>,
    mut mode: Mode<'_>,
    bound: usize,
    max_steps: usize,
) -> ScheduleOutcome
where
    F: Fn() + Send + Sync + 'static,
{
    install_quiet_hook();
    let core = RunCore::new();
    let main_loc = Location::caller();
    let tid0 = core.register_thread("main", main_loc);
    let b = Arc::clone(body);
    let handle = core.spawn_thread(tid0, Box::new(move || b()));
    core.store_handle(handle);

    let mut decisions: Vec<usize> = Vec::new();
    let mut depth = 0usize;
    let mut last_ran: Option<usize> = None;
    let mut preemptions = 0usize;
    let mut failure: Option<Failure> = None;

    let mut g = lock_core(&core);
    'schedule: loop {
        // wait until the baton is back: no thread running
        while g
            .threads
            .iter()
            .any(|t| matches!(t.status, Status::Running))
            && g.panic_failure.is_none()
        {
            g = core
                .cv
                .wait(g)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        if let Some((tid, message)) = g.panic_failure.take() {
            failure = Some(Failure::Panic {
                thread: tid,
                message,
            });
            break 'schedule;
        }
        if g.threads
            .iter()
            .all(|t| matches!(t.status, Status::Finished))
        {
            break 'schedule;
        }
        if g.steps >= max_steps {
            failure = Some(Failure::Livelock { steps: max_steps });
            break 'schedule;
        }

        // candidates: parked AND enabled, in tid order (determinism)
        let candidates: Vec<usize> = (0..g.threads.len())
            .filter(|&t| match g.threads[t].status {
                Status::Parked { op, .. } => op_enabled(&g, op),
                _ => false,
            })
            .collect();

        if candidates.is_empty() {
            // quiescence with live threads: nothing can ever wake them
            let blocked: Vec<(usize, String, String)> = (0..g.threads.len())
                .filter_map(|t| match g.threads[t].status {
                    Status::Parked { op, .. } => {
                        Some((t, g.threads[t].name.clone(), op.describe()))
                    }
                    Status::Sleeping { cv, .. } => {
                        Some((t, g.threads[t].name.clone(), format!("cv#{cv}.wait")))
                    }
                    _ => None,
                })
                .collect();
            failure = Some(Failure::Deadlock { blocked });
            break 'schedule;
        }

        // CHESS preemption bound: once spent, stick with the last thread
        // while it remains enabled
        let forced = if preemptions >= bound {
            last_ran.filter(|lr| candidates.contains(lr))
        } else {
            None
        };
        let tid = if let Some(lr) = forced {
            lr
        } else if candidates.len() == 1 {
            candidates[0]
        } else {
            let n = candidates.len();
            let idx = match &mut mode {
                Mode::Dfs { prefix } => {
                    let idx = if depth < prefix.len() {
                        let d = prefix[depth];
                        assert!(
                            d.n == n,
                            "sia-sched: non-deterministic candidate count during DFS replay \
                             ({} then {n}) — the explored body must be deterministic",
                            d.n
                        );
                        d.chosen
                    } else {
                        prefix.push(Decision { chosen: 0, n });
                        0
                    };
                    depth += 1;
                    idx
                }
                Mode::Replay { decisions } => {
                    let idx = decisions.get(depth).copied().unwrap_or(0).min(n - 1);
                    depth += 1;
                    idx
                }
                Mode::Random { state } => (xorshift(state) % n as u64) as usize,
            };
            decisions.push(idx);
            candidates[idx]
        };
        if let Some(lr) = last_ran {
            if tid != lr && candidates.contains(&lr) {
                preemptions += 1;
            }
        }
        last_ran = Some(tid);

        let (op, loc) = match g.threads[tid].status {
            Status::Parked { op, loc } => (op, loc),
            ref other => panic!("sia-sched: granting t{tid} in state {other:?}"),
        };
        let name = g.threads[tid].name.clone();
        g.trace.push(TraceStep {
            thread: tid,
            name,
            op: op.describe(),
            location: format!("{}:{}", loc.file(), loc.line()),
        });
        g.steps += 1;
        if apply_effect(&mut g, tid, op) {
            g.threads[tid].status = Status::Running;
            g.threads[tid].resume = true;
            core.cv.notify_all();
        }
        // a CvWait grant leaves the baton here: loop for the next decision
    }

    let trace = std::mem::take(&mut g.trace);
    if failure.is_some() {
        cancel_locked(&mut g);
        core.cv.notify_all();
    }
    let handles = std::mem::take(&mut g.handles);
    drop(g);
    for handle in handles {
        let _ = handle.join();
    }
    // threads spawned after the failure snapshot still land in handles
    let late = std::mem::take(&mut lock_core(&core).handles);
    for handle in late {
        let _ = handle.join();
    }
    ScheduleOutcome {
        failure,
        trace,
        decisions,
    }
}

/// Exhaustive DFS schedule explorer with an iterated preemption bound.
///
/// `explore` enumerates every interleaving reachable with 0 preemptions,
/// then 1, … up to the configured bound, stopping at the first failure —
/// which therefore carries a minimal number of context switches.
#[derive(Clone, Copy, Debug)]
pub struct Explorer {
    max_preemptions: usize,
    max_steps: usize,
    max_schedules: usize,
}

impl Default for Explorer {
    fn default() -> Self {
        Explorer::new()
    }
}

impl Explorer {
    /// An explorer with preemption bound 2, [`DEFAULT_MAX_STEPS`] and
    /// [`DEFAULT_MAX_SCHEDULES`].
    #[must_use]
    pub fn new() -> Self {
        Explorer {
            max_preemptions: 2,
            max_steps: DEFAULT_MAX_STEPS,
            max_schedules: DEFAULT_MAX_SCHEDULES,
        }
    }

    /// Sets the preemption bound (iterated 0..=n).
    #[must_use]
    pub fn preemptions(mut self, n: usize) -> Self {
        self.max_preemptions = n;
        self
    }

    /// Sets the per-schedule step bound.
    #[must_use]
    pub fn max_steps(mut self, n: usize) -> Self {
        self.max_steps = n;
        self
    }

    /// Sets the schedule budget.
    #[must_use]
    pub fn max_schedules(mut self, n: usize) -> Self {
        self.max_schedules = n;
        self
    }

    /// Explores `body`'s interleavings. The body runs once per schedule
    /// on fresh virtual state; it must be deterministic apart from the
    /// scheduling the explorer controls.
    pub fn explore<F>(&self, body: F) -> Exploration
    where
        F: Fn() + Send + Sync + 'static,
    {
        let body = Arc::new(body);
        let mut schedules = 0usize;
        for bound in 0..=self.max_preemptions {
            let mut prefix: Vec<Decision> = Vec::new();
            loop {
                if schedules >= self.max_schedules {
                    return Exploration {
                        schedules,
                        truncated: true,
                        failure: None,
                    };
                }
                let run = run_schedule(
                    &body,
                    Mode::Dfs {
                        prefix: &mut prefix,
                    },
                    bound,
                    self.max_steps,
                );
                schedules += 1;
                if let Some(failure) = run.failure {
                    return Exploration {
                        schedules,
                        truncated: false,
                        failure: Some(FailureReport {
                            failure,
                            trace: run.trace,
                            decisions: run.decisions,
                            preemption_bound: bound,
                            seed: None,
                            schedule: schedules,
                        }),
                    };
                }
                // backtrack: drop exhausted tail decisions, advance the last
                while prefix.last().is_some_and(|d| d.chosen + 1 >= d.n) {
                    prefix.pop();
                }
                match prefix.last_mut() {
                    Some(last) => last.chosen += 1,
                    None => break,
                }
            }
        }
        Exploration {
            schedules,
            truncated: false,
            failure: None,
        }
    }

    /// Re-runs the exact interleaving a [`FailureReport`] describes and
    /// returns what that single schedule produced — the reproducibility
    /// check behind every failure this crate reports.
    pub fn replay<F>(&self, body: F, report: &FailureReport) -> Exploration
    where
        F: Fn() + Send + Sync + 'static,
    {
        let body = Arc::new(body);
        let run = run_schedule(
            &body,
            Mode::Replay {
                decisions: &report.decisions,
            },
            report.preemption_bound,
            self.max_steps,
        );
        Exploration {
            schedules: 1,
            truncated: false,
            failure: run.failure.map(|failure| FailureReport {
                failure,
                trace: run.trace,
                decisions: run.decisions,
                preemption_bound: report.preemption_bound,
                seed: report.seed,
                schedule: 1,
            }),
        }
    }
}

/// Seeded random-walk scheduler: probes deep interleavings the bounded
/// DFS frontier cannot reach, deterministically per seed.
#[derive(Clone, Copy, Debug)]
pub struct RandomWalk {
    seed: u64,
    schedules: usize,
    max_steps: usize,
}

impl RandomWalk {
    /// A walk of 256 schedules from `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        RandomWalk {
            seed: if seed == 0 {
                0x9E37_79B9_7F4A_7C15
            } else {
                seed
            },
            schedules: 256,
            max_steps: DEFAULT_MAX_STEPS,
        }
    }

    /// Sets how many random schedules to run.
    #[must_use]
    pub fn schedules(mut self, n: usize) -> Self {
        self.schedules = n;
        self
    }

    /// Sets the per-schedule step bound.
    #[must_use]
    pub fn max_steps(mut self, n: usize) -> Self {
        self.max_steps = n;
        self
    }

    /// Runs the walk; decisions are drawn uniformly from the enabled set.
    /// Failures report both the seed and the decision list, so they replay
    /// through [`Explorer::replay`] like any DFS finding.
    pub fn explore<F>(&self, body: F) -> Exploration
    where
        F: Fn() + Send + Sync + 'static,
    {
        let body = Arc::new(body);
        let mut state = self.seed;
        for i in 0..self.schedules {
            let run = run_schedule(
                &body,
                Mode::Random { state: &mut state },
                usize::MAX,
                self.max_steps,
            );
            if let Some(failure) = run.failure {
                return Exploration {
                    schedules: i + 1,
                    truncated: false,
                    failure: Some(FailureReport {
                        failure,
                        trace: run.trace,
                        decisions: run.decisions,
                        preemption_bound: usize::MAX,
                        seed: Some(self.seed),
                        schedule: i + 1,
                    }),
                };
            }
        }
        Exploration {
            schedules: self.schedules,
            truncated: false,
            failure: None,
        }
    }
}
