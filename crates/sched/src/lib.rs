//! Deterministic schedule-exploring concurrency checker for the pool/serve
//! stack — the `sia check` idea (static verification gating the runtime)
//! extended from the datapath to the scheduler.
//!
//! The repo's headline guarantee — bit-exact, thread-count-independent
//! inference — rests on three hand-rolled concurrency protocols: the
//! `sia_tensor::pool` work-stealing cursor, the `EnginePool` submission
//! queue (which serving's connection threads submit to concurrently), and
//! the `ModelRegistry` hot-swap path. "Threads 1 vs 4 agree on the schedule
//! the OS happened to pick" is not verification; this crate makes the
//! *space of schedules* the thing under test.
//!
//! Two halves:
//!
//! * [`sync`] — a small sync-primitive abstraction, [`SyncOps`]: `Mutex`,
//!   `Condvar`, atomics, channels and spawn/join. The
//!   [`StdSync`] implementation is a zero-cost passthrough to `std` (plus
//!   poison-stripping, which the protocols all did by hand anyway) — it is
//!   what production binaries run. The protocols above are generic over
//!   `S: SyncOps` with `StdSync` as the default type parameter, so no call
//!   site changed.
//! * [`explore`] + [`model`] — [`ModelSync`], an implementation whose
//!   every operation yields to a deterministic cooperative scheduler, and
//!   [`Explorer`], which enumerates thread interleavings by DFS with a
//!   CHESS-style bounded number of preemptions (plus a seeded random-walk
//!   mode for depth beyond the exhaustive frontier). Because the protocols
//!   are generic over the shim, the **production code itself** — not a
//!   hand-maintained model of it — runs under the checker.
//!
//! The checker detects:
//!
//! * **deadlock** — every live virtual thread blocked (this is also how a
//!   *lost wakeup* manifests: a consumer asleep forever while work sits
//!   queued),
//! * **livelock / runaway loops** — via a per-schedule step bound,
//! * **protocol-invariant violations** — any panic (a failed `assert!`)
//!   inside the explored body is caught and attributed to its schedule.
//!
//! On failure the [`FailureReport`] carries the full schedule trace —
//! thread × operation × source location (via `#[track_caller]` on the
//! shim) — and the decision list that reproduces it: replaying the same
//! decisions through [`Explorer::replay`] re-runs the exact interleaving.
//! Exhaustive exploration iterates the preemption bound from zero upward,
//! so the first failure found is one with a *minimal* number of context
//! switches — the closest thing to a minimized counterexample a schedule
//! explorer can offer.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod explore;
pub mod model;
pub mod sync;

pub use explore::{
    Exploration, Explorer, Failure, FailureReport, RandomWalk, TraceStep, DEFAULT_MAX_SCHEDULES,
    DEFAULT_MAX_STEPS,
};
pub use model::ModelSync;
pub use sync::{
    AtomicUsizeApi, CondvarApi, JoinHandleApi, MutexApi, ReceiverApi, SenderApi, StdSync, SyncOps,
};
