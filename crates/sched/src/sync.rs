//! The [`SyncOps`] sync-primitive abstraction and its production
//! implementation, [`StdSync`].
//!
//! Every concurrency protocol in the workspace (`sia_tensor::pool`,
//! `sia_snn::EnginePool` — which `sia_serve`'s connection threads submit
//! to directly — and `sia_serve::ModelRegistry`) is generic over
//! `S: SyncOps` with [`StdSync`] as the default type parameter. [`StdSync`] is a
//! passthrough: its mutex *is* `std::sync::Mutex`, its condvar *is*
//! `std::sync::Condvar`, its atomics are `std`'s — monomorphisation
//! compiles the shim away entirely. The one semantic it adds is uniform
//! **poison-stripping** on lock acquisition (`PoisonError::into_inner`),
//! which every protocol previously spelled out by hand at each call site:
//! a panicking thread must never take the whole serving layer down with a
//! poisoned-lock panic cascade.
//!
//! The checker implementation, [`crate::ModelSync`], routes every one of
//! these operations through a deterministic cooperative scheduler instead
//! — see [`crate::explore`].

use std::sync::atomic::Ordering;
use std::sync::mpsc;

/// A mutex that yields plain guards (poison is stripped, never surfaced).
pub trait MutexApi<T: Send>: Send + Sync {
    /// The guard type; dereferences to the protected value.
    type Guard<'a>: std::ops::DerefMut<Target = T>
    where
        Self: 'a,
        T: 'a;

    /// Acquires the lock, blocking the calling thread until available.
    #[track_caller]
    fn lock(&self) -> Self::Guard<'_>;

    /// Consumes the mutex and returns the protected value.
    fn into_inner(self) -> T;
}

/// A condition variable over the matching [`SyncOps::Mutex`] guards.
pub trait CondvarApi<S: SyncOps>: Send + Sync {
    /// Atomically releases the guard and blocks until notified, then
    /// re-acquires and returns the guard. Callers must re-check their
    /// predicate in a loop (spurious wakeups are permitted).
    #[track_caller]
    fn wait<'a, T: Send + 'a>(
        &self,
        guard: <S::Mutex<T> as MutexApi<T>>::Guard<'a>,
    ) -> <S::Mutex<T> as MutexApi<T>>::Guard<'a>
    where
        S::Mutex<T>: 'a;

    /// Wakes every waiter.
    #[track_caller]
    fn notify_all(&self);
}

/// A shared `usize` atomic (the work-stealing cursor's whole vocabulary).
///
/// The `Ordering` argument is passed through to `std` in production; the
/// checker records it in the trace and executes under its sequentialised
/// schedule (which is at least as strong as any ordering requested).
pub trait AtomicUsizeApi: Send + Sync {
    /// Loads the value.
    #[track_caller]
    fn load(&self, ord: Ordering) -> usize;

    /// Stores a value.
    #[track_caller]
    fn store(&self, value: usize, ord: Ordering);

    /// Adds to the value, returning the previous value.
    #[track_caller]
    fn fetch_add(&self, value: usize, ord: Ordering) -> usize;
}

/// The sending half of an unbounded channel.
pub trait SenderApi<T: Send>: Send + Sync {
    /// Sends a value; `false` if the receiver is gone (value dropped).
    #[track_caller]
    fn send(&self, value: T) -> bool;
}

/// The receiving half of an unbounded channel.
pub trait ReceiverApi<T: Send>: Send {
    /// Blocks for the next value; `None` once every sender is dropped and
    /// the queue is drained.
    #[track_caller]
    fn recv(&self) -> Option<T>;
}

/// A join handle for a detached (non-scoped) thread.
pub trait JoinHandleApi: Send {
    /// Waits for the thread to finish. A panic on the joined thread has
    /// already been reported through its own channel of effects; `join`
    /// itself never re-raises it.
    #[track_caller]
    fn join(self);
}

/// The sync-primitive vocabulary the workspace's concurrency protocols
/// are written against. See the [module docs](self) for the two
/// implementations and why production code is generic over this.
pub trait SyncOps: Sized + Send + Sync + 'static {
    /// Mutex type.
    type Mutex<T: Send>: MutexApi<T>;
    /// Condvar type, paired with [`SyncOps::Mutex`] guards.
    type Condvar: CondvarApi<Self>;
    /// Shared `usize` atomic.
    type AtomicUsize: AtomicUsizeApi;
    /// Unbounded channel sender.
    type Sender<T: Send>: SenderApi<T>;
    /// Unbounded channel receiver.
    type Receiver<T: Send>: ReceiverApi<T>;
    /// Detached-thread join handle.
    type JoinHandle: JoinHandleApi;

    /// Creates a mutex.
    fn mutex<T: Send>(value: T) -> Self::Mutex<T>;

    /// Creates a condvar.
    fn condvar() -> Self::Condvar;

    /// Creates an atomic.
    fn atomic_usize(value: usize) -> Self::AtomicUsize;

    /// Creates an unbounded channel.
    fn channel<T: Send>() -> (Self::Sender<T>, Self::Receiver<T>);

    /// Spawns a detached named thread.
    #[track_caller]
    fn spawn<F: FnOnce() + Send + 'static>(name: &str, f: F) -> Self::JoinHandle;

    /// Runs `f(0)..f(n-1)` on `n` concurrent logical threads and returns
    /// once all complete. `f(0)` may run on the calling thread; `n <= 1`
    /// runs inline with zero spawn overhead. Panics in any `f` propagate.
    #[track_caller]
    fn run_threads<F: Fn(usize) + Sync>(n: usize, f: F);
}

/// The production [`SyncOps`]: `std` primitives, passed through.
///
/// Zero-cost by construction — the associated types *are* the `std`
/// types, so after monomorphisation a protocol instantiated at `StdSync`
/// compiles to exactly the code it would have been written as directly.
/// Lock acquisition strips poison ([`std::sync::PoisonError::into_inner`])
/// so a panicked worker degrades into an error response, not a panic
/// cascade through every thread that shares the lock.
#[derive(Clone, Copy, Debug, Default)]
pub struct StdSync;

impl<T: Send> MutexApi<T> for std::sync::Mutex<T> {
    type Guard<'a>
        = std::sync::MutexGuard<'a, T>
    where
        T: 'a;

    fn lock(&self) -> std::sync::MutexGuard<'_, T> {
        std::sync::Mutex::lock(self).unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn into_inner(self) -> T {
        std::sync::Mutex::into_inner(self).unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

impl CondvarApi<StdSync> for std::sync::Condvar {
    fn wait<'a, T: Send + 'a>(
        &self,
        guard: std::sync::MutexGuard<'a, T>,
    ) -> std::sync::MutexGuard<'a, T> {
        std::sync::Condvar::wait(self, guard).unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn notify_all(&self) {
        std::sync::Condvar::notify_all(self);
    }
}

impl AtomicUsizeApi for std::sync::atomic::AtomicUsize {
    fn load(&self, ord: Ordering) -> usize {
        std::sync::atomic::AtomicUsize::load(self, ord)
    }

    fn store(&self, value: usize, ord: Ordering) {
        std::sync::atomic::AtomicUsize::store(self, value, ord);
    }

    fn fetch_add(&self, value: usize, ord: Ordering) -> usize {
        std::sync::atomic::AtomicUsize::fetch_add(self, value, ord)
    }
}

impl<T: Send> SenderApi<T> for mpsc::Sender<T> {
    fn send(&self, value: T) -> bool {
        mpsc::Sender::send(self, value).is_ok()
    }
}

impl<T: Send> ReceiverApi<T> for mpsc::Receiver<T> {
    fn recv(&self) -> Option<T> {
        mpsc::Receiver::recv(self).ok()
    }
}

impl JoinHandleApi for std::thread::JoinHandle<()> {
    fn join(self) {
        let _ = std::thread::JoinHandle::join(self);
    }
}

impl SyncOps for StdSync {
    type Mutex<T: Send> = std::sync::Mutex<T>;
    type Condvar = std::sync::Condvar;
    type AtomicUsize = std::sync::atomic::AtomicUsize;
    type Sender<T: Send> = mpsc::Sender<T>;
    type Receiver<T: Send> = mpsc::Receiver<T>;
    type JoinHandle = std::thread::JoinHandle<()>;

    fn mutex<T: Send>(value: T) -> std::sync::Mutex<T> {
        std::sync::Mutex::new(value)
    }

    fn condvar() -> std::sync::Condvar {
        std::sync::Condvar::new()
    }

    fn atomic_usize(value: usize) -> std::sync::atomic::AtomicUsize {
        std::sync::atomic::AtomicUsize::new(value)
    }

    fn channel<T: Send>() -> (mpsc::Sender<T>, mpsc::Receiver<T>) {
        mpsc::channel()
    }

    fn spawn<F: FnOnce() + Send + 'static>(name: &str, f: F) -> std::thread::JoinHandle<()> {
        std::thread::Builder::new()
            .name(name.to_string())
            .spawn(f)
            .unwrap_or_else(|e| panic!("spawning thread '{name}': {e}"))
    }

    fn run_threads<F: Fn(usize) + Sync>(n: usize, f: F) {
        if n <= 1 {
            f(0);
            return;
        }
        std::thread::scope(|scope| {
            for w in 1..n {
                let f = &f;
                scope.spawn(move || f(w));
            }
            // the calling thread is logical thread 0 (one spawn fewer)
            f(0);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn std_mutex_and_condvar_round_trip() {
        let m = StdSync::mutex(0u32);
        // inherent std methods shadow the trait's; call through the trait
        *MutexApi::lock(&m) += 41;
        *MutexApi::lock(&m) += 1;
        assert_eq!(MutexApi::into_inner(m), 42);
    }

    #[test]
    fn std_channel_and_spawn() {
        let (tx, rx) = StdSync::channel::<u32>();
        let handle = StdSync::spawn("sched-test", move || {
            assert!(SenderApi::send(&tx, 7));
        });
        assert_eq!(ReceiverApi::recv(&rx), Some(7));
        assert_eq!(ReceiverApi::recv(&rx), None);
        JoinHandleApi::join(handle);
    }

    #[test]
    fn std_run_threads_runs_every_index() {
        let hits: Vec<std::sync::atomic::AtomicUsize> =
            (0..4).map(|_| StdSync::atomic_usize(0)).collect();
        StdSync::run_threads(4, |w| {
            hits[w].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn poison_is_stripped() {
        let m = Arc::new(StdSync::mutex(1u32));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison it");
        })
        .join();
        // a poisoned std mutex still yields its guard through the shim
        assert_eq!(*MutexApi::lock(&*m), 1);
    }
}
