//! [`ModelSync`]: the [`SyncOps`] implementation whose every operation
//! yields to the deterministic scheduler in [`crate::explore`].
//!
//! Each virtual primitive pairs a tiny id into the controller's object
//! arena with a *real* `std` primitive holding the actual data. The
//! virtual side is what the controller reasons about (ownership, wait
//! queues, channel lengths, enabledness); the real side is touched only
//! *after* a grant, while the granted thread is the only one running, so
//! it is always uncontended and always consistent with the virtual
//! bookkeeping. That split keeps the checker `unsafe`-free: data flows
//! through ordinary `std` containers, and only scheduling is simulated.

use std::panic::Location;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, MutexGuard};

use crate::explore::{self, Op};
use crate::sync::{
    AtomicUsizeApi, CondvarApi, JoinHandleApi, MutexApi, ReceiverApi, SenderApi, SyncOps,
};

/// The checker's [`SyncOps`]: every operation is a scheduling point.
/// Usable only inside [`crate::Explorer::explore`] /
/// [`crate::RandomWalk::explore`] bodies.
#[derive(Clone, Copy, Debug, Default)]
pub struct ModelSync;

fn real_lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A checked mutex: virtual ownership plus a real `std` mutex for data.
#[derive(Debug)]
pub struct VMutex<T> {
    id: usize,
    data: Mutex<T>,
}

/// Guard for [`VMutex`]; unlocking (drop) is itself a scheduling point,
/// attributed to the acquisition site.
pub struct VMutexGuard<'a, T: Send> {
    vm: &'a VMutex<T>,
    inner: Option<MutexGuard<'a, T>>,
    loc: &'static Location<'static>,
}

impl<T: Send> VMutexGuard<'_, T> {
    fn inner(&self) -> &MutexGuard<'_, T> {
        self.inner
            .as_ref()
            .unwrap_or_else(|| panic!("sia-sched internal: guard used after release"))
    }
}

impl<T: Send> std::ops::Deref for VMutexGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        self.inner()
    }
}

impl<T: Send> std::ops::DerefMut for VMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner
            .as_mut()
            .unwrap_or_else(|| panic!("sia-sched internal: guard used after release"))
    }
}

impl<T: Send> Drop for VMutexGuard<'_, T> {
    fn drop(&mut self) {
        self.inner = None; // release the real mutex first
        if let Some((core, tid)) = explore::try_cur() {
            core.reach(tid, Op::MutexUnlock(self.vm.id), self.loc);
        }
    }
}

impl<T: Send> MutexApi<T> for VMutex<T> {
    type Guard<'a>
        = VMutexGuard<'a, T>
    where
        T: 'a;

    fn lock(&self) -> VMutexGuard<'_, T> {
        let loc = Location::caller();
        let (core, tid) = explore::cur();
        core.reach(tid, Op::MutexLock(self.id), loc);
        // the grant made this thread the virtual owner, so the real lock
        // below is uncontended (every other would-be holder is parked)
        VMutexGuard {
            vm: self,
            inner: Some(real_lock(&self.data)),
            loc,
        }
    }

    fn into_inner(self) -> T {
        self.data
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// A checked condvar: a FIFO wait queue in the controller arena.
#[derive(Debug)]
pub struct VCondvar {
    id: usize,
}

impl CondvarApi<ModelSync> for VCondvar {
    fn wait<'a, T: Send + 'a>(&self, mut guard: VMutexGuard<'a, T>) -> VMutexGuard<'a, T> {
        let loc = Location::caller();
        let (core, tid) = explore::cur();
        let vm = guard.vm;
        let lock_loc = guard.loc;
        // hand the real mutex back before parking: the controller releases
        // the *virtual* mutex at the grant, and the next virtual owner must
        // find the real one free. The guard itself is forgotten so its
        // Drop does not report a second (spurious) unlock.
        guard.inner = None;
        std::mem::forget(guard);
        core.reach(
            tid,
            Op::CvWait {
                cv: self.id,
                mutex: vm.id,
            },
            loc,
        );
        // reach returned ⇒ this thread was notified and then granted the
        // mutex re-acquire; take the real lock to match
        VMutexGuard {
            vm,
            inner: Some(real_lock(&vm.data)),
            loc: lock_loc,
        }
    }

    fn notify_all(&self) {
        let loc = Location::caller();
        let (core, tid) = explore::cur();
        core.reach(tid, Op::CvNotifyAll(self.id), loc);
    }
}

/// A checked atomic: each access is a scheduling point, so orderings the
/// real hardware could exhibit between *separate* accesses are explored
/// (a single `fetch_add` stays atomic — splitting it into `load`+`store`
/// is exactly the mutant the checker is proven to catch).
#[derive(Debug)]
pub struct VAtomicUsize {
    id: usize,
    v: std::sync::atomic::AtomicUsize,
}

impl AtomicUsizeApi for VAtomicUsize {
    fn load(&self, ord: Ordering) -> usize {
        let loc = Location::caller();
        let (core, tid) = explore::cur();
        core.reach(tid, Op::AtomicLoad(self.id), loc);
        self.v.load(ord)
    }

    fn store(&self, value: usize, ord: Ordering) {
        let loc = Location::caller();
        let (core, tid) = explore::cur();
        core.reach(tid, Op::AtomicStore(self.id), loc);
        self.v.store(value, ord);
    }

    fn fetch_add(&self, value: usize, ord: Ordering) -> usize {
        let loc = Location::caller();
        let (core, tid) = explore::cur();
        core.reach(tid, Op::AtomicFetchAdd(self.id), loc);
        self.v.fetch_add(value, ord)
    }
}

#[derive(Debug)]
struct VChan<T> {
    id: usize,
    q: Mutex<std::collections::VecDeque<T>>,
}

/// Sending half of a checked channel. Dropping it is a scheduling point
/// (`close_tx`): receivers parked on an empty queue become enabled and
/// observe disconnection, exactly like `std::sync::mpsc`.
#[derive(Debug)]
pub struct VSender<T: Send> {
    chan: Arc<VChan<T>>,
}

impl<T: Send> SenderApi<T> for VSender<T> {
    fn send(&self, value: T) -> bool {
        let loc = Location::caller();
        let (core, tid) = explore::cur();
        let reached = core.reach(tid, Op::ChanSend(self.chan.id), loc);
        if reached.chan_closed {
            return false;
        }
        real_lock(&self.chan.q).push_back(value);
        true
    }
}

impl<T: Send> Drop for VSender<T> {
    fn drop(&mut self) {
        if let Some((core, tid)) = explore::try_cur() {
            core.reach(tid, Op::ChanCloseTx(self.chan.id), Location::caller());
        }
    }
}

/// Receiving half of a checked channel.
#[derive(Debug)]
pub struct VReceiver<T: Send> {
    chan: Arc<VChan<T>>,
}

impl<T: Send> ReceiverApi<T> for VReceiver<T> {
    fn recv(&self) -> Option<T> {
        let loc = Location::caller();
        let (core, tid) = explore::cur();
        let reached = core.reach(tid, Op::ChanRecv(self.chan.id), loc);
        if reached.chan_closed {
            return None;
        }
        Some(
            real_lock(&self.chan.q)
                .pop_front()
                .unwrap_or_else(|| panic!("sia-sched internal: recv granted on an empty channel")),
        )
    }
}

impl<T: Send> Drop for VReceiver<T> {
    fn drop(&mut self) {
        // not a scheduling point: pending sends simply start reporting
        // disconnection from here on
        if let Some((core, _)) = explore::try_cur() {
            core.chan_rx_drop(self.chan.id);
        }
    }
}

/// Join handle for a checked detached thread; `join` parks until the
/// target virtual thread finishes.
#[derive(Debug)]
pub struct VJoinHandle {
    tid: usize,
}

impl JoinHandleApi for VJoinHandle {
    fn join(self) {
        let loc = Location::caller();
        let (core, tid) = explore::cur();
        core.reach(tid, Op::Join(self.tid), loc);
    }
}

impl SyncOps for ModelSync {
    type Mutex<T: Send> = VMutex<T>;
    type Condvar = VCondvar;
    type AtomicUsize = VAtomicUsize;
    type Sender<T: Send> = VSender<T>;
    type Receiver<T: Send> = VReceiver<T>;
    type JoinHandle = VJoinHandle;

    fn mutex<T: Send>(value: T) -> VMutex<T> {
        let (core, _) = explore::cur();
        VMutex {
            id: core.alloc_mutex(),
            data: Mutex::new(value),
        }
    }

    fn condvar() -> VCondvar {
        let (core, _) = explore::cur();
        VCondvar {
            id: core.alloc_cv(),
        }
    }

    fn atomic_usize(value: usize) -> VAtomicUsize {
        let (core, _) = explore::cur();
        VAtomicUsize {
            id: core.alloc_atomic(),
            v: std::sync::atomic::AtomicUsize::new(value),
        }
    }

    fn channel<T: Send>() -> (VSender<T>, VReceiver<T>) {
        let (core, _) = explore::cur();
        let chan = Arc::new(VChan {
            id: core.alloc_chan(),
            q: Mutex::new(std::collections::VecDeque::new()),
        });
        (
            VSender {
                chan: Arc::clone(&chan),
            },
            VReceiver { chan },
        )
    }

    fn spawn<F: FnOnce() + Send + 'static>(name: &str, f: F) -> VJoinHandle {
        let loc = Location::caller();
        let (core, _) = explore::cur();
        // registration happens while the spawner holds the baton, so the
        // controller's candidate set grows at a deterministic point; the
        // real thread parks at Op::Start until first granted
        let tid = core.register_thread(name, loc);
        let handle = core.spawn_thread(tid, Box::new(f));
        core.store_handle(handle);
        VJoinHandle { tid }
    }

    fn run_threads<F: Fn(usize) + Sync>(n: usize, f: F) {
        let loc = Location::caller();
        let (core, self_tid) = explore::cur();
        if n <= 1 {
            f(0);
            return;
        }
        let child_tids: Vec<usize> = (1..n)
            .map(|w| core.register_thread(&format!("worker-{w}"), loc))
            .collect();
        let mut body_panic: Option<Box<dyn std::any::Any + Send>> = None;
        std::thread::scope(|scope| {
            for (w, &tid) in (1..n).zip(&child_tids) {
                let core = Arc::clone(&core);
                let f = &f;
                std::thread::Builder::new()
                    .name(format!("sia-sched-t{tid}"))
                    .spawn_scoped(scope, move || {
                        explore::scoped_thread_main(&core, tid, || f(w));
                    })
                    .unwrap_or_else(|e| panic!("sia-sched: spawning scoped thread: {e}"));
            }
            // the caller is logical thread 0, mirroring StdSync::run_threads
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(0))) {
                Ok(()) => {
                    // virtual joins park the caller so children get scheduled;
                    // the scope's real join below is then instantaneous
                    for &tid in &child_tids {
                        core.reach(self_tid, Op::Join(tid), loc);
                    }
                }
                Err(payload) => {
                    if payload.downcast_ref::<explore::CancelToken>().is_none() {
                        core.record_panic(self_tid, payload.as_ref());
                    }
                    body_panic = Some(payload);
                }
            }
        });
        if let Some(payload) = body_panic {
            // the failure (if any) is recorded; unwind quietly so the
            // cancelled schedule tears down like every other thread
            drop(payload);
            std::panic::panic_any(explore::CancelToken);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::{Explorer, Failure, RandomWalk};

    /// Two threads each lock A then B — no deadlock, schedules > 1.
    #[test]
    fn consistent_lock_order_passes() {
        let result = Explorer::new().explore(|| {
            let a = Arc::new(ModelSync::mutex(0u32));
            let b = Arc::new(ModelSync::mutex(0u32));
            let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
            let h = ModelSync::spawn("t1", move || {
                let _ga = a2.lock();
                let _gb = b2.lock();
            });
            {
                let _ga = a.lock();
                let _gb = b.lock();
            }
            h.join();
        });
        result.assert_pass("consistent lock order");
        assert!(result.schedules > 1, "expected multiple schedules");
    }

    /// Classic ABBA inversion — the checker must find the deadlock and
    /// the report must replay to the same failure.
    #[test]
    fn lock_order_inversion_caught_and_replayable() {
        let body = || {
            let a = Arc::new(ModelSync::mutex(0u32));
            let b = Arc::new(ModelSync::mutex(0u32));
            let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
            let h = ModelSync::spawn("t1", move || {
                let _gb = b2.lock();
                let _ga = a2.lock();
            });
            {
                let _ga = a.lock();
                let _gb = b.lock();
            }
            h.join();
        };
        let result = Explorer::new().explore(body);
        let report = result.expect_failure("ABBA");
        assert!(matches!(report.failure, Failure::Deadlock { .. }));
        assert!(!report.trace.is_empty(), "trace must show the interleaving");
        let replay = Explorer::new().replay(body, report);
        let replayed = replay.expect_failure("ABBA replay");
        assert!(matches!(replayed.failure, Failure::Deadlock { .. }));
    }

    /// An invariant violation (assert) is attributed to its schedule.
    #[test]
    fn racy_read_modify_write_caught() {
        let body = || {
            let n = Arc::new(ModelSync::atomic_usize(0));
            let n2 = Arc::clone(&n);
            let h = ModelSync::spawn("t1", move || {
                let v = n2.load(Ordering::SeqCst);
                n2.store(v + 1, Ordering::SeqCst);
            });
            let v = n.load(Ordering::SeqCst);
            n.store(v + 1, Ordering::SeqCst);
            h.join();
            assert_eq!(n.load(Ordering::SeqCst), 2, "lost update");
        };
        let report_kind = {
            let result = Explorer::new().explore(body);
            result.expect_failure("lost update").failure.kind()
        };
        assert_eq!(report_kind, "panic");
        // fetch_add has no such window
        Explorer::new()
            .explore(|| {
                let n = Arc::new(ModelSync::atomic_usize(0));
                let n2 = Arc::clone(&n);
                let h = ModelSync::spawn("t1", move || {
                    n2.fetch_add(1, Ordering::SeqCst);
                });
                n.fetch_add(1, Ordering::SeqCst);
                h.join();
                assert_eq!(n.load(Ordering::SeqCst), 2);
            })
            .assert_pass("fetch_add");
    }

    /// Producer/consumer over the checked channel, including disconnect.
    #[test]
    fn channel_send_recv_close() {
        Explorer::new()
            .explore(|| {
                let (tx, rx) = ModelSync::channel::<u32>();
                let h = ModelSync::spawn("producer", move || {
                    assert!(tx.send(1));
                    assert!(tx.send(2));
                });
                assert_eq!(rx.recv(), Some(1));
                assert_eq!(rx.recv(), Some(2));
                assert_eq!(rx.recv(), None, "disconnect must surface as None");
                h.join();
            })
            .assert_pass("channel");
    }

    /// A wait with no notifier is a deadlock (lost-wakeup shape).
    #[test]
    fn lost_wakeup_is_deadlock() {
        let result = Explorer::new().explore(|| {
            let m = ModelSync::mutex(false);
            let cv = ModelSync::condvar();
            let g = m.lock();
            let _g = cv.wait(g);
        });
        let report = result.expect_failure("un-notified wait");
        assert!(matches!(report.failure, Failure::Deadlock { .. }));
    }

    /// run_threads explores all interleavings and propagates failures.
    #[test]
    fn run_threads_schedules_workers() {
        Explorer::new()
            .explore(|| {
                let hits = Arc::new(ModelSync::mutex([false; 3]));
                let h2 = Arc::clone(&hits);
                ModelSync::run_threads(3, move |w| {
                    h2.lock()[w] = true;
                });
                assert_eq!(*hits.lock(), [true; 3], "every worker index must run");
            })
            .assert_pass("run_threads");
    }

    /// The same seed explores the same schedules.
    #[test]
    fn random_walk_is_seed_deterministic() {
        let run = |seed: u64| {
            RandomWalk::new(seed).schedules(16).explore(|| {
                let a = Arc::new(ModelSync::mutex(0u32));
                let b = Arc::new(ModelSync::mutex(0u32));
                let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
                let h = ModelSync::spawn("t1", move || {
                    let _gb = b2.lock();
                    let _ga = a2.lock();
                });
                {
                    let _ga = a.lock();
                    let _gb = b.lock();
                }
                h.join();
            })
        };
        let (r1, r2) = (run(42), run(42));
        assert_eq!(r1.schedules, r2.schedules);
        match (&r1.failure, &r2.failure) {
            (Some(f1), Some(f2)) => assert_eq!(f1.decisions, f2.decisions),
            (None, None) => {}
            _ => panic!("same seed diverged"),
        }
    }
}
