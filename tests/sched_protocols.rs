//! Schedule exploration of the production concurrency protocols — the
//! `sia_tensor::pool` cursor, the `EnginePool` submission queue (one batch,
//! and two threads submitting concurrently, as `sia serve`'s connection
//! threads do) and the `ModelRegistry` hot-swap path — plus the mutant
//! self-tests proving the checker actually catches the bug classes it
//! claims to.
//!
//! Every protocol test runs the *production* generic code instantiated at
//! `ModelSync` under exhaustive DFS with bounded preemptions (small
//! configurations: 2–3 virtual threads, 2–4 operations), then a seeded
//! random-walk pass for depth where the exhaustive space is too large
//! (two submitters on a two-worker pool). The mutants are small seeded bugs —
//! dropped notify, split read-modify-write, inverted lock order, missing
//! re-check after wait, close-without-notify, double-complete — each
//! proven caught with a non-empty, replayable schedule trace.

use sia_sched::{
    AtomicUsizeApi, CondvarApi, Exploration, Explorer, Failure, FailureReport, JoinHandleApi,
    ModelSync, MutexApi, RandomWalk, SyncOps,
};
use sia_serve::{LoadedModel, ModelRegistry};
use sia_snn::{
    convert, ConvertOptions, EnginePool, EvalBatch, EvalEncoding, IntEngineFactory, SnnNetwork,
};
use sia_tensor::{pool, Conv2dGeom, Tensor};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

// ---------------------------------------------------------------------------
// helpers

/// A failure report must be replayable: re-running its exact decision list
/// reproduces the same failure kind. Every mutant asserts through this.
fn assert_replayable<F>(body: F, report: &FailureReport, what: &str)
where
    F: Fn() + Send + Sync + 'static,
{
    assert!(
        !report.trace.is_empty(),
        "{what}: failure must carry a schedule trace"
    );
    let replay = Explorer::new().replay(body, report);
    let replayed = replay.expect_failure(&format!("{what}: replay"));
    assert_eq!(
        replayed.failure.kind(),
        report.failure.kind(),
        "{what}: replay must reproduce the same failure kind"
    );
}

fn tiny_net() -> Arc<SnnNetwork> {
    static NET: OnceLock<Arc<SnnNetwork>> = OnceLock::new();
    Arc::clone(NET.get_or_init(|| {
        let geom = Conv2dGeom {
            in_channels: 2,
            out_channels: 3,
            in_h: 6,
            in_w: 6,
            kernel: 3,
            stride: 2,
            padding: 1,
        };
        let spec = sia_nn::NetworkSpec {
            name: "sched-protocols".into(),
            input: (2, 6, 6),
            items: vec![
                sia_nn::SpecItem::Conv(sia_nn::ConvSpec {
                    geom,
                    weights: Tensor::from_vec(
                        vec![3, 2, 3, 3],
                        (0..54).map(|i| ((i % 7) as f32 - 3.0) * 0.1).collect(),
                    ),
                    bn: None,
                    act: Some(sia_nn::ActSpec {
                        levels: 8,
                        step: 1.0,
                    }),
                }),
                sia_nn::SpecItem::GlobalAvgPool,
                sia_nn::SpecItem::Linear(sia_nn::LinearSpec {
                    in_features: 3,
                    out_features: 4,
                    weights: Tensor::from_vec(
                        vec![4, 3],
                        (0..12).map(|i| ((i % 5) as f32 - 2.0) * 0.3).collect(),
                    ),
                    bias: vec![0.0; 4],
                }),
            ],
        };
        Arc::new(convert(&spec, &ConvertOptions::default()))
    }))
}

fn tiny_images(n: usize) -> Vec<Tensor> {
    (0..n)
        .map(|i| {
            Tensor::from_vec(
                vec![2, 6, 6],
                (0..72)
                    .map(|j| (((i * 31 + j * 7) % 11) as f32) * 0.1)
                    .collect(),
            )
        })
        .collect()
}

// ---------------------------------------------------------------------------
// protocol 1: the sia_tensor::pool work-stealing cursor

#[test]
fn pool_cursor_explored_exhaustively() {
    let result = Explorer::new().preemptions(2).explore(|| {
        let hits: Vec<AtomicUsize> = (0..3).map(|_| AtomicUsize::new(0)).collect();
        pool::for_each_in::<ModelSync, _>(3, 2, |t| {
            hits[t].fetch_add(1, Ordering::Relaxed);
        });
        // the protocol invariant: every task claimed exactly once
        for (t, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "task {t} claim count");
        }
    });
    result.assert_pass("pool::for_each cursor");
    assert!(result.schedules > 1, "cursor contention must branch");
}

#[test]
fn pool_parallel_map_preserves_index_order_under_every_schedule() {
    Explorer::new()
        .preemptions(2)
        .explore(|| {
            let out =
                pool::parallel_map_with_in::<ModelSync, _, _, _, _>(4, 2, || (), |(), t| t * 10);
            // index-order reduction regardless of which worker computed what
            assert_eq!(out, vec![0, 10, 20, 30]);
        })
        .assert_pass("pool::parallel_map index order");
}

// ---------------------------------------------------------------------------
// protocol 2: the EnginePool submission queue

fn eval_params() -> EvalBatch {
    EvalBatch {
        timesteps: 2,
        burn_in: 0,
        encoding: EvalEncoding::Dense,
        exit: sia_snn::ExitPolicy::Fixed,
    }
}

/// Sequential reference run, computed once *outside* exploration on the
/// production [`StdSync`] backend.
fn expected_engine_logits() -> &'static Vec<Vec<Vec<f32>>> {
    static EXPECTED: OnceLock<Vec<Vec<Vec<f32>>>> = OnceLock::new();
    EXPECTED.get_or_init(|| {
        let pool = EnginePool::new(IntEngineFactory::new(tiny_net()), 1);
        pool.submit(tiny_images(2), eval_params())
            .expect("sequential reference submit")
            .into_iter()
            .map(|(out, _us)| out.logits_per_t)
            .collect()
    })
}

fn engine_pool_body() {
    let pool = EnginePool::<ModelSync>::new_in(IntEngineFactory::new(tiny_net()), 2);
    let results = pool
        .submit(tiny_images(2), eval_params())
        .expect("pooled submit");
    // no item dropped or double-completed, results in item-index order,
    // bit-identical to the sequential run — for every schedule
    let expected = expected_engine_logits();
    assert_eq!(results.len(), 2);
    for (i, (out, _us)) in results.iter().enumerate() {
        assert_eq!(out.logits_per_t, expected[i], "item {i} logits");
    }
    drop(pool); // close queues + join workers is part of the protocol
}

#[test]
fn engine_pool_explored_exhaustively() {
    expected_engine_logits(); // prime the reference outside exploration
    let result = Explorer::new()
        .preemptions(1)
        .max_schedules(200_000)
        .explore(engine_pool_body);
    result.assert_pass("EnginePool submit/drain/shutdown");
    assert!(result.schedules > 1, "pool contention must branch");
}

// ---------------------------------------------------------------------------
// protocol 3: concurrent submitters on one EnginePool

/// Two threads each submit one image to the same pool — `sia serve`'s
/// connection threads calling `EnginePool::submit` directly. Each must get
/// its own image's result, bit-identical to the sequential run, and the
/// last handle's drop must still close and join cleanly.
fn submitters_body(workers: usize) {
    let pool = Arc::new(EnginePool::<ModelSync>::new_in(
        IntEngineFactory::new(tiny_net()),
        workers,
    ));
    let mut first = tiny_images(2);
    let second = first.pop().expect("two images");
    let pool2 = Arc::clone(&pool);
    let submitter = ModelSync::spawn("submitter", move || {
        let results = pool2
            .submit(vec![second], eval_params())
            .expect("second submit");
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].0.logits_per_t, expected_engine_logits()[1]);
    });
    let results = pool.submit(first, eval_params()).expect("first submit");
    assert_eq!(results.len(), 1);
    assert_eq!(results[0].0.logits_per_t, expected_engine_logits()[0]);
    submitter.join();
}

#[test]
fn concurrent_submitters_explored_exhaustively_on_the_inline_pool() {
    // one worker: both submits run inline, serialised by the pool's lock
    expected_engine_logits(); // prime the reference outside exploration
    let result = Explorer::new()
        .preemptions(1)
        .explore(|| submitters_body(1));
    result.assert_pass("EnginePool inline submitters");
    assert!(result.schedules > 1, "the inline lock must branch");
}

// ---------------------------------------------------------------------------
// protocol 4: the ModelRegistry hot-swap path

fn fake_model(hash: u64) -> Arc<LoadedModel> {
    Arc::new(LoadedModel {
        hash,
        source: format!("mem:{hash}"),
        network: tiny_net(),
        config: sia_accel::SiaConfig::pynq_z2(),
        event_input: false,
        checked_timesteps: 8,
    })
}

#[test]
fn registry_hot_swap_explored_exhaustively() {
    let result = Explorer::new().preemptions(2).explore(|| {
        let reg = Arc::new(ModelRegistry::<ModelSync>::new_in(8));
        let reg2 = Arc::clone(&reg);
        let swapper = ModelSync::spawn("swapper", move || {
            let m2 = reg2.insert(fake_model(2));
            assert_eq!(m2.hash, 2);
            // hot-swap commit: may race the other thread's insert freely
            reg2.set_serving(2).expect("just-inserted hash swaps in");
        });
        // concurrent duplicate insert must dedup to one entry
        let a = reg.insert(fake_model(1));
        let b = reg.insert(fake_model(1));
        assert!(Arc::ptr_eq(&a, &b), "dedup must return the same entry");
        // a reader mid-swap must always see a serving model that exists
        let serving = reg.serving().expect("serving set after first insert");
        assert!(
            reg.list().iter().any(|m| m.hash == serving.hash),
            "serving model must be in the registry"
        );
        swapper.join();
        assert_eq!(reg.list().len(), 2, "one entry per distinct hash");
        assert_eq!(
            reg.serving().expect("still serving").hash,
            2,
            "after the swap committed, hash 2 serves"
        );
    });
    result.assert_pass("ModelRegistry insert/dedup/hot-swap");
    assert!(result.schedules > 1, "registry contention must branch");
}

// ---------------------------------------------------------------------------
// seeded random-walk pass (fixed seed, deterministic)

#[test]
fn random_walk_over_pool_and_submitters() {
    RandomWalk::new(0x51A_C0DE)
        .schedules(64)
        .explore(|| {
            let out =
                pool::parallel_map_with_in::<ModelSync, _, _, _, _>(4, 3, || (), |(), t| t + 1);
            assert_eq!(out, vec![1, 2, 3, 4]);
        })
        .assert_pass("random walk: pool");
    // two workers: the exhaustive space at one preemption is 21 504
    // schedules (~40 s), so the two-worker submitters get a seeded walk
    expected_engine_logits();
    RandomWalk::new(0x5B_317E2)
        .schedules(128)
        .explore(|| submitters_body(2))
        .assert_pass("random walk: two-worker submitters");
}

// ---------------------------------------------------------------------------
// mutant self-tests: seeded bugs the checker must catch

fn expect_kind(result: &Exploration, kind: &str, what: &str) -> FailureReport {
    let report = result.expect_failure(what);
    assert_eq!(report.failure.kind(), kind, "{what}: failure kind");
    report.clone()
}

/// Mutant 1 — dropped notify: a producer queues work but never signals,
/// so the consumer sleeps forever. Lost wakeup ⇒ deadlock at quiescence.
#[test]
fn mutant_dropped_notify_is_caught() {
    let body = || {
        let q = Arc::new(ModelSync::mutex(Vec::<u32>::new()));
        let cv = Arc::new(ModelSync::condvar());
        let (q2, cv2) = (Arc::clone(&q), Arc::clone(&cv));
        let producer = ModelSync::spawn("producer", move || {
            q2.lock().push(1);
            // BUG: cv2.notify_all() dropped
            let _ = &cv2;
        });
        {
            let mut g = q.lock();
            while g.is_empty() {
                g = cv.wait(g);
            }
        }
        producer.join();
    };
    let result = Explorer::new().explore(body);
    let report = expect_kind(&result, "deadlock", "dropped notify");
    assert_replayable(body, &report, "dropped notify");
}

/// Mutant 2 — the cursor's `fetch_add` split into `load` + `store`: two
/// workers can claim the same task index. The checker finds the schedule
/// where the duplicate claim violates the exactly-once invariant.
#[test]
fn mutant_split_read_modify_write_is_caught() {
    let body = || {
        let tasks = 2usize;
        let cursor = Arc::new(ModelSync::atomic_usize(0));
        let hits: Arc<Vec<AtomicUsize>> =
            Arc::new((0..tasks).map(|_| AtomicUsize::new(0)).collect());
        let (c2, h2) = (Arc::clone(&cursor), Arc::clone(&hits));
        let worker = ModelSync::spawn("worker", move || loop {
            // BUG: load+store instead of fetch_add
            let t = c2.load(Ordering::SeqCst);
            c2.store(t + 1, Ordering::SeqCst);
            if t >= tasks {
                break;
            }
            h2[t.min(tasks - 1)].fetch_add(1, Ordering::Relaxed);
        });
        loop {
            let t = cursor.load(Ordering::SeqCst);
            cursor.store(t + 1, Ordering::SeqCst);
            if t >= tasks {
                break;
            }
            hits[t.min(tasks - 1)].fetch_add(1, Ordering::Relaxed);
        }
        worker.join();
        for (t, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "task {t} claimed once");
        }
    };
    let result = Explorer::new().explore(body);
    let report = expect_kind(&result, "panic", "split fetch_add");
    assert_replayable(body, &report, "split fetch_add");
}

/// Mutant 3 — inverted lock order (ABBA) between a queue's state lock and
/// a secondary lock: classic deadlock, found with the minimal
/// single-preemption schedule.
#[test]
fn mutant_swapped_lock_order_is_caught() {
    let body = || {
        let state = Arc::new(ModelSync::mutex(0u32));
        let metrics = Arc::new(ModelSync::mutex(0u32));
        let (s2, m2) = (Arc::clone(&state), Arc::clone(&metrics));
        let t = ModelSync::spawn("t1", move || {
            // BUG: takes metrics before state; the other thread does the
            // reverse
            let _gm = m2.lock();
            let _gs = s2.lock();
        });
        {
            let _gs = state.lock();
            let _gm = metrics.lock();
        }
        t.join();
    };
    let result = Explorer::new().explore(body);
    let report = expect_kind(&result, "deadlock", "swapped lock order");
    assert!(
        report.preemption_bound <= 1,
        "ABBA needs exactly one preemption — found at bound {}",
        report.preemption_bound
    );
    assert_replayable(body, &report, "swapped lock order");
}

/// Mutant 4 — missing re-check after wait (`if` instead of `while`): with
/// two consumers woken by one `notify_all`, the loser wakes to a queue the
/// winner already drained. The correct `while` re-checks, sleeps again,
/// and is woken by the close notify; the `if` trips the invariant.
#[test]
fn mutant_missing_recheck_after_wait_is_caught() {
    type Shared = Arc<<ModelSync as SyncOps>::Mutex<(Vec<u32>, bool)>>;
    type Cv = Arc<<ModelSync as SyncOps>::Condvar>;
    fn consumer(state: Shared, cv: Cv) -> impl FnOnce() + Send + 'static {
        move || {
            let mut g = state.lock();
            // BUG: `if` where `while` is required — a notify_all that
            // raced another consumer leaves the queue empty and open
            if g.0.is_empty() && !g.1 {
                g = cv.wait(g);
            }
            assert!(!g.0.is_empty() || g.1, "woke to an empty open queue");
            g.0.pop();
        }
    }
    let body = || {
        let state: Shared = Arc::new(ModelSync::mutex((Vec::new(), false)));
        let cv: Cv = Arc::new(ModelSync::condvar());
        let c1 = ModelSync::spawn("consumer-1", consumer(Arc::clone(&state), Arc::clone(&cv)));
        let c2 = ModelSync::spawn("consumer-2", consumer(Arc::clone(&state), Arc::clone(&cv)));
        state.lock().0.push(1);
        cv.notify_all();
        state.lock().1 = true; // close
        cv.notify_all();
        c1.join();
        c2.join();
    };
    let result = Explorer::new().explore(body);
    let report = result.expect_failure("missing re-check");
    assert!(
        matches!(
            report.failure,
            Failure::Panic { .. } | Failure::Deadlock { .. }
        ),
        "unexpected failure: {}",
        report.failure
    );
    assert_replayable(body, report, "missing re-check");
}

/// Mutant 5 — close without notify: the close flag is set but the blocked
/// consumer is never woken. Every wait is untimed, so nothing else can
/// wake it: deadlock.
#[test]
fn mutant_close_without_notify_is_caught() {
    let body = || {
        let state = Arc::new(ModelSync::mutex((Vec::<u32>::new(), false)));
        let cv = Arc::new(ModelSync::condvar());
        let (s2, cv2) = (Arc::clone(&state), Arc::clone(&cv));
        let consumer = ModelSync::spawn("consumer", move || {
            let mut g = s2.lock();
            while g.0.is_empty() && !g.1 {
                g = cv2.wait(g);
            }
        });
        state.lock().1 = true; // BUG: close() without cv.notify_all()
        consumer.join();
    };
    let result = Explorer::new().explore(body);
    let report = expect_kind(&result, "deadlock", "close without notify");
    assert_replayable(body, &report, "close without notify");
}

/// Mutant 6 — double-complete: the EnginePool `done` protocol with the
/// claim check removed. Two workers race the shared cursor; the loser is
/// supposed to skip completion, but the mutant completes anyway, so on
/// the racy schedule the completion count overruns the slot count.
#[test]
fn mutant_double_complete_is_caught() {
    let body = || {
        let slots = 1usize;
        let cursor = Arc::new(ModelSync::atomic_usize(0));
        let done = Arc::new(ModelSync::atomic_usize(0));
        let (c2, d2) = (Arc::clone(&cursor), Arc::clone(&done));
        let worker = ModelSync::spawn("worker", move || {
            let claimed = c2.load(Ordering::SeqCst) < slots;
            c2.fetch_add(1, Ordering::SeqCst);
            // BUG: completes even when the claim was lost to the racing
            // thread (`claimed` should gate the completion)
            let _ = claimed;
            d2.fetch_add(1, Ordering::SeqCst);
        });
        let claimed = cursor.load(Ordering::SeqCst) < slots;
        cursor.fetch_add(1, Ordering::SeqCst);
        if claimed {
            done.fetch_add(1, Ordering::SeqCst);
        }
        worker.join();
        let total = done.load(Ordering::SeqCst);
        assert!(
            total <= slots,
            "completion count {total} overran {slots} slots"
        );
    };
    let result = Explorer::new().explore(body);
    let report = expect_kind(&result, "panic", "double complete");
    assert_replayable(body, &report, "double complete");
}

/// The checker's livelock bound: a spin loop that never quiesces is
/// reported as livelock, not explored forever.
#[test]
fn livelock_step_bound_fires() {
    let result = Explorer::new().max_steps(64).explore(|| {
        let flag = ModelSync::atomic_usize(0);
        loop {
            // spins forever: no other thread will ever set the flag
            if flag.load(Ordering::SeqCst) == 1 {
                break;
            }
        }
    });
    let report = result.expect_failure("spin loop");
    assert_eq!(report.failure.kind(), "livelock");
}
