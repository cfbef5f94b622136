//! Telemetry probes allocate only the first time they see a key: a counter,
//! gauge or histogram hit, an `emit` without a sink and a span that has
//! been recorded before all leave the heap alone. A counting global
//! allocator (test-only, so its `unsafe impl` stays out of the library)
//! checks it on the calling thread.
#![cfg(feature = "enabled")]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn note_allocation() {
    // `try_with`: the allocator may run while the thread-local is torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the only addition is a thread-local counter bump, which
// neither allocates nor touches the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: forwarded verbatim; the caller upholds the contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        // SAFETY: forwarded verbatim; `ptr` came from this allocator, which
        // hands out `System` memory.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; `ptr` came from `System` via `alloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// One round of every probe kind, with keys that do not change.
fn probes() {
    sia_telemetry::counter!("no_alloc.counter", 3);
    sia_telemetry::gauge!("no_alloc.gauge", 1.5);
    sia_telemetry::histogram!("no_alloc.histogram", 42);
    sia_telemetry::emit(
        "no_alloc.event",
        &[
            ("n", sia_telemetry::Value::from(7u64)),
            ("name", sia_telemetry::Value::from("stage")),
        ],
    );
    let _outer = sia_telemetry::span!("no_alloc_outer");
    let _inner = sia_telemetry::span!("no_alloc_inner");
}

#[test]
fn probes_allocate_only_on_first_insert() {
    // The first round inserts every key (and sets up the thread's store).
    assert!(
        allocations(probes) > 0,
        "the counting allocator sees nothing"
    );
    assert_eq!(allocations(probes), 0, "a probe hit allocated");
    for _ in 0..10 {
        probes();
    }
    let snap = sia_telemetry::snapshot();
    assert_eq!(snap.counter("no_alloc.counter"), 3 * 12);
    assert_eq!(snap.counter("events.no_alloc.event"), 12);
    assert_eq!(snap.gauge("no_alloc.gauge"), Some(1.5));
    assert_eq!(snap.histograms["no_alloc.histogram"].count, 12);
    assert_eq!(snap.histograms["span.no_alloc_outer.us"].count, 12);
    assert_eq!(
        snap.histograms["span.no_alloc_outer.no_alloc_inner.us"].count,
        12
    );
}

#[test]
fn a_new_key_still_allocates() {
    sia_telemetry::counter!("no_alloc.seen", 1);
    assert_eq!(
        allocations(|| sia_telemetry::counter!("no_alloc.seen", 1)),
        0
    );
    assert!(allocations(|| sia_telemetry::counter!("no_alloc.unseen", 1)) > 0);
}
