//! Heap bounds of the trace recorder.
//!
//! A long-running server records a span per request, on a fresh thread per
//! cache miss, for as long as it runs. This binary installs a counting
//! global allocator that tracks live heap bytes and checks that the
//! recorder's memory depends on its capacity alone: not on how many
//! threads ever recorded, and within a byte budget per span for a full
//! ring of the server's span shapes. A dedicated integration binary so the
//! allocator swap cannot skew any other test, holding a single test
//! because the harness allocates whenever a concurrent test finishes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

use nvpim_obs::trace::DEFAULT_TRACE_CAPACITY;
use nvpim_obs::TraceRecorder;

struct CountingAlloc;

static LIVE: AtomicI64 = AtomicI64::new(0);

// SAFETY: delegates verbatim to `System`; the counter is a side table.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn live() -> i64 {
    LIVE.load(Ordering::Relaxed)
}

/// Requested heap bytes a full default ring of serve-shaped spans may
/// hold: 160 per span. Measured at 125 per span on average (a 72-byte
/// slot, plus 40 bytes of attributes for a request root or 120 for an
/// execute child); records with owned names and owned attribute keys
/// requested 328 per span for the same shapes.
const SERVE_RING_BUDGET: i64 = 160 * DEFAULT_TRACE_CAPACITY as i64;

#[test]
fn recorder_heap_depends_on_its_capacity_not_on_threads() {
    short_lived_threads_leave_the_recorder_bounded();
    a_full_default_ring_of_serve_spans_fits_its_budget();
}

/// 1 000 threads, each closing one span: after the first 100 fill the
/// ring and the name table, the other 900 add nothing.
fn short_lived_threads_leave_the_recorder_bounded() {
    let rec = TraceRecorder::with_capacity(64);
    let root = rec.begin_trace("serve.request");
    let ctx = root.context();
    // One thread per span, as a server runs each cache miss: half named
    // alike, half unnamed (exported as `thread-<tid>`).
    let threads = |n: usize| {
        for i in 0..n {
            std::thread::scope(|scope| {
                let builder = std::thread::Builder::new();
                let builder =
                    if i % 2 == 0 { builder.name("nvpim-serve-sim".into()) } else { builder };
                builder
                    .spawn_scoped(scope, || drop(rec.span(ctx, "serve.execute")))
                    .expect("spawn one thread")
                    .join()
                    .expect("span thread");
            });
        }
    };
    threads(100);
    let warm = live();
    threads(900);
    let grown = live() - warm;
    assert!(grown <= 1024, "900 more threads grew the recorder's heap by {grown} bytes");
    assert_eq!(rec.spans().len(), 64);
    let chrome = rec.chrome_trace();
    assert!(chrome.contains("nvpim-serve-sim") && chrome.contains("\"thread-"));
    drop(root);
}

fn a_full_default_ring_of_serve_spans_fits_its_budget() {
    let before = live();
    let rec = TraceRecorder::new();
    // Twice the capacity, so the ring has wrapped; one request in five
    // misses the result cache and runs an execute child, as in a mixed
    // serve load.
    for i in 0..2 * DEFAULT_TRACE_CAPACITY {
        let mut request = rec.adopt_trace(rec.new_trace_id(), "serve.request");
        if i % 5 == 0 {
            let mut execute = rec.span(request.context(), "serve.execute");
            execute.attr_str("workload", "mul");
            execute.attr_str("config", "RaxBs+Hw");
            execute.attr_u64("iterations", 2_000);
        }
        request.attr_str("endpoint", "simulate");
    }
    let held = live() - before;
    assert_eq!(rec.spans().len(), DEFAULT_TRACE_CAPACITY);
    assert!(rec.evicted() > 0);
    assert!(
        held <= SERVE_RING_BUDGET,
        "a full ring holds {held} bytes ({} per span), over the {SERVE_RING_BUDGET}-byte budget",
        held / DEFAULT_TRACE_CAPACITY as i64
    );
}
