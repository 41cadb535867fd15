//! Pricing a simulated op must not touch the heap in steady state. A
//! counting allocator brackets a loop of stages — h2d, launch and d2h on
//! four streams, one event fence, one `synchronize` — after a warm-up
//! that touches every metric series and label. The only growth allowed
//! is the scheduler's per-op time array, amortized by doubling, so the
//! bound below holds whatever the op count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use gr_sim::{Gpu, KernelSpec, Platform, StreamId};

struct CountingAlloc;

// Per-thread, like `gr-observe`'s overhead test: the harness may run
// tests concurrently. The const initializer and a destructor-free Cell
// keep the counter itself off the allocator.
thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn allocations_on_this_thread() -> u64 {
    ALLOCATIONS.with(|c| c.get())
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// One stage: a copy in, a kernel and a copy out per stream, the last
/// stream fenced on the first one's event, then a device barrier.
/// Thirteen device ops; with each op's issue and each copy's latency
/// tail, 34 scheduler ops.
fn stage(gpu: &mut Gpu, streams: &[StreamId], spec: &KernelSpec) {
    for &s in streams {
        gpu.h2d(s, 1 << 20, "in");
        gpu.launch(s, spec);
        gpu.d2h(s, 1 << 12, "out");
    }
    let fence = gpu.record_event(streams[0]);
    gpu.wait_event(streams[3], fence);
    gpu.launch(streams[3], spec);
    gpu.synchronize();
}

#[test]
fn steady_state_ops_allocate_a_bounded_amount() {
    const STAGES: u64 = 8_000;
    let mut gpu = Gpu::new(&Platform::paper_node());
    let streams: Vec<_> = (0..4).map(|_| gpu.create_stream()).collect();
    let spec = KernelSpec::balanced("k", 1 << 16, 4.0, 1 << 20, 0);
    for _ in 0..64 {
        stage(&mut gpu, &streams, &spec);
    }
    let before = allocations_on_this_thread();
    for _ in 0..STAGES {
        stage(&mut gpu, &streams, &spec);
    }
    let allocations = allocations_on_this_thread() - before;
    let stats = gpu.stats();
    let ops = stats.copy_ops + stats.kernel_launches - 64 * 13;
    assert_eq!(ops, STAGES * 13);
    assert!(ops >= 100_000);
    // The time array doubles about log2(272 k / 2.2 k) ≈ 7 times.
    assert!(
        allocations <= 32,
        "{allocations} allocations over {ops} device ops in steady state"
    );
}
