//! The layout builder's memory bound, which `peak_rss_mb` on the R-MAT and
//! grid workloads rests on. A counting allocator tracks the live heap
//! while `GraphLayout::build` lays out a weighted list of over a million
//! edges: at its peak the build may hold, besides its input, only its
//! output, three cursor-sized (|V| + 1 words) tables and the scratch of one
//! bucket. An m-sized temporary — the weight array the three-pass builder
//! carried from its first scatter to its second — breaks the bound.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use gr_graph::{gen, GraphLayout};

struct CountingAlloc;

// Per-thread: the harness may allocate on other threads while the build
// runs. The const initializers and destructor-free Cells keep the counters
// themselves off the allocator.
thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn track(delta: isize) {
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + delta);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        track(layout.size() as isize);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        track(layout.size() as isize);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-(layout.size() as isize));
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        track(new_size as isize - layout.size() as isize);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The module docs of `gr_graph::csr`: destination blocks of 64 vertices,
/// buckets of at most 2^15 in-edges unless one block alone holds more, and
/// 20 bytes of scratch per entry of the biggest bucket.
const BLOCK: usize = 64;
const BUCKET_CAP: usize = 1 << 15;
const SCRATCH_BYTES_PER_EDGE: usize = 20;

#[test]
fn build_peaks_at_its_output_plus_tables_and_one_bucket() {
    // Scale 16 at 16 edges a vertex: R-MAT's low-id hub blocks are heavier
    // than the cap, so the biggest bucket is one block of its own.
    let el = gen::with_random_weights(gen::rmat_g500(16, 1 << 20, 3), 9.0, 3);
    let n = el.num_vertices as usize;
    assert!(el.num_edges() >= 1 << 20);

    let mut in_degree = vec![0usize; n];
    for &(_, d) in &el.edges {
        in_degree[d as usize] += 1;
    }
    let heaviest_block = in_degree.chunks(BLOCK).map(|b| b.iter().sum()).max();
    let scratch = SCRATCH_BYTES_PER_EDGE * BUCKET_CAP.max(heaviest_block.unwrap_or(0));
    drop(in_degree);

    let before = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(before));
    let g = GraphLayout::build(&el);
    let peak = (PEAK.with(Cell::get) - before) as usize;

    let words = |v: &Vec<u32>| v.len() * 4;
    let output = (g.csc.offsets.len() + g.csr.offsets.len()) * 8
        + words(&g.csc.neighbors)
        + words(&g.csc.edge_ids)
        + words(&g.csr.neighbors)
        + words(&g.csr.edge_ids)
        + g.weights.len() * 4;
    let tables = 3 * (n + 1) * 8;
    assert!(
        peak <= output + tables + scratch,
        "the build peaked at {peak} live heap bytes: output {output} + tables {tables} \
         + bucket scratch {scratch} = {}",
        output + tables + scratch
    );
}
