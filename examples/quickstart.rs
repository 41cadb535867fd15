//! Quickstart: write a GAS program (Connected Components, exactly the
//! paper's Figure 6 example) and run it out-of-core on the virtual K20c.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use graphreduce_repro::core::{report, GasProgram, GraphSession, InitialFrontier, Options};
use graphreduce_repro::graph::{gen, GraphLayout};
use graphreduce_repro::observe::Observer;
use graphreduce_repro::sim::Platform;

/// Connected Components: gatherMap forwards the neighbor's label,
/// gatherReduce takes the min, apply keeps the smaller label, no scatter.
/// (Compare with Figure 6 of the paper — it is a line-for-line transcription.)
struct ConnectedComponents;

impl GasProgram for ConnectedComponents {
    type VertexValue = u32;
    type EdgeValue = ();
    type Gather = u32;

    fn name(&self) -> &'static str {
        "cc-quickstart"
    }

    fn init_vertex(&self, v: u32, _out_degree: u32) -> u32 {
        v
    }

    fn initial_frontier(&self) -> InitialFrontier {
        InitialFrontier::All
    }

    fn gather_identity(&self) -> u32 {
        u32::MAX
    }

    fn gather_map(&self, _dst: &u32, src_label: &u32, _edge: &(), _w: f32) -> u32 {
        *src_label
    }

    fn gather_reduce(&self, left: u32, right: u32) -> u32 {
        left.min(right)
    }

    fn apply(&self, cur_label: &mut u32, label: u32, _iteration: u32) -> bool {
        let changed = label < *cur_label;
        *cur_label = (*cur_label).min(label);
        changed
    }

    fn scatter(&self, _src: &u32, _dst: &u32, _edge: &mut ()) {
        // no scatter operations for the CC algorithm
    }
}

fn main() {
    // An undirected social-network-like graph, stored as directed pairs.
    let edges = gen::rmat_g500(14, 150_000, 42).symmetrize();
    let layout = GraphLayout::build(&edges);
    println!(
        "graph: {} vertices, {} directed edges",
        layout.num_vertices(),
        layout.num_edges()
    );

    // A K20c whose memory is 1/4096 of the real card, so this small graph
    // is *out of device memory* and must be streamed in shards.
    let platform = Platform::paper_node_scaled(4096);
    // Record the run: every phase span, frontier decision, and metric
    // flows to the sink, and becomes a machine-readable report below.
    let (observer, sink) = Observer::recording();
    let session = GraphSession::new(&layout, platform, Options::optimized());
    let out = session
        .query(&ConnectedComponents)
        .with_observer(observer)
        .run()
        .expect("planning fits this device");

    let components: std::collections::HashSet<u32> = out.vertex_values.iter().copied().collect();
    println!(
        "components: {} (in {} iterations)",
        components.len(),
        out.stats.iterations
    );
    println!(
        "shards: {} ({} concurrent), resident: {}",
        out.stats.num_shards, out.stats.concurrent_shards, out.stats.all_resident
    );
    println!(
        "virtual time: {} | memcpy busy: {} ({:.1}% of run) | kernels busy: {}",
        out.stats.elapsed,
        out.stats.memcpy_time,
        100.0 * out.stats.memcpy_share(),
        out.stats.kernel_time
    );
    println!(
        "PCIe traffic: {:.1} MB in, {:.1} MB out over {} copies; {} kernel launches",
        out.stats.bytes_h2d as f64 / 1e6,
        out.stats.bytes_d2h as f64 / 1e6,
        out.stats.copy_ops,
        out.stats.kernel_launches
    );
    println!(
        "frontier management skipped {} shard copies and {} kernel launches",
        out.stats.skipped_shard_copies, out.stats.skipped_kernel_launches
    );

    // Versioned run report (docs/OBSERVABILITY.md documents the schema).
    let rec = sink.recorded();
    let path = "results/quickstart_report.json";
    if std::fs::create_dir_all("results")
        .and_then(|()| std::fs::write(path, report::run_report(&out.stats, &rec)))
        .is_ok()
    {
        println!(
            "run report: {path} ({} decisions, {} spans recorded)",
            rec.decisions.len(),
            rec.spans.len()
        );
    }
}
