//! Supplementary experiment for the Section 2.2 motivation: hybrid static
//! partitioning (Totem-style) "is only able to process a fixed sub-graph
//! that can fit into GPU memory ... which results in underutilization of
//! GPU's fullest processing power".
//!
//! Sweeps graph size against a fixed device: Totem's GPU share collapses
//! and its runtime degenerates toward CPU speed, while GraphReduce keeps
//! the whole graph flowing through the device. (The paper never times
//! Totem; this experiment quantifies its Section 2.2 narrative.)

use gr_baselines::Totem;
use gr_bench::{layout_for, run_gr_traced, scale_from_args, Algo};
use gr_graph::Dataset;
use gr_sim::Platform;
use graphreduce::Options;

fn main() {
    let base_scale = scale_from_args();
    // Fixed device: the one matched to `base_scale` datasets.
    let platform = Platform::paper_node_scaled(base_scale);
    println!(
        "== Extension: Totem-style hybrid vs GraphReduce (device fixed at 1/{base_scale} K20c) =="
    );
    println!(
        "{:>22} {:>10} {:>12} {:>14} {:>14} {:>9}",
        "kron edges", "GPU share", "boundary", "totem", "graphreduce", "GR gain"
    );
    // Grow the graph past the fixed device: 1/4x, 1x, 2x, 4x the matched size.
    for div in [
        base_scale * 4,
        base_scale,
        (base_scale / 2).max(1),
        (base_scale / 4).max(1),
    ] {
        let ds = Dataset::KronLogn21;
        let layout = layout_for(ds, Algo::Bfs, div.max(1));
        let (gr, work) = run_gr_traced(Algo::Bfs, &layout, &platform, Options::optimized())
            .expect("GR streams any size");
        let (totem, split) = Totem::default().run(&work, &layout, &platform);
        println!(
            "{:>22} {:>9.1}% {:>12} {:>14} {:>14} {:>8.2}x",
            layout.num_edges(),
            100.0 * split.gpu_fraction(),
            split.boundary_edges,
            format!("{}", totem.elapsed),
            format!("{}", gr.elapsed),
            totem.elapsed.as_secs_f64() / gr.elapsed.as_secs_f64()
        );
    }
    println!(
        "\nshape: while the graph fits, the static split wins (one load, no streaming). As the \
         graph outgrows the fixed device, Totem's GPU share collapses, its boundary traffic and \
         CPU partition balloon, and the GR-to-Totem ratio climbs back toward (and past) parity — \
         Section 2.2's underutilization argument, measured."
    );
}
