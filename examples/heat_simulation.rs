//! Heat diffusion over a 3-D mesh — the Section 2.1 workload class with
//! **mutable edge state**: Scatter stamps temperatures onto out-edges,
//! Gather averages the stamped in-edges. Exercises the full five-phase
//! pipeline (no fusion/elimination applies) and exports the device
//! timeline as a Chrome trace for inspection in `chrome://tracing` or
//! Perfetto.
//!
//! ```sh
//! cargo run --release --example heat_simulation
//! # then load /tmp/graphreduce_heat_trace.json in chrome://tracing
//! ```

use graphreduce_repro::algorithms::Heat;
use graphreduce_repro::core::{GraphSession, Options, StreamingMode};
use graphreduce_repro::graph::{gen, GraphLayout, GraphStats};
use graphreduce_repro::observe::{export, Observer};
use graphreduce_repro::sim::{Gpu, KernelSpec, Platform};

fn main() {
    // A 3-D volume mesh, like the PDE datasets of Table 1.
    let el = gen::stencil3d(32_768, 32_768 * 18, 99).symmetrize();
    let layout = GraphLayout::build(&el);
    println!("{}\n", GraphStats::compute(&layout));

    let heat = Heat {
        alpha: 0.4,
        epsilon: 1e-2,
        max_iters: 120,
        hot: 1000.0,
    };
    let platform = Platform::paper_node_scaled(2048); // forces streaming

    let explicit = GraphSession::new(&layout, platform.clone(), Options::optimized())
        .query(&heat)
        .run()
        .expect("plan fits");
    let zero_copy = GraphSession::new(
        &layout,
        platform.clone(),
        Options {
            streaming_mode: StreamingMode::ZeroCopySequential,
            ..Options::optimized()
        },
    )
    .query(&heat)
    .run()
    .expect("plan fits");
    assert_eq!(explicit.vertex_values, zero_copy.vertex_values);

    let warm = explicit
        .vertex_values
        .iter()
        .filter(|&&t| t > heat.hot / 1000.0)
        .count();
    println!(
        "heat reached {warm}/{} vertices in {} iterations",
        layout.num_vertices(),
        explicit.stats.iterations
    );
    println!(
        "edge states written: {} stamped edges",
        explicit.edge_values.iter().filter(|&&e| e != 0.0).count()
    );
    println!("\nexplicit staging:  {}", explicit.stats);
    println!(
        "\nzero-copy streams: {} (same results, {} vs {} memcpy busy)",
        zero_copy.stats.elapsed, zero_copy.stats.memcpy_time, explicit.stats.memcpy_time
    );

    // Export a small standalone device timeline showing the stream/queue
    // structure (the engine's own runs stay internal; this reconstructs a
    // two-shard pipelined iteration for the trace). The device emits its
    // resolved ops to the observer at every barrier, like any traced run.
    let (observer, sink) = Observer::recording();
    let mut gpu = Gpu::new(&platform);
    gpu.set_observer(observer);
    let s0 = gpu.create_stream();
    let s1 = gpu.create_stream();
    for (i, s) in [s0, s1, s0, s1].into_iter().enumerate() {
        gpu.h2d(s, 2_000_000, "shard.in-edges");
        gpu.launch(
            s,
            &KernelSpec::balanced("gatherMap", 500_000, 2.0, 4_000_000, 500_000),
        );
        gpu.launch(s, &KernelSpec::balanced("apply", 40_000, 4.0, 320_000, 0));
        gpu.h2d(s, 1_000_000, "shard.out-edges");
        gpu.launch(
            s,
            &KernelSpec::balanced("frontierActivate", 250_000, 1.0, 1_000_000, 250_000),
        );
        gpu.d2h(s, 5_000, "frontier.bits");
        if i == 1 {
            gpu.synchronize(); // BSP barrier between iterations
        }
    }
    gpu.synchronize();
    let trace = export::chrome_trace(&sink.recorded());
    let path = std::env::temp_dir().join("graphreduce_heat_trace.json");
    std::fs::write(&path, &trace).expect("write trace");
    println!(
        "\nwrote a {}-op device timeline to {} (open in chrome://tracing)",
        trace.matches("\"ph\":\"X\"").count(),
        path.display()
    );
}
