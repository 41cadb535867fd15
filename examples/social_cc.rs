//! Community sizing on an orkut-class social network: Connected Components
//! out-of-core on GraphReduce, with the same run's work trace priced by
//! every baseline engine the paper compares with (GraphChi, X-Stream on the
//! host; CuSha, MapGraph in device memory when the graph fits).
//!
//! ```sh
//! cargo run --release --example social_cc
//! ```

use graphreduce_repro::algorithms::Cc;
use graphreduce_repro::baselines::{CuSha, GraphChi, MapGraph, XStream};
use graphreduce_repro::core::{GraphSession, Options};
use graphreduce_repro::graph::{Dataset, GraphLayout};
use graphreduce_repro::sim::Platform;

fn main() {
    let scale = 512;
    let ds = Dataset::Orkut;
    let layout = GraphLayout::build(&ds.generate(scale));
    let platform = Platform::paper_node_scaled(scale);
    println!(
        "{} stand-in at 1/{scale}: |V|={}, |E|={}",
        ds.name(),
        layout.num_vertices(),
        layout.num_edges()
    );

    // GraphReduce, out-of-core.
    let gr = GraphSession::new(&layout, platform.clone(), Options::optimized())
        .query(&Cc)
        .run()
        .expect("sharded run fits");

    // CPU out-of-memory baselines, priced from GraphReduce's work trace.
    let chi = GraphChi::scaled(scale).run(&gr.work, &layout, &platform.host);
    let xs = XStream::default().run(&gr.work, &layout, &platform.host);

    println!("\nengine            time            vs GraphReduce");
    let grt = gr.stats.elapsed.as_secs_f64();
    println!("graphreduce      {:>12}    1.00x", gr.stats.elapsed);
    println!(
        "graphchi         {:>12}    {:.2}x slower",
        chi.elapsed,
        chi.elapsed.as_secs_f64() / grt
    );
    println!(
        "x-stream         {:>12}    {:.2}x slower",
        xs.elapsed,
        xs.elapsed.as_secs_f64() / grt
    );

    // In-GPU-memory engines refuse out-of-memory graphs — the limitation
    // GraphReduce exists to remove (Table 1).
    match CuSha::default().run(&gr.work, &layout, &platform) {
        Err(e) => println!("cusha            refused: {e}"),
        Ok(stats) => println!("cusha            {:>12}", stats.elapsed),
    }
    match MapGraph::default().run(&gr.work, &layout, &platform) {
        Err(e) => println!("mapgraph         refused: {e}"),
        Ok(stats) => println!("mapgraph         {:>12}", stats.elapsed),
    }

    // Community structure summary.
    let mut counts = std::collections::HashMap::new();
    for &label in &gr.vertex_values {
        *counts.entry(label).or_insert(0u64) += 1;
    }
    let mut sizes: Vec<u64> = counts.into_values().collect();
    sizes.sort_unstable_by(|a, b| b.cmp(a));
    println!(
        "\n{} components; largest {} vertices ({:.1}% of graph)",
        sizes.len(),
        sizes[0],
        100.0 * sizes[0] as f64 / layout.num_vertices() as f64
    );
}
