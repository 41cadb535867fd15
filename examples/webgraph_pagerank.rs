//! PageRank on a uk-2002-class web crawl that exceeds GPU memory — the
//! workload the paper's introduction motivates (ranking pages of a crawl
//! too big for the device).
//!
//! Demonstrates: dataset stand-ins, out-of-core sharding, the optimized vs
//! unoptimized gap, and reading the per-iteration frontier trace.
//!
//! ```sh
//! cargo run --release --example webgraph_pagerank
//! ```

use graphreduce_repro::algorithms::PageRank;
use graphreduce_repro::core::{GraphSession, Options};
use graphreduce_repro::graph::{dataset_bytes, Dataset, GraphLayout};
use graphreduce_repro::sim::Platform;

fn main() {
    // uk-2002 at 1/256 scale: still ~8x the scaled device memory.
    let scale = 256;
    let ds = Dataset::Uk2002;
    let platform = Platform::paper_node_scaled(scale);
    println!(
        "{}: |V|={}, |E|={}, ~{:.1} MB in memory vs {:.1} MB device",
        ds.name(),
        ds.vertices(scale),
        ds.edges(scale),
        dataset_bytes(ds, scale) as f64 / 1e6,
        platform.device.mem_capacity as f64 / 1e6,
    );
    let layout = GraphLayout::build(&ds.generate(scale));

    let pr = PageRank {
        epsilon: 1e-3,
        max_iters: 50,
        ..Default::default()
    };

    let optimized = GraphSession::new(&layout, platform.clone(), Options::optimized())
        .query(&pr)
        .run()
        .expect("fits after sharding");
    let unoptimized = GraphSession::new(&layout, platform, Options::unoptimized())
        .query(&pr)
        .run()
        .expect("fits after sharding");
    assert_eq!(optimized.vertex_values, unoptimized.vertex_values);

    // Top pages by rank.
    let mut ranked: Vec<(u32, f32)> = optimized
        .vertex_values
        .iter()
        .enumerate()
        .map(|(v, s)| (v as u32, s.rank))
        .collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!("top pages by rank:");
    for (v, r) in ranked.iter().take(5) {
        println!("  page {v:>8}  rank {r:.4}");
    }

    println!(
        "\n{} shards, K={} concurrent | {} iterations",
        optimized.stats.num_shards, optimized.stats.concurrent_shards, optimized.stats.iterations
    );
    println!(
        "optimized GR:   {:>12}  (memcpy {:>12}, {:5.1}% of run)",
        optimized.stats.elapsed,
        optimized.stats.memcpy_time,
        100.0 * optimized.stats.memcpy_share()
    );
    println!(
        "unoptimized GR: {:>12}  (memcpy {:>12}, {:5.1}% of run)",
        unoptimized.stats.elapsed,
        unoptimized.stats.memcpy_time,
        100.0 * unoptimized.stats.memcpy_share()
    );
    println!(
        "speedup from Section 5 optimizations: {:.2}x wall, {:.1}% less memcpy time",
        unoptimized.stats.elapsed.as_secs_f64() / optimized.stats.elapsed.as_secs_f64(),
        100.0
            * (1.0
                - optimized.stats.memcpy_time.as_secs_f64()
                    / unoptimized.stats.memcpy_time.as_secs_f64())
    );

    let sizes = optimized.stats.frontier_sizes();
    println!("\nfrontier size by iteration (converging vertices drop out):");
    for (i, s) in sizes.iter().enumerate() {
        if i < 10 || i % 5 == 0 || i + 1 == sizes.len() {
            println!("  iter {i:>3}: {s:>9} active vertices");
        }
    }
}
