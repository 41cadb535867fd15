//! Route distances on a belgium_osm-class road network: SSSP with random
//! edge weights, showing the dynamic-frontier behaviour on huge-diameter
//! graphs (hundreds of iterations with tiny frontiers — the regime where
//! frontier management matters most, Section 6.2.3).
//!
//! ```sh
//! cargo run --release --example roadnet_sssp
//! ```

use graphreduce_repro::algorithms::Sssp;
use graphreduce_repro::core::{GraphSession, Options};
use graphreduce_repro::graph::{Dataset, GraphLayout};
use graphreduce_repro::sim::Platform;

fn main() {
    let scale = 64;
    let ds = Dataset::BelgiumOsm;
    let layout = GraphLayout::build(&ds.generate_weighted(scale));
    // Shrink the device further so even this sparse graph needs shards.
    let platform = Platform::paper_node_scaled(scale * 64);
    println!(
        "{} stand-in: |V|={}, |E|={} (weighted)",
        ds.name(),
        layout.num_vertices(),
        layout.num_edges()
    );

    let source = 0u32;
    let with_fm = GraphSession::new(&layout, platform.clone(), Options::optimized())
        .query(&Sssp::new(source))
        .run()
        .expect("plan fits");
    let without_fm = GraphSession::new(
        &layout,
        platform,
        Options {
            frontier_management: false,
            ..Options::optimized()
        },
    )
    .query(&Sssp::new(source))
    .run()
    .expect("plan fits");
    assert_eq!(with_fm.vertex_values, without_fm.vertex_values);

    let reached = with_fm
        .vertex_values
        .iter()
        .filter(|d| d.is_finite())
        .count();
    let furthest = with_fm
        .vertex_values
        .iter()
        .filter(|d| d.is_finite())
        .cloned()
        .fold(0.0f32, f32::max);
    println!(
        "reached {reached}/{} vertices from {source}; longest shortest path {:.1}",
        layout.num_vertices(),
        furthest
    );
    println!(
        "{} iterations; peak frontier {} of {} vertices; {:.0}% of iterations below half-peak",
        with_fm.stats.iterations,
        with_fm.stats.max_frontier(),
        layout.num_vertices(),
        with_fm.stats.pct_iterations_below_half_max()
    );
    println!(
        "\nwith frontier management:    {:>12}  ({:>6.1} MB over PCIe, {} shard copies skipped)",
        with_fm.stats.elapsed,
        (with_fm.stats.bytes_h2d + with_fm.stats.bytes_d2h) as f64 / 1e6,
        with_fm.stats.skipped_shard_copies
    );
    println!(
        "without frontier management: {:>12}  ({:>6.1} MB over PCIe)",
        without_fm.stats.elapsed,
        (without_fm.stats.bytes_h2d + without_fm.stats.bytes_d2h) as f64 / 1e6
    );
    println!(
        "frontier management saves {:.1}% of the run on this high-diameter graph",
        100.0
            * (1.0 - with_fm.stats.elapsed.as_secs_f64() / without_fm.stats.elapsed.as_secs_f64())
    );
}
