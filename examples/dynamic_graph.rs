//! Dynamically evolving graphs (the paper's future-work item 3): maintain
//! connected components across edge insertions with warm-started
//! incremental runs instead of full recomputation.
//!
//! ```sh
//! cargo run --release --example dynamic_graph
//! ```

use graphreduce_repro::algorithms::Cc;
use graphreduce_repro::core::{GraphSession, Options, WarmStart};
use graphreduce_repro::graph::{gen, EdgeList, GraphLayout};
use graphreduce_repro::sim::Platform;

fn main() {
    // A fragmented social graph: many components.
    let mut edges = gen::uniform(20_000, 30_000, 77).symmetrize().edges;
    let platform = Platform::paper_node_scaled(1024);

    let layout = GraphLayout::build(&EdgeList::from_edges(20_000, edges.clone()));
    let session = GraphSession::new(&layout, platform.clone(), Options::optimized());
    let mut state = session.query(&Cc).run().expect("initial run plans");
    let components = |labels: &[u32]| {
        labels
            .iter()
            .collect::<std::collections::HashSet<_>>()
            .len()
    };
    println!(
        "initial: {} components in {} iterations ({})",
        components(&state.vertex_values),
        state.stats.iterations,
        state.stats.elapsed
    );

    // Stream in batches of bridging edges; each batch reruns warm, seeding
    // only the endpoints it touched.
    let mut rng_state = 0x9E3779B97F4A7C15u64;
    let mut rand = move || {
        rng_state ^= rng_state << 13;
        rng_state ^= rng_state >> 7;
        rng_state ^= rng_state << 17;
        rng_state
    };
    let mut total_incremental_iters = 0;
    for batch in 0..5 {
        let mut seeds = Vec::new();
        for _ in 0..20 {
            let u = (rand() % 20_000) as u32;
            let v = (rand() % 20_000) as u32;
            if u != v {
                edges.push((u, v));
                edges.push((v, u));
                seeds.push(u);
                seeds.push(v);
            }
        }
        let layout = GraphLayout::build(&EdgeList::from_edges(20_000, edges.clone()));
        let session = GraphSession::new(&layout, platform.clone(), Options::optimized());
        let warm = session
            .query(&Cc)
            .warm(WarmStart {
                vertex_values: state.vertex_values,
                frontier: seeds,
            })
            .run()
            .expect("incremental run plans");
        total_incremental_iters += warm.stats.iterations;
        println!(
            "batch {batch}: {} components after +20 edges | incremental: {} iterations, {}",
            components(&warm.vertex_values),
            warm.stats.iterations,
            warm.stats.elapsed
        );
        state = warm;
    }

    // Compare against recomputing from scratch at the final graph.
    let layout = GraphLayout::build(&EdgeList::from_edges(20_000, edges));
    let cold = GraphSession::new(&layout, platform, Options::optimized())
        .query(&Cc)
        .run()
        .expect("cold run plans");
    assert_eq!(cold.vertex_values, state.vertex_values);
    println!(
        "\ncold recomputation: {} iterations ({}) vs {} incremental iterations across 5 batches",
        cold.stats.iterations, cold.stats.elapsed, total_incremental_iters
    );
}
