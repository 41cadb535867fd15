//! Cross-crate integration: GraphReduce must agree with the independent
//! classical references on every (dataset, algorithm) cell of the paper's
//! evaluation matrix, at test scale. The baseline engines price the work
//! trace of the same run (`RunResult::work`), so that trace must not
//! depend on the shard plan or the codec, and must agree with the run's
//! per-iteration statistics.

use graphreduce_repro::algorithms::{reference, Bfs, Cc, PageRank, Sssp};
use graphreduce_repro::core::{GasProgram, GraphSession, Options, RunResult};
use graphreduce_repro::graph::{CompressionCodec, Dataset, GraphLayout};
use graphreduce_repro::sim::Platform;

const SCALE: u64 = 2048;

fn source(layout: &GraphLayout) -> u32 {
    (0..layout.num_vertices())
        .max_by_key(|&v| layout.csr.degree(v))
        .unwrap_or(0)
}

/// All datasets at a scale small enough for exhaustive checking.
fn all_datasets() -> Vec<Dataset> {
    Dataset::IN_MEMORY
        .into_iter()
        .chain(Dataset::OUT_OF_MEMORY)
        .collect()
}

#[test]
fn bfs_agrees_across_all_engines_and_datasets() {
    let plat = Platform::paper_node();
    for ds in all_datasets() {
        let layout = GraphLayout::build(&ds.generate(SCALE));
        let src = source(&layout);
        let want = reference::bfs(&layout, src);
        let gr = GraphSession::new(&layout, plat.clone(), Options::optimized())
            .query(&Bfs::new(src))
            .run()
            .unwrap();
        assert_eq!(gr.vertex_values, want, "GR bfs on {}", ds.name());
    }
}

#[test]
fn sssp_agrees_with_bellman_ford_on_every_dataset() {
    let plat = Platform::paper_node();
    for ds in all_datasets() {
        let layout = GraphLayout::build(&ds.generate_weighted(SCALE));
        let src = source(&layout);
        let want = reference::sssp(&layout, src);
        let gr = GraphSession::new(&layout, plat.clone(), Options::optimized())
            .query(&Sssp::new(src))
            .run()
            .unwrap();
        assert_eq!(gr.vertex_values, want, "GR sssp on {}", ds.name());
    }
}

#[test]
fn cc_labels_are_component_minima_on_every_dataset() {
    let plat = Platform::paper_node();
    for ds in all_datasets() {
        let layout = GraphLayout::build(&ds.generate(SCALE).symmetrize());
        let gr = GraphSession::new(&layout, plat.clone(), Options::optimized())
            .query(&Cc)
            .run()
            .unwrap();
        reference::check_cc_labels(&layout, &gr.vertex_values);
    }
}

#[test]
fn pagerank_is_bit_identical_across_every_engine() {
    let plat = Platform::paper_node();
    let pr = PageRank {
        epsilon: 1e-3,
        max_iters: 40,
        ..Default::default()
    };
    for ds in [Dataset::KronLogn20, Dataset::Orkut, Dataset::BelgiumOsm] {
        let layout = GraphLayout::build(&ds.generate(SCALE));
        let gr = GraphSession::new(&layout, plat.clone(), Options::optimized())
            .query(&pr)
            .run()
            .unwrap();
        let want = reference::pagerank_frontier(&layout, pr.damping, pr.epsilon, pr.max_iters);
        let got: Vec<f32> = gr.vertex_values.iter().map(|v| v.rank).collect();
        assert_eq!(got, want, "GR pr on {}", ds.name());
    }
}

#[test]
fn out_of_core_execution_changes_timing_not_results() {
    // The same workload on a full-size device (resident) and on a tiny
    // device (heavy sharding + streaming) must agree exactly while moving
    // very different byte volumes.
    let layout = GraphLayout::build(&Dataset::Orkut.generate(SCALE).symmetrize());
    let resident = GraphSession::new(&layout, Platform::paper_node(), Options::optimized())
        .query(&Cc)
        .run()
        .unwrap();
    let streamed = GraphSession::new(
        &layout,
        Platform::paper_node_scaled(SCALE * 2),
        Options::optimized(),
    )
    .query(&Cc)
    .run()
    .unwrap();
    assert_eq!(resident.vertex_values, streamed.vertex_values);
    assert!(resident.stats.all_resident);
    assert!(!streamed.stats.all_resident);
    assert!(streamed.stats.num_shards > resident.stats.num_shards);
    assert!(streamed.stats.bytes_h2d > resident.stats.bytes_h2d);
}

#[test]
fn whole_pipeline_is_deterministic_end_to_end() {
    let run = || {
        let layout = GraphLayout::build(&Dataset::Uk2002.generate(SCALE));
        let src = source(&layout);
        let out = GraphSession::new(
            &layout,
            Platform::paper_node_scaled(SCALE),
            Options::optimized(),
        )
        .query(&Bfs::new(src))
        .run()
        .unwrap();
        (
            out.vertex_values,
            out.stats.elapsed,
            out.stats.bytes_h2d,
            out.stats.frontier_sizes(),
        )
    };
    assert_eq!(run(), run());
}

/// Check `program`'s work trace under one whole-graph shard, a many-shard
/// plan and the ζ₃ codec, pin it to the run's per-iteration statistics,
/// and return the whole-graph run.
fn check_work_trace<P: GasProgram>(program: P, layout: &GraphLayout, cell: &str) -> RunResult<P> {
    let run = |opts: Options| {
        GraphSession::new(layout, Platform::paper_node(), opts)
            .query(&program)
            .run()
            .unwrap()
    };
    let whole = run(Options::optimized().with_num_shards(1));
    let sharded = run(Options::optimized().with_num_shards(16));
    let zeta = run(Options::optimized()
        .with_num_shards(16)
        .with_shard_compression(CompressionCodec::Zeta(3)));
    assert!(sharded.stats.num_shards > 1, "{cell}: plan must shard");
    assert_eq!(
        whole.work, sharded.work,
        "{cell}: shard plan moved the trace"
    );
    assert_eq!(whole.work, zeta.work, "{cell}: codec moved the trace");
    let (work, iters) = (&whole.work, &whole.stats.per_iteration);
    assert_eq!(work.len(), iters.len(), "{cell}: one entry per iteration");
    for (i, (w, st)) in work.iter().zip(iters).enumerate() {
        assert_eq!(w.active_vertices, st.frontier_size, "{cell} iteration {i}");
        assert_eq!(w.active_in_edges, st.gathered_edges, "{cell} iteration {i}");
        assert_eq!(w.changed_vertices, st.changed, "{cell} iteration {i}");
        if let Some(next) = work.get(i + 1) {
            assert_eq!(next.active_vertices, st.activated, "{cell} iteration {i}");
        }
    }
    whole
}

#[test]
fn work_trace_is_independent_of_shards_and_codec() {
    let pr = PageRank {
        epsilon: 1e-3,
        max_iters: 40,
        ..Default::default()
    };
    // One Table 3 (out-of-memory) and one Table 4 (in-memory) dataset,
    // each at a divisor that leaves a few thousand vertices.
    for (ds, scale) in [(Dataset::Orkut, 1024), (Dataset::Ak2010, 16)] {
        let plain = GraphLayout::build(&ds.generate(scale));
        let weighted = GraphLayout::build(&ds.generate_weighted(scale));
        let symmetric = GraphLayout::build(&ds.generate(scale).symmetrize());
        let name = ds.name();
        let bfs = check_work_trace(Bfs::new(source(&plain)), &plain, &format!("{name} BFS"));
        // BFS changes exactly the vertices it reaches in an iteration, so
        // the out-edges of changed vertices are their out-degree sum.
        for (i, w) in bfs.work.iter().enumerate() {
            let reached =
                (0..plain.num_vertices()).filter(|&v| bfs.vertex_values[v as usize] == i as u32);
            let want: u64 = reached.map(|v| plain.csr.degree(v)).sum();
            assert_eq!(w.out_edges_of_changed, want, "{name} BFS iteration {i}");
        }
        check_work_trace(
            Sssp::new(source(&weighted)),
            &weighted,
            &format!("{name} SSSP"),
        );
        check_work_trace(pr, &plain, &format!("{name} PageRank"));
        check_work_trace(Cc, &symmetric, &format!("{name} CC"));
    }
}
