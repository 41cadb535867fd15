//! Cross-crate integration: GraphReduce must agree with the independent
//! classical references on every (dataset, algorithm) cell of the paper's
//! evaluation matrix, at test scale. The baseline engines price the work
//! trace of the same run (`RunResult::work`), so that trace must not
//! depend on the shard plan or the codec, and must agree with the run's
//! per-iteration statistics.

use graphreduce_repro::algorithms::{reference, Bfs, Cc, MsBfs, MsBfsLevels, PageRank, Sssp};
use graphreduce_repro::core::{
    plan_partition, GasProgram, GraphSession, HostKernels, InitialFrontier, Options, RunResult,
    SizeModel, StateBytes, WarmStart,
};
use graphreduce_repro::graph::{gen, CompressionCodec, Dataset, EdgeList, GraphLayout, VertexId};
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

/// `P` with its source-only declaration withdrawn, every other item
/// delegated: the engine maps every in-edge, which is the oracle the
/// cached per-source terms must match.
struct PerEdge<P>(P);

impl<P: GasProgram> GasProgram for PerEdge<P> {
    type VertexValue = P::VertexValue;
    type EdgeValue = P::EdgeValue;
    type Gather = P::Gather;

    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn init_vertex(&self, v: VertexId, out_degree: u32) -> Self::VertexValue {
        self.0.init_vertex(v, out_degree)
    }

    fn initial_frontier(&self) -> InitialFrontier {
        self.0.initial_frontier()
    }

    fn gather_identity(&self) -> Self::Gather {
        self.0.gather_identity()
    }

    fn gather_map(
        &self,
        dst: &Self::VertexValue,
        src: &Self::VertexValue,
        edge: &Self::EdgeValue,
        weight: f32,
    ) -> Self::Gather {
        self.0.gather_map(dst, src, edge, weight)
    }

    fn gather_reduce(&self, a: Self::Gather, b: Self::Gather) -> Self::Gather {
        self.0.gather_reduce(a, b)
    }

    fn apply(&self, v: &mut Self::VertexValue, r: Self::Gather, iteration: u32) -> bool {
        self.0.apply(v, r, iteration)
    }

    fn scatter(&self, src: &Self::VertexValue, dst: &Self::VertexValue, e: &mut Self::EdgeValue) {
        self.0.scatter(src, dst, e)
    }

    fn has_gather(&self) -> bool {
        self.0.has_gather()
    }

    fn has_scatter(&self) -> bool {
        self.0.has_scatter()
    }

    fn max_iterations(&self) -> u32 {
        self.0.max_iterations()
    }
}

/// Every value's fixed little-endian bytes: bit-for-bit equality, `f32`
/// fields included (their bytes are `to_bits`).
fn state_bytes<T: StateBytes>(values: &[T]) -> Vec<u8> {
    let mut out = vec![0; values.len() * T::BYTES];
    for (v, chunk) in values.iter().zip(out.chunks_exact_mut(T::BYTES)) {
        v.write_bytes(chunk);
    }
    out
}

/// Run `p` bare and wrapped in [`PerEdge`] on one session setup (and an
/// optional warm start) and require the same values bit for bit, the same
/// per-iteration statistics, the same work trace and the same simulated
/// time.
fn assert_source_only_matches_per_edge<P: GasProgram>(
    p: P,
    layout: &GraphLayout,
    plat: &Platform,
    opts: &Options,
    warm: Option<&WarmStart<P>>,
    cell: &str,
) -> RunResult<P> {
    assert!(
        p.gather_is_source_only(),
        "{cell}: the program must declare"
    );
    let session = GraphSession::new(layout, plat.clone(), opts.clone());
    let cached = match warm {
        Some(w) => session.query(&p).warm(warm_copy(w)),
        None => session.query(&p),
    }
    .run()
    .unwrap();
    let oracle = PerEdge(p);
    let per_edge = match warm {
        Some(w) => session.query(&oracle).warm(warm_copy(w)),
        None => session.query(&oracle),
    }
    .run()
    .unwrap();
    let (got, want) = (
        state_bytes(&cached.vertex_values),
        state_bytes(&per_edge.vertex_values),
    );
    let first_diff = got.iter().zip(&want).position(|(a, b)| a != b);
    assert!(
        got == want,
        "{cell}: values differ from vertex {:?}",
        first_diff.map(|byte| byte / P::VertexValue::BYTES)
    );
    assert_eq!(
        cached.stats.per_iteration, per_edge.stats.per_iteration,
        "{cell}: per-iteration stats"
    );
    assert_eq!(cached.work, per_edge.work, "{cell}: work trace");
    assert_eq!(
        cached.stats.elapsed, per_edge.stats.elapsed,
        "{cell}: simulated time"
    );
    cached
}

fn warm_copy<P: GasProgram, Q: GasProgram<VertexValue = P::VertexValue>>(
    w: &WarmStart<P>,
) -> WarmStart<Q> {
    WarmStart {
        vertex_values: w.vertex_values.clone(),
        frontier: w.frontier.clone(),
    }
}

/// Every source-only program, once per kernel mode, codec and shard
/// count, then warm over added vertices and under a cap that splits
/// shards: the per-source terms change nothing but host time.
#[test]
fn source_only_gather_matches_the_per_edge_fold() {
    let pr = PageRank {
        epsilon: 1e-4,
        max_iters: 30,
        ..Default::default()
    };
    // Directed, with sinks (out-degree 0) and sources nobody reaches.
    let layout = GraphLayout::build(&gen::rmat_g500(11, 16_000, 7));
    let n = layout.num_vertices();
    let lanes: Vec<u32> = (0..64).map(|i| i * 31 % n).collect();
    let plat = Platform::paper_node();
    for mode in [HostKernels::Serial, HostKernels::Adaptive] {
        for shards in [1, 8] {
            for codec in [None, Some(CompressionCodec::Zeta(3))] {
                let opts = Options {
                    host_kernels: mode,
                    shard_compression: codec,
                    ..Options::optimized().with_num_shards(shards)
                };
                let cell = format!("{mode:?} {shards} shards {codec:?}");
                let run = assert_source_only_matches_per_edge(
                    pr,
                    &layout,
                    &plat,
                    &opts,
                    None,
                    &format!("PageRank {cell}"),
                );
                assert_eq!(run.stats.num_shards, shards, "{cell}");
                let ms = MsBfs::new(lanes.clone());
                assert_source_only_matches_per_edge(ms, &layout, &plat, &opts, None, &cell);
                let levels = MsBfsLevels::new(lanes.clone());
                assert_source_only_matches_per_edge(levels, &layout, &plat, &opts, None, &cell);
            }
        }
    }

    // Warm start onto a graph with two added vertices wired in: the
    // carried values are padded, and every term is rebuilt from them.
    let opts = Options::optimized().with_num_shards(4);
    let first = GraphSession::new(&layout, plat.clone(), opts.clone())
        .query(&pr)
        .run()
        .unwrap();
    let mut edges = gen::rmat_g500(11, 16_000, 7).edges;
    edges.extend([(5, n), (n, n + 1), (n + 1, 9)]);
    let grown = GraphLayout::build(&EdgeList::from_edges(n + 2, edges));
    let warm = WarmStart {
        vertex_values: first.vertex_values,
        frontier: vec![5, n, n + 1, 9],
    };
    assert_source_only_matches_per_edge(pr, &grown, &plat, &opts, Some(&warm), "warm PageRank");
    let sweep = MsBfsLevels::new(lanes.clone());
    let first = GraphSession::new(&layout, plat.clone(), opts.clone())
        .query(&sweep)
        .run()
        .unwrap();
    let warm = WarmStart {
        vertex_values: first.vertex_values,
        frontier: vec![5, n, n + 1, 9],
    };
    assert_source_only_matches_per_edge(sweep, &grown, &plat, &opts, Some(&warm), "warm sweep");

    // A device cap below one shard slot: the governor splits shards.
    let plat = Platform::paper_node_scaled(1 << 14);
    let sizes = SizeModel::for_program(&pr);
    let plan = plan_partition(&layout, &sizes, &plat.device, &plat.pcie, 2, None).unwrap();
    let opts = Options::optimized().with_mem_cap(plan.static_bytes + plan.max_shard_bytes / 2);
    let capped = assert_source_only_matches_per_edge(pr, &layout, &plat, &opts, None, "capped");
    assert!(capped.stats.shard_splits > 0, "the cap must split shards");
}
