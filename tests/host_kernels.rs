//! Differential tests for the sparse/scan host kernels and the shard
//! fan-out.
//!
//! The contract under test: every [`HostKernels`] mode — and the engine's
//! fan-out of shards over threads — produces **bit-identical** results and
//! identical `ShardWork` counts. `Serial` is the oracle (the pre-adaptive
//! reference kernels); `Adaptive` must match it exactly, at
//! phase level (fixed frontier densities from 0.1% to 100%) and across
//! whole engine runs for all four evaluated algorithms. At phase level
//! every mode also reads the topology through gap-coded [`TopoView`]s,
//! which must change nothing. The long-grid and threshold-crossing runs
//! pin `Adaptive`'s sparse activate, which walks `changed` through the
//! bitmap's word summary, to the oracle over whole traversals. The
//! batch-edge runs drive shards with frontiers of 0, 1, B−1, B, B+1 and
//! 2B+1 vertices (B = `ROW_BATCH`, the rows a batched walk locates at
//! once), over every view, where a dropped or repeated row would show.
//! Pull-side
//! activate must mark exactly the bits push marks, shard by shard at phase
//! level and iteration by iteration over a hub-sourced BFS that switches
//! direction twice.

use std::collections::BTreeMap;

use gr_algorithms::{Bfs, Cc, PageRank, Sssp};
use gr_graph::{
    build_shards, gen, Bitmap, CompressedTopology, CompressionCodec, GraphLayout, Interval, Shard,
    TopoView,
};
use gr_observe::{WallProfile, WallProfiler};
use gr_sim::Platform;
use graphreduce::phases::{
    activate_pull_shard, activate_shard, apply_shard, gather_shard, scatter_shard, ROW_BATCH,
};
use graphreduce::{
    plan_partition, GasProgram, GraphSession, HostKernels, InitialFrontier, Options, SizeModel,
};

/// Force four worker threads so the engine's shard fan-out actually runs
/// threaded even on single-CPU machines. Every test in this binary wants
/// the same value, so a process-wide set-once is race-free.
fn force_threads() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| std::env::set_var("RAYON_NUM_THREADS", "4"));
}

const DENSITIES: [f64; 4] = [0.001, 0.01, 0.5, 1.0];

/// Deterministic pseudo-random frontier at roughly `density` (always at
/// least one active vertex, so every phase has work).
fn random_frontier(n: u32, density: f64, seed: u64) -> Bitmap {
    if density >= 1.0 {
        return Bitmap::full(n);
    }
    let mut b = Bitmap::new(n);
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let thresh = (density * f64::from(u32::MAX)) as u64;
    for v in 0..n {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        if (s >> 32) < thresh {
            b.set(v);
        }
    }
    if b.count() == 0 && n > 0 {
        b.set(seed as u32 % n);
    }
    b
}

/// Everything one GAS iteration produces, phase by phase.
#[derive(Debug, PartialEq)]
struct PhaseOutcome<V, E, G> {
    gather: Vec<(u64, u64)>,
    changed_ids: Vec<Vec<u32>>,
    scattered: Vec<u64>,
    activate: Vec<(u64, u64)>,
    values: Vec<V>,
    edge_values: Vec<E>,
    gather_temp: Vec<G>,
    next_frontier: Vec<u32>,
}

/// Run one full GAS iteration under `mode` from freshly initialized state,
/// reading topology through `view`.
fn run_phases<P: GasProgram>(
    program: &P,
    view: TopoView<'_>,
    shards: &[Shard],
    frontier: &Bitmap,
    mode: HostKernels,
) -> PhaseOutcome<P::VertexValue, P::EdgeValue, P::Gather> {
    let layout = view.layout();
    let n = layout.num_vertices();
    let mut values: Vec<P::VertexValue> = (0..n)
        .map(|v| program.init_vertex(v, layout.csr.degree(v) as u32))
        .collect();
    let mut edge_values = vec![P::EdgeValue::default(); layout.num_edges() as usize];
    let mut gather_temp = vec![program.gather_identity(); n as usize];

    let mut gather = Vec::new();
    if program.has_gather() {
        for sh in shards {
            let (lo, hi) = (sh.interval.start as usize, sh.interval.end as usize);
            // Split per shard so slices mirror the engine's carve-up.
            let slice = &mut gather_temp[lo..hi];
            gather.push(gather_shard(
                program,
                view,
                sh,
                &values,
                &edge_values,
                &layout.weights,
                frontier,
                slice,
                mode,
            ));
        }
    }

    let mut changed_ids = Vec::new();
    let mut changed = Bitmap::new(n);
    for sh in shards {
        let (lo, hi) = (sh.interval.start as usize, sh.interval.end as usize);
        let ids = apply_shard(
            program,
            sh,
            &mut values[lo..hi],
            &gather_temp[lo..hi],
            frontier,
            0,
            mode,
        );
        for &v in &ids {
            changed.set(v);
        }
        changed_ids.push(ids);
    }

    // Scatter is exercised unconditionally: even with a no-op scatter
    // function the sparse/scan iteration machinery (and its work count)
    // must agree across modes.
    let scattered = shards
        .iter()
        .map(|sh| scatter_shard(program, view, sh, &values, &mut edge_values, &changed, mode))
        .collect();

    let mut next = Bitmap::new(n);
    let activate = shards
        .iter()
        .map(|sh| activate_shard(view, sh, &changed, &mut next, mode))
        .collect();

    PhaseOutcome {
        gather,
        changed_ids,
        scattered,
        activate,
        values,
        edge_values,
        gather_temp,
        next_frontier: next.iter_set().collect(),
    }
}

fn phase_graph() -> (GraphLayout, Vec<Shard>) {
    // Two uneven shards of a few thousand vertices each, with weights so
    // SSSP has real distances.
    let el = gen::with_random_weights(gen::uniform(20_000, 120_000, 7), 1.0, 8).symmetrize();
    let layout = GraphLayout::build(&el);
    let shards = build_shards(
        &layout,
        &[
            Interval {
                start: 0,
                end: 9_000,
            },
            Interval {
                start: 9_000,
                end: 20_000,
            },
        ],
    );
    (layout, shards)
}

fn assert_phases_agree<P: GasProgram>(program: P)
where
    P::VertexValue: PartialEq + std::fmt::Debug,
    P::EdgeValue: PartialEq + std::fmt::Debug,
    P::Gather: PartialEq + std::fmt::Debug,
{
    force_threads();
    let (layout, shards) = phase_graph();
    let coded = [CompressionCodec::Zeta(3), CompressionCodec::Varint]
        .map(|codec| CompressedTopology::build(&layout, codec));
    let raw = TopoView::raw(&layout);
    let views = [
        ("raw", raw),
        ("zeta3", TopoView::compressed(&layout, &coded[0])),
        ("varint", TopoView::compressed(&layout, &coded[1])),
    ];
    for (di, &density) in DENSITIES.iter().enumerate() {
        let frontier = random_frontier(layout.num_vertices(), density, 11 + di as u64);
        let oracle = run_phases(&program, raw, &shards, &frontier, HostKernels::Serial);
        assert!(
            oracle.gather.iter().map(|g| g.0).sum::<u64>() > 0 || !program.has_gather(),
            "density {density} frontier produced no gather work"
        );
        for (tag, view) in views {
            for mode in [HostKernels::Serial, HostKernels::Adaptive] {
                let got = run_phases(&program, view, &shards, &frontier, mode);
                assert_eq!(
                    got,
                    oracle,
                    "{} differs from Serial over raw rows under {mode:?} over {tag} rows \
                     at density {density}",
                    program.name()
                );
            }
        }
    }
}

#[test]
fn bfs_phases_agree_across_modes_and_densities() {
    assert_phases_agree(Bfs::new(0));
}

#[test]
fn sssp_phases_agree_across_modes_and_densities() {
    assert_phases_agree(Sssp::new(0));
}

#[test]
fn pagerank_phases_agree_across_modes_and_densities() {
    assert_phases_agree(PageRank::default());
}

#[test]
fn cc_phases_agree_across_modes_and_densities() {
    assert_phases_agree(Cc);
}

/// Scatter that writes edge state naming both endpoints, so a wrong
/// destination or a wrong canonical id (over coded rows the two come from
/// separate streams walked in lock-step) lands in `edge_values`.
struct StampEndpoints;

impl GasProgram for StampEndpoints {
    type VertexValue = u32;
    type EdgeValue = u64;
    type Gather = u64;

    fn name(&self) -> &'static str {
        "stamp-endpoints"
    }

    fn init_vertex(&self, v: u32, _out_degree: u32) -> u32 {
        v + 1
    }

    fn initial_frontier(&self) -> InitialFrontier {
        InitialFrontier::All
    }

    fn gather_identity(&self) -> u64 {
        0
    }

    fn gather_map(&self, _dst: &u32, src: &u32, edge: &u64, _w: f32) -> u64 {
        *edge ^ u64::from(*src)
    }

    fn gather_reduce(&self, a: u64, b: u64) -> u64 {
        a.wrapping_mul(31).wrapping_add(b)
    }

    fn apply(&self, v: &mut u32, r: u64, _iteration: u32) -> bool {
        *v ^= r as u32;
        true
    }

    fn scatter(&self, src: &u32, dst: &u32, edge: &mut u64) {
        *edge = u64::from(*src) << 32 | u64::from(*dst);
    }

    fn has_scatter(&self) -> bool {
        true
    }
}

#[test]
fn edge_stamping_phases_agree_across_modes_and_densities() {
    assert_phases_agree(StampEndpoints);
}

/// Active vertices per shard at the edges of a batched walk's batches.
const BATCH_EDGES: [usize; 6] = [
    0,
    1,
    ROW_BATCH - 1,
    ROW_BATCH,
    ROW_BATCH + 1,
    2 * ROW_BATCH + 1,
];

/// Three shards on intervals that are not 64-aligned, each long enough
/// that `2 * ROW_BATCH + 1` active vertices stay below 1/8 of it, so
/// `Adaptive` walks every one of them sparse and batched.
fn batch_edge_graph() -> (GraphLayout, Vec<Shard>) {
    let el = gen::with_random_weights(gen::uniform(6_000, 36_000, 5), 1.0, 8).symmetrize();
    let layout = GraphLayout::build(&el);
    let cuts = [0, 1_337, 3_901, 6_000];
    let intervals: Vec<Interval> = cuts
        .windows(2)
        .map(|w| Interval {
            start: w[0],
            end: w[1],
        })
        .collect();
    let shards = build_shards(&layout, &intervals);
    (layout, shards)
}

/// A frontier with exactly `counts[i]` vertices in shard `i`, spread over
/// the interval from its first vertex to its last.
fn frontier_with_counts(n: u32, shards: &[Shard], counts: &[usize]) -> Bitmap {
    let mut b = Bitmap::new(n);
    for (sh, &k) in shards.iter().zip(counts) {
        let (lo, span) = (sh.interval.start as usize, sh.interval.len() as usize - 1);
        for t in 0..k {
            b.set((lo + t * span / (k - 1).max(1)) as u32);
        }
        assert_eq!(b.count_range(sh.interval.start, sh.interval.end), k as u64);
    }
    b
}

/// The batched sparse walks at their batch edges, over raw, ζ₃ and varint
/// rows: with 0, 1, B−1, B, B+1 and 2B+1 active vertices per shard
/// (B = [`ROW_BATCH`]), `Adaptive` matches the `Serial` oracle in
/// `gather_temp` and every other phase output, and a push activate
/// driven by that frontier reports the oracle's `(walked, activated)`
/// per shard and marks exactly the out-neighbours a plain CSR loop finds.
fn assert_batch_edges_agree<P: GasProgram>(program: P)
where
    P::VertexValue: PartialEq + std::fmt::Debug,
    P::EdgeValue: PartialEq + std::fmt::Debug,
    P::Gather: PartialEq + std::fmt::Debug,
{
    let (layout, shards) = batch_edge_graph();
    let n = layout.num_vertices();
    let coded = [CompressionCodec::Zeta(3), CompressionCodec::Varint]
        .map(|codec| CompressedTopology::build(&layout, codec));
    let raw = TopoView::raw(&layout);
    let views = [
        ("raw", raw),
        ("zeta3", TopoView::compressed(&layout, &coded[0])),
        ("varint", TopoView::compressed(&layout, &coded[1])),
    ];
    for rot in 0..BATCH_EDGES.len() {
        let counts: Vec<usize> = (0..shards.len())
            .map(|i| BATCH_EDGES[(rot + i) % BATCH_EDGES.len()])
            .collect();
        let frontier = frontier_with_counts(n, &shards, &counts);
        let oracle = run_phases(&program, raw, &shards, &frontier, HostKernels::Serial);
        let mut reference = Bitmap::new(n);
        for v in frontier.iter_set() {
            for &dst in &layout.csr.neighbors[layout.csr.range(v)] {
                reference.set(dst);
            }
        }
        let push = |view: TopoView<'_>, mode| {
            let mut next = Bitmap::new(n);
            let work: Vec<(u64, u64)> = shards
                .iter()
                .map(|sh| activate_shard(view, sh, &frontier, &mut next, mode))
                .collect();
            (work, next)
        };
        let (oracle_work, oracle_next) = push(raw, HostKernels::Serial);
        assert_eq!(
            oracle_next, reference,
            "Serial marking at counts {counts:?}"
        );
        for (tag, view) in views {
            let what = format!("{} over {tag} rows at counts {counts:?}", program.name());
            let got = run_phases(&program, view, &shards, &frontier, HostKernels::Adaptive);
            assert_eq!(got, oracle, "{what}");
            let (work, next) = push(view, HostKernels::Adaptive);
            assert_eq!(work, oracle_work, "walked/activated, {what}");
            assert_eq!(next, reference, "next frontier, {what}");
        }
    }
}

#[test]
fn bfs_phases_agree_at_batch_edges() {
    assert_batch_edges_agree(Bfs::new(0));
}

#[test]
fn sssp_phases_agree_at_batch_edges() {
    assert_batch_edges_agree(Sssp::new(0));
}

#[test]
fn cc_phases_agree_at_batch_edges() {
    assert_batch_edges_agree(Cc);
}

/// Pull against push on a directed R-MAT graph, whose in-rows differ from
/// its out-rows, cut into two uneven shards: at every changed density and
/// over raw, ζ₃ and varint rows, pulling every shard marks exactly the
/// bits the push oracle marks, and each shard reports the push walk.
#[test]
fn pull_activate_matches_push_across_densities_and_views() {
    let layout = GraphLayout::build(&gen::rmat_g500(14, 120_000, 9));
    let n = layout.num_vertices();
    let shards = build_shards(
        &layout,
        &[
            Interval {
                start: 0,
                end: 3_000,
            },
            Interval {
                start: 3_000,
                end: n,
            },
        ],
    );
    let coded = [CompressionCodec::Zeta(3), CompressionCodec::Varint]
        .map(|codec| CompressedTopology::build(&layout, codec));
    let raw = TopoView::raw(&layout);
    let views = [
        ("raw", raw),
        ("zeta3", TopoView::compressed(&layout, &coded[0])),
        ("varint", TopoView::compressed(&layout, &coded[1])),
    ];
    for (di, &density) in DENSITIES.iter().enumerate() {
        let changed = random_frontier(n, density, 23 + di as u64);
        let mut pushed = Bitmap::new(n);
        let push_walked: Vec<u64> = shards
            .iter()
            .map(|sh| activate_shard(raw, sh, &changed, &mut pushed, HostKernels::Serial).0)
            .collect();
        assert!(pushed.count() > 0, "density {density} activated nothing");
        for (tag, view) in views {
            let mut pulled = Bitmap::new(n);
            let walked: Vec<u64> = shards
                .iter()
                .map(|sh| activate_pull_shard(view, sh, &changed, &mut pulled).0)
                .collect();
            assert_eq!(walked, push_walked, "walk over {tag} rows at {density}");
            assert_eq!(pulled.count(), pushed.count(), "{tag} rows at {density}");
            assert!(
                pulled.iter_set().eq(pushed.iter_set()),
                "next frontier over {tag} rows at density {density}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Whole-run agreement: every mode, multi-shard engine, threaded fan-out.
// ---------------------------------------------------------------------------

/// RMAT-13: the smallest scale at which every program's peak frontier
/// (BFS: ≈ 5 700 vertices) passes the engine's fan-out gate of 4 096
/// active vertices, so each run below fans out.
fn engine_graph() -> GraphLayout {
    GraphLayout::build(
        &gen::with_random_weights(gen::rmat_g500(13, 80_000, 5), 1.0, 6).symmetrize(),
    )
}

/// Run `program` over `layout` on a scaled-down device (so the run streams
/// several shards) with an armed wall profiler; returns the run and its
/// profile, whose samples name the worker thread and the shape of every
/// shard's phase in every iteration.
fn profiled_run<P: GasProgram>(
    program: &P,
    layout: &GraphLayout,
    mode: HostKernels,
) -> (graphreduce::RunResult<P>, WallProfile) {
    let wall = WallProfiler::armed();
    let run = GraphSession::new(
        layout,
        Platform::paper_node_scaled(8_192),
        Options {
            host_kernels: mode,
            ..Options::optimized()
        },
    )
    .query(program)
    .with_wall_profiler(wall.clone())
    .run()
    .unwrap();
    assert!(
        run.stats.num_shards > 1,
        "setup must stream multiple shards"
    );
    (run, wall.profile())
}

/// Every mode agrees with the `Serial` oracle over a whole run: values,
/// edge state, per-iteration stats and the simulated timeline.
fn assert_matches_oracle<P: GasProgram>(
    got: &graphreduce::RunResult<P>,
    oracle: &graphreduce::RunResult<P>,
    mode: HostKernels,
) where
    P::VertexValue: PartialEq + std::fmt::Debug,
    P::EdgeValue: PartialEq + std::fmt::Debug,
{
    assert_eq!(got.vertex_values, oracle.vertex_values, "{mode:?}");
    assert_eq!(got.edge_values, oracle.edge_values, "{mode:?}");
    // Identical ShardWork counts ⇒ identical simulated timeline.
    assert_eq!(
        got.stats.per_iteration, oracle.stats.per_iteration,
        "{mode:?}"
    );
    let counters = |s: &graphreduce::RunStats| {
        [
            u64::from(s.iterations),
            s.elapsed.as_nanos(),
            s.memcpy_time.as_nanos(),
            s.kernel_time.as_nanos(),
            s.bytes_h2d,
            s.bytes_d2h,
            s.copy_ops,
            s.kernel_launches,
            s.skipped_shard_copies,
            s.skipped_kernel_launches,
        ]
    };
    assert_eq!(
        counters(&got.stats),
        counters(&oracle.stats),
        "{mode:?}: run work counters"
    );
}

fn assert_runs_agree<P: GasProgram>(program: P)
where
    P::VertexValue: PartialEq + std::fmt::Debug,
    P::EdgeValue: PartialEq + std::fmt::Debug,
{
    force_threads();
    let layout = engine_graph();
    let (oracle, profile) = profiled_run(&program, &layout, HostKernels::Serial);
    assert!(
        profile.thread_count() > 1,
        "{}: the shard fan-out never engaged",
        program.name()
    );
    let mode = HostKernels::Adaptive;
    let (got, profile) = profiled_run(&program, &layout, mode);
    assert!(
        profile.thread_count() > 1,
        "{} under {mode:?}: the shard fan-out never engaged",
        program.name()
    );
    assert_matches_oracle(&got, &oracle, mode);
}

#[test]
fn bfs_runs_agree_across_modes() {
    assert_runs_agree(Bfs::new(0));
}

#[test]
fn sssp_runs_agree_across_modes() {
    assert_runs_agree(Sssp::new(0));
}

#[test]
fn pagerank_runs_agree_across_modes() {
    assert_runs_agree(PageRank::default());
}

#[test]
fn cc_runs_agree_across_modes() {
    assert_runs_agree(Cc);
}

/// A long grid keeps BFS and SSSP frontiers far below the fan-out gate
/// and below 1/8 of every shard: every phase runs inline on the caller,
/// `Adaptive`'s activate resolves sparse in most iterations, and both
/// modes still match the oracle. This is what keeps the one-thread
/// path covered when the suite runs with several threads.
#[test]
fn sparse_frontiers_stay_on_the_caller() {
    force_threads();
    let layout = GraphLayout::build(
        &gen::with_random_weights(gen::grid2d_with_edges(1 << 14, 1 << 16, 3), 1.0, 4).symmetrize(),
    );
    assert_stays_on_the_caller(Bfs::new(0), &layout);
    assert_stays_on_the_caller(Sssp::new(0), &layout);
}

fn assert_stays_on_the_caller<P: GasProgram>(program: P, layout: &GraphLayout)
where
    P::VertexValue: PartialEq + std::fmt::Debug,
    P::EdgeValue: PartialEq + std::fmt::Debug,
{
    let name = program.name();
    let (oracle, profile) = profiled_run(&program, layout, HostKernels::Serial);
    assert!(oracle.stats.iterations > 100, "{name}: a long traversal");
    let fanned_out = "a below-gate frontier fanned out";
    assert_eq!(profile.thread_count(), 1, "{name}: {fanned_out}");
    let mode = HostKernels::Adaptive;
    let (got, profile) = profiled_run(&program, layout, mode);
    assert_eq!(
        profile.thread_count(),
        1,
        "{name} under {mode:?}: {fanned_out}"
    );
    assert_matches_oracle(&got, &oracle, mode);
    let shapes = activate_shapes(&profile);
    let sparse = shapes
        .values()
        .flatten()
        .filter(|&&s| s == "sparse")
        .count();
    assert!(
        sparse > 100,
        "{name}: activate resolved sparse in {sparse} shard-iterations, want > 100"
    );
}

/// Per shard, the shape activate resolved to in each iteration, in
/// iteration order.
fn activate_shapes(profile: &WallProfile) -> BTreeMap<u32, Vec<&'static str>> {
    let mut samples: Vec<_> = profile
        .samples
        .iter()
        .filter(|s| s.key.phase == "activate")
        .map(|s| (s.key.shard, s.key.iteration, s.key.shape))
        .collect();
    samples.sort_unstable();
    let mut shapes: BTreeMap<u32, Vec<&'static str>> = BTreeMap::new();
    for (shard, _, shape) in samples {
        shapes.entry(shard).or_default().push(shape);
    }
    shapes
}

/// Whether `shapes` goes sparse, then dense, then sparse again.
fn crosses_both_ways(shapes: &[&str]) -> bool {
    let Some(up) = shapes.iter().position(|&s| s == "sparse") else {
        return false;
    };
    let Some(dense) = shapes[up..].iter().position(|&s| s == "dense") else {
        return false;
    };
    shapes[up + dense..].contains(&"sparse")
}

/// `Adaptive` against the `Serial` oracle over a whole run, returning the
/// `Adaptive` run's activate shapes.
fn assert_adaptive_matches_serial<P: GasProgram>(
    program: P,
    layout: &GraphLayout,
) -> BTreeMap<u32, Vec<&'static str>>
where
    P::VertexValue: PartialEq + std::fmt::Debug,
    P::EdgeValue: PartialEq + std::fmt::Debug,
{
    let (oracle, _) = profiled_run(&program, layout, HostKernels::Serial);
    let mode = HostKernels::Adaptive;
    let (got, profile) = profiled_run(&program, layout, mode);
    assert_matches_oracle(&got, &oracle, mode);
    activate_shapes(&profile)
}

/// BFS and SSSP on a small-world ring: as the wave passes through a
/// shard, the shard's changed set starts below 1/8 of its interval, grows
/// past it and falls back below it, while the changed edge mass stays
/// under the pull threshold, so the pushed activate switches from the
/// sparse walk to the scan and back within one run, and the run still
/// matches the oracle. (R-MAT's middle levels pull instead; see
/// `hub_bfs_pushes_pulls_and_pushes_again_like_the_oracle`.)
#[test]
fn activate_crossing_the_threshold_both_ways_matches_the_oracle() {
    force_threads();
    let layout = GraphLayout::build(
        &gen::with_random_weights(gen::smallworld(1 << 14, 1 << 17, 0.02, 3), 1.0, 6).symmetrize(),
    );
    for (name, shapes) in [
        ("bfs", assert_adaptive_matches_serial(Bfs::new(0), &layout)),
        (
            "sssp",
            assert_adaptive_matches_serial(Sssp::new(0), &layout),
        ),
    ] {
        assert!(
            shapes.values().any(|s| crosses_both_ways(s)),
            "{name}: no shard's activate went sparse, dense, sparse: {shapes:?}"
        );
    }
}

/// A BFS from RMAT-13's largest hub on uneven shards: the hub's own
/// out-edges are under 1/8 of the graph's, the next two levels' are over
/// it and the tail's are under it again, so activate pushes, pulls, then
/// pushes. Every iteration pulls on all shards or on none, and the run
/// matches the push-only oracle in values, per-iteration stats, elapsed
/// time and device op counts.
#[test]
fn hub_bfs_pushes_pulls_and_pushes_again_like_the_oracle() {
    force_threads();
    let layout = engine_graph();
    let hub = (0..layout.num_vertices())
        .max_by_key(|&v| layout.csr.degree(v))
        .unwrap();
    let program = Bfs::new(hub);
    let plat = Platform::paper_node_scaled(8_192);
    let opts = Options::optimized();
    let sizes = SizeModel::for_program(&program);
    let plan = plan_partition(
        &layout,
        &sizes,
        &plat.device,
        &plat.pcie,
        opts.concurrent_shards,
        opts.num_shards,
    )
    .unwrap();
    let lens: Vec<u32> = plan.shards.iter().map(|s| s.interval.len()).collect();
    assert!(
        lens.len() >= 2 && lens.iter().min() < lens.iter().max(),
        "want uneven shards: {lens:?}"
    );

    let (oracle, profile) = profiled_run(&program, &layout, HostKernels::Serial);
    assert!(
        profile.samples.iter().all(|s| s.key.shape != "pull"),
        "the oracle never pulls"
    );
    let mode = HostKernels::Adaptive;
    let (got, profile) = profiled_run(&program, &layout, mode);
    assert_matches_oracle(&got, &oracle, mode);

    let mut per_iter: BTreeMap<u32, Vec<bool>> = BTreeMap::new();
    for s in profile.samples.iter().filter(|s| s.key.phase == "activate") {
        per_iter
            .entry(s.key.iteration)
            .or_default()
            .push(s.key.shape == "pull");
    }
    let pulled: Vec<bool> = per_iter
        .iter()
        .map(|(i, shards)| {
            assert!(
                shards.iter().all(|&p| p == shards[0]),
                "iteration {i} mixed push and pull: {shards:?}"
            );
            shards[0]
        })
        .collect();
    let first_pull = pulled.iter().position(|&p| p);
    let last_pull = pulled.iter().rposition(|&p| p);
    assert!(
        matches!((first_pull, last_pull), (Some(a), Some(b)) if a > 0 && b + 1 < pulled.len()),
        "want push, pull, push by iteration: {pulled:?}"
    );
}
