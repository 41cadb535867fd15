//! Layer probes of the traced run: each times one layer through its public
//! API, on the workload's own graph, outside every end-to-end measurement.

use std::hint::black_box;

use gr_algorithms::{Bfs, Cc};
use gr_graph::{
    build_shards, partition_even_edges, Bitmap, CompressedTopology, GraphLayout, Interval, Shard,
    TopoView,
};
use gr_observe::WallProfiler;
use gr_sim::{Gpu, KernelSpec, Platform};
use graphreduce::phases::{activate_shard, apply_shard, gather_shard, scatter_shard};
use graphreduce::{
    CheckpointPolicy, EngineError, FileShardStore, GasProgram, GraphSession, HostKernels, Options,
    ShardStore,
};

use crate::graphwl::{fingerprint, run_algo, Programs};
use crate::inputs::ZETA;
use crate::metrics::median;
use crate::{Ctx, Outcome};

/// Median wall seconds of `reps` calls to `f` after one unrecorded call.
/// `f` may consume `state`: `reset` restores it before every call and is
/// not timed.
fn reps_secs_reset<S>(
    ctx: &Ctx,
    name: &str,
    reps: usize,
    state: &mut S,
    mut reset: impl FnMut(&mut S),
    mut f: impl FnMut(&mut S),
) -> f64 {
    let secs: Vec<f64> = (0..=reps)
        .map(|_| {
            reset(state);
            ctx.tr.timed(name, 0, || f(state)).1
        })
        .collect();
    median(&secs[1..])
}

/// [`reps_secs_reset`] for a call that leaves its inputs as they were.
fn reps_secs(ctx: &Ctx, name: &str, reps: usize, mut f: impl FnMut()) -> f64 {
    reps_secs_reset(ctx, name, reps, &mut (), |_| {}, |_| f())
}

fn whole_graph_shard(layout: &GraphLayout) -> Shard {
    let all = Interval {
        start: 0,
        end: layout.num_vertices(),
    };
    build_shards(layout, &[all]).remove(0)
}

/// `gr-graph` partitioning: cut the vertex set by edge mass and
/// materialize the shard descriptors, as many as the session planned.
pub fn shard_build(ctx: &mut Ctx, layout: &GraphLayout, shards: usize) {
    let secs = reps_secs(ctx, "probe.shard_build", 3, || {
        let intervals = partition_even_edges(layout, shards);
        black_box(build_shards(layout, &intervals));
    });
    ctx.rep.set("graph.shard_build_ms", secs * 1e3);
}

/// The four phase kernels called directly on one whole-graph shard with
/// the CC program: dense (every vertex active) per edge or vertex, and
/// sparse (every 1021st vertex — a BFS tail iteration; the stride is prime
/// because RMAT piles degree onto ids with zero low bits) per call.
pub fn kernels(ctx: &mut Ctx, layout: &GraphLayout) {
    let n = layout.num_vertices();
    let m = layout.num_edges() as f64;
    let shard = whole_graph_shard(layout);
    let view = TopoView::raw(layout);
    let mode = HostKernels::Adaptive;
    let full = Bitmap::full(n);
    let mut sparse = Bitmap::new(n);
    (1..n).step_by(1021).for_each(|v| {
        sparse.set(v);
    });
    let init: Vec<u32> = (0..n).map(|v| Cc.init_vertex(v, 0)).collect();
    let mut values = init.clone();
    let mut edge_values = vec![(); layout.num_edges() as usize];
    let mut gathered = vec![Cc.gather_identity(); n as usize];
    let mut next = Bitmap::new(n);

    let gather = reps_secs(ctx, "probe.kernel.gather_dense", 3, || {
        black_box(gather_shard(
            &Cc,
            view,
            &shard,
            &values,
            &edge_values,
            &layout.weights,
            &full,
            &mut gathered,
            mode,
        ));
    });
    ctx.rep
        .set("kernel.gather_dense_ns_per_edge", gather * 1e9 / m);
    let mut apply = |frontier: &Bitmap, name: &str| {
        reps_secs_reset(
            ctx,
            name,
            3,
            &mut values,
            |values| values.copy_from_slice(&init),
            |values| {
                black_box(apply_shard(
                    &Cc, &shard, values, &gathered, frontier, 0, mode,
                ));
            },
        )
    };
    let apply_dense = apply(&full, "probe.kernel.apply_dense");
    let apply_sparse = apply(&sparse, "probe.kernel.apply_sparse");
    ctx.rep.set(
        "kernel.apply_dense_ns_per_vertex",
        apply_dense * 1e9 / n as f64,
    );
    ctx.rep.set("kernel.apply_sparse_us", apply_sparse * 1e6);
    let scatter = reps_secs(ctx, "probe.kernel.scatter_dense", 3, || {
        black_box(scatter_shard(
            &Cc,
            view,
            &shard,
            &values,
            &mut edge_values,
            &full,
            mode,
        ));
    });
    ctx.rep
        .set("kernel.scatter_dense_ns_per_edge", scatter * 1e9 / m);
    let mut activate = |changed: &Bitmap, name: &str| {
        reps_secs_reset(ctx, name, 3, &mut next, Bitmap::clear_all, |next| {
            black_box(activate_shard(view, &shard, changed, next, mode));
        })
    };
    let activate_dense = activate(&full, "probe.kernel.activate_dense");
    let activate_sparse = activate(&sparse, "probe.kernel.activate_sparse");
    ctx.rep.set(
        "kernel.activate_dense_ns_per_edge",
        activate_dense * 1e9 / m,
    );
    ctx.rep
        .set("kernel.activate_sparse_us", activate_sparse * 1e6);
}

/// `gr-sim` event scheduling: 100 k synthetic h2d → launch → d2h ops over
/// four streams through `Gpu`'s public API, resolved by one `synchronize`.
/// The simulated time must not move when the simulator gets faster.
pub fn sim(ctx: &mut Ctx) {
    let ops = if ctx.quick { 9_999 } else { 99_999 };
    let spec = KernelSpec::balanced("probe", 1 << 16, 4.0, 1 << 20, 1 << 10);
    let (gpu, secs) = ctx.tr.timed("probe.sim", 0, || {
        let mut gpu = Gpu::new(&Platform::paper_node());
        let streams: Vec<_> = (0..4).map(|_| gpu.create_stream()).collect();
        for i in 0..ops / 3 {
            let s = streams[i % streams.len()];
            gpu.h2d(s, 1 << 20, "probe");
            gpu.launch(s, &spec);
            gpu.d2h(s, 1 << 18, "probe");
        }
        gpu.synchronize();
        gpu
    });
    ctx.rep.set("sim.host_ns_per_op", secs * 1e9 / ops as f64);
    ctx.rep
        .set("sim.probe_sim_ms", gpu.elapsed().as_millis_f64());
}

/// Gap-stream decode (`rmat-zeta`): walk every CSR and CSC row through
/// `TopoView`, compressed and raw; the dense gather kernel over compressed
/// rows; and one raw round on the same graph and platform as the control.
pub fn decode(
    ctx: &mut Ctx,
    layout: &GraphLayout,
    platform: &Platform,
    progs: &Programs,
    next_query: &mut u64,
) -> Result<(), EngineError> {
    let (comp, build) = ctx.tr.timed("probe.compress_build", 0, || {
        CompressedTopology::build(layout, ZETA)
    });
    let entries = 2.0 * layout.num_edges() as f64;
    ctx.rep.set("graph.compress_build_ms", build * 1e3);
    ctx.rep.set(
        "graph.compress_bits_per_edge",
        comp.total_bytes() as f64 * 8.0 / entries,
    );
    let walk = |view: TopoView<'_>| {
        let mut acc = 0u64;
        for v in 0..layout.num_vertices() {
            for (nbr, eid) in view.csr_entries(v).chain(view.csc_entries(v)) {
                acc = acc.wrapping_add(nbr as u64 ^ eid as u64);
            }
        }
        black_box(acc);
    };
    let packed = TopoView::compressed(layout, &comp);
    let zeta = reps_secs(ctx, "probe.decode.rows", 2, || walk(packed));
    let raw = reps_secs(ctx, "probe.decode.raw_rows", 2, || {
        walk(TopoView::raw(layout))
    });
    ctx.rep.set("decode.row_ns_per_edge", zeta * 1e9 / entries);
    ctx.rep
        .set("decode.raw_row_ns_per_edge", raw * 1e9 / entries);
    ctx.rep.set("decode.slowdown_x", zeta / raw);

    let n = layout.num_vertices();
    let shard = whole_graph_shard(layout);
    let values: Vec<u32> = (0..n).collect();
    let mut gathered = vec![u32::MAX; n as usize];
    let gather = reps_secs(ctx, "probe.decode.gather_dense", 2, || {
        black_box(gather_shard(
            &Cc,
            packed,
            &shard,
            &values,
            &vec![(); layout.num_edges() as usize],
            &layout.weights,
            &Bitmap::full(n),
            &mut gathered,
            HostKernels::Adaptive,
        ));
    });
    ctx.rep.set(
        "decode.gather_dense_ns_per_edge",
        gather * 1e9 / layout.num_edges() as f64,
    );

    let raw_session = GraphSession::new(layout, platform.clone(), Options::optimized());
    let (secs, _) = ctx.tr.timed("probe.decode.raw_round", 0, || {
        let mut total = 0.0;
        for &algo in ctx.workload.algos() {
            *next_query += 1;
            let wall = WallProfiler::disarmed();
            total += run_algo(ctx, &raw_session, progs, algo, *next_query, &wall)?.secs;
        }
        Ok::<f64, EngineError>(total)
    });
    ctx.rep.set("decode.raw_round_ms", secs? * 1e3);
    Ok(())
}

/// Snapshot I/O (`grid-sparse`): BFS with a durable snapshot every 64
/// iterations against the plain run, the bytes full and delta policies
/// write, and a resume from the newest snapshot.
pub fn durable(
    ctx: &mut Ctx,
    session: &GraphSession<'_>,
    bfs: &Bfs,
    want_fp: u64,
    plain_bfs_ms: f64,
    out: &mut Outcome,
) -> Result<(), EngineError> {
    let full_dir = ctx.scratch.join("durable");
    let delta_dir = ctx.scratch.join("durable-delta");
    let mut check = |what: &str, got: u64| {
        out.attempted += 1;
        if got != want_fp {
            eprintln!("FAIL bfs: {what} run diverged from the plain run");
            out.failed += 1;
        }
    };
    let (res, secs) = ctx.tr.timed("probe.durable.run", 0, || {
        session
            .query(bfs)
            .with_checkpoint_policy(CheckpointPolicy::durable(&full_dir, 64))
            .run()
    });
    let res = res?;
    check("durable", fingerprint(&res.vertex_values));
    ctx.rep
        .set("durable.overhead_ms", secs * 1e3 - plain_bfs_ms);
    ctx.rep
        .set("durable.bytes", res.stats.checkpoint_bytes_written as f64);

    let (res, _) = ctx.tr.timed("probe.durable.delta_run", 0, || {
        session
            .query(bfs)
            .with_checkpoint_policy(CheckpointPolicy::durable_delta(&delta_dir, 64, 8))
            .run()
    });
    let res = res?;
    check("durable-delta", fingerprint(&res.vertex_values));
    ctx.rep.set(
        "durable.delta_bytes",
        res.stats.checkpoint_delta_bytes as f64,
    );

    let (res, secs) = ctx.tr.timed("probe.durable.resume", 0, || {
        session
            .query(bfs)
            .with_checkpoint_policy(CheckpointPolicy::durable(&full_dir, 64))
            .resume(&full_dir)
    });
    check("resumed", fingerprint(&res?.vertex_values));
    ctx.rep.set("durable.resume_ms", secs * 1e3);
    Ok(())
}

/// Spill I/O: put and get the workload's shard payloads — the
/// `(neighbor, edge id)` pairs of each shard's CSC and CSR slices, 8 bytes
/// an entry, as the engine frames them — through `FileShardStore`.
pub fn spill(ctx: &mut Ctx, layout: &GraphLayout, shards: &[Shard]) {
    let store = FileShardStore::new(ctx.scratch.join("spill"));
    let payloads: Vec<Vec<u8>> = shards
        .iter()
        .map(|s| {
            let mut p = Vec::with_capacity(s.edge_mass() as usize * 8);
            for adj in [&layout.csc, &layout.csr] {
                for v in s.interval.start..s.interval.end {
                    for (nbr, eid) in adj.entries(v) {
                        p.extend_from_slice(&nbr.to_le_bytes());
                        p.extend_from_slice(&eid.to_le_bytes());
                    }
                }
            }
            p
        })
        .collect();
    let mb = payloads.iter().map(Vec::len).sum::<usize>() as f64 / 1e6;
    let (_, put) = ctx.tr.timed("probe.spill.put", 0, || {
        for (i, p) in payloads.iter().enumerate() {
            store
                .put(i as u32, p)
                .expect("spill put into the scratch directory");
        }
    });
    let (_, get) = ctx.tr.timed("probe.spill.get", 0, || {
        for (i, p) in payloads.iter().enumerate() {
            let back = store.get(i as u32).expect("spill get of a blob just put");
            assert_eq!(back.len(), p.len(), "spill payload length");
        }
    });
    ctx.rep.set("spill.put_mb_s", mb / put);
    ctx.rep.set("spill.get_mb_s", mb / get);
}
