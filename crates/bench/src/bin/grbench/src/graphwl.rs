//! The three graph workloads (`rmat-dense`, `grid-sparse`, `rmat-zeta`):
//! build once, then rounds of BFS / SSSP / CC / PageRank on one
//! `GraphSession`, each answer checked, each query timed from outside.

use std::time::Instant;

use gr_algorithms::{reference, Bfs, Cc, PageRank, PrValue, Sssp};
use gr_graph::GraphLayout;
use gr_observe::{WallProfile, WallProfiler};
use graphreduce::sizes::SizeModel;
use graphreduce::{EngineError, GasProgram, GraphSession, RunStats, StateBytes};

use crate::inputs::{out_of_core_platform, source, Workload};
use crate::metrics::median;
use crate::{probes, Ctx, Outcome};

/// PageRank as every graph round runs it (the issue's parameters).
pub const PAGERANK: PageRank = PageRank {
    damping: 0.85,
    epsilon: 1e-4,
    max_iters: 10,
};

/// FNV-1a (over 8-byte words) of the serialized values: the benchmark's own state
/// fingerprint (`RunStats::state_fingerprint` is only filled on durable
/// runs), compared across rounds, thread counts and traced/untraced runs.
pub fn fingerprint<V: StateBytes>(values: &[V]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut buf = vec![0u8; V::BYTES.next_multiple_of(8)];
    for v in values {
        v.write_bytes(&mut buf[..V::BYTES]);
        for word in buf.chunks_exact(8) {
            let word = u64::from_le_bytes(word.try_into().expect("8-byte chunk"));
            h = (h ^ word).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// A fingerprint as a metric: folded to 32 bits, which an f64 holds exactly.
pub fn fp_metric(fp: u64) -> f64 {
    ((fp ^ (fp >> 32)) & 0xffff_ffff) as f64
}

pub enum Answer {
    Depths(Vec<u32>),
    Distances(Vec<f32>),
    Labels(Vec<u32>),
    Ranks(Vec<PrValue>),
}

/// One timed query: wall time, the engine's own statistics, the answer.
pub struct QueryRun {
    pub secs: f64,
    pub stats: RunStats,
    pub fp: u64,
    pub answer: Answer,
}

pub struct Programs {
    pub bfs: Bfs,
    pub sssp: Sssp,
}

fn run_one<P: GasProgram>(
    ctx: &Ctx,
    session: &GraphSession<'_>,
    program: &P,
    algo: &str,
    query: u64,
    wall: &WallProfiler,
    wrap: impl FnOnce(Vec<P::VertexValue>) -> Answer,
) -> Result<QueryRun, EngineError> {
    let (res, secs) = ctx.tr.timed(&format!("query.{algo}"), query, || {
        session
            .query(program)
            .with_wall_profiler(wall.clone())
            .run()
    });
    let res = res?;
    Ok(QueryRun {
        secs,
        fp: fingerprint(&res.vertex_values),
        stats: res.stats,
        answer: wrap(res.vertex_values),
    })
}

pub fn run_algo(
    ctx: &Ctx,
    session: &GraphSession<'_>,
    progs: &Programs,
    algo: &str,
    query: u64,
    wall: &WallProfiler,
) -> Result<QueryRun, EngineError> {
    match algo {
        "bfs" => run_one(ctx, session, &progs.bfs, algo, query, wall, Answer::Depths),
        "sssp" => run_one(
            ctx,
            session,
            &progs.sssp,
            algo,
            query,
            wall,
            Answer::Distances,
        ),
        "cc" => run_one(ctx, session, &Cc, algo, query, wall, Answer::Labels),
        "pagerank" => run_one(ctx, session, &PAGERANK, algo, query, wall, Answer::Ranks),
        other => unreachable!("unknown algorithm {other}"),
    }
}

/// Check one answer against `gr_algorithms::reference`, the way
/// `tests/engine_agreement.rs` does.
pub fn oracle_agrees(layout: &GraphLayout, src: u32, answer: &Answer) -> bool {
    match answer {
        Answer::Depths(got) => *got == reference::bfs(layout, src),
        Answer::Distances(got) => *got == reference::sssp(layout, src),
        // `check_cc_labels` reports a mismatch by panicking.
        Answer::Labels(got) => {
            std::panic::catch_unwind(|| reference::check_cc_labels(layout, got)).is_ok()
        }
        Answer::Ranks(got) => {
            let want = reference::pagerank_frontier(
                layout,
                PAGERANK.damping,
                PAGERANK.epsilon,
                PAGERANK.max_iters,
            );
            got.iter().map(|v| v.rank).eq(want)
        }
    }
}

/// One round: every algorithm of the workload once, each under an armed
/// `WallProfiler` when `profiled`. Returns the runs (and their profiles)
/// in algorithm order, or the first engine error.
fn round(
    ctx: &Ctx,
    session: &GraphSession<'_>,
    progs: &Programs,
    next_query: &mut u64,
    profiled: bool,
) -> Result<(Vec<QueryRun>, Vec<WallProfile>), EngineError> {
    let mut runs = Vec::new();
    let mut profiles = Vec::new();
    for &algo in ctx.workload.algos() {
        *next_query += 1;
        let wall = if profiled {
            WallProfiler::armed()
        } else {
            WallProfiler::disarmed()
        };
        runs.push(run_algo(ctx, session, progs, algo, *next_query, &wall)?);
        if profiled {
            profiles.push(wall.profile());
        }
    }
    Ok((runs, profiles))
}

/// Wall-clock milliseconds during which at least one sample of `phases`
/// was running. Kernel samples of parallel shards overlap, so their sum
/// can exceed the query's wall time; the union of their intervals cannot.
fn covered_ms(profile: &WallProfile, phases: &[&str]) -> f64 {
    let mut spans: Vec<(u64, u64)> = profile
        .samples
        .iter()
        .filter(|s| phases.contains(&s.key.phase))
        .map(|s| (s.start_ns, s.start_ns + s.dur_ns))
        .collect();
    spans.sort_unstable();
    let (mut covered, mut reach) = (0u64, 0u64);
    for (start, end) in spans {
        if end > reach {
            covered += end - start.max(reach);
            reach = end;
        }
    }
    covered as f64 / 1e6
}

/// Count and report the runs of a round that did not reproduce the warm-up
/// round: same seed and session, so the same answer and the same simulated
/// clock, at every thread count and with or without the profiler.
fn diverged(label: &str, algos: &[&str], runs: &[QueryRun], warm: &[QueryRun]) -> u64 {
    let mut n = 0;
    for ((r, w), a) in runs.iter().zip(warm).zip(algos) {
        if r.fp != w.fp || r.stats.elapsed != w.stats.elapsed {
            eprintln!("FAIL {a}: {label} diverged from the warm-up round");
            n += 1;
        }
    }
    n
}

fn round_secs(runs: &[QueryRun]) -> f64 {
    runs.iter().map(|r| r.secs).sum()
}

/// Per-algorithm accumulators over the timed rounds.
#[derive(Default)]
struct Series {
    ms: Vec<f64>,
    phase_ms: [Vec<f64>; 5], // gather, apply, scatter, activate, other
}

const KERNELS: [&str; 4] = ["gather", "apply", "scatter", "activate"];

pub fn run(ctx: &mut Ctx) -> Result<Outcome, EngineError> {
    let workload = ctx.workload;
    let traced = ctx.tr.is_on();
    let mut out = Outcome::default();
    let setup_t0 = Instant::now();

    // --- set-up: generate, lay out, open the session, warm up. ----------
    let (el, gen_s) = ctx
        .tr
        .timed("graph.gen", 0, || workload.edges(ctx.seed, ctx.quick));
    let (layout, layout_s) = ctx.tr.timed("graph.layout", 0, || GraphLayout::build(&el));
    drop(el);
    let platform = out_of_core_platform(&layout);
    let (session, session_s) = ctx.tr.timed("core.session_new", 0, || {
        GraphSession::new(&layout, platform.clone(), workload.options())
    });
    let cc_sizes = SizeModel::for_program(&Cc);
    let (plan, plan_cold_s) = ctx
        .tr
        .timed("core.plan_cold", 0, || session.partition_plan(&cc_sizes));
    let plan = plan.expect("the out-of-core platform admits a partition plan");
    let (_, plan_warm_s) = ctx
        .tr
        .timed("core.plan_warm", 0, || session.partition_plan(&cc_sizes));
    let src = source(workload, &layout);
    let progs = Programs {
        bfs: Bfs::new(src),
        sssp: Sssp::new(src),
    };
    let mut next_query = 0u64;
    let (warm, _) = ctx.tr.timed("round.warmup", 0, || {
        round(ctx, &session, &progs, &mut next_query, false)
    });
    let (warm, _) = warm?;
    let setup_s = setup_t0.elapsed().as_secs_f64();
    let algos = workload.algos();
    let edges = layout.num_edges() as f64;

    ctx.rep.set("setup_s", setup_s);
    ctx.rep.set("graph.gen_ms", gen_s * 1e3);
    ctx.rep.set("graph.layout_ms", layout_s * 1e3);
    ctx.rep.set("core.session_new_ms", session_s * 1e3);
    ctx.rep.set("core.plan_cold_us", plan_cold_s * 1e6);
    ctx.rep.set("core.plan_warm_us", plan_warm_s * 1e6);

    // --- timed rounds. --------------------------------------------------
    // Untraced: the whole measuring window. Traced: half of it, the rest
    // goes to the plain round, the thread-scaling rounds and the probes.
    // Rounds stop when the next one would run past the window.
    let window = if traced {
        ctx.seconds * 0.5
    } else {
        ctx.seconds
    };
    let min_rounds = if traced && !ctx.quick { 1 } else { 2 };
    let mut series: Vec<Series> = algos.iter().map(|_| Series::default()).collect();
    let mut round_ms = Vec::new();
    let mut imbalance = Vec::new();
    let mut workers = 0usize;
    let mut first: Option<Vec<QueryRun>> = None;
    let mut measured = 0.0;
    let mut last_round = round_secs(&warm);
    while round_ms.len() < min_rounds || (!ctx.quick && measured + last_round < window) {
        let (runs, _) = ctx
            .tr
            .timed(&format!("round.{}", round_ms.len() + 1), 0, || {
                round(ctx, &session, &progs, &mut next_query, traced)
            });
        let (runs, profiles) = runs?;
        last_round = round_secs(&runs);
        measured += last_round;
        round_ms.push(last_round * 1e3);
        out.attempted += runs.len() as u64;
        out.failed += diverged(&format!("round {}", round_ms.len()), algos, &runs, &warm);
        for (i, r) in runs.iter().enumerate() {
            series[i].ms.push(r.secs * 1e3);
        }
        for (i, p) in profiles.iter().enumerate() {
            for (k, phase) in KERNELS.iter().enumerate() {
                series[i].phase_ms[k].push(covered_ms(p, &[phase]));
            }
            // What the profiler does not attribute: the driver loop, data
            // movement, gr-sim scheduling, bitmap merges.
            series[i].phase_ms[4].push(runs[i].secs * 1e3 - covered_ms(p, &KERNELS));
            imbalance.push(p.imbalance());
            workers = workers.max(p.thread_count());
        }
        out.wall_profiles = profiles;
        if first.is_none() {
            first = Some(runs);
        }
    }
    let first = first.expect("at least one timed round");

    // --- correctness gate, outside every timed region. -------------------
    let (wrong, oracle_s) = ctx.tr.timed("verify.oracle", 0, || {
        first
            .iter()
            .zip(algos)
            .filter(|(r, a)| {
                let ok = oracle_agrees(&layout, src, &r.answer);
                if !ok {
                    eprintln!("FAIL {a}: answer differs from gr_algorithms::reference");
                }
                !ok
            })
            .count() as u64
    });
    out.failed += wrong;
    ctx.rep.set("verify.oracle_ms", oracle_s * 1e3);

    // --- report. ---------------------------------------------------------
    // Graph500 style — input edges × queries ÷ their wall time — over the
    // median round, so one disturbed round does not move it.
    ctx.rep.set(
        "mteps",
        edges * algos.len() as f64 / (median(&round_ms) / 1e3) / 1e6,
    );
    ctx.rep.set(
        "sim_ms",
        first.iter().map(|r| r.stats.elapsed.as_millis_f64()).sum(),
    );
    for (i, &a) in algos.iter().enumerate() {
        ctx.rep.set_median(&format!("{a}_ms"), &series[i].ms);
        let s = &first[i].stats;
        let iters = s.iterations.max(1) as f64;
        let sum = |f: fn(&graphreduce::IterationStats) -> u64| {
            s.per_iteration.iter().map(f).sum::<u64>() as f64
        };
        ctx.rep.set(&format!("q.{a}.iters"), s.iterations as f64);
        ctx.rep
            .set(&format!("q.{a}.gathered_edges"), sum(|i| i.gathered_edges));
        ctx.rep
            .set(&format!("q.{a}.sim_ms"), s.elapsed.as_millis_f64());
        ctx.rep.set(
            &format!("q.{a}.xfer_mb"),
            (s.bytes_h2d + s.bytes_d2h) as f64 / 1e6,
        );
        ctx.rep.set(
            &format!("q.{a}.sim_ops"),
            (s.copy_ops + s.kernel_launches) as f64,
        );
        ctx.rep.set(
            &format!("q.{a}.shards_skipped"),
            sum(|i| i.shards_skipped as u64),
        );
        ctx.rep.set(
            &format!("q.{a}.us_per_iter"),
            median(&series[i].ms) * 1e3 / iters,
        );
        ctx.rep
            .set(&format!("verify.fp.{a}"), fp_metric(first[i].fp));
        if traced {
            for (k, phase) in KERNELS.iter().chain(&["other"]).enumerate() {
                ctx.rep
                    .set_median(&format!("phase.{a}.{phase}_ms"), &series[i].phase_ms[k]);
            }
        }
    }
    if !traced {
        return Ok(out);
    }
    ctx.rep.set("phase.imbalance", median(&imbalance));
    ctx.rep.set("phase.workers", workers as f64);

    // --- plain round (tracing overhead) and thread scaling. ---------------
    // One worker against the widest fan-out the machine has cores for; the
    // plain round stands in for whichever of the two is the pinned count.
    let mut plain_round = |label: &str, threads: usize| -> Result<f64, EngineError> {
        std::env::set_var("RAYON_NUM_THREADS", threads.to_string());
        let (runs, _) = ctx.tr.timed(label, 0, || {
            round(ctx, &session, &progs, &mut next_query, false)
        });
        std::env::set_var("RAYON_NUM_THREADS", ctx.threads.to_string());
        let (runs, _) = runs?;
        out.attempted += runs.len() as u64;
        out.failed += diverged(label, algos, &runs, &warm);
        Ok(round_secs(&runs) * 1e3)
    };
    let plain_ms = plain_round("round.plain", ctx.threads)?;
    let mut scaling_round = |label: &str, threads: usize| {
        if threads == ctx.threads {
            Ok(plain_ms)
        } else {
            plain_round(label, threads)
        }
    };
    let t1_ms = scaling_round("round.threads1", 1)?;
    let tn_ms = scaling_round("round.threadsN", ctx.wide_threads)?;
    ctx.rep.set(
        "trace.overhead_frac",
        (median(&round_ms) - plain_ms) / plain_ms,
    );
    ctx.rep.set("scale.threads", ctx.wide_threads as f64);
    ctx.rep.set("scale.t1_round_ms", t1_ms);
    ctx.rep.set("scale.tn_round_ms", tn_ms);
    ctx.rep.set("scale.speedup_x", t1_ms / tn_ms);

    // --- layer probes. ---------------------------------------------------
    probes::shard_build(ctx, &layout, plan.shards.len());
    probes::kernels(ctx, &layout);
    probes::sim(ctx);
    if workload == Workload::RmatZeta {
        probes::decode(ctx, &layout, &platform, &progs, &mut next_query)?;
    }
    if workload == Workload::GridSparse {
        let bfs_ms = median(&series[0].ms);
        probes::durable(ctx, &session, &progs.bfs, warm[0].fp, bfs_ms, &mut out)?;
        probes::spill(ctx, &layout, &plan.shards);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_tells_values_apart_and_folds_exactly() {
        let a = fingerprint(&[1u32, 2, 3]);
        assert_eq!(a, fingerprint(&[1u32, 2, 3]));
        assert_ne!(a, fingerprint(&[1u32, 3, 2]));
        assert_ne!(fingerprint(&[0.0f32]), fingerprint(&[-0.0f32]));
        let m = fp_metric(u64::MAX - 12345);
        assert_eq!(m, m.trunc());
        assert!(m < 4_294_967_296.0);
    }

    #[test]
    fn oracle_catches_a_wrong_answer() {
        let layout = GraphLayout::build(&Workload::GridSparse.edges(5, true));
        let mut depths = reference::bfs(&layout, 0);
        assert!(oracle_agrees(&layout, 0, &Answer::Depths(depths.clone())));
        depths[7] += 1;
        assert!(!oracle_agrees(&layout, 0, &Answer::Depths(depths)));
        // The quick grid is one component: every label is 0.
        let mut labels = vec![0u32; layout.num_vertices() as usize];
        assert!(oracle_agrees(&layout, 0, &Answer::Labels(labels.clone())));
        labels[5] = 5;
        assert!(!oracle_agrees(&layout, 0, &Answer::Labels(labels)));
    }
}
