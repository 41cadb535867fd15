//! # gr-bench — harness regenerating every table and figure of the paper
//!
//! One binary per experiment (see DESIGN.md's experiment index):
//!
//! | binary | reproduces |
//! |---|---|
//! | `table1` | Table 1 — dataset inventory and in-/out-of-memory split |
//! | `table2` | Table 2 — X-Stream (CPU) vs CuSha (GPU) BFS motivation |
//! | `fig3`   | Figure 3 — frontier size vs iteration, four cases |
//! | `fig4`   | Figure 4 — explicit / pinned / managed transfer comparison |
//! | `fig5`   | Figure 5 — compute-transfer & compute-compute overlap (matmul) |
//! | `table3` | Table 3 + Figures 13/14 — GR vs GraphChi vs X-Stream |
//! | `table4` | Table 4 — GR vs MapGraph vs CuSha (in-memory) |
//! | `fig15`  | Figure 15 — memcpy time, optimized vs unoptimized GR |
//! | `fig16`  | Figure 16 — frontier dynamics on out-of-memory graphs |
//! | `fig17`  | Figure 17 — % iterations below half of peak frontier |
//! | `ext_*`  | Section 8 extensions — multi-GPU, SSD tier, Totem-style hybrid |
//! | `ablations` | design-choice ablations (gather mode, spray, K, CTA, P) |
//! | `all`    | everything above, in order, then the `run --algo all` session sweep |
//!
//! All binaries accept `--scale N` (default 64): datasets and device
//! memory shrink by the same divisor, preserving the out-of-memory split
//! of Table 1. Absolute times are simulated-K20c virtual time, not
//! wall-clock; the paper-vs-measured comparison lives in EXPERIMENTS.md.

#![forbid(unsafe_code)]

use std::path::Path;
use std::sync::Arc;

use gr_graph::{Dataset, GraphLayout};
use gr_observe::WallProfile;
use gr_observe::{Observer, RecordingSink};
use gr_sim::{Platform, SimDuration};
use graphreduce::phases::ShardWork;
use graphreduce::{EngineError, GasProgram, GraphSession, Options, RunStats, WallProfiler};

pub mod matmul;

/// The four evaluated algorithms (Section 6.1).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Algo {
    Bfs,
    Sssp,
    Pagerank,
    Cc,
}

impl Algo {
    pub const ALL: [Algo; 4] = [Algo::Bfs, Algo::Sssp, Algo::Pagerank, Algo::Cc];

    pub fn name(self) -> &'static str {
        match self {
            Algo::Bfs => "BFS",
            Algo::Sssp => "SSSP",
            Algo::Pagerank => "PageRank",
            Algo::Cc => "CC",
        }
    }
}

/// Parse `--scale N` (or `GR_SCALE`); default 64.
pub fn scale_from_args() -> u64 {
    scale_from_args_or(64)
}

/// Parse `--scale N` (or `GR_SCALE`) with an experiment-specific default.
/// The in-memory experiments (Tables 2 and 4) default to a finer scale
/// (16): their graphs are small to begin with, and over-shrinking them
/// leaves fixed per-iteration costs dominating both engines, compressing
/// the speedup spread the paper reports.
pub fn scale_from_args_or(default: u64) -> u64 {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--scale" {
            if let Some(v) = args.next().and_then(|s| s.parse().ok()) {
                return v;
            }
        }
    }
    std::env::var("GR_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// Build the layout an algorithm runs on: SSSP gets weights; CC gets a
/// symmetrized input (the paper stores undirected inputs as directed
/// pairs); BFS/PageRank run the directed graph as generated.
pub fn layout_for(ds: Dataset, algo: Algo, scale: u64) -> GraphLayout {
    let el = match algo {
        Algo::Sssp => ds.generate_weighted(scale),
        Algo::Cc => ds.generate(scale).symmetrize(),
        _ => ds.generate(scale),
    };
    GraphLayout::build(&el)
}

/// Traversal source: the max-out-degree vertex (a vertex that actually
/// reaches a large fraction of the graph, as the paper's BFS runs do).
pub fn default_source(layout: &GraphLayout) -> u32 {
    (0..layout.num_vertices())
        .max_by_key(|&v| layout.csr.degree(v))
        .unwrap_or(0)
}

/// PageRank configuration used across all engines/tables.
fn pagerank() -> gr_algorithms::PageRank {
    gr_algorithms::PageRank {
        damping: 0.85,
        epsilon: 1e-4,
        max_iters: 60,
    }
}

/// Run `algo` as one query on `session`: the bench's one run path, from
/// the max-out-degree source, with the shared PageRank config. `observer`
/// and `wall` instrument the run (pass the disabled/disarmed handles to
/// keep the zero-cost paths); with `resume`, the query restarts from the
/// newest durable snapshot in that directory instead of starting cold.
/// Returns the stats and the work trace every baseline engine prices.
pub fn run_query(
    algo: Algo,
    session: &GraphSession<'_>,
    observer: Observer,
    wall: WallProfiler,
    resume: Option<&Path>,
) -> Result<(RunStats, Vec<ShardWork>), EngineError> {
    fn go<P: GasProgram>(
        session: &GraphSession<'_>,
        program: &P,
        observer: Observer,
        wall: WallProfiler,
        resume: Option<&Path>,
    ) -> Result<(RunStats, Vec<ShardWork>), EngineError> {
        let query = session
            .query(program)
            .with_observer(observer)
            .with_wall_profiler(wall);
        let run = match resume {
            Some(dir) => query.resume(dir)?,
            None => query.run()?,
        };
        Ok((run.stats, run.work))
    }
    let (src, o, w) = (default_source(session.layout()), observer, wall);
    match algo {
        Algo::Bfs => go(session, &gr_algorithms::Bfs::new(src), o, w, resume),
        Algo::Sssp => go(session, &gr_algorithms::Sssp::new(src), o, w, resume),
        Algo::Pagerank => go(session, &pagerank(), o, w, resume),
        Algo::Cc => go(session, &gr_algorithms::Cc, o, w, resume),
    }
}

/// One cold, uninstrumented run of `algo` on a fresh session.
pub fn run_gr(
    algo: Algo,
    layout: &GraphLayout,
    platform: &Platform,
    opts: Options,
) -> Result<RunStats, EngineError> {
    run_gr_traced(algo, layout, platform, opts).map(|(stats, _)| stats)
}

/// [`run_gr`] with its work trace (one [`ShardWork`] summed over shards
/// per iteration), which every baseline engine prices instead of
/// computing the answer again.
pub fn run_gr_traced(
    algo: Algo,
    layout: &GraphLayout,
    platform: &Platform,
    opts: Options,
) -> Result<(RunStats, Vec<ShardWork>), EngineError> {
    let session = GraphSession::new(layout, platform.clone(), opts);
    let (stats, work) = run_query(
        algo,
        &session,
        Observer::disabled(),
        WallProfiler::disarmed(),
        None,
    )?;
    assert_eq!(
        work.len() as u32,
        stats.iterations,
        "a cold run traces every iteration"
    );
    Ok((stats, work))
}

/// Run all four algorithms against **one** shared session (layout and
/// platform loaded once), asserting each report is byte-identical to the
/// same query on a fresh session: the check guards the session's
/// partition-plan cache. Returns the per-algorithm stats in [`Algo::ALL`]
/// order.
pub fn run_session_all(
    layout: &GraphLayout,
    platform: &Platform,
    opts: &Options,
) -> Result<Vec<(Algo, RunStats)>, EngineError> {
    let session = GraphSession::new(layout, platform.clone(), opts.clone());
    let mut out = Vec::with_capacity(Algo::ALL.len());
    for algo in Algo::ALL {
        let (stats, _) = run_query(
            algo,
            &session,
            Observer::disabled(),
            WallProfiler::disarmed(),
            None,
        )?;
        let fresh = run_gr(algo, layout, platform, opts.clone())?;
        assert_eq!(
            stats.to_string(),
            fresh.to_string(),
            "{} report diverged between the shared session and a fresh one",
            algo.name()
        );
        out.push((algo, stats));
    }
    Ok(out)
}

/// Pin the host worker-thread count for this process: the engine reads
/// `RAYON_NUM_THREADS` once per BSP iteration to size its shard fan-out,
/// so this takes effect from the next iteration on (`--threads N` on the
/// CLIs).
pub fn set_host_threads(n: usize) {
    std::env::set_var("RAYON_NUM_THREADS", n.max(1).to_string());
}

/// Value of `--<name> <value>` anywhere on the command line.
pub fn flag_value(name: &str) -> Option<String> {
    let mut it = std::env::args();
    while let Some(a) = it.next() {
        if a == name {
            return it.next();
        }
    }
    None
}

/// `--report <path>` / `--trace <path>` wiring shared by the bench
/// binaries and examples: hands out an [`Observer`] (recording only
/// when an artifact was requested — otherwise the engine keeps the
/// zero-cost disabled path), then writes the requested files from the
/// capture after the run.
pub struct RunArtifacts {
    pub report_path: Option<String>,
    pub trace_path: Option<String>,
    sink: Option<Arc<RecordingSink>>,
    observer: Observer,
}

impl RunArtifacts {
    /// Parse `--report` and `--trace` from the process arguments.
    pub fn from_env() -> Self {
        Self::from_paths(flag_value("--report"), flag_value("--trace"))
    }

    pub fn from_paths(report_path: Option<String>, trace_path: Option<String>) -> Self {
        let (observer, sink) = if report_path.is_some() || trace_path.is_some() {
            let (obs, sink) = Observer::recording();
            (obs, Some(sink))
        } else {
            (Observer::disabled(), None)
        };
        RunArtifacts {
            report_path,
            trace_path,
            sink,
            observer,
        }
    }

    /// True when any artifact was requested.
    pub fn enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// The observer to attach to the run (disabled when no artifact was
    /// requested).
    pub fn observer(&self) -> Observer {
        self.observer.clone()
    }

    /// Write the requested artifacts. `stats` feeds the run report; a
    /// trace needs only the capture. Returns the written paths.
    pub fn write(&self, stats: Option<&RunStats>) -> std::io::Result<Vec<String>> {
        self.write_with_wall(stats, None)
    }

    /// [`RunArtifacts::write`] plus an optional wall profile: when given,
    /// the Chrome trace gains the real-time `"wall"` track beside the
    /// virtual sim/engine tracks.
    pub fn write_with_wall(
        &self,
        stats: Option<&RunStats>,
        wall: Option<&WallProfile>,
    ) -> std::io::Result<Vec<String>> {
        let mut written = Vec::new();
        let Some(sink) = &self.sink else {
            return Ok(written);
        };
        let rec = sink.recorded();
        if let Some(path) = &self.report_path {
            match stats {
                Some(stats) => {
                    std::fs::write(path, graphreduce::report::run_report(stats, &rec))?;
                    written.push(path.clone());
                }
                None => eprintln!(
                    "--report needs single-device RunStats; skipping {path} (use --trace here)"
                ),
            }
        }
        if let Some(path) = &self.trace_path {
            std::fs::write(path, gr_observe::export::chrome_trace_with_wall(&rec, wall))?;
            written.push(path.clone());
        }
        Ok(written)
    }

    /// Like [`RunArtifacts::write`], but exits with a clean CLI error
    /// instead of bubbling an `io::Error` for the caller to panic on.
    pub fn write_or_exit(&self, stats: Option<&RunStats>) -> Vec<String> {
        self.write(stats).unwrap_or_else(|e| {
            eprintln!("error: failed to write --report/--trace output: {e}");
            std::process::exit(1);
        })
    }
}

/// Frontier sizes per iteration (for Figures 3/16/17).
pub fn frontier_trace(algo: Algo, layout: &GraphLayout, platform: &Platform) -> Vec<u64> {
    run_gr(algo, layout, platform, Options::optimized())
        .map(|s| s.frontier_sizes())
        .unwrap_or_default()
}

/// Milliseconds with 3 decimals, for table cells.
pub fn ms(d: SimDuration) -> String {
    format!("{:.3}", d.as_millis_f64())
}

/// Ratio formatted as the paper prints speedups.
pub fn speedup(base: SimDuration, ours: SimDuration) -> String {
    if ours.is_zero() {
        return "-".into();
    }
    format!("{:.1}x", base.as_secs_f64() / ours.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gr_baselines::{CuSha, GraphChi, MapGraph, XStream};

    #[test]
    fn layouts_respect_algorithm_requirements() {
        let scale = 2048;
        let sssp = layout_for(Dataset::Ak2010, Algo::Sssp, scale);
        assert!(sssp.weights.iter().any(|&w| w != 1.0));
        let cc = layout_for(Dataset::Webbase1M, Algo::Cc, scale);
        let bfs = layout_for(Dataset::Webbase1M, Algo::Bfs, scale);
        assert!(cc.num_edges() > bfs.num_edges()); // symmetrized
    }

    #[test]
    fn default_source_has_max_degree() {
        let layout = layout_for(Dataset::KronLogn20, Algo::Bfs, 4096);
        let s = default_source(&layout);
        let d = layout.csr.degree(s);
        assert!((0..layout.num_vertices()).all(|v| layout.csr.degree(v) <= d));
    }

    #[test]
    fn all_engines_run_one_cell() {
        // One Table 3 cell end-to-end at tiny scale: every engine completes
        // and GR beats the CPU engines.
        let scale = 1024;
        let plat = Platform::paper_node_scaled(scale);
        let layout = layout_for(Dataset::Orkut, Algo::Bfs, scale);
        let (gr, work) = run_gr_traced(Algo::Bfs, &layout, &plat, Options::optimized()).unwrap();
        let chi = GraphChi::scaled(scale).run(&work, &layout, &plat.host);
        let xs = XStream::default().run(&work, &layout, &plat.host);
        assert!(
            gr.elapsed < chi.elapsed,
            "GR {:?} vs GraphChi {:?}",
            gr.elapsed,
            chi.elapsed
        );
        assert!(
            gr.elapsed < xs.elapsed,
            "GR {:?} vs X-Stream {:?}",
            gr.elapsed,
            xs.elapsed
        );
    }

    #[test]
    fn shared_session_query_matches_a_fresh_session() {
        let scale = 4096;
        let plat = Platform::paper_node_scaled(scale);
        let layout = layout_for(Dataset::Ak2010, Algo::Bfs, scale);
        let session = GraphSession::new(&layout, plat.clone(), Options::optimized());
        let shared = || {
            let (o, w) = (Observer::disabled(), WallProfiler::disarmed());
            run_query(Algo::Bfs, &session, o, w, None).unwrap().0
        };
        // The second shared query runs on the first one's cached plan.
        let (first, cached) = (shared(), shared());
        let fresh = run_gr(Algo::Bfs, &layout, &plat, Options::optimized()).unwrap();
        assert_eq!(first.to_string(), fresh.to_string());
        assert_eq!(cached.to_string(), fresh.to_string());
    }

    #[test]
    fn gpu_engines_oom_on_out_of_memory_datasets() {
        let scale = 1024;
        let plat = Platform::paper_node_scaled(scale);
        let layout = layout_for(Dataset::Uk2002, Algo::Bfs, scale);
        assert!(CuSha::default().run(&[], &layout, &plat).is_err());
        assert!(MapGraph::default().run(&[], &layout, &plat).is_err());
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(ms(SimDuration::from_micros(1500)), "1.500");
        assert_eq!(
            speedup(SimDuration::from_millis(30), SimDuration::from_millis(10)),
            "3.0x"
        );
        assert_eq!(
            speedup(SimDuration::from_millis(30), SimDuration::ZERO),
            "-"
        );
    }
}
