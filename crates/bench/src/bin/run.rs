//! General-purpose CLI: run any evaluated algorithm on any dataset
//! stand-in (or a graph file) under any engine, with a full stats report.
//!
//! ```sh
//! cargo run --release -p gr-bench --bin run -- \
//!     --algo bfs --dataset uk-2002 --scale 128 --engine gr
//! cargo run --release -p gr-bench --bin run -- \
//!     --algo cc --dataset orkut --engine xstream --unoptimized
//! cargo run --release -p gr-bench --bin run -- \
//!     --algo sssp --file mygraph.txt --engine gr --gpus 4
//! ```

use std::path::Path;

use gr_baselines::{CuSha, GraphChi, MapGraph, Totem, XStream};
use gr_bench::{run_gr_traced, run_query, run_session_all, set_host_threads, Algo, RunArtifacts};
use gr_graph::{gen, CompressionCodec, Dataset, EdgeList, GraphLayout, GraphStats};
use gr_sim::Platform;
use graphreduce::{
    CheckpointPolicy, DeviceSpec, EngineError, FaultPlan, GraphSession, Options, WallProfiler,
};

/// Exit code for a run killed by an armed `kill:<iteration>` fault plan:
/// distinguishable from real errors so restart harnesses (and the CI
/// chaos job) can assert the kill happened, then `--resume`.
const EXIT_KILLED: i32 = 9;

struct Args {
    algo: Algo,
    /// `--algo all`: run every algorithm against one shared session.
    algo_all: bool,
    dataset: Option<Dataset>,
    file: Option<String>,
    scale: u64,
    engine: String,
    optimized: bool,
    gpus: usize,
    quickstart: bool,
    faults: Option<FaultPlan>,
    mem_cap: Option<String>,
    report: Option<String>,
    trace: Option<String>,
    threads: Option<usize>,
    wall: bool,
    checkpoint_dir: Option<String>,
    checkpoint_every: Option<u32>,
    checkpoint_delta: bool,
    checkpoint_full_every: Option<u32>,
    resume: bool,
    spill_dir: Option<String>,
    host_mem_cap: Option<String>,
    compress: Option<CompressionCodec>,
}

/// Resolve a `--mem-cap` spec against the device's nominal capacity:
/// either absolute bytes (`2000000`) or a percentage (`25%`).
fn parse_mem_cap(spec: &str, capacity: u64) -> u64 {
    let bytes = if let Some(pct) = spec.strip_suffix('%') {
        pct.parse::<f64>()
            .ok()
            .filter(|p| *p > 0.0 && *p <= 100.0)
            .map(|p| (capacity as f64 * p / 100.0) as u64)
    } else {
        spec.parse::<u64>().ok().filter(|b| *b > 0)
    };
    bytes.unwrap_or_else(|| {
        eprintln!("error: bad --mem-cap {spec:?} (expected bytes or a percentage like 25%)");
        std::process::exit(2);
    })
}

fn usage() -> ! {
    eprintln!(
        "usage: run --algo <bfs|sssp|pagerank|cc|all> (--dataset <name> | --file <path>) \
         [--scale N] [--engine gr|graphchi|xstream|cusha|mapgraph|totem] [--unoptimized] [--gpus N] \
         [--faults <profile[:seed]|seed>] [--mem-cap <bytes|pct%>] [--report <path.json>] \
         [--trace <path.json>] [--threads N] [--wall] [--checkpoint-dir <dir>] \
         [--checkpoint-every N] [--checkpoint-delta] [--checkpoint-full-every N] [--resume] \
         [--spill-dir <dir>] [--host-mem-cap <bytes|pct%>] [--compress <varint|zeta|zeta1..4>]"
    );
    eprintln!(
        "  --algo all builds ONE graph session (layout + platform + partitioning loaded once) \
         and runs every algorithm as a query against it, asserting each report matches a \
         dedicated per-algorithm run byte-for-byte (gr engine; see docs/SERVING.md)"
    );
    eprintln!(
        "  --compress streams shard topology gap+entropy-coded over PCIe and through the spill \
         store (gr engine); results are bit-identical, the report gains a \
         `compression` object (see docs/COMPRESSION.md)"
    );
    eprintln!(
        "  --gpus N runs the gr engine on N devices: shards are placed round-robin and each \
         iteration ends in a cross-device exchange; the stats and the report gain a devices \
         line/object (see docs/MEMORY.md)"
    );
    eprintln!(
        "  --checkpoint-dir arms durable snapshots (gr engine, single or multi GPU); \
         --checkpoint-every sets the interval in iterations (default 1); --checkpoint-delta \
         writes dirty-state deltas between fulls and --checkpoint-full-every sets the full \
         cadence in durable boundaries (default 4); --resume restarts from the newest intact \
         snapshot in --checkpoint-dir (a multi-GPU run may resume on fewer GPUs); --spill-dir \
         arms the out-of-host-core shard store (any GPU count) and --host-mem-cap caps host RAM \
         to force it (see docs/DURABILITY.md). A run killed by --faults kill:<iteration> exits \
         with code 9"
    );
    eprintln!(
        "  --threads pins the host worker-thread count (RAYON_NUM_THREADS); --wall arms the \
         wall-clock profiler — the report gains a `host wall:` line and real per-phase host \
         times (gr engine only; see docs/PERFORMANCE.md)"
    );
    eprintln!(
        "  --mem-cap caps usable device memory (gr engine only); the memory governor then \
         degrades gracefully — splitting shards, chunking transfers, or falling back to the \
         host — with every decision logged (see docs/MEMORY.md)"
    );
    eprintln!(
        "  --report writes the versioned run-report JSON; --trace a Chrome/Perfetto trace \
         (both gr-engine only)"
    );
    eprintln!(
        "  --faults arms deterministic fault injection on device 0 (gr engine only); profiles: none, \
         transient-copy, kernel-fault, oom-pressure, ecc-stall, degraded-pcie, device-loss, \
         chaos[:seed] — or a bare integer seed (see docs/FAULTS.md)"
    );
    eprintln!("datasets:");
    for ds in Dataset::IN_MEMORY
        .iter()
        .chain(Dataset::OUT_OF_MEMORY.iter())
    {
        eprintln!("  {}", ds.name());
    }
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        algo: Algo::Bfs,
        algo_all: false,
        dataset: None,
        file: None,
        scale: 64,
        engine: "gr".into(),
        optimized: true,
        gpus: 1,
        quickstart: false,
        faults: None,
        mem_cap: None,
        report: None,
        trace: None,
        threads: None,
        wall: false,
        checkpoint_dir: None,
        checkpoint_every: None,
        checkpoint_delta: false,
        checkpoint_full_every: None,
        resume: false,
        spill_dir: None,
        host_mem_cap: None,
        compress: None,
    };
    let mut it = std::env::args().skip(1);
    let mut have_algo = false;
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--algo" => {
                have_algo = true;
                args.algo = match it.next().as_deref() {
                    Some("bfs") => Algo::Bfs,
                    Some("sssp") => Algo::Sssp,
                    Some("pagerank") | Some("pr") => Algo::Pagerank,
                    Some("cc") => Algo::Cc,
                    Some("all") => {
                        args.algo_all = true;
                        Algo::Bfs
                    }
                    _ => usage(),
                };
            }
            "--dataset" => {
                let name = it.next().unwrap_or_else(|| usage());
                if name.eq_ignore_ascii_case("quickstart") {
                    args.quickstart = true;
                    continue;
                }
                args.dataset = Dataset::IN_MEMORY
                    .iter()
                    .chain(Dataset::OUT_OF_MEMORY.iter())
                    .find(|d| d.name().eq_ignore_ascii_case(&name))
                    .copied();
                if args.dataset.is_none() {
                    eprintln!("unknown dataset {name}");
                    usage();
                }
            }
            "--file" => args.file = it.next().or_else(|| usage()),
            "--scale" => {
                args.scale = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--engine" => args.engine = it.next().unwrap_or_else(|| usage()),
            "--unoptimized" => args.optimized = false,
            "--gpus" => {
                args.gpus = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--faults" => {
                let spec = it.next().unwrap_or_else(|| usage());
                args.faults = Some(FaultPlan::parse(&spec).unwrap_or_else(|e| {
                    eprintln!("error: {e}");
                    std::process::exit(2);
                }));
            }
            "--mem-cap" => args.mem_cap = it.next().or_else(|| usage()),
            "--report" => args.report = it.next().or_else(|| usage()),
            "--trace" => args.trace = it.next().or_else(|| usage()),
            "--threads" => {
                args.threads = Some(
                    it.next()
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            "--wall" => args.wall = true,
            "--checkpoint-dir" => args.checkpoint_dir = it.next().or_else(|| usage()),
            "--checkpoint-every" => {
                args.checkpoint_every = Some(
                    it.next()
                        .and_then(|s| s.parse().ok())
                        .filter(|&n| n > 0)
                        .unwrap_or_else(|| usage()),
                )
            }
            "--checkpoint-delta" => args.checkpoint_delta = true,
            "--checkpoint-full-every" => {
                args.checkpoint_full_every = Some(
                    it.next()
                        .and_then(|s| s.parse().ok())
                        .filter(|&n| n > 0)
                        .unwrap_or_else(|| usage()),
                )
            }
            "--resume" => args.resume = true,
            "--spill-dir" => args.spill_dir = it.next().or_else(|| usage()),
            "--host-mem-cap" => args.host_mem_cap = it.next().or_else(|| usage()),
            "--compress" => {
                let spec = it.next().unwrap_or_else(|| usage());
                args.compress = Some(CompressionCodec::parse(&spec).unwrap_or_else(|| {
                    eprintln!(
                        "error: bad --compress {spec:?} (expected varint, zeta, or zeta1..zeta4)"
                    );
                    std::process::exit(2);
                }));
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other}");
                usage();
            }
        }
    }
    if !have_algo || (args.dataset.is_none() && args.file.is_none() && !args.quickstart) {
        usage();
    }
    args
}

fn main() {
    let args = parse_args();
    if let Some(n) = args.threads {
        set_host_threads(n);
    }
    let el: EdgeList = if let Some(path) = &args.file {
        let f = std::fs::File::open(path).unwrap_or_else(|e| {
            eprintln!("cannot open {path}: {e}");
            std::process::exit(1);
        });
        EdgeList::read_text(f).unwrap_or_else(|e| {
            eprintln!("cannot parse {path}: {e}");
            std::process::exit(1);
        })
    } else if args.quickstart {
        // The graph from examples/quickstart.rs: an undirected RMAT
        // social-network stand-in (pair with --scale 4096 for the same
        // platform the example uses).
        gen::rmat_g500(14, 150_000, 42).symmetrize()
    } else {
        let ds = args.dataset.unwrap_or_else(|| {
            eprintln!("error: no --dataset or --file given");
            usage();
        });
        if args.algo_all {
            // One layout every algorithm can run on: weighted (SSSP) and
            // symmetrized (CC), loaded once for the whole session sweep.
            ds.generate_weighted(args.scale).symmetrize()
        } else {
            match args.algo {
                Algo::Sssp => ds.generate_weighted(args.scale),
                Algo::Cc => ds.generate(args.scale).symmetrize(),
                _ => ds.generate(args.scale),
            }
        }
    };
    let layout = GraphLayout::build(&el);
    println!("{}", GraphStats::compute(&layout));
    println!();

    let mut platform = Platform::paper_node_scaled(args.scale);
    if let Some(spec) = &args.host_mem_cap {
        if args.engine != "gr" {
            eprintln!("--host-mem-cap only applies to the gr engine; ignoring");
        }
        platform.host.mem_capacity = parse_mem_cap(spec, platform.host.mem_capacity);
    }
    let mut opts = Options {
        devices: vec![DeviceSpec::default(); args.gpus.max(1)],
        ..if args.optimized {
            Options::optimized()
        } else {
            Options::unoptimized()
        }
    };
    if let Some(plan) = &args.faults {
        if args.engine != "gr" {
            eprintln!("--faults only applies to the gr engine; ignoring");
        }
        opts.devices[0].fault_plan = plan.clone();
    }
    if let Some(spec) = &args.mem_cap {
        if args.engine != "gr" {
            eprintln!("--mem-cap only applies to the gr engine; ignoring");
        }
        opts = opts.with_mem_cap(parse_mem_cap(spec, platform.device.mem_capacity));
    }
    // Durability flags: validate combinations before any work happens.
    if args.checkpoint_every.is_some() && args.checkpoint_dir.is_none() {
        eprintln!("error: --checkpoint-every needs --checkpoint-dir");
        std::process::exit(2);
    }
    if args.checkpoint_delta && args.checkpoint_dir.is_none() {
        eprintln!("error: --checkpoint-delta needs --checkpoint-dir");
        std::process::exit(2);
    }
    if args.checkpoint_full_every.is_some() && !args.checkpoint_delta {
        eprintln!("error: --checkpoint-full-every needs --checkpoint-delta");
        std::process::exit(2);
    }
    if args.resume && args.checkpoint_dir.is_none() {
        eprintln!("error: --resume needs --checkpoint-dir (where would I resume from?)");
        std::process::exit(2);
    }
    if args.checkpoint_dir.is_some() && args.engine != "gr" {
        eprintln!(
            "error: --checkpoint-dir/--checkpoint-every/--checkpoint-delta/--resume apply to \
             the gr engine only"
        );
        std::process::exit(2);
    }
    if (args.spill_dir.is_some() || args.compress.is_some()) && args.engine != "gr" {
        eprintln!("error: --spill-dir/--compress apply to the gr engine only");
        std::process::exit(2);
    }
    if let Some(dir) = &args.checkpoint_dir {
        let every = args.checkpoint_every.unwrap_or(1);
        opts.checkpoint_policy = if args.checkpoint_delta {
            let full_every = args.checkpoint_full_every.unwrap_or(4);
            CheckpointPolicy::durable_delta(dir.as_str(), every, full_every)
        } else {
            CheckpointPolicy::durable(dir.as_str(), every)
        };
    }
    if let Some(dir) = &args.spill_dir {
        opts = opts.with_spill_dir(dir.as_str());
    }
    if let Some(codec) = args.compress {
        opts = opts.with_shard_compression(codec);
    }
    if args.algo_all {
        if args.engine != "gr" {
            eprintln!("error: --algo all runs the gr engine only");
            std::process::exit(2);
        }
        if args.resume {
            eprintln!("error: --algo all cannot --resume (snapshots are per-algorithm)");
            std::process::exit(2);
        }
        if args.report.is_some() || args.trace.is_some() || args.wall {
            eprintln!("--report/--trace/--wall instrument single-algorithm runs; ignoring");
        }
        // One session for the whole sweep: the layout, platform, and
        // partitioning above are loaded exactly once; each algorithm is a
        // query. `run_session_all` asserts every report is byte-identical
        // to the same query on a fresh session, which guards the session's
        // partition-plan cache.
        let sweep = run_session_all(&layout, &platform, &opts).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(1);
        });
        for (algo, stats) in sweep {
            println!("######## {} (shared session) ########", algo.name());
            println!("{stats}");
            println!();
        }
        println!(
            "session sweep: {} algorithms on one graph load; every report matched a \
             fresh session's byte-for-byte (the partition-plan cache changed nothing)",
            Algo::ALL.len()
        );
        return;
    }
    let artifacts = RunArtifacts::from_paths(args.report.clone(), args.trace.clone());
    if artifacts.enabled() && args.engine != "gr" {
        eprintln!("--report/--trace only instrument the gr engine; ignoring");
    }

    match args.engine.as_str() {
        "gr" => {
            let wall = if args.wall {
                WallProfiler::armed()
            } else {
                WallProfiler::disarmed()
            };
            let resume = args.checkpoint_dir.as_deref().filter(|_| args.resume);
            let session = GraphSession::new(&layout, platform.clone(), opts);
            let (o, w) = (artifacts.observer(), wall.clone());
            let result = run_query(args.algo, &session, o, w, resume.map(Path::new));
            let (stats, _) = result.unwrap_or_else(|e| {
                if let EngineError::Killed { iteration } = e {
                    eprintln!("killed at iteration boundary {iteration} (restart with --resume)");
                    std::process::exit(EXIT_KILLED);
                }
                eprintln!("error: {e}");
                std::process::exit(1);
            });
            println!("{stats}");
            let profile = wall.is_armed().then(|| wall.profile());
            for path in artifacts
                .write_with_wall(Some(&stats), profile.as_ref())
                .unwrap_or_else(|e| {
                    eprintln!("error: failed to write --report/--trace output: {e}");
                    std::process::exit(1);
                })
            {
                println!("wrote {path}");
            }
        }
        "graphchi" | "xstream" | "cusha" | "mapgraph" | "totem" => {
            // A baseline prices the work trace of one cold GR run; the
            // gr-only flags above do not shape that run.
            let (_, work) = run_gr_traced(args.algo, &layout, &platform, Options::optimized())
                .unwrap_or_else(|e| {
                    eprintln!("error: {e}");
                    std::process::exit(1);
                });
            let report = |s: gr_baselines::BaselineStats| {
                format!("{}: {} iterations in {}", s.engine, s.iterations, s.elapsed)
            };
            let line = match args.engine.as_str() {
                "graphchi" => {
                    report(GraphChi::scaled(args.scale).run(&work, &layout, &platform.host))
                }
                "xstream" => report(XStream::default().run(&work, &layout, &platform.host)),
                "cusha" => CuSha::default()
                    .run(&work, &layout, &platform)
                    .map_or_else(|e| format!("cusha: {e}"), report),
                "mapgraph" => MapGraph::default()
                    .run(&work, &layout, &platform)
                    .map_or_else(|e| format!("mapgraph: {e}"), report),
                _ => {
                    let (stats, split) = Totem::default().run(&work, &layout, &platform);
                    format!(
                        "{} (GPU holds {:.1}% of edges, {} boundary edges)",
                        report(stats),
                        100.0 * split.gpu_fraction(),
                        split.boundary_edges
                    )
                }
            };
            println!("{line}");
        }
        other => {
            eprintln!("unknown engine {other}");
            usage();
        }
    }
}
