//! grbench — the repository's one benchmark.
//!
//! ```sh
//! grbench --workload <name> --seed <u64> --seconds <n> --trace <0|1> [--quick]
//! grbench --check <a.json> <b.json>
//! ```
//!
//! One process runs one workload. `--trace 0` measures the end-to-end
//! metrics with tracing off; `--trace 1` is a separate run of the same
//! workload that records the benchmark's own spans around every public
//! call, arms the engine's `WallProfiler` on each query, runs the layer
//! probes and writes a Chrome trace. Every metric prints as
//! `name value unit`; the last line of standard output is the result
//! object the driver reads. See README.md for the workloads and metrics.

mod check;
mod graphwl;
mod inputs;
mod metrics;
mod probes;
mod servewl;
mod span;

use std::path::PathBuf;

use gr_observe::WallProfile;

use inputs::Workload;
use metrics::{Layer, Report};
use span::Tracer;

/// Everything a workload needs to run and report.
pub struct Ctx {
    pub workload: Workload,
    pub seed: u64,
    /// The measuring window in seconds.
    pub seconds: f64,
    pub quick: bool,
    /// Worker threads the engine's fan-outs use (`RAYON_NUM_THREADS`).
    pub threads: usize,
    /// The widest fan-out the machine has cores for (at most four): the
    /// traced run's thread-scaling round.
    pub wide_threads: usize,
    pub tr: Tracer,
    pub rep: Report,
    /// Private scratch directory for the snapshot and spill probes.
    pub scratch: PathBuf,
}

/// What a workload did besides measuring.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    /// Engine errors, answers differing from the oracle, refused submissions.
    pub failed: u64,
    /// The engine's own wall profiles of the last traced round.
    pub wall_profiles: Vec<WallProfile>,
}

/// Where run artifacts go: the result files `run.sh` merges, the trace,
/// the probes' scratch space. Relative to the working directory.
const OUT_DIR: &str = ".grbench";

fn usage() -> ! {
    eprintln!(
        "usage: grbench --workload <rmat-dense|grid-sparse|rmat-zeta|serve> --seed <u64> \
         --seconds <n> --trace <0|1> [--quick]\n       grbench --check <a.json> <b.json>"
    );
    std::process::exit(2);
}

/// High-water mark of resident memory, from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--check") {
        let [_, a, b] = args.as_slice() else { usage() };
        match check::run(a, b) {
            Ok(true) => return,
            Ok(false) => std::process::exit(1),
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        }
    }
    let (mut workload, mut seed, mut seconds, mut trace, mut quick) =
        (None, None, None, None, false);
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match a.as_str() {
            "--workload" => workload = Workload::parse(value()),
            "--seed" => seed = value().parse::<u64>().ok(),
            "--seconds" => seconds = value().parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                let v = value();
                trace = ["0", "1"].iter().position(|t| t == v)
            }
            "--quick" => quick = true,
            _ => usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        usage()
    };
    let traced = trace == 1;

    // Pin the engine's fan-out width to one less than the cores (at most
    // four): the spare core takes the operating system, the driver and the
    // neighbours of a shared host. With a worker on every core, one stolen
    // core stalls every fork-join, and the run times the scheduler (README,
    // "Threads"). The traced run measures the full width as `scale.*`.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = cores.saturating_sub(1).clamp(1, 4);
    std::env::set_var("RAYON_NUM_THREADS", threads.to_string());

    let out_dir = PathBuf::from(OUT_DIR);
    let scratch = out_dir.join(format!("scratch-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("create the run's scratch directory");
    let mut ctx = Ctx {
        workload,
        seed,
        seconds,
        quick,
        threads,
        wide_threads: cores.min(4),
        tr: Tracer::new(traced),
        rep: Report::new(),
        scratch: scratch.clone(),
    };
    let result = match workload {
        Workload::Serve => servewl::run(&mut ctx),
        _ => graphwl::run(&mut ctx),
    };
    let _ = std::fs::remove_dir_all(&scratch);
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: the engine failed a fault-free query: {e}");
            std::process::exit(1);
        }
    };

    ctx.rep.set("peak_rss_mb", peak_rss_mb());
    ctx.rep.set(
        "failed_frac",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
    );
    ctx.rep.set("env.threads", threads as f64);
    ctx.rep.set("env.available_parallelism", cores as f64);
    let name = workload.name();
    if traced {
        ctx.rep.set("trace.spans", ctx.tr.span_count() as f64);
        let path = out_dir.join(format!("{name}.trace.json"));
        std::fs::write(&path, ctx.tr.chrome_trace(&outcome.wall_profiles))
            .expect("write the Chrome trace");
        eprintln!("trace: {}", path.display());
    }

    let correct = outcome.failed == 0;
    let header = format!(
        "\"workload\": \"{name}\", \"trace\": {trace}, \"seed\": {seed}, \"quick\": {quick}, \
         \"threads\": {threads}, \"available_parallelism\": {cores}, \"correct\": {correct}, \
         \"attempted\": {}, \"failed\": {}",
        outcome.attempted, outcome.failed
    );
    std::fs::write(
        out_dir.join(format!("{name}.trace{trace}.json")),
        format!("{{{header}, \"metrics\": {}}}\n", ctx.rep.full_metrics()),
    )
    .expect("write the run's result file");

    println!("# grbench {name} seed={seed} trace={trace} threads={threads} cores={cores}");
    print!("{}", ctx.rep.table());
    let layer = if traced {
        Layer::PerLayer
    } else {
        Layer::EndToEnd
    };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted.max(1),
        outcome.failed,
        ctx.rep.contract_metrics(layer)
    );
    if !correct {
        std::process::exit(1);
    }
}
