//! Figure 15 — memcpy time: optimized vs unoptimized GraphReduce on the
//! large out-of-memory graphs × four algorithms, plus the Section 6.2.3
//! observation that memcpy dominates (~95% of unoptimized execution).
//!
//! Paper shape: average ~51.5% and up to ~78.8% memcpy-time reduction; BFS
//! improves the most everywhere (phase elimination + tiny frontiers).
//!
//! `--csv <path>` writes the full table machine-readably; `--report` /
//! `--trace <path>` capture the first unoptimized run (the headline
//! memcpy-bound case) as a run report / Perfetto trace.

use gr_bench::{flag_value, layout_for, run_gr, run_query, scale_from_args, Algo, RunArtifacts};
use gr_graph::Dataset;
use gr_sim::Platform;
use graphreduce::{report, GraphSession, Options, RunStats, WallProfiler};

fn main() {
    let scale = scale_from_args();
    let platform = Platform::paper_node_scaled(scale);
    let artifacts = RunArtifacts::from_env();
    let csv_path = flag_value("--csv");
    println!("== Figure 15: memcpy time, optimized vs unoptimized GR (--scale {scale}) ==");
    println!(
        "{:<18} {:<9} {:>14} {:>14} {:>12} {:>16}",
        "graph", "algo", "unopt memcpy", "opt memcpy", "improvement", "unopt memcpy/run"
    );
    let mut improvements = Vec::new();
    let mut memcpy_shares = Vec::new();
    let mut rows: Vec<(String, &'static str, RunStats)> = Vec::new();
    let mut observed_first = false;
    for ds in Dataset::OUT_OF_MEMORY {
        for algo in Algo::ALL {
            let layout = layout_for(ds, algo, scale);
            let opt = run_gr(algo, &layout, &platform, Options::optimized()).unwrap();
            let unopt = if artifacts.enabled() && !observed_first {
                observed_first = true;
                let session = GraphSession::new(&layout, platform.clone(), Options::unoptimized());
                let (s, _) = run_query(
                    algo,
                    &session,
                    artifacts.observer(),
                    WallProfiler::disarmed(),
                    None,
                )
                .unwrap();
                for path in artifacts.write_or_exit(Some(&s)) {
                    eprintln!("wrote {path} ({} {})", ds.name(), algo.name());
                }
                s
            } else {
                run_gr(algo, &layout, &platform, Options::unoptimized()).unwrap()
            };
            let imp =
                100.0 * (1.0 - opt.memcpy_time.as_secs_f64() / unopt.memcpy_time.as_secs_f64());
            improvements.push(imp);
            memcpy_shares.push(unopt.memcpy_share());
            println!(
                "{:<18} {:<9} {:>12.2}ms {:>12.2}ms {:>11.1}% {:>15.1}%",
                ds.name(),
                algo.name(),
                unopt.memcpy_time.as_millis_f64(),
                opt.memcpy_time.as_millis_f64(),
                imp,
                100.0 * unopt.memcpy_share()
            );
            if csv_path.is_some() {
                rows.push((ds.name().to_string(), "optimized", opt));
                rows.push((ds.name().to_string(), "unoptimized", unopt));
            }
        }
    }
    if let Some(path) = &csv_path {
        let csv = report::memcpy_csv(rows.iter().map(|(g, v, s)| (g.as_str(), *v, s)));
        std::fs::write(path, csv).expect("write csv");
        eprintln!("wrote {path}");
    }
    let avg = improvements.iter().sum::<f64>() / improvements.len() as f64;
    let max = improvements.iter().cloned().fold(0.0f64, f64::max);
    let avg_share = 100.0 * memcpy_shares.iter().sum::<f64>() / memcpy_shares.len() as f64;
    println!(
        "\nmemcpy-time reduction: avg {avg:.1}%, max {max:.1}%   (paper: avg 51.5%, up to 78.8%)"
    );
    println!("memcpy share of unoptimized execution: avg {avg_share:.1}%   (paper: above 95%)");
    assert!(avg > 20.0, "optimizations must cut memcpy substantially");
    assert!(avg_share > 80.0, "memcpy must dominate unoptimized runs");
}
