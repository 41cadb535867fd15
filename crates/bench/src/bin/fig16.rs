//! Figure 16 — frontier size across iterations for the large out-of-memory
//! graphs under BFS, PageRank and CC (SSSP omitted, as in the paper: its
//! frontier pattern matches BFS).
//!
//! Paper shape: BFS starts at 1, climbs to a peak, falls; PageRank and CC
//! start with every vertex active and decay at an input-dependent rate
//! (sharply for nlpkkt160, slowly for cage15).
//!
//! `--csv <path>` writes every series as `algo,graph,iteration,frontier`
//! rows; `--report` / `--trace <path>` capture the first run (BFS on the
//! first out-of-memory graph) as a run report / Perfetto trace.

use gr_bench::{flag_value, layout_for, run_query, scale_from_args, Algo, RunArtifacts};
use gr_graph::Dataset;
use gr_sim::Platform;
use graphreduce::{GraphSession, Options, WallProfiler};

fn main() {
    let scale = scale_from_args();
    let platform = Platform::paper_node_scaled(scale);
    let artifacts = RunArtifacts::from_env();
    let csv_path = flag_value("--csv");
    let mut csv = String::from("algo,graph,iteration,frontier_size\n");
    let mut observed_first = false;
    println!("== Figure 16: frontier dynamics on out-of-memory graphs (--scale {scale}) ==");
    for algo in [Algo::Bfs, Algo::Pagerank, Algo::Cc] {
        println!("\n--- {} ---", algo.name());
        println!("graph,iterations,series...");
        for ds in Dataset::OUT_OF_MEMORY {
            let layout = layout_for(ds, algo, scale);
            let observer = if artifacts.enabled() && !observed_first {
                artifacts.observer()
            } else {
                gr_observe::Observer::disabled()
            };
            let session = GraphSession::new(&layout, platform.clone(), Options::optimized());
            let (stats, _) = run_query(algo, &session, observer, WallProfiler::disarmed(), None)
                .expect("plan fits");
            if artifacts.enabled() && !observed_first {
                observed_first = true;
                for path in artifacts.write_or_exit(Some(&stats)) {
                    eprintln!("wrote {path} ({} {})", ds.name(), algo.name());
                }
            }
            let sizes = stats.frontier_sizes();
            for (i, s) in sizes.iter().enumerate() {
                csv.push_str(&format!("{},{},{i},{s}\n", algo.name(), ds.name()));
            }
            print!("{},{}", ds.name(), sizes.len());
            // Print a bounded series (every iteration up to 60, then every
            // 10th) so road-network runs stay readable.
            for (i, s) in sizes.iter().enumerate() {
                if i < 60 || i % 10 == 0 {
                    print!(",{s}");
                }
            }
            println!();

            match algo {
                Algo::Bfs => assert_eq!(sizes[0], 1, "{}: BFS starts at 1", ds.name()),
                _ => assert_eq!(
                    sizes[0],
                    layout.num_vertices() as u64,
                    "{}: {} starts with all vertices",
                    ds.name(),
                    algo.name()
                ),
            }
        }
    }
    if let Some(path) = &csv_path {
        std::fs::write(path, csv).expect("write csv");
        eprintln!("wrote {path}");
    }
    println!("\nshape check passed: BFS seeds at 1 vertex; PageRank/CC seed at |V|.");
}
