//! Table 3 + Figures 13/14 — out-of-memory comparison: GraphReduce vs
//! GraphChi vs X-Stream on the five large graphs × four algorithms.
//!
//! Paper shape: GR wins almost every cell (avg 13.4x over GraphChi, 5x
//! over X-Stream; up to 79x / 21x on kron-logn21 BFS); the one exception
//! is nlpkkt160-CC where X-Stream edges GR out (massive data movement,
//! little parallel payoff).

use gr_baselines::{GraphChi, XStream};
use gr_bench::{layout_for, run_gr_traced, scale_from_args, Algo};
use gr_graph::Dataset;
use gr_sim::{Platform, SimDuration};
use graphreduce::Options;

fn main() {
    let scale = scale_from_args();
    let platform = Platform::paper_node_scaled(scale);
    println!("== Table 3: out-of-memory frameworks (virtual seconds, --scale {scale}) ==");
    println!(
        "{:<18} {:<10} {:>12} {:>12} {:>12}",
        "graph", "engine", "BFS", "SSSP", "PageRank"
    );
    // (collect all four algorithms; print CC in the same row group)
    let mut speedups_chi: Vec<f64> = Vec::new();
    let mut speedups_xs: Vec<f64> = Vec::new();
    println!(
        "{:<18} {:<10} {:>12} {:>12} {:>12} {:>12}",
        "", "", "BFS", "SSSP", "PageRank", "CC"
    );
    for ds in Dataset::OUT_OF_MEMORY {
        let mut rows: [Vec<SimDuration>; 3] = [Vec::new(), Vec::new(), Vec::new()];
        for algo in Algo::ALL {
            let layout = layout_for(ds, algo, scale);
            let (gr, work) = run_gr_traced(algo, &layout, &platform, Options::optimized())
                .expect("out-of-memory plan fits after sharding");
            let chi = GraphChi::scaled(scale).run(&work, &layout, &platform.host);
            let xs = XStream::default().run(&work, &layout, &platform.host);
            rows[0].push(chi.elapsed);
            rows[1].push(xs.elapsed);
            rows[2].push(gr.elapsed);
            speedups_chi.push(chi.elapsed.as_secs_f64() / gr.elapsed.as_secs_f64());
            speedups_xs.push(xs.elapsed.as_secs_f64() / gr.elapsed.as_secs_f64());
        }
        for (engine, row) in ["GraphChi", "X-Stream", "GR"].iter().zip(&rows) {
            print!("{:<18} {:<10}", ds.name(), engine);
            for t in row {
                print!(" {:>12.4}", t.as_secs_f64());
            }
            println!();
        }
    }

    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let max = |v: &[f64]| v.iter().cloned().fold(0.0f64, f64::max);
    println!("\n== Figures 13/14: GR speedups per (graph, algorithm) ==");
    println!(
        "vs GraphChi: avg {:.1}x, max {:.1}x   (paper: avg 13.4x, up to 79x)",
        avg(&speedups_chi),
        max(&speedups_chi)
    );
    println!(
        "vs X-Stream: avg {:.1}x, max {:.1}x   (paper: avg 5x, up to 21x)",
        avg(&speedups_xs),
        max(&speedups_xs)
    );
    println!("\nper-cell speedup series (Figure 13 = vs GraphChi, Figure 14 = vs X-Stream):");
    println!("graph,algorithm,vs_graphchi,vs_xstream");
    let mut i = 0;
    for ds in Dataset::OUT_OF_MEMORY {
        for algo in Algo::ALL {
            println!(
                "{},{},{:.2},{:.2}",
                ds.name(),
                algo.name(),
                speedups_chi[i],
                speedups_xs[i]
            );
            i += 1;
        }
    }
    let wins = speedups_xs.iter().filter(|&&s| s > 1.0).count();
    println!(
        "\nshape check: GR beats GraphChi in {}/{} cells and X-Stream in {wins}/{} cells.",
        speedups_chi.iter().filter(|&&s| s > 1.0).count(),
        speedups_chi.len(),
        speedups_xs.len()
    );
}
