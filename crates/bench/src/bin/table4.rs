//! Table 4 — in-memory comparison: GraphReduce vs MapGraph vs CuSha on the
//! five small graphs × four algorithms (times in virtual milliseconds).
//!
//! Paper shape: all three are in the same league (GR "comparable" to the
//! specialized in-GPU frameworks); no engine wins every cell — MapGraph
//! tends to take traversal cells, CuSha dense PageRank cells, and GR stays
//! within a small factor while *also* handling out-of-memory graphs.

use gr_baselines::{CuSha, MapGraph};
use gr_bench::{layout_for, ms, run_gr_traced, scale_from_args_or, Algo};
use gr_graph::Dataset;
use gr_sim::Platform;
use graphreduce::Options;

fn main() {
    let scale = scale_from_args_or(16);
    // In-memory graphs run on the full-size device (they fit by Table 1).
    let platform = Platform::paper_node();
    println!("== Table 4: in-memory frameworks (virtual ms, --scale {scale}) ==");
    println!(
        "{:<18} {:<10} {:>12} {:>12} {:>12} {:>12}",
        "graph", "engine", "BFS", "SSSP", "PageRank", "CC"
    );
    let mut gr_worst_ratio: f64 = 0.0;
    let mut gr_wins = 0usize;
    let mut cells = 0usize;
    for ds in Dataset::IN_MEMORY {
        let mut mg_row = Vec::new();
        let mut cu_row = Vec::new();
        let mut gr_row = Vec::new();
        for algo in Algo::ALL {
            let layout = layout_for(ds, algo, scale);
            let (gr, work) = run_gr_traced(algo, &layout, &platform, Options::optimized()).unwrap();
            let mg = MapGraph::default()
                .run(&work, &layout, &platform)
                .expect("in-memory graph fits");
            let cu = CuSha::default()
                .run(&work, &layout, &platform)
                .expect("in-memory graph fits");
            let best_other = mg.elapsed.min(cu.elapsed);
            gr_worst_ratio =
                gr_worst_ratio.max(gr.elapsed.as_secs_f64() / best_other.as_secs_f64());
            if gr.elapsed <= best_other {
                gr_wins += 1;
            }
            cells += 1;
            mg_row.push(mg.elapsed);
            cu_row.push(cu.elapsed);
            gr_row.push(gr.elapsed);
        }
        for (engine, row) in [("MG", &mg_row), ("CuSha", &cu_row), ("GR", &gr_row)] {
            print!("{:<18} {:<10}", ds.name(), engine);
            for t in row {
                print!(" {:>12}", ms(*t));
            }
            println!();
        }
    }
    println!(
        "\nshape check: GR wins {gr_wins}/{cells} cells outright and is never more than {gr_worst_ratio:.1}x \
         behind the best specialized in-memory engine (paper: 'comparable performance', trading cells)."
    );
}
