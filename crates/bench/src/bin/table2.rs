//! Table 2 — the motivation experiment: BFS on six small graphs under
//! X-Stream (16-core Xeon) vs CuSha (K20c), reporting CuSha's speedup.
//!
//! Paper shape to reproduce: GPU wins everywhere, by orders of magnitude on
//! power-law/web graphs (kron_g500-logn20: 389x, webbase-1M: 290x,
//! coAuthorsDBLP: 110x) but only modestly on high-diameter planar graphs
//! (belgium_osm: 3x) where hundreds of near-empty iterations leave the GPU
//! underutilized.

use gr_baselines::{CuSha, XStream};
use gr_bench::{layout_for, ms, run_gr_traced, scale_from_args_or, speedup, Algo};
use gr_graph::Dataset;
use gr_sim::Platform;
use graphreduce::Options;

fn main() {
    let scale = scale_from_args_or(16);
    let platform = Platform::paper_node(); // full-size device: these fit
    println!("== Table 2: X-Stream (CPU) vs CuSha (GPU), BFS, --scale {scale} ==");
    println!(
        "{:<20} {:>15} {:>12} {:>9}",
        "graph", "X-Stream (ms)", "CuSha (ms)", "speedup"
    );
    let mut planar_max: f64 = 0.0;
    let mut powerlaw_min = f64::INFINITY;
    for ds in Dataset::TABLE2 {
        let layout = layout_for(ds, Algo::Bfs, scale);
        let (_, work) = run_gr_traced(Algo::Bfs, &layout, &platform, Options::optimized())
            .expect("Table 2 graphs fit the full K20c");
        let xs = XStream::default().run(&work, &layout, &platform.host);
        let cu = CuSha::default()
            .run(&work, &layout, &platform)
            .expect("Table 2 graphs fit the full K20c");
        let ratio = xs.elapsed.as_secs_f64() / cu.elapsed.as_secs_f64();
        println!(
            "{:<20} {:>15} {:>12} {:>9}",
            ds.name(),
            ms(xs.elapsed),
            ms(cu.elapsed),
            speedup(xs.elapsed, cu.elapsed)
        );
        match ds {
            Dataset::BelgiumOsm | Dataset::DelaunayN13 | Dataset::Ak2010 => {
                planar_max = planar_max.max(ratio)
            }
            Dataset::KronLogn20 | Dataset::Webbase1M | Dataset::CoAuthorsDblp => {
                powerlaw_min = powerlaw_min.min(ratio)
            }
            _ => {}
        }
    }
    println!(
        "\nshape check: smallest power-law speedup ({powerlaw_min:.1}x) vs largest planar speedup ({planar_max:.1}x) — paper: 110-389x vs 3-28x"
    );
}
