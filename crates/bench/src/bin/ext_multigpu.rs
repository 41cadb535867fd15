//! Extension experiment (paper Section 8, future work 1): multi-GPU
//! scaling. Runs PageRank and BFS on uk-2002-class and kron-class
//! out-of-memory graphs across 1-8 virtual K20c devices and reports the
//! strong-scaling curve, including the cross-device exchange traffic that
//! caps it.

use gr_bench::{layout_for, run_gr, scale_from_args, Algo};
use gr_graph::Dataset;
use gr_sim::Platform;
use graphreduce::{DeviceSpec, Options};

fn main() {
    let scale = scale_from_args();
    let platform = Platform::paper_node_scaled(scale);
    println!("== Extension: multi-GPU strong scaling (--scale {scale}) ==");
    for (ds, algo) in [
        (Dataset::Uk2002, Algo::Pagerank),
        (Dataset::KronLogn21, Algo::Bfs),
        (Dataset::Nlpkkt160, Algo::Cc),
    ] {
        let layout = layout_for(ds, algo, scale);
        println!("\n--- {} / {} ---", ds.name(), algo.name());
        println!(
            "{:>5} {:>14} {:>9} {:>14} {:>16}",
            "gpus", "time", "speedup", "exchange (MB)", "max memcpy busy"
        );
        let mut base = None;
        for n in [1usize, 2, 4, 8] {
            let opts = Options {
                devices: vec![DeviceSpec::default(); n],
                ..Options::optimized()
            };
            let stats = run_gr(algo, &layout, &platform, opts).unwrap();
            let base_t = *base.get_or_insert(stats.elapsed);
            let max_memcpy = stats
                .per_gpu_memcpy
                .iter()
                .copied()
                .max()
                .unwrap_or_default();
            println!(
                "{:>5} {:>14} {:>8.2}x {:>14.1} {:>16}",
                n,
                format!("{}", stats.elapsed),
                base_t.as_secs_f64() / stats.elapsed.as_secs_f64(),
                stats.exchange_bytes as f64 / 1e6,
                format!("{max_memcpy}")
            );
        }
    }
    println!("\nshape: speedup grows with device count but stays sublinear — the vertex/frontier exchange serializes on each device's PCIe link.");
}
