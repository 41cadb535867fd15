//! Design-choice ablations (DESIGN.md §4), one simulated-time line per
//! configuration:
//!
//! * hybrid vs pure vertex-/edge-centric gather (Section 3.1);
//! * spray width sweep (Section 5.1);
//! * concurrent-shard count `K` vs the Equation (1) derivation (Section 4.3);
//! * CTA load balancing on skewed vs uniform inputs (Section 4.4);
//! * shard count `P` under even-edge partitioning (Section 4.2).
//!
//! Times are simulated K20c milliseconds, deterministic like every other
//! experiment here; `bin all` prints this section after `ext_totem`.

use gr_bench::{layout_for, ms, run_gr, scale_from_args, Algo};
use gr_graph::{gen, Dataset, GraphLayout};
use gr_sim::Platform;
use graphreduce::{GatherMode, Options};

/// One ablation: a program on one input and device, run under several
/// option sets.
struct Ablation<'a> {
    name: &'a str,
    algo: Algo,
    layout: &'a GraphLayout,
    plat: &'a Platform,
}

impl Ablation<'_> {
    fn row(&self, config: &str, opts: Options) {
        let stats = run_gr(self.algo, self.layout, self.plat, opts)
            .expect("every ablation plan fits its device");
        println!("{:<44} {config:<16} {:>12}", self.name, ms(stats.elapsed));
    }
}

fn main() {
    let scale = scale_from_args();
    let plat = Platform::paper_node_scaled(scale);
    println!("== Design-choice ablations (--scale {scale}) ==");
    println!("{:<44} {:<16} {:>12}", "ablation", "config", "sim ms");

    // Section 3.1: the hybrid model vs pure vertex- or edge-centric
    // gathers, on a skewed input where the difference is largest.
    let kron = layout_for(Dataset::KronLogn21, Algo::Cc, scale);
    let gather = Ablation {
        name: "gather mode (kron_g500-logn21 CC)",
        algo: Algo::Cc,
        layout: &kron,
        plat: &plat,
    };
    for (name, mode) in [
        ("hybrid", GatherMode::Hybrid),
        ("vertex-centric", GatherMode::VertexCentric),
        ("edge-atomic", GatherMode::EdgeCentricAtomic),
    ] {
        gather.row(
            name,
            Options {
                gather_mode: mode,
                ..Options::optimized()
            },
        );
    }

    // Section 5.1: a heavily undersized device keeps shards (and their
    // sub-array copies) small — the regime where copy issue overheads
    // matter and spraying them across Hyper-Q queues pays.
    let dblp = layout_for(Dataset::CoAuthorsDblp, Algo::Cc, scale);
    let small = Platform::paper_node_scaled(1 << 13);
    let spray = Ablation {
        name: "spray width (coAuthorsDBLP BFS)",
        algo: Algo::Bfs,
        layout: &dblp,
        plat: &small,
    };
    spray.row(
        "off",
        Options {
            spray: false,
            ..Options::optimized()
        },
    );
    for w in [2u32, 4, 8, 16] {
        let mut o = Options::optimized();
        o.spray_width = w;
        spray.row(&w.to_string(), o);
    }

    // Section 4.3: concurrent shards K = 1, 2 (the paper's derivation), 4.
    let nlp = layout_for(Dataset::Nlpkkt160, Algo::Cc, scale);
    let concurrent = Ablation {
        name: "concurrent shards K (nlpkkt160 CC)",
        algo: Algo::Cc,
        layout: &nlp,
        plat: &plat,
    };
    for k in [1u32, 2, 4] {
        concurrent.row(
            &format!("K={k}"),
            Options::optimized().with_concurrent_shards(k),
        );
    }

    // Section 4.4: CTA load balancing on a skewed (R-MAT) vs uniform input
    // of the same size.
    let uniform = GraphLayout::build(
        &gen::uniform(
            Dataset::KronLogn21.vertices(scale),
            Dataset::KronLogn21.edges(scale),
            7,
        )
        .symmetrize(),
    );
    for (name, layout) in [
        ("CTA balancing (skewed kron_g500-logn21 CC)", &kron),
        ("CTA balancing (uniform CC)", &uniform),
    ] {
        let cta = Ablation {
            name,
            algo: Algo::Cc,
            layout,
            plat: &plat,
        };
        for (mode, on) in [("on", true), ("off", false)] {
            cta.row(
                mode,
                Options {
                    cta_load_balance: on,
                    ..Options::optimized()
                },
            );
        }
    }

    // Section 4.2: forcing more even-edge shards than Equation (1) needs —
    // finer frontier-skipping granularity against extra per-shard costs.
    let orkut = layout_for(Dataset::Orkut, Algo::Cc, scale);
    let shards = Ablation {
        name: "shard count P (orkut CC)",
        algo: Algo::Cc,
        layout: &orkut,
        plat: &plat,
    };
    for p in [4usize, 8, 16, 64] {
        shards.row(&format!("P={p}"), Options::optimized().with_num_shards(p));
    }
}
