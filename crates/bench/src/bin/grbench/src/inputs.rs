//! Seeded inputs: every graph, weight, source and deadline a workload uses
//! is a function of `--seed`, so the same seed gives the same inputs.

use gr_algorithms::Cc;
use gr_graph::{gen, CompressionCodec, EdgeList, GraphLayout};
use gr_sim::Platform;
use graphreduce::sizes::SizeModel;
use graphreduce::Options;

/// splitmix64: the benchmark's only generator for its own seeded choices
/// (the graph generators keep their own, seeded from the same `--seed`).
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (modulo bias is irrelevant at these ranges).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    RmatDense,
    GridSparse,
    RmatZeta,
    Serve,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::RmatDense,
        Workload::GridSparse,
        Workload::RmatZeta,
        Workload::Serve,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::RmatDense => "rmat-dense",
            Workload::GridSparse => "grid-sparse",
            Workload::RmatZeta => "rmat-zeta",
            Workload::Serve => "serve",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The seeded edge list. Sizes are fixed per workload; `--quick`
    /// swaps in graphs small enough to run everything in seconds.
    pub fn edges(self, seed: u64, quick: bool) -> EdgeList {
        let rmat = |scale: u32| gen::rmat_g500(scale, 16u64 << scale, seed);
        let weighted = |el: EdgeList| gen::with_random_weights(el, 1.0, seed ^ 0x5eed).symmetrize();
        match (self, quick) {
            (Workload::RmatDense, false) => weighted(rmat(20)),
            (Workload::RmatZeta, false) => weighted(rmat(18)),
            (Workload::RmatDense | Workload::RmatZeta, true) => weighted(rmat(12)),
            (Workload::GridSparse, false) => {
                weighted(gen::grid2d_with_edges(1 << 20, 1 << 22, seed))
            }
            (Workload::GridSparse, true) => {
                weighted(gen::grid2d_with_edges(1 << 12, 1 << 14, seed))
            }
            // Served BFS counts hops: unweighted.
            (Workload::Serve, false) => rmat(18).symmetrize(),
            (Workload::Serve, true) => rmat(12).symmetrize(),
        }
    }

    /// Session options: only `rmat-zeta` ships gap-coded shards.
    pub fn options(self) -> Options {
        match self {
            Workload::RmatZeta => Options::optimized().with_shard_compression(ZETA),
            _ => Options::optimized(),
        }
    }

    /// Which of [`crate::metrics::ALGOS`] a round runs. CC on the grid is
    /// excluded: min-label propagation across a 1.5 k diameter keeps the
    /// frontier full for ~75 s, which is a dense workload by another name.
    /// PageRank over gap-coded shards is excluded: 6.4 s a query, twice the
    /// other three together, leaves the window two rounds, and its ten full
    /// sweeps decode the same rows CC's sweeps do.
    pub fn algos(self) -> &'static [&'static str] {
        match self {
            Workload::GridSparse => &["bfs", "sssp"],
            Workload::RmatZeta => &["bfs", "sssp", "cc"],
            _ => &crate::metrics::ALGOS,
        }
    }
}

pub const ZETA: CompressionCodec = CompressionCodec::Zeta(3);

/// A platform whose device memory holds the static buffers plus a quarter
/// of the streamed edge footprint (the `wallclock` bin's `sweep_platform`
/// rule), so the graph runs out-of-core and shards stream.
pub fn out_of_core_platform(layout: &GraphLayout) -> Platform {
    let model = SizeModel::for_program(&Cc);
    let streamed = layout.num_edges() * (model.in_edge_bytes() + model.out_edge_bytes());
    let budget = model.static_bytes(layout.num_vertices() as u64) + streamed / 4;
    let nominal = Platform::paper_node().device.mem_capacity;
    Platform::paper_node_scaled((nominal / budget.max(1)).max(1))
}

/// BFS/SSSP source: vertex 0 on the grid (a corner — the longest run), the
/// max-out-degree vertex elsewhere (the `engine_agreement` rule).
pub fn source(workload: Workload, layout: &GraphLayout) -> u32 {
    match workload {
        Workload::GridSparse => 0,
        _ => (0..layout.num_vertices())
            .max_by_key(|&v| layout.csr.degree(v))
            .unwrap_or(0),
    }
}

/// `count` seeded query sources of out-degree > 0 (duplicates possible — a
/// server must tolerate them).
pub fn serve_sources(layout: &GraphLayout, count: usize, rng: &mut SplitMix) -> Vec<u32> {
    let n = layout.num_vertices() as u64;
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let v = rng.below(n) as u32;
        if layout.csr.degree(v) > 0 {
            out.push(v);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_the_reference_sequence() {
        // First outputs of splitmix64 seeded with 1234567 (Vigna's test vector).
        let mut r = SplitMix(1234567);
        assert_eq!(r.next(), 6457827717110365317);
        assert_eq!(r.next(), 3203168211198807973);
    }

    #[test]
    fn same_seed_same_inputs() {
        for w in Workload::ALL {
            assert_eq!(w.edges(3, true), w.edges(3, true), "{}", w.name());
            assert_ne!(w.edges(3, true), w.edges(4, true), "{}", w.name());
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn out_of_core_platform_streams_shards() {
        let layout = GraphLayout::build(&Workload::RmatDense.edges(1, true));
        let plat = out_of_core_platform(&layout);
        assert!(plat.device.mem_capacity < Platform::paper_node().device.mem_capacity);
        let mut rng = SplitMix(9);
        for v in serve_sources(&layout, 32, &mut rng) {
            assert!(layout.csr.degree(v) > 0);
        }
    }
}
