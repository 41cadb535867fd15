//! Single-Source Shortest Paths over non-negative static edge weights
//! (frontier-driven Bellman-Ford relaxation, as in the paper's evaluation).

use graphreduce::{GasProgram, InitialFrontier};

/// Distance of unreachable vertices.
pub const UNREACHABLE: f32 = f32::INFINITY;

/// SSSP from a single source; vertex values become shortest distances.
#[derive(Clone, Copy, Debug)]
pub struct Sssp {
    /// Source vertex.
    pub source: u32,
}

impl Sssp {
    pub fn new(source: u32) -> Self {
        Sssp { source }
    }
}

impl GasProgram for Sssp {
    type VertexValue = f32;
    type EdgeValue = ();
    type Gather = f32;

    fn name(&self) -> &'static str {
        "sssp"
    }

    fn init_vertex(&self, v: u32, _out_degree: u32) -> f32 {
        if v == self.source {
            0.0
        } else {
            UNREACHABLE
        }
    }

    fn initial_frontier(&self) -> InitialFrontier {
        InitialFrontier::Sources(vec![self.source])
    }

    fn gather_identity(&self) -> f32 {
        UNREACHABLE
    }

    fn gather_map(&self, _dst: &f32, src: &f32, _e: &(), weight: f32) -> f32 {
        src + weight
    }

    /// The oracle's relaxation (`reference::sssp` keeps `nd` iff `nd <
    /// dist`), as a select: one `minss` on each row's carried dependency,
    /// where `f32::min`'s NaN rule costs a compare, an unordered compare
    /// and a blend. On every value SSSP holds the two give the same bits:
    /// distances are never NaN or −0, and a NaN `b` keeps `a` either way.
    #[inline]
    fn gather_reduce(&self, a: f32, b: f32) -> f32 {
        if b < a {
            b
        } else {
            a
        }
    }

    fn apply(&self, v: &mut f32, r: f32, iteration: u32) -> bool {
        if r < *v {
            *v = r;
            true
        } else {
            // The source relaxes nothing at iteration 0 (its own gather is
            // infinite) but must still seed the frontier wave.
            iteration == 0 && *v == 0.0
        }
    }

    fn scatter(&self, _s: &f32, _d: &f32, _e: &mut ()) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use gr_graph::{gen, CompressionCodec, EdgeList, GraphLayout};
    use gr_sim::Platform;
    use graphreduce::{GraphSession, HostKernels, Options};

    fn weighted_layout(seed: u64) -> GraphLayout {
        GraphLayout::build(&gen::with_random_weights(
            gen::uniform(400, 3000, seed),
            16.0,
            seed + 1,
        ))
    }

    #[test]
    fn matches_bellman_ford() {
        let layout = weighted_layout(21);
        let out = GraphSession::new(&layout, Platform::paper_node(), Options::optimized())
            .query(&Sssp::new(7))
            .run()
            .unwrap();
        assert_eq!(out.vertex_values, reference::sssp(&layout, 7));
    }

    #[test]
    fn out_of_core_matches() {
        let layout = weighted_layout(22);
        let a = GraphSession::new(&layout, Platform::paper_node(), Options::optimized())
            .query(&Sssp::new(0))
            .run()
            .unwrap();
        let b = GraphSession::new(
            &layout,
            Platform::paper_node_scaled(1 << 16),
            Options::unoptimized(),
        )
        .query(&Sssp::new(0))
        .run()
        .unwrap();
        assert_eq!(a.vertex_values, b.vertex_values);
    }

    #[test]
    fn unit_weights_reduce_to_bfs_depths() {
        // "BFS is essentially SSSP with equal edge weights" (Section 6.2.3).
        let el = gen::uniform(200, 1200, 23); // default weight 1.0
        let layout = GraphLayout::build(&el);
        let sssp = GraphSession::new(&layout, Platform::paper_node(), Options::optimized())
            .query(&Sssp::new(0))
            .run()
            .unwrap();
        let depths = reference::bfs(&layout, 0);
        for (d, s) in depths.iter().zip(&sssp.vertex_values) {
            if *d == u32::MAX {
                assert_eq!(*s, UNREACHABLE);
            } else {
                assert_eq!(*s, *d as f32);
            }
        }
    }

    #[test]
    fn gather_reduce_is_the_strict_less_select() {
        let p = Sssp::new(0);
        let inf = UNREACHABLE;
        for (a, b, want) in [
            (inf, inf, inf),
            (inf, 2.5, 2.5),
            (2.5, inf, 2.5),
            (3.0, 3.0, 3.0),
            (0.0, 1.0, 0.0),
            (1.0, f32::NAN, 1.0),
            (inf, f32::NAN, inf),
        ] {
            assert_eq!(p.gather_reduce(a, b).to_bits(), want.to_bits(), "{a} ⊎ {b}");
            // The same bits `f32::min` gave.
            assert_eq!(a.min(b).to_bits(), want.to_bits(), "min({a}, {b})");
        }
    }

    /// A weighted graph with zero-weight edges, duplicate `(s, d)` edges of
    /// different weights and vertices no path reaches, on a uniform random
    /// core large enough to span several shards.
    fn awkward_layout() -> GraphLayout {
        let core = gen::with_random_weights(gen::uniform(600, 4000, 31), 9.0, 32);
        let core_weights = core.weights.expect("weighted");
        let mut edges = core.edges.clone();
        let mut weights = core_weights.clone();
        for (&(s, d), &w) in core.edges.iter().zip(&core_weights).step_by(7) {
            // A zero-weight copy of every seventh edge, and a heavier one.
            edges.extend([(s, d), (s, d)]);
            weights.extend([0.0, w + 3.5]);
        }
        // A chain of zero-weight edges, and vertices 600..640 that only
        // point into the graph: nothing reaches them.
        edges.extend([(0, 1), (1, 2), (2, 3)]);
        weights.extend([0.0, 0.0, 0.0]);
        for v in 600..640 {
            edges.push((v, v % 600));
            weights.push(1.0);
        }
        GraphLayout::build(&EdgeList::from_edges(640, edges).with_weights(weights))
    }

    #[test]
    fn matches_the_oracle_bit_for_bit_on_awkward_weights() {
        let layout = awkward_layout();
        let oracle = reference::sssp(&layout, 0);
        assert_eq!(oracle[..4], [0.0; 4], "the zero-weight chain");
        assert!(oracle[600..].iter().all(|d| *d == UNREACHABLE));
        let oracle: Vec<u32> = oracle.iter().map(|d| d.to_bits()).collect();
        for codec in [None, Some(CompressionCodec::Zeta(3))] {
            for host_kernels in [HostKernels::Serial, HostKernels::Adaptive] {
                let opts = Options {
                    shard_compression: codec,
                    host_kernels,
                    ..Options::optimized()
                }
                .with_num_shards(5);
                let out = GraphSession::new(&layout, Platform::paper_node(), opts)
                    .query(&Sssp::new(0))
                    .run()
                    .unwrap();
                let got: Vec<u32> = out.vertex_values.iter().map(|d| d.to_bits()).collect();
                assert_eq!(got, oracle, "{codec:?} {host_kernels:?}");
            }
        }
    }
}
