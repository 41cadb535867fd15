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

    fn gather_reduce(&self, a: f32, b: f32) -> f32 {
        a.min(b)
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
    use gr_graph::{gen, GraphLayout};
    use gr_sim::Platform;
    use graphreduce::{GraphSession, Options};

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
}
