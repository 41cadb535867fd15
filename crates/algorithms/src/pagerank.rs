//! PageRank with frontier-based convergence.
//!
//! Section 2.1's running example: Gather accumulates `rank(u)/out_deg(u)`
//! over in-edges, Apply computes the damped update and reports a change when
//! the rank moved by more than the tolerance. Vertices that have converged
//! drop out of the frontier — the behaviour behind the declining PageRank
//! frontier curves of Figures 3 and 16. No Scatter phase (out-edge values
//! never change), so phase elimination drops the out-edge value movement.

use graphreduce::{GasProgram, InitialFrontier};

/// Per-vertex PageRank state.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PrValue {
    /// Current rank.
    pub rank: f32,
    /// Out-degree (fixed at init; folded into the gather contribution).
    pub out_degree: u32,
}

graphreduce::impl_state_bytes!(PrValue {
    rank: f32,
    out_degree: u32
});

/// PageRank program.
#[derive(Clone, Copy, Debug)]
pub struct PageRank {
    /// Damping factor (0.85 in the paper).
    pub damping: f32,
    /// Convergence tolerance on per-vertex rank change.
    pub epsilon: f32,
    /// Iteration cap (the usual PR evaluation fixes a budget).
    pub max_iters: u32,
}

impl Default for PageRank {
    fn default() -> Self {
        PageRank {
            damping: 0.85,
            epsilon: 1e-4,
            max_iters: 100,
        }
    }
}

impl GasProgram for PageRank {
    type VertexValue = PrValue;
    type EdgeValue = ();
    type Gather = f32;

    fn name(&self) -> &'static str {
        "pagerank"
    }

    fn init_vertex(&self, _v: u32, out_degree: u32) -> PrValue {
        PrValue {
            rank: 1.0 - self.damping,
            out_degree,
        }
    }

    fn initial_frontier(&self) -> InitialFrontier {
        InitialFrontier::All
    }

    fn gather_identity(&self) -> f32 {
        0.0
    }

    fn gather_map(&self, _dst: &PrValue, src: &PrValue, _e: &(), _w: f32) -> f32 {
        if src.out_degree == 0 {
            0.0
        } else {
            src.rank / src.out_degree as f32
        }
    }

    fn gather_reduce(&self, a: f32, b: f32) -> f32 {
        a + b
    }

    /// The map is the source's rank share alone.
    fn gather_is_source_only(&self) -> bool {
        true
    }

    fn apply(&self, v: &mut PrValue, r: f32, _iteration: u32) -> bool {
        let new_rank = (1.0 - self.damping) + self.damping * r;
        let changed = (new_rank - v.rank).abs() > self.epsilon;
        v.rank = new_rank;
        changed
    }

    fn scatter(&self, _s: &PrValue, _d: &PrValue, _e: &mut ()) {}

    fn max_iterations(&self) -> u32 {
        self.max_iters
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use gr_graph::{gen, GraphLayout};
    use gr_sim::Platform;
    use graphreduce::{GraphSession, Options};

    #[test]
    fn matches_frontier_gated_reference_exactly() {
        let layout = GraphLayout::build(&gen::rmat_g500(9, 4000, 31));
        let pr = PageRank::default();
        let out = GraphSession::new(&layout, Platform::paper_node(), Options::optimized())
            .query(&pr)
            .run()
            .unwrap();
        let want = reference::pagerank_frontier(&layout, pr.damping, pr.epsilon, pr.max_iters);
        let got: Vec<f32> = out.vertex_values.iter().map(|v| v.rank).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn approximates_power_iteration() {
        let layout = GraphLayout::build(&gen::uniform(200, 2000, 32));
        let pr = PageRank {
            epsilon: 1e-7,
            max_iters: 300,
            ..Default::default()
        };
        let out = GraphSession::new(&layout, Platform::paper_node(), Options::optimized())
            .query(&pr)
            .run()
            .unwrap();
        let exact = reference::pagerank_power(&layout, 0.85, 400);
        for (v, e) in out.vertex_values.iter().zip(&exact) {
            assert!(
                (v.rank - e).abs() < 1e-3,
                "rank {} vs power-iteration {e}",
                v.rank
            );
        }
    }

    #[test]
    fn frontier_shrinks_as_ranks_converge() {
        let layout = GraphLayout::build(&gen::stencil3d(4096, 4096 * 8, 33));
        let out = GraphSession::new(&layout, Platform::paper_node(), Options::optimized())
            .query(&PageRank::default())
            .run()
            .unwrap();
        let sizes = out.stats.frontier_sizes();
        assert_eq!(sizes[0], 4096); // starts with every vertex
        assert!(
            *sizes.last().unwrap() < 4096 / 4,
            "frontier should collapse: {sizes:?}"
        );
    }

    #[test]
    fn identical_across_option_sets() {
        let layout = GraphLayout::build(&gen::rmat_g500(9, 4000, 34));
        let plat = Platform::paper_node_scaled(1 << 15);
        let a = GraphSession::new(&layout, plat.clone(), Options::optimized())
            .query(&PageRank::default())
            .run()
            .unwrap();
        let b = GraphSession::new(&layout, plat, Options::unoptimized())
            .query(&PageRank::default())
            .run()
            .unwrap();
        assert_eq!(a.vertex_values, b.vertex_values);
        assert_eq!(a.stats.iterations, b.stats.iterations);
    }
}
