//! Connected Components by min-label flooding — the paper's Figure 6 code
//! example, transcribed: `gatherMap` forwards the source label,
//! `gatherReduce` is `min`, `apply` keeps the smaller label, and there is no
//! scatter operation.
//!
//! Inputs must be symmetric (the paper stores undirected graphs as pairs of
//! directed edges); [`Cc::run_expects_symmetric`] documents the contract.

use graphreduce::{GasProgram, InitialFrontier};

/// Connected components; vertex values converge to the smallest vertex id
/// in each (weakly, if the input is symmetrized) connected component.
#[derive(Clone, Copy, Debug, Default)]
pub struct Cc;

impl Cc {
    /// The algorithm computes *undirected* components only when every edge
    /// appears in both directions, as in the paper's dataset preparation.
    pub fn run_expects_symmetric() -> &'static str {
        "store undirected graphs as pairs of directed edges"
    }
}

impl GasProgram for Cc {
    type VertexValue = u32;
    type EdgeValue = ();
    type Gather = u32;

    fn name(&self) -> &'static str {
        "cc"
    }

    fn init_vertex(&self, v: u32, _out_degree: u32) -> u32 {
        v
    }

    fn initial_frontier(&self) -> InitialFrontier {
        InitialFrontier::All
    }

    fn gather_identity(&self) -> u32 {
        u32::MAX
    }

    fn gather_map(&self, _dst: &u32, src: &u32, _e: &(), _w: f32) -> u32 {
        *src
    }

    fn gather_reduce(&self, a: u32, b: u32) -> u32 {
        a.min(b)
    }

    fn apply(&self, v: &mut u32, r: u32, _iteration: u32) -> bool {
        if r < *v {
            *v = r;
            true
        } else {
            false
        }
    }

    fn scatter(&self, _s: &u32, _d: &u32, _e: &mut ()) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use gr_graph::{gen, GraphLayout};
    use gr_sim::Platform;
    use graphreduce::{GraphSession, Options};

    #[test]
    fn labels_equal_component_minimum() {
        let layout = GraphLayout::build(&gen::uniform(500, 900, 41).symmetrize());
        let out = GraphSession::new(&layout, Platform::paper_node(), Options::optimized())
            .query(&Cc)
            .run()
            .unwrap();
        reference::check_cc_labels(&layout, &out.vertex_values);
    }

    #[test]
    fn many_components() {
        // Disjoint pairs: 0-1, 2-3, ...
        let n = 100u32;
        let el = gr_graph::EdgeList::from_edges(
            n,
            (0..n / 2).map(|i| (2 * i, 2 * i + 1)).collect::<Vec<_>>(),
        )
        .symmetrize();
        let layout = GraphLayout::build(&el);
        let out = GraphSession::new(&layout, Platform::paper_node(), Options::optimized())
            .query(&Cc)
            .run()
            .unwrap();
        for i in 0..n / 2 {
            assert_eq!(out.vertex_values[(2 * i) as usize], 2 * i);
            assert_eq!(out.vertex_values[(2 * i + 1) as usize], 2 * i);
        }
    }

    #[test]
    fn road_like_graph_converges_slowly() {
        // Long path: label 0 must flood hop by hop — many iterations with
        // shrinking frontier (the road-network pattern of Figure 16).
        let n = 300u32;
        let el =
            gr_graph::EdgeList::from_edges(n, (0..n - 1).map(|v| (v, v + 1)).collect::<Vec<_>>())
                .symmetrize();
        let layout = GraphLayout::build(&el);
        let out = GraphSession::new(&layout, Platform::paper_node(), Options::optimized())
            .query(&Cc)
            .run()
            .unwrap();
        assert!(out.vertex_values.iter().all(|&l| l == 0));
        assert!(out.stats.iterations >= n - 1);
        let sizes = out.stats.frontier_sizes();
        assert_eq!(sizes[0] as u32, n);
        assert!(*sizes.last().unwrap() <= 2);
    }
}
