//! Breadth-First Search.
//!
//! The paper's phase-elimination showcase (Section 5.3): BFS defines *only*
//! the Apply phase — each newly reached vertex marks its tree depth with the
//! iteration number — so GraphReduce never moves in-edge buffers at all and
//! fuses Apply with FrontierActivate.

use graphreduce::{GasProgram, InitialFrontier};

/// Depth value for unreached vertices.
pub const UNREACHED: u32 = u32::MAX;

/// BFS from a single source; vertex values become tree depths.
#[derive(Clone, Copy, Debug)]
pub struct Bfs {
    /// Source vertex.
    pub source: u32,
}

impl Bfs {
    pub fn new(source: u32) -> Self {
        Bfs { source }
    }
}

impl GasProgram for Bfs {
    type VertexValue = u32;
    type EdgeValue = ();
    type Gather = ();

    fn name(&self) -> &'static str {
        "bfs"
    }

    fn init_vertex(&self, _v: u32, _out_degree: u32) -> u32 {
        UNREACHED
    }

    fn initial_frontier(&self) -> InitialFrontier {
        InitialFrontier::Sources(vec![self.source])
    }

    fn gather_identity(&self) {}

    fn gather_map(&self, _dst: &u32, _src: &u32, _e: &(), _w: f32) {}

    fn gather_reduce(&self, _a: (), _b: ()) {}

    fn apply(&self, v: &mut u32, _r: (), iteration: u32) -> bool {
        if *v == UNREACHED {
            *v = iteration;
            true
        } else {
            false
        }
    }

    fn scatter(&self, _s: &u32, _d: &u32, _e: &mut ()) {}

    fn has_gather(&self) -> bool {
        false
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
    fn matches_reference_on_random_graph() {
        let layout = GraphLayout::build(&gen::uniform(300, 1500, 9));
        let out = GraphSession::new(&layout, Platform::paper_node(), Options::optimized())
            .query(&Bfs::new(3))
            .run()
            .unwrap();
        assert_eq!(out.vertex_values, reference::bfs(&layout, 3));
    }

    #[test]
    fn out_of_core_matches_in_core() {
        let layout = GraphLayout::build(&gen::rmat_g500(10, 8000, 4).symmetrize());
        let big = GraphSession::new(&layout, Platform::paper_node(), Options::optimized())
            .query(&Bfs::new(0))
            .run()
            .unwrap();
        let small = GraphSession::new(
            &layout,
            Platform::paper_node_scaled(1 << 15),
            Options::optimized(),
        )
        .query(&Bfs::new(0))
        .run()
        .unwrap();
        assert_eq!(big.vertex_values, small.vertex_values);
        assert!(small.stats.num_shards > big.stats.num_shards);
    }

    #[test]
    fn disconnected_vertices_stay_unreached() {
        let el = gr_graph::EdgeList::from_edges(5, vec![(0, 1), (1, 2)]);
        let layout = GraphLayout::build(&el);
        let out = GraphSession::new(&layout, Platform::paper_node(), Options::optimized())
            .query(&Bfs::new(0))
            .run()
            .unwrap();
        assert_eq!(out.vertex_values, vec![0, 1, 2, UNREACHED, UNREACHED]);
    }
}
