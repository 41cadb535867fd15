//! Heat simulation with explicit message passing through mutable edge
//! state — the one evaluated workload class (Section 2.1 mentions "Heat
//! Simulation") that exercises the Scatter phase and therefore the
//! out-edge value write-back path.
//!
//! Semantics (Pregel-style): each iteration, Scatter stamps every out-edge
//! of a changed vertex with the vertex's temperature; next iteration,
//! Gather averages the stamped in-edge temperatures and Apply relaxes the
//! vertex toward that average. Iteration 0 only stamps (the gather of a
//! cold start reads unset edges and is ignored).

use graphreduce::{GasProgram, InitialFrontier};

/// Gather accumulator: sum of stamped neighbor temperatures + count.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct HeatGather {
    pub sum: f32,
    pub count: u32,
}

graphreduce::impl_state_bytes!(HeatGather {
    sum: f32,
    count: u32
});

/// Heat diffusion program.
#[derive(Clone, Copy, Debug)]
pub struct Heat {
    /// Relaxation rate toward the neighborhood average, in (0, 1].
    pub alpha: f32,
    /// Convergence tolerance on per-vertex temperature change.
    pub epsilon: f32,
    /// Iteration cap.
    pub max_iters: u32,
    /// Initial temperature of vertex 0 (the "hot" seed); all others start
    /// at 0.
    pub hot: f32,
}

impl Default for Heat {
    fn default() -> Self {
        Heat {
            alpha: 0.5,
            epsilon: 1e-3,
            max_iters: 200,
            hot: 100.0,
        }
    }
}

impl GasProgram for Heat {
    type VertexValue = f32;
    /// Stamped source temperature from the previous Scatter.
    type EdgeValue = f32;
    type Gather = HeatGather;

    fn name(&self) -> &'static str {
        "heat"
    }

    fn init_vertex(&self, v: u32, _out_degree: u32) -> f32 {
        if v == 0 {
            self.hot
        } else {
            0.0
        }
    }

    fn initial_frontier(&self) -> InitialFrontier {
        InitialFrontier::All
    }

    fn gather_identity(&self) -> HeatGather {
        HeatGather::default()
    }

    fn gather_map(&self, _dst: &f32, _src: &f32, edge: &f32, _w: f32) -> HeatGather {
        HeatGather {
            sum: *edge,
            count: 1,
        }
    }

    fn gather_reduce(&self, a: HeatGather, b: HeatGather) -> HeatGather {
        HeatGather {
            sum: a.sum + b.sum,
            count: a.count + b.count,
        }
    }

    fn apply(&self, v: &mut f32, r: HeatGather, iteration: u32) -> bool {
        if iteration == 0 {
            // Cold start: edges are not stamped yet; just seed the wave.
            return true;
        }
        if r.count == 0 {
            return false;
        }
        let avg = r.sum / r.count as f32;
        let next = *v + self.alpha * (avg - *v);
        let changed = (next - *v).abs() > self.epsilon;
        *v = next;
        changed
    }

    fn scatter(&self, src: &f32, _dst: &f32, edge: &mut f32) {
        *edge = *src;
    }

    fn has_scatter(&self) -> bool {
        true
    }

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
    fn matches_sequential_reference() {
        let layout = GraphLayout::build(&gen::grid2d_with_edges(256, 900, 61).symmetrize());
        let h = Heat::default();
        let out = GraphSession::new(&layout, Platform::paper_node(), Options::optimized())
            .query(&h)
            .run()
            .unwrap();
        let want = reference::heat(&layout, h.alpha, h.epsilon, h.max_iters, h.hot);
        assert_eq!(out.vertex_values, want);
    }

    #[test]
    fn heat_spreads_from_the_seed() {
        let el = gr_graph::EdgeList::from_edges(4, vec![(0, 1), (1, 2), (2, 3)]).symmetrize();
        let layout = GraphLayout::build(&el);
        let out = GraphSession::new(&layout, Platform::paper_node(), Options::optimized())
            .query(&Heat::default())
            .run()
            .unwrap();
        // Everyone warmed up; closer vertices are warmer early in the decay.
        assert!(out.vertex_values[1] > 0.0);
        assert!(out.vertex_values[3] > 0.0);
        // Edge state was actually mutated (scatter ran).
        assert!(out.edge_values.iter().any(|&e| e != 0.0));
    }

    #[test]
    fn scatter_costs_show_up_in_data_movement() {
        let layout = GraphLayout::build(&gen::uniform(512, 6000, 62).symmetrize());
        let plat = Platform::paper_node_scaled(1 << 14);
        let heat = GraphSession::new(&layout, plat.clone(), Options::optimized())
            .query(&Heat::default())
            .run()
            .unwrap();
        // A scatter-less program of the same shape moves fewer D2H bytes.
        let cc = GraphSession::new(&layout, plat, Options::optimized())
            .query(&crate::cc::Cc)
            .run()
            .unwrap();
        let heat_d2h_per_iter = heat.stats.bytes_d2h / heat.stats.iterations.max(1) as u64;
        let cc_d2h_per_iter = cc.stats.bytes_d2h / cc.stats.iterations.max(1) as u64;
        assert!(
            heat_d2h_per_iter > cc_d2h_per_iter,
            "heat {heat_d2h_per_iter} vs cc {cc_d2h_per_iter}"
        );
    }
}
