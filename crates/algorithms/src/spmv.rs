//! Sparse matrix-vector multiplication as a one-iteration GAS program
//! (Section 2.1 lists sparse linear algebra among the GAS-expressible
//! workloads). The graph is the matrix: edge `(u, v)` with weight `w`
//! contributes `w * x[u]` to `y[v]`.

use graphreduce::{GasProgram, InitialFrontier};

/// Per-vertex SpMV state: the input vector entry and the output entry.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct SpmvValue {
    /// Input vector component `x[v]`.
    pub x: f32,
    /// Output component `y[v]` (valid after the run).
    pub y: f32,
}

graphreduce::impl_state_bytes!(SpmvValue { x: f32, y: f32 });

/// `y = A·x` where `A[v][u] = weight(u → v)`. The input vector is supplied
/// by a function of the vertex id so the program stays `Sync` + cheap.
pub struct Spmv<F: Fn(u32) -> f32 + Sync> {
    /// Input vector generator.
    pub x: F,
}

impl<F: Fn(u32) -> f32 + Sync> Spmv<F> {
    pub fn new(x: F) -> Self {
        Spmv { x }
    }
}

impl<F: Fn(u32) -> f32 + Sync> GasProgram for Spmv<F> {
    type VertexValue = SpmvValue;
    type EdgeValue = ();
    type Gather = f32;

    fn name(&self) -> &'static str {
        "spmv"
    }

    fn init_vertex(&self, v: u32, _out_degree: u32) -> SpmvValue {
        SpmvValue {
            x: (self.x)(v),
            y: 0.0,
        }
    }

    fn initial_frontier(&self) -> InitialFrontier {
        InitialFrontier::All
    }

    fn gather_identity(&self) -> f32 {
        0.0
    }

    fn gather_map(&self, _dst: &SpmvValue, src: &SpmvValue, _e: &(), weight: f32) -> f32 {
        weight * src.x
    }

    fn gather_reduce(&self, a: f32, b: f32) -> f32 {
        a + b
    }

    fn apply(&self, v: &mut SpmvValue, r: f32, _iteration: u32) -> bool {
        v.y = r;
        false // one pass; nothing activates
    }

    fn scatter(&self, _s: &SpmvValue, _d: &SpmvValue, _e: &mut ()) {}

    fn max_iterations(&self) -> u32 {
        1
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
    fn matches_direct_multiplication() {
        let layout = GraphLayout::build(&gen::with_random_weights(
            gen::uniform(128, 1024, 51),
            4.0,
            52,
        ));
        let x = |v: u32| (v % 13) as f32 * 0.5;
        let out = GraphSession::new(&layout, Platform::paper_node(), Options::optimized())
            .query(&Spmv::new(x))
            .run()
            .unwrap();
        let want = reference::spmv(&layout, &(0..128).map(x).collect::<Vec<_>>());
        for (got, want) in out.vertex_values.iter().zip(&want) {
            assert_eq!(got.y, *want);
        }
        assert_eq!(out.stats.iterations, 1);
    }

    #[test]
    fn zero_matrix_gives_zero_vector() {
        let layout = GraphLayout::build(&gr_graph::EdgeList::new(10));
        let out = GraphSession::new(&layout, Platform::paper_node(), Options::optimized())
            .query(&Spmv::new(|_| 1.0))
            .run()
            .unwrap();
        assert!(out.vertex_values.iter().all(|v| v.y == 0.0));
    }
}
