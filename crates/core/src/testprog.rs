//! Shared [`GasProgram`] implementations for tests and benchmarks.
//!
//! They exist once for the unit tests (via `cfg(test)`) and for the
//! integration tests and benches (through the `test-support` cargo
//! feature).

use crate::api::{GasProgram, InitialFrontier};

/// Connected components (min-label flooding): touches every phase the
/// engine has — gather, apply, activate — so faults can land anywhere.
#[derive(Clone, Copy)]
pub struct Cc;

impl GasProgram for Cc {
    type VertexValue = u32;
    type EdgeValue = ();
    type Gather = u32;

    fn name(&self) -> &'static str {
        "cc"
    }

    fn init_vertex(&self, v: u32, _d: u32) -> u32 {
        v
    }

    fn initial_frontier(&self) -> InitialFrontier {
        InitialFrontier::All
    }

    fn gather_identity(&self) -> u32 {
        u32::MAX
    }

    fn gather_map(&self, _d: &u32, src: &u32, _e: &(), _w: f32) -> u32 {
        *src
    }

    fn gather_reduce(&self, a: u32, b: u32) -> u32 {
        a.min(b)
    }

    fn apply(&self, v: &mut u32, r: u32, _i: u32) -> bool {
        if r < *v {
            *v = r;
            true
        } else {
            false
        }
    }

    fn scatter(&self, _s: &u32, _d: &u32, _e: &mut ()) {}
}

/// BFS depth labelling from a source vertex, with no gather phase (the
/// paper's phase-elimination showcase).
#[derive(Clone, Copy)]
pub struct Bfs(pub u32);

impl GasProgram for Bfs {
    type VertexValue = u32;
    type EdgeValue = ();
    type Gather = ();

    fn name(&self) -> &'static str {
        "bfs"
    }

    fn init_vertex(&self, _v: u32, _d: u32) -> u32 {
        u32::MAX
    }

    fn initial_frontier(&self) -> InitialFrontier {
        InitialFrontier::Sources(vec![self.0])
    }

    fn gather_identity(&self) {}

    fn gather_map(&self, _d: &u32, _s: &u32, _e: &(), _w: f32) {}

    fn gather_reduce(&self, _a: (), _b: ()) {}

    fn apply(&self, v: &mut u32, _r: (), iter: u32) -> bool {
        if *v == u32::MAX {
            *v = iter;
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

/// SSSP: Bellman-Ford relaxation over static edge weights, from a source.
#[derive(Clone, Copy)]
pub struct Sssp(pub u32);

impl GasProgram for Sssp {
    type VertexValue = f32;
    type EdgeValue = ();
    type Gather = f32;

    fn name(&self) -> &'static str {
        "sssp"
    }

    fn init_vertex(&self, v: u32, _d: u32) -> f32 {
        if v == self.0 {
            0.0
        } else {
            f32::INFINITY
        }
    }

    fn initial_frontier(&self) -> InitialFrontier {
        InitialFrontier::Sources(vec![self.0])
    }

    fn gather_identity(&self) -> f32 {
        f32::INFINITY
    }

    fn gather_map(&self, _d: &f32, src: &f32, _e: &(), w: f32) -> f32 {
        src + w
    }

    fn gather_reduce(&self, a: f32, b: f32) -> f32 {
        a.min(b)
    }

    fn apply(&self, v: &mut f32, r: f32, iter: u32) -> bool {
        if r < *v {
            *v = r;
            true
        } else {
            iter == 0 && *v == 0.0
        }
    }

    fn scatter(&self, _s: &f32, _d: &f32, _e: &mut ()) {}
}

/// PageRank state: rank + out-degree (folded into the gather contribution).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PrValue {
    /// Current rank.
    pub rank: f32,
    /// Out-degree, captured at init so gather can normalize contributions.
    pub out_degree: u32,
}

crate::impl_state_bytes!(PrValue {
    rank: f32,
    out_degree: u32
});

/// PageRank with frontier-based convergence (damping 0.85).
#[derive(Clone, Copy)]
pub struct Pr;

impl GasProgram for Pr {
    type VertexValue = PrValue;
    type EdgeValue = ();
    type Gather = f32;

    fn name(&self) -> &'static str {
        "pagerank"
    }

    fn init_vertex(&self, _v: u32, out_degree: u32) -> PrValue {
        PrValue {
            rank: 0.15,
            out_degree,
        }
    }

    fn initial_frontier(&self) -> InitialFrontier {
        InitialFrontier::All
    }

    fn gather_identity(&self) -> f32 {
        0.0
    }

    fn gather_map(&self, _d: &PrValue, src: &PrValue, _e: &(), _w: f32) -> f32 {
        if src.out_degree == 0 {
            0.0
        } else {
            src.rank / src.out_degree as f32
        }
    }

    fn gather_reduce(&self, a: f32, b: f32) -> f32 {
        a + b
    }

    fn gather_is_source_only(&self) -> bool {
        true
    }

    fn apply(&self, v: &mut PrValue, r: f32, _i: u32) -> bool {
        let new_rank = 0.15 + 0.85 * r;
        let changed = (new_rank - v.rank).abs() > 1e-4;
        v.rank = new_rank;
        changed
    }

    fn scatter(&self, _s: &PrValue, _d: &PrValue, _e: &mut ()) {}

    fn max_iterations(&self) -> u32 {
        100
    }
}
