//! The GraphReduce user interface (Section 4.1, Figure 6).
//!
//! Programmers define their graph state data types and up to four device
//! functions — `gatherMap`, `gatherReduce`, `apply`, `scatter` — and the
//! framework generates the parallel out-of-core execution. Phases a program
//! does not define are *eliminated*: the runtime drops their kernels **and
//! the data movement that would feed them** (Section 5.3); e.g. a program
//! with no gather never pays for in-edge copies, and a program with no
//! scatter never copies edge values back.
//!
//! The trait below is the Rust rendering of the paper's `UserInfoTuple`
//! `<gather(), apply(), scatter(), VertexDataType, EdgeDataType>`.

use gr_graph::{Bitmap, VertexId};

use crate::snapshot::StateBytes;

/// How the computation frontier is seeded (the paper's Initialization
/// stage: "initializing vertex/edge values and a starting computation
/// frontier").
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum InitialFrontier {
    /// All vertices start active (PageRank, Connected Components).
    All,
    /// Exactly these source vertices start active: one for BFS and SSSP,
    /// up to 64 for a multi-source BFS sweep, so iteration 0 gathers only
    /// the seeds' in-edges. Duplicates are allowed and seed once. Every id
    /// must be below the vertex count; a query with a seed past the last
    /// vertex is refused with [`EngineError::BadStart`](crate::EngineError)
    /// before it runs.
    Sources(Vec<VertexId>),
}

impl InitialFrontier {
    /// The iteration-0 frontier over an `n`-vertex graph.
    ///
    /// # Panics
    /// If a seed is `>= n` (the engine rejects such a query first; see
    /// [`InitialFrontier::out_of_range`]).
    pub fn bitmap(&self, n: u32) -> Bitmap {
        match self {
            InitialFrontier::All => Bitmap::full(n),
            InitialFrontier::Sources(seeds) => {
                let mut b = Bitmap::new(n);
                for &v in seeds {
                    assert!(v < n, "seed {v} past the last vertex of a {n}-vertex graph");
                    b.set(v);
                }
                b
            }
        }
    }

    /// The first seed an `n`-vertex graph cannot hold, if any.
    pub fn out_of_range(&self, n: u32) -> Option<VertexId> {
        match self {
            InitialFrontier::All => None,
            InitialFrontier::Sources(seeds) => seeds.iter().copied().find(|&v| v >= n),
        }
    }
}

/// A Gather-Apply-Scatter program.
///
/// All methods take `&self` and must be pure with respect to the program
/// (the engine invokes them from parallel host threads standing in for GPU
/// lanes).
pub trait GasProgram: Sync {
    /// Per-vertex mutable state (`VertexDataType`). The [`StateBytes`]
    /// bound gives every value type a fixed little-endian byte layout so
    /// durable checkpoints restore bit-identically; derive it for custom
    /// structs with [`impl_state_bytes!`](crate::impl_state_bytes).
    type VertexValue: Copy + Send + Sync + StateBytes;
    /// Per-edge mutable state (`EdgeDataType`). Use `()` when edges carry
    /// no mutable state — static weights are passed separately.
    type EdgeValue: Copy + Send + Sync + Default + StateBytes;
    /// The gather accumulator produced by `gather_map` and folded by
    /// `gather_reduce`.
    type Gather: Copy + Send + Sync + StateBytes;

    /// Human-readable program name (traces, experiment tables).
    fn name(&self) -> &'static str;

    /// Initial value of vertex `v` (receives the vertex's out-degree, which
    /// PageRank-style programs fold into their state).
    fn init_vertex(&self, v: VertexId, out_degree: u32) -> Self::VertexValue;

    /// Initial frontier.
    fn initial_frontier(&self) -> InitialFrontier;

    /// Identity element of [`GasProgram::gather_reduce`]; seeds each
    /// vertex's accumulator.
    fn gather_identity(&self) -> Self::Gather;

    /// `G(u, v, e)` — evaluated per in-edge of an active vertex. `dst` is
    /// the gathering vertex's value, `src` the in-neighbor's, `edge` the
    /// mutable edge state and `weight` the static edge weight.
    ///
    /// Only called when [`GasProgram::has_gather`] is true.
    fn gather_map(
        &self,
        dst: &Self::VertexValue,
        src: &Self::VertexValue,
        edge: &Self::EdgeValue,
        weight: f32,
    ) -> Self::Gather;

    /// `⊎` — fold two gather accumulators. Must be associative and
    /// commutative (the reduction order over in-edges is unspecified, as on
    /// real hardware).
    ///
    /// The fold of a row carries its accumulator from one in-edge to the
    /// next, so the reduce sits on that row's loop-carried dependency and
    /// its latency is paid once per edge: write it in a form that compiles
    /// to a single instruction where one exists (a strict `<` select
    /// rather than `f32::min`, whose NaN rule costs three).
    fn gather_reduce(&self, a: Self::Gather, b: Self::Gather) -> Self::Gather;

    /// `U(v, R)` — update an active vertex from the reduced gather result;
    /// returns whether the vertex *changed* (changed vertices activate
    /// their one-hop out-neighborhood for the next iteration).
    /// `iteration` is the 0-based iteration number (BFS marks tree depth
    /// with it, as in Section 5.3).
    fn apply(&self, v: &mut Self::VertexValue, r: Self::Gather, iteration: u32) -> bool;

    /// `S(v', e)` — update the out-edge state of a changed vertex. `src` is
    /// the (already applied) vertex value, `dst` the edge's target value.
    ///
    /// Only called when [`GasProgram::has_scatter`] is true.
    fn scatter(&self, src: &Self::VertexValue, dst: &Self::VertexValue, edge: &mut Self::EdgeValue);

    /// Whether the program defines the Gather phase. Programs without it
    /// (e.g. BFS) never pay in-edge data movement (phase elimination).
    fn has_gather(&self) -> bool {
        true
    }

    /// Whether the program defines the Scatter phase (mutable edge state).
    /// Programs without it never copy edge values back to the host.
    fn has_scatter(&self) -> bool {
        false
    }

    /// Whether [`GasProgram::gather_map`]`(dst, src, edge, weight)`
    /// depends on `src` alone: not on `dst`, `edge` or `weight`.
    ///
    /// A declaring program lets the host compute each vertex's term once,
    /// as `gather_map(v, v, &Default::default(), 0.0)`, keep it in an
    /// array beside the vertex values (refreshed for every vertex apply
    /// visits), and fold `term[src]` over each in-edge row instead of
    /// evaluating the map per edge. Phase elimination one level finer:
    /// PageRank's division and a multi-source sweep's wide source read
    /// leave the edge loop. Results, work counts and simulated time are
    /// bit-identical to the per-edge fold.
    ///
    /// The engine cannot check this: a program that declares it while its
    /// map reads `dst`, `edge` or `weight` gets wrong answers.
    fn gather_is_source_only(&self) -> bool {
        false
    }

    /// Upper bound on iterations (safety net; algorithms normally converge
    /// by frontier exhaustion).
    fn max_iterations(&self) -> u32 {
        10_000
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal program used to check trait defaults: floods a counter.
    struct Flood;

    impl GasProgram for Flood {
        type VertexValue = u32;
        type EdgeValue = ();
        type Gather = u32;

        fn name(&self) -> &'static str {
            "flood"
        }

        fn init_vertex(&self, _v: VertexId, _d: u32) -> u32 {
            u32::MAX
        }

        fn initial_frontier(&self) -> InitialFrontier {
            InitialFrontier::Sources(vec![0])
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

    #[test]
    fn defaults() {
        let p = Flood;
        assert!(p.has_gather());
        assert!(!p.has_scatter());
        assert!(!p.gather_is_source_only());
        assert_eq!(p.max_iterations(), 10_000);
        assert_eq!(p.initial_frontier(), InitialFrontier::Sources(vec![0]));
    }

    #[test]
    fn seeds_become_a_bitmap_once_each() {
        let seeds = InitialFrontier::Sources(vec![5, 0, 5, 99]);
        let b = seeds.bitmap(100);
        assert_eq!(b.iter_set().collect::<Vec<_>>(), vec![0, 5, 99]);
        assert_eq!(b.count(), 3);
        assert_eq!(InitialFrontier::All.bitmap(70).count(), 70);
        assert_eq!(seeds.out_of_range(100), None);
        // 100 is the first id past a 100-vertex graph; 120 would land in
        // the last bitmap word's padding.
        assert_eq!(seeds.out_of_range(99), Some(99));
        assert_eq!(
            InitialFrontier::Sources(vec![3, 120]).out_of_range(100),
            Some(120)
        );
        assert_eq!(InitialFrontier::All.out_of_range(0), None);
    }

    #[test]
    #[should_panic(expected = "past the last vertex")]
    fn bitmap_refuses_a_seed_past_the_last_vertex() {
        InitialFrontier::Sources(vec![120]).bitmap(100);
    }
}
