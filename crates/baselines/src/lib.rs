//! # gr-baselines — the frameworks GraphReduce is compared against
//!
//! Behavioural cost models of the four systems in the paper's evaluation,
//! plus Totem. The paper runs the same four GAS programs on every
//! framework, and BSP results do not depend on who computes them, so each
//! engine here *prices* the work trace of one GraphReduce run instead of
//! computing the answer again: [`graphreduce::RunResult::work`], one
//! [`ShardWork`] summed over shards per iteration.
//!
//! | Engine | Style | Key behaviour modeled |
//! |---|---|---|
//! | [`graphchi::GraphChi`] | CPU, vertex-centric PSW | full shard rewrite per iteration, P² sliding windows |
//! | [`xstream::XStream`] | CPU, edge-centric streaming | streams ALL edges every iteration + update shuffle |
//! | [`cusha::CuSha`] | GPU in-memory G-Shards | coalesced all-shard passes, frontier-oblivious |
//! | [`mapgraph::MapGraph`] | GPU in-memory frontier GAS | frontier-proportional work, uncoalesced CSR gathers |
//! | [`totem::Totem`] | hybrid CPU+GPU static split | fixed GPU sub-graph, CPU-side bottleneck (Section 2.2) |
//!
//! The CPU engines are timed with [`gr_sim::cpu`]'s host model; the GPU
//! engines run on the same [`gr_sim::Gpu`] virtual device GraphReduce uses
//! (and fail with OOM when a graph exceeds device memory — their defining
//! limitation, Table 1).

#![forbid(unsafe_code)]

pub mod cusha;
pub mod graphchi;
pub mod mapgraph;
pub mod totem;
pub mod xstream;

use gr_sim::SimDuration;
use graphreduce::phases::ShardWork;

pub use cusha::CuSha;
pub use graphchi::GraphChi;
pub use mapgraph::MapGraph;
pub use totem::{Totem, TotemSplit};
pub use xstream::XStream;

/// Timing summary of one baseline run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BaselineStats {
    /// Engine name as printed in the tables.
    pub engine: &'static str,
    /// Simulated wall time.
    pub elapsed: SimDuration,
    /// Iterations to convergence.
    pub iterations: u32,
    /// Bytes streamed through the storage/page-cache path (CPU engines).
    pub bytes_streamed: u64,
}

/// Whether the traced program gathers. GraphReduce counts no in-edges
/// for a program without a gather phase, so a trace that gathered no edge
/// in any iteration is priced as gather-free: its gather would be empty.
fn gathers(work: &[ShardWork]) -> bool {
    work.iter().any(|w| w.active_in_edges > 0)
}

/// The work trace of a cold GraphReduce run of `program`, after checking
/// the run's values and iteration count against the sequential oracle.
#[cfg(test)]
fn oracle_checked<P>(program: P, layout: &gr_graph::GraphLayout) -> Vec<ShardWork>
where
    P: graphreduce::GasProgram<VertexValue: PartialEq + std::fmt::Debug>,
{
    let (want, _, iterations) = gr_algorithms::reference::run_gas(&program, layout);
    let platform = gr_sim::Platform::paper_node();
    let opts = graphreduce::Options::optimized();
    let run = graphreduce::GraphSession::new(layout, platform, opts)
        .query(&program)
        .run()
        .expect("test graphs fit the full device");
    assert_eq!(run.vertex_values, want);
    assert_eq!(run.work.len() as u32, iterations);
    run.work
}

/// The executor every engine prices is one cold GraphReduce run: its work
/// trace must follow the sequential GAS interpreter.
#[cfg(test)]
mod executor {
    mod tests {
        use crate::oracle_checked;
        use gr_algorithms::{reference, Bfs, Cc};
        use gr_graph::{gen, GraphLayout};
        use gr_sim::Platform;
        use graphreduce::{GraphSession, Options};

        #[test]
        fn matches_sequential_gas_interpreter() {
            let layout = GraphLayout::build(&gen::uniform(300, 2400, 81).symmetrize());
            // Values and iteration count are asserted against `run_gas`.
            let work = oracle_checked(Cc, &layout);
            // CC starts with every vertex active, gathering every in-edge.
            assert_eq!(work[0].active_vertices, 300);
            assert_eq!(work[0].active_in_edges, layout.num_edges());
        }

        #[test]
        fn bfs_trace_records_frontier_wave() {
            let layout = GraphLayout::build(&gen::uniform(300, 2400, 82).symmetrize());
            let run = GraphSession::new(&layout, Platform::paper_node(), Options::optimized())
                .query(&Bfs::new(0))
                .run()
                .expect("test graphs fit the full device");
            assert_eq!(run.work[0].active_vertices, 1);
            assert_eq!(run.vertex_values, reference::bfs(&layout, 0));
            // Activation chains into the next frontier.
            let iters = &run.stats.per_iteration;
            assert_eq!(iters.len(), run.work.len());
            for (st, next) in iters.iter().zip(&run.work[1..]) {
                assert_eq!(st.activated, next.active_vertices);
            }
        }
    }
}
