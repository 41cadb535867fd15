//! # gr-baselines — the frameworks GraphReduce is compared against
//!
//! Faithful behavioural models of the four systems in the paper's
//! evaluation, all running the same [`graphreduce::GasProgram`]s and
//! validated for bit-identical results against the sequential oracles:
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
pub mod executor;
pub mod graphchi;
pub mod mapgraph;
pub mod totem;
pub mod xstream;

use gr_sim::SimDuration;
use graphreduce::GasProgram;

pub use cusha::CuSha;
pub use executor::{execute, IterWork, WorkloadTrace};
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
    /// Bytes moved over PCIe (GPU engines).
    pub bytes_pcie: u64,
}

/// Results + timing of one baseline run.
pub struct BaselineRun<P: GasProgram> {
    /// Final vertex values (identical to every other engine's).
    pub vertex_values: Vec<P::VertexValue>,
    /// Final edge values.
    pub edge_values: Vec<P::EdgeValue>,
    /// Timing summary.
    pub stats: BaselineStats,
}
