//! # graphreduce-repro — workspace facade
//!
//! Re-exports the whole GraphReduce (SC '15) reproduction so examples and
//! cross-crate integration tests can `use graphreduce_repro::*`:
//!
//! * [`sim`] — the virtual accelerator substrate ([`gr_sim`]);
//! * [`graph`] — graph containers, generators, datasets ([`gr_graph`]);
//! * [`core`] — the GraphReduce framework itself ([`graphreduce`]);
//! * [`algorithms`] — BFS / SSSP / PageRank / CC / SpMV / Heat
//!   ([`gr_algorithms`]);
//! * [`baselines`] — GraphChi-, X-Stream-, CuSha-, MapGraph-style engines
//!   that price GraphReduce's work trace ([`gr_baselines`]);
//! * [`observe`] — structured events, metrics, decision logs, exporters
//!   ([`gr_observe`]).
//!
//! See README.md for a quickstart, DESIGN.md for the system inventory,
//! docs/ARCHITECTURE.md for the core crate's layered execution core,
//! and docs/OBSERVABILITY.md for the event/metrics layer.

pub use gr_algorithms as algorithms;
pub use gr_baselines as baselines;
pub use gr_graph as graph;
pub use gr_observe as observe;
pub use gr_sim as sim;
pub use graphreduce as core;

pub use gr_algorithms::{Bfs, Cc, Heat, PageRank, Spmv, Sssp};
pub use gr_graph::{Dataset, EdgeList, GraphLayout};
pub use gr_sim::Platform;
pub use graphreduce::{DeviceSpec, GasProgram, GraphSession, InitialFrontier, Options, RunStats};
