//! # gr-algorithms — GAS programs for the GraphReduce reproduction
//!
//! The four algorithms the paper evaluates (Section 6.1) plus two more GAS
//! workloads it names in Section 2.1:
//!
//! * [`bfs::Bfs`] — Breadth-First Search (Apply-only: exercises phase
//!   elimination);
//! * [`sssp::Sssp`] — Single-Source Shortest Paths;
//! * [`pagerank::PageRank`] — PageRank with frontier-based convergence;
//! * [`cc::Cc`] — Connected Components (the paper's Figure 6 example);
//! * [`spmv::Spmv`] — sparse matrix-vector product (one-shot GAS);
//! * [`heat::Heat`] — heat diffusion with mutable edge state (exercises the
//!   Scatter phase and edge-value write-back);
//! * [`msbfs::MsBfs`] — bit-parallel multi-source BFS (OR-reduction).
//!
//! [`mod@reference`] holds the sequential oracles every engine is validated
//! against.

#![forbid(unsafe_code)]

pub mod bfs;
pub mod cc;
pub mod heat;
pub mod msbfs;
pub mod pagerank;
pub mod reference;
pub mod spmv;
pub mod sssp;

pub use bfs::{Bfs, UNREACHED};
pub use cc::Cc;
pub use heat::Heat;
pub use msbfs::{MsBfs, MsBfsLevels, MsBfsLevelsValue, MsBfsValue};
pub use pagerank::{PageRank, PrValue};
pub use spmv::{Spmv, SpmvValue};
pub use sssp::{Sssp, UNREACHABLE};
