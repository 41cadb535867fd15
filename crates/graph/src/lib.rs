//! # gr-graph — graph substrate for the GraphReduce reproduction
//!
//! Containers, generators, and partitioning shared by the GraphReduce core
//! and every baseline engine:
//!
//! * [`edgelist`] — raw directed edge lists with text IO;
//! * [`csr`] — the dual CSC/CSR layout with one canonical edge numbering
//!   (the Graph Layout Engine of Section 4.2);
//! * [`gen`] — deterministic synthetic generators (R-MAT, lattices, 3-D
//!   stencils, small-world, preferential attachment);
//! * [`datasets`] — class-matched, scale-parameterized stand-ins for the
//!   paper's Table 1 datasets;
//! * [`partition`] — load-balanced vertex-interval partitioning;
//! * [`shard`] — the Figure 7 shard descriptors (contiguous CSC/CSR
//!   ranges per interval);
//! * [`frontier`] — dense bitmaps with ranged popcounts for frontier
//!   tracking.

#![forbid(unsafe_code)]

pub mod compress;
pub mod csr;
pub mod datasets;
pub mod edgelist;
pub mod frontier;
pub mod gen;
pub mod partition;
pub mod shard;
pub mod stats;

pub use compress::{CompressedTopology, CompressionCodec, RowLoc, TopoView};
pub use csr::{Adjacency, GraphLayout};
pub use datasets::{dataset_bytes, in_memory_bytes, Dataset};
pub use edgelist::{EdgeList, VertexId};
pub use frontier::Bitmap;
pub use partition::{partition_even_edges, validate_partition, Interval};
pub use shard::{build_shards, split_shard, Shard};
pub use stats::GraphStats;
