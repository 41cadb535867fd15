//! Query specifications and per-query outcome records.

use graphreduce::RunStats;

/// Server-unique query identifier, assigned at admission.
pub type QueryId = u64;

/// A point query against the served graph.
///
/// BFS and SSSP are per-source traversals; PageRank and CC are whole-graph
/// snapshots. Only BFS queries batch (K sources → one MS-BFS sweep); the
/// others run as singleton batches on the shared session.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QuerySpec {
    /// Tree depths from `source` ([`gr_algorithms::Bfs`] semantics).
    Bfs { source: u32 },
    /// Shortest-path distances from `source`.
    Sssp { source: u32 },
    /// A PageRank snapshot (paper parameters: damping 0.85, ε 1e-4).
    PageRank,
    /// A connected-components snapshot (min-label propagation).
    Cc,
}

impl QuerySpec {
    /// Short kind tag used in decisions and batching compatibility.
    pub fn kind(&self) -> &'static str {
        match self {
            QuerySpec::Bfs { .. } => "bfs",
            QuerySpec::Sssp { .. } => "sssp",
            QuerySpec::PageRank => "pagerank",
            QuerySpec::Cc => "cc",
        }
    }

    /// The traversal source, for the per-source kinds.
    pub fn source(&self) -> Option<u32> {
        match *self {
            QuerySpec::Bfs { source } | QuerySpec::Sssp { source } => Some(source),
            QuerySpec::PageRank | QuerySpec::Cc => None,
        }
    }
}

/// A query's demultiplexed answer, in the same representation the
/// standalone algorithm produces.
#[derive(Clone, Debug, PartialEq)]
pub enum QueryOutput {
    /// BFS tree depths per vertex (`u32::MAX` = unreached).
    Depths(Vec<u32>),
    /// SSSP distances per vertex (`f32::INFINITY` = unreachable).
    Distances(Vec<f32>),
    /// PageRank score per vertex.
    Ranks(Vec<f32>),
    /// Component label per vertex.
    Components(Vec<u32>),
}

/// Per-query statistics lane, demultiplexed from the batch that carried
/// the query: the query's identity within the batch plus a clone of the
/// full engine [`RunStats`] for the run it rode on (shared by every
/// query in the batch — `batch_size` says how many ways it amortizes).
#[derive(Clone, Debug)]
pub struct QueryStats {
    /// The query this lane belongs to.
    pub query: QueryId,
    /// Batch that executed it.
    pub batch: u64,
    /// Lane within the batch (MS-BFS bit index; 0 for singletons).
    pub lane: u32,
    /// Queries multiplexed into the same execution.
    pub batch_size: u32,
    /// The deadline the query was submitted with, if any (virtual service
    /// ticks; one tick per executed batch).
    pub deadline: Option<u64>,
    /// Whether the carrying batch completed by the deadline (true when no
    /// deadline was set).
    pub deadline_met: bool,
    /// Engine statistics of the carrying run.
    pub run: RunStats,
}

/// One completed query: its spec, demuxed answer, and stats lane.
#[derive(Clone, Debug)]
pub struct QueryOutcome {
    pub id: QueryId,
    pub spec: QuerySpec,
    pub output: QueryOutput,
    pub stats: QueryStats,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_stable_tags() {
        assert_eq!(QuerySpec::Bfs { source: 3 }.kind(), "bfs");
        assert_eq!(QuerySpec::Sssp { source: 3 }.kind(), "sssp");
        assert_eq!(QuerySpec::PageRank.kind(), "pagerank");
        assert_eq!(QuerySpec::Cc.kind(), "cc");
    }
}
