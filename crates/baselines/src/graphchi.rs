//! GraphChi-style vertex-centric CPU engine (Kyrola et al., OSDI '12).
//!
//! Parallel-Sliding-Windows design: the graph lives in `P` on-storage
//! shards sorted by destination; executing one interval loads its shard
//! plus a sliding window from every other shard, runs vertex-centric
//! updates, and **writes the edges back** (all messages flow through edge
//! values in GraphChi). Every iteration therefore rewrites essentially the
//! whole edge set — the reason it trails X-Stream in the paper's Table 3 —
//! and the `P²` window loads add per-shard overhead as graphs grow.
//!
//! The paper sizes inputs to fit host RAM, so "storage" here is the page
//! cache; the effective streaming bandwidth is still well below DRAM copy
//! speed because GraphChi moves data through its block cache with
//! (de)serialization.

use gr_graph::GraphLayout;
use gr_sim::{CpuClock, CpuWork, HostConfig, SimDuration};
use graphreduce::phases::ShardWork;

use crate::BaselineStats;

/// GraphChi-style engine configuration.
#[derive(Clone, Debug)]
pub struct GraphChi {
    /// Worker threads.
    pub threads: u32,
    /// Execution memory budget (determines the shard count `P`); GraphChi
    /// defaults to a fraction of host RAM.
    pub mem_budget: u64,
    /// Effective shard streaming bandwidth in GB/s (block cache +
    /// serialization, not raw DRAM).
    pub stream_bandwidth_gbps: f64,
    /// Bytes per stored edge (endpoint + edge data + framing).
    pub edge_record_bytes: u64,
    /// Scalar ops per edge in the vertex-centric update loop.
    pub ops_per_edge: f64,
    /// Fixed cost of opening one sliding window.
    pub window_overhead: SimDuration,
}

impl Default for GraphChi {
    fn default() -> Self {
        GraphChi {
            threads: 16,
            mem_budget: 8 << 30, // a quarter of the paper host's 32 GB
            stream_bandwidth_gbps: 1.2,
            edge_record_bytes: 16,
            ops_per_edge: 18.0,
            window_overhead: SimDuration::from_micros(150),
        }
    }
}

impl GraphChi {
    /// Budget scaled the same way datasets are (keeps `P` realistic at
    /// laptop scale).
    pub fn scaled(scale: u64) -> Self {
        GraphChi {
            mem_budget: ((8u64 << 30) / scale).max(1 << 10),
            ..Default::default()
        }
    }

    /// Shard count for a graph (the PSW `P`).
    pub fn num_shards(&self, layout: &GraphLayout) -> u64 {
        let graph_bytes =
            layout.num_edges() * self.edge_record_bytes + layout.num_vertices() as u64 * 8;
        graph_bytes.div_ceil(self.mem_budget).max(1)
    }

    /// Price a GraphReduce work trace (one entry per iteration) with
    /// `host`'s cost model.
    pub fn run(
        &self,
        work: &[ShardWork],
        layout: &GraphLayout,
        host: &HostConfig,
    ) -> BaselineStats {
        let e = layout.num_edges();
        let p = self.num_shards(layout);
        let mut clock = CpuClock::new();
        let mut bytes_streamed = 0u64;
        let stream =
            |b: u64| SimDuration::from_secs_f64(b as f64 / (self.stream_bandwidth_gbps * 1e9));
        for _w in work {
            // Per iteration: read every shard once (in-edges), read the
            // sliding out-edge windows (≈ the edge set again), and write
            // every edge's value back. GraphChi has no cheap frontier mode:
            // shards stream regardless of active vertices.
            let read_bytes = 2 * e * self.edge_record_bytes;
            let write_bytes = e * self.edge_record_bytes;
            bytes_streamed += read_bytes + write_bytes;
            clock.charge_raw(stream(read_bytes + write_bytes));
            // P shards x P windows each.
            clock.charge_raw(self.window_overhead * (p * p));
            // Vertex-centric update: random access into vertex state per
            // edge endpoint.
            clock.charge(
                host,
                self.threads,
                &CpuWork::new("graphchi.update", e, self.ops_per_edge, 0, e / 2),
            );
        }
        BaselineStats {
            engine: "graphchi",
            elapsed: clock.elapsed(),
            iterations: work.len() as u32,
            bytes_streamed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle_checked;
    use crate::xstream::XStream;
    use gr_algorithms::{Cc, PageRank, Sssp};
    use gr_graph::gen;

    fn host() -> HostConfig {
        HostConfig::xeon_e5_2670()
    }

    #[test]
    fn results_match_reference() {
        let layout = GraphLayout::build(&gen::with_random_weights(
            gen::uniform(300, 2400, 95),
            8.0,
            96,
        ));
        let work = oracle_checked(Sssp::new(0), &layout);
        let stats = GraphChi::default().run(&work, &layout, &host());
        assert_eq!(stats.iterations as usize, work.len());
    }

    #[test]
    fn shard_count_scales_with_graph_size() {
        let small = GraphLayout::build(&gen::uniform(100, 1000, 97));
        let chi = GraphChi {
            mem_budget: 4096,
            ..Default::default()
        };
        assert!(chi.num_shards(&small) > 1);
        assert_eq!(GraphChi::default().num_shards(&small), 1);
    }

    #[test]
    fn slower_than_xstream_on_dense_iterations() {
        // The paper's Table 3: GraphChi trails X-Stream on every input
        // (vertex-centric random access + edge write-back).
        let layout = GraphLayout::build(&gen::rmat_g500(11, 30_000, 98).symmetrize());
        let work = oracle_checked(PageRank::default(), &layout);
        let chi = GraphChi::scaled(64).run(&work, &layout, &host());
        let xs = XStream::default().run(&work, &layout, &host());
        assert_eq!(chi.iterations, xs.iterations);
        assert!(
            chi.elapsed > xs.elapsed,
            "graphchi {:?} should trail x-stream {:?}",
            chi.elapsed,
            xs.elapsed
        );
    }

    #[test]
    fn cc_matches_union_find() {
        let layout = GraphLayout::build(&gen::uniform(500, 1200, 99).symmetrize());
        let work = oracle_checked(Cc, &layout);
        let stats = GraphChi::default().run(&work, &layout, &host());
        assert_eq!(stats.iterations as usize, work.len());
    }
}
