//! X-Stream-style edge-centric CPU engine (Rou et al., SOSP '13).
//!
//! Streaming-partitions design: every iteration, the **entire edge list**
//! is streamed sequentially (edge-centric scatter — there is no per-edge
//! frontier indexing), updates are generated for edges whose source is
//! active, shuffled to their destination partitions, and a gather pass
//! applies them. Vertex state is partitioned to fit cache, so vertex
//! accesses are cheap; the costs are the full edge stream per iteration
//! plus the update traffic.
//!
//! This structure is why X-Stream loses mildly on all-active workloads
//! (PageRank) but massively on sparse-frontier ones (BFS on power-law
//! graphs): it streams every edge no matter how small the frontier —
//! exactly the behaviour Table 3 exposes.

use gr_graph::GraphLayout;
use gr_sim::{CpuClock, CpuWork, HostConfig, SimDuration};
use graphreduce::phases::ShardWork;

use crate::{gathers, BaselineStats};

/// X-Stream-style engine configuration.
#[derive(Clone, Debug)]
pub struct XStream {
    /// Worker threads (the paper runs 16).
    pub threads: u32,
    /// Effective edge streaming bandwidth in GB/s. Well below DRAM peak:
    /// X-Stream streams through file buffers with copies.
    pub stream_bandwidth_gbps: f64,
    /// Effective update-file bandwidth in GB/s: updates are appended to
    /// per-partition buckets and re-read — bucketed, non-contiguous
    /// traffic that lands well below the edge-stream rate. This is what
    /// makes X-Stream disproportionally slow on power-law graphs whose
    /// dense frontiers generate update volume comparable to |E| every
    /// iteration (Table 2's kron vs belgium spread).
    pub update_bandwidth_gbps: f64,
    /// Bytes per streamed edge record (src, dst, weight + framing).
    pub edge_record_bytes: u64,
    /// Bytes per update record, counted once written + once read.
    pub update_record_bytes: u64,
    /// Scalar ops per streamed edge (dispatch + predicate).
    pub ops_per_edge: f64,
    /// Scalar ops per update (shuffle bucket + gather apply).
    pub ops_per_update: f64,
    /// Fixed cost per phase per iteration (thread fork/join over
    /// partitions).
    pub phase_overhead: SimDuration,
}

impl Default for XStream {
    fn default() -> Self {
        XStream {
            threads: 16,
            stream_bandwidth_gbps: 4.0,
            update_bandwidth_gbps: 1.5,
            edge_record_bytes: 24,
            update_record_bytes: 16,
            ops_per_edge: 6.0,
            ops_per_update: 10.0,
            phase_overhead: SimDuration::from_micros(50),
        }
    }
}

impl XStream {
    /// Price a GraphReduce work trace (one entry per iteration) with
    /// `host`'s cost model.
    pub fn run(
        &self,
        work: &[ShardWork],
        layout: &GraphLayout,
        host: &HostConfig,
    ) -> BaselineStats {
        let gathered = gathers(work);
        let e = layout.num_edges();
        let mut clock = CpuClock::new();
        let mut bytes_streamed = 0u64;
        let stream =
            |b: u64| SimDuration::from_secs_f64(b as f64 / (self.stream_bandwidth_gbps * 1e9));
        for w in work {
            // Scatter: stream ALL edges; produce one update per in-edge of
            // an active destination (≈ edges out of the frontier on the
            // symmetric inputs the paper uses).
            let updates = if gathered {
                w.active_in_edges
            } else {
                w.out_edges_of_changed
            };
            let edge_bytes = e * self.edge_record_bytes;
            bytes_streamed += edge_bytes;
            clock.charge_raw(stream(edge_bytes) + self.phase_overhead);
            clock.charge(
                host,
                self.threads,
                &CpuWork::new("xstream.scatter", e, self.ops_per_edge, 0, 0),
            );
            // Shuffle: updates written to destination partition buckets and
            // read back — bucketed writes miss cache across partitions.
            let upd_bytes = updates * self.update_record_bytes * 2;
            bytes_streamed += upd_bytes;
            let upd_time =
                SimDuration::from_secs_f64(upd_bytes as f64 / (self.update_bandwidth_gbps * 1e9));
            clock.charge_raw(upd_time + self.phase_overhead);
            clock.charge(
                host,
                self.threads,
                &CpuWork::new(
                    "xstream.shuffle",
                    updates,
                    self.ops_per_update / 2.0,
                    0,
                    updates / 4,
                ),
            );
            // Gather: apply updates to partition-resident vertex state.
            clock.charge_raw(self.phase_overhead);
            clock.charge(
                host,
                self.threads,
                &CpuWork::new("xstream.gather", updates, self.ops_per_update / 2.0, 0, 0),
            );
        }
        BaselineStats {
            engine: "x-stream",
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
    use gr_algorithms::{Bfs, Cc, PageRank};
    use gr_graph::gen;

    fn host() -> HostConfig {
        HostConfig::xeon_e5_2670()
    }

    #[test]
    fn results_match_reference() {
        let layout = GraphLayout::build(&gen::uniform(400, 3000, 91).symmetrize());
        for work in [
            oracle_checked(Cc, &layout),
            oracle_checked(Bfs::new(0), &layout),
        ] {
            let stats = XStream::default().run(&work, &layout, &host());
            assert_eq!(stats.iterations as usize, work.len());
        }
    }

    #[test]
    fn streams_all_edges_every_iteration() {
        let layout = GraphLayout::build(&gen::uniform(400, 3000, 92).symmetrize());
        let work = oracle_checked(Bfs::new(0), &layout);
        let run = XStream::default().run(&work, &layout, &host());
        let xs = XStream::default();
        let min_bytes = run.iterations as u64 * layout.num_edges() * xs.edge_record_bytes;
        assert!(
            run.bytes_streamed >= min_bytes,
            "must stream E edges per iteration"
        );
    }

    #[test]
    fn sparse_frontier_costs_almost_as_much_as_dense() {
        // BFS (sparse frontier) and PageRank-style (dense) per-iteration
        // costs differ only by update traffic: the edge stream dominates.
        let layout = GraphLayout::build(&gen::uniform(2000, 60_000, 93).symmetrize());
        let bfs_work = oracle_checked(Bfs::new(0), &layout);
        let pr_work = oracle_checked(PageRank::default(), &layout);
        let bfs = XStream::default().run(&bfs_work, &layout, &host());
        let pr = XStream::default().run(&pr_work, &layout, &host());
        let per_iter_bfs = bfs.elapsed.as_secs_f64() / bfs.iterations as f64;
        let per_iter_pr = pr.elapsed.as_secs_f64() / pr.iterations as f64;
        assert!(
            per_iter_bfs > 0.25 * per_iter_pr,
            "bfs/iter {per_iter_bfs} vs pr/iter {per_iter_pr}"
        );
    }
}
