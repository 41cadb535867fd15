//! CuSha-style in-GPU-memory engine (Khorasani et al., HPDC '14).
//!
//! G-Shards / Concatenated-Windows design: the whole graph is reshaped into
//! shards that one thread block each processes with fully coalesced reads,
//! then writes its window of updated vertices back. Strengths and
//! weaknesses both follow from "process every shard every iteration":
//! superb bandwidth utilization on dense frontiers, but no ability to skip
//! work when the frontier is tiny — the pattern behind its Table 2/4
//! results (huge wins on power-law BFS, modest ones on road networks with
//! hundreds of near-empty iterations).
//!
//! Requires the graph to fit in device memory; returns the allocator's
//! [`OutOfMemory`] otherwise, exactly like the real system's hard
//! assumption.

use gr_graph::GraphLayout;
use gr_sim::{Gpu, KernelSpec, OutOfMemory, Platform};
use graphreduce::phases::ShardWork;

use crate::BaselineStats;

/// CuSha-style engine configuration.
#[derive(Clone, Debug)]
pub struct CuSha {
    /// Bytes per G-Shards entry (src value copy, src id, dst id, edge
    /// value — the format's defining redundancy).
    pub entry_bytes: u64,
    /// Bytes per vertex of window state.
    pub vertex_bytes: u64,
    /// Host-side cost per iteration: the full shard grid is torn down and
    /// relaunched, windows are re-bound, and the host inspects the
    /// convergence flag. Calibrated against CuSha's published
    /// per-iteration times (~1.4 ms/iteration on belgium_osm-class inputs
    /// at full scale, which its kernels alone do not explain).
    pub iteration_overhead: gr_sim::SimDuration,
}

impl Default for CuSha {
    fn default() -> Self {
        CuSha {
            entry_bytes: 16,
            vertex_bytes: 8,
            iteration_overhead: gr_sim::SimDuration::from_micros(250),
        }
    }
}

impl CuSha {
    /// Device bytes needed for a graph: the full in-memory footprint of
    /// Table 1 (G-Shards + windows + auxiliary state) — the quantity the
    /// paper classifies datasets by.
    pub fn device_bytes(&self, layout: &GraphLayout) -> u64 {
        gr_graph::in_memory_bytes(layout.num_vertices() as u64, layout.num_edges())
    }

    /// Bytes actually uploaded at load time (the G-Shards payload; the
    /// capacity *requirement* above also counts scratch that is built
    /// on-device).
    pub fn transfer_bytes(&self, layout: &GraphLayout) -> u64 {
        layout.num_edges() * self.entry_bytes
            + layout.num_vertices() as u64 * (2 * self.vertex_bytes)
    }

    /// Price a GraphReduce work trace (one entry per iteration) on
    /// `platform`'s device, or refuse a graph the device cannot hold.
    pub fn run(
        &self,
        work: &[ShardWork],
        layout: &GraphLayout,
        platform: &Platform,
    ) -> Result<BaselineStats, OutOfMemory> {
        let mut gpu = Gpu::new(platform);
        let bytes = self.device_bytes(layout);
        let _graph = gpu.alloc(bytes)?;
        let s = gpu.create_stream();
        let e = layout.num_edges();
        let v = layout.num_vertices() as u64;

        gpu.h2d(s, self.transfer_bytes(layout), "cusha.load");
        gpu.synchronize();
        for _w in work {
            // One pass over every shard: all E entries, coalesced, plus the
            // concatenated-windows write-back over the vertex set.
            gpu.launch(
                s,
                &KernelSpec::balanced(
                    "cusha.shards",
                    e,
                    3.0,
                    e * self.entry_bytes,
                    v / 4, // window scatter back to the vertex array
                ),
            );
            gpu.launch(
                s,
                &KernelSpec::balanced("cusha.update", v, 2.0, v * self.vertex_bytes, 0),
            );
            // Host reads the convergence flag and re-arms the shard grid.
            gpu.d2h(s, 4, "cusha.flag");
            gpu.stall(s, self.iteration_overhead, "cusha.host-loop");
            gpu.synchronize();
        }
        let st = gpu.stats();
        Ok(BaselineStats {
            engine: "cusha",
            elapsed: st.elapsed,
            iterations: work.len() as u32,
            bytes_streamed: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle_checked;
    use gr_algorithms::{Bfs, Cc};
    use gr_graph::gen;

    #[test]
    fn results_match_reference() {
        let layout = GraphLayout::build(&gen::uniform(300, 2400, 101).symmetrize());
        let work = oracle_checked(Cc, &layout);
        let stats = CuSha::default()
            .run(&work, &layout, &Platform::paper_node())
            .unwrap();
        assert_eq!(stats.iterations as usize, work.len());
    }

    #[test]
    fn oom_on_graphs_larger_than_device() {
        let layout = GraphLayout::build(&gen::uniform(1000, 20_000, 102));
        let err = match CuSha::default().run(&[], &layout, &Platform::paper_node_scaled(1 << 16)) {
            Err(e) => e,
            Ok(_) => panic!("graph should not fit"),
        };
        assert!(err.requested > err.capacity - err.capacity / 100);
    }

    #[test]
    fn per_iteration_cost_is_frontier_independent() {
        // Long path: frontier of 1-2 vertices, yet every iteration pays the
        // full shard pass — CuSha's road-network weakness.
        let n = 256u32;
        let el =
            gr_graph::EdgeList::from_edges(n, (0..n - 1).map(|i| (i, i + 1)).collect::<Vec<_>>())
                .symmetrize();
        let layout = GraphLayout::build(&el);
        let work = oracle_checked(Bfs::new(0), &layout);
        let run = CuSha::default()
            .run(&work, &layout, &Platform::paper_node())
            .unwrap();
        // Elapsed grows ~linearly with iterations (255 of them).
        let per_iter = run.elapsed.as_secs_f64() / run.iterations as f64;
        assert!(per_iter > 1e-5, "per-iteration cost should be fixed-ish");
    }
}
