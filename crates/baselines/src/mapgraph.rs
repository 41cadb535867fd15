//! MapGraph-style in-GPU-memory engine (Fu et al., GRADES '14).
//!
//! Frontier-driven GAS over plain CSR/CSC with dynamic scheduling: work is
//! proportional to the active edge set (unlike CuSha's all-shards passes),
//! which makes it strong on traversal workloads — but its gather reads
//! neighbor state through unsorted CSR indices, paying uncoalesced accesses
//! that CuSha's G-Shards layout avoids (the paper's Table 4: MapGraph wins
//! some BFS/SSSP columns, loses PageRank on skewed graphs).

use gr_graph::GraphLayout;
use gr_sim::{Gpu, KernelSpec, OutOfMemory, Platform};
use graphreduce::phases::ShardWork;

use crate::{gathers, BaselineStats};

/// MapGraph-style engine configuration.
#[derive(Clone, Debug)]
pub struct MapGraph {
    /// Bytes per CSR/CSC entry.
    pub entry_bytes: u64,
    /// Bytes of per-vertex state.
    pub vertex_bytes: u64,
    /// Host-side cost per iteration (frontier readback + scheduling
    /// strategy selection). MapGraph's dynamic scheduler keeps this
    /// tighter than CuSha's full-grid relaunch.
    pub iteration_overhead: gr_sim::SimDuration,
}

impl Default for MapGraph {
    fn default() -> Self {
        MapGraph {
            entry_bytes: 8,
            vertex_bytes: 16,
            iteration_overhead: gr_sim::SimDuration::from_micros(150),
        }
    }
}

impl MapGraph {
    /// Device bytes needed for a graph: the full in-memory footprint of
    /// Table 1 (CSR + CSC + vertex state + frontier queues + auxiliary
    /// buffers) — the quantity the paper classifies datasets by.
    pub fn device_bytes(&self, layout: &GraphLayout) -> u64 {
        gr_graph::in_memory_bytes(layout.num_vertices() as u64, layout.num_edges())
    }

    /// Bytes actually uploaded at load time (CSR + CSC + vertex state; the
    /// capacity *requirement* above also counts scratch built on-device).
    pub fn transfer_bytes(&self, layout: &GraphLayout) -> u64 {
        2 * layout.num_edges() * self.entry_bytes
            + layout.num_vertices() as u64 * (self.vertex_bytes + 8)
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
        let gathered = gathers(work);
        let s = gpu.create_stream();

        gpu.h2d(s, self.transfer_bytes(layout), "mapgraph.load");
        gpu.synchronize();
        for w in work {
            if gathered {
                // Gather over the active edge set; neighbor reads are
                // uncoalesced through CSR (no shard-sorted locality).
                gpu.launch(
                    s,
                    &KernelSpec::balanced(
                        "mapgraph.gather",
                        w.active_in_edges,
                        3.0,
                        w.active_in_edges * self.entry_bytes,
                        // Two uncoalesced accesses per edge: the neighbor
                        // value read and the atomic reduction into the
                        // destination (CuSha's G-Shards avoid both).
                        2 * w.active_in_edges,
                    ),
                );
            }
            gpu.launch(
                s,
                &KernelSpec::balanced(
                    "mapgraph.apply",
                    w.active_vertices,
                    4.0,
                    w.active_vertices * self.vertex_bytes,
                    0,
                ),
            );
            // Frontier expansion (advance) over out-edges of changed
            // vertices, with dynamic (balanced) scheduling.
            gpu.launch(
                s,
                &KernelSpec::balanced(
                    "mapgraph.advance",
                    w.out_edges_of_changed,
                    2.0,
                    w.out_edges_of_changed * self.entry_bytes,
                    w.out_edges_of_changed / 2,
                ),
            );
            gpu.d2h(s, 8, "mapgraph.frontier-size");
            gpu.stall(s, self.iteration_overhead, "mapgraph.host-loop");
            gpu.synchronize();
        }
        let st = gpu.stats();
        Ok(BaselineStats {
            engine: "mapgraph",
            elapsed: st.elapsed,
            iterations: work.len() as u32,
            bytes_streamed: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cusha::CuSha;
    use crate::oracle_checked;
    use gr_algorithms::{Bfs, PageRank};
    use gr_graph::gen;

    #[test]
    fn results_match_reference() {
        let layout = GraphLayout::build(&gen::uniform(300, 2400, 111).symmetrize());
        let work = oracle_checked(Bfs::new(0), &layout);
        let stats = MapGraph::default()
            .run(&work, &layout, &Platform::paper_node())
            .unwrap();
        assert_eq!(stats.iterations as usize, work.len());
    }

    #[test]
    fn oom_past_device_capacity() {
        let layout = GraphLayout::build(&gen::uniform(1000, 40_000, 112));
        assert!(MapGraph::default()
            .run(&[], &layout, &Platform::paper_node_scaled(1 << 16))
            .is_err());
    }

    #[test]
    fn beats_cusha_on_sparse_frontier_traversal() {
        // Long-path BFS: MapGraph's frontier-proportional work vs CuSha's
        // full passes.
        let n = 1024u32;
        let el =
            gr_graph::EdgeList::from_edges(n, (0..n - 1).map(|i| (i, i + 1)).collect::<Vec<_>>())
                .symmetrize();
        let layout = GraphLayout::build(&el);
        let plat = Platform::paper_node();
        let work = oracle_checked(Bfs::new(0), &layout);
        let mg = MapGraph::default().run(&work, &layout, &plat).unwrap();
        let cu = CuSha::default().run(&work, &layout, &plat).unwrap();
        assert!(
            mg.elapsed < cu.elapsed,
            "mapgraph {:?} vs cusha {:?}",
            mg.elapsed,
            cu.elapsed
        );
    }

    #[test]
    fn loses_to_cusha_on_dense_skewed_pagerank() {
        // All-active PageRank on a skewed graph: CuSha's coalesced shards
        // beat MapGraph's random CSR gathers (Table 4, kron-logn20 PR).
        let layout = GraphLayout::build(&gen::rmat_g500(14, 1_200_000, 113).symmetrize());
        let plat = Platform::paper_node();
        // Dense PR: tiny epsilon keeps (nearly) all vertices active so the
        // per-iteration kernel character dominates the comparison.
        let pr = PageRank {
            epsilon: 1e-9,
            max_iters: 15,
            ..Default::default()
        };
        let work = oracle_checked(pr, &layout);
        let mg = MapGraph::default().run(&work, &layout, &plat).unwrap();
        let cu = CuSha::default().run(&work, &layout, &plat).unwrap();
        assert!(
            cu.elapsed < mg.elapsed,
            "cusha {:?} vs mapgraph {:?}",
            cu.elapsed,
            mg.elapsed
        );
    }
}
