//! Totem-style hybrid CPU+GPU engine (Gharaibeh et al., PACT '12).
//!
//! The paper's Section 2.2/7 discusses Totem as the existing answer to
//! out-of-memory graphs: **statically** partition the graph once, placing
//! high-degree vertices' edges in GPU memory (as much as fits) and the
//! low-degree remainder on the host; every iteration both sides process
//! their partitions and exchange boundary messages. Its two weaknesses —
//! the GPU only ever sees a *fixed* sub-graph (underutilization as inputs
//! grow) and the CPU side becomes the bottleneck — emerge directly from
//! this structure, which is exactly why GraphReduce streams shards
//! instead.

use gr_graph::GraphLayout;
use gr_sim::{cpu_time, CpuWork, Gpu, KernelSpec, Platform, SimDuration};
use graphreduce::phases::ShardWork;

use crate::BaselineStats;

/// Totem-style engine configuration.
#[derive(Clone, Debug)]
pub struct Totem {
    /// Bytes per edge of *full state* in the GPU partition (topology +
    /// edge data + message buffers — the same accounting Table 1 uses to
    /// classify what "fits"; only `gpu_transfer_bytes` of it crosses PCIe
    /// at load time).
    pub gpu_entry_bytes: u64,
    /// Bytes per edge actually uploaded at load time.
    pub gpu_transfer_bytes: u64,
    /// Bytes per edge in the host partition.
    pub cpu_entry_bytes: u64,
    /// Bytes per boundary message.
    pub message_bytes: u64,
    /// Host threads for the CPU partition.
    pub threads: u32,
    /// Scalar ops per edge on the CPU side.
    pub cpu_ops_per_edge: f64,
}

impl Default for Totem {
    fn default() -> Self {
        Totem {
            gpu_entry_bytes: 40,
            gpu_transfer_bytes: 8,
            cpu_entry_bytes: 16,
            message_bytes: 8,
            threads: 16,
            cpu_ops_per_edge: 10.0,
        }
    }
}

/// How a graph was split (reported for the underutilization analysis).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TotemSplit {
    /// Vertices whose out-edges live on the GPU.
    pub gpu_vertices: u32,
    /// Edges resident on the GPU.
    pub gpu_edges: u64,
    /// Edges resident on the host.
    pub cpu_edges: u64,
    /// Directed edges crossing the partition (boundary messages per full
    /// iteration).
    pub boundary_edges: u64,
}

impl TotemSplit {
    /// Fraction of the edge set the GPU processes.
    pub fn gpu_fraction(&self) -> f64 {
        let total = self.gpu_edges + self.cpu_edges;
        if total == 0 {
            0.0
        } else {
            self.gpu_edges as f64 / total as f64
        }
    }
}

impl Totem {
    /// Static degree-ordered split: highest-degree vertices first, until
    /// the device is full (Totem's heuristic for power-law inputs).
    pub fn split(&self, layout: &GraphLayout, device_capacity: u64) -> TotemSplit {
        let n = layout.num_vertices();
        let mut order: Vec<u32> = (0..n).collect();
        order.sort_unstable_by_key(|&v| std::cmp::Reverse(layout.csr.degree(v)));
        let mut on_gpu = vec![false; n as usize];
        let mut gpu_edges = 0u64;
        let mut gpu_vertices = 0u32;
        let mut bytes = 0u64;
        for &v in &order {
            let d = layout.csr.degree(v);
            let need = d * self.gpu_entry_bytes + 60;
            if bytes + need > device_capacity {
                break;
            }
            bytes += need;
            on_gpu[v as usize] = true;
            gpu_vertices += 1;
            gpu_edges += d;
        }
        let mut boundary = 0u64;
        for v in 0..n {
            for (dst, _) in layout.csr.entries(v) {
                if on_gpu[v as usize] != on_gpu[dst as usize] {
                    boundary += 1;
                }
            }
        }
        TotemSplit {
            gpu_vertices,
            gpu_edges,
            cpu_edges: layout.num_edges() - gpu_edges,
            boundary_edges: boundary,
        }
    }

    /// Price a GraphReduce work trace (one entry per iteration). Never
    /// refuses a graph (that is Totem's selling point) — but the GPU share
    /// shrinks as graphs grow.
    pub fn run(
        &self,
        work: &[ShardWork],
        layout: &GraphLayout,
        platform: &Platform,
    ) -> (BaselineStats, TotemSplit) {
        let split = self.split(layout, platform.device.mem_capacity);
        let mut gpu = Gpu::new(platform);
        let s = gpu.create_stream();

        // Static load of the GPU partition, once.
        gpu.h2d(
            s,
            split.gpu_edges * self.gpu_transfer_bytes + split.gpu_vertices as u64 * 16,
            "totem.load",
        );
        gpu.synchronize();

        for _w in work {
            // GPU side: one pass over its resident edges.
            gpu.launch(
                s,
                &KernelSpec::balanced(
                    "totem.gpu",
                    split.gpu_edges,
                    3.0,
                    split.gpu_edges * self.gpu_transfer_bytes,
                    split.gpu_edges / 8,
                ),
            );
            // Boundary exchange, both directions.
            let msg = split.boundary_edges * self.message_bytes;
            gpu.d2h(s, msg / 2, "totem.messages.out");
            gpu.h2d(s, msg / 2, "totem.messages.in");
            // CPU side runs concurrently; the BSP barrier takes the max,
            // which we model by stalling the GPU when the CPU is slower.
            let cpu = if split.cpu_edges == 0 {
                SimDuration::ZERO
            } else {
                cpu_time(
                    &platform.host,
                    self.threads,
                    &CpuWork::new(
                        "totem.cpu",
                        split.cpu_edges,
                        self.cpu_ops_per_edge,
                        split.cpu_edges * self.cpu_entry_bytes,
                        split.cpu_edges / 4,
                    ),
                ) + platform.host.pass_overhead
            };
            if !cpu.is_zero() {
                gpu.stall(s, cpu, "totem.cpu-barrier");
            }
            gpu.synchronize();
        }
        let st = gpu.stats();
        (
            BaselineStats {
                engine: "totem",
                elapsed: st.elapsed,
                iterations: work.len() as u32,
                bytes_streamed: 0,
            },
            split,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle_checked;
    use gr_algorithms::{Cc, PageRank};
    use gr_graph::gen;

    #[test]
    fn results_match_reference() {
        let layout = GraphLayout::build(&gen::uniform(300, 2400, 121).symmetrize());
        let work = oracle_checked(Cc, &layout);
        let (stats, _) = Totem::default().run(&work, &layout, &Platform::paper_node());
        assert_eq!(stats.iterations as usize, work.len());
    }

    #[test]
    fn split_prefers_high_degree_vertices() {
        let layout = GraphLayout::build(&gen::rmat_g500(12, 100_000, 122));
        let t = Totem::default();
        // Device that fits roughly half the edge bytes.
        let cap = layout.num_edges() * t.gpu_entry_bytes / 2;
        let split = t.split(&layout, cap);
        assert!(split.gpu_edges > 0 && split.cpu_edges > 0);
        // Power law: a small fraction of vertices carries most GPU edges.
        assert!(
            (split.gpu_vertices as f64) < 0.5 * layout.num_vertices() as f64,
            "hubs first: {} vertices hold {} edges",
            split.gpu_vertices,
            split.gpu_edges
        );
        assert!(split.gpu_fraction() > 0.4);
    }

    #[test]
    fn gpu_fraction_shrinks_as_graphs_grow() {
        // Totem's defining weakness (Section 2.2): fixed device memory, so
        // bigger graphs leave a smaller share on the GPU.
        let t = Totem::default();
        let cap = 400_000u64;
        let small = GraphLayout::build(&gen::rmat_g500(11, 30_000, 123));
        let large = GraphLayout::build(&gen::rmat_g500(13, 300_000, 123));
        let fs = t.split(&small, cap).gpu_fraction();
        let fl = t.split(&large, cap).gpu_fraction();
        assert!(fs > fl, "small {fs:.2} vs large {fl:.2}");
    }

    #[test]
    fn cpu_side_becomes_the_bottleneck_on_large_graphs() {
        // With a tiny device, Totem degenerates toward CPU-only speed and
        // loses its edge over a pure CPU engine.
        let layout = GraphLayout::build(&gen::rmat_g500(12, 150_000, 124).symmetrize());
        let pr = PageRank {
            epsilon: 1e-6,
            max_iters: 10,
            ..Default::default()
        };
        let full = Platform::paper_node();
        let mut tiny = Platform::paper_node();
        tiny.device.mem_capacity = 50_000;

        let work = oracle_checked(pr, &layout);
        let (fast, split_fast) = Totem::default().run(&work, &layout, &full);
        let (slow, split_slow) = Totem::default().run(&work, &layout, &tiny);
        assert!(split_fast.gpu_fraction() > 0.99);
        assert!(split_slow.gpu_fraction() < 0.2);
        // The CPU partition dominates once the GPU share collapses: the
        // hybrid loses most of its advantage (Section 2.2's
        // "underutilization of GPU's fullest processing power").
        assert!(
            slow.elapsed.as_secs_f64() > 2.0 * fast.elapsed.as_secs_f64(),
            "tiny-GPU totem {:?} should trail full-GPU totem {:?}",
            slow.elapsed,
            fast.elapsed
        );
    }
}
