//! Compute Engine: per-phase [`KernelSpec`] construction.
//!
//! Pure functions from shard work statistics and the byte model to kernel
//! specs — no device state, no ops. [`ComputeSpecs`] layers CTA
//! imbalance and gather-mode selection on the balanced cost model of each
//! phase. The host-CPU roofline ([`host_work`]) prices degraded-mode and
//! governor host-shard execution.

use gr_graph::{GraphLayout, Shard};
use gr_observe::profiler::WALL_NO_SHARD;
use gr_observe::{WallKey, WallProfiler};
use gr_sim::{CpuWork, KernelSpec};

use crate::options::{GatherMode, Options};
use crate::phases::ShardWork;
use crate::sizes::SizeModel;

use super::compress::RAW_TOPO_ENTRY_BYTES;
use super::plan::interval_skew;

/// Host-CPU roofline for GAS work executed on the host (whole-run
/// fallback, per-iteration degraded mode, or governor host-shards): the
/// same per-edge/per-vertex cost model the CPU baseline engines use.
pub fn host_work(label: &'static str, vertices: u64, edges: u64, sizes: &SizeModel) -> CpuWork {
    CpuWork::new(
        label,
        vertices + edges,
        8.0,
        edges * 16 + vertices * (sizes.vertex_value + sizes.gather),
        edges,
    )
}

/// Per-shard kernel-spec construction: the byte
/// model plus the options that shape kernels (gather mode, CTA load
/// balancing) plus per-shard degree-skew factors computed once per run.
pub struct ComputeSpecs {
    sizes: SizeModel,
    gather_mode: GatherMode,
    cta_load_balance: bool,
    // Per-shard CTA imbalance factors (max/mean degree in the interval).
    skew_in: Vec<f64>,
    skew_out: Vec<f64>,
}

impl ComputeSpecs {
    /// Precompute the per-shard skew factors and capture the spec-shaping
    /// options. The skew scan walks every edge of the graph once — the
    /// dominant real-time setup cost — so it carries a wall scope
    /// (`phase: "setup"`, outside any iteration).
    pub(crate) fn new(
        sizes: SizeModel,
        opts: &Options,
        layout: &GraphLayout,
        shards: &[Shard],
        wall: &WallProfiler,
    ) -> Self {
        let _w = wall.scope(|| WallKey {
            iteration: 0,
            shard: WALL_NO_SHARD,
            phase: "setup",
            shape: "skew",
        });
        let (skew_in, skew_out): (Vec<f64>, Vec<f64>) = shards
            .iter()
            .map(|sh| {
                (
                    interval_skew(layout, sh, true),
                    interval_skew(layout, sh, false),
                )
            })
            .unzip();
        ComputeSpecs {
            sizes,
            gather_mode: opts.gather_mode,
            cta_load_balance: opts.cta_load_balance,
            skew_in,
            skew_out,
        }
    }

    /// The (map, optional reduce) kernel pair of the gather phase. A fixed
    /// pair instead of a `Vec` — this runs per shard per iteration and
    /// used to allocate every time.
    pub(crate) fn gather_specs(&self, i: usize, w: &ShardWork) -> (KernelSpec, Option<KernelSpec>) {
        let ie = self.sizes.in_edge_bytes();
        let g = self.sizes.gather;
        let cta = self.cta_load_balance;
        match self.gather_mode {
            GatherMode::Hybrid => (
                KernelSpec::balanced(
                    "gatherMap",
                    w.active_in_edges,
                    2.0,
                    w.active_in_edges * (ie + g),
                    w.active_in_edges,
                ),
                Some(
                    KernelSpec::balanced(
                        "gatherReduce",
                        w.active_vertices,
                        1.0,
                        w.active_in_edges * g + w.active_vertices * g,
                        0,
                    )
                    .with_imbalance(if cta { 1.0 } else { self.skew_in[i] }),
                ),
            ),
            GatherMode::VertexCentric => {
                let avg = if w.active_vertices > 0 {
                    w.active_in_edges as f64 / w.active_vertices as f64
                } else {
                    0.0
                };
                (
                    KernelSpec::balanced(
                        "gatherVertexCentric",
                        w.active_vertices,
                        2.0 * avg.max(1.0),
                        w.active_in_edges * (ie + g),
                        w.active_in_edges,
                    )
                    .with_imbalance(self.skew_in[i]),
                    None,
                )
            }
            GatherMode::EdgeCentricAtomic => (
                KernelSpec::balanced(
                    "gatherEdgeAtomic",
                    w.active_in_edges,
                    2.0,
                    w.active_in_edges * ie,
                    2 * w.active_in_edges,
                ),
                None,
            ),
        }
    }

    pub(crate) fn apply_spec(&self, w: &ShardWork) -> KernelSpec {
        KernelSpec::balanced(
            "apply",
            w.active_vertices,
            4.0,
            w.active_vertices * (self.sizes.vertex_value + self.sizes.gather),
            0,
        )
    }

    pub(crate) fn scatter_spec(&self, i: usize, w: &ShardWork) -> KernelSpec {
        KernelSpec::balanced(
            "scatter",
            w.out_edges_of_changed,
            1.0,
            w.out_edges_of_changed * (8 + self.sizes.edge_value),
            w.changed_vertices,
        )
        .with_imbalance(if self.cta_load_balance {
            1.0
        } else {
            self.skew_out[i]
        })
    }

    /// The per-stream-in decode kernel over a shard's gap-coded topology:
    /// the compute half of the compression tradeoff. Sequential traffic is
    /// the compressed bits read plus the decoded entries written through
    /// on-chip memory to the consumers; a bit-serial prefix decode is
    /// branchy, hence the high flop weight. Gap rows inherit the
    /// interval's degree skew exactly like the kernels that consume them.
    pub(crate) fn decompress_spec(
        &self,
        i: usize,
        edges: u64,
        z_bytes: u64,
        in_edges: bool,
    ) -> KernelSpec {
        let skew = if in_edges {
            self.skew_in[i]
        } else {
            self.skew_out[i]
        };
        KernelSpec::balanced(
            "decompress",
            edges,
            8.0,
            z_bytes + edges * RAW_TOPO_ENTRY_BYTES,
            0,
        )
        .with_imbalance(if self.cta_load_balance { 1.0 } else { skew })
    }

    /// The frontier-activation kernel walking the out-edges of changed
    /// vertices.
    pub(crate) fn activate_spec(&self, i: usize, w: &ShardWork) -> KernelSpec {
        KernelSpec::balanced(
            "frontierActivate",
            w.out_edges_of_changed,
            1.0,
            w.out_edges_of_changed * 4,
            w.out_edges_of_changed,
        )
        .with_imbalance(if self.cta_load_balance {
            1.0
        } else {
            self.skew_out[i]
        })
    }
}
