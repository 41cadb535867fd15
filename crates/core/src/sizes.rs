//! Buffer size model and the shard-count / concurrency derivation of
//! Section 4.3 (Equations (1)–(2)).
//!
//! The Partition Engine must pick the shard count `P` and the number of
//! concurrently in-flight shards `K` such that
//!
//! ```text
//! K·(V/P) + K·B ≤ M          (1)
//! B = α·|E| + β·|V|          (2)
//! ```
//!
//! where `M` is device memory left after static buffers and `B` the
//! per-shard streaming footprint. We derive the minimal `P` whose largest
//! shard fits `K` times into the streaming budget; `K` itself follows the
//! paper's observation that with one DMA engine per direction, two
//! saturating shards in flight (one transferring, one computing) already
//! achieve full overlap — their derivation yields K = 2 on the K20c.

use gr_graph::{GraphLayout, Shard};
use gr_sim::{DeviceConfig, PcieConfig};

/// Byte sizes of every buffer class for one program instantiation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SizeModel {
    /// `size_of::<VertexValue>()`.
    pub vertex_value: u64,
    /// `size_of::<Gather>()`.
    pub gather: u64,
    /// `size_of::<EdgeValue>()`.
    pub edge_value: u64,
    /// Whether the Gather phase exists (in-edge buffers stream at all).
    pub has_gather: bool,
    /// Whether the Scatter phase exists (out-edge values stream back).
    pub has_scatter: bool,
}

impl SizeModel {
    /// The byte model derived from a program's data types and phase set —
    /// the single definition every run's plan is built from, on any
    /// device count.
    pub fn for_program<P: crate::api::GasProgram>(program: &P) -> Self {
        SizeModel {
            vertex_value: std::mem::size_of::<P::VertexValue>() as u64,
            gather: std::mem::size_of::<P::Gather>() as u64,
            edge_value: std::mem::size_of::<P::EdgeValue>() as u64,
            has_gather: program.has_gather(),
            has_scatter: program.has_scatter(),
        }
    }

    /// Static (resident for the whole run) device bytes: the vertex value
    /// array, the gather-temp array, per-vertex layout metadata (CSC/CSR
    /// offsets and degrees, 24 B), and three frontier bitmaps (current,
    /// changed, next).
    pub fn static_bytes(&self, num_vertices: u64) -> u64 {
        let bitmaps = 3 * num_vertices.div_ceil(8);
        num_vertices * (self.vertex_value + if self.has_gather { self.gather } else { 0 } + 24)
            + bitmaps
    }

    /// Streamed bytes per in-edge: source id + static weight + canonical
    /// index (12), the per-edge `edge_update_array` slot that gatherMap
    /// writes (gather size + valid flag, Figure 7), per-edge shard state
    /// (16), and the mutable edge value. Zero when the program has no
    /// gather — phase elimination drops the whole buffer (Section 5.3).
    ///
    /// The record widths are calibrated so a full GAS program's working set
    /// matches the paper's own footprint accounting (Table 1:
    /// 52.5 B/edge + 60 B/vertex, defined to include edge/vertex data
    /// states "and a few of the temporary buffers") — this is what makes
    /// every Table 1 dataset land on the same side of device memory at
    /// runtime as in the paper.
    pub fn in_edge_bytes(&self) -> u64 {
        if self.has_gather {
            12 + (self.gather + 4) + 16 + self.edge_value
        } else {
            0
        }
    }

    /// Streamed bytes per out-edge: destination id + canonical id +
    /// activation flags (12) and per-edge state (8) — FrontierActivate
    /// always needs the out-edge records (Section 5.3) — plus the mutable
    /// value when the program scatters.
    pub fn out_edge_bytes(&self) -> u64 {
        12 + 8 + if self.has_scatter { self.edge_value } else { 0 }
    }

    /// Full streaming footprint of one shard (Equation (2)'s `B` with
    /// α, β realized by the program's types).
    pub fn shard_bytes(&self, shard: &Shard) -> u64 {
        shard.num_in_edges() * self.in_edge_bytes()
            + shard.num_out_edges() * self.out_edge_bytes()
            // interval-local scratch: per-vertex activation flags.
            + shard.num_vertices().div_ceil(8) * 2
    }
}

/// A resolved partition plan.
#[derive(Clone, Debug, PartialEq)]
pub struct PartitionPlan {
    /// Shard descriptors.
    pub shards: Vec<Shard>,
    /// Concurrently in-flight shards (`K`).
    pub concurrent: u32,
    /// Largest single-shard streaming footprint.
    pub max_shard_bytes: u64,
    /// Static buffer bytes.
    pub static_bytes: u64,
    /// Whether *all* shards fit on the device simultaneously alongside the
    /// static buffers (in-GPU-memory mode).
    pub all_resident: bool,
}

/// Why planning failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PlanError {
    /// Static buffers alone exceed device memory: the vertex set does not
    /// fit. (The paper assumes vertex sets fit; Section 8 lists lifting
    /// this as future work.)
    StaticTooLarge { needed: u64, capacity: u64 },
    /// Even single-vertex intervals produce a shard too large for the
    /// streaming budget (a single vertex's edge lists exceed memory).
    ShardTooLarge { needed: u64, budget: u64 },
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::StaticTooLarge { needed, capacity } => write!(
                f,
                "vertex set does not fit in device memory ({needed} B static vs {capacity} B)"
            ),
            PlanError::ShardTooLarge { needed, budget } => write!(
                f,
                "smallest possible shard needs {needed} B but streaming budget is {budget} B"
            ),
        }
    }
}

impl std::error::Error for PlanError {}

/// The buffer size at which an explicit copy reaches ~95% of link
/// bandwidth (latency amortized 20x): the paper's "minimum buffer size to
/// saturate PCIe bandwidth".
pub fn pcie_saturating_bytes(pcie: &PcieConfig) -> u64 {
    (pcie.explicit_bandwidth_gbps * 1e9 * pcie.transfer_latency.as_secs_f64() * 20.0) as u64
}

/// The paper's `K`: how many shards to keep in flight. Two saturating
/// shards (one on the DMA engine, one computing) achieve full overlap with
/// a single H2D engine; more only helps if memory is plentiful and shards
/// are small, so we allow up to 4 when they fit. A slot is considered
/// viable at 1/8 of the saturating size — below that, double buffering
/// stops paying and K collapses to 1.
pub fn optimal_concurrent_shards(
    streaming_budget: u64,
    saturating_bytes: u64,
    requested: u32,
) -> u32 {
    let min_slot = (saturating_bytes / 8).max(1);
    let fit = (streaming_budget / min_slot).clamp(1, 4) as u32;
    requested.clamp(1, fit.max(1))
}

/// Derive shards + concurrency for `layout` under `sizes` on `device`.
///
/// `requested_k` comes from [`crate::Options::concurrent_shards`];
/// `override_p` forces a shard count (ablation benches sweep it).
pub fn plan_partition(
    layout: &GraphLayout,
    sizes: &SizeModel,
    device: &DeviceConfig,
    pcie: &PcieConfig,
    requested_k: u32,
    override_p: Option<usize>,
) -> Result<PartitionPlan, PlanError> {
    let v = layout.num_vertices() as u64;
    let static_bytes = sizes.static_bytes(v);
    if static_bytes > device.mem_capacity {
        return Err(PlanError::StaticTooLarge {
            needed: static_bytes,
            capacity: device.mem_capacity,
        });
    }
    let budget = device.mem_capacity - static_bytes;
    let k_wanted = optimal_concurrent_shards(budget, pcie_saturating_bytes(pcie), requested_k);
    // Degrade concurrency before refusing: a graph whose largest
    // unavoidable shard (a hub vertex's edge lists) exceeds the K-way slot
    // can still run with fewer shards in flight.
    let mut last_err = None;
    for k in (1..=k_wanted).rev() {
        match try_plan(layout, sizes, device.mem_capacity, budget, k, override_p, v) {
            Ok(plan) => return Ok(plan),
            Err(e) => last_err = Some(e),
        }
    }
    Err(last_err.expect("at least one concurrency level attempted"))
}

fn try_plan(
    layout: &GraphLayout,
    sizes: &SizeModel,
    capacity: u64,
    budget: u64,
    k: u32,
    override_p: Option<usize>,
    v: u64,
) -> Result<PartitionPlan, PlanError> {
    let static_bytes = sizes.static_bytes(v);
    let slot = budget / k as u64;

    let total_stream: u64 =
        layout.num_edges() * (sizes.in_edge_bytes() + sizes.out_edge_bytes()) + v.div_ceil(8) * 2;

    let mut p = override_p.unwrap_or_else(|| total_stream.div_ceil(slot.max(1)).max(1) as usize);
    loop {
        let intervals = gr_graph::partition_even_edges(layout, p);
        let shards = gr_graph::build_shards(layout, &intervals);
        let max_shard_bytes = shards
            .iter()
            .map(|s| sizes.shard_bytes(s))
            .max()
            .unwrap_or(0);
        if max_shard_bytes <= slot || override_p.is_some() {
            let mut k = k;
            if max_shard_bytes > slot && override_p.is_some() {
                if max_shard_bytes > budget {
                    return Err(PlanError::ShardTooLarge {
                        needed: max_shard_bytes,
                        budget,
                    });
                }
                // A forced (ablation) shard count can produce shards larger
                // than the K-way slot; shrink concurrency so K slots of the
                // actual maximum still fit Equation (1).
                k = (budget / max_shard_bytes).clamp(1, k as u64) as u32;
            }
            // Residency uses the *full-program* footprint (Table 1's
            // accounting), not the current program's possibly-eliminated
            // working set: the paper's out-of-memory datasets stream on
            // every algorithm, including gather-less BFS.
            let full_footprint = gr_graph::in_memory_bytes(v, layout.num_edges());
            let total: u64 = shards.iter().map(|s| sizes.shard_bytes(s)).sum();
            let all_resident = total <= budget && full_footprint <= capacity;
            return Ok(PartitionPlan {
                shards,
                concurrent: k,
                max_shard_bytes,
                static_bytes,
                all_resident,
            });
        }
        if p as u64 >= v.max(1) {
            return Err(PlanError::ShardTooLarge {
                needed: max_shard_bytes,
                budget: slot,
            });
        }
        // Grow the shard count geometrically; skewed graphs need headroom.
        p = (p * 3 / 2 + 1).min(v as usize);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gr_graph::gen;
    use gr_sim::Platform;

    fn sizes() -> SizeModel {
        SizeModel {
            vertex_value: 4,
            gather: 4,
            edge_value: 0,
            has_gather: true,
            has_scatter: false,
        }
    }

    fn layout() -> GraphLayout {
        GraphLayout::build(&gen::rmat_g500(12, 120_000, 5))
    }

    #[test]
    fn byte_model_reflects_phase_elimination() {
        let mut s = sizes();
        assert_eq!(s.in_edge_bytes(), 36); // 12 topo + 8 update + 16 state
        assert_eq!(s.out_edge_bytes(), 20);
        s.has_gather = false;
        assert_eq!(s.in_edge_bytes(), 0);
        s.has_scatter = true;
        s.edge_value = 4;
        assert_eq!(s.out_edge_bytes(), 24);
        // The full-program record total tracks Table 1's 52.5 B/edge.
        s.has_gather = true;
        assert_eq!(s.in_edge_bytes() + s.out_edge_bytes(), 64);
    }

    #[test]
    fn static_bytes_cover_values_temps_bitmaps() {
        let s = sizes();
        // 100 vertices: 100*(4+4+24) + 3*ceil(100/8) = 3200 + 39.
        assert_eq!(s.static_bytes(100), 3239);
    }

    #[test]
    fn plan_fits_device() {
        let p = Platform::paper_node_scaled(4096);
        let g = layout();
        let plan = plan_partition(&g, &sizes(), &p.device, &p.pcie, 2, None).unwrap();
        assert!(
            plan.max_shard_bytes * plan.concurrent as u64 + plan.static_bytes
                <= p.device.mem_capacity
        );
        assert!(!plan.shards.is_empty());
    }

    #[test]
    fn small_graph_is_all_resident_in_one_shard() {
        let p = Platform::paper_node();
        let g = layout();
        let plan = plan_partition(&g, &sizes(), &p.device, &p.pcie, 2, None).unwrap();
        assert_eq!(plan.shards.len(), 1);
        assert!(plan.all_resident);
    }

    #[test]
    fn oversized_vertex_set_errors() {
        let mut dev = DeviceConfig::k20c();
        dev.mem_capacity = 10;
        let p = Platform::paper_node();
        let err = plan_partition(&layout(), &sizes(), &dev, &p.pcie, 2, None).unwrap_err();
        assert!(matches!(err, PlanError::StaticTooLarge { .. }));
    }

    #[test]
    fn concurrency_clamps() {
        assert_eq!(optimal_concurrent_shards(10_000_000, 1_000_000, 2), 2);
        assert_eq!(optimal_concurrent_shards(10_000_000, 1_000_000, 64), 4);
        // Budget below one viable (1/8-saturating) slot: no double buffering.
        assert_eq!(optimal_concurrent_shards(100_000, 1_000_000, 2), 1);
        assert_eq!(optimal_concurrent_shards(0, 1_000_000, 2), 1);
    }

    #[test]
    fn paper_node_derives_k2() {
        // The paper's own derivation: K = 2 on a 4.8 GB K20c for large graphs.
        let p = Platform::paper_node();
        let sat = pcie_saturating_bytes(&p.pcie);
        // Streaming budget: a few GB after the vertex set of e.g. uk-2002.
        let budget = 3_000_000_000;
        assert_eq!(optimal_concurrent_shards(budget, sat, 2), 2);
    }

    #[test]
    fn override_p_is_respected() {
        let p = Platform::paper_node();
        let g = layout();
        let plan = plan_partition(&g, &sizes(), &p.device, &p.pcie, 2, Some(7)).unwrap();
        assert_eq!(plan.shards.len(), 7);
    }
}
