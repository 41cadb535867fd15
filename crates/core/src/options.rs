//! Runtime options: every optimization of Section 5 is independently
//! toggleable so the Figure 15 ablation (optimized vs unoptimized GR) and
//! the design-choice benches can isolate each mechanism.

use std::path::PathBuf;

use gr_graph::CompressionCodec;
use gr_sim::FaultPlan;

use crate::recovery::RecoveryPolicy;
use crate::snapshot::CheckpointPolicy;

/// Cost-model choice for the Gather phase (Section 3.1's hybrid model
/// ablation). The *results* are identical; the knob selects which kind of
/// parallelism the simulated kernels exploit.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum GatherMode {
    /// Edge-centric gatherMap + vertex-centric gatherReduce (the paper's
    /// hybrid default): one lane per in-edge, no atomics, then a contiguous
    /// per-vertex reduction.
    Hybrid,
    /// Pure vertex-centric: one lane per vertex walks its whole in-edge
    /// list — load-imbalanced on skewed graphs and serializes each list.
    VertexCentric,
    /// Pure edge-centric with atomic accumulation into the destination
    /// vertex — contended random atomics instead of the two-step reduce.
    EdgeCentricAtomic,
}

/// How streamed shard buffers cross PCIe (Section 3.2 closes with:
/// "certain performance benefits may exist through intelligent runtime
/// buffer-type selecting; we leave this exploration for the future work" —
/// this knob is that exploration).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StreamingMode {
    /// Explicit `cudaMemcpyAsync` staging (the paper's choice).
    Explicit,
    /// Zero-copy pinned/UVA access for the *sequentially accessed*
    /// streaming buffers (all of GR's shard buffers are sequential by
    /// construction — the sorted layout of Section 4.2); random-access
    /// buffers remain device-resident either way.
    ZeroCopySequential,
}

/// Which host-side kernel implementation computes the *results* (the
/// simulated device timeline is unaffected — `ShardWork` counts, and
/// therefore every simulated cost, are identical across all variants).
///
/// The adaptive default mirrors Gunrock-style frontier-aware kernel
/// selection: a phase over a mostly-empty interval iterates only the set
/// bits of the frontier bitmap (word-skipping, O(active)), while a dense
/// interval is scanned contiguously (O(interval)). Every mode runs each
/// shard on one thread; shards fan out across threads in every mode.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum HostKernels {
    /// Pick the sparse walk or the interval scan per shard per phase by
    /// comparing the interval's active population against its length
    /// (the default).
    #[default]
    Adaptive,
    /// The pre-adaptive reference path: O(interval) scans probing the
    /// bitmap per vertex. Kept as the differential-test oracle.
    Serial,
}

/// One device of a run: the K20c-class GPU the platform describes, with
/// its own fault schedule and optional memory cap.
#[derive(Clone, Debug, Default)]
pub struct DeviceSpec {
    /// Deterministic fault-injection schedule armed on the device before
    /// the run. [`FaultPlan::none`] (the default) adds zero ops and zero
    /// simulated time — the fault machinery costs one branch per device
    /// op. Process-kill and storage I/O faults act on the whole run,
    /// whichever device's plan carries them.
    pub fault_plan: FaultPlan,
    /// Cap the device's usable memory below its nominal capacity, in
    /// bytes. Planning still sizes shards for the nominal device ("plan
    /// optimistically"); the memory governor then degrades the plan —
    /// redistribution to a peer with headroom, residency drop,
    /// concurrency cut, shard splits, chunked transfers, host fallback —
    /// until it fits the cap ("govern at runtime"). `None` (the default)
    /// leaves the device uncapped.
    pub mem_cap: Option<u64>,
}

/// A device with `fault_plan` armed and no memory cap.
impl From<FaultPlan> for DeviceSpec {
    fn from(fault_plan: FaultPlan) -> Self {
        DeviceSpec {
            fault_plan,
            mem_cap: None,
        }
    }
}

/// GraphReduce runtime configuration.
#[derive(Clone, Debug)]
pub struct Options {
    /// Use multiple CUDA streams with double buffering so shard transfers
    /// overlap kernels and each other (Section 5.1). Off = one stream,
    /// fully serialized (the unoptimized baseline's execution mode).
    pub async_streams: bool,
    /// Spray each shard's sub-arrays over dynamically created streams so
    /// copy issue overheads and DMA latencies pipeline across Hyper-Q
    /// hardware queues (Section 5.1).
    pub spray: bool,
    /// Number of spray streams per shard copy when `spray` is on.
    pub spray_width: u32,
    /// Skip data movement and kernel launches for shards with no active
    /// vertices or edges (Section 5.2, dynamic frontier management).
    pub frontier_management: bool,
    /// Merge adjacent surviving GAS phases into one copy-in/copy-out cycle
    /// and drop phases the program does not define (Section 5.3).
    pub phase_fusion: bool,
    /// CTA-style load balancing (ModernGPU): kernels see balanced work
    /// regardless of degree skew. Off = per-block imbalance inflates
    /// kernel time on skewed shards.
    pub cta_load_balance: bool,
    /// Gather-phase programming model (hybrid is the paper's choice).
    pub gather_mode: GatherMode,
    /// Number of shards processed concurrently (the `K` of Equation (1)).
    /// The paper derives K = 2 for the K20c.
    pub concurrent_shards: u32,
    /// Override the shard count `P`; `None` derives the minimal P that
    /// satisfies Equation (1) for the device's memory.
    pub num_shards: Option<usize>,
    /// Keep shard buffers resident on the device when the whole working
    /// set fits (in-GPU-memory mode — how GR competes in Table 4).
    pub cache_resident: bool,
    /// Transfer technique for streamed shard buffers.
    pub streaming_mode: StreamingMode,
    /// The devices the run uses, one entry each (the default is one
    /// uncapped, fault-free device; an empty list means the same). With more than one, shards are placed
    /// round-robin, the vertex array is replicated on every device that
    /// owns shards, and each iteration ends in a cross-device exchange
    /// (the paper's Section 8 multi-GPU future work).
    pub devices: Vec<DeviceSpec>,
    /// What the engine does about injected (or real) device faults.
    pub recovery: RecoveryPolicy,
    /// Host-side kernel implementation computing the exact results
    /// (sparse/dense selection + parallelism; results bit-identical).
    pub host_kernels: HostKernels,
    /// When (and whether) the run writes durable snapshots for
    /// kill-restart. [`CheckpointPolicy::InMemoryOnly`] (the default)
    /// writes none: zero disk traffic, zero extra cost.
    pub checkpoint_policy: CheckpointPolicy,
    /// Gap + varint/ζ compression for shard topology on the PCIe and
    /// spill paths (`docs/COMPRESSION.md`). `None` (the default) ships raw
    /// `(neighbor, edge id)` buffers; `Some(codec)` ships bit-packed gap
    /// streams, charges a `decompress` kernel per shard-load, and lets the
    /// memory governor budget in compressed bytes. Results are
    /// bit-identical either way, on one device or several.
    pub shard_compression: Option<CompressionCodec>,
    /// Out-of-host-core spill target, the rung *below* host fallback on
    /// the memory ladder: evicted shards go to checksummed files under
    /// this directory, coded through `shard_compression` when it is set.
    /// `None` (the default) keeps the blanket storage-stall model for
    /// graphs that exceed host RAM.
    pub spill_dir: Option<PathBuf>,
}

impl Options {
    /// Everything on: the configuration evaluated as "GR" in Tables 3-4.
    pub fn optimized() -> Self {
        Options {
            async_streams: true,
            spray: true,
            spray_width: 8,
            frontier_management: true,
            phase_fusion: true,
            cta_load_balance: true,
            gather_mode: GatherMode::Hybrid,
            concurrent_shards: 2,
            num_shards: None,
            cache_resident: true,
            streaming_mode: StreamingMode::Explicit,
            devices: vec![DeviceSpec::default()],
            recovery: RecoveryPolicy::default(),
            host_kernels: HostKernels::Adaptive,
            checkpoint_policy: CheckpointPolicy::InMemoryOnly,
            shard_compression: None,
            spill_dir: None,
        }
    }

    /// Everything off: the "unoptimized GR" baseline of Figure 15 —
    /// synchronous single-stream execution, every phase copies its shard
    /// in and out, inactive shards still move.
    pub fn unoptimized() -> Self {
        Options {
            async_streams: false,
            spray: false,
            spray_width: 1,
            frontier_management: false,
            phase_fusion: false,
            cta_load_balance: false,
            gather_mode: GatherMode::Hybrid,
            concurrent_shards: 1,
            num_shards: None,
            cache_resident: false,
            streaming_mode: StreamingMode::Explicit,
            devices: vec![DeviceSpec::default()],
            recovery: RecoveryPolicy::default(),
            host_kernels: HostKernels::Adaptive,
            checkpoint_policy: CheckpointPolicy::InMemoryOnly,
            shard_compression: None,
            spill_dir: None,
        }
    }

    /// Toggle multi-stream execution; turning it off also forces one
    /// shard in flight (`K = 1`), the unoptimized execution mode.
    pub fn with_async_streams(mut self, on: bool) -> Self {
        self.async_streams = on;
        if !on {
            self.concurrent_shards = 1;
        }
        self
    }

    /// Shards in flight, clamped to at least one.
    pub fn with_concurrent_shards(mut self, k: u32) -> Self {
        self.concurrent_shards = k.max(1);
        self
    }

    /// Force the shard count `P`, clamped to at least one.
    pub fn with_num_shards(mut self, p: usize) -> Self {
        self.num_shards = Some(p.max(1));
        self
    }

    /// Cap every device's usable memory at `bytes` (see
    /// [`DeviceSpec::mem_cap`]).
    pub fn with_mem_cap(mut self, bytes: u64) -> Self {
        for d in &mut self.devices {
            d.mem_cap = Some(bytes);
        }
        self
    }

    /// Spill evicted shards to checksummed files under `dir` (see
    /// [`Options::spill_dir`]).
    pub fn with_spill_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.spill_dir = Some(dir.into());
        self
    }

    /// Compress shard topology with `codec` on the PCIe and spill paths
    /// (see [`Options::shard_compression`]).
    pub fn with_shard_compression(mut self, codec: CompressionCodec) -> Self {
        self.shard_compression = Some(codec);
        self
    }
}

impl Default for Options {
    fn default() -> Self {
        Options::optimized()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_differ_on_every_switch() {
        let on = Options::optimized();
        let off = Options::unoptimized();
        assert!(on.async_streams && !off.async_streams);
        assert!(on.spray && !off.spray);
        assert!(on.frontier_management && !off.frontier_management);
        assert!(on.phase_fusion && !off.phase_fusion);
        assert!(on.cta_load_balance && !off.cta_load_balance);
        assert_eq!(off.concurrent_shards, 1);
        assert_eq!(on.concurrent_shards, 2);
    }

    #[test]
    fn disabling_async_forces_one_concurrent_shard() {
        let o = Options::optimized().with_async_streams(false);
        assert_eq!(o.concurrent_shards, 1);
    }

    #[test]
    fn builders_set_fields() {
        let o = Options::unoptimized()
            .with_concurrent_shards(0)
            .with_num_shards(0)
            .with_mem_cap(1 << 20);
        assert_eq!(o.concurrent_shards, 1); // clamped
        assert_eq!(o.num_shards, Some(1)); // clamped
        assert_eq!(o.devices[0].mem_cap, Some(1 << 20));
    }

    #[test]
    fn durability_defaults_off_in_both_presets() {
        for o in [Options::optimized(), Options::unoptimized()] {
            assert_eq!(o.checkpoint_policy, CheckpointPolicy::InMemoryOnly);
            assert!(o.spill_dir.is_none());
        }
        let o = Options {
            checkpoint_policy: CheckpointPolicy::durable("/tmp/ck", 3),
            ..Options::optimized()
        }
        .with_spill_dir("/tmp/spill");
        assert!(matches!(
            o.checkpoint_policy,
            CheckpointPolicy::Durable { every: 3, .. }
        ));
        assert_eq!(o.spill_dir, Some(PathBuf::from("/tmp/spill")));
    }

    #[test]
    fn compression_composes_with_spill_dir_in_either_order() {
        for o in [Options::optimized(), Options::unoptimized()] {
            assert!(o.shard_compression.is_none());
        }
        let a = Options::optimized()
            .with_spill_dir("/tmp/gr-spill")
            .with_shard_compression(CompressionCodec::Varint);
        let b = Options::optimized()
            .with_shard_compression(CompressionCodec::Varint)
            .with_spill_dir("/tmp/gr-spill");
        for o in [a, b] {
            assert_eq!(o.shard_compression, Some(CompressionCodec::Varint));
            assert_eq!(o.spill_dir, Some(PathBuf::from("/tmp/gr-spill")));
        }
    }

    #[test]
    fn fault_injection_defaults_off() {
        let o = Options::optimized();
        assert_eq!(o.devices.len(), 1, "one device by default");
        assert!(o.devices[0].fault_plan.is_none());
        assert_eq!(o.recovery, RecoveryPolicy::default());
        assert_eq!(o.host_kernels, HostKernels::Adaptive);
    }
}
