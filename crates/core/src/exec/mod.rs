//! The layered execution core: one device timeline for one GPU or many.
//!
//! Layering (each module may depend only on the ones above it):
//!
//! 1. [`plan`] — pure planning: `(SizeModel, Options, caps)` →
//!    [`plan::ExecPlan`], shard owners and the memory governor's ladder.
//!    No device state.
//! 2. [`compute`] — per-phase [`gr_sim::KernelSpec`] construction. No
//!    device state.
//! 3. [`device`] — [`device::DeviceCtx`]: one `Gpu` + streams, held
//!    allocations, the unified fault-retry loop, pending-kernel span
//!    resolution. The *only* module that calls `gr-sim` operations.
//! 4. [`movement`] — shard copy-in/copy-out policy (spray, zero-copy,
//!    chunking, storage stalls), issuing ops through [`device`].
//! 5. [`host`] — the host master state: the exact GAS computation every
//!    run performs (fanned out over host threads when available), with
//!    real wall-clock attribution via `gr_observe`'s `WallProfiler`.
//! 6. [`driver`] and [`bsp`] — `Runner`, the one device timeline over
//!    N ≥ 1 devices, written as two `impl` blocks of one type that share
//!    its fields and call each other. `driver.rs` holds the state and the
//!    emission: shard owners, frontier skip, residency caching, spill
//!    reads, governor host shards, the fused/unfused iteration, and —
//!    with more than one live device — stage barriers, the vertex
//!    exchange and eviction. `bsp.rs` is its BSP loop: kill switch, one
//!    host computation per iteration, durable snapshots, the iteration
//!    span, and the replay-on-[`device::Abort`] helper.
//!
//! [`compress`] sits beside [`plan`] and [`compute`]: pure per-shard byte
//! accounting over the gap-coded topology (no device state), consumed by
//! the governor, the movement buffer sets, and the decompress pricing.
//! [`durable`] sits beside [`bsp`]: the durable-checkpoint writer
//! (full/delta schedule, placement and codec, fault-hardened writes) the
//! loop drives.
//!
//! A [`crate::session::Query`] runs through this
//! core on the devices [`crate::Options::devices`] lists. See
//! `docs/ARCHITECTURE.md`.

pub mod bsp;
pub mod compress;
pub mod compute;
pub mod device;
pub mod driver;
pub mod durable;
pub mod host;
pub mod movement;
pub mod plan;

gr_observe::metric_table! {
    /// The engine registry's series, each explained in
    /// `docs/OBSERVABILITY.md`; `RunStats` reads them.
    pub(crate) enum EngineMetric {
        SkippedShardCopies: Counter("engine.skipped_shard_copies"),
        SkippedKernelLaunches: Counter("engine.skipped_kernel_launches"),
        FrontierSize: Histogram("engine.frontier_size"),
        ActiveShards: Histogram("engine.active_shards"),
        FaultRetries: Counter("engine.fault_retries"),
        Rollbacks: Counter("engine.rollbacks"),
        HostFallback: Counter("engine.host_fallback"),
        MemPressure: Counter("engine.mem_pressure"),
        Redistributions: Counter("engine.redistributions"),
        ExchangeBytes: Counter("engine.exchange_bytes"),
        Evictions: Counter("engine.evictions"),
        ShardSplits: Counter("engine.shard_splits"),
        ChunkedShards: Counter("engine.chunked_shards"),
        ChunkedCopies: Counter("engine.chunked_copies"),
        HostShards: Counter("engine.host_shards"),
        SpillStalls: Counter("engine.spill_stalls"),
        SsdStalls: Counter("engine.ssd_stalls"),
        CheckpointWrites: Counter("engine.checkpoint_writes"),
        CheckpointBytes: Counter("engine.checkpoint_bytes"),
        CheckpointRawBytes: Counter("engine.checkpoint_raw_bytes"),
        CheckpointFullBytes: Counter("engine.checkpoint_full_bytes"),
        CheckpointDeltaWrites: Counter("engine.checkpoint_delta_writes"),
        CheckpointDeltaBytes: Counter("engine.checkpoint_delta_bytes"),
        CheckpointRestores: Counter("engine.checkpoint_restores"),
        CheckpointsSkipped: Counter("engine.checkpoints_skipped"),
        StorageRetries: Counter("engine.storage_retries"),
        SpillRestreams: Counter("engine.spill_restreams"),
        SpilledShards: Counter("engine.spilled_shards"),
        SpilledBytes: Counter("engine.spilled_bytes"),
        SpillLoads: Counter("engine.spill_loads"),
        SpillLoadBytes: Counter("engine.spill_load_bytes"),
        CompressedBytes: Counter("engine.compressed_bytes"),
        CompressedRawBytes: Counter("engine.compressed_raw_bytes"),
        DecompressLaunches: Counter("engine.decompress_launches"),
    }
}

#[cfg(test)]
mod tests {
    use gr_observe::metrics::{Kind, MetricTable};

    use super::EngineMetric;

    /// `docs/OBSERVABILITY.md`'s "Metric names" table lists exactly the
    /// declared series of both registries, with their kinds.
    #[test]
    fn docs_metric_table_matches_the_declared_tables() {
        let doc = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../docs/OBSERVABILITY.md"
        ))
        .expect("readable docs/OBSERVABILITY.md");
        let section = doc
            .split("## Metric names")
            .nth(1)
            .and_then(|s| s.split("\n## ").next())
            .expect("a Metric names section");
        let mut documented: Vec<(String, String)> = section
            .lines()
            .filter_map(|l| {
                let cells: Vec<&str> = l.split('|').map(str::trim).collect();
                let name = cells.get(1)?.strip_prefix('`')?.split(['`', '{']).next()?;
                Some((name.to_string(), cells.get(2)?.to_string()))
            })
            .collect();
        let mut declared: Vec<(String, String)> = gr_sim::DeviceMetric::ROWS
            .iter()
            .chain(EngineMetric::ROWS)
            .map(|&(name, kind)| {
                let kind = match kind {
                    Kind::Counter => "counter",
                    Kind::Labeled => "labeled counter",
                    Kind::Histogram => "histogram",
                };
                (name.to_string(), kind.to_string())
            })
            .collect();
        documented.sort();
        declared.sort();
        assert_eq!(documented, declared);
    }
}
