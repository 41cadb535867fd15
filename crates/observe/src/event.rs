//! Typed event and decision records.
//!
//! Timestamps are virtual nanoseconds (`u64`), matching `gr-sim`'s
//! `SimTime::as_nanos()`; this crate deliberately has no dependency on
//! the simulator so it can sit below every other crate.

/// A typed key/value attachment on an event.
#[derive(Clone, Debug, PartialEq)]
pub enum FieldValue {
    U64(u64),
    F64(f64),
    Str(String),
    Bool(bool),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}

impl From<u32> for FieldValue {
    fn from(v: u32) -> Self {
        FieldValue::U64(v as u64)
    }
}

impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}

impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}

/// An interval on a timeline: a kernel execution, a copy, a whole
/// BSP iteration. Grouped by `track` (subsystem) and `lane` (timeline
/// within the subsystem); lanes are chosen so spans on one lane never
/// overlap unless they nest.
#[derive(Clone, Debug)]
pub struct SpanEvent {
    /// Subsystem: `"sim"` (hardware resources), `"engine"` (GAS
    /// phases per shard), `"multi"` (per-GPU BSP lanes).
    pub track: &'static str,
    /// Timeline within the track: a resource name, `"shard 3"`, ...
    pub lane: String,
    /// What happened, e.g. `"gatherMap"` or `"h2d"`.
    pub name: String,
    /// Start in virtual nanoseconds.
    pub start_ns: u64,
    /// Duration in virtual nanoseconds.
    pub dur_ns: u64,
    /// Typed attachments (iteration, shard, bytes, ...).
    pub fields: Vec<(&'static str, FieldValue)>,
}

/// A point on a timeline: an OOM rejection, a BSP barrier release.
#[derive(Clone, Debug)]
pub struct InstantEvent {
    pub track: &'static str,
    pub lane: String,
    pub name: String,
    /// Timestamp in virtual nanoseconds.
    pub at_ns: u64,
    pub fields: Vec<(&'static str, FieldValue)>,
}

/// A dynamic choice made by the engine, recorded with enough context
/// to audit it after the run.
#[derive(Clone, Debug, PartialEq)]
pub enum Decision {
    /// Frontier management skipped a shard: none of the vertices in
    /// its interval were active this iteration.
    ShardSkip {
        iteration: u32,
        shard: u32,
        /// Frontier bits inspected (= vertices in the shard interval).
        interval_bits: u64,
        /// Bits found set (always 0 for a skip; recorded for audit).
        active_bits: u64,
    },
    /// The scheduler fused GAS phases into one launch sequence
    /// instead of materializing intermediates between them.
    PhaseFusion {
        /// Human-readable fusion grouping, e.g.
        /// `"gatherMap+gatherReduce+apply"`.
        phases: &'static str,
        rationale: &'static str,
    },
    /// A phase was eliminated entirely for this program.
    PhaseElimination {
        phase: &'static str,
        rationale: &'static str,
    },
    /// A device op faulted transiently and the engine retried it after
    /// a backoff charged to the device timeline.
    FaultRetry {
        iteration: u32,
        /// Device index (0 for the single-GPU engine).
        device: u32,
        /// Operation that faulted, e.g. `"h2d"` or `"gatherMap"`.
        op: &'static str,
        /// Fault kind, e.g. `"transient.h2d"`.
        fault: &'static str,
        /// 1-based retry attempt number.
        attempt: u32,
        /// Backoff charged before the retry, in virtual nanoseconds.
        backoff_ns: u64,
    },
    /// Retries were exhausted mid-iteration: host shard state was rolled
    /// back to the last checkpoint and the iteration replayed.
    Rollback {
        iteration: u32,
        device: u32,
        /// Operation whose retries were exhausted.
        op: &'static str,
        /// Fault kind that forced the rollback.
        fault: &'static str,
    },
    /// Permanent device loss in a multi-GPU run: the dead device was
    /// evicted and its shards redistributed across the survivors.
    DeviceEvict {
        iteration: u32,
        device: u32,
        /// Shards reassigned away from the dead device.
        shards_moved: u32,
    },
    /// Permanent device loss in a single-GPU run: execution degraded to
    /// the host CPU from the last checkpoint.
    HostFallback {
        iteration: u32,
        device: u32,
        rationale: &'static str,
    },
    /// The memory governor degraded the plan in response to device
    /// memory pressure (shortfall between what the plan needs and what
    /// the device can reserve). Distinct from fault recovery: no fault
    /// was injected, so these never count toward the
    /// decision-per-fault invariant.
    MemoryPressure {
        device: u32,
        /// Bytes the pressured reservation needed.
        requested: u64,
        /// Free bytes at decision time.
        available: u64,
        /// Device capacity after any runtime cap.
        capacity: u64,
        /// Escalation rung taken: `"host-run"`, `"exclude-device"`,
        /// `"stream"`, `"reduce-concurrency"`, `"host-shard"`,
        /// `"redistribute"`.
        response: &'static str,
        /// What the response applies to: `"run"`, `"plan"`, `"shard"`,
        /// or `"device"`.
        scope: &'static str,
    },
    /// Adaptive shard splitting: one shard's buffer set exceeded the
    /// streaming budget, so its vertex interval was split in two at the
    /// edge-mass midpoint. Exactly one decision per split.
    ShardSplit {
        /// Plan-order shard index at the time of the split.
        shard: u32,
        /// Vertices in the interval before the split.
        vertices: u64,
        /// Buffer footprint in bytes before the split.
        bytes: u64,
    },
    /// Chunked edge transfer: a shard too large even after splitting
    /// streams through a bounded staging slot in pieces. Exactly one
    /// decision per chunked shard, at plan time.
    ChunkedXfer {
        shard: u32,
        /// Full buffer footprint of the shard.
        shard_bytes: u64,
        /// Staging slot size each piece is bounded by.
        chunk_bytes: u64,
        /// Upper bound on pieces per full-shard transfer.
        chunks: u32,
    },
    /// Out-of-host-core spill: a shard's topology was evicted to the
    /// shard store because the working set exceeds host memory (or the
    /// governor forced eviction). Exactly one decision per spilled shard.
    ShardSpill {
        shard: u32,
        /// Bytes evicted to the store.
        bytes: u64,
        /// Store kind, e.g. `"file"` or `"mem"`.
        store: &'static str,
    },
    /// First load of a spilled shard back from the store into the
    /// streaming path. Exactly one decision per spilled shard per run.
    ShardLoad {
        iteration: u32,
        shard: u32,
        /// Bytes read back and verified.
        bytes: u64,
        store: &'static str,
    },
    /// A shard's topology was gap-coded under the run's codec: raw
    /// `(neighbor, edge id)` sub-arrays replaced by a bit-packed stream
    /// on the PCIe and spill paths. Exactly one decision per shard, at
    /// plan time.
    CompressShard {
        shard: u32,
        /// What the full raw buffer set would have shipped.
        raw_bytes: u64,
        /// What the compressed buffer set ships instead.
        compressed_bytes: u64,
        /// Codec name, e.g. `"varint"` or `"zeta3"`.
        codec: &'static str,
    },
    /// A just-streamed gap stream was decoded on-device: the compute
    /// half of the compression tradeoff, one decision per topology
    /// stream-in (so resident runs log one per shard per direction).
    DecompressShard {
        iteration: u32,
        shard: u32,
        /// Gap-stream bytes the decode kernel read.
        compressed_bytes: u64,
        /// Decoded entry bytes it produced for the consuming kernels.
        raw_bytes: u64,
    },
    /// A durable checkpoint snapshot was written (atomically) to disk.
    /// Exactly one decision per snapshot file.
    CheckpointWrite {
        /// Completed iterations the snapshot covers.
        iteration: u32,
        /// Snapshot file size in bytes (checksum included).
        bytes: u64,
    },
    /// A run resumed from a durable snapshot instead of starting cold.
    /// Exactly one decision per resumed run.
    CheckpointRestore {
        /// Completed iterations restored; execution replays from here.
        iteration: u32,
        /// Snapshot file size read back.
        bytes: u64,
    },
    /// A storage op (spill read/write, checkpoint write) faulted and was
    /// retried after a host-side backoff. Exactly one decision per
    /// injected storage fault that a retry absorbed.
    StorageRetry {
        iteration: u32,
        /// Operation that faulted: `"spill.read"`, `"spill.write"`,
        /// `"checkpoint.write"`.
        op: &'static str,
        /// Fault kind, e.g. `"io.spill.read"` or `"torn.checkpoint.write"`.
        fault: &'static str,
        /// Shard index for spill ops; 0 for checkpoint writes.
        shard: u32,
        /// 1-based retry attempt number.
        attempt: u32,
        /// Host-side backoff before the retry, in nanoseconds (never
        /// charged to the virtual device timeline).
        backoff_ns: u64,
    },
    /// Storage retries were exhausted and the engine degraded gracefully
    /// instead of failing the run — e.g. a spill read re-streamed the
    /// shard from the source graph, or a spill write kept the shard
    /// resident. Exactly one decision per exhausting fault.
    StorageDegraded {
        iteration: u32,
        /// Operation whose retries were exhausted.
        op: &'static str,
        /// Shard index for spill ops; 0 otherwise.
        shard: u32,
        /// Degradation taken, e.g. `"re-stream from source graph"`.
        rationale: &'static str,
    },
    /// A durable checkpoint write ultimately failed and was skipped; the
    /// run continues, covered by the previous snapshot. Exactly one
    /// decision per exhausting fault.
    CheckpointSkipped {
        /// Iteration boundary whose snapshot was skipped.
        iteration: u32,
        /// Why, e.g. `"io.checkpoint.write"` after retry exhaustion.
        rationale: &'static str,
    },
    /// The serving layer admitted a query into the pending queue.
    /// Exactly one decision per accepted submission — together with
    /// [`Decision::QueryDone`] this is the query's decision-log lane.
    QueryAdmit {
        /// Serving-layer query id (unique per server).
        query: u64,
        /// Query kind, e.g. `"bfs"`, `"sssp"`, `"pagerank"`, `"cc"`.
        kind: &'static str,
        /// Pending-queue depth *after* admission.
        queue_depth: u64,
    },
    /// The admission controller rejected a submission (queue full, or a
    /// source past the last vertex). Exactly one decision per rejected
    /// submission.
    QueryReject {
        kind: &'static str,
        /// Pending-queue depth at rejection time (= the configured cap
        /// when the queue was full).
        queue_depth: u64,
        rationale: &'static str,
    },
    /// The batcher folded pending compatible queries into one execution
    /// (K point-BFS queries → one MS-BFS sweep). Exactly one decision per
    /// executed batch, including singleton batches.
    BatchFormed {
        /// Serving-layer batch id (unique per server).
        batch: u64,
        /// Queries multiplexed into this execution.
        size: u32,
        kind: &'static str,
    },
    /// A query's result was demultiplexed out of its batch and reported.
    /// Exactly one decision per admitted query.
    QueryDone {
        query: u64,
        /// Batch that carried it.
        batch: u64,
        /// Lane within the batch (bit index for MS-BFS; 0 for singletons).
        lane: u32,
        /// Whether the query met its deadline (true when none was set).
        deadline_met: bool,
    },
}

impl Decision {
    /// True for dynamic-frontier shard skips (the per-iteration,
    /// per-shard decisions; fusion/elimination are per-run).
    pub fn is_shard_skip(&self) -> bool {
        matches!(self, Decision::ShardSkip { .. })
    }

    /// True for fault-recovery decisions (retry, rollback, eviction,
    /// host fallback) — one is recorded per injected fault.
    pub fn is_recovery(&self) -> bool {
        matches!(
            self,
            Decision::FaultRetry { .. }
                | Decision::Rollback { .. }
                | Decision::DeviceEvict { .. }
                | Decision::HostFallback { .. }
        )
    }

    /// True for memory-governor decisions (pressure responses, shard
    /// splits, chunked transfers) — one is recorded per degradation.
    pub fn is_memory(&self) -> bool {
        matches!(
            self,
            Decision::MemoryPressure { .. }
                | Decision::ShardSplit { .. }
                | Decision::ChunkedXfer { .. }
        )
    }

    /// True for durability decisions (shard spill/load, checkpoint
    /// write/restore). A separate class from [`Decision::is_memory`] and
    /// [`Decision::is_recovery`] so the one-decision-per-fault and
    /// one-decision-per-degradation audit invariants stay exact when
    /// durability is armed.
    pub fn is_durability(&self) -> bool {
        matches!(
            self,
            Decision::ShardSpill { .. }
                | Decision::ShardLoad { .. }
                | Decision::CheckpointWrite { .. }
                | Decision::CheckpointRestore { .. }
        )
    }

    /// True for storage-fault decisions (retries, graceful degradation,
    /// skipped checkpoints on the spill/checkpoint I/O path). A class of
    /// its own so the device-fault invariant (one recovery decision per
    /// injected device fault) and the durability accounting stay exact
    /// when storage faults are armed: one storage decision is recorded
    /// per injected storage fault.
    pub fn is_storage(&self) -> bool {
        matches!(
            self,
            Decision::StorageRetry { .. }
                | Decision::StorageDegraded { .. }
                | Decision::CheckpointSkipped { .. }
        )
    }

    /// True for shard-compression decisions (plan-time encode accounting
    /// and per-stream-in decode charges). A class of its own so the
    /// durability and governor audit invariants stay exact when
    /// compression is armed.
    pub fn is_compression(&self) -> bool {
        matches!(
            self,
            Decision::CompressShard { .. } | Decision::DecompressShard { .. }
        )
    }

    /// True for serving-layer decisions (admission, rejection, batching,
    /// per-query completion). A class of its own so every engine-level
    /// audit invariant is untouched by the queries multiplexed above it:
    /// serve decisions carry query/batch ids, engine decisions never do.
    pub fn is_serve(&self) -> bool {
        matches!(
            self,
            Decision::QueryAdmit { .. }
                | Decision::QueryReject { .. }
                | Decision::BatchFormed { .. }
                | Decision::QueryDone { .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_value_conversions() {
        assert_eq!(FieldValue::from(3u32), FieldValue::U64(3));
        assert_eq!(FieldValue::from(3usize), FieldValue::U64(3));
        assert_eq!(FieldValue::from("x"), FieldValue::Str("x".into()));
        assert_eq!(FieldValue::from(true), FieldValue::Bool(true));
    }

    #[test]
    fn decision_classification() {
        let skip = Decision::ShardSkip {
            iteration: 1,
            shard: 2,
            interval_bits: 64,
            active_bits: 0,
        };
        assert!(skip.is_shard_skip());
        let fuse = Decision::PhaseFusion {
            phases: "apply+scatter",
            rationale: "r",
        };
        assert!(!fuse.is_shard_skip());
        assert!(!skip.is_recovery());
        assert!(!fuse.is_recovery());
    }

    #[test]
    fn recovery_classification() {
        let retry = Decision::FaultRetry {
            iteration: 3,
            device: 0,
            op: "h2d",
            fault: "transient.h2d",
            attempt: 1,
            backoff_ns: 50_000,
        };
        let rollback = Decision::Rollback {
            iteration: 3,
            device: 0,
            op: "h2d",
            fault: "transient.h2d",
        };
        let evict = Decision::DeviceEvict {
            iteration: 2,
            device: 1,
            shards_moved: 4,
        };
        let fallback = Decision::HostFallback {
            iteration: 2,
            device: 0,
            rationale: "device lost",
        };
        for d in [&retry, &rollback, &evict, &fallback] {
            assert!(d.is_recovery());
            assert!(!d.is_shard_skip());
            assert!(!d.is_memory());
        }
    }

    #[test]
    fn memory_classification() {
        let pressure = Decision::MemoryPressure {
            device: 0,
            requested: 4096,
            available: 1024,
            capacity: 2048,
            response: "reduce-concurrency",
            scope: "plan",
        };
        let split = Decision::ShardSplit {
            shard: 3,
            vertices: 256,
            bytes: 8192,
        };
        let chunked = Decision::ChunkedXfer {
            shard: 3,
            shard_bytes: 8192,
            chunk_bytes: 1024,
            chunks: 8,
        };
        for d in [&pressure, &split, &chunked] {
            assert!(d.is_memory());
            assert!(!d.is_recovery(), "governor decisions are not recovery");
            assert!(!d.is_shard_skip());
            assert!(!d.is_durability());
        }
    }

    #[test]
    fn durability_classification() {
        let spill = Decision::ShardSpill {
            shard: 2,
            bytes: 4096,
            store: "file",
        };
        let load = Decision::ShardLoad {
            iteration: 1,
            shard: 2,
            bytes: 4096,
            store: "file",
        };
        let write = Decision::CheckpointWrite {
            iteration: 3,
            bytes: 65536,
        };
        let restore = Decision::CheckpointRestore {
            iteration: 3,
            bytes: 65536,
        };
        for d in [&spill, &load, &write, &restore] {
            assert!(d.is_durability());
            assert!(!d.is_memory(), "durability is not governor pressure");
            assert!(!d.is_recovery(), "durability is not fault recovery");
            assert!(!d.is_shard_skip());
            assert!(!d.is_compression());
            assert!(!d.is_storage(), "durability is not storage-fault handling");
        }
    }

    #[test]
    fn storage_fault_classification() {
        let retry = Decision::StorageRetry {
            iteration: 2,
            op: "spill.read",
            fault: "io.spill.read",
            shard: 3,
            attempt: 1,
            backoff_ns: 50_000,
        };
        let degraded = Decision::StorageDegraded {
            iteration: 2,
            op: "spill.read",
            shard: 3,
            rationale: "re-stream from source graph",
        };
        let skipped = Decision::CheckpointSkipped {
            iteration: 4,
            rationale: "io.checkpoint.write",
        };
        for d in [&retry, &degraded, &skipped] {
            assert!(d.is_storage());
            assert!(!d.is_durability(), "storage faults are not durability work");
            assert!(!d.is_recovery(), "storage faults are not device recovery");
            assert!(!d.is_memory());
            assert!(!d.is_compression());
            assert!(!d.is_shard_skip());
        }
    }

    #[test]
    fn serve_classification() {
        let admit = Decision::QueryAdmit {
            query: 7,
            kind: "bfs",
            queue_depth: 3,
        };
        let reject = Decision::QueryReject {
            kind: "bfs",
            queue_depth: 64,
            rationale: "queue full",
        };
        let batch = Decision::BatchFormed {
            batch: 2,
            size: 32,
            kind: "bfs",
        };
        let done = Decision::QueryDone {
            query: 7,
            batch: 2,
            lane: 5,
            deadline_met: true,
        };
        for d in [&admit, &reject, &batch, &done] {
            assert!(d.is_serve());
            assert!(!d.is_shard_skip());
            assert!(!d.is_recovery(), "serving is not fault recovery");
            assert!(!d.is_memory());
            assert!(!d.is_durability());
            assert!(!d.is_storage());
            assert!(!d.is_compression());
        }
    }

    #[test]
    fn compression_classification() {
        let compress = Decision::CompressShard {
            shard: 1,
            raw_bytes: 12_000,
            compressed_bytes: 3_000,
            codec: "zeta3",
        };
        let decompress = Decision::DecompressShard {
            iteration: 2,
            shard: 1,
            compressed_bytes: 3_000,
            raw_bytes: 12_000,
        };
        for d in [&compress, &decompress] {
            assert!(d.is_compression());
            assert!(!d.is_memory(), "compression is not governor pressure");
            assert!(!d.is_durability(), "compression is not durability");
            assert!(!d.is_recovery());
            assert!(!d.is_shard_skip());
        }
    }
}
