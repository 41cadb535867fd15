//! Multi-GPU GraphReduce — the paper's first future-work item (Section 8:
//! "extending GraphReduce to support multiple on-node GPUs").
//!
//! Shards are distributed round-robin across `N` virtual devices, each with
//! its own PCIe link, streams, and memory pool; the vertex array and the
//! frontier bitmaps are **replicated** on every device (the paper's static
//! buffers, now per device). Every iteration runs the single-GPU pipeline
//! with each shard's ops on its owner device, a BSP barrier after every
//! stage, and — before the last barrier — the cross-device exchange of
//! the iteration's changed vertex values and activation bits through host
//! memory (D2H from each owner, H2D broadcast to the others; every device
//! has its own link, so transfers overlap across devices but serialize
//! per link). Iteration wall time is the max across devices.
//!
//! [`MultiGraphReduce`] is a facade: it resolves each device's fault plan
//! and memory cap and runs the same [`crate::session::Query`] as the
//! single-GPU engine, on the one device timeline in `exec/driver.rs`. On
//! one device it is op-for-op the single-GPU engine. Its recovery policy
//! forbids host fallback: a lost device is evicted and its shards
//! redistributed over the survivors, losing every device is
//! [`EngineError::DeviceLost`], and a shard no rung of the memory
//! governor can fit (redistribution to a peer with headroom comes first)
//! is [`EngineError::Alloc`].
//!
//! Durable checkpoints extend to this engine: arm them with
//! [`MultiGraphReduce::with_checkpoint_policy`] (`Durable` or
//! `DurableDelta`) and restart a killed run with
//! [`MultiGraphReduce::resume`]. Because results live in one
//! host-resident master state, a multi-GPU snapshot is that state with
//! the device count and shard placement at capture time recorded in the
//! frame header; on resume the placement is informational —
//! it is re-derived for the *current* device set (a node may come back
//! short a GPU) and the governor redistributes, so replay stays
//! bit-identical across device counts. Checkpoint writes happen at BSP
//! barrier boundaries on the host and add no barriers and no device time.
//! The out-of-host-core shard store and compressed shards (see
//! `docs/DURABILITY.md`, `docs/COMPRESSION.md`) remain single-GPU
//! features: this engine runs with default options, so
//! [`crate::Options::spill_dir`] and [`crate::Options::shard_compression`]
//! are off, and the bench CLI rejects the corresponding flags for
//! multi-GPU runs.

use gr_graph::GraphLayout;
use gr_observe::{Observer, WallProfiler};
use gr_sim::{FaultPlan, Platform, SimDuration};

use crate::api::GasProgram;
use crate::exec::device::DeviceSpec;
use crate::options::Options;
use crate::recovery::{EngineError, RecoveryPolicy};
use crate::session::GraphSession;
use crate::snapshot::CheckpointPolicy;

/// Multi-GPU run statistics.
#[derive(Clone, Debug, Default)]
pub struct MultiRunStats {
    /// Devices used.
    pub num_gpus: u32,
    /// Iterations executed.
    pub iterations: u32,
    /// Global wall time (stage-aligned max across devices).
    pub elapsed: SimDuration,
    /// Per-device copy-engine busy time.
    pub per_gpu_memcpy: Vec<SimDuration>,
    /// Per-device kernel busy time.
    pub per_gpu_kernel: Vec<SimDuration>,
    /// Bytes exchanged between devices (through the host) for vertex/
    /// frontier synchronization.
    pub exchange_bytes: u64,
    /// Shard count.
    pub num_shards: usize,
    /// Devices evicted after permanent loss (shards redistributed).
    pub evictions: u32,
    /// Injected device faults, summed over all devices.
    pub faults_injected: u64,
    /// Memory-governor pressure responses across all devices (0 when no
    /// device is capped).
    pub mem_pressure_events: u64,
    /// Shards the governor moved off a pressured device onto one with
    /// headroom (the rung *before* splitting).
    pub redistributions: u64,
    /// Adaptive shard splits after redistribution ran out of headroom.
    pub shard_splits: u64,
    /// Durable snapshots written (0 unless a durable policy is armed via
    /// [`MultiGraphReduce::with_checkpoint_policy`]).
    pub checkpoint_writes: u64,
    /// Total on-disk bytes of durable snapshots written.
    pub checkpoint_bytes_written: u64,
    /// On-disk bytes of *full* snapshots (all of
    /// [`MultiRunStats::checkpoint_bytes_written`] unless delta mode is on).
    pub checkpoint_full_bytes: u64,
    /// Delta snapshots written (0 unless
    /// [`CheckpointPolicy::DurableDelta`](crate::CheckpointPolicy) is armed).
    pub checkpoint_delta_writes: u64,
    /// On-disk bytes of delta snapshots.
    pub checkpoint_delta_bytes: u64,
    /// Durable snapshot restores (1 on a resumed run, else 0).
    pub checkpoint_restores: u64,
    /// Checkpoint writes skipped after storage-retry exhaustion (the run
    /// continues, covered by the previous snapshot).
    pub checkpoints_skipped: u64,
    /// Storage-op retries after injected I/O faults on the checkpoint
    /// path (0 without I/O faults).
    pub storage_retries: u64,
    /// Order-independent FNV-1a hash of the final vertex values, for
    /// cheap bit-identity comparison across kill-restart runs and device
    /// counts. `None` unless durability was armed or the run resumed.
    pub state_fingerprint: Option<u64>,
    /// Per-iteration trace.
    pub per_iteration: Vec<crate::stats::IterationStats>,
}

impl std::fmt::Display for MultiRunStats {
    /// Human-readable multi-GPU run report (used by the `run` CLI). The
    /// headline and governor lines are exactly what the CLI always
    /// printed; durability and storage-fault lines are conditional so
    /// non-durable runs stay byte-identical.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "graphreduce x{} GPUs: {} iterations in {} ({:.1} MB exchanged)",
            self.num_gpus,
            self.iterations,
            self.elapsed,
            self.exchange_bytes as f64 / 1e6
        )?;
        if self.mem_pressure_events + self.redistributions + self.shard_splits > 0 {
            write!(
                f,
                "\n  governor: {} pressure events, {} redistributions, {} shard splits",
                self.mem_pressure_events, self.redistributions, self.shard_splits
            )?;
        }
        if self.checkpoint_writes > 0
            || self.checkpoint_restores > 0
            || self.checkpoints_skipped > 0
        {
            write!(
                f,
                "\n  durability: {} snapshots ({:.2} MB) written, {} restored",
                self.checkpoint_writes,
                self.checkpoint_bytes_written as f64 / 1e6,
                self.checkpoint_restores
            )?;
            crate::stats::durability_tail(
                f,
                self.checkpoint_full_bytes,
                self.checkpoint_delta_writes,
                self.checkpoint_delta_bytes,
                self.state_fingerprint,
            )?;
        }
        if self.storage_retries > 0 || self.checkpoints_skipped > 0 {
            write!(
                f,
                "\n  storage faults: {} retries | {} checkpoints skipped",
                self.storage_retries, self.checkpoints_skipped
            )?;
        }
        Ok(())
    }
}

/// Result of a multi-GPU run.
pub struct MultiRunResult<P: GasProgram> {
    pub vertex_values: Vec<P::VertexValue>,
    pub edge_values: Vec<P::EdgeValue>,
    pub stats: MultiRunStats,
}

/// Multi-GPU engine: `num_gpus` identical devices from `platform`.
pub struct MultiGraphReduce<'g, P: GasProgram> {
    program: P,
    session: GraphSession<'g>,
    devices: Vec<DeviceSpec>,
    observer: Observer,
    wall: WallProfiler,
    checkpoint_policy: CheckpointPolicy,
}

impl<'g, P: GasProgram> MultiGraphReduce<'g, P> {
    pub fn new(program: P, layout: &'g GraphLayout, platform: Platform, num_gpus: u32) -> Self {
        // The same build-once session the single-GPU engine uses: the
        // layout borrow, the platform, and the partition-plan cache are
        // graph-lifetime; everything below (fault plans, caps, checkpoint
        // policy) is query-lifetime.
        let opts = Options {
            recovery: RecoveryPolicy {
                host_fallback: false,
                ..RecoveryPolicy::default()
            },
            ..Options::default()
        };
        let devices = (0..num_gpus.max(1))
            .map(|d| DeviceSpec {
                fault_plan: FaultPlan::none(),
                mem_cap: None,
                lane: Some(format!("gpu{d}/")),
            })
            .collect();
        MultiGraphReduce {
            program,
            session: GraphSession::new(layout, platform, opts),
            devices,
            observer: Observer::disabled(),
            wall: WallProfiler::disarmed(),
            checkpoint_policy: CheckpointPolicy::default(),
        }
    }

    /// Attach an observer. Device events are tagged per lane (`gpu0/h2d`,
    /// `gpu1/kernel`, …); with more than one device, BSP barriers and
    /// iteration windows are emitted on the `"multi"` track.
    pub fn with_observer(mut self, observer: Observer) -> Self {
        self.observer = observer;
        self
    }

    /// Attach a wall-clock profiler (armed or disarmed). Armed, it
    /// attributes the host-side GAS computation's real milliseconds per
    /// (iteration, shard, phase, kernel shape) exactly as the single-GPU
    /// engine does; read it back with
    /// [`WallProfiler::profile`](gr_observe::WallProfiler::profile).
    pub fn with_wall_profiler(mut self, wall: WallProfiler) -> Self {
        self.wall = wall;
        self
    }

    /// Arm a deterministic fault plan on one device (chaos testing),
    /// replacing any earlier one. Plans for out-of-range device indices
    /// are ignored.
    pub fn with_fault_plan(mut self, device: usize, plan: FaultPlan) -> Self {
        if let Some(d) = self.devices.get_mut(device) {
            d.fault_plan = plan;
        }
        self
    }

    /// Arm durable checkpoints ([`CheckpointPolicy::Durable`] or
    /// [`CheckpointPolicy::DurableDelta`]): one versioned, checksummed
    /// snapshot of the master state — recording the device count and
    /// shard placement in its header when there is more than one device —
    /// is written atomically at iteration boundary 0, every `every`
    /// completed iterations, and at convergence. Restart a killed run with
    /// [`MultiGraphReduce::resume`]. `InMemoryOnly` writes nothing; fault
    /// recovery needs no snapshot, because a replay re-emits only device
    /// timelines over the always-intact host state.
    pub fn with_checkpoint_policy(mut self, policy: CheckpointPolicy) -> Self {
        self.checkpoint_policy = policy;
        self
    }

    /// Cap one device's usable memory below its nominal capacity. The
    /// memory governor then relieves per-GPU pressure at plan time:
    /// shards are redistributed onto devices with headroom first, and
    /// only then do the single-GPU rungs (concurrency, splitting,
    /// chunking) apply to the shards each device owns. A later cap on
    /// the same device replaces an earlier one; caps for out-of-range
    /// device indices are ignored.
    pub fn with_mem_cap(mut self, device: usize, bytes: u64) -> Self {
        if let Some(d) = self.devices.get_mut(device) {
            d.mem_cap = Some(bytes);
        }
        self
    }

    /// Execute to convergence.
    pub fn run(&self) -> Result<MultiRunResult<P>, EngineError> {
        self.run_on(None)
    }

    /// Resume a previously killed (or completed) run from the newest
    /// intact snapshot in `dir`, then execute to convergence.
    ///
    /// Accepts every snapshot the single-GPU engine accepts (full, delta
    /// chain, compressed), with or without a recorded placement map. A
    /// recorded placement map is honored only when it fits the current
    /// device set exactly (same width, same shard count); otherwise
    /// ownership is re-derived for the *current* devices, so a run
    /// checkpointed on N GPUs can resume on fewer — the governor
    /// redistributes exactly as it does at plan time. Vertex state,
    /// per-iteration stats and the final fingerprint stay bit-identical to
    /// an uninterrupted run on the resumed device count.
    pub fn resume(
        &self,
        dir: impl AsRef<std::path::Path>,
    ) -> Result<MultiRunResult<P>, EngineError> {
        self.run_on(Some(dir.as_ref()))
    }

    fn run_on(
        &self,
        resume_from: Option<&std::path::Path>,
    ) -> Result<MultiRunResult<P>, EngineError> {
        let (result, report) = self
            .session
            .query(&self.program)
            .with_observer(self.observer.clone())
            .with_wall_profiler(self.wall.clone())
            .with_checkpoint_policy(self.checkpoint_policy.clone())
            .on_devices(self.devices.clone())
            .run_on(resume_from)?;
        let s = result.stats;
        let stats = MultiRunStats {
            num_gpus: self.devices.len() as u32,
            iterations: s.iterations,
            elapsed: s.elapsed,
            per_gpu_memcpy: report.memcpy,
            per_gpu_kernel: report.kernel,
            exchange_bytes: report.exchange_bytes,
            num_shards: s.num_shards,
            evictions: report.evictions,
            faults_injected: s.faults_injected,
            mem_pressure_events: s.mem_pressure_events,
            redistributions: report.redistributions,
            shard_splits: s.shard_splits,
            checkpoint_writes: s.checkpoint_writes,
            checkpoint_bytes_written: s.checkpoint_bytes_written,
            checkpoint_full_bytes: s.checkpoint_full_bytes,
            checkpoint_delta_writes: s.checkpoint_delta_writes,
            checkpoint_delta_bytes: s.checkpoint_delta_bytes,
            checkpoint_restores: s.checkpoint_restores,
            checkpoints_skipped: s.checkpoints_skipped,
            storage_retries: s.storage_retries,
            state_fingerprint: s.state_fingerprint,
            per_iteration: s.per_iteration,
        };
        Ok(MultiRunResult {
            vertex_values: result.vertex_values,
            edge_values: result.edge_values,
            stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::GraphReduce;
    use crate::sizes::{PartitionPlan, SizeModel};
    use crate::testprog::Cc;
    use gr_graph::gen;

    fn layout() -> GraphLayout {
        GraphLayout::build(&gen::rmat_g500(11, 30_000, 17).symmetrize())
    }

    fn plat() -> Platform {
        Platform::paper_node_scaled(1 << 14)
    }

    /// CC on `n` devices of the out-of-core platform.
    fn cc(l: &GraphLayout, n: u32) -> MultiGraphReduce<'_, Cc> {
        MultiGraphReduce::new(Cc, l, plat(), n)
    }

    #[test]
    fn multi_gpu_matches_single_device_results() {
        let l = layout();
        let single = GraphReduce::new(Cc, &l, plat(), Options::optimized())
            .run()
            .unwrap();
        for n in [1u32, 2, 4] {
            let multi = cc(&l, n).run().unwrap();
            assert_eq!(multi.vertex_values, single.vertex_values, "{n} GPUs");
            assert_eq!(multi.stats.num_gpus, n);
            assert_eq!(multi.stats.per_gpu_memcpy.len(), n as usize);
        }
    }

    #[test]
    fn more_gpus_reduce_wall_time_on_streaming_runs() {
        let l = layout();
        let plat = Platform::paper_node_scaled(1 << 14); // heavy sharding
        let one = MultiGraphReduce::new(Cc, &l, plat.clone(), 1)
            .run()
            .unwrap();
        let four = MultiGraphReduce::new(Cc, &l, plat, 4).run().unwrap();
        assert!(
            four.stats.elapsed < one.stats.elapsed,
            "4 GPUs {:?} vs 1 GPU {:?}",
            four.stats.elapsed,
            one.stats.elapsed
        );
        assert!(four.stats.exchange_bytes > 0, "exchange traffic expected");
        assert_eq!(
            one.stats.exchange_bytes, 0,
            "single device exchanges nothing"
        );
    }

    #[test]
    fn scaling_is_sublinear_because_of_exchange() {
        let l = layout();
        let plat = Platform::paper_node_scaled(1 << 14);
        let one = MultiGraphReduce::new(Cc, &l, plat.clone(), 1)
            .run()
            .unwrap();
        let eight = MultiGraphReduce::new(Cc, &l, plat, 8).run().unwrap();
        let speedup = one.stats.elapsed.as_secs_f64() / eight.stats.elapsed.as_secs_f64();
        assert!(speedup > 1.0 && speedup < 8.0, "speedup {speedup:.2}");
    }

    #[test]
    fn observer_tags_devices_and_marks_barriers() {
        let l = layout();
        let (obs, sink) = Observer::recording();
        let res = cc(&l, 2).with_observer(obs).run().unwrap();
        let rec = sink.recorded();
        // Every device's sim lanes carry its tag.
        for tag in ["gpu0/", "gpu1/"] {
            let tagged = |s: &&gr_observe::SpanEvent| s.track == "sim" && s.lane.starts_with(tag);
            assert!(rec.spans.iter().any(|s| tagged(&s)), "{tag}");
        }
        // BSP barriers and iteration windows land on the multi track.
        let barriers = rec
            .instants
            .iter()
            .filter(|i| i.track == "multi" && i.lane == "barriers")
            .count();
        // init + final + (gather, apply, exchange) per iteration.
        assert_eq!(barriers as u32, 2 + 3 * res.stats.iterations);
        let iters = rec
            .spans
            .iter()
            .filter(|s| s.track == "multi" && s.lane == "iterations")
            .count() as u32;
        assert_eq!(iters, res.stats.iterations);
        // One end-of-run metrics snapshot per device.
        assert_eq!(
            rec.snapshots
                .iter()
                .filter(|(scope, _)| scope.starts_with("gpu"))
                .count(),
            2
        );
    }

    /// Plan the same partition the multi runner uses so tests can derive
    /// caps relative to the real static/shard footprints.
    fn reference_plan(l: &GraphLayout) -> PartitionPlan {
        let (sizes, plat) = (SizeModel::for_program(&Cc), plat());
        crate::sizes::plan_partition(l, &sizes, &plat.device, &plat.pcie, 2, None).unwrap()
    }

    #[test]
    fn uncapped_multi_run_makes_no_governor_decisions() {
        let l = layout();
        let (obs, sink) = Observer::recording();
        let res = cc(&l, 2).with_observer(obs).run().unwrap();
        assert_eq!(res.stats.mem_pressure_events, 0);
        assert_eq!(res.stats.redistributions, 0);
        assert_eq!(res.stats.shard_splits, 0);
        assert_eq!(sink.recorded().memory_decisions(), 0);
    }

    #[test]
    fn capped_device_redistributes_before_splitting() {
        let l = layout();
        let plan = reference_plan(&l);
        let baseline = cc(&l, 2).run().unwrap();
        // Device 0 can hold its static buffers but not a single shard
        // slot: everything it owned must move to device 1, which has
        // full headroom. No splits are needed.
        let (obs, sink) = Observer::recording();
        let capped = cc(&l, 2)
            .with_mem_cap(0, plan.static_bytes + 1)
            .with_observer(obs)
            .run()
            .unwrap();
        assert_eq!(capped.vertex_values, baseline.vertex_values);
        assert!(capped.stats.redistributions > 0);
        assert_eq!(
            capped.stats.mem_pressure_events,
            capped.stats.redistributions
        );
        assert_eq!(capped.stats.shard_splits, 0);
        assert_eq!(
            sink.recorded().memory_decisions() as u64,
            capped.stats.redistributions
        );
    }

    #[test]
    fn capped_device_splits_when_no_peer_has_headroom() {
        let l = layout();
        let plan = reference_plan(&l);
        let baseline = cc(&l, 1).run().unwrap();
        // A single device just below one slot of the largest shard has
        // nowhere to redistribute, and even one shard in flight does not
        // fit: concurrency drops to 1, then the largest shard must split.
        let cap = plan.static_bytes + plan.max_shard_bytes - 1;
        let capped = cc(&l, 1).with_mem_cap(0, cap).run().unwrap();
        assert_eq!(capped.vertex_values, baseline.vertex_values);
        assert!(capped.stats.shard_splits > 0);
        assert_eq!(capped.stats.redistributions, 0);
    }

    #[test]
    fn cap_below_static_footprint_is_a_clean_alloc_error() {
        let l = layout();
        let plan = reference_plan(&l);
        let res = cc(&l, 2).with_mem_cap(1, plan.static_bytes - 1).run();
        match res {
            Err(EngineError::Alloc(_)) => {}
            Err(other) => panic!("expected Alloc, got {other:?}"),
            Ok(_) => panic!("expected Alloc error, run succeeded"),
        }
    }

    #[test]
    fn iteration_counts_match_single_device() {
        let l = layout();
        let single = GraphReduce::new(Cc, &l, plat(), Options::optimized())
            .run()
            .unwrap();
        let multi = cc(&l, 3).run().unwrap();
        assert_eq!(multi.stats.iterations, single.stats.iterations);
        let m: Vec<u64> = multi
            .stats
            .per_iteration
            .iter()
            .map(|i| i.frontier_size)
            .collect();
        assert_eq!(single.stats.frontier_sizes(), m);
    }
}
