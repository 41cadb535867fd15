//! The device timeline: shard placement over one or more devices,
//! frontier skip, residency caching, spill reads, governor host shards,
//! eviction and host fallback, and the fused or unfused emission of each
//! iteration.
//!
//! `Runner` wires the exec layers together — [`super::plan`] derives the
//! governed [`ExecPlan`](super::plan::ExecPlan), [`super::movement`] moves
//! shard buffers, [`super::compute`] prices the kernels, and every device
//! op goes through a [`super::device::DeviceCtx`]. Shard `i`'s ops go to
//! `ctxs[owners[i]]`. On one device that is the paper's single-GPU
//! pipeline (Figures 8-12), which backs every paper table; with more than
//! one live device each stage ends in a BSP barrier and each iteration in
//! the cross-device exchange (Section 8's multi-GPU future work). It runs
//! through the BSP loop in [`super::bsp`]: the host computes each
//! iteration once, and a fault replays only what `Runner` emits.

use gr_graph::{Bitmap, GraphLayout, Shard, TopoView};
use std::sync::Arc;

use gr_observe::metrics::MetricTable;
use gr_observe::{Decision, InstantEvent, MetricsRegistry, Observer, WallProfiler};
use gr_sim::{
    cpu_time, DeviceFault, FaultPlan, HostConfig, KernelSpec, Platform, SimDuration, StreamId,
};

use crate::api::GasProgram;
use crate::engine::RunResult;
use crate::frame::Placement;
use crate::options::{DeviceSpec, Options};
use crate::phases::ShardWork;
use crate::recovery::EngineError;
use crate::session::WarmStart;
use crate::sizes::{PartitionPlan, SizeModel};
use crate::snapshot::{self, CheckpointPolicy};
use crate::snapshot_delta::RestoredFromDisk;
use crate::stats::RunStats;
use crate::storage::StorageCtx;
use crate::store::{shard_payload, FileShardStore, ShardStore};

use super::compress::{ShardCompression, RAW_TOPO_ENTRY_BYTES};
use super::compute::{host_work, ComputeSpecs};
use super::device::{Abort, DeviceCtx};
use super::movement::{in_bufs_for, out_bufs_for, Buf, BufSet, Movement};
use super::plan;
use super::EngineMetric;

/// The device timeline: one [`DeviceCtx`] per device, one [`Movement`]
/// policy, one [`ComputeSpecs`] table.
pub(crate) struct Runner<'a, P: GasProgram> {
    pub(super) program: &'a P,
    pub(super) layout: &'a GraphLayout,
    pub(super) opts: &'a Options,
    sizes: SizeModel,
    plan: PartitionPlan,
    // Devices, the owner of each shard, and which devices are still up.
    // Run-level engine counters go to `ctxs[0]`'s registry; the run's
    // totals sum every device's.
    ctxs: Vec<DeviceCtx>,
    owners: Vec<usize>,
    alive: Vec<bool>,
    // Which devices hold the replicated vertex array: only devices that
    // own shards receive it, at init or before their first op after an
    // eviction handed them shards.
    replica: Vec<bool>,
    // The stage-aligned clock: each barrier adds the slowest device's
    // stage. On one device it is that device's clock.
    global: SimDuration,
    // Iteration boundary at which a process-kill fault ends the run.
    pub(super) kill_at: Option<u32>,
    movement: Movement,
    specs: ComputeSpecs,
    // Residency caching (in-GPU-memory mode).
    resident: bool,
    in_cached: Vec<bool>,
    out_cached: Vec<bool>,
    // Fault recovery: the degraded host-CPU mode entered after the last
    // device is lost.
    host_cfg: HostConfig,
    host_mode: bool,
    host_time: SimDuration,
    // Memory governor outcome: shards degraded to host execution.
    host_shards: Vec<bool>,
    // Fault-hardened storage plane: every spill/checkpoint I/O goes
    // through it so injected I/O faults retry and degrade gracefully.
    storage: StorageCtx,
    // Shard compression: the gap-coded topology (if armed) the host
    // kernels decode through and the movement layer ships — built once per
    // session and shared by every query over it.
    comp: Option<Arc<ShardCompression>>,
    // Out-of-host-core spill, present only when some shard was evicted:
    // the store, and which spilled shards are not yet read back.
    spill: Option<(FileShardStore, Vec<bool>)>,
    pub(super) observer: Observer,
    // Real wall-clock attribution (disarmed by default — one branch per
    // scope; see `gr_observe::profiler`).
    pub(super) wall: WallProfiler,
}

impl<'a, P: GasProgram> Runner<'a, P> {
    /// Bring up the devices `opts.devices` lists (one when it is empty;
    /// with more than one, each device's lanes are `lane` followed by
    /// `gpu{d}/`), place the shards (a `recorded` placement that fits this
    /// device set exactly is kept, else round-robin), and govern the plan
    /// against every device's capacity.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        program: &'a P,
        layout: &'a GraphLayout,
        platform: &Platform,
        opts: &'a Options,
        sizes: SizeModel,
        plan: PartitionPlan,
        observer: Observer,
        wall: WallProfiler,
        comp: Option<Arc<ShardCompression>>,
        lane: Option<String>,
        recorded: Option<&Placement>,
    ) -> Result<Self, EngineError> {
        let one = [DeviceSpec::default()];
        let devices = match &opts.devices[..] {
            [] => &one[..],
            d => d,
        };
        let ndev = devices.len();
        // Process-kill faults are device-agnostic (the whole process
        // dies): the earliest armed boundary wins. I/O faults target the
        // shared host storage: the first plan carrying any drives it.
        let kill_at = devices.iter().filter_map(|d| d.fault_plan.kill_at()).min();
        let io_plan = devices
            .iter()
            .map(|d| &d.fault_plan)
            .find(|p| p.has_io_faults())
            .cloned()
            .unwrap_or_else(FaultPlan::none);
        let capped = devices.iter().any(|d| d.mem_cap.is_some());
        let mut ctxs: Vec<DeviceCtx> = devices
            .iter()
            .enumerate()
            .map(|(d, spec)| {
                let lane = match ndev {
                    1 => lane.clone(),
                    _ => Some(format!("{}gpu{d}/", lane.as_deref().unwrap_or(""))),
                };
                let (obs, recovery) = (observer.clone(), opts.recovery.clone());
                DeviceCtx::new(platform, d, spec.clone(), lane, obs, recovery)
            })
            .collect();
        let owners = match recorded {
            Some(p)
                if p.num_gpus as usize == ndev
                    && p.owners.len() == plan.shards.len()
                    && p.owners.iter().all(|&o| (o as usize) < ndev) =>
            {
                p.owners.iter().map(|&o| o as usize).collect()
            }
            _ => (0..plan.shards.len()).map(|i| i % ndev).collect(),
        };
        // Plan optimistically, govern at runtime: the partition plan was
        // sized for the nominal device; a memory cap shrinks a pool and
        // the governor degrades the plan until it fits (or errors).
        let capacities: Vec<u64> = ctxs.iter().map(DeviceCtx::mem_capacity).collect();
        let governed = plan::build_exec_plan(
            plan,
            owners,
            &capacities,
            capped,
            &sizes,
            layout,
            opts,
            comp.as_deref(),
            &mut ctxs[0].metrics,
            &observer,
        )?;
        let plan = governed.partition;
        let k = plan.concurrent as usize;
        // A device capped below the static buffers owns no shard (the
        // governor placed them elsewhere) and never takes one.
        let alive: Vec<bool> = capacities.iter().map(|&c| c >= plan.static_bytes).collect();
        if let Some(c) = &comp {
            let force = !opts.phase_fusion;
            c.account(&sizes, &plan.shards, force, &mut ctxs[0].metrics, &observer);
        }

        // Device allocations: static buffers, then either every owned
        // shard (resident mode) or K reusable streaming slots sized to the
        // device's governed budget. Streams come first: allocation-retry
        // backoff stalls are charged on a stream. The governed plan
        // guarantees these fit, but injected allocation pressure — or a
        // plan invalidated by a shrunken device — surfaces as an
        // [`EngineError`] instead of a panic. Whole-run host mode
        // allocates nothing.
        let resident = !governed.host_run && opts.cache_resident && plan.all_resident;
        for (d, ctx) in ctxs.iter_mut().enumerate() {
            ctx.create_main_streams(k);
            if opts.spray {
                ctx.create_spray_streams(opts.spray_width.max(1) as usize * k);
            }
            ctx.slot_bytes = governed.slot_bytes[d].max(1);
            if governed.host_run || !alive[d] {
                continue;
            }
            let s0 = ctx.main_streams[0];
            ctx.static_alloc = Some(ctx.alloc_retry(s0, plan.static_bytes)?);
            let owned: Vec<&Shard> = plan
                .shards
                .iter()
                .zip(&governed.owners)
                .filter(|&(_, &o)| o == d)
                .map(|(s, _)| s)
                .collect();
            ctx.shard_allocs = if resident {
                owned
                    .iter()
                    .map(|s| match &comp {
                        Some(c) => ctx.alloc_retry(s0, c.shard_bytes(&sizes, s)),
                        None => ctx.alloc_retry(s0, sizes.shard_bytes(s)),
                    })
                    .collect::<Result<_, _>>()?
            } else if owned.is_empty() {
                Vec::new()
            } else {
                (0..k)
                    .map(|_| ctx.alloc_retry(s0, governed.slot_bytes[d]))
                    .collect::<Result<_, _>>()?
            };
        }

        // Fault-hardened storage plane: spill and checkpoint I/O below
        // retries injected faults with logged backoff and degrades
        // gracefully after exhaustion instead of failing the run.
        let mut storage = StorageCtx::new(&io_plan, opts.recovery.clone(), observer.clone());

        // Out-of-host-core: if the full graph footprint exceeds host DRAM,
        // every shard fetch pays a storage read first (Section 8, future
        // work (2)). With a shard store configured the blanket stall is
        // replaced by precise per-shard spill charges below.
        let n = layout.num_vertices();
        let host_footprint = gr_graph::in_memory_bytes(n as u64, layout.num_edges());
        let over_host_ram = host_footprint > platform.host.mem_capacity;
        let store = opts
            .spill_dir
            .as_ref()
            .map(|dir| FileShardStore::with_codec(dir.clone(), opts.shard_compression));
        let storage_read_secs_per_byte = (over_host_ram && store.is_none())
            .then(|| 1.0 / (platform.storage.bandwidth_gbps * 1e9));

        // Spill rung: evict shards to the store. The governor already
        // marked unstageable shards; a graph beyond host DRAM evicts every
        // streamed shard (GraphChi-style out-of-host-core). Each eviction
        // writes the shard's topology payload and logs one ShardSpill.
        let mut spilled = governed.spilled;
        if let Some(h) = &store {
            if !governed.host_run && over_host_ram {
                for (s, &host) in spilled.iter_mut().zip(&governed.host_shards) {
                    *s |= !host;
                }
            }
            for (i, flag) in spilled.iter_mut().enumerate().filter(|(_, f)| **f) {
                // `put` reports the bytes that actually hit the store —
                // smaller than the payload when the store compresses. A
                // put whose retries are exhausted by injected I/O faults
                // leaves the shard host-resident instead of failing.
                let payload = shard_payload(layout, &plan.shards[i]);
                let metrics = &mut ctxs[0].metrics;
                match storage.spill_put(metrics, h, i as u32, &payload, 0)? {
                    Some(bytes) => {
                        metrics.inc(EngineMetric::SpilledShards, 1);
                        metrics.inc(EngineMetric::SpilledBytes, bytes);
                        let store_name = h.name();
                        observer.decision(|| Decision::ShardSpill {
                            shard: i as u32,
                            bytes,
                            store: store_name,
                        });
                    }
                    None => *flag = false,
                }
            }
        }
        let mut movement = Movement::new(
            opts,
            governed.chunked,
            storage_read_secs_per_byte,
            platform.storage.latency,
        );
        let spill = match store {
            Some(store) if spilled.iter().any(|&s| s) => {
                movement.set_spilled(
                    spilled.clone(),
                    1.0 / (platform.storage.bandwidth_gbps * 1e9),
                );
                Some((store, spilled))
            }
            _ => None,
        };

        let specs = ComputeSpecs::new(sizes, opts, layout, &plan.shards, &wall);
        let num_shards = plan.shards.len();
        Ok(Runner {
            program,
            layout,
            opts,
            sizes,
            plan,
            alive,
            replica: vec![false; ndev],
            ctxs,
            owners: governed.owners,
            global: SimDuration::ZERO,
            kill_at,
            movement,
            specs,
            resident,
            in_cached: vec![false; num_shards],
            out_cached: vec![false; num_shards],
            host_cfg: platform.host.clone(),
            host_mode: governed.host_run,
            host_time: SimDuration::ZERO,
            host_shards: governed.host_shards,
            storage,
            comp,
            spill,
            observer,
            wall,
        })
    }

    /// Run to convergence through the shared BSP loop and assemble the
    /// run's statistics.
    pub(crate) fn run(
        mut self,
        warm: Option<WarmStart<P>>,
        restored: Option<RestoredFromDisk<P>>,
    ) -> Result<RunResult<P>, EngineError> {
        // The state fingerprint is reported whenever durability, a resume
        // or the spill store is armed.
        let fingerprinted = restored.is_some()
            || self.spill.is_some()
            || !matches!(self.opts.checkpoint_policy, CheckpointPolicy::InMemoryOnly);
        let (host, iterations) = self.bsp(warm, restored)?;
        let ctxs = &self.ctxs;
        for (d, ctx) in ctxs.iter().enumerate() {
            let scope = match ctxs.len() {
                1 => "run".to_string(),
                _ => format!("gpu{d}"),
            };
            self.observer
                .snapshot(&scope, || ctx.gpu_metrics().snapshot());
        }
        // The engine registries of every device, summed: run-level
        // counters and the per-iteration histograms land in device 0's,
        // retries and movement counters in each shard owner's. No engine
        // series is labeled, so sorting by name keeps the registry order.
        let mut engine = ctxs[0].metrics.snapshot();
        for ctx in &ctxs[1..] {
            for (name, v) in ctx.metrics.snapshot().counters {
                match engine.counters.iter_mut().find(|(n, _)| *n == name) {
                    Some((_, total)) => *total += v,
                    None => engine.counters.push((name, v)),
                }
            }
        }
        engine.counters.sort_unstable();
        self.observer.snapshot("engine", || engine.clone());
        // Every transfer/time/skip field below reads the device registries
        // and that sum — RunStats holds no counters of its own.
        let gstats: Vec<_> = ctxs.iter().map(DeviceCtx::stats).collect();
        let total = |f: fn(&gr_sim::GpuStats) -> u64| gstats.iter().map(f).sum::<u64>();
        let per_gpu_memcpy: Vec<SimDuration> = gstats.iter().map(|g| g.memcpy_busy).collect();
        let per_gpu_kernel: Vec<SimDuration> = gstats.iter().map(|g| g.kernel_busy).collect();
        let counter = |m: EngineMetric| engine.counter(m.name());
        let stats = RunStats {
            algorithm: self.program.name(),
            iterations,
            elapsed: self.global + self.host_time,
            memcpy_time: per_gpu_memcpy.iter().copied().sum(),
            kernel_time: per_gpu_kernel.iter().copied().sum(),
            bytes_h2d: total(|g| g.bytes_h2d),
            bytes_d2h: total(|g| g.bytes_d2h),
            copy_ops: total(|g| g.copy_ops),
            kernel_launches: total(|g| g.kernel_launches),
            skipped_shard_copies: counter(EngineMetric::SkippedShardCopies),
            skipped_kernel_launches: counter(EngineMetric::SkippedKernelLaunches),
            num_shards: self.plan.shards.len(),
            concurrent_shards: self.plan.concurrent,
            all_resident: self.resident,
            faults_injected: ctxs.iter().map(DeviceCtx::faults_injected).sum(),
            recovered_retries: counter(EngineMetric::FaultRetries),
            rollbacks: counter(EngineMetric::Rollbacks),
            host_fallback: self.host_mode,
            mem_pressure_events: counter(EngineMetric::MemPressure),
            shard_splits: counter(EngineMetric::ShardSplits),
            chunked_shards: counter(EngineMetric::ChunkedShards),
            chunked_copies: counter(EngineMetric::ChunkedCopies),
            host_shards: counter(EngineMetric::HostShards),
            mem_peak: ctxs.iter().map(DeviceCtx::mem_peak).max().unwrap_or(0),
            mem_min_headroom: ctxs.iter().map(|c| c.mem_min_headroom()).min().unwrap_or(0),
            checkpoint_writes: counter(EngineMetric::CheckpointWrites),
            checkpoint_bytes_written: counter(EngineMetric::CheckpointBytes),
            checkpoint_full_bytes: counter(EngineMetric::CheckpointFullBytes),
            checkpoint_delta_writes: counter(EngineMetric::CheckpointDeltaWrites),
            checkpoint_delta_bytes: counter(EngineMetric::CheckpointDeltaBytes),
            checkpoint_raw_bytes: counter(EngineMetric::CheckpointRawBytes),
            checkpoint_restores: counter(EngineMetric::CheckpointRestores),
            checkpoints_skipped: counter(EngineMetric::CheckpointsSkipped),
            storage_retries: counter(EngineMetric::StorageRetries),
            spill_restreams: counter(EngineMetric::SpillRestreams),
            spilled_shards: counter(EngineMetric::SpilledShards),
            spilled_bytes: counter(EngineMetric::SpilledBytes),
            spill_loads: counter(EngineMetric::SpillLoads),
            spill_load_bytes: counter(EngineMetric::SpillLoadBytes),
            compression_codec: self.comp.as_ref().map(|c| c.codec().name()),
            compressed_bytes: counter(EngineMetric::CompressedBytes),
            compressed_raw_bytes: counter(EngineMetric::CompressedRawBytes),
            decompress_launches: counter(EngineMetric::DecompressLaunches),
            state_fingerprint: fingerprinted
                .then(|| snapshot::values_fingerprint(&host.vertex_values)),
            wall: self.wall.is_armed().then(|| self.wall.profile().summary()),
            per_gpu_memcpy,
            per_gpu_kernel,
            exchange_bytes: counter(EngineMetric::ExchangeBytes),
            evictions: counter(EngineMetric::Evictions),
            redistributions: counter(EngineMetric::Redistributions),
            per_iteration: host.iterations,
        };
        Ok(RunResult {
            vertex_values: host.vertex_values,
            edge_values: host.edge_values,
            stats,
            work: host.work,
        })
    }

    /// Charge `work` on the host CPU with the roofline model the CPU
    /// baseline engines use: every shard after the last device is lost
    /// (`all_shards`), else only the governor-degraded shards, and those
    /// only when they did something. Called once per completed iteration,
    /// so a replay re-charges the device work it redoes, never the host's.
    /// Results are unaffected: the host computes every shard regardless.
    fn charge_host(&mut self, label: &'static str, work: &[ShardWork], all_shards: bool) {
        let (mut edges, mut vertices) = (0u64, 0u64);
        for (i, w) in work.iter().enumerate() {
            if all_shards || self.host_shards[i] {
                edges += w.active_in_edges + w.out_edges_of_changed;
                vertices += w.active_vertices + w.changed_vertices;
            }
        }
        if !all_shards && vertices + edges == 0 {
            return;
        }
        let cw = host_work(label, vertices, edges, &self.sizes);
        self.host_time +=
            self.host_cfg.pass_overhead + cpu_time(&self.host_cfg, self.host_cfg.cores, &cw);
    }

    /// The stream shard `i`'s ops go on, on its owner device.
    fn stream_for(&self, i: usize) -> StreamId {
        let streams = &self.ctxs[self.owners[i]].main_streams;
        if self.opts.async_streams {
            streams[i % streams.len()]
        } else {
            streams[0]
        }
    }

    /// Copy shard `i`'s `bufs` in to its owner device.
    fn copy_in(
        &mut self,
        i: usize,
        stream: StreamId,
        bufs: &[Buf],
        iter: u32,
    ) -> Result<(), Abort> {
        let ctx = &mut self.ctxs[self.owners[i]];
        self.movement.copy_in(ctx, i, stream, bufs, iter)
    }

    /// Copy shard `i`'s `bufs` out of its owner device.
    fn copy_out(
        &mut self,
        i: usize,
        stream: StreamId,
        bufs: &[Buf],
        iter: u32,
    ) -> Result<(), Abort> {
        let ctx = &mut self.ctxs[self.owners[i]];
        self.movement.copy_out(ctx, i, stream, bufs, iter)
    }

    /// Launch one of shard `i`'s kernels on its owner device.
    fn launch(
        &mut self,
        i: usize,
        stream: StreamId,
        spec: &KernelSpec,
        iter: u32,
    ) -> Result<(), Abort> {
        self.ctxs[self.owners[i]].launch_tracked(stream, spec, iter, i)
    }

    /// Count shard copies and kernel launches the frontier skipped.
    fn skip(&mut self, copies: u64, launches: u64) {
        let metrics = &mut self.ctxs[0].metrics;
        if copies > 0 {
            metrics.inc(EngineMetric::SkippedShardCopies, copies);
        }
        metrics.inc(EngineMetric::SkippedKernelLaunches, launches);
    }

    /// Synchronize every device; the stage-aligned clock advances by the
    /// slowest device's stage (devices run concurrently).
    fn sync(&mut self) {
        let mut stage = SimDuration::ZERO;
        for ctx in &mut self.ctxs {
            let before = ctx.elapsed();
            ctx.sync_and_resolve();
            stage = stage.max(ctx.elapsed() - before);
        }
        self.global += stage;
    }

    /// A BSP barrier: [`Runner::sync`], plus — on more than one device —
    /// a `"multi"`-track instant marking where the aligned clock lands.
    fn barrier(&mut self, stage: &'static str) {
        self.sync();
        if self.ctxs.len() > 1 {
            let at = self.global.as_nanos();
            self.observer.instant(|| InstantEvent {
                track: "multi",
                lane: "barriers".to_string(),
                name: format!("barrier {stage}"),
                at_ns: at,
                fields: vec![("stage", stage.into())],
            });
        }
    }

    /// Optimized pipeline: fusion + elimination collapse each iteration
    /// into (at most) a gather stage, an apply stage, and a
    /// scatter+activate stage, each copying a shard's data once. The last
    /// stage's barrier is the caller's, after the exchange.
    fn emit_fused(&mut self, iter: u32, work: &[ShardWork]) -> Result<(), Abort> {
        // Stage A: gather (eliminated entirely for gather-less programs —
        // no in-edge movement, no kernels).
        if self.program.has_gather() {
            for (i, w) in work.iter().enumerate() {
                if self.host_shards[i] {
                    continue; // computed (and charged) on the host CPU
                }
                if self.opts.frontier_management && !w.is_active() {
                    self.skip(u64::from(!self.in_cached[i]), 2);
                    continue;
                }
                let stream = self.stream_for(i);
                if !self.in_cached[i] {
                    let bufs = self.topo_bufs(i, true);
                    self.copy_in(i, stream, bufs.as_slice(), iter)?;
                    self.decompress(i, stream, iter, true)?;
                    if self.resident {
                        self.in_cached[i] = true;
                    }
                }
                let (map, reduce) = self.specs.gather_specs(i, w);
                self.launch(i, stream, &map, iter)?;
                if let Some(spec) = reduce {
                    self.launch(i, stream, &spec, iter)?;
                }
            }
            self.barrier("gather");
        }

        // Stage B: apply (fused with gather's residency: temps never move).
        for (i, w) in work.iter().enumerate() {
            if self.host_shards[i] {
                continue;
            }
            if self.opts.frontier_management && !w.is_active() {
                self.skip(0, 1);
                continue;
            }
            let stream = self.stream_for(i);
            let spec = self.specs.apply_spec(w);
            self.launch(i, stream, &spec, iter)?;
        }
        self.barrier("apply");

        // Stage C: scatter + FrontierActivate share one out-edge copy.
        let has_scatter = self.program.has_scatter();
        for (i, w) in work.iter().enumerate() {
            if self.host_shards[i] {
                continue;
            }
            if self.opts.frontier_management && w.out_edges_of_changed == 0 {
                self.skip(u64::from(!self.out_cached[i]), 1 + u64::from(has_scatter));
                continue;
            }
            let stream = self.stream_for(i);
            if !self.out_cached[i] {
                let bufs = self.topo_bufs(i, false);
                self.copy_in(i, stream, bufs.as_slice(), iter)?;
                self.decompress(i, stream, iter, false)?;
                if self.resident {
                    self.out_cached[i] = true;
                }
            }
            if has_scatter {
                let spec = self.specs.scatter_spec(i, w);
                self.launch(i, stream, &spec, iter)?;
            }
            let spec = self.specs.activate_spec(i, w);
            self.launch(i, stream, &spec, iter)?;
            // Copy-outs: mutated edge values (unless resident — they are
            // fetched once at finalize) and the tiny frontier bitmap.
            let bits = self.frontier_bits(i);
            if has_scatter && !self.resident {
                let vals = (
                    w.out_edges_of_changed * self.sizes.edge_value,
                    "out.value.d2h",
                );
                self.copy_out(i, stream, &[vals, bits], iter)?;
            } else {
                self.copy_out(i, stream, &[bits], iter)?;
            }
        }
        Ok(())
    }

    /// Unoptimized mode: five separate phases, each moving the shard data
    /// it touches in *and* out, for every shard, every iteration — the
    /// Figure 15 baseline. The last phase's barrier is the caller's.
    fn emit_unfused(&mut self, iter: u32, work: &[ShardWork]) -> Result<(), Abort> {
        let has_gather = self.program.has_gather();
        let has_scatter = self.program.has_scatter();

        // Phase 1: gatherMap — full in-edge sub-arrays in (even for
        // gather-less programs: this is exactly the movement phase
        // elimination removes), per-edge update array out.
        for (i, w) in work.iter().enumerate() {
            if self.unfused_skip(i, w) {
                continue;
            }
            let stream = self.stream_for(i);
            let bufs = self.topo_bufs(i, true);
            self.copy_in(i, stream, bufs.as_slice(), iter)?;
            self.decompress(i, stream, iter, true)?;
            if has_gather {
                let (map, _) = self.specs.gather_specs(i, w);
                self.launch(i, stream, &map, iter)?;
            }
            let upd = self.edge_updates(i);
            self.copy_out(i, stream, &[upd], iter)?;
        }
        self.barrier("gatherMap");

        // Phase 2: gatherReduce — the per-edge update array comes back in,
        // reduced per-vertex temps go out. Fusion makes both moves vanish
        // (the array never leaves the device between the two kernels).
        for (i, w) in work.iter().enumerate() {
            if self.unfused_skip(i, w) {
                continue;
            }
            let stream = self.stream_for(i);
            let upd = self.edge_updates(i);
            self.copy_in(i, stream, &[upd], iter)?;
            if has_gather {
                if let (_, Some(reduce)) = self.specs.gather_specs(i, w) {
                    self.launch(i, stream, &reduce, iter)?;
                }
            }
            let t = self.gather_temps(i);
            self.copy_out(i, stream, &[t], iter)?;
        }
        self.barrier("gatherReduce");

        // Phase 3: apply — temps + vertex interval in, vertex interval out.
        for (i, w) in work.iter().enumerate() {
            if self.unfused_skip(i, w) {
                continue;
            }
            let stream = self.stream_for(i);
            let vertices = self.plan.shards[i].num_vertices();
            let vbuf = (vertices * self.sizes.vertex_value, "apply.vertices");
            self.copy_in(i, stream, &[self.gather_temps(i), vbuf], iter)?;
            let spec = self.specs.apply_spec(w);
            self.launch(i, stream, &spec, iter)?;
            self.copy_out(i, stream, &[vbuf], iter)?;
        }
        self.barrier("apply");

        // Phase 4: scatter — full out-edge arrays in, values out.
        for (i, w) in work.iter().enumerate() {
            if self.unfused_skip(i, w) {
                continue;
            }
            let stream = self.stream_for(i);
            let bufs = self.topo_bufs(i, false);
            self.copy_in(i, stream, bufs.as_slice(), iter)?;
            self.decompress(i, stream, iter, false)?;
            if has_scatter {
                let spec = self.specs.scatter_spec(i, w);
                self.launch(i, stream, &spec, iter)?;
                let vals: Buf = (
                    self.plan.shards[i].num_out_edges() * self.sizes.edge_value,
                    "out.value.d2h",
                );
                self.copy_out(i, stream, &[vals], iter)?;
            }
        }
        self.barrier("scatter");

        // Phase 5: FrontierActivate — out-edge topology in (again), bits out.
        for (i, w) in work.iter().enumerate() {
            if self.unfused_skip(i, w) {
                continue;
            }
            let stream = self.stream_for(i);
            // FrontierActivate re-reads the out topology; under
            // compression that is the CSR gap stream again.
            let sh = &self.plan.shards[i];
            let dst = match &self.comp {
                Some(c) => (c.csr_bytes(sh), "out.topo.z"),
                None => (sh.num_out_edges() * 4, "out.dst"),
            };
            self.copy_in(i, stream, &[dst], iter)?;
            self.decompress(i, stream, iter, false)?;
            let spec = self.specs.activate_spec(i, w);
            self.launch(i, stream, &spec, iter)?;
            let bits = self.frontier_bits(i);
            self.copy_out(i, stream, &[bits], iter)?;
        }
        Ok(())
    }

    /// Whether device `d` owns a shard and so holds the vertex replica;
    /// the only device of a one-device run always does. Owners are always
    /// live: an eviction hands a lost device's shards to the survivors.
    fn holds(&self, d: usize) -> bool {
        self.ctxs.len() == 1 || self.owners.contains(&d)
    }

    /// Upload the vertex array to each device that owns shards but does
    /// not hold it yet — every such device at init, one that gained
    /// shards through an eviction later — and initialize its gather-temp
    /// and frontier bitmaps on-device.
    fn upload_replicas(&mut self, iter: u32) -> Result<(), Abort> {
        let n = self.layout.num_vertices() as u64;
        let spec = KernelSpec::balanced("init.memset", n, 1.0, self.plan.static_bytes, 0);
        for d in 0..self.ctxs.len() {
            if self.replica[d] || !self.holds(d) {
                continue;
            }
            let ctx = &mut self.ctxs[d];
            let s = ctx.main_streams[0];
            ctx.h2d(s, n * self.sizes.vertex_value, "init.vertices", iter)?;
            ctx.launch(s, &spec, iter)?;
            self.replica[d] = true;
        }
        Ok(())
    }

    /// The cross-device exchange, when at least two devices own shards:
    /// each owner downloads its shards' changed vertex values and
    /// activation bits, and uploads the union of the other owners'
    /// changes — through host memory, on each device's own link. A device
    /// that owns no shard takes no part. Returns the bytes moved.
    fn exchange(&mut self, iter: u32, changed: &Bitmap) -> Result<u64, Abort> {
        if (0..self.ctxs.len())
            .filter(|&d| self.holds(d))
            .nth(1)
            .is_none()
        {
            return Ok(0);
        }
        let holders: Vec<usize> = (0..self.ctxs.len()).filter(|&d| self.holds(d)).collect();
        let mut changed_per_gpu = vec![0u64; self.ctxs.len()];
        for (sh, &o) in self.plan.shards.iter().zip(&self.owners) {
            changed_per_gpu[o] += changed.count_range(sh.interval.start, sh.interval.end);
        }
        let total: u64 = changed_per_gpu.iter().sum();
        let record = self.sizes.vertex_value + 4;
        let mut exchanged = 0;
        for d in holders {
            let ctx = &mut self.ctxs[d];
            let s = ctx.main_streams[0];
            let down = changed_per_gpu[d] * record;
            let up = (total - changed_per_gpu[d]) * record;
            if down > 0 {
                ctx.d2h(s, down, "exchange.down", iter)?;
            }
            if up > 0 {
                ctx.h2d(s, up, "exchange.up", iter)?;
            }
            exchanged += down + up;
        }
        Ok(exchanged)
    }

    /// Price the on-device decode of a just-streamed topology gap stream:
    /// one `decompress` kernel reading the compressed bits and feeding the
    /// decoded entries to the consuming kernels through on-chip memory,
    /// plus one DecompressShard decision. No-op without compression — the
    /// raw paths stay op-for-op identical.
    fn decompress(
        &mut self,
        i: usize,
        stream: StreamId,
        iter: u32,
        in_edges: bool,
    ) -> Result<(), Abort> {
        let Some(c) = &self.comp else {
            return Ok(());
        };
        let sh = &self.plan.shards[i];
        let (edges, z) = if in_edges {
            (sh.num_in_edges(), c.csc_bytes(sh))
        } else {
            (sh.num_out_edges(), c.csr_bytes(sh))
        };
        if edges == 0 {
            return Ok(());
        }
        let spec = self.specs.decompress_spec(i, edges, z, in_edges);
        self.launch(i, stream, &spec, iter)?;
        self.ctxs[0]
            .metrics
            .inc(EngineMetric::DecompressLaunches, 1);
        let raw = edges * RAW_TOPO_ENTRY_BYTES;
        self.observer.decision(|| Decision::DecompressShard {
            iteration: iter,
            shard: i as u32,
            compressed_bytes: z,
            raw_bytes: raw,
        });
        Ok(())
    }

    /// Shard `i`'s in-edge (`in_edges`) or out-edge topology buffer set,
    /// compressed when the run is. `force` mirrors the emit path this run
    /// takes (fused passes false, unfused true).
    fn topo_bufs(&self, i: usize, in_edges: bool) -> BufSet {
        let (sh, force) = (&self.plan.shards[i], !self.opts.phase_fusion);
        match (&self.comp, in_edges) {
            (Some(c), true) => c.in_bufs(&self.sizes, sh, force),
            (Some(c), false) => c.out_bufs(&self.sizes, sh, force),
            (None, true) => in_bufs_for(&self.sizes, sh, force),
            (None, false) => out_bufs_for(&self.sizes, sh, force),
        }
    }

    /// Shard `i`'s frontier bitmap, copied out after activation.
    fn frontier_bits(&self, i: usize) -> Buf {
        (
            self.plan.shards[i].num_vertices().div_ceil(8),
            "frontier.bits",
        )
    }

    /// Shard `i`'s reduced gather temps, which the unfused pipeline moves
    /// between gatherReduce and apply.
    fn gather_temps(&self, i: usize) -> Buf {
        (
            self.plan.shards[i].num_vertices() * self.sizes.gather,
            "gather.temp",
        )
    }

    /// Shard `i`'s per-edge gather updates, which the unfused pipeline
    /// moves between gatherMap and gatherReduce.
    fn edge_updates(&self, i: usize) -> Buf {
        (
            self.plan.shards[i].num_in_edges() * (self.sizes.gather + 4),
            "edge.update",
        )
    }

    /// A frontier-skipped unfused phase of shard `i` counts one shard copy
    /// and one kernel launch that never happened; host shards run on the
    /// CPU. True when the phase emits nothing for the shard.
    fn unfused_skip(&mut self, i: usize, w: &ShardWork) -> bool {
        if self.host_shards[i] {
            return true;
        }
        let skipped = self.opts.frontier_management && !w.is_active();
        if skipped {
            self.skip(1, 1);
        }
        skipped
    }

    // The timeline the BSP loop in `super::bsp` drives: everything the
    // loop does not own.

    /// Observer track of the per-iteration span.
    pub(super) fn track(&self) -> &'static str {
        if self.ctxs.len() > 1 {
            "multi"
        } else {
            "engine"
        }
    }

    /// The topology the host kernels read and the shards they compute.
    pub(super) fn host_view(&self) -> (TopoView<'_>, &[Shard]) {
        let view = match &self.comp {
            Some(c) => c.view(self.layout),
            None => TopoView::raw(self.layout),
        };
        (view, &self.plan.shards)
    }

    /// The run's engine registry, and the storage plane durable snapshots
    /// are written through.
    pub(super) fn io(&mut self) -> (&mut MetricsRegistry<EngineMetric>, &mut StorageCtx) {
        (&mut self.ctxs[0].metrics, &mut self.storage)
    }

    /// Stage-aligned device clock plus any degraded-mode host time.
    pub(super) fn now_ns(&self) -> u64 {
        self.global.as_nanos() + self.host_time.as_nanos()
    }

    /// Device count and shard owners to stamp into durable snapshots (more
    /// than one device only).
    pub(super) fn placement(&self) -> Option<(u32, &[usize])> {
        (self.ctxs.len() > 1).then(|| (self.ctxs.len() as u32, &self.owners[..]))
    }

    /// First touch of a spilled shard: read its payload back from the
    /// store (verifying frame integrity) and log one ShardLoad. Shards the
    /// frontier never activates are never read back — the point of
    /// spilling.
    pub(super) fn prepare(&mut self, iter: u32, frontier: &Bitmap) -> Result<(), EngineError> {
        let Some((store, pending)) = &mut self.spill else {
            return Ok(());
        };
        if self.host_mode {
            return Ok(());
        }
        let metrics = &mut self.ctxs[0].metrics;
        for (i, sh) in self.plan.shards.iter().enumerate() {
            if !pending[i] || self.host_shards[i] {
                continue;
            }
            if self.opts.frontier_management
                && !frontier.any_in_range(sh.interval.start, sh.interval.end)
            {
                continue;
            }
            // Read back once either way: on exhausted retries the shard
            // re-streams from the source graph (the host-resident layout)
            // — results unaffected, the StorageDegraded decision records
            // the detour.
            pending[i] = false;
            let Some(payload) = self.storage.spill_get(metrics, store, i as u32, iter)? else {
                continue;
            };
            let bytes = payload.len() as u64;
            metrics.inc(EngineMetric::SpillLoads, 1);
            metrics.inc(EngineMetric::SpillLoadBytes, bytes);
            let store_name = store.name();
            self.observer.decision(|| Decision::ShardLoad {
                iteration: iter,
                shard: i as u32,
                bytes,
                store: store_name,
            });
        }
        Ok(())
    }

    /// Device setup before iteration 0: every device that owns shards
    /// holds its own replica of the vertex array. Host mode (governor
    /// whole-run, or after the last device is lost) has nothing on a
    /// device to initialize.
    pub(super) fn init(&mut self) -> Result<(), Abort> {
        if self.host_mode {
            return Ok(());
        }
        self.upload_replicas(0)?;
        self.barrier("init");
        Ok(())
    }

    /// Price one iteration's `work` — on the devices, or after the last
    /// device is lost on the host CPU (results stay bit-identical either
    /// way, the host was computing them all along). `changed` sizes the
    /// cross-device exchange.
    pub(super) fn iteration(
        &mut self,
        iter: u32,
        work: &[ShardWork],
        changed: &Bitmap,
    ) -> Result<(), Abort> {
        if self.host_mode {
            self.charge_host("host.fallback", work, true);
        } else {
            self.upload_replicas(iter)?;
            if self.opts.phase_fusion {
                self.emit_fused(iter, work)?;
            } else {
                self.emit_unfused(iter, work)?;
            }
            let exchanged = self.exchange(iter, changed)?;
            self.barrier("exchange");
            // Counted only once the iteration's emission completed, so a
            // replay never counts its exchange twice.
            if exchanged > 0 {
                self.ctxs[0]
                    .metrics
                    .inc(EngineMetric::ExchangeBytes, exchanged);
            }
            self.charge_host("host.shard", work, false);
        }
        // The scope name is built only for an armed observer: disarmed,
        // an iteration allocates nothing here.
        if self.observer.is_enabled() {
            for (d, ctx) in self.ctxs.iter().enumerate() {
                let scope = match self.ctxs.len() {
                    1 => format!("iteration {iter}"),
                    _ => format!("iteration {iter} gpu{d}"),
                };
                self.observer
                    .snapshot(&scope, || ctx.gpu_metrics().snapshot());
            }
        }
        Ok(())
    }

    /// Device teardown after the last iteration: each device that owns
    /// shards downloads their vertex values (and, for scatter programs,
    /// their edge values). In host mode the results are host-resident
    /// already.
    pub(super) fn finalize(&mut self, iter: u32) -> Result<(), Abort> {
        if self.host_mode {
            return Ok(());
        }
        for d in 0..self.ctxs.len() {
            if !self.holds(d) {
                continue;
            }
            let (mut vertices, mut edges) = (0, 0);
            for (sh, _) in self
                .plan
                .shards
                .iter()
                .zip(&self.owners)
                .filter(|(_, &o)| o == d)
            {
                vertices += sh.num_vertices();
                edges += sh.num_out_edges();
            }
            let ctx = &mut self.ctxs[d];
            let s = ctx.main_streams[0];
            ctx.d2h(
                s,
                vertices * self.sizes.vertex_value,
                "final.vertices",
                iter,
            )?;
            if self.program.has_scatter() {
                ctx.d2h(s, edges * self.sizes.edge_value, "final.edges", iter)?;
            }
        }
        self.barrier("final");
        Ok(())
    }

    /// Settle the devices after `a` (the doomed attempt's time stays on
    /// the clock) and handle a device loss: evict the device and
    /// redistribute its shards round-robin over the survivors (logged as
    /// [`Decision::DeviceEvict`]); once none is left, fall back to the
    /// host CPU — or fail the run when the policy forbids it.
    pub(super) fn recover(&mut self, a: &Abort, iter: u32) -> Result<(), EngineError> {
        self.sync();
        // The faulted attempt may have moved only part of a shard: drop
        // all residency claims so the replay re-copies what it touches.
        self.in_cached.fill(false);
        self.out_cached.fill(false);
        if !matches!(a.fault, DeviceFault::Lost) {
            return Ok(());
        }
        self.alive[a.device] = false;
        let survivors: Vec<usize> = (0..self.alive.len()).filter(|&d| self.alive[d]).collect();
        let device = a.device as u32;
        if survivors.is_empty() {
            if !self.opts.recovery.host_fallback {
                return Err(EngineError::DeviceLost);
            }
            self.ctxs[0].metrics.inc(EngineMetric::HostFallback, 1);
            self.observer.decision(|| Decision::HostFallback {
                iteration: iter,
                device,
                rationale: "device lost: finishing on host CPU",
            });
            self.host_mode = true;
            return Ok(());
        }
        let mut moved = 0u32;
        for o in self.owners.iter_mut().filter(|o| **o == a.device) {
            *o = survivors[moved as usize % survivors.len()];
            moved += 1;
        }
        self.ctxs[0].metrics.inc(EngineMetric::Evictions, 1);
        self.observer.decision(|| Decision::DeviceEvict {
            iteration: iter,
            device,
            shards_moved: moved,
        });
        Ok(())
    }
}
