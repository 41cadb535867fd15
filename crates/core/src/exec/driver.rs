//! The single-GPU device timeline: frontier skip, residency caching,
//! spill reads, governor host shards, host fallback, and the fused or
//! unfused emission of each iteration.
//!
//! `Runner` wires the exec layers together for one device —
//! [`super::plan`] derives the governed [`ExecPlan`](super::plan::ExecPlan),
//! [`super::movement`] moves shard buffers, [`super::compute`] prices the
//! kernels, and every device op goes through [`super::device::DeviceCtx`].
//! It runs through the BSP loop in [`super::bsp`], which it shares with
//! the multi-GPU orchestrator: the host computes each iteration once, and
//! a fault replays only what `Runner` emits.

use gr_graph::{Bitmap, GraphLayout, Shard, TopoView};
use std::sync::Arc;

use gr_observe::{Decision, MetricsRegistry, Observer, WallProfiler};
use gr_sim::{cpu_time, DeviceFault, HostConfig, KernelSpec, Platform, SimDuration, StreamId};

use crate::api::GasProgram;
use crate::engine::{RunResult, WarmStart};
use crate::options::Options;
use crate::phases::ShardWork;
use crate::recovery::EngineError;
use crate::sizes::{PartitionPlan, SizeModel};
use crate::snapshot::{self, CheckpointPolicy};
use crate::snapshot_delta::RestoredFromDisk;
use crate::stats::RunStats;
use crate::storage::StorageCtx;
use crate::store::{shard_payload, FileShardStore, ShardStore};

use super::bsp::{Bsp, Timeline};
use super::compress::{ShardCompression, RAW_TOPO_ENTRY_BYTES};
use super::compute::{host_work, ComputeSpecs};
use super::device::{Abort, DeviceCtx};
use super::movement::{in_bufs_for, out_bufs_for, Buf, BufSet, Movement};
use super::plan;
use super::EngineMetric;

/// The single-GPU timeline (Figures 8-12): one [`DeviceCtx`], one
/// [`Movement`] policy, one [`ComputeSpecs`] table.
pub(crate) struct Runner<'a, P: GasProgram> {
    program: &'a P,
    layout: &'a GraphLayout,
    opts: &'a Options,
    sizes: SizeModel,
    plan: PartitionPlan,
    ctx: DeviceCtx,
    movement: Movement,
    specs: ComputeSpecs,
    // Residency caching (in-GPU-memory mode).
    resident: bool,
    in_cached: Vec<bool>,
    out_cached: Vec<bool>,
    // Per-shard buffer lists, computed once (the emit loops used to
    // rebuild these Vecs every shard every iteration).
    in_buf_sets: Vec<BufSet>,
    out_buf_sets: Vec<BufSet>,
    gather_temp_bufs: Vec<Buf>,
    edge_update_bufs: Vec<Buf>,
    apply_vertex_bufs: Vec<Buf>,
    out_dst_bufs: Vec<Buf>,
    frontier_bits_bufs: Vec<Buf>,
    // Fault recovery: the degraded host-CPU mode entered after permanent
    // device loss.
    host_cfg: HostConfig,
    host_mode: bool,
    host_time: SimDuration,
    // Memory governor outcome: shards degraded to host execution.
    host_shards: Vec<bool>,
    any_host_shards: bool,
    // Fault-hardened storage plane: every spill/checkpoint I/O goes
    // through it so injected I/O faults retry and degrade gracefully.
    storage: StorageCtx,
    // Shard compression: the gap-coded topology (if armed) the host
    // kernels decode through and the movement layer ships — built once per
    // session and shared by every query over it.
    comp: Option<Arc<ShardCompression>>,
    // Out-of-host-core spill: the store (if any), which shards were
    // evicted to it, and which have been verified back in already.
    store: Option<FileShardStore>,
    spilled: Vec<bool>,
    spill_loaded: Vec<bool>,
    any_spilled: bool,
    observer: Observer,
    // Real wall-clock attribution (disarmed by default — one branch per
    // scope; see `gr_observe::profiler`).
    wall: WallProfiler,
}

impl<'a, P: GasProgram> Runner<'a, P> {
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
    ) -> Result<Self, EngineError> {
        let mut ctx = DeviceCtx::new(
            platform,
            0,
            observer.clone(),
            lane,
            opts.fault_plan.clone(),
            opts.mem_cap,
            opts.recovery.clone(),
        );
        // Plan optimistically, govern at runtime: the partition plan was
        // sized for the nominal device; a memory cap shrinks the pool and
        // the governor degrades the plan until it fits (or errors).
        let capacity = ctx.mem_capacity();
        let governed = plan::build_exec_plan(
            plan,
            &sizes,
            layout,
            capacity,
            opts,
            comp.as_deref(),
            &mut ctx.metrics,
            &observer,
        )?;
        let plan = governed.partition;
        let k = plan.concurrent as usize;
        // One CompressShard decision per governed shard, with the honest
        // ratio the run will see on the wire (full raw buffer set vs
        // compressed set); totals land in RunStats via engine counters.
        if let Some(c) = &comp {
            let codec_name = c.codec().name();
            let force = !opts.phase_fusion;
            for (i, sh) in plan.shards.iter().enumerate() {
                let raw: u64 = in_bufs_for(&sizes, sh, force)
                    .as_slice()
                    .iter()
                    .chain(out_bufs_for(&sizes, sh, force).as_slice())
                    .map(|b| b.0)
                    .sum();
                let z: u64 = c
                    .in_bufs(&sizes, sh, force)
                    .as_slice()
                    .iter()
                    .chain(c.out_bufs(&sizes, sh, force).as_slice())
                    .map(|b| b.0)
                    .sum();
                ctx.metrics.inc(EngineMetric::CompressedRawBytes, raw);
                ctx.metrics.inc(EngineMetric::CompressedBytes, z);
                observer.decision(|| Decision::CompressShard {
                    shard: i as u32,
                    raw_bytes: raw,
                    compressed_bytes: z,
                    codec: codec_name,
                });
            }
        }

        // Streams before allocations: allocation-retry backoff stalls are
        // charged on a stream, so one must exist first.
        ctx.create_main_streams(k);
        if opts.spray {
            ctx.create_spray_streams(opts.spray_width.max(1) as usize * k);
        }

        // Device allocations: static buffers, then either every shard
        // (resident mode) or K reusable streaming slots sized to the
        // governed budget. The governed plan guarantees these fit, but
        // injected allocation pressure — or a plan invalidated by a
        // shrunken device — surfaces as an [`EngineError`] instead of a
        // panic. Whole-run host mode allocates nothing.
        let s0 = ctx.main_streams[0];
        let resident = !governed.host_run && opts.cache_resident && plan.all_resident;
        if !governed.host_run {
            ctx.static_alloc = Some(ctx.alloc_retry(s0, plan.static_bytes)?);
            ctx.shard_allocs = if resident {
                plan.shards
                    .iter()
                    .map(|s| match &comp {
                        Some(c) => c.shard_bytes(&sizes, s),
                        None => sizes.shard_bytes(s),
                    })
                    .collect::<Vec<_>>()
                    .into_iter()
                    .map(|b| ctx.alloc_retry(s0, b))
                    .collect::<Result<_, _>>()?
            } else {
                (0..k)
                    .map(|_| ctx.alloc_retry(s0, governed.slot_bytes))
                    .collect::<Result<_, _>>()?
            };
        }

        // Fault-hardened storage plane: spill and checkpoint I/O below
        // retries injected faults with logged backoff and degrades
        // gracefully after exhaustion instead of failing the run.
        let mut storage =
            StorageCtx::new(&opts.fault_plan, opts.recovery.clone(), observer.clone());

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
                for (i, s) in spilled.iter_mut().enumerate() {
                    if !governed.host_shards[i] {
                        *s = true;
                    }
                }
            }
            for (i, flag) in spilled.iter_mut().enumerate() {
                if !*flag {
                    continue;
                }
                // `put` reports the bytes that actually hit the store —
                // smaller than the payload when the store compresses. A
                // put whose retries are exhausted by injected I/O faults
                // leaves the shard host-resident instead of failing.
                let payload = shard_payload(layout, &plan.shards[i]);
                match storage.spill_put(&mut ctx.metrics, h, i as u32, &payload, 0)? {
                    Some(bytes) => {
                        ctx.metrics.inc(EngineMetric::SpilledShards, 1);
                        ctx.metrics.inc(EngineMetric::SpilledBytes, bytes);
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
        let any_spilled = spilled.iter().any(|&s| s);
        let mut movement = Movement::new(
            opts,
            governed.chunked,
            governed.slot_bytes.max(1),
            storage_read_secs_per_byte,
            platform.storage.latency,
        );
        if any_spilled {
            movement.set_spilled(
                spilled.clone(),
                1.0 / (platform.storage.bandwidth_gbps * 1e9),
            );
        }

        let specs = ComputeSpecs::new(sizes, opts, layout, &plan.shards, &wall);

        // Buffer lists are a pure function of the shard geometry and the
        // size model: compute them once. `force` mirrors which emit path
        // this run will take (fused passes force=false, unfused true).
        let force = !opts.phase_fusion;
        let in_buf_sets = plan
            .shards
            .iter()
            .map(|sh| match &comp {
                Some(c) => c.in_bufs(&sizes, sh, force),
                None => in_bufs_for(&sizes, sh, force),
            })
            .collect();
        let out_buf_sets = plan
            .shards
            .iter()
            .map(|sh| match &comp {
                Some(c) => c.out_bufs(&sizes, sh, force),
                None => out_bufs_for(&sizes, sh, force),
            })
            .collect();
        let gather_temp_bufs = plan
            .shards
            .iter()
            .map(|sh| (sh.num_vertices() * sizes.gather, "gather.temp"))
            .collect();
        let edge_update_bufs = plan
            .shards
            .iter()
            .map(|sh| (sh.num_in_edges() * (sizes.gather + 4), "edge.update"))
            .collect();
        let apply_vertex_bufs = plan
            .shards
            .iter()
            .map(|sh| (sh.num_vertices() * sizes.vertex_value, "apply.vertices"))
            .collect();
        let out_dst_bufs = plan
            .shards
            .iter()
            .map(|sh| match &comp {
                // Unfused FrontierActivate re-reads the out topology; under
                // compression that is the CSR gap stream again.
                Some(c) => (c.csr_bytes(sh), "out.topo.z"),
                None => (sh.num_out_edges() * 4, "out.dst"),
            })
            .collect();
        let frontier_bits_bufs = plan
            .shards
            .iter()
            .map(|sh| (sh.num_vertices().div_ceil(8), "frontier.bits"))
            .collect();

        let num_shards = plan.shards.len();
        Ok(Runner {
            program,
            layout,
            opts,
            sizes,
            plan,
            ctx,
            movement,
            specs,
            resident,
            in_cached: vec![false; num_shards],
            out_cached: vec![false; num_shards],
            host_cfg: platform.host.clone(),
            host_mode: governed.host_run,
            host_time: SimDuration::ZERO,
            any_host_shards: governed.host_shards.iter().any(|&h| h),
            host_shards: governed.host_shards,
            storage,
            comp,
            store,
            spilled,
            spill_loaded: vec![false; num_shards],
            any_spilled,
            in_buf_sets,
            out_buf_sets,
            gather_temp_bufs,
            edge_update_bufs,
            apply_vertex_bufs,
            out_dst_bufs,
            frontier_bits_bufs,
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
            || self.any_spilled
            || !matches!(self.opts.checkpoint_policy, CheckpointPolicy::InMemoryOnly);
        let bsp = Bsp {
            program: self.program,
            layout: self.layout,
            opts: self.opts,
            kill_at: self.opts.fault_plan.kill_at(),
            observer: self.observer.clone(),
            wall: self.wall.clone(),
        };
        let (host, iterations) = bsp.run(&mut self, warm, restored)?;
        let gpu_metrics = self.ctx.gpu_metrics();
        self.observer.snapshot("run", || gpu_metrics.snapshot());
        let engine_metrics = &self.ctx.metrics;
        self.observer
            .snapshot("engine", || engine_metrics.snapshot());
        // Every transfer/time/skip field below reads the device and
        // engine metric registries — RunStats holds no counters of its
        // own.
        let gstats = self.ctx.stats();
        let metrics = &self.ctx.metrics;
        let stats = RunStats {
            algorithm: self.program.name(),
            iterations,
            elapsed: gstats.elapsed + self.host_time,
            memcpy_time: gstats.memcpy_busy,
            kernel_time: gstats.kernel_busy,
            bytes_h2d: gstats.bytes_h2d,
            bytes_d2h: gstats.bytes_d2h,
            copy_ops: gstats.copy_ops,
            kernel_launches: gstats.kernel_launches,
            skipped_shard_copies: metrics.counter(EngineMetric::SkippedShardCopies),
            skipped_kernel_launches: metrics.counter(EngineMetric::SkippedKernelLaunches),
            num_shards: self.plan.shards.len(),
            concurrent_shards: self.plan.concurrent,
            all_resident: self.resident,
            faults_injected: self.ctx.faults_injected(),
            recovered_retries: metrics.counter(EngineMetric::FaultRetries),
            rollbacks: metrics.counter(EngineMetric::Rollbacks),
            host_fallback: self.host_mode,
            mem_pressure_events: metrics.counter(EngineMetric::MemPressure),
            shard_splits: metrics.counter(EngineMetric::ShardSplits),
            chunked_shards: metrics.counter(EngineMetric::ChunkedShards),
            chunked_copies: metrics.counter(EngineMetric::ChunkedCopies),
            host_shards: metrics.counter(EngineMetric::HostShards),
            mem_peak: self.ctx.mem_peak(),
            mem_min_headroom: self.ctx.mem_min_headroom(),
            checkpoint_writes: metrics.counter(EngineMetric::CheckpointWrites),
            checkpoint_bytes_written: metrics.counter(EngineMetric::CheckpointBytes),
            checkpoint_full_bytes: metrics.counter(EngineMetric::CheckpointFullBytes),
            checkpoint_delta_writes: metrics.counter(EngineMetric::CheckpointDeltaWrites),
            checkpoint_delta_bytes: metrics.counter(EngineMetric::CheckpointDeltaBytes),
            checkpoint_raw_bytes: metrics.counter(EngineMetric::CheckpointRawBytes),
            checkpoint_restores: metrics.counter(EngineMetric::CheckpointRestores),
            checkpoints_skipped: metrics.counter(EngineMetric::CheckpointsSkipped),
            storage_retries: metrics.counter(EngineMetric::StorageRetries),
            spill_restreams: metrics.counter(EngineMetric::SpillRestreams),
            spilled_shards: metrics.counter(EngineMetric::SpilledShards),
            spilled_bytes: metrics.counter(EngineMetric::SpilledBytes),
            spill_loads: metrics.counter(EngineMetric::SpillLoads),
            spill_load_bytes: metrics.counter(EngineMetric::SpillLoadBytes),
            compression_codec: self.comp.as_ref().map(|c| c.codec().name()),
            compressed_bytes: metrics.counter(EngineMetric::CompressedBytes),
            compressed_raw_bytes: metrics.counter(EngineMetric::CompressedRawBytes),
            decompress_launches: metrics.counter(EngineMetric::DecompressLaunches),
            state_fingerprint: fingerprinted
                .then(|| snapshot::values_fingerprint(&host.vertex_values)),
            wall: self.wall.is_armed().then(|| self.wall.profile().summary()),
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
    /// baseline engines use: every shard after device loss (`all_shards`),
    /// else only the governor-degraded shards, and those only when they
    /// did something. Called once per completed iteration, so a replay
    /// re-charges the device work it redoes, never the host's. Results
    /// are unaffected: the host computes every shard regardless.
    fn charge_host(&mut self, label: &'static str, work: &[ShardWork], all_shards: bool) {
        if !all_shards && !self.any_host_shards {
            return;
        }
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

    fn stream_for(&self, i: usize) -> StreamId {
        if self.opts.async_streams {
            self.ctx.main_streams[i % self.ctx.main_streams.len()]
        } else {
            self.ctx.main_streams[0]
        }
    }

    /// Optimized pipeline: fusion + elimination collapse each iteration
    /// into (at most) a gather stage, an apply stage, and a
    /// scatter+activate stage, each copying a shard's data once.
    fn emit_fused(&mut self, iter: u32, work: &[ShardWork]) -> Result<(), Abort> {
        // Stage A: gather (eliminated entirely for gather-less programs —
        // no in-edge movement, no kernels).
        if self.program.has_gather() {
            for (i, w) in work.iter().enumerate() {
                if self.host_shards[i] {
                    continue; // computed (and charged) on the host CPU
                }
                if self.opts.frontier_management && !w.is_active() {
                    if !self.in_cached[i] {
                        self.ctx.metrics.inc(EngineMetric::SkippedShardCopies, 1);
                    }
                    self.ctx.metrics.inc(EngineMetric::SkippedKernelLaunches, 2);
                    continue;
                }
                let stream = self.stream_for(i);
                if !self.in_cached[i] {
                    let bufs = self.in_buf_sets[i];
                    self.movement
                        .copy_in(&mut self.ctx, i, stream, bufs.as_slice(), iter)?;
                    self.decompress(i, stream, iter, true)?;
                    if self.resident {
                        self.in_cached[i] = true;
                    }
                }
                let (map, reduce) = self.specs.gather_specs(i, w);
                self.ctx.launch_tracked(stream, &map, iter, i)?;
                if let Some(spec) = reduce {
                    self.ctx.launch_tracked(stream, &spec, iter, i)?;
                }
            }
            self.ctx.sync_and_resolve();
        }

        // Stage B: apply (fused with gather's residency: temps never move).
        for (i, w) in work.iter().enumerate() {
            if self.host_shards[i] {
                continue;
            }
            if self.opts.frontier_management && !w.is_active() {
                self.ctx.metrics.inc(EngineMetric::SkippedKernelLaunches, 1);
                continue;
            }
            let stream = self.stream_for(i);
            let spec = self.specs.apply_spec(w);
            self.ctx.launch_tracked(stream, &spec, iter, i)?;
        }
        self.ctx.sync_and_resolve();

        // Stage C: scatter + FrontierActivate share one out-edge copy.
        for (i, w) in work.iter().enumerate() {
            if self.host_shards[i] {
                continue;
            }
            if self.opts.frontier_management && w.out_edges_of_changed == 0 {
                if !self.out_cached[i] {
                    self.ctx.metrics.inc(EngineMetric::SkippedShardCopies, 1);
                }
                self.ctx.metrics.inc(
                    EngineMetric::SkippedKernelLaunches,
                    if self.program.has_scatter() { 2 } else { 1 },
                );
                continue;
            }
            let stream = self.stream_for(i);
            if !self.out_cached[i] {
                let bufs = self.out_buf_sets[i];
                self.movement
                    .copy_in(&mut self.ctx, i, stream, bufs.as_slice(), iter)?;
                self.decompress(i, stream, iter, false)?;
                if self.resident {
                    self.out_cached[i] = true;
                }
            }
            if self.program.has_scatter() {
                let spec = self.specs.scatter_spec(i, w);
                self.ctx.launch_tracked(stream, &spec, iter, i)?;
            }
            let spec = self.specs.activate_spec(i, w);
            self.ctx.launch_tracked(stream, &spec, iter, i)?;
            // Copy-outs: mutated edge values (unless resident — they are
            // fetched once at finalize) and the tiny frontier bitmap.
            let bits = self.frontier_bits_bufs[i];
            if self.program.has_scatter() && !self.resident {
                let vals = (
                    w.out_edges_of_changed * self.sizes.edge_value,
                    "out.value.d2h",
                );
                self.movement
                    .copy_out(&mut self.ctx, i, stream, &[vals, bits], iter)?;
            } else {
                self.movement
                    .copy_out(&mut self.ctx, i, stream, &[bits], iter)?;
            }
        }
        self.ctx.sync_and_resolve();
        Ok(())
    }

    /// Unoptimized mode: five separate phases, each moving the shard data
    /// it touches in *and* out, for every shard, every iteration — the
    /// Figure 15 baseline.
    fn emit_unfused(&mut self, iter: u32, work: &[ShardWork]) -> Result<(), Abort> {
        let has_gather = self.program.has_gather();
        let has_scatter = self.program.has_scatter();
        let skip = |this: &Self, w: &ShardWork| this.opts.frontier_management && !w.is_active();

        // Phase 1: gatherMap — full in-edge sub-arrays in (even for
        // gather-less programs: this is exactly the movement phase
        // elimination removes), per-edge update array out.
        for (i, w) in work.iter().enumerate() {
            if self.host_shards[i] {
                continue;
            }
            if skip(self, w) {
                self.skip_phase();
                continue;
            }
            let stream = self.stream_for(i);
            let bufs = self.in_buf_sets[i];
            self.movement
                .copy_in(&mut self.ctx, i, stream, bufs.as_slice(), iter)?;
            self.decompress(i, stream, iter, true)?;
            if has_gather {
                let (map, _) = self.specs.gather_specs(i, w);
                self.ctx.launch_tracked(stream, &map, iter, i)?;
            }
            let upd = self.edge_update_bufs[i];
            self.movement
                .copy_out(&mut self.ctx, i, stream, &[upd], iter)?;
        }
        self.ctx.sync_and_resolve();

        // Phase 2: gatherReduce — the per-edge update array comes back in,
        // reduced per-vertex temps go out. Fusion makes both moves vanish
        // (the array never leaves the device between the two kernels).
        for (i, w) in work.iter().enumerate() {
            if self.host_shards[i] {
                continue;
            }
            if skip(self, w) {
                self.skip_phase();
                continue;
            }
            let stream = self.stream_for(i);
            let upd = self.edge_update_bufs[i];
            self.movement
                .copy_in(&mut self.ctx, i, stream, &[upd], iter)?;
            if has_gather {
                let (_, reduce) = self.specs.gather_specs(i, w);
                if let Some(reduce) = reduce {
                    self.ctx.launch_tracked(stream, &reduce, iter, i)?;
                }
            }
            let t = self.gather_temp_bufs[i];
            self.movement
                .copy_out(&mut self.ctx, i, stream, &[t], iter)?;
        }
        self.ctx.sync_and_resolve();

        // Phase 3: apply — temps + vertex interval in, vertex interval out.
        for (i, w) in work.iter().enumerate() {
            if self.host_shards[i] {
                continue;
            }
            if skip(self, w) {
                self.skip_phase();
                continue;
            }
            let stream = self.stream_for(i);
            let vbuf = self.apply_vertex_bufs[i];
            let t = self.gather_temp_bufs[i];
            self.movement
                .copy_in(&mut self.ctx, i, stream, &[t, vbuf], iter)?;
            let spec = self.specs.apply_spec(w);
            self.ctx.launch_tracked(stream, &spec, iter, i)?;
            self.movement
                .copy_out(&mut self.ctx, i, stream, &[vbuf], iter)?;
        }
        self.ctx.sync_and_resolve();

        // Phase 4: scatter — full out-edge arrays in, values out.
        for (i, w) in work.iter().enumerate() {
            if self.host_shards[i] {
                continue;
            }
            if skip(self, w) {
                self.skip_phase();
                continue;
            }
            let stream = self.stream_for(i);
            let bufs = self.out_buf_sets[i];
            self.movement
                .copy_in(&mut self.ctx, i, stream, bufs.as_slice(), iter)?;
            self.decompress(i, stream, iter, false)?;
            if has_scatter {
                let spec = self.specs.scatter_spec(i, w);
                self.ctx.launch_tracked(stream, &spec, iter, i)?;
                let vals: Buf = (
                    self.plan.shards[i].num_out_edges() * self.sizes.edge_value,
                    "out.value.d2h",
                );
                self.movement
                    .copy_out(&mut self.ctx, i, stream, &[vals], iter)?;
            }
        }
        self.ctx.sync_and_resolve();

        // Phase 5: FrontierActivate — out-edge topology in (again), bits out.
        for (i, w) in work.iter().enumerate() {
            if self.host_shards[i] {
                continue;
            }
            if skip(self, w) {
                self.skip_phase();
                continue;
            }
            let stream = self.stream_for(i);
            let dst = self.out_dst_bufs[i];
            self.movement
                .copy_in(&mut self.ctx, i, stream, &[dst], iter)?;
            self.decompress(i, stream, iter, false)?;
            let spec = self.specs.activate_spec(i, w);
            self.ctx.launch_tracked(stream, &spec, iter, i)?;
            let bits = self.frontier_bits_bufs[i];
            self.movement
                .copy_out(&mut self.ctx, i, stream, &[bits], iter)?;
        }
        self.ctx.sync_and_resolve();
        Ok(())
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
        self.ctx.launch_tracked(stream, &spec, iter, i)?;
        self.ctx.metrics.inc(EngineMetric::DecompressLaunches, 1);
        let raw = edges * RAW_TOPO_ENTRY_BYTES;
        self.observer.decision(|| Decision::DecompressShard {
            iteration: iter,
            shard: i as u32,
            compressed_bytes: z,
            raw_bytes: raw,
        });
        Ok(())
    }

    /// One skipped phase of the unfused pipeline: one shard copy and one
    /// kernel launch that never happened.
    fn skip_phase(&mut self) {
        self.ctx.metrics.inc(EngineMetric::SkippedShardCopies, 1);
        self.ctx.metrics.inc(EngineMetric::SkippedKernelLaunches, 1);
    }
}

impl<P: GasProgram> Timeline for Runner<'_, P> {
    const TRACK: &'static str = "engine";

    fn host_view(&self) -> (TopoView<'_>, &[Shard]) {
        let view = match &self.comp {
            Some(c) => c.view(self.layout),
            None => TopoView::raw(self.layout),
        };
        (view, &self.plan.shards)
    }

    fn io(&mut self) -> (&mut MetricsRegistry<EngineMetric>, &mut StorageCtx) {
        (&mut self.ctx.metrics, &mut self.storage)
    }

    /// Device clock plus any degraded-mode host time.
    fn now_ns(&self) -> u64 {
        self.ctx.elapsed().as_nanos() + self.host_time.as_nanos()
    }

    /// First touch of a spilled shard: read its payload back from the
    /// store (verifying frame integrity) and log one ShardLoad. Shards the
    /// frontier never activates are never read back — the point of
    /// spilling.
    fn prepare(&mut self, iter: u32, frontier: &Bitmap) -> Result<(), EngineError> {
        if self.host_mode || !self.any_spilled {
            return Ok(());
        }
        let store = self.store.as_ref().expect("spilled shards imply a store");
        for i in 0..self.plan.shards.len() {
            if !self.spilled[i] || self.spill_loaded[i] || self.host_shards[i] {
                continue;
            }
            let sh = &self.plan.shards[i];
            if self.opts.frontier_management
                && !frontier.any_in_range(sh.interval.start, sh.interval.end)
            {
                continue;
            }
            let Some(payload) =
                self.storage
                    .spill_get(&mut self.ctx.metrics, store, i as u32, iter)?
            else {
                // Retries exhausted: re-stream the shard from the source
                // graph (the host-resident layout) — results unaffected,
                // the StorageDegraded decision records the detour.
                self.spill_loaded[i] = true;
                continue;
            };
            let bytes = payload.len() as u64;
            self.ctx.metrics.inc(EngineMetric::SpillLoads, 1);
            self.ctx.metrics.inc(EngineMetric::SpillLoadBytes, bytes);
            let store_name = store.name();
            self.observer.decision(|| Decision::ShardLoad {
                iteration: iter,
                shard: i as u32,
                bytes,
                store: store_name,
            });
            self.spill_loaded[i] = true;
        }
        Ok(())
    }

    fn init(&mut self) -> Result<(), Abort> {
        // Host mode (governor whole-run, or after device loss): nothing
        // lives on the device, so there is nothing to initialize.
        if self.host_mode {
            return Ok(());
        }
        let s = self.ctx.main_streams[0];
        let vbytes = self.layout.num_vertices() as u64 * self.sizes.vertex_value;
        self.ctx.h2d(s, vbytes, "init.vertices", 0)?;
        // Gather-temp and frontier bitmaps are initialized on-device.
        let spec = KernelSpec::balanced(
            "init.memset",
            self.layout.num_vertices() as u64,
            1.0,
            self.plan.static_bytes,
            0,
        );
        self.ctx.launch(s, &spec, 0)?;
        self.ctx.synchronize();
        Ok(())
    }

    /// On the device, or after device loss on the host CPU — results stay
    /// bit-identical either way, the host was computing them all along.
    fn iteration(&mut self, iter: u32, work: &[ShardWork], _changed: &Bitmap) -> Result<(), Abort> {
        if self.host_mode {
            self.charge_host("host.fallback", work, true);
        } else {
            if self.opts.phase_fusion {
                self.emit_fused(iter, work)?;
            } else {
                self.emit_unfused(iter, work)?;
            }
            self.charge_host("host.shard", work, false);
        }
        // The scope name is built only for an armed observer: disarmed,
        // an iteration allocates nothing here.
        if self.observer.is_enabled() {
            let gpu_metrics = self.ctx.gpu_metrics();
            self.observer
                .snapshot(&format!("iteration {iter}"), || gpu_metrics.snapshot());
        }
        Ok(())
    }

    fn finalize(&mut self, iter: u32) -> Result<(), Abort> {
        // In host mode the results are host-resident already (and the
        // device is gone): nothing to download.
        if self.host_mode {
            return Ok(());
        }
        let s = self.ctx.main_streams[0];
        let vbytes = self.layout.num_vertices() as u64 * self.sizes.vertex_value;
        self.ctx.d2h(s, vbytes, "final.vertices", iter)?;
        if self.program.has_scatter() {
            let ebytes = self.layout.num_edges() * self.sizes.edge_value;
            self.ctx.d2h(s, ebytes, "final.edges", iter)?;
        }
        self.ctx.synchronize();
        Ok(())
    }

    /// Device loss switches to host fallback (or fails the run when the
    /// policy forbids it).
    fn recover(&mut self, a: &Abort, iter: u32) -> Result<(), EngineError> {
        self.ctx.sync_and_resolve();
        // The faulted attempt may have moved only part of a shard: drop
        // all residency claims so the replay re-copies what it touches.
        self.in_cached.fill(false);
        self.out_cached.fill(false);
        if matches!(a.fault, DeviceFault::Lost) {
            if !self.opts.recovery.host_fallback {
                return Err(EngineError::DeviceLost);
            }
            self.ctx.metrics.inc(EngineMetric::HostFallback, 1);
            self.observer.decision(|| Decision::HostFallback {
                iteration: iter,
                device: 0,
                rationale: "device lost: finishing on host CPU",
            });
            self.host_mode = true;
        }
        Ok(())
    }
}
