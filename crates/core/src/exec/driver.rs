//! The iteration driver: BSP loop, frontier skip, timeline emission,
//! checkpoint/rollback, and host fallback for one device.
//!
//! `Runner` wires the exec layers together for the single-GPU path —
//! [`super::plan`] derives the governed [`ExecPlan`](super::plan::ExecPlan),
//! [`super::movement`] moves shard buffers, [`super::compute`] prices the
//! kernels, and every device op goes through [`super::device::DeviceCtx`].
//! The host-side exact computation (`HostState`, in [`super::host`]) and
//! the rollback bookkeeping (`roll_back`) are shared with the multi-GPU
//! orchestrator so both paths produce bit-identical results and identical
//! recovery charges for identical fault schedules.

use gr_graph::{GraphLayout, TopoView};
use std::sync::Arc;

use gr_observe::{Decision, MetricsRegistry, Observer, SpanEvent, WallProfiler};
use gr_sim::{cpu_time, DeviceFault, HostConfig, KernelSpec, Platform, SimDuration, StreamId};

use crate::api::GasProgram;
use crate::checkpoint::Checkpoint;
use crate::engine::{RunResult, WarmStart};
use crate::options::Options;
use crate::phases::ShardWork;
use crate::recovery::EngineError;
use crate::sizes::{PartitionPlan, SizeModel};
use crate::snapshot::{self, CheckpointPolicy};
use crate::snapshot_delta::{self, RestoredFromDisk};
use crate::stats::RunStats;
use crate::storage::StorageCtx;
use crate::store::{shard_payload, ShardStoreHandle};

use super::compress::{ShardCompression, RAW_TOPO_ENTRY_BYTES};
use super::compute::{host_work, ComputeSpecs};
use super::device::{Abort, DeviceCtx};
use super::durable::{DurableConfig, DurableWriter};
use super::host::HostState;
use super::movement::{in_bufs_for, out_bufs_for, Buf, BufSet, Movement};
use super::plan;

/// Iteration replays allowed before a persistent fault becomes
/// [`EngineError::Unrecoverable`] (guards against pathological hand-built
/// plans that fault the same op forever).
pub(crate) const REPLAY_CAP: u32 = 64;

/// Handle a persistent transient fault: count the rollback, log the
/// [`Decision::Rollback`], and let the caller replay from its checkpoint —
/// or surface [`EngineError::Unrecoverable`] once [`REPLAY_CAP`] replays
/// have burned. Shared verbatim by the single driver and the multi
/// orchestrator so both charge and log rollbacks identically.
pub(crate) fn roll_back(
    observer: &Observer,
    metrics: &mut MetricsRegistry,
    iter: u32,
    replays: u32,
    device: u32,
    op: &'static str,
    fault: DeviceFault,
) -> Result<(), EngineError> {
    if replays > REPLAY_CAP {
        return Err(EngineError::Unrecoverable { op });
    }
    metrics.inc("engine.rollbacks", 1);
    let name = fault.name();
    observer.decision(|| Decision::Rollback {
        iteration: iter,
        device,
        op,
        fault: name,
    });
    Ok(())
}

/// The single-GPU iteration driver (Figures 8-12): one [`DeviceCtx`], one
/// [`Movement`] policy, one [`ComputeSpecs`] table, one [`HostState`].
pub(crate) struct Runner<'a, P: GasProgram> {
    program: &'a P,
    layout: &'a GraphLayout,
    opts: &'a Options,
    sizes: SizeModel,
    plan: PartitionPlan,
    ctx: DeviceCtx,
    movement: Movement,
    specs: ComputeSpecs,
    host: HostState<P>,
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
    // Fault recovery: whether a fault plan is armed (gates per-iteration
    // checkpoints), and the degraded host-CPU mode entered after
    // permanent device loss.
    fault_active: bool,
    host_cfg: HostConfig,
    host_mode: bool,
    host_time: SimDuration,
    // Memory governor outcome: shards degraded to host execution.
    host_shards: Vec<bool>,
    any_host_shards: bool,
    // Durable checkpoints: the writer (full/delta schedule + snapshot
    // framing) when the policy is durable, and the run fingerprint
    // (computed only when durability or spill is armed).
    durable: Option<DurableWriter>,
    ckpt_off: bool,
    fingerprint: Option<snapshot::Fingerprint>,
    // Fault-hardened storage plane: every spill/checkpoint I/O goes
    // through it so injected I/O faults retry and degrade gracefully.
    storage: StorageCtx,
    // Shard compression: the gap-coded topology (if armed) the host
    // kernels decode through and the movement layer ships — built once per
    // session and shared by every query over it.
    comp: Option<Arc<ShardCompression>>,
    // Out-of-host-core spill: the store (if any), which shards were
    // evicted to it, and which have been verified back in already.
    store: Option<ShardStoreHandle>,
    spilled: Vec<bool>,
    spill_loaded: Vec<bool>,
    any_spilled: bool,
    // Process-kill fault: iteration boundary at which the run dies.
    kill_at: Option<u32>,
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
        warm: Option<WarmStart<P>>,
        restored: Option<RestoredFromDisk<P>>,
        observer: Observer,
        wall: WallProfiler,
        comp: Option<Arc<ShardCompression>>,
        lane: Option<String>,
    ) -> Result<Self, EngineError> {
        let fault_active = !opts.fault_plan.is_none();
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
                ctx.metrics.inc("engine.compressed_raw_bytes", raw);
                ctx.metrics.inc("engine.compressed_bytes", z);
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

        let (restored_state, restored_bytes, restored_chain) = match restored {
            Some(r) => (Some(r.state), r.bytes, r.delta),
            None => (None, 0, None),
        };
        let restored_boundary = restored_state.as_ref().map(|r| r.iterations.len() as u32);
        let host = match restored_state {
            Some(r) => {
                let b = r.iterations.len() as u32;
                ctx.metrics.inc("engine.checkpoint_restores", 1);
                observer.decision(|| Decision::CheckpointRestore {
                    iteration: b,
                    bytes: restored_bytes,
                });
                r
            }
            None => match warm {
                Some(w) => HostState::warm(program, layout, w),
                None => HostState::cold(program, layout),
            },
        };

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
        let storage_read_secs_per_byte = (over_host_ram && opts.shard_store.is_none())
            .then(|| 1.0 / (platform.storage.bandwidth_gbps * 1e9));

        // Spill rung: evict shards to the store. The governor already
        // marked unstageable shards; a graph beyond host DRAM evicts every
        // streamed shard (GraphChi-style out-of-host-core). Each eviction
        // writes the shard's topology payload and logs one ShardSpill.
        let mut spilled = governed.spilled;
        if let Some(h) = &opts.shard_store {
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
                match storage.spill_put(h, i as u32, &payload, 0)? {
                    Some(bytes) => {
                        ctx.metrics.inc("engine.spilled_shards", 1);
                        ctx.metrics.inc("engine.spilled_bytes", bytes);
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

        // Durable checkpoints: armed by CheckpointPolicy::Durable{,Delta}.
        // The fingerprint (also needed to validate spill-era state hashes)
        // is computed once up front. A resume seeds the writer's schedule
        // (and delta dirty chain) so it continues exactly where the killed
        // run left off.
        let durable_cfg = DurableConfig::from_policy(&opts.checkpoint_policy);
        let ckpt_off = matches!(opts.checkpoint_policy, CheckpointPolicy::Off);
        let fingerprint = (durable_cfg.is_some() || restored_boundary.is_some() || any_spilled)
            .then(|| snapshot::fingerprint_for(program, layout));
        let durable = durable_cfg.map(|cfg| {
            let fp = fingerprint
                .clone()
                .expect("fingerprint computed whenever durable is armed");
            let mut w = DurableWriter::new(cfg, fp, layout.num_vertices(), opts.shard_compression);
            if let Some(b) = restored_boundary {
                w.note_restored(b, restored_chain);
            }
            w
        });
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
            host,
            resident,
            in_cached: vec![false; num_shards],
            out_cached: vec![false; num_shards],
            fault_active,
            host_cfg: platform.host.clone(),
            host_mode: governed.host_run,
            host_time: SimDuration::ZERO,
            any_host_shards: governed.host_shards.iter().any(|&h| h),
            host_shards: governed.host_shards,
            durable,
            ckpt_off,
            fingerprint,
            storage,
            comp,
            store: opts.shard_store.clone(),
            spilled,
            spill_loaded: vec![false; num_shards],
            any_spilled,
            kill_at: opts.fault_plan.kill_at(),
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

    /// Current virtual time: device clock plus any degraded-mode host time.
    fn now_ns(&self) -> u64 {
        self.ctx.elapsed().as_nanos() + self.host_time.as_nanos()
    }

    pub(crate) fn run(mut self) -> Result<RunResult<P>, EngineError> {
        self.wall.set_algorithm(self.program.name());
        plan::emit_plan_decisions(
            &self.observer,
            self.opts.phase_fusion,
            self.program.has_gather(),
            self.program.has_scatter(),
        );
        self.emit_init()?;
        let max_iter = self.program.max_iterations();
        // Resume continues from the restored boundary (0 on a cold start);
        // a forced snapshot first makes even a kill at iteration 0
        // restartable.
        let mut iter = self.host.iterations.len() as u32;
        self.write_durable(true)?;
        while iter < max_iter && self.host.frontier.count() > 0 {
            if self.kill_at == Some(iter) {
                return Err(EngineError::Killed { iteration: iter });
            }
            let iter_start_ns = self.now_ns();
            self.run_iteration(iter)?;
            if let Some(w) = self.durable.as_mut() {
                w.record_iteration(&self.host.changed);
            }
            self.write_durable(false)?;
            let iter_end_ns = self.now_ns();
            let st = self
                .host
                .iterations
                .last()
                .expect("pushed by compute_iteration");
            self.observer.span(|| SpanEvent {
                track: "engine",
                lane: "iterations".into(),
                name: format!("iteration {iter}"),
                start_ns: iter_start_ns,
                dur_ns: iter_end_ns - iter_start_ns,
                fields: vec![
                    ("iteration", iter.into()),
                    ("frontier_size", st.frontier_size.into()),
                    ("changed", st.changed.into()),
                    ("shards_processed", st.shards_processed.into()),
                    ("shards_skipped", st.shards_skipped.into()),
                ],
            });
            let gpu_metrics = self.ctx.gpu_metrics();
            self.observer
                .snapshot(&format!("iteration {iter}"), || gpu_metrics.snapshot());
            iter += 1;
        }
        // Converged: force a final snapshot so a completed run's durable
        // state is the answer, not the last periodic boundary.
        self.write_durable(true)?;
        self.emit_finalize()?;
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
            iterations: iter,
            elapsed: gstats.elapsed + self.host_time,
            memcpy_time: gstats.memcpy_busy,
            kernel_time: gstats.kernel_busy,
            bytes_h2d: gstats.bytes_h2d,
            bytes_d2h: gstats.bytes_d2h,
            copy_ops: gstats.copy_ops,
            kernel_launches: gstats.kernel_launches,
            skipped_shard_copies: metrics.counter("engine.skipped_shard_copies"),
            skipped_kernel_launches: metrics.counter("engine.skipped_kernel_launches"),
            num_shards: self.plan.shards.len(),
            concurrent_shards: self.plan.concurrent,
            all_resident: self.resident,
            faults_injected: self.ctx.faults_injected(),
            recovered_retries: metrics.counter("engine.fault_retries"),
            rollbacks: metrics.counter("engine.rollbacks"),
            checkpoints: metrics.counter("engine.checkpoints"),
            host_fallback: self.host_mode,
            mem_pressure_events: metrics.counter("engine.mem_pressure"),
            shard_splits: metrics.counter("engine.shard_splits"),
            chunked_shards: metrics.counter("engine.chunked_shards"),
            chunked_copies: metrics.counter("engine.chunked_copies"),
            host_shards: metrics.counter("engine.host_shards"),
            mem_peak: self.ctx.mem_peak(),
            mem_min_headroom: self.ctx.mem_min_headroom(),
            checkpoint_writes: metrics.counter("engine.checkpoint_writes"),
            checkpoint_bytes_written: metrics.counter("engine.checkpoint_bytes"),
            checkpoint_full_bytes: metrics.counter("engine.checkpoint_full_bytes"),
            checkpoint_delta_writes: metrics.counter("engine.checkpoint_delta_writes"),
            checkpoint_delta_bytes: metrics.counter("engine.checkpoint_delta_bytes"),
            checkpoint_raw_bytes: metrics.counter("engine.checkpoint_raw_bytes"),
            checkpoint_restores: metrics.counter("engine.checkpoint_restores"),
            checkpoints_skipped: self.storage.counters.skipped,
            storage_retries: self.storage.counters.retries,
            spill_restreams: self.storage.counters.restreams,
            spilled_shards: metrics.counter("engine.spilled_shards"),
            spilled_bytes: metrics.counter("engine.spilled_bytes"),
            spill_loads: metrics.counter("engine.spill_loads"),
            spill_load_bytes: metrics.counter("engine.spill_load_bytes"),
            compression_codec: self.comp.as_ref().map(|c| c.codec().name()),
            compressed_bytes: metrics.counter("engine.compressed_bytes"),
            compressed_raw_bytes: metrics.counter("engine.compressed_raw_bytes"),
            decompress_launches: metrics.counter("engine.decompress_launches"),
            state_fingerprint: self
                .fingerprint
                .is_some()
                .then(|| snapshot::values_fingerprint(&self.host.vertex_values)),
            wall: self.wall.is_armed().then(|| self.wall.profile().summary()),
            per_iteration: self.host.iterations,
        };
        Ok(RunResult {
            vertex_values: self.host.vertex_values,
            edge_values: self.host.edge_values,
            stats,
        })
    }

    fn compute_iteration(&mut self, iter: u32) -> Vec<ShardWork> {
        let view = match &self.comp {
            Some(c) => c.view(self.layout),
            None => TopoView::raw(self.layout),
        };
        self.host.compute_iteration(
            self.program,
            view,
            &self.plan.shards,
            self.opts.host_kernels,
            self.opts.frontier_management,
            iter,
            &self.observer,
            &mut self.ctx.metrics,
            &self.wall,
        )
    }

    // ---------------- checkpoint / rollback / degraded mode ----------------

    /// One BSP iteration with fault recovery: checkpoint (only when a
    /// fault plan is armed), compute exact results on the host, emit the
    /// device timeline, and on a persistent fault restore the checkpoint
    /// and replay. The fault plan's monotone per-op counters guarantee a
    /// finite plan eventually stops faulting the replayed ops.
    fn run_iteration(&mut self, iter: u32) -> Result<(), EngineError> {
        if self.host_mode {
            return self.host_iteration(iter);
        }
        self.load_spilled(iter)?;
        // In-memory checkpoint before the attempt — skipped when a durable
        // snapshot already covers this exact boundary (the full-state
        // clone would duplicate what is safely on disk) and never taken
        // under CheckpointPolicy::Off.
        let durable_covers = self.durable.as_ref().is_some_and(|w| w.covers(iter));
        let ckpt = (self.fault_active && !durable_covers && !self.ckpt_off)
            .then(|| self.take_checkpoint());
        let mut replays = 0u32;
        loop {
            let work = self.compute_iteration(iter);
            let emitted = if self.opts.phase_fusion {
                self.emit_fused(iter, &work)
            } else {
                self.emit_unfused(iter, &work)
            };
            match emitted {
                Ok(()) => {
                    self.charge_host_shards(&work);
                    self.host.finish_iteration();
                    return Ok(());
                }
                Err(a) => {
                    replays += 1;
                    self.handle_abort(a, iter, replays)?;
                    if let Some(c) = ckpt.as_ref() {
                        self.restore(c);
                    } else if durable_covers {
                        self.restore_from_disk()?;
                    } else {
                        // CheckpointPolicy::Off with an armed fault plan:
                        // nothing to replay from.
                        return Err(EngineError::Unrecoverable { op: "checkpoint" });
                    }
                    if self.host_mode {
                        return self.host_iteration(iter);
                    }
                }
            }
        }
    }

    /// Delegate a durable snapshot of the current iteration boundary to
    /// the [`DurableWriter`] (no-op without a durable policy). Disk time
    /// is host-side and off the device timeline, so durable runs stay
    /// time-identical to in-memory-only runs.
    fn write_durable(&mut self, force: bool) -> Result<(), EngineError> {
        let Some(w) = self.durable.as_mut() else {
            return Ok(());
        };
        w.maybe_write(
            &self.host,
            force,
            &mut self.storage,
            &self.observer,
            &mut self.ctx.metrics,
        )
    }

    /// Replay-restore from the newest intact on-disk snapshot (taken when
    /// the in-memory clone was elided because a durable snapshot covers
    /// the boundary). Not a resume: no CheckpointRestore decision — the
    /// Rollback decision already records the replay.
    fn restore_from_disk(&mut self) -> Result<(), EngineError> {
        let w = self.durable.as_ref().expect("durable covers this boundary");
        let fp = self
            .fingerprint
            .as_ref()
            .expect("fingerprint computed whenever durable is armed");
        let r = snapshot_delta::load_newest::<P>(w.dir(), fp)?;
        self.host = r.state;
        self.in_cached.fill(false);
        self.out_cached.fill(false);
        Ok(())
    }

    /// First touch of a spilled shard: read its payload back from the
    /// store (verifying frame integrity) and log one ShardLoad. Shards the
    /// frontier never activates are never read back — the point of
    /// spilling.
    fn load_spilled(&mut self, iter: u32) -> Result<(), EngineError> {
        if !self.any_spilled {
            return Ok(());
        }
        let store = self.store.clone().expect("spilled shards imply a store");
        for i in 0..self.plan.shards.len() {
            if !self.spilled[i] || self.spill_loaded[i] || self.host_shards[i] {
                continue;
            }
            if self.opts.frontier_management {
                let sh = &self.plan.shards[i];
                if !self
                    .host
                    .frontier
                    .any_in_range(sh.interval.start, sh.interval.end)
                {
                    continue;
                }
            }
            let Some(payload) = self.storage.spill_get(&store, i as u32, iter)? else {
                // Retries exhausted: re-stream the shard from the source
                // graph (the host-resident layout) — results unaffected,
                // the StorageDegraded decision records the detour.
                self.spill_loaded[i] = true;
                continue;
            };
            let bytes = payload.len() as u64;
            self.ctx.metrics.inc("engine.spill_loads", 1);
            self.ctx.metrics.inc("engine.spill_load_bytes", bytes);
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

    fn take_checkpoint(&mut self) -> Checkpoint<P> {
        self.ctx.metrics.inc("engine.checkpoints", 1);
        self.host.checkpoint()
    }

    fn restore(&mut self, c: &Checkpoint<P>) {
        self.host.restore(c);
        // The faulted attempt may have moved only part of a shard: drop
        // all residency claims so the replay re-copies what it touches.
        self.in_cached.fill(false);
        self.out_cached.fill(false);
    }

    /// Central abort handling: device loss switches to host fallback (or
    /// fails the run when the policy forbids it); a persistent transient
    /// fault logs a [`Decision::Rollback`] so the caller replays from its
    /// checkpoint, bounded by [`REPLAY_CAP`].
    fn handle_abort(&mut self, a: Abort, iter: u32, replays: u32) -> Result<(), EngineError> {
        // Settle whatever the device finished before the fault; the time
        // the doomed attempt consumed stays on the clock — that work (and
        // its replay) is exactly what the counters record.
        self.ctx.sync_and_resolve();
        match a.fault {
            DeviceFault::Lost => {
                if !self.opts.recovery.host_fallback {
                    return Err(EngineError::DeviceLost);
                }
                self.ctx.metrics.inc("engine.host_fallback", 1);
                self.observer.decision(|| Decision::HostFallback {
                    iteration: iter,
                    device: 0,
                    rationale: "device lost: resuming on host CPU from last checkpoint",
                });
                self.host_mode = true;
                Ok(())
            }
            fault => roll_back(
                &self.observer,
                &mut self.ctx.metrics,
                iter,
                replays,
                0,
                a.op,
                fault,
            ),
        }
    }

    /// Governor-degraded shards: their slice of the iteration's work is
    /// charged on the host CPU with the same roofline model as full host
    /// fallback, once per *successful* iteration (replays re-charge the
    /// device work they redo, not the host's). Results are unaffected —
    /// the host computes every shard's results regardless.
    fn charge_host_shards(&mut self, work: &[ShardWork]) {
        if !self.any_host_shards {
            return;
        }
        let mut edges = 0u64;
        let mut vertices = 0u64;
        for (i, w) in work.iter().enumerate() {
            if self.host_shards[i] {
                edges += w.active_in_edges + w.out_edges_of_changed;
                vertices += w.active_vertices + w.changed_vertices;
            }
        }
        if vertices + edges == 0 {
            return;
        }
        let cw = host_work("host.shard", vertices, edges, &self.sizes);
        self.host_time +=
            self.host_cfg.pass_overhead + cpu_time(&self.host_cfg, self.host_cfg.cores, &cw);
    }

    /// Degraded mode after device loss: the iteration both computes *and
    /// is charged* on the host CPU, with the same roofline model the CPU
    /// baseline engines use. Results stay bit-identical — the host was
    /// computing them all along.
    fn host_iteration(&mut self, iter: u32) -> Result<(), EngineError> {
        let work = self.compute_iteration(iter);
        let edges: u64 = work
            .iter()
            .map(|w| w.active_in_edges + w.out_edges_of_changed)
            .sum();
        let vertices: u64 = work
            .iter()
            .map(|w| w.active_vertices + w.changed_vertices)
            .sum();
        let cw = host_work("host.fallback", vertices, edges, &self.sizes);
        self.host_time +=
            self.host_cfg.pass_overhead + cpu_time(&self.host_cfg, self.host_cfg.cores, &cw);
        self.host.finish_iteration();
        Ok(())
    }

    // ---------------- device timeline emission ----------------

    fn emit_init(&mut self) -> Result<(), EngineError> {
        // Governor whole-run host mode: nothing lives on the device, so
        // there is nothing to initialize (mirrors emit_finalize).
        if self.host_mode {
            return Ok(());
        }
        let mut replays = 0u32;
        loop {
            match self.try_emit_init() {
                Ok(()) => return Ok(()),
                Err(a) => {
                    // Nothing to roll back before iteration 0: the initial
                    // host state *is* the checkpoint.
                    replays += 1;
                    self.handle_abort(a, 0, replays)?;
                    if self.host_mode {
                        return Ok(());
                    }
                }
            }
        }
    }

    fn try_emit_init(&mut self) -> Result<(), Abort> {
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

    fn emit_finalize(&mut self) -> Result<(), EngineError> {
        // After host fallback the results are host-resident already (and
        // the device is gone): nothing to download.
        if self.host_mode {
            return Ok(());
        }
        let iter = self.host.iterations.len() as u32;
        let mut replays = 0u32;
        loop {
            match self.try_emit_finalize(iter) {
                Ok(()) => return Ok(()),
                Err(a) => {
                    replays += 1;
                    self.handle_abort(a, iter, replays)?;
                    if self.host_mode {
                        return Ok(());
                    }
                }
            }
        }
    }

    fn try_emit_finalize(&mut self, iter: u32) -> Result<(), Abort> {
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
                        self.ctx.metrics.inc("engine.skipped_shard_copies", 1);
                    }
                    self.ctx.metrics.inc("engine.skipped_kernel_launches", 2);
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
                self.ctx.metrics.inc("engine.skipped_kernel_launches", 1);
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
                    self.ctx.metrics.inc("engine.skipped_shard_copies", 1);
                }
                self.ctx.metrics.inc(
                    "engine.skipped_kernel_launches",
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
        self.ctx.metrics.inc("engine.decompress_launches", 1);
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
        self.ctx.metrics.inc("engine.skipped_shard_copies", 1);
        self.ctx.metrics.inc("engine.skipped_kernel_launches", 1);
    }
}
