//! Multi-GPU GraphReduce — the paper's first future-work item (Section 8:
//! "extending GraphReduce to support multiple on-node GPUs").
//!
//! Shards are distributed round-robin across `N` virtual devices, each with
//! its own PCIe link, streams, and memory pool; the vertex array and the
//! frontier bitmaps are **replicated** on every device (the paper's static
//! buffers, now per device). Every iteration:
//!
//! 1. each device runs the fused gather stage over *its* active shards;
//! 2. apply runs on the owner device of each interval;
//! 3. scatter + FrontierActivate run on the owner, then devices exchange
//!    the iteration's changed vertex values and activation bits through
//!    host memory (D2H from each owner, H2D broadcast to the others —
//!    every device has its own link, so uploads/downloads overlap across
//!    devices but serialize per link).
//!
//! Iteration wall time is the max across devices (devices progress their
//! own virtual clocks; a global barrier aligns them each stage).
//!
//! This module is a thin orchestrator over the shared execution core in
//! `exec`: it runs the same BSP loop as the single-GPU engine
//! (`exec/bsp.rs`: one host computation per iteration, one replay helper,
//! durable writes), every device op goes through a per-device
//! `DeviceCtx` (one retry/backoff policy for both engines), and kernels
//! are priced by the same `exec/compute.rs` builders. What remains
//! here is genuinely multi-GPU: shard placement and the per-GPU memory
//! governor (`govern_placement`), and a device timeline with BSP
//! barriers, the cross-device exchange and device eviction. Results stay
//! bit-identical to the single-device engine and the sequential oracle.
//!
//! Durable checkpoints extend to this orchestrator: arm them with
//! [`MultiGraphReduce::with_checkpoint_policy`] (`Durable` or
//! `DurableDelta`) and restart a killed run with
//! [`MultiGraphReduce::resume`]. Because results live in one
//! host-resident master state, a multi-GPU snapshot is that state with
//! the device count and shard placement at capture time recorded in the
//! frame header; on resume the placement is informational —
//! the orchestrator re-derives it for the *current* device set (a node
//! may come back short a GPU) and lets the governor redistribute, so
//! replay stays bit-identical across device counts. Checkpoint writes
//! happen at BSP barrier boundaries on the host and add no barriers and
//! no device time. The out-of-host-core shard store and compressed
//! shards (see `docs/DURABILITY.md`, `docs/COMPRESSION.md`) remain
//! single-GPU features: this orchestrator ignores
//! [`crate::Options::spill_dir`] and
//! [`crate::Options::shard_compression`], and the bench CLI rejects the
//! corresponding flags for multi-GPU runs.

use gr_graph::{split_shard, Bitmap, GraphLayout, Shard, TopoView};
use gr_observe::{Decision, MetricsRegistry, Observer, WallProfiler};
use gr_sim::{DeviceFault, FaultPlan, OutOfMemory, Platform, SimDuration};

use crate::api::GasProgram;
use crate::exec::bsp::{Bsp, Timeline};
use crate::exec::compute::{activate_kernel_spec, apply_kernel_spec, gather_map_spec};
use crate::exec::device::{barrier, barrier_observed, Abort, DeviceCtx};
use crate::exec::EngineMetric;
use crate::options::Options;
use crate::phases::ShardWork;
use crate::recovery::{EngineError, RecoveryPolicy};
use crate::session::GraphSession;
use crate::sizes::{PartitionPlan, SizeModel};
use crate::snapshot::{self, CheckpointPolicy};
use crate::snapshot_delta::{self, RestoredFromDisk};
use crate::storage::StorageCtx;

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
    num_gpus: u32,
    observer: Observer,
    wall: WallProfiler,
    fault_plans: Vec<(usize, FaultPlan)>,
    mem_caps: Vec<(usize, u64)>,
    checkpoint_policy: CheckpointPolicy,
}

impl<'g, P: GasProgram> MultiGraphReduce<'g, P> {
    pub fn new(program: P, layout: &'g GraphLayout, platform: Platform, num_gpus: u32) -> Self {
        MultiGraphReduce {
            program,
            // The orchestrator is a facade over the same build-once
            // session the single-GPU engine uses: the layout borrow, the
            // platform, and the partition-plan cache are graph-lifetime;
            // everything below (fault plans, caps, checkpoint policy) is
            // query-lifetime. Compression/spill stay single-GPU features,
            // so the session runs with default options.
            session: GraphSession::new(layout, platform, Options::default()),
            num_gpus: num_gpus.max(1),
            observer: Observer::disabled(),
            wall: WallProfiler::disarmed(),
            fault_plans: Vec::new(),
            mem_caps: Vec::new(),
            checkpoint_policy: CheckpointPolicy::default(),
        }
    }

    /// Attach an observer. Device events are tagged per lane (`gpu0/h2d`,
    /// `gpu1/kernel`, …); BSP barriers and iteration windows are emitted
    /// on the `"multi"` track.
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

    /// Arm a deterministic fault plan on one device (chaos testing).
    /// Plans for out-of-range device indices are ignored.
    pub fn with_fault_plan(mut self, device: usize, plan: FaultPlan) -> Self {
        self.fault_plans.push((device, plan));
        self
    }

    /// Arm durable checkpoints ([`CheckpointPolicy::Durable`] or
    /// [`CheckpointPolicy::DurableDelta`]): one versioned, checksummed
    /// snapshot of the master state — recording the device count and
    /// shard placement in its header — is written
    /// atomically at iteration boundary 0, every `every` completed
    /// iterations, and at convergence. Restart a killed run with
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
    /// split only when no device can take them whole. Caps for
    /// out-of-range device indices are ignored.
    pub fn with_mem_cap(mut self, device: usize, bytes: u64) -> Self {
        self.mem_caps.push((device, bytes));
        self
    }

    /// Bring up one device context, resolving this device's fault plan and
    /// memory cap (repeated builder calls overwrite, so the last entry
    /// wins — exactly what repeated `set_fault_plan`/`cap_memory` calls
    /// used to do).
    fn device_ctx(&self, d: usize) -> DeviceCtx {
        let fault_plan = self
            .fault_plans
            .iter()
            .rev()
            .find(|(i, _)| *i == d)
            .map(|(_, p)| p.clone())
            .unwrap_or_else(FaultPlan::none);
        let cap = self
            .mem_caps
            .iter()
            .rev()
            .find(|(i, _)| *i == d)
            .map(|&(_, c)| c);
        DeviceCtx::new(
            self.session.platform(),
            d,
            self.observer.clone(),
            Some(format!("gpu{d}/")),
            fault_plan,
            cap,
            RecoveryPolicy::default(),
        )
    }

    /// Execute to convergence.
    pub fn run(&self) -> Result<MultiRunResult<P>, EngineError> {
        self.run_inner(None)
    }

    /// Resume a previously killed (or completed) run from the newest
    /// intact snapshot in `dir`, then execute to convergence.
    ///
    /// Accepts every snapshot the single-GPU engine accepts (full, delta
    /// chain, compressed), with or without the placement map the
    /// orchestrator records. A recorded placement map is honored only
    /// when it fits the current device set exactly (same width, same
    /// shard count); otherwise ownership is re-derived for
    /// the *current* devices, so a run checkpointed on N GPUs can resume
    /// on fewer — the governor redistributes the orphaned shards exactly
    /// as it does after an eviction. Vertex state, per-iteration stats
    /// and the final fingerprint stay bit-identical to an uninterrupted
    /// run on the resumed device count.
    pub fn resume(
        &self,
        dir: impl AsRef<std::path::Path>,
    ) -> Result<MultiRunResult<P>, EngineError> {
        let fp = snapshot::fingerprint_for(&self.program, self.session.layout());
        let restored = snapshot_delta::load_newest::<P>(dir.as_ref(), &fp)?;
        self.run_inner(Some(restored))
    }

    fn run_inner(
        &self,
        restored: Option<RestoredFromDisk<P>>,
    ) -> Result<MultiRunResult<P>, EngineError> {
        let sizes = SizeModel::for_program(&self.program);
        let layout = self.session.layout();
        crate::session::check_seeds(&self.program, layout.num_vertices())?;
        let ngpu = self.num_gpus as usize;
        // Partition for a single device's memory (each device must hold
        // its own static buffers + its in-flight shards). The optimistic
        // plan is graph-lifetime state: the session caches it per byte
        // model, so repeated queries (and the serving layer) replan only
        // on the first run of each algorithm shape.
        let mut plan = self.session.multi_partition_plan(&sizes)?;

        let mut ctxs: Vec<DeviceCtx> = (0..ngpu).map(|d| self.device_ctx(d)).collect();
        for c in ctxs.iter_mut() {
            c.create_main_streams(plan.concurrent as usize);
        }

        // Shard ownership and device liveness: a lost device is evicted
        // and its shards redistributed round-robin over the survivors.
        // A resumed run checkpointed at the *same* width restores the
        // recorded placement (it may reflect earlier evictions or
        // governor moves); any width change re-derives round-robin for
        // the current device set and lets the governor redistribute.
        let recorded = restored.as_ref().and_then(|r| r.placement.as_ref());
        let mut owners: Vec<usize> = match recorded {
            Some(p)
                if p.num_gpus == self.num_gpus
                    && p.owners.len() == plan.shards.len()
                    && p.owners.iter().all(|&o| (o as usize) < ngpu) =>
            {
                p.owners.iter().map(|&o| o as usize).collect()
            }
            _ => (0..plan.shards.len()).map(|i| i % ngpu).collect(),
        };

        // Per-GPU memory governor (plan-level): relieve capped devices by
        // redistribution first, splitting only as a last resort.
        let mut metrics = MetricsRegistry::new();
        govern_placement(
            &mut metrics,
            &mut plan,
            &mut owners,
            &ctxs,
            &sizes,
            layout,
            &self.observer,
        )?;

        // Process-kill faults are device-agnostic (the whole process
        // dies): the earliest armed boundary across all plans wins. I/O
        // faults target host-side storage, which is shared — the first
        // plan carrying any drives the single StorageCtx.
        let kill_at = self
            .fault_plans
            .iter()
            .filter_map(|(_, p)| p.kill_at())
            .min();
        let io_plan = self
            .fault_plans
            .iter()
            .find(|(_, p)| p.has_io_faults())
            .map(|(_, p)| p.clone())
            .unwrap_or_else(FaultPlan::none);
        let storage = StorageCtx::new(&io_plan, RecoveryPolicy::default(), self.observer.clone());
        let fingerprinted =
            restored.is_some() || !matches!(self.checkpoint_policy, CheckpointPolicy::InMemoryOnly);

        // One host master state serves every device, because vertex state
        // is replicated. The loop reads its host-kernel, frontier, fusion
        // and codec settings from the default options the session was
        // built with; only the checkpoint policy is this engine's own.
        let opts = Options {
            checkpoint_policy: self.checkpoint_policy.clone(),
            ..Options::default()
        };
        let bsp = Bsp {
            program: &self.program,
            layout,
            opts: &opts,
            kill_at,
            observer: self.observer.clone(),
            wall: self.wall.clone(),
        };
        let mut c = Cluster {
            layout,
            plan,
            sizes,
            has_gather: self.program.has_gather(),
            num_gpus: self.num_gpus,
            ctxs,
            owners,
            alive: vec![true; ngpu],
            evictions: 0,
            global: SimDuration::ZERO,
            exchange_bytes: 0,
            metrics,
            storage,
            observer: self.observer.clone(),
        };
        let (host, iterations) = bsp.run(&mut c, None, restored)?;
        for (d, ctx) in c.ctxs.iter().enumerate() {
            self.observer
                .snapshot(&format!("gpu{d}"), || ctx.gpu_metrics().snapshot());
        }

        let metrics = &c.metrics;
        let stats = MultiRunStats {
            num_gpus: self.num_gpus,
            iterations,
            elapsed: c.global,
            per_gpu_memcpy: c.ctxs.iter().map(|c| c.stats().memcpy_busy).collect(),
            per_gpu_kernel: c.ctxs.iter().map(|c| c.stats().kernel_busy).collect(),
            exchange_bytes: c.exchange_bytes,
            num_shards: c.plan.shards.len(),
            evictions: c.evictions,
            faults_injected: c.ctxs.iter().map(|c| c.faults_injected()).sum(),
            mem_pressure_events: metrics.counter(EngineMetric::MemPressure),
            redistributions: metrics.counter(EngineMetric::Redistributions),
            shard_splits: metrics.counter(EngineMetric::ShardSplits),
            checkpoint_writes: metrics.counter(EngineMetric::CheckpointWrites),
            checkpoint_bytes_written: metrics.counter(EngineMetric::CheckpointBytes),
            checkpoint_full_bytes: metrics.counter(EngineMetric::CheckpointFullBytes),
            checkpoint_delta_writes: metrics.counter(EngineMetric::CheckpointDeltaWrites),
            checkpoint_delta_bytes: metrics.counter(EngineMetric::CheckpointDeltaBytes),
            checkpoint_restores: metrics.counter(EngineMetric::CheckpointRestores),
            checkpoints_skipped: metrics.counter(EngineMetric::CheckpointsSkipped),
            storage_retries: metrics.counter(EngineMetric::StorageRetries),
            state_fingerprint: fingerprinted
                .then(|| snapshot::values_fingerprint(&host.vertex_values)),
            per_iteration: host.iterations,
        };
        Ok(MultiRunResult {
            vertex_values: host.vertex_values,
            edge_values: host.edge_values,
            stats,
        })
    }
}

/// Relieve per-GPU memory pressure at plan time. A device is pressured
/// when its replicated static buffers plus `K` slots of its largest owned
/// shard exceed its (possibly capped) pool. Escalation per offending
/// shard: move it to the least-loaded device with headroom for it
/// ([`Decision::MemoryPressure`] `response: "redistribute"`), else split
/// it ([`Decision::ShardSplit`]); a shard that cannot shrink below any
/// device's budget surfaces [`EngineError::Alloc`]. Runs to a fixed
/// point: redistribution strictly shrinks the offender's footprint and
/// splits strictly shrink shards, so the loop terminates. Every response
/// is counted in `metrics`, the cluster's engine registry.
fn govern_placement(
    metrics: &mut MetricsRegistry<EngineMetric>,
    plan: &mut PartitionPlan,
    owners: &mut Vec<usize>,
    ctxs: &[DeviceCtx],
    sizes: &SizeModel,
    layout: &GraphLayout,
    observer: &Observer,
) -> Result<(), EngineError> {
    let ngpu = ctxs.len();
    let k = plan.concurrent.max(1) as u64;
    let budgets: Vec<u64> = ctxs
        .iter()
        .map(|c| c.mem_capacity().saturating_sub(plan.static_bytes))
        .collect();
    // The static buffers are replicated on every device; a device that
    // cannot even hold those cannot participate at all.
    for c in ctxs.iter() {
        let capacity = c.mem_capacity();
        if plan.static_bytes > capacity {
            return Err(EngineError::Alloc(OutOfMemory {
                requested: plan.static_bytes,
                available: capacity,
                capacity,
            }));
        }
    }
    if budgets.iter().all(|&b| k * plan.max_shard_bytes <= b) {
        return Ok(()); // every device fits the optimistic plan: no decisions
    }
    let mut split_any = false;
    loop {
        // Per-device load (total owned bytes) and worst owned shard.
        let mut load = vec![0u64; ngpu];
        let mut worst: Vec<u64> = vec![0; ngpu];
        for (i, sh) in plan.shards.iter().enumerate() {
            let b = sizes.shard_bytes(sh);
            load[owners[i]] += b;
            worst[owners[i]] = worst[owners[i]].max(b);
        }
        let Some(d) = (0..ngpu).find(|&d| k * worst[d] > budgets[d]) else {
            break;
        };
        let (idx, bytes) = plan
            .shards
            .iter()
            .enumerate()
            .filter(|&(i, _)| owners[i] == d)
            .map(|(i, s)| (i, sizes.shard_bytes(s)))
            .max_by_key(|&(_, b)| b)
            .expect("a pressured device owns at least one shard");
        // Rung 1: redistribute to the least-loaded device that can take
        // the shard whole alongside what it already owns.
        let target = (0..ngpu)
            .filter(|&t| t != d && k * bytes.max(worst[t]) <= budgets[t])
            .min_by_key(|&t| load[t]);
        if let Some(t) = target {
            owners[idx] = t;
            metrics.inc(EngineMetric::MemPressure, 1);
            metrics.inc(EngineMetric::Redistributions, 1);
            let (requested, available, capacity) = (k * bytes, budgets[d], ctxs[d].mem_capacity());
            observer.decision(|| Decision::MemoryPressure {
                device: d as u32,
                requested,
                available,
                capacity,
                response: "redistribute",
                scope: "device",
            });
            continue;
        }
        // Rung 2: split the shard in place (both halves stay with `d`;
        // the next pass may redistribute one of them).
        let shard = plan.shards[idx].clone();
        let halves = split_shard(layout, &shard)
            .filter(|(a, b)| sizes.shard_bytes(a).max(sizes.shard_bytes(b)) < bytes);
        let Some((left, right)) = halves else {
            return Err(EngineError::Alloc(OutOfMemory {
                requested: k * bytes,
                available: budgets[d],
                capacity: ctxs[d].mem_capacity(),
            }));
        };
        metrics.inc(EngineMetric::ShardSplits, 1);
        let vertices = shard.num_vertices();
        observer.decision(|| Decision::ShardSplit {
            shard: idx as u32,
            vertices,
            bytes,
        });
        plan.shards.splice(idx..=idx, [left, right]);
        owners.insert(idx + 1, d);
        split_any = true;
    }
    if split_any {
        for (i, sh) in plan.shards.iter_mut().enumerate() {
            sh.id = i;
        }
        plan.max_shard_bytes = plan
            .shards
            .iter()
            .map(|s| sizes.shard_bytes(s))
            .max()
            .unwrap_or(0);
    }
    Ok(())
}

/// The multi-GPU timeline: shard owners and device liveness, BSP
/// barriers on a stage-aligned global clock, the cross-device exchange,
/// and eviction after a device loss.
struct Cluster<'g> {
    layout: &'g GraphLayout,
    plan: PartitionPlan,
    sizes: SizeModel,
    has_gather: bool,
    num_gpus: u32,
    ctxs: Vec<DeviceCtx>,
    owners: Vec<usize>,
    alive: Vec<bool>,
    evictions: u32,
    global: SimDuration,
    /// Committed only when an iteration completes, so replays never
    /// double-count.
    exchange_bytes: u64,
    /// Orchestrator-level registry: governor responses, rollbacks,
    /// frontier observations, and the durable writer's and storage
    /// plane's counters. Never snapshotted.
    metrics: MetricsRegistry<EngineMetric>,
    storage: StorageCtx,
    observer: Observer,
}

impl Timeline for Cluster<'_> {
    const TRACK: &'static str = "multi";

    fn host_view(&self) -> (TopoView<'_>, &[Shard]) {
        (TopoView::raw(self.layout), &self.plan.shards)
    }

    fn io(&mut self) -> (&mut MetricsRegistry<EngineMetric>, &mut StorageCtx) {
        (&mut self.metrics, &mut self.storage)
    }

    fn now_ns(&self) -> u64 {
        self.global.as_nanos()
    }

    /// Static buffers replicated per device.
    fn init(&mut self) -> Result<(), Abort> {
        let vbytes = self.layout.num_vertices() as u64 * self.sizes.vertex_value;
        for (d, c) in self.ctxs.iter_mut().enumerate() {
            if self.alive[d] {
                let s = c.main_streams[0];
                c.h2d(s, vbytes, "multi.init.vertices", 0)?;
            }
        }
        barrier_observed(&mut self.ctxs, &mut self.global, "init", &self.observer);
        Ok(())
    }

    /// Gather/apply/activate stages on each shard's owner plus the
    /// cross-device exchange, every op routed through the shared
    /// [`DeviceCtx`] fault-retry path.
    fn iteration(&mut self, iter: u32, work: &[ShardWork], changed: &Bitmap) -> Result<(), Abort> {
        let (ctxs, owners, sizes) = (&mut self.ctxs, &self.owners, &self.sizes);
        let shards = &self.plan.shards;
        let (global, observer) = (&mut self.global, &self.observer);
        // Stage A: gather on each shard's owner device.
        if self.has_gather {
            for (i, sh) in shards.iter().enumerate() {
                if !work[i].is_active() {
                    continue;
                }
                let d = owners[i];
                let stream = ctxs[d].main_streams[i % ctxs[d].main_streams.len()];
                let bytes = sh.num_in_edges() * sizes.in_edge_bytes();
                ctxs[d].h2d(stream, bytes, "multi.in-edges", iter)?;
                let spec = gather_map_spec(sizes, &work[i], "multi.gather");
                ctxs[d].launch(stream, &spec, iter)?;
            }
            barrier_observed(ctxs, global, "gather", observer);
        }
        // Stage B: apply on owners.
        for (i, w) in work.iter().enumerate() {
            if !w.is_active() {
                continue;
            }
            let d = owners[i];
            let stream = ctxs[d].main_streams[i % ctxs[d].main_streams.len()];
            let spec = apply_kernel_spec(sizes, w, "multi.apply");
            ctxs[d].launch(stream, &spec, iter)?;
        }
        barrier_observed(ctxs, global, "apply", observer);
        // Stage C: scatter/activate on owners, then cross-device exchange
        // of changed vertex values + activation bits.
        for (i, sh) in shards.iter().enumerate() {
            if work[i].out_edges_of_changed == 0 {
                continue;
            }
            let d = owners[i];
            let stream = ctxs[d].main_streams[i % ctxs[d].main_streams.len()];
            let bytes = sh.num_out_edges() * sizes.out_edge_bytes();
            ctxs[d].h2d(stream, bytes, "multi.out-edges", iter)?;
            let spec = activate_kernel_spec(sizes, &work[i], "multi.activate");
            ctxs[d].launch(stream, &spec, iter)?;
        }
        // Exchange: each owner downloads its changed values; every live
        // device uploads the union of the *other* owners' changes.
        let mut changed_per_gpu = vec![0u64; ctxs.len()];
        for (i, sh) in shards.iter().enumerate() {
            changed_per_gpu[owners[i]] += changed.count_range(sh.interval.start, sh.interval.end);
        }
        let total_changed: u64 = changed_per_gpu.iter().sum();
        let live: Vec<usize> = (0..ctxs.len()).filter(|&d| self.alive[d]).collect();
        let mut exchanged = 0u64;
        if live.len() > 1 {
            for &d in &live {
                let s = ctxs[d].main_streams[0];
                let down = changed_per_gpu[d] * (sizes.vertex_value + 4);
                let up = (total_changed - changed_per_gpu[d]) * (sizes.vertex_value + 4);
                if down > 0 {
                    ctxs[d].d2h(s, down, "multi.exchange.down", iter)?;
                    exchanged += down;
                }
                if up > 0 {
                    ctxs[d].h2d(s, up, "multi.exchange.up", iter)?;
                    exchanged += up;
                }
            }
        } else {
            let d = live[0];
            let s = ctxs[d].main_streams[0];
            let bits: u64 = total_changed.div_ceil(8);
            ctxs[d].d2h(s, bits, "multi.frontier.bits", iter)?;
        }
        barrier_observed(ctxs, global, "exchange", observer);
        self.exchange_bytes += exchanged;
        Ok(())
    }

    /// Final download from owners.
    fn finalize(&mut self, iter: u32) -> Result<(), Abort> {
        for d in 0..self.ctxs.len() {
            if !self.alive[d] {
                continue;
            }
            let owned: u64 = self
                .plan
                .shards
                .iter()
                .zip(&self.owners)
                .filter(|&(_, &o)| o == d)
                .map(|(sh, _)| sh.num_vertices())
                .sum();
            let s = self.ctxs[d].main_streams[0];
            let bytes = owned * self.sizes.vertex_value;
            self.ctxs[d].d2h(s, bytes, "multi.final", iter)?;
        }
        barrier_observed(&mut self.ctxs, &mut self.global, "final", &self.observer);
        Ok(())
    }

    /// Device loss evicts the device and redistributes its shards
    /// round-robin over the survivors (logged as
    /// [`Decision::DeviceEvict`]); losing the last device fails the run.
    fn recover(&mut self, a: &Abort, iter: u32) -> Result<(), EngineError> {
        // Settle partial work: the doomed attempt's time stays on the
        // clock.
        self.global += barrier(&mut self.ctxs);
        if !matches!(a.fault, DeviceFault::Lost) {
            return Ok(());
        }
        self.alive[a.device] = false;
        let survivors: Vec<usize> = (0..self.alive.len()).filter(|&d| self.alive[d]).collect();
        if survivors.is_empty() {
            return Err(EngineError::DeviceLost);
        }
        let mut moved = 0u32;
        for o in self.owners.iter_mut() {
            if *o == a.device {
                *o = survivors[moved as usize % survivors.len()];
                moved += 1;
            }
        }
        self.evictions += 1;
        let device = a.device as u32;
        self.observer.decision(|| Decision::DeviceEvict {
            iteration: iter,
            device,
            shards_moved: moved,
        });
        Ok(())
    }

    fn placement(&self) -> Option<(u32, &[usize])> {
        Some((self.num_gpus, &self.owners))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::GraphReduce;
    use crate::options::Options;
    use crate::testprog::Cc;
    use gr_graph::gen;

    fn layout() -> GraphLayout {
        GraphLayout::build(&gen::rmat_g500(11, 30_000, 17).symmetrize())
    }

    #[test]
    fn multi_gpu_matches_single_device_results() {
        let l = layout();
        let plat = Platform::paper_node_scaled(1 << 14);
        let single = GraphReduce::new(Cc, &l, plat.clone(), Options::optimized())
            .run()
            .unwrap();
        for n in [1u32, 2, 4] {
            let multi = MultiGraphReduce::new(Cc, &l, plat.clone(), n)
                .run()
                .unwrap();
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
        let plat = Platform::paper_node_scaled(1 << 14);
        let (obs, sink) = Observer::recording();
        let res = MultiGraphReduce::new(Cc, &l, plat, 2)
            .with_observer(obs)
            .run()
            .unwrap();
        let rec = sink.recorded();
        // Every device's sim lanes carry its tag.
        assert!(rec
            .spans
            .iter()
            .any(|s| s.track == "sim" && s.lane.starts_with("gpu0/")));
        assert!(rec
            .spans
            .iter()
            .any(|s| s.track == "sim" && s.lane.starts_with("gpu1/")));
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
    fn reference_plan(l: &GraphLayout, plat: &Platform) -> PartitionPlan {
        let sizes = SizeModel {
            vertex_value: 4,
            gather: 4,
            edge_value: 0,
            has_gather: true,
            has_scatter: false,
        };
        crate::sizes::plan_partition(l, &sizes, &plat.device, &plat.pcie, 2, None).unwrap()
    }

    #[test]
    fn uncapped_multi_run_makes_no_governor_decisions() {
        let l = layout();
        let plat = Platform::paper_node_scaled(1 << 14);
        let (obs, sink) = Observer::recording();
        let res = MultiGraphReduce::new(Cc, &l, plat, 2)
            .with_observer(obs)
            .run()
            .unwrap();
        assert_eq!(res.stats.mem_pressure_events, 0);
        assert_eq!(res.stats.redistributions, 0);
        assert_eq!(res.stats.shard_splits, 0);
        assert_eq!(sink.recorded().memory_decisions(), 0);
    }

    #[test]
    fn capped_device_redistributes_before_splitting() {
        let l = layout();
        let plat = Platform::paper_node_scaled(1 << 14);
        let plan = reference_plan(&l, &plat);
        let baseline = MultiGraphReduce::new(Cc, &l, plat.clone(), 2)
            .run()
            .unwrap();
        // Device 0 can hold its static buffers but not a single shard
        // slot: everything it owned must move to device 1, which has
        // full headroom. No splits are needed.
        let (obs, sink) = Observer::recording();
        let capped = MultiGraphReduce::new(Cc, &l, plat, 2)
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
        let plat = Platform::paper_node_scaled(1 << 14);
        let plan = reference_plan(&l, &plat);
        let baseline = MultiGraphReduce::new(Cc, &l, plat.clone(), 1)
            .run()
            .unwrap();
        // A single device just below the plan's requirement has nowhere
        // to redistribute: the largest shard must split.
        let k = plan.concurrent.max(1) as u64;
        let cap = plan.static_bytes + k * plan.max_shard_bytes - 1;
        let capped = MultiGraphReduce::new(Cc, &l, plat, 1)
            .with_mem_cap(0, cap)
            .run()
            .unwrap();
        assert_eq!(capped.vertex_values, baseline.vertex_values);
        assert!(capped.stats.shard_splits > 0);
        assert_eq!(capped.stats.redistributions, 0);
    }

    #[test]
    fn cap_below_static_footprint_is_a_clean_alloc_error() {
        let l = layout();
        let plat = Platform::paper_node_scaled(1 << 14);
        let plan = reference_plan(&l, &plat);
        let res = MultiGraphReduce::new(Cc, &l, plat, 2)
            .with_mem_cap(1, plan.static_bytes - 1)
            .run();
        match res {
            Err(EngineError::Alloc(_)) => {}
            Err(other) => panic!("expected Alloc, got {other:?}"),
            Ok(_) => panic!("expected Alloc error, run succeeded"),
        }
    }

    #[test]
    fn iteration_counts_match_single_device() {
        let l = layout();
        let plat = Platform::paper_node_scaled(1 << 14);
        let single = GraphReduce::new(Cc, &l, plat.clone(), Options::optimized())
            .run()
            .unwrap();
        let multi = MultiGraphReduce::new(Cc, &l, plat, 3).run().unwrap();
        assert_eq!(multi.stats.iterations, single.stats.iterations);
        let s: Vec<u64> = single.stats.frontier_sizes();
        let m: Vec<u64> = multi
            .stats
            .per_iteration
            .iter()
            .map(|i| i.frontier_size)
            .collect();
        assert_eq!(s, m);
    }
}
