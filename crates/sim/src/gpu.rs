//! The `Gpu` facade: CUDA-style streams, events, async copies, and kernel
//! launches on top of the discrete-event scheduler.
//!
//! Semantics follow the CUDA execution model the paper relies on:
//!
//! * Operations within one stream execute in submission order.
//! * Operations in different streams may overlap, subject to hardware:
//!   one H2D DMA engine, one D2H DMA engine (Kepler has both), and a pool of
//!   concurrent-kernel slots.
//! * Every async submission pays a host-side *issue* cost on the hardware
//!   queue its stream maps to. Kepler's Hyper-Q provides 32 such queues;
//!   streams are assigned round-robin. With a single stream, issue costs
//!   serialize — this is the overhead the spray operation (Section 5.1)
//!   pipelines away by spreading a shard's sub-array copies over many
//!   streams.
//! * Events capture a point in a stream; other streams can wait on them.
//! * `synchronize()` is a full-device barrier: it resolves the schedule and
//!   advances the host's view of virtual time.
//!
//! Kernels' *results* are computed eagerly by the caller on the host (the
//! simulator charges time, not semantics), so host code can inspect outputs
//! immediately — mirroring how the real framework reads back frontier
//! feedback after each phase.

use gr_observe::{InstantEvent, MetricTable, MetricsRegistry, Observer, SpanEvent};

use crate::config::{DeviceConfig, PcieConfig, Platform};
use crate::fault::{DeviceFault, DeviceHealth, FaultOp, FaultPlan, FaultState};
use crate::kernel::{kernel_time, KernelSpec};
use crate::memory::{Allocation, MemoryPool, OutOfMemory};
use crate::schedule::{Capacity, OpId, ResourceId, Scheduler};
use crate::time::{SimDuration, SimTime};
use crate::xfer::copy_time;

/// Why an infallible op panics: it met a fault, which only happens when a
/// plan is armed. Devices with a plan use the `try_*` entry points.
const NO_PLAN: &str = "infallible device op on a device with an armed fault plan";

gr_observe::metric_table! {
    /// The device registry's series ([`Gpu::metrics`]), each explained in
    /// `docs/OBSERVABILITY.md`.
    pub enum DeviceMetric {
        H2dBytes: Counter("h2d.bytes"),
        H2dOps: Counter("h2d.ops"),
        H2dTimeNs: Counter("h2d.time_ns"),
        H2dSizeBytes: Histogram("h2d.size_bytes"),
        D2hBytes: Counter("d2h.bytes"),
        D2hOps: Counter("d2h.ops"),
        D2hTimeNs: Counter("d2h.time_ns"),
        D2hSizeBytes: Histogram("d2h.size_bytes"),
        KernelLaunches: Counter("kernel.launches"),
        KernelTimeNs: Counter("kernel.time_ns"),
        KernelDurationNs: Histogram("kernel.duration_ns"),
        OpCount: Labeled("op.count"),
        OpTimeNs: Labeled("op.time_ns"),
        OpBytes: Labeled("op.bytes"),
        FaultInjected: Counter("fault.injected"),
        FaultDeviceLost: Counter("fault.device_lost"),
        FaultTransient: Labeled("fault.transient"),
        FaultDegradedOps: Counter("fault.degraded_ops"),
        FaultEccStalls: Counter("fault.ecc_stalls"),
    }
}

/// Direction of a host↔device copy: picks the DMA engine, the fault
/// class and the `h2d.*` / `d2h.*` counter series.
#[derive(Clone, Copy)]
enum Dir {
    H2d,
    D2h,
}

/// Handle to a created stream.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct StreamId(usize);

/// A recorded event: a point in some stream other streams can wait on.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Event(Option<OpId>);

#[derive(Debug)]
struct StreamState {
    /// Hardware queue this stream maps to.
    queue: ResourceId,
    /// Last issue op in this stream (issues are stream-ordered).
    last_issue: Option<OpId>,
    /// Last execution op in this stream (execs are stream-ordered).
    last_exec: Option<OpId>,
    /// Event deps to attach to the next exec op.
    pending_waits: Vec<OpId>,
}

/// Summary statistics of a finished (synchronized) device timeline.
#[derive(Clone, Debug, PartialEq)]
pub struct GpuStats {
    /// Virtual time at the last synchronization (the run's wall time).
    pub elapsed: SimDuration,
    /// Busy time of the copy engines (both directions).
    pub memcpy_busy: SimDuration,
    /// Busy time of the kernel slots (sums overlapped kernels).
    pub kernel_busy: SimDuration,
    /// Bytes moved host-to-device.
    pub bytes_h2d: u64,
    /// Bytes moved device-to-host.
    pub bytes_d2h: u64,
    /// Copy op count (both directions).
    pub copy_ops: u64,
    /// Kernel launch count.
    pub kernel_launches: u64,
}

/// The virtual accelerator device.
///
/// Each op kind has one path: copies, launches and allocations consult
/// the fault plan, then are priced, accounted in [`Gpu::metrics`] and
/// submitted once. The infallible `h2d` / `d2h` / `launch` delegate to
/// their `try_*` forms and require that no fault plan is armed.
///
/// ```
/// use gr_sim::{Gpu, KernelSpec, Platform};
///
/// let mut gpu = Gpu::new(&Platform::paper_node());
/// let copy_stream = gpu.create_stream();
/// let exec_stream = gpu.create_stream();
///
/// // Upload a buffer, launch a kernel that consumes it, read a result back.
/// gpu.h2d(copy_stream, 64 << 20, "input");
/// let ready = gpu.record_event(copy_stream);
/// gpu.wait_event(exec_stream, ready);
/// gpu.launch(exec_stream, &KernelSpec::balanced("sum", 1 << 20, 2.0, 64 << 20, 0));
/// gpu.d2h(exec_stream, 4096, "result");
///
/// let elapsed = gpu.synchronize();
/// assert!(elapsed.as_nanos() > 0);
/// let stats = gpu.stats();
/// assert_eq!(stats.copy_ops, 2);
/// assert_eq!(stats.kernel_launches, 1);
/// ```
pub struct Gpu {
    device: DeviceConfig,
    pcie: PcieConfig,
    sched: Scheduler,
    pool: MemoryPool,
    queues: Vec<ResourceId>,
    h2d_engine: ResourceId,
    d2h_engine: ResourceId,
    kernel_slots: ResourceId,
    sync_resource: ResourceId,
    streams: Vec<StreamState>,
    next_queue: usize,
    barrier: SimTime,
    /// Single source of truth for transfer/launch accounting, written
    /// by `account` alone; [`GpuStats`] derives from it.
    metrics: MetricsRegistry<DeviceMetric>,
    observer: Observer,
    /// Prefix for event lanes (e.g. `"gpu2/"` in multi-GPU runs).
    lane_prefix: String,
    /// Fault-injection state; `None` (the default) makes every fault
    /// check return at its first branch.
    faults: Option<Box<FaultState>>,
}

impl Gpu {
    /// Create a device from a platform description.
    pub fn new(platform: &Platform) -> Self {
        Self::with_configs(platform.device.clone(), platform.pcie.clone())
    }

    /// Create a device from explicit device/link configs.
    pub fn with_configs(device: DeviceConfig, pcie: PcieConfig) -> Self {
        let mut sched = Scheduler::new();
        let queues = (0..device.hyperq_width.max(1))
            .map(|i| sched.add_resource(format!("hwq{i}"), Capacity::Finite(1)))
            .collect();
        let h2d_engine = sched.add_resource("h2d", Capacity::Finite(1));
        let d2h_engine = if device.dual_copy_engines {
            sched.add_resource("d2h", Capacity::Finite(1))
        } else {
            h2d_engine
        };
        let kernel_slots = sched.add_resource(
            "kernels",
            Capacity::Finite(device.max_concurrent_kernels.max(1)),
        );
        let sync_resource = sched.add_resource("sync", Capacity::Infinite);
        let pool = MemoryPool::new(device.mem_capacity);
        Gpu {
            device,
            pcie,
            sched,
            pool,
            queues,
            h2d_engine,
            d2h_engine,
            kernel_slots,
            sync_resource,
            streams: Vec::new(),
            next_queue: 0,
            barrier: SimTime::ZERO,
            metrics: MetricsRegistry::new(),
            observer: Observer::disabled(),
            lane_prefix: String::new(),
            faults: None,
        }
    }

    /// Attach a deterministic fault plan (see [`crate::fault`]). The
    /// default [`FaultPlan::none()`] stores nothing: every op then runs
    /// at the nominal rate, adding no ops and no stalls.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = if plan.is_none() {
            None
        } else {
            Some(Box::new(FaultState::new(plan)))
        };
    }

    /// Current device health, derived from the fault plan and the
    /// device clock: `Lost` once the scheduled loss time has passed (or
    /// a loss was already observed by an op), `Degraded` while inside a
    /// bandwidth-degradation window.
    pub fn health(&self) -> DeviceHealth {
        let Some(st) = self.faults.as_deref() else {
            return DeviceHealth::Healthy;
        };
        let now = self.barrier.as_nanos();
        if st.is_lost() || st.plan().loss_at().is_some_and(|at| now >= at) {
            DeviceHealth::Lost
        } else if st.plan().degrade_factor_at(now) > 1.0 {
            DeviceHealth::Degraded
        } else {
            DeviceHealth::Healthy
        }
    }

    /// Faults injected so far: transient op faults plus (once) device
    /// loss. ECC stalls and degraded copies are slowdowns, not faults,
    /// and live in the `fault.ecc_stalls` / `fault.degraded_ops`
    /// counters instead.
    pub fn faults_injected(&self) -> u64 {
        self.metrics.counter(DeviceMetric::FaultInjected)
    }

    /// Attach an observer: resolved device ops are emitted as `"sim"`
    /// track spans at every `synchronize`, and OOM rejections as
    /// instants.
    pub fn set_observer(&mut self, observer: Observer) {
        self.observer = observer;
    }

    /// Attach an observer with a lane prefix, so several devices can
    /// share one sink without colliding (lanes become `"gpu0/h2d"`…).
    pub fn set_observer_tagged(&mut self, observer: Observer, prefix: impl Into<String>) {
        self.observer = observer;
        self.lane_prefix = prefix.into();
    }

    /// Device description this GPU was built from.
    pub fn device(&self) -> &DeviceConfig {
        &self.device
    }

    /// PCIe link description.
    pub fn pcie(&self) -> &PcieConfig {
        &self.pcie
    }

    /// Device memory pool (capacity accounting).
    pub fn memory(&self) -> &MemoryPool {
        &self.pool
    }

    /// Cap the device's usable memory below its nominal size — the memory
    /// governor's model of runtime free-memory shortfall (co-tenants,
    /// fragmentation, driver reservations). Existing allocations are kept;
    /// the cap only constrains what can still be reserved.
    pub fn cap_memory(&mut self, bytes: u64) {
        self.pool.set_capacity(bytes.min(self.device.mem_capacity));
    }

    /// Reserve device memory; fails with OOM past capacity (emitting
    /// an `"oom"` instant event when an observer is attached).
    pub fn alloc(&self, bytes: u64) -> Result<Allocation, OutOfMemory> {
        self.pool.alloc(bytes).map_err(|oom| self.report_oom(oom))
    }

    /// Emit the `"oom"` instant of a rejected allocation, real or forced.
    fn report_oom(&self, oom: OutOfMemory) -> OutOfMemory {
        let at = self.barrier.as_nanos();
        let lane = format!("{}memory", self.lane_prefix);
        self.observer.instant(|| InstantEvent {
            track: "sim",
            lane,
            name: "oom".into(),
            at_ns: at,
            fields: vec![
                ("requested", oom.requested.into()),
                ("available", oom.available.into()),
            ],
        });
        oom
    }

    /// Create a stream, bound round-robin to a hardware queue.
    pub fn create_stream(&mut self) -> StreamId {
        let queue_idx = self.next_queue % self.queues.len();
        let queue = self.queues[queue_idx];
        let stream_idx = self.streams.len();
        let at = self.barrier.as_nanos();
        let lane = format!("{}streams", self.lane_prefix);
        self.observer.instant(|| InstantEvent {
            track: "sim",
            lane,
            name: "stream.created".into(),
            at_ns: at,
            fields: vec![
                ("stream", stream_idx.into()),
                ("hw_queue", queue_idx.into()),
            ],
        });
        self.next_queue += 1;
        self.streams.push(StreamState {
            queue,
            last_issue: None,
            last_exec: None,
            pending_waits: Vec::new(),
        });
        StreamId(self.streams.len() - 1)
    }

    /// Submit one stream op as issue (hardware queue) + body (engine) +
    /// optional latency tail. The tail does not occupy the engine: DMA setup
    /// latency of queued descriptors pipelines behind the previous
    /// transfer's data movement, so back-to-back small copies from different
    /// streams pack at body cadence while a single stream pays
    /// body+latency per copy (its next op waits for *completion*).
    fn submit(
        &mut self,
        stream: StreamId,
        engine: ResourceId,
        body: SimDuration,
        tail: SimDuration,
        label: &'static str,
    ) -> OpId {
        let s = &mut self.streams[stream.0];
        // Issue phase: occupies the hardware queue for the issue overhead,
        // ordered after the stream's previous issue.
        let issue = self.sched.submit(
            s.queue,
            self.pcie.issue_overhead,
            s.last_issue.as_slice(),
            self.barrier,
            "issue",
        );
        s.last_issue = Some(issue);
        // Execution phase: occupies the engine, after the issue, the
        // stream's previous op completion, and any pending event waits
        // (gathered in `pending_waits`, whose buffer is kept).
        let exec = if s.pending_waits.is_empty() {
            let deps = [issue, s.last_exec.unwrap_or(issue)];
            let n = 1 + usize::from(s.last_exec.is_some());
            self.sched
                .submit(engine, body, &deps[..n], self.barrier, label)
        } else {
            s.pending_waits.push(issue);
            s.pending_waits.extend(s.last_exec);
            let exec = self
                .sched
                .submit(engine, body, &s.pending_waits, self.barrier, label);
            s.pending_waits.clear();
            exec
        };
        let done = if tail.is_zero() {
            exec
        } else {
            self.sched
                .submit(self.sync_resource, tail, &[exec], self.barrier, label)
        };
        s.last_exec = Some(done);
        done
    }

    /// Account one copy (`dir`) or kernel launch (`None`) in the device
    /// registry: the one per-op accounting site behind [`GpuStats`].
    fn account(&mut self, dir: Option<Dir>, bytes: u64, dur: SimDuration, label: &'static str) {
        let ns = dur.as_nanos();
        let m = &mut self.metrics;
        match dir {
            Some(Dir::H2d) => {
                m.inc(DeviceMetric::H2dBytes, bytes);
                m.inc(DeviceMetric::H2dOps, 1);
                m.inc(DeviceMetric::H2dTimeNs, ns);
                m.observe(DeviceMetric::H2dSizeBytes, bytes);
            }
            Some(Dir::D2h) => {
                m.inc(DeviceMetric::D2hBytes, bytes);
                m.inc(DeviceMetric::D2hOps, 1);
                m.inc(DeviceMetric::D2hTimeNs, ns);
                m.observe(DeviceMetric::D2hSizeBytes, bytes);
            }
            None => {
                m.inc(DeviceMetric::KernelLaunches, 1);
                m.inc(DeviceMetric::KernelTimeNs, ns);
                m.observe(DeviceMetric::KernelDurationNs, ns);
            }
        }
        m.inc_labeled_each(
            [
                DeviceMetric::OpCount,
                DeviceMetric::OpTimeNs,
                DeviceMetric::OpBytes,
            ],
            label,
            [1, ns, bytes],
        );
    }

    /// Enqueue an async host-to-device copy of `bytes` on `stream`.
    /// Requires that no fault plan is armed (else see [`Gpu::try_h2d`]).
    pub fn h2d(&mut self, stream: StreamId, bytes: u64, label: &'static str) -> OpId {
        self.try_h2d(stream, bytes, label).expect(NO_PLAN)
    }

    /// Enqueue an async device-to-host copy of `bytes` on `stream`.
    /// Requires that no fault plan is armed (else see [`Gpu::try_d2h`]).
    pub fn d2h(&mut self, stream: StreamId, bytes: u64, label: &'static str) -> OpId {
        self.try_d2h(stream, bytes, label).expect(NO_PLAN)
    }

    /// Enqueue a kernel launch on `stream`; the caller performs the actual
    /// computation on the host (eagerly), this charges its simulated time.
    /// Requires that no fault plan is armed (else see [`Gpu::try_launch`]).
    pub fn launch(&mut self, stream: StreamId, spec: &KernelSpec) -> OpId {
        self.try_launch(stream, spec).expect(NO_PLAN)
    }

    /// Consult the fault plan before an op of class `op`. `Ok(idx)` means
    /// proceed (with the consumed per-class op index, when a plan is
    /// attached); `Err` means the op must not be performed. Device loss
    /// is evaluated against the barrier clock, becomes sticky, and is
    /// counted/emitted exactly once; allocations never observe loss
    /// (they are host-side bookkeeping), so a runner can still be built
    /// on a device that dies at t=0 and then fall back cleanly.
    fn fault_check(&mut self, op: FaultOp) -> Result<Option<u64>, DeviceFault> {
        let Some(state) = self.faults.as_deref_mut() else {
            return Ok(None);
        };
        let now = self.barrier.as_nanos();
        let check_loss = op != FaultOp::Alloc;
        let mut newly_lost = false;
        if check_loss && !state.is_lost() {
            if let Some(at) = state.plan().loss_at() {
                if now >= at {
                    state.mark_lost();
                    newly_lost = true;
                }
            }
        }
        let outcome = if check_loss && state.is_lost() {
            Err(DeviceFault::Lost)
        } else {
            let idx = state.next_index(op);
            if state.plan().faults_at(op, idx) {
                Err(DeviceFault::Transient { op })
            } else {
                Ok(Some(idx))
            }
        };
        match outcome {
            Err(DeviceFault::Lost) if newly_lost => {
                self.metrics.inc(DeviceMetric::FaultInjected, 1);
                self.metrics.inc(DeviceMetric::FaultDeviceLost, 1);
                self.emit_fault_instant(DeviceMetric::FaultDeviceLost.name(), op, now);
            }
            Err(DeviceFault::Transient { .. }) => {
                self.metrics.inc(DeviceMetric::FaultInjected, 1);
                self.metrics
                    .inc_labeled(DeviceMetric::FaultTransient, op.name(), 1);
                self.emit_fault_instant(DeviceMetric::FaultTransient.name(), op, now);
            }
            _ => {}
        }
        outcome
    }

    fn emit_fault_instant(&self, name: &'static str, op: FaultOp, at_ns: u64) {
        let lane = format!("{}faults", self.lane_prefix);
        self.observer.instant(|| InstantEvent {
            track: "sim",
            lane,
            name: name.into(),
            at_ns,
            fields: vec![("op", op.name().into())],
        });
    }

    /// The one copy path. Consults the fault plan; a transient fault
    /// charges the partial transfer the engine made before it errored
    /// (half the bytes at the nominal explicit rate, so injected faults
    /// stay visible on the timeline and in the byte counters); a
    /// degradation window slows the copy by its factor. Then prices,
    /// accounts and submits: an explicit copy's DMA setup latency trails
    /// off the engine, zero-copy streaming has none.
    fn copy(
        &mut self,
        stream: StreamId,
        dir: Dir,
        zero_copy: bool,
        bytes: u64,
        label: &'static str,
    ) -> Result<OpId, DeviceFault> {
        let (engine, op, fault_label) = match dir {
            Dir::H2d => (self.h2d_engine, FaultOp::H2d, "fault.h2d"),
            Dir::D2h => (self.d2h_engine, FaultOp::D2h, "fault.d2h"),
        };
        let fault = self.fault_check(op).err();
        let (bytes, zero_copy, factor, label) = match fault {
            Some(DeviceFault::Lost) => return Err(DeviceFault::Lost),
            Some(_) => (bytes / 2, false, 1.0, fault_label),
            None => {
                let factor = self.faults.as_deref().map_or(1.0, |st| {
                    st.plan().degrade_factor_at(self.barrier.as_nanos())
                });
                if factor > 1.0 {
                    self.metrics.inc(DeviceMetric::FaultDegradedOps, 1);
                }
                (bytes, zero_copy, factor, label)
            }
        };
        let dur = copy_time(&self.pcie, bytes, zero_copy, factor);
        let tail = if zero_copy {
            SimDuration::ZERO
        } else {
            self.pcie.transfer_latency
        };
        self.account(Some(dir), bytes, dur, label);
        let id = self.submit(stream, engine, dur - tail, tail, label);
        fault.map_or(Ok(id), Err)
    }

    /// Fallible [`Gpu::h2d`]: consults the fault plan first. A transient
    /// fault charges a partial (aborted) transfer; inside a degradation
    /// window the copy runs at the degraded rate.
    pub fn try_h2d(
        &mut self,
        stream: StreamId,
        bytes: u64,
        label: &'static str,
    ) -> Result<OpId, DeviceFault> {
        self.copy(stream, Dir::H2d, false, bytes, label)
    }

    /// Enqueue zero-copy (pinned/UVA) sequential streaming of `bytes` on
    /// `stream`: no staging DMA — the kernel's loads stream over PCIe at
    /// the pinned-sequential rate (slightly above the explicit-copy rate,
    /// Figure 4), occupying the H2D engine for the duration. Only valid
    /// for sequentially-accessed buffers; random zero-copy access is
    /// modeled by [`crate::xfer::transfer_access_time`] and is
    /// catastrophic. Faults like [`Gpu::try_h2d`] (same fault class:
    /// both occupy the H2D engine).
    pub fn try_h2d_zero_copy(
        &mut self,
        stream: StreamId,
        bytes: u64,
        label: &'static str,
    ) -> Result<OpId, DeviceFault> {
        self.copy(stream, Dir::H2d, true, bytes, label)
    }

    /// Fallible [`Gpu::d2h`], with the fault handling of [`Gpu::try_h2d`].
    pub fn try_d2h(
        &mut self,
        stream: StreamId,
        bytes: u64,
        label: &'static str,
    ) -> Result<OpId, DeviceFault> {
        self.copy(stream, Dir::D2h, false, bytes, label)
    }

    /// Fallible [`Gpu::launch`]. A faulted launch charges a kernel slot
    /// for the fixed launch overhead only (the kernel died at startup); a
    /// launch inside an ECC-stall schedule succeeds but pays
    /// [`DeviceConfig::ecc_retry_stall`] as a latency tail.
    pub fn try_launch(&mut self, stream: StreamId, spec: &KernelSpec) -> Result<OpId, DeviceFault> {
        let checked = self.fault_check(FaultOp::Launch);
        let overhead = self.device.kernel_launch_overhead;
        let (dur, stall, label) = match checked {
            Err(DeviceFault::Lost) => return Err(DeviceFault::Lost),
            Err(_) => (overhead, SimDuration::ZERO, "fault.kernel"),
            Ok(idx) => {
                let ecc = match (idx, self.faults.as_deref()) {
                    (Some(i), Some(st)) => st.plan().ecc_at(i),
                    _ => false,
                };
                let stall = if ecc {
                    self.metrics.inc(DeviceMetric::FaultEccStalls, 1);
                    let at = self.barrier.as_nanos();
                    self.emit_fault_instant("fault.ecc_stall", FaultOp::Launch, at);
                    self.device.ecc_retry_stall
                } else {
                    SimDuration::ZERO
                };
                (kernel_time(&self.device, spec), stall, spec.label)
            }
        };
        self.account(None, 0, dur + stall, label);
        let id = self.submit(stream, self.kernel_slots, dur, stall, label);
        checked.map(|_| id)
    }

    /// Fallible [`Gpu::alloc`]: allocation-pressure faults in the plan
    /// synthesize an [`OutOfMemory`] (capacity from the real pool;
    /// `available` reported as 0 because the pressure is external),
    /// emitted as an `"oom"` instant like a real rejection.
    pub fn try_alloc(&mut self, bytes: u64) -> Result<Allocation, OutOfMemory> {
        if self.fault_check(FaultOp::Alloc).is_ok() {
            return self.alloc(bytes);
        }
        Err(self.report_oom(OutOfMemory {
            requested: bytes,
            available: 0,
            capacity: self.pool.capacity(),
        }))
    }

    /// Enqueue a fixed-duration stall on `stream` (host-side work between
    /// device operations: iteration management, result inspection, grid
    /// teardown). Occupies no engine — only the stream's ordering.
    pub fn stall(&mut self, stream: StreamId, duration: SimDuration, label: &'static str) -> OpId {
        self.submit(
            stream,
            self.sync_resource,
            duration,
            SimDuration::ZERO,
            label,
        )
    }

    /// Record an event at the current tail of `stream`.
    pub fn record_event(&self, stream: StreamId) -> Event {
        Event(self.streams[stream.0].last_exec)
    }

    /// Make the next op submitted to `stream` wait for `event`.
    pub fn wait_event(&mut self, stream: StreamId, event: Event) {
        if let Event(Some(op)) = event {
            self.streams[stream.0].pending_waits.push(op);
        }
    }

    /// Full-device barrier: resolve the schedule, advance virtual time.
    /// Returns the device's current virtual clock.
    pub fn synchronize(&mut self) -> SimTime {
        let t = self.sched.flush();
        self.barrier = t;
        self.emit_resolved_ops();
        // A barrier orders everything after it; clear stream tails so their
        // dependency chains don't grow without bound across iterations (the
        // `earliest = barrier` bound subsumes them).
        for s in &mut self.streams {
            s.last_issue = None;
            s.last_exec = None;
            s.pending_waits.clear();
        }
        t
    }

    /// Emit the ops the last flush resolved as `"sim"` track spans,
    /// laned by hardware resource.
    fn emit_resolved_ops(&self) {
        if !self.observer.is_enabled() {
            return;
        }
        for (op, start, finish) in self.sched.last_batch() {
            let lane = format!(
                "{}{}",
                self.lane_prefix,
                self.sched.resource_name(op.resource)
            );
            let name = op.label;
            self.observer.span(|| SpanEvent {
                track: "sim",
                lane,
                name: name.into(),
                start_ns: start.as_nanos(),
                dur_ns: finish.since(start).as_nanos(),
                fields: Vec::new(),
            });
        }
    }

    /// Resolved `(start_ns, finish_ns)` window of an op; `None` until
    /// the op's schedule has been flushed by a `synchronize`.
    pub fn op_window(&self, op: OpId) -> Option<(u64, u64)> {
        let (start, finish) = self.sched.window(op)?;
        Some((start.as_nanos(), finish.as_nanos()))
    }

    /// Virtual time elapsed up to the last synchronization.
    pub fn elapsed(&self) -> SimDuration {
        self.barrier - SimTime::ZERO
    }

    /// The device's metrics registry: transfer/launch counters, size
    /// and duration histograms, per-label series.
    pub fn metrics(&self) -> &MetricsRegistry<DeviceMetric> {
        &self.metrics
    }

    /// Summary statistics (call after `synchronize`).
    pub fn stats(&self) -> GpuStats {
        let memcpy_busy = if self.h2d_engine == self.d2h_engine {
            self.sched.resource_busy(self.h2d_engine)
        } else {
            self.sched.resource_busy(self.h2d_engine) + self.sched.resource_busy(self.d2h_engine)
        };
        GpuStats {
            elapsed: self.elapsed(),
            memcpy_busy,
            kernel_busy: self.sched.resource_busy(self.kernel_slots),
            bytes_h2d: self.metrics.counter(DeviceMetric::H2dBytes),
            bytes_d2h: self.metrics.counter(DeviceMetric::D2hBytes),
            copy_ops: self.metrics.counter(DeviceMetric::H2dOps)
                + self.metrics.counter(DeviceMetric::D2hOps),
            kernel_launches: self.metrics.counter(DeviceMetric::KernelLaunches),
        }
    }
}

#[cfg(test)]
#[path = "gpu_tests.rs"]
mod tests;
