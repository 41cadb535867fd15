//! Device context: the one execution layer that touches `gr-sim` ops.
//!
//! A [`DeviceCtx`] owns one virtual [`Gpu`] together with everything the
//! engine attaches to it — streams, held allocations, the fault-retry
//! loop, the per-device metrics registry, and the pending-kernel list
//! whose resolved time windows become engine-track spans. The driver
//! ([`crate::exec::driver`]) emits every device's timeline exclusively
//! through these wrappers, so retry/backoff semantics exist exactly once
//! (see `docs/ARCHITECTURE.md`).

use gr_observe::{Decision, MetricsRegistry, Observer, SpanEvent};
use gr_sim::{
    Allocation, DeviceFault, Gpu, GpuStats, KernelSpec, OpId, Platform, SimDuration, StreamId,
};

use crate::options::DeviceSpec;
use crate::recovery::{EngineError, RecoveryPolicy};

use super::EngineMetric;

/// A device operation that failed past its retry budget (or hit a lost
/// device), unwinding the current timeline emission for rollback handling.
pub struct Abort {
    /// Index of the device the op failed on (always 0 on one device).
    pub device: usize,
    /// Trace label of the failing op.
    pub op: &'static str,
    /// The fault that ended the retry loop.
    pub fault: DeviceFault,
}

/// One virtual device plus the engine-side state bound to it. The only
/// type in the `exec` tree allowed to call `gr-sim` operations.
pub struct DeviceCtx {
    gpu: Gpu,
    device: usize,
    recovery: RecoveryPolicy,
    /// Compute/copy streams; `exec` siblings index these for stage
    /// scheduling but route every op back through the ctx.
    pub(crate) main_streams: Vec<StreamId>,
    spray_streams: Vec<StreamId>,
    spray_cursor: usize,
    /// Engine-level metrics for this device (retries, chunked copies,
    /// storage stalls, …). Device 0's doubles as the run's registry;
    /// `RunStats` sums every device's.
    pub(crate) metrics: MetricsRegistry<EngineMetric>,
    observer: Observer,
    // Kernel launches awaiting their resolved virtual-time window
    // (emitted as engine-track spans after the stage synchronizes).
    pending_kernels: Vec<(OpId, &'static str, u32, u32)>,
    // Device allocations held for the run (RAII keeps capacity accounted).
    pub(crate) static_alloc: Option<Allocation>,
    pub(crate) shard_allocs: Vec<Allocation>,
    /// The governed streaming-slot size chunked transfers cut to.
    pub(crate) slot_bytes: u64,
}

impl DeviceCtx {
    /// Bring up device `device` as `spec` describes: create the [`Gpu`],
    /// attach the observer (tagged with `lane` when given, e.g.
    /// `"gpu1/"`), arm the fault plan, and apply the optional memory cap —
    /// in that order.
    ///
    /// `observer` doubles as the decision-log sink; decisions are never
    /// tagged (the device index is a field of the decision itself).
    pub fn new(
        platform: &Platform,
        device: usize,
        spec: DeviceSpec,
        lane: Option<String>,
        observer: Observer,
        recovery: RecoveryPolicy,
    ) -> Self {
        let mut gpu = Gpu::new(platform);
        match lane {
            Some(t) => gpu.set_observer_tagged(observer.clone(), t),
            None => gpu.set_observer(observer.clone()),
        }
        gpu.set_fault_plan(spec.fault_plan);
        if let Some(cap) = spec.mem_cap {
            gpu.cap_memory(cap);
        }
        DeviceCtx {
            gpu,
            device,
            recovery,
            main_streams: Vec::new(),
            spray_streams: Vec::new(),
            spray_cursor: 0,
            metrics: MetricsRegistry::new(),
            observer,
            pending_kernels: Vec::new(),
            static_alloc: None,
            shard_allocs: Vec::new(),
            slot_bytes: 1,
        }
    }

    /// Create `k` main compute/copy streams. Streams must exist before
    /// allocations: allocation-retry backoff stalls are charged on one.
    pub fn create_main_streams(&mut self, k: usize) {
        self.main_streams = (0..k).map(|_| self.gpu.create_stream()).collect();
    }

    /// Create `n` spray streams for scattered sub-array copies.
    pub fn create_spray_streams(&mut self, n: usize) {
        self.spray_streams = (0..n).map(|_| self.gpu.create_stream()).collect();
    }

    /// Whether spray streams were created for this device.
    pub fn has_spray(&self) -> bool {
        !self.spray_streams.is_empty()
    }

    /// Next spray stream in the dynamic cycle (Section 5.1's spray copy).
    pub fn next_spray_stream(&mut self) -> StreamId {
        let s = self.spray_streams[self.spray_cursor % self.spray_streams.len()];
        self.spray_cursor += 1;
        s
    }

    /// Make `consumer` wait for everything issued so far on `producer`
    /// (event record + wait, the spray path's synchronization).
    pub fn fence(&mut self, producer: StreamId, consumer: StreamId) {
        let ev = self.gpu.record_event(producer);
        self.gpu.wait_event(consumer, ev);
    }

    /// Run one device op through the recovery policy: each transient fault
    /// retries after an exponential-backoff stall (charged to `stream` as
    /// simulated time, counted in `engine.fault_retries`, logged as
    /// [`Decision::FaultRetry`] with this device's index); exhausted
    /// retries and device loss unwind as [`Abort`] for rollback handling.
    /// With no fault plan armed the closure succeeds on the first call and
    /// this is exactly one extra branch.
    pub fn retry<F>(
        &mut self,
        stream: StreamId,
        label: &'static str,
        iter: u32,
        mut op: F,
    ) -> Result<OpId, Abort>
    where
        F: FnMut(&mut Gpu) -> Result<OpId, DeviceFault>,
    {
        let mut attempt = 0u32;
        loop {
            match op(&mut self.gpu) {
                Ok(id) => return Ok(id),
                Err(DeviceFault::Lost) => {
                    return Err(Abort {
                        device: self.device,
                        op: label,
                        fault: DeviceFault::Lost,
                    })
                }
                Err(fault) => {
                    attempt += 1;
                    if attempt > self.recovery.max_retries {
                        return Err(Abort {
                            device: self.device,
                            op: label,
                            fault,
                        });
                    }
                    let backoff = self.recovery.backoff(attempt);
                    self.gpu.stall(stream, backoff, "recovery.backoff");
                    self.metrics.inc(EngineMetric::FaultRetries, 1);
                    let backoff_ns = backoff.as_nanos();
                    let device = self.device as u32;
                    self.observer.decision(|| Decision::FaultRetry {
                        iteration: iter,
                        device,
                        op: label,
                        fault: fault.name(),
                        attempt,
                        backoff_ns,
                    });
                }
            }
        }
    }

    /// Host→device copy through the retry path.
    pub fn h2d(
        &mut self,
        stream: StreamId,
        bytes: u64,
        label: &'static str,
        iter: u32,
    ) -> Result<OpId, Abort> {
        self.retry(stream, label, iter, |g| g.try_h2d(stream, bytes, label))
    }

    /// Zero-copy host→device access through the retry path.
    pub fn h2d_zero_copy(
        &mut self,
        stream: StreamId,
        bytes: u64,
        label: &'static str,
        iter: u32,
    ) -> Result<OpId, Abort> {
        self.retry(stream, label, iter, |g| {
            g.try_h2d_zero_copy(stream, bytes, label)
        })
    }

    /// Device→host copy through the retry path.
    pub fn d2h(
        &mut self,
        stream: StreamId,
        bytes: u64,
        label: &'static str,
        iter: u32,
    ) -> Result<OpId, Abort> {
        self.retry(stream, label, iter, |g| g.try_d2h(stream, bytes, label))
    }

    /// Kernel launch through the retry path.
    pub fn launch(
        &mut self,
        stream: StreamId,
        spec: &KernelSpec,
        iter: u32,
    ) -> Result<OpId, Abort> {
        self.retry(stream, spec.label, iter, |g| g.try_launch(stream, spec))
    }

    /// Launch a kernel and remember its op so the resolved window can be
    /// emitted as an engine-track span after the stage barrier.
    pub fn launch_tracked(
        &mut self,
        stream: StreamId,
        spec: &KernelSpec,
        iter: u32,
        shard: usize,
    ) -> Result<(), Abort> {
        let op = self.launch(stream, spec, iter)?;
        if self.observer.is_enabled() {
            self.pending_kernels
                .push((op, spec.label, iter, shard as u32));
        }
        Ok(())
    }

    /// Charge a fixed stall (e.g. a storage read) on `stream`.
    pub fn stall(&mut self, stream: StreamId, duration: SimDuration, label: &'static str) {
        self.gpu.stall(stream, duration, label);
    }

    /// Device barrier + emission of every pending kernel's span with
    /// its real virtual-time window (known only after the flush).
    pub fn sync_and_resolve(&mut self) {
        self.gpu.synchronize();
        for (op, label, iter, shard) in std::mem::take(&mut self.pending_kernels) {
            if let Some((start, finish)) = self.gpu.op_window(op) {
                self.observer.span(|| SpanEvent {
                    track: "engine",
                    lane: format!("shard {shard}"),
                    name: label.to_string(),
                    start_ns: start,
                    dur_ns: finish - start,
                    fields: vec![("iteration", iter.into()), ("shard", shard.into())],
                });
            }
        }
    }

    /// Allocate device memory through the recovery policy. Injected
    /// allocation pressure backs off (charged as simulated time on
    /// `stream`) and retries; a *real* shortfall — the request exceeds
    /// what the pool can ever grant — will never succeed on retry and
    /// surfaces [`EngineError::Alloc`] immediately instead of burning the
    /// budget.
    pub fn alloc_retry(&mut self, stream: StreamId, bytes: u64) -> Result<Allocation, EngineError> {
        let mut attempt = 0u32;
        loop {
            match self.gpu.try_alloc(bytes) {
                Ok(a) => return Ok(a),
                Err(oom) => {
                    // Injected pressure synthesizes `available: 0` while
                    // the real pool still has room; when the request
                    // genuinely exceeds the pool's free bytes, no amount
                    // of backoff can help — escalate immediately instead
                    // of spinning through the retry budget.
                    if bytes > self.gpu.memory().available() {
                        return Err(EngineError::Alloc(oom));
                    }
                    attempt += 1;
                    if attempt > self.recovery.max_retries {
                        return Err(EngineError::Alloc(oom));
                    }
                    let backoff = self.recovery.backoff(attempt);
                    self.gpu.stall(stream, backoff, "recovery.backoff");
                    self.metrics.inc(EngineMetric::FaultRetries, 1);
                    let backoff_ns = backoff.as_nanos();
                    let device = self.device as u32;
                    self.observer.decision(|| Decision::FaultRetry {
                        iteration: 0,
                        device,
                        op: "alloc",
                        fault: "alloc.pressure",
                        attempt,
                        backoff_ns,
                    });
                }
            }
        }
    }

    /// Simulated time elapsed on this device.
    pub fn elapsed(&self) -> SimDuration {
        self.gpu.elapsed()
    }

    /// End-of-run device statistics.
    pub fn stats(&self) -> GpuStats {
        self.gpu.stats()
    }

    /// Faults the device's plan injected so far.
    pub fn faults_injected(&self) -> u64 {
        self.gpu.faults_injected()
    }

    /// The device's (possibly capped) memory capacity.
    pub fn mem_capacity(&self) -> u64 {
        self.gpu.memory().capacity()
    }

    /// Peak device-memory usage over the run.
    pub fn mem_peak(&self) -> u64 {
        self.gpu.memory().peak()
    }

    /// Smallest free-memory margin observed over the run.
    pub fn mem_min_headroom(&self) -> u64 {
        self.gpu.memory().min_headroom()
    }

    /// The device-side metrics registry (op counters, byte volumes).
    pub fn gpu_metrics(&self) -> &MetricsRegistry<gr_sim::DeviceMetric> {
        self.gpu.metrics()
    }
}
