//! # gr-sim — virtual accelerator substrate
//!
//! A discrete-event simulation of a CUDA-class discrete GPU, built as the
//! hardware substrate for the GraphReduce (SC '15) reproduction. The paper's
//! framework is, at its core, a *scheduler of data movement*: shards stream
//! over PCIe on asynchronous streams while kernels run, and every headline
//! optimization (spray copies, frontier-driven copy skipping, phase fusion)
//! changes *what is copied when*. This crate models precisely that layer:
//!
//! * [`config`] — device / PCIe / host descriptions with K20c-era presets;
//! * [`memory`] — capacity-accounted device memory (hard OOM past capacity);
//! * [`schedule`] — the earliest-ready-first discrete-event scheduler; a
//!   flushed batch's records retire at the next flush, leaving a 16-byte
//!   `(start, finish)` record per op, and pricing an op allocates nothing
//!   in steady state;
//! * [`gpu`] — CUDA-semantics streams, events, async copies, kernel
//!   launches, Hyper-Q hardware queues;
//! * [`xfer`] — explicit / pinned / managed transfer cost models (Figure 4);
//! * [`kernel`] — roofline SIMT kernel cost model with occupancy and load
//!   imbalance;
//! * [`cpu`] — the symmetric host-CPU cost model used by baseline engines;
//! * [`fault`] — deterministic, seed-driven fault plans (transient op
//!   failures, ECC stalls, bandwidth degradation, device loss) surfaced
//!   through the `Gpu::try_*` entry points.
//!
//! The byte/time counters behind the paper's Section 6.2.3 analysis live
//! in each device's `gr-observe` metrics registry ([`Gpu::metrics`],
//! summarized by [`GpuStats`]); resolved ops reach an attached
//! `Observer` as spans at every `synchronize`, which is how a device
//! timeline is exported as a trace.
//!
//! Kernel *results* are always computed for real on the host (callers run
//! their closures eagerly, typically with rayon); the simulator assigns
//! virtual time. Simulated timings are deterministic: integer-nanosecond
//! arithmetic, no host wall clock anywhere.

#![forbid(unsafe_code)]

pub mod config;
pub mod cpu;
pub mod fault;
pub mod gpu;
pub mod kernel;
pub mod memory;
pub mod schedule;
pub mod time;
pub mod xfer;

pub use config::{DeviceConfig, HostConfig, PcieConfig, Platform, StorageConfig};
pub use cpu::{cpu_time, CpuClock, CpuWork};
pub use fault::{
    BandwidthWindow, DeviceFault, DeviceHealth, FaultOp, FaultPlan, FaultWindow, IoFault,
    IoFaultState, IoFaultWindow, IoOp,
};
pub use gpu::{DeviceMetric, Event, Gpu, GpuStats, StreamId};
pub use kernel::{kernel_time, KernelSpec};
pub use memory::{Allocation, MemoryPool, OutOfMemory};
pub use schedule::{Capacity, OpId, ResourceId, Scheduler};
pub use time::{SimDuration, SimTime};
