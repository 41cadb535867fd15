//! The layered execution core shared by the single- and multi-GPU paths.
//!
//! Layering (each module may depend only on the ones above it):
//!
//! 1. [`plan`] — pure planning: `(SizeModel, Options, caps)` →
//!    [`plan::ExecPlan`]. No device state.
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
//! 6. [`bsp`] — the one BSP loop: kill switch, one host computation per
//!    iteration, durable snapshots, the iteration span, and the
//!    replay-on-[`device::Abort`] helper. An engine plugs in only its device
//!    timeline through its `Timeline` trait.
//! 7. [`driver`] — the single-device timeline: frontier skip, residency
//!    caching, spill reads, governor host shards, host fallback, and the
//!    fused/unfused emission.
//!
//! [`compress`] sits beside [`plan`] and [`compute`]: pure per-shard byte
//! accounting over the gap-coded topology (no device state), consumed by
//! the governor, the movement buffer sets, and the decompress pricing.
//! [`durable`] sits beside [`bsp`]: the durable-checkpoint writer
//! (full/delta schedule, placement and codec, fault-hardened writes) the
//! loop drives for both engines.
//!
//! The multi-GPU orchestrator ([`crate::multi`]) sits beside [`driver`]:
//! its timeline owns N [`device::DeviceCtx`]s plus the exchange/placement
//! logic, reuses layers 1-3, and runs through the same [`bsp`] loop. See
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
