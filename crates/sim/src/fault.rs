//! Deterministic, seed-driven fault injection for the virtual accelerator.
//!
//! A [`FaultPlan`] describes *when* the device misbehaves, in terms that are
//! fully deterministic under replay:
//!
//! * **Transient op faults** — the `n`-th H2D/D2H copy, kernel launch, or
//!   allocation (zero-based, counted per class over the device lifetime)
//!   fails for `count` consecutive attempts. Because the per-class counter
//!   advances on every attempt, a retry or a rollback-and-replay eventually
//!   marches past the window: recovery always converges on finite plans.
//! * **ECC-retry stalls** — the `n`-th kernel launch succeeds but pays an
//!   extra [`crate::config::DeviceConfig::ecc_retry_stall`] latency tail
//!   (the driver transparently replays the access).
//! * **PCIe bandwidth degradation** — copies submitted while the device's
//!   barrier clock is inside a window run at `factor`× the nominal copy
//!   time (link contention / retraining).
//! * **Permanent device loss** — once the barrier clock reaches
//!   `lose_device_at_ns`, every subsequent copy/launch fails with
//!   [`DeviceFault::Lost`], forever.
//! * **Process kill** — `kill_at_iteration(K)` hard-aborts the whole run
//!   at iteration boundary `K` (the chaos stand-in for SIGKILL). Not a
//!   device fault at all: nothing retries it, the engine unwinds, and only
//!   a durable checkpoint makes the work resumable.
//! * **Storage I/O faults** — the `n`-th spill read, spill write, or
//!   checkpoint write (zero-based, counted per class over the run) fails
//!   for `count` consecutive attempts, either as a clean transient error
//!   or as a *torn write* (the bytes that reach disk are truncated before
//!   the error surfaces). Same monotone-counter discipline as the device
//!   windows, so retry always marches past a finite window.
//!
//! Plans are either built explicitly (chaos tests pin exact schedules) or
//! derived from a seed via an inline SplitMix64 generator — same seed, same
//! plan, same timeline, no external RNG dependency. [`FaultPlan::none()`]
//! is the default and is checked with a single branch on the hot paths, so
//! disabled fault injection adds no ops, no stalls, and no timing changes.

use std::fmt;

/// Operation classes a transient fault window can target.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultOp {
    /// Host-to-device copies (explicit and zero-copy).
    H2d,
    /// Device-to-host copies.
    D2h,
    /// Kernel launches.
    Launch,
    /// Device memory allocations.
    Alloc,
}

impl FaultOp {
    /// Stable name used in metrics labels and decision records.
    pub fn name(self) -> &'static str {
        match self {
            FaultOp::H2d => "h2d",
            FaultOp::D2h => "d2h",
            FaultOp::Launch => "launch",
            FaultOp::Alloc => "alloc",
        }
    }

    fn index(self) -> usize {
        match self {
            FaultOp::H2d => 0,
            FaultOp::D2h => 1,
            FaultOp::Launch => 2,
            FaultOp::Alloc => 3,
        }
    }
}

/// Storage-plane operation classes an I/O fault window can target.
///
/// These are host-side disk operations (shard spill, durable
/// checkpoints), not device ops: they never touch the virtual timeline,
/// only the storage layer's retry/degradation machinery.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum IoOp {
    /// Reading a spilled shard back from the shard store.
    SpillRead,
    /// Writing an evicted shard to the shard store.
    SpillWrite,
    /// Writing a durable checkpoint snapshot.
    CheckpointWrite,
}

impl IoOp {
    /// Stable name used in decision records, e.g. `"spill.read"`.
    pub fn name(self) -> &'static str {
        match self {
            IoOp::SpillRead => "spill.read",
            IoOp::SpillWrite => "spill.write",
            IoOp::CheckpointWrite => "checkpoint.write",
        }
    }

    fn index(self) -> usize {
        match self {
            IoOp::SpillRead => 0,
            IoOp::SpillWrite => 1,
            IoOp::CheckpointWrite => 2,
        }
    }
}

/// Flavor of an injected storage fault.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum IoFault {
    /// The operation fails cleanly; nothing reaches disk.
    Transient,
    /// A write is cut short: truncated bytes reach the temp location
    /// before the error surfaces. Atomic rename discipline must ensure
    /// the torn bytes are never installed as a valid artifact.
    Torn,
}

impl IoFault {
    /// Stable fault-kind name for decision logs, e.g. `"torn.checkpoint.write"`.
    pub fn name(self, op: IoOp) -> &'static str {
        match (self, op) {
            (IoFault::Transient, IoOp::SpillRead) => "io.spill.read",
            (IoFault::Transient, IoOp::SpillWrite) => "io.spill.write",
            (IoFault::Transient, IoOp::CheckpointWrite) => "io.checkpoint.write",
            (IoFault::Torn, IoOp::SpillRead) => "torn.spill.read",
            (IoFault::Torn, IoOp::SpillWrite) => "torn.spill.write",
            (IoFault::Torn, IoOp::CheckpointWrite) => "torn.checkpoint.write",
        }
    }
}

/// `count` consecutive storage ops of class `op`, starting at the
/// zero-based per-class index `start`, fail (torn if `torn`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IoFaultWindow {
    pub op: IoOp,
    pub start: u64,
    pub count: u64,
    pub torn: bool,
}

/// Error surfaced by the fallible `Gpu::try_*` entry points.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DeviceFault {
    /// One op failed; the op was not performed and retrying may succeed.
    Transient {
        /// The op class that faulted.
        op: FaultOp,
    },
    /// The device is gone; every subsequent op fails the same way.
    Lost,
}

impl DeviceFault {
    /// Stable fault-kind name for decision logs, e.g. `"transient.h2d"`.
    pub fn name(&self) -> &'static str {
        match self {
            DeviceFault::Transient { op: FaultOp::H2d } => "transient.h2d",
            DeviceFault::Transient { op: FaultOp::D2h } => "transient.d2h",
            DeviceFault::Transient {
                op: FaultOp::Launch,
            } => "kernel.fault",
            DeviceFault::Transient { op: FaultOp::Alloc } => "alloc.pressure",
            DeviceFault::Lost => "device.lost",
        }
    }
}

impl fmt::Display for DeviceFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviceFault::Transient { op } => write!(f, "transient device fault on {}", op.name()),
            DeviceFault::Lost => write!(f, "device lost"),
        }
    }
}

impl std::error::Error for DeviceFault {}

/// Health state machine derived from the plan and the device clock.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DeviceHealth {
    /// Operating normally.
    Healthy,
    /// Inside a bandwidth-degradation window: functional but slow.
    Degraded,
    /// Permanently lost.
    Lost,
}

/// `count` consecutive ops of class `op`, starting at the zero-based
/// per-class index `start`, fail.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultWindow {
    pub op: FaultOp,
    pub start: u64,
    pub count: u64,
}

/// Copies submitted while the barrier clock is in `[from_ns, until_ns)`
/// take `factor`× the nominal transfer time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BandwidthWindow {
    pub from_ns: u64,
    pub until_ns: u64,
    pub factor: f64,
}

/// A deterministic fault schedule for one device. See the module docs.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    windows: Vec<FaultWindow>,
    ecc_launches: Vec<u64>,
    degraded: Vec<BandwidthWindow>,
    lose_at_ns: Option<u64>,
    kill_at_iteration: Option<u32>,
    io_windows: Vec<IoFaultWindow>,
}

impl FaultPlan {
    /// The empty plan: no faults, zero overhead.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// True when the plan injects nothing (the zero-overhead fast path).
    pub fn is_none(&self) -> bool {
        self.windows.is_empty()
            && self.ecc_launches.is_empty()
            && self.degraded.is_empty()
            && self.lose_at_ns.is_none()
            && self.kill_at_iteration.is_none()
            && self.io_windows.is_empty()
    }

    /// Fail `count` consecutive ops of class `op` starting at index `start`.
    pub fn fail(mut self, op: FaultOp, start: u64, count: u64) -> Self {
        if count > 0 {
            self.windows.push(FaultWindow { op, start, count });
        }
        self
    }

    /// Fail `count` H2D copies starting at the `start`-th copy.
    pub fn fail_h2d(self, start: u64, count: u64) -> Self {
        self.fail(FaultOp::H2d, start, count)
    }

    /// Fail `count` D2H copies starting at the `start`-th copy.
    pub fn fail_d2h(self, start: u64, count: u64) -> Self {
        self.fail(FaultOp::D2h, start, count)
    }

    /// Fail `count` kernel launches starting at the `start`-th launch.
    pub fn fail_launch(self, start: u64, count: u64) -> Self {
        self.fail(FaultOp::Launch, start, count)
    }

    /// Force `count` allocations starting at the `start`-th to report OOM.
    pub fn fail_alloc(self, start: u64, count: u64) -> Self {
        self.fail(FaultOp::Alloc, start, count)
    }

    /// Add an ECC-retry stall to the `launch_index`-th kernel launch.
    pub fn ecc_stall_on_launch(mut self, launch_index: u64) -> Self {
        self.ecc_launches.push(launch_index);
        self
    }

    /// Degrade PCIe copy bandwidth by `factor` (≥ 1) while the device
    /// clock is in `[from_ns, until_ns)`.
    pub fn degrade_bandwidth(mut self, from_ns: u64, until_ns: u64, factor: f64) -> Self {
        if factor > 1.0 && until_ns > from_ns {
            self.degraded.push(BandwidthWindow {
                from_ns,
                until_ns,
                factor,
            });
        }
        self
    }

    /// Permanently lose the device once its clock reaches `at_ns`.
    pub fn lose_device_at_ns(mut self, at_ns: u64) -> Self {
        self.lose_at_ns = Some(at_ns);
        self
    }

    /// Hard-kill the whole *process* at iteration boundary `iteration`
    /// (0-based: kill at 0 means not a single iteration survives). Unlike
    /// device faults this is not retryable or recoverable in-run — the
    /// engine unwinds immediately; only a durable checkpoint directory
    /// makes the work survivable, via resume.
    pub fn kill_at_iteration(mut self, iteration: u32) -> Self {
        self.kill_at_iteration = Some(iteration);
        self
    }

    /// Scheduled process-kill iteration boundary, if any.
    pub fn kill_at(&self) -> Option<u32> {
        self.kill_at_iteration
    }

    /// Fail `count` consecutive storage ops of class `op` starting at
    /// the zero-based per-class index `start`.
    pub fn fail_io(mut self, op: IoOp, start: u64, count: u64, torn: bool) -> Self {
        if count > 0 {
            self.io_windows.push(IoFaultWindow {
                op,
                start,
                count,
                torn,
            });
        }
        self
    }

    /// Fail `count` spill-store reads starting at the `start`-th read.
    pub fn fail_spill_read(self, start: u64, count: u64) -> Self {
        self.fail_io(IoOp::SpillRead, start, count, false)
    }

    /// Fail `count` spill-store writes starting at the `start`-th write.
    pub fn fail_spill_write(self, start: u64, count: u64) -> Self {
        self.fail_io(IoOp::SpillWrite, start, count, false)
    }

    /// Fail `count` checkpoint writes starting at the `start`-th write.
    pub fn fail_checkpoint_write(self, start: u64, count: u64) -> Self {
        self.fail_io(IoOp::CheckpointWrite, start, count, false)
    }

    /// Tear `count` checkpoint writes starting at the `start`-th write:
    /// truncated bytes reach the temp file before the error surfaces.
    pub fn torn_checkpoint_write(self, start: u64, count: u64) -> Self {
        self.fail_io(IoOp::CheckpointWrite, start, count, true)
    }

    /// Does the `index`-th storage op of class `op` fault — and how?
    /// Torn windows win over transient ones on overlap (the worse fault).
    pub fn io_fault_at(&self, op: IoOp, index: u64) -> Option<IoFault> {
        let mut hit = None;
        for w in &self.io_windows {
            if w.op == op && index >= w.start && index - w.start < w.count {
                if w.torn {
                    return Some(IoFault::Torn);
                }
                hit = Some(IoFault::Transient);
            }
        }
        hit
    }

    /// True when the plan injects any storage-plane faults.
    pub fn has_io_faults(&self) -> bool {
        !self.io_windows.is_empty()
    }

    /// Total storage I/O faults the plan will inject.
    pub fn io_fault_count(&self) -> u64 {
        self.io_windows.iter().map(|w| w.count).sum()
    }

    /// Does the `index`-th op of class `op` fault?
    pub fn faults_at(&self, op: FaultOp, index: u64) -> bool {
        self.windows
            .iter()
            .any(|w| w.op == op && index >= w.start && index - w.start < w.count)
    }

    /// Does the `index`-th kernel launch pay an ECC-retry stall?
    pub fn ecc_at(&self, launch_index: u64) -> bool {
        self.ecc_launches.contains(&launch_index)
    }

    /// Copy slowdown factor at device time `at_ns` (1.0 = nominal).
    pub fn degrade_factor_at(&self, at_ns: u64) -> f64 {
        self.degraded
            .iter()
            .filter(|w| at_ns >= w.from_ns && at_ns < w.until_ns)
            .map(|w| w.factor)
            .fold(1.0, f64::max)
    }

    /// Scheduled device-loss time, if any.
    pub fn loss_at(&self) -> Option<u64> {
        self.lose_at_ns
    }

    /// Total transient faults the plan will inject (loss excluded).
    pub fn transient_fault_count(&self) -> u64 {
        self.windows.iter().map(|w| w.count).sum()
    }

    /// A mixed chaos schedule derived deterministically from `seed`:
    /// a handful of transient copy/launch/alloc windows in the first few
    /// dozen ops, an occasional ECC stall, and an occasional early
    /// bandwidth-degradation window. Never loses the device, so every
    /// seeded schedule is recoverable by retry/rollback alone.
    pub fn from_seed(seed: u64) -> Self {
        let mut rng = SplitMix64(seed);
        let mut plan = FaultPlan::none();
        let n_windows = 2 + (rng.next() % 3); // 2..=4
        for _ in 0..n_windows {
            let op = match rng.next() % 4 {
                0 => FaultOp::H2d,
                1 => FaultOp::D2h,
                2 => FaultOp::Launch,
                _ => FaultOp::Alloc,
            };
            let start = rng.next() % 48;
            let count = 1 + (rng.next() % 2); // 1..=2
            plan = plan.fail(op, start, count);
        }
        if rng.next().is_multiple_of(2) {
            plan = plan.ecc_stall_on_launch(rng.next() % 32);
        }
        if rng.next().is_multiple_of(2) {
            let from = rng.next() % 2_000_000; // within the first 2 ms
            let len = 200_000 + rng.next() % 2_000_000;
            let factor = 2.0 + (rng.next() % 4) as f64; // 2x..5x
            plan = plan.degrade_bandwidth(from, from + len, factor);
        }
        plan
    }

    /// Resolve a named profile (the chaos-test matrix) with a seed for
    /// the seeded profiles.
    pub fn profile(name: &str, seed: u64) -> Result<Self, String> {
        match name {
            "none" => Ok(FaultPlan::none()),
            "transient-copy" => Ok(FaultPlan::none()
                .fail_h2d(2, 1)
                .fail_d2h(0, 1)
                .fail_h2d(9, 2)),
            "kernel-fault" => Ok(FaultPlan::none().fail_launch(1, 1).fail_launch(6, 2)),
            "oom-pressure" => Ok(FaultPlan::none().fail_alloc(0, 2)),
            "ecc-stall" => Ok(FaultPlan::none()
                .ecc_stall_on_launch(0)
                .ecc_stall_on_launch(3)),
            "degraded-pcie" => Ok(FaultPlan::none().degrade_bandwidth(0, 5_000_000, 4.0)),
            "device-loss" => Ok(FaultPlan::none().lose_device_at_ns(2_000_000)),
            "chaos" => Ok(FaultPlan::from_seed(seed)),
            // `kill:<K>` reuses the seed slot as the iteration boundary.
            "kill" => Ok(FaultPlan::none().kill_at_iteration(seed as u32)),
            "spill-io" => Ok(FaultPlan::none()
                .fail_spill_read(0, 2)
                .fail_spill_write(1, 1)),
            "checkpoint-io" => Ok(FaultPlan::none()
                .fail_checkpoint_write(0, 2)
                .torn_checkpoint_write(3, 1)),
            other => Err(format!(
                "unknown fault profile '{other}' (expected none, transient-copy, kernel-fault, \
                 oom-pressure, ecc-stall, degraded-pcie, device-loss, chaos, kill:<iteration>, \
                 spill-io, checkpoint-io, or a bare seed)"
            )),
        }
    }

    /// Parse a CLI spec: `<profile>`, `<profile>:<seed>`, or a bare
    /// integer seed (shorthand for `chaos:<seed>`).
    pub fn parse(spec: &str) -> Result<Self, String> {
        if let Ok(seed) = spec.parse::<u64>() {
            return Ok(FaultPlan::from_seed(seed));
        }
        let (name, seed) = match spec.split_once(':') {
            Some((n, s)) => (
                n,
                s.parse::<u64>()
                    .map_err(|_| format!("bad seed '{s}' in fault spec '{spec}'"))?,
            ),
            None => (spec, 0),
        };
        FaultPlan::profile(name, seed)
    }
}

/// Mutable per-device fault state owned by the `Gpu`.
#[derive(Clone, Debug)]
pub(crate) struct FaultState {
    plan: FaultPlan,
    /// Per-class monotone op counters (indexed by [`FaultOp::index`]).
    seen: [u64; 4],
    lost: bool,
}

impl FaultState {
    pub(crate) fn new(plan: FaultPlan) -> Self {
        FaultState {
            plan,
            seen: [0; 4],
            lost: false,
        }
    }

    pub(crate) fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    pub(crate) fn is_lost(&self) -> bool {
        self.lost
    }

    pub(crate) fn mark_lost(&mut self) {
        self.lost = true;
    }

    /// Consume and return the current per-class op index.
    pub(crate) fn next_index(&mut self, op: FaultOp) -> u64 {
        let i = op.index();
        let idx = self.seen[i];
        self.seen[i] += 1;
        idx
    }
}

/// Mutable storage-fault state owned by the engine's storage layer:
/// per-class monotone attempt counters over the plan's I/O windows
/// (the host-side sibling of the device-op `FaultState`).
#[derive(Clone, Debug)]
pub struct IoFaultState {
    plan: FaultPlan,
    /// Per-class monotone attempt counters (indexed by [`IoOp::index`]).
    seen: [u64; 3],
    injected: u64,
}

impl IoFaultState {
    /// Build state over `plan`'s I/O windows (device windows are ignored).
    pub fn new(plan: &FaultPlan) -> Self {
        IoFaultState {
            plan: plan.clone(),
            seen: [0; 3],
            injected: 0,
        }
    }

    /// True when the plan schedules at least one storage fault — the
    /// single branch the disarmed fast path pays.
    pub fn armed(&self) -> bool {
        self.plan.has_io_faults()
    }

    /// Consume one attempt of class `op`; returns the injected fault,
    /// if this attempt falls in a window.
    pub fn next(&mut self, op: IoOp) -> Option<IoFault> {
        let i = op.index();
        let idx = self.seen[i];
        self.seen[i] += 1;
        let hit = self.plan.io_fault_at(op, idx);
        if hit.is_some() {
            self.injected += 1;
        }
        hit
    }

    /// Storage faults injected so far.
    pub fn injected(&self) -> u64 {
        self.injected
    }
}

/// Inline SplitMix64: tiny, deterministic, dependency-free.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_empty_and_zero_cost_to_check() {
        let p = FaultPlan::none();
        assert!(p.is_none());
        assert!(!p.faults_at(FaultOp::H2d, 0));
        assert_eq!(p.degrade_factor_at(123), 1.0);
        assert_eq!(p.loss_at(), None);
        assert_eq!(p.transient_fault_count(), 0);
    }

    #[test]
    fn windows_cover_exactly_their_range() {
        let p = FaultPlan::none().fail_h2d(3, 2);
        assert!(!p.faults_at(FaultOp::H2d, 2));
        assert!(p.faults_at(FaultOp::H2d, 3));
        assert!(p.faults_at(FaultOp::H2d, 4));
        assert!(!p.faults_at(FaultOp::H2d, 5));
        assert!(!p.faults_at(FaultOp::D2h, 3), "classes are independent");
        assert_eq!(p.transient_fault_count(), 2);
    }

    #[test]
    fn zero_count_window_is_dropped() {
        let p = FaultPlan::none().fail_launch(5, 0);
        assert!(p.is_none());
    }

    #[test]
    fn degradation_windows_pick_worst_factor() {
        let p = FaultPlan::none()
            .degrade_bandwidth(100, 200, 2.0)
            .degrade_bandwidth(150, 300, 3.0);
        assert_eq!(p.degrade_factor_at(50), 1.0);
        assert_eq!(p.degrade_factor_at(120), 2.0);
        assert_eq!(p.degrade_factor_at(180), 3.0);
        assert_eq!(p.degrade_factor_at(250), 3.0);
        assert_eq!(p.degrade_factor_at(300), 1.0);
    }

    #[test]
    fn seeded_plans_are_deterministic_and_lossless() {
        for seed in 0..32 {
            let a = FaultPlan::from_seed(seed);
            let b = FaultPlan::from_seed(seed);
            assert_eq!(a, b, "seed {seed} not reproducible");
            assert_eq!(a.loss_at(), None, "seeded chaos must stay recoverable");
            assert!(a.transient_fault_count() >= 2);
        }
        assert_ne!(FaultPlan::from_seed(1), FaultPlan::from_seed(2));
    }

    #[test]
    fn parse_accepts_profiles_seeds_and_rejects_junk() {
        assert!(FaultPlan::parse("none").unwrap().is_none());
        assert_eq!(
            FaultPlan::parse("42").unwrap(),
            FaultPlan::from_seed(42),
            "bare integer is a chaos seed"
        );
        assert_eq!(
            FaultPlan::parse("chaos:7").unwrap(),
            FaultPlan::from_seed(7)
        );
        assert!(FaultPlan::parse("device-loss").unwrap().loss_at().is_some());
        assert!(FaultPlan::parse("oom-pressure")
            .unwrap()
            .faults_at(FaultOp::Alloc, 0));
        assert!(FaultPlan::parse("bogus").is_err());
        assert!(FaultPlan::parse("chaos:notanumber").is_err());
    }

    #[test]
    fn process_kill_arms_the_plan_and_parses() {
        let p = FaultPlan::none().kill_at_iteration(3);
        assert!(!p.is_none(), "a kill-armed plan is not the empty plan");
        assert_eq!(p.kill_at(), Some(3));
        assert_eq!(p.transient_fault_count(), 0);
        assert_eq!(FaultPlan::parse("kill:0").unwrap().kill_at(), Some(0));
        assert_eq!(FaultPlan::parse("kill:7").unwrap().kill_at(), Some(7));
        assert_eq!(FaultPlan::parse("kill").unwrap().kill_at(), Some(0));
    }

    #[test]
    fn state_counters_are_per_class_and_monotone() {
        let mut st = FaultState::new(FaultPlan::none().fail_h2d(1, 1));
        assert_eq!(st.next_index(FaultOp::H2d), 0);
        assert_eq!(st.next_index(FaultOp::Launch), 0);
        assert_eq!(st.next_index(FaultOp::H2d), 1);
        assert!(st.plan().faults_at(FaultOp::H2d, 1));
        assert!(!st.is_lost());
        st.mark_lost();
        assert!(st.is_lost());
    }

    #[test]
    fn io_windows_cover_their_range_and_arm_the_plan() {
        let p = FaultPlan::none().fail_spill_read(1, 2);
        assert!(!p.is_none(), "an I/O-armed plan is not the empty plan");
        assert!(p.has_io_faults());
        assert_eq!(p.io_fault_at(IoOp::SpillRead, 0), None);
        assert_eq!(p.io_fault_at(IoOp::SpillRead, 1), Some(IoFault::Transient));
        assert_eq!(p.io_fault_at(IoOp::SpillRead, 2), Some(IoFault::Transient));
        assert_eq!(p.io_fault_at(IoOp::SpillRead, 3), None);
        assert_eq!(
            p.io_fault_at(IoOp::SpillWrite, 1),
            None,
            "classes are independent"
        );
        assert_eq!(p.io_fault_count(), 2);
        assert!(!FaultPlan::none().has_io_faults());
    }

    #[test]
    fn torn_windows_win_over_transient_on_overlap() {
        let p = FaultPlan::none()
            .fail_checkpoint_write(0, 3)
            .torn_checkpoint_write(1, 1);
        assert_eq!(
            p.io_fault_at(IoOp::CheckpointWrite, 0),
            Some(IoFault::Transient)
        );
        assert_eq!(p.io_fault_at(IoOp::CheckpointWrite, 1), Some(IoFault::Torn));
        assert_eq!(
            p.io_fault_at(IoOp::CheckpointWrite, 2),
            Some(IoFault::Transient)
        );
    }

    #[test]
    fn io_state_counters_are_per_class_and_monotone() {
        let mut st = IoFaultState::new(&FaultPlan::none().fail_spill_write(1, 1));
        assert!(st.armed());
        assert_eq!(st.next(IoOp::SpillWrite), None);
        assert_eq!(st.next(IoOp::SpillRead), None, "classes are independent");
        assert_eq!(st.next(IoOp::SpillWrite), Some(IoFault::Transient));
        assert_eq!(st.next(IoOp::SpillWrite), None, "window marched past");
        assert_eq!(st.injected(), 1);
        assert!(!IoFaultState::new(&FaultPlan::none()).armed());
    }

    #[test]
    fn io_profiles_parse_and_schedule_storage_faults() {
        let spill = FaultPlan::parse("spill-io").unwrap();
        assert_eq!(spill.io_fault_count(), 3);
        assert_eq!(
            spill.io_fault_at(IoOp::SpillRead, 0),
            Some(IoFault::Transient)
        );
        let ckpt = FaultPlan::parse("checkpoint-io").unwrap();
        assert_eq!(
            ckpt.io_fault_at(IoOp::CheckpointWrite, 3),
            Some(IoFault::Torn)
        );
        assert_eq!(ckpt.io_fault_count(), 3);
        assert_eq!(ckpt.transient_fault_count(), 0, "no device faults");
    }

    #[test]
    fn io_fault_names_are_stable() {
        assert_eq!(IoFault::Transient.name(IoOp::SpillRead), "io.spill.read");
        assert_eq!(
            IoFault::Torn.name(IoOp::CheckpointWrite),
            "torn.checkpoint.write"
        );
        assert_eq!(IoOp::CheckpointWrite.name(), "checkpoint.write");
    }

    #[test]
    fn fault_names_are_stable() {
        assert_eq!(
            DeviceFault::Transient { op: FaultOp::H2d }.name(),
            "transient.h2d"
        );
        assert_eq!(
            DeviceFault::Transient {
                op: FaultOp::Launch
            }
            .name(),
            "kernel.fault"
        );
        assert_eq!(DeviceFault::Lost.name(), "device.lost");
        assert_eq!(DeviceFault::Lost.to_string(), "device lost");
    }
}
