//! Fault-recovery policy and the engine's error type.
//!
//! The device substrate ([`gr_sim::fault`]) injects failures into the
//! `Gpu::try_*` entry points; this module defines what the engine *does*
//! about them. Transient faults are retried per-op with capped exponential
//! backoff (charged as simulated time, so recovery is visible in traces);
//! exhausted retries replay the stage's device timeline over host results
//! computed once; a permanently lost device is evicted with its shards
//! redistributed while others survive, and after the last one the run
//! falls back to the host CPU (or fails, when the policy forbids it).
//! Every decision lands in the observer's decision log — one entry per
//! injected fault.

use std::fmt;

use gr_sim::{OutOfMemory, SimDuration};

use crate::sizes::PlanError;
use crate::snapshot::SnapshotError;
use crate::store::StoreError;

/// How the engine reacts to injected (or real) device faults.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Per-op transient-fault retries before the iteration rolls back.
    pub max_retries: u32,
    /// Backoff before the first retry; doubles per attempt.
    pub base_backoff: SimDuration,
    /// Upper bound on a single backoff stall.
    pub max_backoff: SimDuration,
    /// On permanent loss of the last device, charge the interrupted
    /// iteration and every later one on the host CPU instead of failing
    /// the run (the host already computed their results); also lets the
    /// memory governor degrade shards or the whole run to the host. While
    /// devices survive, a lost one's shards are redistributed instead.
    /// Off, losing every device is [`EngineError::DeviceLost`] and a
    /// shard no governor rung fits is [`EngineError::Alloc`], on any
    /// device count.
    pub host_fallback: bool,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            max_retries: 3,
            base_backoff: SimDuration::from_micros(50),
            max_backoff: SimDuration::from_millis(1),
            host_fallback: true,
        }
    }
}

impl RecoveryPolicy {
    /// Backoff before retry number `attempt` (1-based):
    /// `base * 2^(attempt-1)`, capped at [`RecoveryPolicy::max_backoff`].
    pub fn backoff(&self, attempt: u32) -> SimDuration {
        let shift = attempt.saturating_sub(1).min(20);
        (self.base_backoff * (1u64 << shift)).min(self.max_backoff)
    }

    /// A policy that never retries and never falls back — faults surface
    /// immediately as errors (fail-stop semantics, used by tests).
    pub fn fail_fast() -> Self {
        RecoveryPolicy {
            max_retries: 0,
            base_backoff: SimDuration::ZERO,
            max_backoff: SimDuration::ZERO,
            host_fallback: false,
        }
    }
}

/// Why a GraphReduce run could not complete.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EngineError {
    /// The partition plan could not be formed (graph cannot fit the device
    /// under any shard count).
    Plan(PlanError),
    /// A device allocation failed even after the policy's retries — either
    /// real capacity exhaustion or sustained injected allocation pressure.
    Alloc(OutOfMemory),
    /// The device was permanently lost and the policy forbids (or the
    /// engine has no) fallback.
    DeviceLost,
    /// A transient fault persisted past every retry and replay the policy
    /// allows; `op` is the trace label of the operation that kept failing.
    Unrecoverable { op: &'static str },
    /// A durable checkpoint could not be written, or no usable snapshot
    /// could be read back on resume.
    Snapshot(SnapshotError),
    /// A spilled shard could not be stored or loaded back intact.
    Store(StoreError),
    /// The process was hard-killed (fault-injected `ProcessKill`) at this
    /// iteration boundary. A real SIGKILL never surfaces as an error — the
    /// process just dies — but the simulated kind must unwind cleanly so
    /// chaos tests can resume in the same process.
    Killed { iteration: u32 },
    /// A start state does not fit the graph it seeds: `found` is a warm
    /// start's carried vertex-value count, a warm frontier vertex id, or a
    /// program's initial seed that the `num_vertices`-vertex graph cannot
    /// hold (`what` says which).
    BadStart {
        what: &'static str,
        found: u64,
        num_vertices: u32,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Plan(e) => write!(f, "planning failed: {e}"),
            EngineError::Alloc(e) => write!(f, "allocation failed: {e}"),
            EngineError::DeviceLost => write!(f, "device lost with no recovery path"),
            EngineError::Unrecoverable { op } => {
                write!(f, "fault on '{op}' persisted past retry/replay budget")
            }
            EngineError::Snapshot(e) => write!(f, "durable checkpoint failed: {e}"),
            EngineError::Store(e) => write!(f, "shard spill failed: {e}"),
            EngineError::Killed { iteration } => {
                write!(f, "process killed at iteration boundary {iteration}")
            }
            EngineError::BadStart {
                what,
                found,
                num_vertices,
            } => write!(
                f,
                "start rejected: {what} {found} does not fit a {num_vertices}-vertex graph"
            ),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Plan(e) => Some(e),
            EngineError::Alloc(e) => Some(e),
            EngineError::Snapshot(e) => Some(e),
            EngineError::Store(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PlanError> for EngineError {
    fn from(e: PlanError) -> Self {
        EngineError::Plan(e)
    }
}

impl From<OutOfMemory> for EngineError {
    fn from(e: OutOfMemory) -> Self {
        EngineError::Alloc(e)
    }
}

impl From<SnapshotError> for EngineError {
    fn from(e: SnapshotError) -> Self {
        EngineError::Snapshot(e)
    }
}

impl From<StoreError> for EngineError {
    fn from(e: StoreError) -> Self {
        EngineError::Store(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_caps() {
        let p = RecoveryPolicy::default();
        assert_eq!(p.backoff(1), SimDuration::from_micros(50));
        assert_eq!(p.backoff(2), SimDuration::from_micros(100));
        assert_eq!(p.backoff(3), SimDuration::from_micros(200));
        // 50us * 2^9 = 25.6ms — capped at 1ms.
        assert_eq!(p.backoff(10), SimDuration::from_millis(1));
        // Huge attempt numbers must not overflow the shift.
        assert_eq!(p.backoff(u32::MAX), SimDuration::from_millis(1));
    }

    #[test]
    fn fail_fast_disables_everything() {
        let p = RecoveryPolicy::fail_fast();
        assert_eq!(p.max_retries, 0);
        assert!(!p.host_fallback);
        assert_eq!(p.backoff(1), SimDuration::ZERO);
    }

    #[test]
    fn errors_display_and_convert() {
        let oom = OutOfMemory {
            requested: 8,
            available: 0,
            capacity: 4,
        };
        let e: EngineError = oom.into();
        assert_eq!(e, EngineError::Alloc(oom));
        assert!(e.to_string().contains("requested 8 B"));
        assert!(EngineError::DeviceLost.to_string().contains("device lost"));
        assert!(EngineError::Unrecoverable { op: "in.topo" }
            .to_string()
            .contains("in.topo"));
    }
}
