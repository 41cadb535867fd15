//! The fault-hardened storage plane: every spill and durable-checkpoint
//! I/O goes through `StorageCtx`, which consumes the fault plan's
//! injectable I/O faults, retries with capped exponential backoff, and
//! degrades gracefully when retries run out instead of failing the run.
//!
//! Degradations are deliberate and bounded:
//! - a spill *write* that ultimately fails leaves the shard host-resident
//!   (nothing was evicted, nothing is lost);
//! - a spill *read* that ultimately fails re-streams the shard's topology
//!   from the source graph (always available — the store is a cache of
//!   derived bytes, never the only copy);
//! - a checkpoint write that ultimately fails is *skipped*: the run
//!   continues covered by the previous durable snapshot.
//!
//! Every injected fault produces exactly one decision-log entry — a
//! [`Decision::StorageRetry`] if a remaining retry absorbed it, or the
//! degradation decision if it exhausted them — so chaos tests can audit
//! fault handling one-for-one. Backoffs are recorded in the decision but
//! never slept and never charged to the virtual device timelines: they
//! model host-side wall time, which the simulation prices elsewhere.
//!
//! With no I/O faults armed the context is one branch per call and the
//! run's outputs are byte-identical to a build without this module.

use std::path::Path;

use gr_observe::{Decision, MetricsRegistry, Observer};
use gr_sim::{FaultPlan, IoFault, IoFaultState, IoOp};

use crate::exec::EngineMetric;
use crate::frame::write_atomic;
use crate::recovery::{EngineError, RecoveryPolicy};
use crate::store::{FileShardStore, ShardStore};

/// Fault-injection, retry, and degradation wrapper for spill and
/// checkpoint I/O. One per run; all state is deterministic. Retries,
/// re-streams and skipped checkpoints are counted in the engine
/// registry each call is handed.
pub(crate) struct StorageCtx {
    io: IoFaultState,
    policy: RecoveryPolicy,
    observer: Observer,
}

impl StorageCtx {
    pub(crate) fn new(plan: &FaultPlan, policy: RecoveryPolicy, observer: Observer) -> Self {
        StorageCtx {
            io: IoFaultState::new(plan),
            policy,
            observer,
        }
    }

    /// Injected storage faults consumed so far (chaos tests assert this
    /// equals the count of storage decisions).
    #[cfg(test)]
    pub(crate) fn injected(&self) -> u64 {
        self.io.injected()
    }

    /// Run one attempt sequence for `op`: returns `Ok(true)` when an
    /// attempt came up fault-free (the caller may now perform the real
    /// I/O), `Ok(false)` when retries were exhausted (the caller
    /// degrades). Emits exactly one decision per injected fault.
    fn attempt(
        &mut self,
        metrics: &mut MetricsRegistry<EngineMetric>,
        op: IoOp,
        iteration: u32,
        shard: u32,
    ) -> Result<bool, EngineError> {
        for attempt in 0..=self.policy.max_retries {
            let Some(fault) = self.io.next(op) else {
                return Ok(true);
            };
            if attempt < self.policy.max_retries {
                metrics.inc(EngineMetric::StorageRetries, 1);
                let backoff_ns = self.policy.backoff(attempt + 1).as_nanos();
                self.observer.decision(|| Decision::StorageRetry {
                    iteration,
                    op: op.name(),
                    fault: fault.name(op),
                    shard,
                    attempt: attempt + 1,
                    backoff_ns,
                });
            } else {
                return Ok(false);
            }
        }
        unreachable!("the final attempt always returns")
    }

    /// Spill a shard payload to the store. `Ok(None)` means the write was
    /// abandoned after retries: the shard stays host-resident and the
    /// caller must not mark it spilled.
    pub(crate) fn spill_put(
        &mut self,
        metrics: &mut MetricsRegistry<EngineMetric>,
        store: &FileShardStore,
        shard: u32,
        payload: &[u8],
        iteration: u32,
    ) -> Result<Option<u64>, EngineError> {
        if self.attempt(metrics, IoOp::SpillWrite, iteration, shard)? {
            return Ok(Some(store.put(shard, payload)?));
        }
        self.observer.decision(|| Decision::StorageDegraded {
            iteration,
            op: IoOp::SpillWrite.name(),
            shard,
            rationale: "shard stays host-resident",
        });
        Ok(None)
    }

    /// Read a spilled shard payload back. `Ok(None)` means retries were
    /// exhausted: the caller re-streams the shard from the source graph.
    pub(crate) fn spill_get(
        &mut self,
        metrics: &mut MetricsRegistry<EngineMetric>,
        store: &FileShardStore,
        shard: u32,
        iteration: u32,
    ) -> Result<Option<Vec<u8>>, EngineError> {
        if self.attempt(metrics, IoOp::SpillRead, iteration, shard)? {
            return Ok(Some(store.get(shard)?));
        }
        metrics.inc(EngineMetric::SpillRestreams, 1);
        self.observer.decision(|| Decision::StorageDegraded {
            iteration,
            op: IoOp::SpillRead.name(),
            shard,
            rationale: "re-stream from source graph",
        });
        Ok(None)
    }

    /// Write a durable snapshot file atomically, absorbing injected
    /// checkpoint-write faults. A torn fault deposits a truncated `.tmp`
    /// file (which the resume scanner never considers — the suffix
    /// excludes it) before the retry, modelling a crash mid-write behind
    /// the rename barrier. `Ok(None)` means the write was skipped after
    /// exhaustion; the run continues on the previous snapshot.
    pub(crate) fn snapshot_write(
        &mut self,
        metrics: &mut MetricsRegistry<EngineMetric>,
        dir: &Path,
        name: &str,
        boundary: u32,
        bytes: &[u8],
    ) -> Result<Option<u64>, EngineError> {
        for attempt in 0..=self.policy.max_retries {
            let Some(fault) = self.io.next(IoOp::CheckpointWrite) else {
                return Ok(Some(write_atomic(dir, name, bytes)?));
            };
            if matches!(fault, IoFault::Torn) {
                // The torn write got as far as a partial temp file.
                let torn = &bytes[..bytes.len() / 2];
                let tmp = dir.join(format!("{name}.tmp"));
                let _ = std::fs::create_dir_all(dir);
                let _ = std::fs::write(&tmp, torn);
            }
            if attempt < self.policy.max_retries {
                metrics.inc(EngineMetric::StorageRetries, 1);
                let backoff_ns = self.policy.backoff(attempt + 1).as_nanos();
                self.observer.decision(|| Decision::StorageRetry {
                    iteration: boundary,
                    op: IoOp::CheckpointWrite.name(),
                    fault: fault.name(IoOp::CheckpointWrite),
                    shard: 0,
                    attempt: attempt + 1,
                    backoff_ns,
                });
            } else {
                metrics.inc(EngineMetric::CheckpointsSkipped, 1);
                self.observer.decision(|| Decision::CheckpointSkipped {
                    iteration: boundary,
                    rationale: fault.name(IoOp::CheckpointWrite),
                });
                return Ok(None);
            }
        }
        unreachable!("the final attempt always returns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let seq = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let d = std::env::temp_dir().join(format!("gr-storage-{tag}-{}-{seq}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn disarmed_context_is_pass_through_with_zero_decisions() {
        let (obs, rec) = Observer::recording();
        let mut m = MetricsRegistry::new();
        let mut ctx = StorageCtx::new(&FaultPlan::none(), RecoveryPolicy::default(), obs);
        let dir = tmpdir("passthrough");
        let store = FileShardStore::new(&dir);
        let b = ctx.spill_put(&mut m, &store, 0, b"payload", 1).unwrap();
        assert_eq!(b, Some(7));
        let back = ctx.spill_get(&mut m, &store, 0, 1).unwrap();
        assert_eq!(back.as_deref(), Some(&b"payload"[..]));
        assert_eq!(ctx.injected(), 0);
        assert_eq!(m.counter(EngineMetric::StorageRetries), 0);
        assert_eq!(rec.recorded().storage_decisions(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn transient_spill_faults_are_retried_one_decision_each() {
        let (obs, rec) = Observer::recording();
        let plan = FaultPlan::none()
            .fail_spill_read(0, 2)
            .fail_spill_write(0, 1);
        let mut m = MetricsRegistry::new();
        let mut ctx = StorageCtx::new(&plan, RecoveryPolicy::default(), obs);
        let dir = tmpdir("transient");
        let store = FileShardStore::new(&dir);
        assert!(ctx
            .spill_put(&mut m, &store, 3, b"xyz", 0)
            .unwrap()
            .is_some());
        assert!(ctx.spill_get(&mut m, &store, 3, 1).unwrap().is_some());
        assert_eq!(ctx.injected(), 3);
        assert_eq!(m.counter(EngineMetric::StorageRetries), 3);
        assert_eq!(m.counter(EngineMetric::SpillRestreams), 0);
        let got = rec.recorded();
        assert_eq!(got.storage_decisions() as u64, ctx.injected());
        assert!(got
            .decisions
            .iter()
            .all(|d| matches!(d, Decision::StorageRetry { .. })));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn exhausted_spill_read_degrades_to_restream() {
        let (obs, rec) = Observer::recording();
        // More consecutive faults than retries: the 4th exhausts.
        let plan = FaultPlan::none().fail_spill_read(0, 4);
        let mut m = MetricsRegistry::new();
        let mut ctx = StorageCtx::new(&plan, RecoveryPolicy::default(), obs);
        let dir = tmpdir("exhausted");
        let store = FileShardStore::new(&dir);
        store.put(9, b"blob").unwrap();
        assert!(ctx.spill_get(&mut m, &store, 9, 2).unwrap().is_none());
        assert_eq!(m.counter(EngineMetric::SpillRestreams), 1);
        assert_eq!(ctx.injected(), 4);
        let got = rec.recorded();
        assert_eq!(got.storage_decisions() as u64, ctx.injected());
        assert!(matches!(
            got.decisions.last(),
            Some(Decision::StorageDegraded {
                rationale: "re-stream from source graph",
                ..
            })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_checkpoint_write_retries_and_never_installs_a_half_file() {
        let (obs, rec) = Observer::recording();
        let plan = FaultPlan::none().torn_checkpoint_write(0, 1);
        let mut m = MetricsRegistry::new();
        let mut ctx = StorageCtx::new(&plan, RecoveryPolicy::default(), obs);
        let dir = tmpdir("torn");
        let bytes = vec![0x5au8; 256];
        let written = ctx
            .snapshot_write(&mut m, &dir, "ckpt-00000001.grck", 1, &bytes)
            .unwrap();
        assert_eq!(written, Some(256));
        let finalb = std::fs::read(dir.join("ckpt-00000001.grck")).unwrap();
        assert_eq!(finalb, bytes, "retry installed the complete file");
        assert_eq!(m.counter(EngineMetric::StorageRetries), 1);
        let got = rec.recorded();
        assert_eq!(got.storage_decisions() as u64, ctx.injected());
        assert!(matches!(
            got.decisions[0],
            Decision::StorageRetry {
                fault: "torn.checkpoint.write",
                ..
            }
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn exhausted_checkpoint_write_is_skipped_not_fatal() {
        let (obs, rec) = Observer::recording();
        let plan = FaultPlan::none().fail_checkpoint_write(0, 10);
        let mut m = MetricsRegistry::new();
        let mut ctx = StorageCtx::new(&plan, RecoveryPolicy::default(), obs);
        let dir = tmpdir("skip");
        let out = ctx
            .snapshot_write(&mut m, &dir, "ckpt-00000002.grck", 2, &[1, 2, 3])
            .unwrap();
        assert!(out.is_none());
        assert_eq!(m.counter(EngineMetric::CheckpointsSkipped), 1);
        assert!(!dir.join("ckpt-00000002.grck").exists());
        let got = rec.recorded();
        assert_eq!(got.storage_decisions(), 4, "3 retries + 1 skip");
        assert!(matches!(
            got.decisions.last(),
            Some(Decision::CheckpointSkipped { iteration: 2, .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fail_fast_policy_degrades_on_the_first_fault() {
        let (obs, rec) = Observer::recording();
        let plan = FaultPlan::none().fail_spill_write(0, 1);
        let mut m = MetricsRegistry::new();
        let mut ctx = StorageCtx::new(&plan, RecoveryPolicy::fail_fast(), obs);
        let dir = tmpdir("failfast");
        let store = FileShardStore::new(&dir);
        assert!(ctx.spill_put(&mut m, &store, 0, b"p", 0).unwrap().is_none());
        assert_eq!(m.counter(EngineMetric::StorageRetries), 0);
        assert_eq!(rec.recorded().storage_decisions(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
