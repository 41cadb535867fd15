//! The durable-checkpoint writer the BSP loop drives, on one device or
//! several.
//!
//! `DurableWriter` owns the full-vs-delta schedule, the dirty-vertex
//! accumulator delta snapshots are keyed off, and what each snapshot
//! frame records beside the state: the multi-GPU placement (device count
//! and shard owners) and the body codec. All writes go through
//! the fault-hardened storage plane ([`crate::storage`]), so injected
//! checkpoint-write faults are retried and, after exhaustion, degrade to
//! a skipped snapshot instead of a failed run.
//!
//! Disk time is host-side and off the device timelines: durable runs stay
//! time-identical to in-memory-only runs.

use std::path::PathBuf;

use gr_graph::{Bitmap, CompressionCodec};
use gr_observe::{Decision, MetricsRegistry, Observer};

use crate::api::GasProgram;
use crate::exec::host::HostState;
use crate::frame::Placement;
use crate::recovery::EngineError;
use crate::snapshot::{self, CheckpointPolicy, Fingerprint};
use crate::snapshot_delta::DeltaChain;
use crate::storage::StorageCtx;

use super::EngineMetric;

/// The durable slice of a [`CheckpointPolicy`]: where, how often, and
/// whether boundaries between full snapshots write deltas.
pub(crate) struct DurableConfig {
    pub(crate) dir: PathBuf,
    pub(crate) every: u32,
    /// `Some(k)`: delta mode — promote every `k`-th durable boundary to a
    /// full snapshot, write deltas in between. `None`: every snapshot is
    /// full.
    pub(crate) full_every: Option<u32>,
}

impl DurableConfig {
    pub(crate) fn from_policy(p: &CheckpointPolicy) -> Option<Self> {
        let (dir, every, full_every) = match p {
            CheckpointPolicy::Durable { dir, every } => (dir, every, None),
            CheckpointPolicy::DurableDelta {
                dir,
                every,
                full_every,
            } => (dir, every, Some((*full_every).max(1))),
            _ => return None,
        };
        Some(DurableConfig {
            dir: dir.clone(),
            every: (*every).max(1),
            full_every,
        })
    }
}

/// Writes versioned, checksummed snapshots at BSP iteration boundaries,
/// choosing full vs delta deterministically — a resumed run makes the
/// same choices at the same boundaries as the uninterrupted one.
pub(crate) struct DurableWriter {
    cfg: DurableConfig,
    fp: Fingerprint,
    /// Snapshot payload compression: the run's shard codec, if any.
    codec: Option<CompressionCodec>,
    /// `Some`: record the cluster context in every snapshot (multi-GPU
    /// runs only).
    placement: Option<Placement>,
    /// Boundary the newest on-disk snapshot covers (write dedupe).
    durable_at: Option<u32>,
    /// Vertices changed since the last full snapshot (delta mode only).
    dirty: Bitmap,
    last_full_at: Option<u32>,
}

impl DurableWriter {
    pub(crate) fn new(
        cfg: DurableConfig,
        fp: Fingerprint,
        num_vertices: u32,
        codec: Option<CompressionCodec>,
    ) -> Self {
        DurableWriter {
            cfg,
            fp,
            codec,
            placement: None,
            durable_at: None,
            dirty: Bitmap::new(num_vertices),
            last_full_at: None,
        }
    }

    /// Record the device count and shard owners to stamp into every
    /// snapshot (runs on more than one device only; refreshed at every
    /// write, so evictions show).
    pub(crate) fn set_placement(&mut self, num_gpus: u32, owners: &[usize]) {
        self.placement = Some(Placement {
            num_gpus,
            owners: owners.iter().map(|&o| o as u32).collect(),
        });
    }

    /// A resume restored state at `boundary`; continue the schedule (and,
    /// for a delta restore, the dirty chain) exactly where the killed run
    /// left it.
    pub(crate) fn note_restored(&mut self, boundary: u32, chain: Option<DeltaChain>) {
        self.durable_at = Some(boundary);
        match chain {
            Some(c) => {
                self.last_full_at = Some(c.base_iterations);
                self.dirty = c.dirty;
            }
            None => self.last_full_at = Some(boundary),
        }
    }

    /// Fold one completed iteration's changed set into the dirty
    /// accumulator. Called once per iteration: a replay re-emits only the
    /// device timeline, never the changed set.
    pub(crate) fn record_iteration(&mut self, changed: &Bitmap) {
        if self.cfg.full_every.is_some() {
            self.dirty.or_assign(changed);
        }
    }

    /// Write a durable snapshot of the current iteration boundary — every
    /// `every` completed iterations, or unconditionally when `force`d
    /// (the initial boundary and convergence). Full vs delta follows the
    /// configured cadence; a skipped write (storage-fault exhaustion)
    /// leaves the previous snapshot in charge and the run continues.
    pub(crate) fn maybe_write<P: GasProgram>(
        &mut self,
        host: &HostState<P>,
        force: bool,
        storage: &mut StorageCtx,
        observer: &Observer,
        metrics: &mut MetricsRegistry<EngineMetric>,
    ) -> Result<(), EngineError> {
        let boundary = host.iterations.len() as u32;
        if self.durable_at == Some(boundary) || (!force && !boundary.is_multiple_of(self.cfg.every))
        {
            return Ok(());
        }
        // `Some(base)`: a delta against the full snapshot at `base`.
        let base = match (self.cfg.full_every, self.last_full_at) {
            (Some(fe), Some(last)) if boundary.saturating_sub(last) < self.cfg.every * fe => {
                Some(last)
            }
            _ => None,
        };
        let full = base.is_none();
        let (framed, raw_len) = snapshot::encode_state(
            &self.fp,
            host,
            base.map(|b| (b, &self.dirty)),
            self.placement.as_ref(),
            self.codec,
        );
        let name = snapshot::snapshot_name(boundary, !full);
        let Some(written) =
            storage.snapshot_write(metrics, &self.cfg.dir, &name, boundary, &framed)?
        else {
            // Skipped after retry exhaustion: the previous snapshot still
            // covers its boundary; the schedule state is untouched.
            return Ok(());
        };
        metrics.inc(EngineMetric::CheckpointWrites, 1);
        metrics.inc(EngineMetric::CheckpointBytes, written);
        metrics.inc(EngineMetric::CheckpointRawBytes, raw_len);
        if full {
            metrics.inc(EngineMetric::CheckpointFullBytes, written);
            self.last_full_at = Some(boundary);
            self.dirty.clear_all();
        } else {
            metrics.inc(EngineMetric::CheckpointDeltaWrites, 1);
            metrics.inc(EngineMetric::CheckpointDeltaBytes, written);
        }
        // Retention; a new full also drops the deltas it makes redundant.
        snapshot::prune(&self.cfg.dir, full.then_some(boundary))?;
        observer.decision(|| Decision::CheckpointWrite {
            iteration: boundary,
            bytes: written,
        });
        self.durable_at = Some(boundary);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recovery::RecoveryPolicy;
    use crate::snapshot::fingerprint_for;
    use crate::testprog::Cc;
    use gr_graph::{gen, GraphLayout};
    use gr_sim::FaultPlan;

    fn tmpdir(tag: &str) -> PathBuf {
        static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let seq = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let d = std::env::temp_dir().join(format!("gr-durable-{tag}-{}-{seq}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn delta_cadence_promotes_every_kth_boundary_to_full() {
        let layout = GraphLayout::build(&gen::uniform(64, 256, 3).symmetrize());
        let fp = fingerprint_for(&Cc, &layout);
        let dir = tmpdir("cadence");
        let cfg = DurableConfig {
            dir: dir.clone(),
            every: 1,
            full_every: Some(3),
        };
        let mut w = DurableWriter::new(cfg, fp.clone(), 64, None);
        let mut storage = StorageCtx::new(
            &FaultPlan::none(),
            RecoveryPolicy::default(),
            Observer::disabled(),
        );
        let mut metrics = MetricsRegistry::new();
        let mut host = HostState::<Cc>::cold(&Cc, &layout);
        // Boundary 0: always full. Boundaries 1, 2: deltas. Boundary 3: full.
        let mut kinds = Vec::new();
        for b in 0..=3u32 {
            while (host.iterations.len() as u32) < b {
                host.iterations
                    .push(crate::stats::IterationStats::default());
            }
            w.record_iteration(&host.changed);
            w.maybe_write(
                &host,
                b == 0,
                &mut storage,
                &Observer::disabled(),
                &mut metrics,
            )
            .unwrap();
            let full = dir.join(snapshot::snapshot_name(b, false)).exists();
            let delta = dir.join(snapshot::snapshot_name(b, true)).exists();
            kinds.push((full, delta));
        }
        assert_eq!(
            kinds,
            vec![(true, false), (false, true), (false, true), (true, false)],
            "full at 0, deltas at 1-2, full at 3"
        );
        assert_eq!(metrics.counter(EngineMetric::CheckpointWrites), 4);
        assert_eq!(metrics.counter(EngineMetric::CheckpointDeltaWrites), 2);
        assert!(
            metrics.counter(EngineMetric::CheckpointFullBytes)
                + metrics.counter(EngineMetric::CheckpointDeltaBytes)
                == metrics.counter(EngineMetric::CheckpointBytes)
        );
        // The full at 3 obsoleted the earlier deltas.
        assert!(!dir.join(snapshot::snapshot_name(1, true)).exists());
        assert!(!dir.join(snapshot::snapshot_name(2, true)).exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn same_boundary_never_writes_twice() {
        let layout = GraphLayout::build(&gen::uniform(64, 256, 3).symmetrize());
        let fp = fingerprint_for(&Cc, &layout);
        let dir = tmpdir("dedupe");
        let cfg = DurableConfig {
            dir: dir.clone(),
            every: 2,
            full_every: None,
        };
        let mut w = DurableWriter::new(cfg, fp, 64, None);
        let mut storage = StorageCtx::new(
            &FaultPlan::none(),
            RecoveryPolicy::default(),
            Observer::disabled(),
        );
        let mut metrics = MetricsRegistry::new();
        let host = HostState::<Cc>::cold(&Cc, &layout);
        w.maybe_write(
            &host,
            true,
            &mut storage,
            &Observer::disabled(),
            &mut metrics,
        )
        .unwrap();
        assert!(dir.join(snapshot::snapshot_name(0, false)).exists());
        // Forced again at the same boundary (convergence right after the
        // initial snapshot): deduped.
        w.maybe_write(
            &host,
            true,
            &mut storage,
            &Observer::disabled(),
            &mut metrics,
        )
        .unwrap();
        assert_eq!(metrics.counter(EngineMetric::CheckpointWrites), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
