//! The BSP loop every run goes through: the exact computation happens once
//! per iteration on the host, and only the device timeline is ever
//! replayed.
//!
//! DESIGN §2's substitution made literal. `HostState::compute_iteration`
//! produces the iteration's results and its per-shard
//! [`ShardWork`](crate::phases::ShardWork); the
//! [`Runner`] prices that work on its devices. When a device op fails
//! past its retry budget the timeline unwinds with an [`Abort`], the
//! runner settles its devices, and the same work is emitted again. The
//! host state never moved, so there is nothing to checkpoint in memory and
//! nothing to recompute: a replay logs no second `ShardSkip` and feeds no
//! second frontier observation. Durable snapshots, the kill switch and the
//! iteration span also live here.

use gr_observe::{Decision, SpanEvent};
use gr_sim::DeviceFault;

use crate::api::GasProgram;
use crate::recovery::EngineError;
use crate::session::WarmStart;
use crate::snapshot;
use crate::snapshot_delta::RestoredFromDisk;

use super::device::Abort;
use super::driver::Runner;
use super::durable::{DurableConfig, DurableWriter};
use super::host::HostState;
use super::plan::emit_plan_decisions;
use super::EngineMetric;

/// Replays allowed per init, iteration or finalize before a persistent
/// fault becomes [`EngineError::Unrecoverable`] (guards against
/// pathological hand-built plans that fault the same op forever).
const REPLAY_CAP: u32 = 64;

impl<P: GasProgram> Runner<'_, P> {
    /// Run to convergence from a snapshot, a warm start or a cold start,
    /// returning the final host state and the iteration count. The
    /// options supply the checkpoint policy, the snapshot codec, the host
    /// kernel mode, frontier management and phase fusion.
    pub(super) fn bsp(
        &mut self,
        warm: Option<WarmStart<P>>,
        restored: Option<RestoredFromDisk<P>>,
    ) -> Result<(HostState<P>, u32), EngineError> {
        let (program, opts, observer) = (self.program, self.opts, self.observer.clone());
        self.wall.set_algorithm(program.name());
        let (mut host, mut durable) = self.start(warm, restored);
        emit_plan_decisions(
            &observer,
            opts.phase_fusion,
            program.has_gather(),
            program.has_scatter(),
        );
        self.replay(0, Self::init)?;
        // Resume continues from the restored boundary (0 on a cold start);
        // a forced snapshot first makes even a kill at iteration 0
        // restartable.
        let mut iter = host.iterations.len() as u32;
        self.write_durable(&mut durable, &host, true)?;
        // Read once per run: a `RAYON_NUM_THREADS` change between queries
        // takes effect at the next query.
        let threads = rayon::current_num_threads();
        while iter < program.max_iterations() && host.frontier.count() > 0 {
            if self.kill_at == Some(iter) {
                return Err(EngineError::Killed { iteration: iter });
            }
            let start_ns = self.now_ns();
            self.prepare(iter, &host.frontier)?;
            let (view, shards) = self.host_view();
            let work = host.compute_iteration(
                program,
                view,
                shards,
                opts.host_kernels,
                opts.frontier_management,
                threads,
                iter,
                &observer,
                &self.wall,
            );
            let st = *host.iterations.last().expect("pushed by compute_iteration");
            let (metrics, _) = self.io();
            metrics.observe(EngineMetric::FrontierSize, st.frontier_size);
            metrics.observe(EngineMetric::ActiveShards, st.shards_processed as u64);
            self.replay(iter, |t| t.iteration(iter, &work, &host.changed))?;
            host.finish_iteration();
            // `changed` survives `finish_iteration` (which only swaps
            // frontiers), so delta dirty-tracking sees this iteration.
            if let Some(w) = durable.as_mut() {
                w.record_iteration(&host.changed);
            }
            self.write_durable(&mut durable, &host, false)?;
            let end_ns = self.now_ns();
            observer.span(|| SpanEvent {
                track: self.track(),
                lane: "iterations".into(),
                name: format!("iteration {iter}"),
                start_ns,
                dur_ns: end_ns - start_ns,
                fields: vec![
                    ("iteration", iter.into()),
                    ("frontier_size", st.frontier_size.into()),
                    ("changed", st.changed.into()),
                    ("shards_processed", st.shards_processed.into()),
                    ("shards_skipped", st.shards_skipped.into()),
                ],
            });
            iter += 1;
        }
        // Converged: force a final snapshot so a completed run's durable
        // state is the answer, not the last periodic boundary.
        self.write_durable(&mut durable, &host, true)?;
        self.replay(iter, |t| t.finalize(iter))?;
        Ok((host, iter))
    }

    /// The state the run starts from, and the durable writer (armed by a
    /// durable policy) seeded so a resume continues the killed run's
    /// full/delta schedule exactly where it left off.
    fn start(
        &mut self,
        warm: Option<WarmStart<P>>,
        restored: Option<RestoredFromDisk<P>>,
    ) -> (HostState<P>, Option<DurableWriter>) {
        let (program, layout, opts) = (self.program, self.layout, self.opts);
        let mut resumed = None;
        let host = match (restored, warm) {
            (Some(r), _) => {
                let (iteration, bytes) = (r.state.iterations.len() as u32, r.bytes);
                self.io().0.inc(EngineMetric::CheckpointRestores, 1);
                self.observer
                    .decision(|| Decision::CheckpointRestore { iteration, bytes });
                resumed = Some((iteration, r.delta));
                r.state
            }
            (None, Some(w)) => HostState::warm(program, layout, w),
            (None, None) => HostState::cold(program, layout),
        };
        let durable = DurableConfig::from_policy(&opts.checkpoint_policy).map(|cfg| {
            let fp = snapshot::fingerprint_for(program, layout);
            let n = layout.num_vertices();
            let mut w = DurableWriter::new(cfg, fp, n, opts.shard_compression);
            if let Some((boundary, chain)) = resumed {
                w.note_restored(boundary, chain);
            }
            w
        });
        (host, durable)
    }

    /// Run `attempt` until it completes. After each [`Abort`] a transient
    /// fault counts one rollback and logs one [`Decision::Rollback`] (or
    /// ends the run past [`REPLAY_CAP`]), the runner recovers, and the
    /// attempt replays.
    fn replay(
        &mut self,
        iter: u32,
        mut attempt: impl FnMut(&mut Self) -> Result<(), Abort>,
    ) -> Result<(), EngineError> {
        let mut replays = 0u32;
        while let Err(a) = attempt(self) {
            replays += 1;
            if !matches!(a.fault, DeviceFault::Lost) {
                if replays > REPLAY_CAP {
                    return Err(EngineError::Unrecoverable { op: a.op });
                }
                self.io().0.inc(EngineMetric::Rollbacks, 1);
                let (device, fault) = (a.device as u32, a.fault.name());
                self.observer.decision(|| Decision::Rollback {
                    iteration: iter,
                    device,
                    op: a.op,
                    fault,
                });
            }
            self.recover(&a, iter)?;
        }
        Ok(())
    }

    /// Write a durable snapshot of the current boundary (no-op without a
    /// durable policy). Disk time is host-side and off the device
    /// timeline, so durable runs stay time-identical to in-memory-only
    /// runs.
    fn write_durable(
        &mut self,
        durable: &mut Option<DurableWriter>,
        host: &HostState<P>,
        force: bool,
    ) -> Result<(), EngineError> {
        let Some(w) = durable.as_mut() else {
            return Ok(());
        };
        if let Some((num_gpus, owners)) = self.placement() {
            w.set_placement(num_gpus, owners);
        }
        let observer = self.observer.clone();
        let (metrics, storage) = self.io();
        w.maybe_write(host, force, storage, &observer, metrics)
    }
}
