//! The BSP loop both engines run: the exact computation happens once per
//! iteration on the host, and only the device timeline is ever replayed.
//!
//! DESIGN §2's substitution made literal. `HostState::compute_iteration`
//! produces the iteration's results and its per-shard [`ShardWork`]; an
//! engine's `Timeline` prices that work on its devices. When a device op
//! fails past its retry budget the timeline unwinds with an [`Abort`], the
//! engine settles its devices, and the same work is emitted again. The
//! host state never moved, so there is nothing to checkpoint in memory and
//! nothing to recompute: a replay logs no second `ShardSkip` and feeds no
//! second frontier observation. Durable snapshots, the kill switch and the
//! iteration span also live here, once for both engines.

use gr_graph::{Bitmap, GraphLayout, Shard, TopoView};
use gr_observe::{Decision, MetricsRegistry, Observer, SpanEvent, WallProfiler};
use gr_sim::DeviceFault;

use crate::api::GasProgram;
use crate::engine::WarmStart;
use crate::options::Options;
use crate::phases::ShardWork;
use crate::recovery::EngineError;
use crate::snapshot;
use crate::snapshot_delta::RestoredFromDisk;
use crate::storage::StorageCtx;

use super::device::Abort;
use super::durable::{DurableConfig, DurableWriter};
use super::host::HostState;
use super::plan::emit_plan_decisions;
use super::EngineMetric;

/// Replays allowed per init, iteration or finalize before a persistent
/// fault becomes [`EngineError::Unrecoverable`] (guards against
/// pathological hand-built plans that fault the same op forever).
const REPLAY_CAP: u32 = 64;

/// One engine's device timeline: everything the loop does not own.
/// Emission methods unwind with [`Abort`]; the loop replays them after
/// [`Timeline::recover`], with the same host results every time.
pub(crate) trait Timeline {
    /// Observer track of the per-iteration span.
    const TRACK: &'static str;

    /// The topology the host kernels read and the shards they compute.
    fn host_view(&self) -> (TopoView<'_>, &[Shard]);

    /// The engine registry the loop counts into, and the storage plane
    /// durable snapshots are written through.
    fn io(&mut self) -> (&mut MetricsRegistry<EngineMetric>, &mut StorageCtx);

    /// Current virtual time.
    fn now_ns(&self) -> u64;

    /// Work before an iteration's compute that may fail the run (storage
    /// reads), given the iteration's frontier.
    fn prepare(&mut self, _iter: u32, _frontier: &Bitmap) -> Result<(), EngineError> {
        Ok(())
    }

    /// Device setup before iteration 0.
    fn init(&mut self) -> Result<(), Abort>;

    /// Price one iteration's `work`; `changed` is its changed-vertex set.
    fn iteration(&mut self, iter: u32, work: &[ShardWork], changed: &Bitmap) -> Result<(), Abort>;

    /// Device teardown after the last iteration.
    fn finalize(&mut self, iter: u32) -> Result<(), Abort>;

    /// Settle the devices after `a` (the doomed attempt's time stays on
    /// the clock) and handle a device loss; an error ends the run.
    fn recover(&mut self, a: &Abort, iter: u32) -> Result<(), EngineError>;

    /// Device count and shard owners to stamp into durable snapshots.
    fn placement(&self) -> Option<(u32, &[usize])> {
        None
    }
}

/// What the loop needs beyond the timeline. `opts` supplies the
/// checkpoint policy, the snapshot codec, the host kernel mode, frontier
/// management and phase fusion.
pub(crate) struct Bsp<'a, P: GasProgram> {
    pub(crate) program: &'a P,
    pub(crate) layout: &'a GraphLayout,
    pub(crate) opts: &'a Options,
    /// Iteration boundary at which a process-kill fault ends the run.
    pub(crate) kill_at: Option<u32>,
    pub(crate) observer: Observer,
    pub(crate) wall: WallProfiler,
}

impl<P: GasProgram> Bsp<'_, P> {
    /// Run to convergence from a snapshot, a warm start or a cold start,
    /// returning the final host state and the iteration count.
    pub(crate) fn run<T: Timeline>(
        &self,
        t: &mut T,
        warm: Option<WarmStart<P>>,
        restored: Option<RestoredFromDisk<P>>,
    ) -> Result<(HostState<P>, u32), EngineError> {
        let (program, observer) = (self.program, &self.observer);
        self.wall.set_algorithm(program.name());
        let (mut host, mut durable) = self.start(t, warm, restored);
        emit_plan_decisions(
            observer,
            self.opts.phase_fusion,
            program.has_gather(),
            program.has_scatter(),
        );
        self.replay(t, 0, T::init)?;
        // Resume continues from the restored boundary (0 on a cold start);
        // a forced snapshot first makes even a kill at iteration 0
        // restartable.
        let mut iter = host.iterations.len() as u32;
        write_durable(t, &mut durable, &host, true, observer)?;
        // Read once per run: a `RAYON_NUM_THREADS` change between queries
        // takes effect at the next query.
        let threads = rayon::current_num_threads();
        while iter < program.max_iterations() && host.frontier.count() > 0 {
            if self.kill_at == Some(iter) {
                return Err(EngineError::Killed { iteration: iter });
            }
            let start_ns = t.now_ns();
            t.prepare(iter, &host.frontier)?;
            let (view, shards) = t.host_view();
            let work = host.compute_iteration(
                program,
                view,
                shards,
                self.opts.host_kernels,
                self.opts.frontier_management,
                threads,
                iter,
                observer,
                &self.wall,
            );
            let st = *host.iterations.last().expect("pushed by compute_iteration");
            let (metrics, _) = t.io();
            metrics.observe(EngineMetric::FrontierSize, st.frontier_size);
            metrics.observe(EngineMetric::ActiveShards, st.shards_processed as u64);
            self.replay(t, iter, |t| t.iteration(iter, &work, &host.changed))?;
            host.finish_iteration();
            // `changed` survives `finish_iteration` (which only swaps
            // frontiers), so delta dirty-tracking sees this iteration.
            if let Some(w) = durable.as_mut() {
                w.record_iteration(&host.changed);
            }
            write_durable(t, &mut durable, &host, false, observer)?;
            let end_ns = t.now_ns();
            observer.span(|| SpanEvent {
                track: T::TRACK,
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
        write_durable(t, &mut durable, &host, true, observer)?;
        self.replay(t, iter, |t| t.finalize(iter))?;
        Ok((host, iter))
    }

    /// The state the run starts from, and the durable writer (armed by a
    /// durable policy) seeded so a resume continues the killed run's
    /// full/delta schedule exactly where it left off.
    fn start<T: Timeline>(
        &self,
        t: &mut T,
        warm: Option<WarmStart<P>>,
        restored: Option<RestoredFromDisk<P>>,
    ) -> (HostState<P>, Option<DurableWriter>) {
        let mut resumed = None;
        let host = match (restored, warm) {
            (Some(r), _) => {
                let (iteration, bytes) = (r.state.iterations.len() as u32, r.bytes);
                t.io().0.inc(EngineMetric::CheckpointRestores, 1);
                self.observer
                    .decision(|| Decision::CheckpointRestore { iteration, bytes });
                resumed = Some((iteration, r.delta));
                r.state
            }
            (None, Some(w)) => HostState::warm(self.program, self.layout, w),
            (None, None) => HostState::cold(self.program, self.layout),
        };
        let durable = DurableConfig::from_policy(&self.opts.checkpoint_policy).map(|cfg| {
            let fp = snapshot::fingerprint_for(self.program, self.layout);
            let n = self.layout.num_vertices();
            let mut w = DurableWriter::new(cfg, fp, n, self.opts.shard_compression);
            if let Some((boundary, chain)) = resumed {
                w.note_restored(boundary, chain);
            }
            w
        });
        (host, durable)
    }

    /// Run `attempt` until it completes. After each [`Abort`] a transient
    /// fault counts one rollback and logs one [`Decision::Rollback`] (or
    /// ends the run past [`REPLAY_CAP`]), the timeline recovers, and the
    /// attempt replays.
    fn replay<T: Timeline>(
        &self,
        t: &mut T,
        iter: u32,
        mut attempt: impl FnMut(&mut T) -> Result<(), Abort>,
    ) -> Result<(), EngineError> {
        let mut replays = 0u32;
        while let Err(a) = attempt(t) {
            replays += 1;
            if !matches!(a.fault, DeviceFault::Lost) {
                if replays > REPLAY_CAP {
                    return Err(EngineError::Unrecoverable { op: a.op });
                }
                t.io().0.inc(EngineMetric::Rollbacks, 1);
                let (device, fault) = (a.device as u32, a.fault.name());
                self.observer.decision(|| Decision::Rollback {
                    iteration: iter,
                    device,
                    op: a.op,
                    fault,
                });
            }
            t.recover(&a, iter)?;
        }
        Ok(())
    }
}

/// Write a durable snapshot of the current boundary (no-op without a
/// durable policy). Disk time is host-side and off the device timeline,
/// so durable runs stay time-identical to in-memory-only runs.
fn write_durable<P: GasProgram, T: Timeline>(
    t: &mut T,
    durable: &mut Option<DurableWriter>,
    host: &HostState<P>,
    force: bool,
    observer: &Observer,
) -> Result<(), EngineError> {
    let Some(w) = durable.as_mut() else {
        return Ok(());
    };
    if let Some((num_gpus, owners)) = t.placement() {
        w.set_placement(num_gpus, owners);
    }
    let (metrics, storage) = t.io();
    w.maybe_write(host, force, storage, observer, metrics)
}
