//! Host master state: the exact, eagerly computed results every run
//! produces regardless of what the virtual device timeline does. One per
//! run — the multi orchestrator shares this single copy across its
//! devices (vertex state is replicated, so host truth is global).
//!
//! This is the real-compute half of the driver layer: the BSP iteration
//! over the GAS phase kernels (`crates/core/src/phases.rs`), fanned out
//! across shards on host threads when available. Each per-shard phase
//! execution is wrapped in a `WallProfiler` scope keyed by (iteration,
//! shard, phase, resolved kernel shape), so armed runs attribute real
//! milliseconds to the Serial/Dense/Sparse choices — disarmed, each
//! scope is one branch (see `gr-observe`'s overhead guard).

use gr_graph::{Bitmap, GraphLayout, Shard, TopoView};
use gr_observe::profiler::{WALL_ITERATION, WALL_NO_SHARD};
use gr_observe::{Decision, MetricsRegistry, Observer, WallKey, WallProfiler};

use crate::api::{GasProgram, InitialFrontier};
use crate::checkpoint::Checkpoint;
use crate::engine::WarmStart;
use crate::options::HostKernels;
use crate::phases::{
    activate_shard, apply_shard, gather_shard, scatter_shard, shape_name, ShardWork,
};
use crate::stats::IterationStats;

/// Wall-scope key for one shard's slice of a GAS phase: the shape is
/// resolved exactly as the kernel will resolve it (same driving-bitmap
/// count, same interval), so attribution never disagrees with execution.
/// Only called from inside an armed scope's key closure.
fn phase_key(
    iter: u32,
    shard: u32,
    phase: &'static str,
    mode: HostKernels,
    driving: &Bitmap,
    sh: &Shard,
) -> WallKey {
    WallKey {
        iteration: iter,
        shard,
        phase,
        shape: shape_name(
            mode,
            driving.count_range(sh.interval.start, sh.interval.end),
            sh.interval.len() as u64,
        ),
    }
}

pub(crate) struct HostState<P: GasProgram> {
    pub(crate) vertex_values: Vec<P::VertexValue>,
    pub(crate) edge_values: Vec<P::EdgeValue>,
    pub(crate) gather_temp: Vec<P::Gather>,
    pub(crate) frontier: Bitmap,
    pub(crate) changed: Bitmap,
    pub(crate) next_frontier: Bitmap,
    pub(crate) iterations: Vec<IterationStats>,
}

impl<P: GasProgram> HostState<P> {
    /// Cold start: `init_vertex` everywhere, frontier from the program.
    pub(crate) fn cold(program: &P, layout: &GraphLayout) -> Self {
        let n = layout.num_vertices();
        let values = (0..n)
            .map(|v| program.init_vertex(v, layout.csr.degree(v) as u32))
            .collect();
        let mut frontier = match program.initial_frontier() {
            InitialFrontier::All => Bitmap::full(n),
            InitialFrontier::Single(v) => {
                let mut b = Bitmap::new(n);
                if n > 0 {
                    b.set(v);
                }
                b
            }
        };
        if n == 0 {
            frontier = Bitmap::new(0);
        }
        Self::with_frontier(program, layout, values, frontier)
    }

    /// Warm start: carry a previous run's vertex values (padded with
    /// `init_vertex` for added vertices), seed the frontier explicitly.
    pub(crate) fn warm(program: &P, layout: &GraphLayout, w: WarmStart<P>) -> Self {
        let n = layout.num_vertices();
        let mut values = w.vertex_values;
        assert!(
            values.len() <= n as usize,
            "warm-start values exceed the vertex set"
        );
        for v in values.len() as u32..n {
            values.push(program.init_vertex(v, layout.csr.degree(v) as u32));
        }
        let mut b = Bitmap::new(n);
        for v in w.frontier {
            b.set(v);
        }
        Self::with_frontier(program, layout, values, b)
    }

    fn with_frontier(
        program: &P,
        layout: &GraphLayout,
        vertex_values: Vec<P::VertexValue>,
        frontier: Bitmap,
    ) -> Self {
        let n = layout.num_vertices();
        HostState {
            vertex_values,
            edge_values: vec![P::EdgeValue::default(); layout.num_edges() as usize],
            gather_temp: vec![program.gather_identity(); n as usize],
            frontier,
            changed: Bitmap::new(n),
            next_frontier: Bitmap::new(n),
            iterations: Vec::new(),
        }
    }

    /// One exact BSP iteration: Gather over all shards, Apply, Scatter,
    /// FrontierActivate, with every merge in shard order so results are
    /// bit-identical whether shards run serial or fanned out over host
    /// threads. Pushes this iteration's [`IterationStats`] and logs one
    /// [`Decision::ShardSkip`] per inactive shard (when frontier
    /// management is on — one decision == one shard counted skipped).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn compute_iteration(
        &mut self,
        program: &P,
        view: TopoView<'_>,
        shards: &[Shard],
        mode: HostKernels,
        frontier_management: bool,
        iter: u32,
        observer: &Observer,
        metrics: &mut MetricsRegistry,
        wall: &WallProfiler,
    ) -> Vec<ShardWork> {
        let _iter_scope = wall.scope(|| WallKey {
            iteration: iter,
            shard: WALL_NO_SHARD,
            phase: WALL_ITERATION,
            shape: "",
        });
        let layout = view.layout();
        let frontier_size = self.frontier.count();
        self.changed.clear_all();
        self.next_frontier.clear_all();
        let num_shards = shards.len();
        let mut work = vec![ShardWork::default(); num_shards];
        // Shards are independent within a BSP stage: with host threads
        // available, gather/apply/activate fan out one task per shard
        // (the intra-shard kernels may split further). All merge steps
        // run in shard order, so results are bit-identical to serial.
        let across_shards = rayon::current_num_threads() > 1 && num_shards > 1;

        // Gather (all shards, before any apply — BSP).
        if program.has_gather() {
            if across_shards {
                let vertex_values = &self.vertex_values;
                let edge_values = &self.edge_values;
                let frontier = &self.frontier;
                // Carve gather_temp into per-shard slices (intervals are
                // contiguous, ordered, disjoint).
                let mut slices: Vec<&mut [P::Gather]> = Vec::with_capacity(num_shards);
                let mut rest: &mut [P::Gather] = &mut self.gather_temp;
                let mut offset = 0usize;
                for sh in shards.iter() {
                    let lo = sh.interval.start as usize;
                    let hi = sh.interval.end as usize;
                    let (_, tail) = rest.split_at_mut(lo - offset);
                    let (mine, tail) = tail.split_at_mut(hi - lo);
                    slices.push(mine);
                    rest = tail;
                    offset = hi;
                }
                rayon::scope(|s| {
                    for (si, ((sh, slice), w)) in
                        shards.iter().zip(slices).zip(work.iter_mut()).enumerate()
                    {
                        s.spawn(move |_| {
                            let _w = wall
                                .scope(|| phase_key(iter, si as u32, "gather", mode, frontier, sh));
                            let (a, e) = gather_shard(
                                program,
                                view,
                                sh,
                                vertex_values,
                                edge_values,
                                &layout.weights,
                                frontier,
                                slice,
                                mode,
                            );
                            w.active_vertices = a;
                            w.active_in_edges = e;
                        });
                    }
                });
            } else {
                for (i, sh) in shards.iter().enumerate() {
                    let lo = sh.interval.start as usize;
                    let hi = sh.interval.end as usize;
                    let _w = wall
                        .scope(|| phase_key(iter, i as u32, "gather", mode, &self.frontier, sh));
                    let (a, e) = gather_shard(
                        program,
                        view,
                        sh,
                        &self.vertex_values,
                        &self.edge_values,
                        &layout.weights,
                        &self.frontier,
                        &mut self.gather_temp[lo..hi],
                        mode,
                    );
                    work[i].active_vertices = a;
                    work[i].active_in_edges = e;
                }
            }
        } else {
            for (i, sh) in shards.iter().enumerate() {
                work[i].active_vertices = self
                    .frontier
                    .count_range(sh.interval.start, sh.interval.end);
            }
        }

        // Apply.
        if across_shards {
            let gather_temp = &self.gather_temp;
            let frontier = &self.frontier;
            let mut slices: Vec<&mut [P::VertexValue]> = Vec::with_capacity(num_shards);
            let mut rest: &mut [P::VertexValue] = &mut self.vertex_values;
            let mut offset = 0usize;
            for sh in shards.iter() {
                let lo = sh.interval.start as usize;
                let hi = sh.interval.end as usize;
                let (_, tail) = rest.split_at_mut(lo - offset);
                let (mine, tail) = tail.split_at_mut(hi - lo);
                slices.push(mine);
                rest = tail;
                offset = hi;
            }
            let mut ids: Vec<Vec<u32>> = (0..num_shards).map(|_| Vec::new()).collect();
            rayon::scope(|s| {
                for (si, ((sh, slice), out)) in
                    shards.iter().zip(slices).zip(ids.iter_mut()).enumerate()
                {
                    s.spawn(move |_| {
                        let _w =
                            wall.scope(|| phase_key(iter, si as u32, "apply", mode, frontier, sh));
                        let lo = sh.interval.start as usize;
                        let hi = sh.interval.end as usize;
                        *out = apply_shard(
                            program,
                            sh,
                            slice,
                            &gather_temp[lo..hi],
                            frontier,
                            iter,
                            mode,
                        );
                    });
                }
            });
            for (i, changed_ids) in ids.into_iter().enumerate() {
                work[i].changed_vertices = changed_ids.len() as u64;
                for v in changed_ids {
                    self.changed.set(v);
                }
            }
        } else {
            for (i, sh) in shards.iter().enumerate() {
                let lo = sh.interval.start as usize;
                let hi = sh.interval.end as usize;
                let _w =
                    wall.scope(|| phase_key(iter, i as u32, "apply", mode, &self.frontier, sh));
                let changed_ids = apply_shard(
                    program,
                    sh,
                    &mut self.vertex_values[lo..hi],
                    &self.gather_temp[lo..hi],
                    &self.frontier,
                    iter,
                    mode,
                );
                drop(_w);
                work[i].changed_vertices = changed_ids.len() as u64;
                for v in changed_ids {
                    self.changed.set(v);
                }
            }
        }

        // Scatter (only when defined). Serial across shards — the
        // canonical edge ids of different shards interleave in
        // `edge_values`, so there is no slice split; each shard's dense
        // path parallelizes internally instead.
        if program.has_scatter() {
            for (i, sh) in shards.iter().enumerate() {
                let _w =
                    wall.scope(|| phase_key(iter, i as u32, "scatter", mode, &self.changed, sh));
                scatter_shard(
                    program,
                    view,
                    sh,
                    &self.vertex_values,
                    &mut self.edge_values,
                    &self.changed,
                    mode,
                );
            }
        }

        // FrontierActivate (always; framework-generated). Across shards,
        // each task marks a private bitmap; merging in shard order keeps
        // the activation count identical to the serial pass.
        let mut activated_total = 0;
        if across_shards {
            let changed = &self.changed;
            let n = self.next_frontier.len();
            let mut locals: Vec<(u64, Bitmap)> =
                (0..num_shards).map(|_| (0, Bitmap::new(n))).collect();
            rayon::scope(|s| {
                for (si, (sh, slot)) in shards.iter().zip(locals.iter_mut()).enumerate() {
                    s.spawn(move |_| {
                        let _w = wall
                            .scope(|| phase_key(iter, si as u32, "activate", mode, changed, sh));
                        let (walked, _) = activate_shard(view, sh, changed, &mut slot.1, mode);
                        slot.0 = walked;
                    });
                }
            });
            for (i, (walked, local)) in locals.iter().enumerate() {
                work[i].out_edges_of_changed = *walked;
                let before = self.next_frontier.count();
                self.next_frontier.or_assign(local);
                activated_total += self.next_frontier.count() - before;
            }
        } else {
            for (i, sh) in shards.iter().enumerate() {
                let _w =
                    wall.scope(|| phase_key(iter, i as u32, "activate", mode, &self.changed, sh));
                let (walked, activated) =
                    activate_shard(view, sh, &self.changed, &mut self.next_frontier, mode);
                work[i].out_edges_of_changed = walked;
                activated_total += activated;
            }
        }

        let processed = if frontier_management {
            // Log one skip decision per inactive shard: the engine
            // inspected the shard's slice of the frontier bitmap and
            // found no active vertex, so the whole shard is elided
            // this iteration. One decision == one shard counted in
            // `shards_skipped`.
            for (i, sh) in shards.iter().enumerate() {
                if !work[i].is_active() {
                    let active = work[i].active_vertices;
                    observer.decision(|| Decision::ShardSkip {
                        iteration: iter,
                        shard: i as u32,
                        interval_bits: sh.interval.len() as u64,
                        active_bits: active,
                    });
                }
            }
            work.iter().filter(|w| w.is_active()).count() as u32
        } else {
            num_shards as u32
        };
        metrics.observe("engine.frontier_size", frontier_size);
        metrics.observe("engine.active_shards", processed as u64);
        self.iterations.push(IterationStats {
            frontier_size,
            gathered_edges: work.iter().map(|w| w.active_in_edges).sum(),
            changed: self.changed.count(),
            activated: activated_total,
            shards_processed: processed,
            shards_skipped: num_shards as u32 - processed,
        });
        work
    }

    /// Publish the next frontier (end of the BSP superstep).
    pub(crate) fn finish_iteration(&mut self) {
        std::mem::swap(&mut self.frontier, &mut self.next_frontier);
    }

    /// Snapshot everything an iteration replay must restore.
    pub(crate) fn checkpoint(&self) -> Checkpoint<P> {
        Checkpoint {
            vertex_values: self.vertex_values.clone(),
            edge_values: self.edge_values.clone(),
            gather_temp: self.gather_temp.clone(),
            frontier: self.frontier.clone(),
            changed: self.changed.clone(),
            next_frontier: self.next_frontier.clone(),
            iterations_len: self.iterations.len(),
        }
    }

    /// Roll state back to a checkpoint (drops stats of replayed
    /// iterations; residency caches are the caller's to reset).
    pub(crate) fn restore(&mut self, c: &Checkpoint<P>) {
        self.vertex_values.clone_from(&c.vertex_values);
        self.edge_values.clone_from(&c.edge_values);
        self.gather_temp.clone_from(&c.gather_temp);
        self.frontier = c.frontier.clone();
        self.changed = c.changed.clone();
        self.next_frontier = c.next_frontier.clone();
        self.iterations.truncate(c.iterations_len);
    }
}
