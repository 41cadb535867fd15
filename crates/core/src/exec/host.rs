//! Host master state: the exact, eagerly computed results every run
//! produces regardless of what the virtual device timeline does. One per
//! run — a run on several devices shares this single copy across them
//! (vertex state is replicated, so host truth is global).
//!
//! This is the real-compute half of the driver layer: the BSP iteration
//! over the GAS phase kernels (`crates/core/src/phases.rs`). The host has
//! one parallel level, the shards (the paper's unit of concurrent work):
//! gather, apply and activate each cut the shard list into at most one
//! contiguous run per worker thread and run them through `in_runs`.
//! Activate pushes or pulls (`phases::activate_pulls`), one direction per
//! iteration for all shards.
//! Each per-shard phase execution is wrapped in a `WallProfiler` scope
//! keyed by (iteration, shard, phase, resolved kernel shape), so armed
//! runs attribute real milliseconds to the dense/sparse choices —
//! disarmed, each scope is one branch (see `gr-observe`'s overhead guard).

use std::ops::Range;

use gr_graph::{Bitmap, GraphLayout, Shard, TopoView};
use gr_observe::profiler::{WALL_ITERATION, WALL_NO_SHARD};
use gr_observe::{Decision, Observer, WallKey, WallProfiler};
use rayon::prelude::*;

use crate::api::GasProgram;
use crate::options::HostKernels;
use crate::phases::{
    activate_pull_shard, activate_pulls, activate_shard, apply_shard, fold_rows, gather_shard,
    scatter_shard, shape_name, ShardWork,
};
use crate::session::WarmStart;
use crate::stats::IterationStats;

/// A phase fans out only when its driving bitmap (the frontier for
/// gather/apply, `changed` for a pushed activate) holds at least this
/// many vertices; a pulled activate probes every vertex, so it counts
/// them all. Below it a thread spawn per run costs more than the run's
/// work: `grid-sparse` traversals, whose frontiers stay near 700 vertices,
/// ran 3x slower on two threads than on one without the gate, while the
/// dense opening iterations of `rmat-dense`/`rmat-zeta` sit far above it.
const FAN_OUT_MIN_ACTIVE: u64 = 4096;

/// A contiguous run of shard indices and the context its shards share.
type Run<C> = (Range<usize>, C);

/// Cut `0..num_shards` into contiguous runs of near-equal shard count:
/// one run below the gate, else up to one per worker thread. `active`
/// is the phase's driving population.
fn shard_runs(num_shards: usize, threads: usize, active: u64) -> Vec<Range<usize>> {
    let wanted = if active < FAN_OUT_MIN_ACTIVE {
        1
    } else {
        threads
    };
    let runs = wanted.min(num_shards);
    (0..runs)
        .map(|r| r * num_shards / runs..(r + 1) * num_shards / runs)
        .collect()
}

/// Pair each run with its shards' slice of a per-vertex array and the
/// vertex that slice starts at. Shard intervals are ordered and disjoint,
/// so the slices are too. An empty array (no cached gather terms) gives
/// every run an empty slice.
fn carve<'a, T>(
    mut rest: &'a mut [T],
    shards: &[Shard],
    runs: Vec<Range<usize>>,
) -> Vec<Run<(usize, &'a mut [T])>> {
    let mut offset = 0;
    let empty = rest.is_empty();
    runs.into_iter()
        .map(|run| {
            if empty {
                return (run, (0, Default::default()));
            }
            let lo = shards[run.start].interval.start as usize;
            let hi = shards[run.end - 1].interval.end as usize;
            let (_, tail) = std::mem::take(&mut rest).split_at_mut(lo - offset);
            let (mine, tail) = tail.split_at_mut(hi - lo);
            rest = tail;
            offset = hi;
            (run, (lo, mine))
        })
        .collect()
}

/// The host's one parallel level: `f` visits every shard of every run in
/// shard order with that run's context. The first run executes on the
/// caller and each further run on one scoped thread; a single run is
/// inline. Results come back in shard order, so merging them is the
/// serial merge.
fn in_runs<C: Send, R: Send>(
    runs: Vec<Run<C>>,
    f: impl Fn(&mut C, usize) -> R + Sync,
) -> impl Iterator<Item = R> {
    let per_run: Vec<Vec<R>> = runs
        .into_par_iter()
        .map(|(shards, mut ctx)| shards.map(|i| f(&mut ctx, i)).collect())
        .collect();
    per_run.into_iter().flatten()
}

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

/// A source-only program's gather term for a vertex of value `v`.
fn source_term<P: GasProgram>(program: &P, v: &P::VertexValue) -> P::Gather {
    program.gather_map(v, v, &P::EdgeValue::default(), 0.0)
}

pub(crate) struct HostState<P: GasProgram> {
    pub(crate) vertex_values: Vec<P::VertexValue>,
    pub(crate) edge_values: Vec<P::EdgeValue>,
    pub(crate) gather_temp: Vec<P::Gather>,
    /// A [`GasProgram::gather_is_source_only`] program's per-vertex gather
    /// term, `gather_map(v, v, ..)`; empty for every other program, and
    /// derived state: rebuilt whenever its length is not the vertex count
    /// (a fresh or restored state), refreshed by apply, never persisted.
    pub(crate) source_terms: Vec<P::Gather>,
    pub(crate) frontier: Bitmap,
    pub(crate) changed: Bitmap,
    pub(crate) next_frontier: Bitmap,
    /// Activate's private targets for every fanned-out run after the
    /// first: allocated at the first fan-out, kept all-zero between
    /// iterations (each is cleared through its summary after its merge).
    pub(crate) spare: Vec<Bitmap>,
    pub(crate) iterations: Vec<IterationStats>,
    /// One [`ShardWork`] summed over shards per iteration this run
    /// computed; a restored run's earlier iterations are not in it.
    pub(crate) work: Vec<ShardWork>,
}

impl<P: GasProgram> HostState<P> {
    /// Cold start: `init_vertex` everywhere, frontier from the program.
    pub(crate) fn cold(program: &P, layout: &GraphLayout) -> Self {
        let n = layout.num_vertices();
        let values = (0..n)
            .map(|v| program.init_vertex(v, layout.csr.degree(v) as u32))
            .collect();
        let frontier = program.initial_frontier().bitmap(n);
        Self::with_frontier(program, layout, values, frontier)
    }

    /// Warm start: carry a previous run's vertex values (padded with
    /// `init_vertex` for added vertices), seed the frontier explicitly.
    /// `w` has passed [`WarmStart::check`] against this layout.
    pub(crate) fn warm(program: &P, layout: &GraphLayout, w: WarmStart<P>) -> Self {
        let n = layout.num_vertices();
        let mut values = w.vertex_values;
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
            source_terms: Vec::new(),
            frontier,
            changed: Bitmap::new(n),
            next_frontier: Bitmap::new(n),
            spare: Vec::new(),
            iterations: Vec::new(),
            work: Vec::new(),
        }
    }

    /// One exact BSP iteration: Gather over all shards, Apply, Scatter,
    /// FrontierActivate. Gather, apply and activate fan out through
    /// [`in_runs`], whose results merge in shard order, so every result is
    /// bit-identical at any thread count. Pushes this iteration's
    /// [`IterationStats`] and logs one [`Decision::ShardSkip`] per inactive
    /// shard (when frontier management is on — one decision == one shard
    /// counted skipped). `threads` is the worker count the run read once
    /// at its start.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn compute_iteration(
        &mut self,
        program: &P,
        view: TopoView<'_>,
        shards: &[Shard],
        mode: HostKernels,
        frontier_management: bool,
        threads: usize,
        iter: u32,
        observer: &Observer,
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

        // Gather (all shards, before any apply — BSP). A source-only
        // program folds its cached per-source terms instead of mapping
        // every in-edge.
        let cached = program.has_gather() && program.gather_is_source_only();
        if cached && self.source_terms.len() != self.vertex_values.len() {
            let values = &self.vertex_values;
            self.source_terms = values.iter().map(|v| source_term(program, v)).collect();
        }
        if program.has_gather() {
            let (values, edge_values) = (&self.vertex_values, &self.edge_values);
            let (frontier, terms) = (&self.frontier, &self.source_terms);
            let runs = shard_runs(num_shards, threads, frontier_size);
            let counts = in_runs(
                carve(&mut self.gather_temp, shards, runs),
                |(base, temp), i| {
                    let sh = &shards[i];
                    let _w = wall.scope(|| phase_key(iter, i as u32, "gather", mode, frontier, sh));
                    let lo = sh.interval.start as usize - *base;
                    let hi = sh.interval.end as usize - *base;
                    let out = &mut temp[lo..hi];
                    if cached {
                        fold_rows(program, view, sh, frontier, out, mode, |_| {
                            |src, _| terms[src as usize]
                        })
                    } else {
                        gather_shard(
                            program,
                            view,
                            sh,
                            values,
                            edge_values,
                            &layout.weights,
                            frontier,
                            out,
                            mode,
                        )
                    }
                },
            );
            for (w, (active, in_edges)) in work.iter_mut().zip(counts) {
                w.active_vertices = active;
                w.active_in_edges = in_edges;
            }
        } else {
            for (w, sh) in work.iter_mut().zip(shards) {
                w.active_vertices = self
                    .frontier
                    .count_range(sh.interval.start, sh.interval.end);
            }
        }

        // Apply. A cached term is refreshed for every vertex apply
        // visits, changed or not (PageRank writes a rank it calls
        // unchanged), from the same runs as the values.
        let (gather_temp, frontier) = (&self.gather_temp, &self.frontier);
        let runs = shard_runs(num_shards, threads, frontier_size);
        let terms = carve(&mut self.source_terms, shards, runs.clone());
        let runs = carve(&mut self.vertex_values, shards, runs).into_iter();
        let changed_ids = in_runs(
            runs.zip(terms)
                .map(|((r, v), (_, (_, t)))| (r, (v, t)))
                .collect(),
            |((base, values), terms), i| {
                let sh = &shards[i];
                let _w = wall.scope(|| phase_key(iter, i as u32, "apply", mode, frontier, sh));
                let lo = sh.interval.start as usize;
                let hi = sh.interval.end as usize;
                let changed = apply_shard(
                    program,
                    sh,
                    &mut values[lo - *base..hi - *base],
                    &gather_temp[lo..hi],
                    frontier,
                    iter,
                    mode,
                );
                if cached {
                    for v in frontier.iter_set_range(sh.interval.start, sh.interval.end) {
                        let i = v as usize - *base;
                        terms[i] = source_term(program, &values[i]);
                    }
                }
                changed
            },
        );
        // The changed vertices' out-edge mass decides activate's direction.
        let mut changed_mass = 0;
        for (w, ids) in work.iter_mut().zip(changed_ids) {
            w.changed_vertices = ids.len() as u64;
            for v in ids {
                self.changed.set(v);
                changed_mass += layout.csr.degree(v);
            }
        }

        // Scatter (only when defined). Serial across shards — the
        // canonical edge ids of different shards interleave in
        // `edge_values`, so there is no slice split.
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

        // FrontierActivate (always; framework-generated), in one direction
        // for every shard. A pushing shard's out-edges land anywhere, and a
        // pulling shard writes only its own interval; either way the first
        // run marks `next_frontier` itself and each further run a spare
        // bitmap, OR-ed in after and cleared again.
        let changed = &self.changed;
        let pull = activate_pulls(mode, changed_mass, layout.num_edges());
        let driving = if pull {
            u64::from(layout.num_vertices())
        } else {
            changed.count()
        };
        let runs = shard_runs(num_shards, threads, driving);
        let n = self.next_frontier.len();
        let extra = runs.len().saturating_sub(1);
        if self.spare.len() < extra {
            self.spare.resize_with(extra, || Bitmap::new(n));
        }
        let spare = &mut self.spare[..extra];
        let targets = std::iter::once(&mut self.next_frontier).chain(spare.iter_mut());
        let walked = in_runs(runs.into_iter().zip(targets).collect(), |next, i| {
            let sh = &shards[i];
            if pull {
                let _w = wall.scope(|| WallKey {
                    iteration: iter,
                    shard: i as u32,
                    phase: "activate",
                    shape: "pull",
                });
                activate_pull_shard(view, sh, changed, next).0
            } else {
                let _w = wall.scope(|| phase_key(iter, i as u32, "activate", mode, changed, sh));
                activate_shard(view, sh, changed, next, mode).0
            }
        });
        for (w, walked) in work.iter_mut().zip(walked) {
            w.out_edges_of_changed = walked;
        }
        for bits in spare {
            self.next_frontier.or_assign(bits);
            bits.clear_all();
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
        self.iterations.push(IterationStats {
            frontier_size,
            gathered_edges: work.iter().map(|w| w.active_in_edges).sum(),
            changed: self.changed.count(),
            activated: self.next_frontier.count(),
            shards_processed: processed,
            shards_skipped: num_shards as u32 - processed,
        });
        self.work
            .push(work.iter().fold(ShardWork::default(), |s, w| ShardWork {
                active_vertices: s.active_vertices + w.active_vertices,
                active_in_edges: s.active_in_edges + w.active_in_edges,
                changed_vertices: s.changed_vertices + w.changed_vertices,
                out_edges_of_changed: s.out_edges_of_changed + w.out_edges_of_changed,
            }));
        work
    }

    /// Publish the next frontier (end of the BSP superstep).
    pub(crate) fn finish_iteration(&mut self) {
        std::mem::swap(&mut self.frontier, &mut self.next_frontier);
    }
}
