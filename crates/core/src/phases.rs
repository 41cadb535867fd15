//! Host-side execution of the five GAS phases (Figure 12).
//!
//! The virtual accelerator charges *time*; the *results* are computed here,
//! eagerly, with exactly the Bulk-Synchronous semantics the paper specifies
//! ("the next phase will not start until the previous phase has been
//! completed"): gather for every shard reads pre-iteration vertex values,
//! apply then updates them, scatter reads applied values, and
//! FrontierActivate marks the one-hop out-neighborhood of changed vertices.
//!
//! # Sparse/dense kernel selection
//!
//! Each phase runs in one of two shapes, mirroring frontier-aware kernel
//! selection on GPUs (Gunrock's sparse/dense advance, the paper's dynamic
//! frontier management lifted down to the host kernels):
//!
//! - **scan** (profile label `"dense"`): walk the shard's whole interval
//!   contiguously, probing the driving bitmap per vertex — O(interval);
//! - **sparse**: iterate only the set bits of the frontier/changed bitmap,
//!   visiting only its non-zero words ([`Bitmap::iter_set_range`]) —
//!   O(active), exactly what a BFS tail or SSSP wave needs.
//!
//! [`HostKernels::Adaptive`] picks per shard per phase by comparing the
//! interval's active population against its length (threshold
//! [`SPARSE_DENSITY_DENOM`]); [`HostKernels::Serial`] always scans and is
//! the oracle. Both produce **bit-identical** results and identical
//! [`ShardWork`] counts — asserted by the differential tests in
//! `tests/host_kernels.rs`.
//!
//! # Push/pull FrontierActivate
//!
//! Activate has a third shape, **pull** (Gunrock's bottom-up step, after
//! Beamer's direction-optimizing BFS): [`activate_pull_shard`] marks each
//! vertex of the interval iff one of its CSC in-neighbours changed,
//! stopping at the first. It reads no program values, so it is exact for
//! every [`GasProgram`], and it writes only the interval's own bits.
//! `activate_pulls` makes the choice once per iteration for all shards,
//! by the changed vertices' out-edge mass (threshold
//! `PULL_EDGE_MASS_DENOM`): a shard that pulls never walks its own
//! changed vertices' out-edges, so mixing directions would lose the edges
//! from a pulling shard into every interval that pushes. Both directions
//! report the same `walked`, so [`ShardWork`] and the simulated timeline
//! do not depend on the choice. `Serial` always pushes and is the oracle.
//!
//! # Batched row walks
//!
//! A small frontier's rows are far apart, so each one's `offsets` read
//! misses cache, and a walk that reads a row's extent, then its entries,
//! then the next row's extent puts every miss in one dependent chain.
//! The sparse gather and push activate's mark (both of its shapes) take
//! the driving bitmap's ids [`ROW_BATCH`] at a time: they first locate
//! every row of the batch through the view ([`TopoView::csc_locate`] /
//! [`TopoView::csr_locate`]: the raw entry range, plus the bit offset
//! when the rows are coded), so those loads overlap, then walk the rows
//! in id order, exactly as before, so results stay bit-identical. Mark
//! sets a row's bits with [`Bitmap::set_each`], which has no branch on
//! whether a bit was new and still returns the exact count of new bits.
//!
//! Every kernel here runs on one thread. The host's one parallel level is
//! the shard fan-out in `exec/host.rs`.
//!
//! Work statistics are recorded per shard; the engine turns them into
//! kernel cost specs, so the simulated timeline never depends on which
//! host variant computed the results.

use gr_graph::{Bitmap, RowLoc, Shard, TopoView};

use crate::api::GasProgram;
use crate::options::HostKernels;

/// Adaptive mode goes sparse when fewer than 1/8 of the interval's
/// vertices are active: below that, word-skipping over the bitmap beats a
/// contiguous scan; above it, the scan's locality wins.
pub const SPARSE_DENSITY_DENOM: u64 = 8;

/// Adaptive mode pulls FrontierActivate when the changed vertices' out-edges
/// are at least 1/8 of the graph's edges: push walks that mass, pull costs
/// about one interval scan, and on R-MAT the two cost the same at 1/8 of
/// the edges over raw rows and at 1/9 over ζ₃ rows (docs/PERFORMANCE.md,
/// "Pull-side activate"). A vertex count would miss it: a BFS's second
/// level there holds 6 % of the vertices but 71 % of the edges.
pub(crate) const PULL_EDGE_MASS_DENOM: u64 = 8;

/// Whether this iteration's FrontierActivate pulls, for every shard:
/// `changed_out_edges` is the out-degree sum of all changed vertices.
pub(crate) fn activate_pulls(mode: HostKernels, changed_out_edges: u64, num_edges: u64) -> bool {
    mode == HostKernels::Adaptive
        && changed_out_edges > 0
        && changed_out_edges.saturating_mul(PULL_EDGE_MASS_DENOM) >= num_edges
}

/// Rows a batched walk locates before it reads any of them: enough
/// independent `offsets` loads in flight to cover a cache miss, few
/// enough that the batch's [`RowLoc`]s (1 KiB) stay in L1.
pub const ROW_BATCH: usize = 32;

/// Walk the rows of `ids` in order, [`ROW_BATCH`] at a time: `locate`
/// every row of a batch first, so their loads do not wait on each other,
/// then hand each [`RowLoc`] to `walk`.
#[inline]
fn walk_batched(
    mut ids: impl Iterator<Item = u32>,
    locate: impl Fn(u32) -> RowLoc,
    mut walk: impl FnMut(RowLoc),
) {
    let mut batch = [RowLoc::default(); ROW_BATCH];
    loop {
        let mut n = 0;
        for (slot, v) in batch.iter_mut().zip(ids.by_ref()) {
            *slot = locate(v);
            n += 1;
        }
        batch[..n].iter().for_each(|&loc| walk(loc));
        if n < ROW_BATCH {
            return;
        }
    }
}

/// Concrete shape a phase executes after [`HostKernels`] resolution.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Shape {
    Scan,
    Sparse,
}

/// Resolve the configured kernel mode against an interval's population.
/// `active` is the number of set bits in `[lo, hi)` of the driving bitmap.
fn resolve(mode: HostKernels, active: u64, interval_len: u64) -> Shape {
    match mode {
        HostKernels::Serial => Shape::Scan,
        HostKernels::Adaptive if active.saturating_mul(SPARSE_DENSITY_DENOM) < interval_len => {
            Shape::Sparse
        }
        HostKernels::Adaptive => Shape::Scan,
    }
}

/// Name of the concrete shape the phase kernels will execute for these
/// inputs — the same resolution `resolve` performs inside
/// [`gather_shard`]/[`apply_shard`]/[`scatter_shard`]/[`activate_shard`],
/// exposed so wall-clock instrumentation (`gr_observe::profiler`) can
/// attribute real time to the shape that actually ran. `active` is the
/// set-bit count of the phase's driving bitmap over the interval
/// (frontier for gather/apply, changed for scatter/activate).
pub fn shape_name(mode: HostKernels, active: u64, interval_len: u64) -> &'static str {
    match resolve(mode, active, interval_len) {
        Shape::Scan => "dense",
        Shape::Sparse => "sparse",
    }
}

/// Per-shard, per-iteration work counts (feed the kernel cost model and the
/// frontier statistics of Figures 3/16/17).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardWork {
    /// Vertices of the interval active this iteration.
    pub active_vertices: u64,
    /// In-edges of active vertices (gatherMap work items).
    pub active_in_edges: u64,
    /// Vertices whose apply reported a change.
    pub changed_vertices: u64,
    /// Out-edges of changed vertices (scatter / FrontierActivate items).
    pub out_edges_of_changed: u64,
}

impl ShardWork {
    /// Whether this shard has anything at all to do this iteration.
    pub fn is_active(&self) -> bool {
        self.active_vertices > 0
    }
}

// ---------------------------------------------------------------------------
// Gather
// ---------------------------------------------------------------------------

/// Gather phase for one shard: edge-centric map + vertex-centric reduce,
/// computed per destination vertex (the reduction is associative and
/// commutative, so folding in CSC order is equivalent).
///
/// Topology is read through `view` — raw CSC slices or lazily decoded
/// compressed rows; both yield entries in identical order.
///
/// `gather_out` is the interval's slice of the gather-temp array; only the
/// slots of active vertices are written, in every mode.
#[allow(clippy::too_many_arguments)] // mirrors the phase's real data flow
pub fn gather_shard<P: GasProgram>(
    program: &P,
    view: TopoView<'_>,
    shard: &Shard,
    vertex_values: &[P::VertexValue],
    edge_values: &[P::EdgeValue],
    weights: &[f32],
    frontier: &Bitmap,
    gather_out: &mut [P::Gather],
    mode: HostKernels,
) -> (u64, u64) {
    fold_rows(program, view, shard, frontier, gather_out, mode, |v| {
        let dst = vertex_values[v as usize];
        move |src, eid| {
            let src = &vertex_values[src as usize];
            program.gather_map(&dst, src, &edge_values[eid], weights[eid])
        }
    })
}

/// The one gather kernel: fold every active row of the shard into its
/// `gather_out` slot with `gather_reduce`. `row(v)` gives the term of one
/// in-edge of `v`'s row as a function of (source, canonical edge id): the
/// per-edge `gather_map` for [`gather_shard`], a cached per-source term
/// for a [`GasProgram::gather_is_source_only`] program. Returns
/// `(active vertices, their in-edges)`.
pub(crate) fn fold_rows<P: GasProgram, T: Fn(u32, usize) -> P::Gather>(
    program: &P,
    view: TopoView<'_>,
    shard: &Shard,
    frontier: &Bitmap,
    gather_out: &mut [P::Gather],
    mode: HostKernels,
    row: impl Fn(u32) -> T,
) -> (u64, u64) {
    let start = shard.interval.start;
    let end = shard.interval.end;
    debug_assert_eq!(gather_out.len(), shard.interval.len() as usize);
    let (mut active, mut in_edges) = (0, 0);
    let mut gather_one = |loc: RowLoc| {
        let term = row(loc.vertex());
        gather_out[(loc.vertex() - start) as usize] = view
            .csc_row(loc)
            .fold(program.gather_identity(), |acc, (src, eid)| {
                program.gather_reduce(acc, term(src, eid as usize))
            });
        active += 1;
        in_edges += loc.len();
    };
    match resolve(mode, frontier.count_range(start, end), (end - start) as u64) {
        Shape::Scan => (start..end)
            .filter(|&v| frontier.get(v))
            .for_each(|v| gather_one(view.csc_locate(v))),
        Shape::Sparse => walk_batched(
            frontier.iter_set_range(start, end),
            |v| view.csc_locate(v),
            gather_one,
        ),
    }
    (active, in_edges)
}

// ---------------------------------------------------------------------------
// Apply
// ---------------------------------------------------------------------------

/// Apply phase for one shard: vertex-centric update over the interval's
/// active vertices. Returns the ids (global, ascending) of changed
/// vertices; the engine sets them in the `changed` bitmap.
pub fn apply_shard<P: GasProgram>(
    program: &P,
    shard: &Shard,
    vertex_values: &mut [P::VertexValue],
    gather_temp: &[P::Gather],
    frontier: &Bitmap,
    iteration: u32,
    mode: HostKernels,
) -> Vec<u32> {
    let start = shard.interval.start;
    let end = shard.interval.end;
    debug_assert_eq!(vertex_values.len(), shard.interval.len() as usize);
    let mut changed = Vec::new();
    let apply_one = |v: u32| {
        let i = (v - start) as usize;
        if program.apply(&mut vertex_values[i], gather_temp[i], iteration) {
            changed.push(v);
        }
    };
    match resolve(mode, frontier.count_range(start, end), (end - start) as u64) {
        Shape::Scan => (start..end)
            .filter(|&v| frontier.get(v))
            .for_each(apply_one),
        Shape::Sparse => frontier.iter_set_range(start, end).for_each(apply_one),
    }
    changed
}

// ---------------------------------------------------------------------------
// Scatter
// ---------------------------------------------------------------------------

/// Scatter phase for one shard: edge-centric over out-edges of changed
/// vertices, updating mutable edge state through the canonical edge ids.
/// Returns the number of edges scattered.
pub fn scatter_shard<P: GasProgram>(
    program: &P,
    view: TopoView<'_>,
    shard: &Shard,
    vertex_values: &[P::VertexValue],
    edge_values: &mut [P::EdgeValue],
    changed: &Bitmap,
    mode: HostKernels,
) -> u64 {
    let start = shard.interval.start;
    let end = shard.interval.end;
    // Visit `v`'s out-edges as (source value, destination value, canonical
    // id); returns how many there were.
    let scatter_from = |v: u32| {
        let src_val = &vertex_values[v as usize];
        let row = view.csr_entries(v);
        let n = row.len() as u64;
        row.for_each(|(dst, eid)| {
            let dst_val = vertex_values[dst as usize];
            program.scatter(src_val, &dst_val, &mut edge_values[eid as usize]);
        });
        n
    };
    match resolve(mode, changed.count_range(start, end), (end - start) as u64) {
        Shape::Scan => (start..end)
            .filter(|&v| changed.get(v))
            .map(scatter_from)
            .sum(),
        Shape::Sparse => changed.iter_set_range(start, end).map(scatter_from).sum(),
    }
}

// ---------------------------------------------------------------------------
// FrontierActivate
// ---------------------------------------------------------------------------

/// FrontierActivate for one shard (framework-generated, Section 4.4): mark
/// the out-neighbors of changed vertices active for the next iteration.
/// Returns `(out_edges_walked, vertices_newly_activated)`.
pub fn activate_shard(
    view: TopoView<'_>,
    shard: &Shard,
    changed: &Bitmap,
    next_frontier: &mut Bitmap,
    mode: HostKernels,
) -> (u64, u64) {
    let start = shard.interval.start;
    let end = shard.interval.end;

    // Mark the out-neighbors of the changed vertices, a batch of rows
    // located at a time, each row marked without a branch per bit.
    let (mut walked, mut activated) = (0, 0);
    let mark = |loc: RowLoc| {
        walked += loc.len();
        activated += next_frontier.set_each(view.csr_neighbors_at(loc));
    };
    let locate = |v| view.csr_locate(v);
    match resolve(mode, changed.count_range(start, end), (end - start) as u64) {
        Shape::Scan => walk_batched((start..end).filter(|&v| changed.get(v)), locate, mark),
        Shape::Sparse => walk_batched(changed.iter_set_range(start, end), locate, mark),
    }
    (walked, activated)
}

/// FrontierActivate for one shard, pull-side: mark `v` of the interval iff
/// some in-neighbour changed, stopping at the first, so only the
/// interval's bits of `next_frontier` are written. Over all shards it sets
/// exactly the bits [`activate_shard`] sets, and it returns the same
/// `walked` (the out-degree sum of the interval's changed vertices, read
/// from CSR offsets); `activated` counts the interval's marked vertices.
pub fn activate_pull_shard(
    view: TopoView<'_>,
    shard: &Shard,
    changed: &Bitmap,
    next_frontier: &mut Bitmap,
) -> (u64, u64) {
    let start = shard.interval.start;
    let end = shard.interval.end;
    let csr = &view.layout().csr;
    let walked = changed
        .iter_set_range(start, end)
        .map(|v| csr.degree(v))
        .sum();
    let mut activated = 0;
    for v in start..end {
        // Branch instead of `+= u64::from(..)`: see Bitmap::set.
        if view.csc_entries(v).any(|(src, _)| changed.get(src)) && next_frontier.set(v) {
            activated += 1;
        }
    }
    (walked, activated)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::InitialFrontier;
    use gr_graph::{build_shards, EdgeList, GraphLayout, Interval, VertexId};

    /// Min-label propagation (Connected Components core).
    struct MinLabel;

    impl GasProgram for MinLabel {
        type VertexValue = u32;
        type EdgeValue = ();
        type Gather = u32;

        fn name(&self) -> &'static str {
            "min-label"
        }

        fn init_vertex(&self, v: VertexId, _d: u32) -> u32 {
            v
        }

        fn initial_frontier(&self) -> InitialFrontier {
            InitialFrontier::All
        }

        fn gather_identity(&self) -> u32 {
            u32::MAX
        }

        fn gather_map(&self, _dst: &u32, src: &u32, _e: &(), _w: f32) -> u32 {
            *src
        }

        fn gather_reduce(&self, a: u32, b: u32) -> u32 {
            a.min(b)
        }

        fn apply(&self, v: &mut u32, r: u32, _i: u32) -> bool {
            if r < *v {
                *v = r;
                true
            } else {
                false
            }
        }

        fn scatter(&self, _s: &u32, _d: &u32, _e: &mut ()) {}
    }

    fn path_graph() -> (GraphLayout, Vec<Shard>) {
        // 0 <-> 1 <-> 2 <-> 3
        let el = EdgeList::from_edges(4, vec![(0, 1), (1, 2), (2, 3)]).symmetrize();
        let layout = GraphLayout::build(&el);
        let shards = build_shards(
            &layout,
            &[Interval { start: 0, end: 2 }, Interval { start: 2, end: 4 }],
        );
        (layout, shards)
    }

    const ALL_MODES: [HostKernels; 2] = [HostKernels::Adaptive, HostKernels::Serial];

    #[test]
    fn gather_apply_roundtrip() {
        for mode in ALL_MODES {
            let (layout, shards) = path_graph();
            let p = MinLabel;
            let mut values: Vec<u32> = (0..4).collect();
            let edge_vals = vec![(); layout.num_edges() as usize];
            let weights = vec![1.0; layout.num_edges() as usize];
            let frontier = Bitmap::full(4);
            let mut temp = vec![u32::MAX; 4];

            let mut total_active = 0;
            let mut total_edges = 0;
            for sh in &shards {
                let iv = sh.interval;
                let (a, e) = gather_shard(
                    &p,
                    TopoView::raw(&layout),
                    sh,
                    &values,
                    &edge_vals,
                    &weights,
                    &frontier,
                    &mut temp[iv.start as usize..iv.end as usize],
                    mode,
                );
                total_active += a;
                total_edges += e;
            }
            assert_eq!(total_active, 4, "{mode:?}");
            assert_eq!(total_edges, 6, "{mode:?}");
            // Gather of vertex 1 saw min(label(0), label(2)) = 0.
            assert_eq!(temp, vec![1, 0, 1, 2], "{mode:?}");

            let mut changed_ids = Vec::new();
            for sh in &shards {
                let iv = sh.interval;
                changed_ids.extend(apply_shard(
                    &p,
                    sh,
                    &mut values[iv.start as usize..iv.end as usize],
                    &temp[iv.start as usize..iv.end as usize],
                    &frontier,
                    0,
                    mode,
                ));
            }
            changed_ids.sort_unstable();
            assert_eq!(changed_ids, vec![1, 2, 3], "{mode:?}"); // vertex 0 kept label 0
            assert_eq!(values, vec![0, 0, 1, 2], "{mode:?}");
        }
    }

    #[test]
    fn gather_skips_inactive_vertices() {
        for mode in ALL_MODES {
            let (layout, shards) = path_graph();
            let p = MinLabel;
            let values: Vec<u32> = (0..4).collect();
            let edge_vals = vec![(); 6];
            let weights = vec![1.0; 6];
            let mut frontier = Bitmap::new(4);
            frontier.set(2);
            let mut temp = vec![99u32; 4];
            let mut active = 0;
            for sh in &shards {
                let iv = sh.interval;
                let (a, _) = gather_shard(
                    &p,
                    TopoView::raw(&layout),
                    sh,
                    &values,
                    &edge_vals,
                    &weights,
                    &frontier,
                    &mut temp[iv.start as usize..iv.end as usize],
                    mode,
                );
                active += a;
            }
            assert_eq!(active, 1, "{mode:?}");
            assert_eq!(temp, vec![99, 99, 1, 99], "{mode:?}"); // only slot 2 written
        }
    }

    #[test]
    fn activate_marks_one_hop_neighborhood() {
        for mode in ALL_MODES {
            let (layout, shards) = path_graph();
            let mut changed = Bitmap::new(4);
            changed.set(1);
            let mut next = Bitmap::new(4);
            let mut walked = 0;
            let mut activated = 0;
            for sh in &shards {
                let (w, a) = activate_shard(TopoView::raw(&layout), sh, &changed, &mut next, mode);
                walked += w;
                activated += a;
            }
            assert_eq!(walked, 2, "{mode:?}"); // 1 -> 0 and 1 -> 2
            assert_eq!(activated, 2, "{mode:?}");
            assert_eq!(next.iter_set().collect::<Vec<_>>(), vec![0, 2], "{mode:?}");
        }
        // Pull marks the same bits and reports the same walk, per shard.
        let (layout, shards) = path_graph();
        let mut changed = Bitmap::new(4);
        changed.set(1);
        let mut next = Bitmap::new(4);
        let pulled: Vec<_> = shards
            .iter()
            .map(|sh| activate_pull_shard(TopoView::raw(&layout), sh, &changed, &mut next))
            .collect();
        assert_eq!(pulled, vec![(2, 1), (0, 1)]);
        assert_eq!(next.iter_set().collect::<Vec<_>>(), vec![0, 2]);
    }

    /// Program with mutable edge state: scatter writes src value into edges.
    struct EdgeStamp;

    impl GasProgram for EdgeStamp {
        type VertexValue = u32;
        type EdgeValue = u32;
        type Gather = u32;

        fn name(&self) -> &'static str {
            "edge-stamp"
        }

        fn init_vertex(&self, v: VertexId, _d: u32) -> u32 {
            v + 10
        }

        fn initial_frontier(&self) -> InitialFrontier {
            InitialFrontier::All
        }

        fn gather_identity(&self) -> u32 {
            0
        }

        fn gather_map(&self, _d: &u32, _s: &u32, e: &u32, _w: f32) -> u32 {
            *e
        }

        fn gather_reduce(&self, a: u32, b: u32) -> u32 {
            a + b
        }

        fn apply(&self, _v: &mut u32, _r: u32, _i: u32) -> bool {
            true
        }

        fn scatter(&self, s: &u32, _d: &u32, e: &mut u32) {
            *e = *s;
        }

        fn has_scatter(&self) -> bool {
            true
        }
    }

    #[test]
    fn scatter_writes_through_canonical_ids() {
        for mode in ALL_MODES {
            let (layout, shards) = path_graph();
            let p = EdgeStamp;
            let values: Vec<u32> = (0..4).map(|v| v + 10).collect();
            let mut edge_vals = vec![0u32; 6];
            let changed = Bitmap::full(4);
            let mut n = 0;
            for sh in &shards {
                n += scatter_shard(
                    &p,
                    TopoView::raw(&layout),
                    sh,
                    &values,
                    &mut edge_vals,
                    &changed,
                    mode,
                );
            }
            assert_eq!(n, 6, "{mode:?}");
            // Every edge now stamped with its source's value; verify via CSC.
            for v in 0..4u32 {
                for (src, eid) in layout.csc.entries(v) {
                    assert_eq!(
                        edge_vals[eid as usize],
                        src + 10,
                        "edge {src}->{v} ({mode:?})"
                    );
                }
            }
        }
    }

    #[test]
    fn adaptive_resolution_tracks_density() {
        // Empty → sparse; full → scan; the threshold sits at 1/8.
        assert_eq!(resolve(HostKernels::Adaptive, 0, 1000), Shape::Sparse);
        assert_eq!(resolve(HostKernels::Adaptive, 1000, 1000), Shape::Scan);
        assert_eq!(resolve(HostKernels::Adaptive, 124, 1000), Shape::Sparse);
        assert_eq!(resolve(HostKernels::Adaptive, 125, 1000), Shape::Scan);
        // The oracle ignores the population.
        assert_eq!(resolve(HostKernels::Serial, 0, 1000), Shape::Scan);
        // The scan keeps its profile label.
        assert_eq!(shape_name(HostKernels::Serial, 0, 1000), "dense");
        assert_eq!(shape_name(HostKernels::Adaptive, 0, 1000), "sparse");
        // Activate pulls from 1/8 of the edges on; the oracle never does.
        assert!(!activate_pulls(HostKernels::Adaptive, 124, 1000));
        assert!(activate_pulls(HostKernels::Adaptive, 125, 1000));
        assert!(!activate_pulls(HostKernels::Adaptive, 0, 0));
        assert!(!activate_pulls(HostKernels::Serial, 1000, 1000));
    }
}
