//! Build-once graph sessions and per-query executors.
//!
//! Everything whose lifetime is *the graph* lives in [`GraphSession`]:
//! the [`GraphLayout`] borrow, the platform, the session [`Options`]
//! (partitioning, compression, spill/store wiring, streaming mode), the
//! gap-coded `ShardCompression` topology (built exactly once, shared by
//! every query), and a partition-plan cache keyed by the program's
//! [`SizeModel`] — `plan_partition` is a pure function of
//! `(layout, sizes, device, session options)`, so two queries with the
//! same byte model reuse one plan, on one device or several.
//!
//! Everything whose lifetime is *one query* lives in [`Query`]: the
//! algorithm program borrow, warm/restored host state, the observer and
//! wall profiler, and the query-scoped checkpoint policy. The governed
//! `ExecPlan` (`exec/plan.rs`) stays per-query on purpose:
//! the governor ladder emits its decisions and metrics into the query's
//! observer lane, which keeps decision logs and [`crate::RunStats`] bit-identical
//! to the pre-session engine (see `docs/SERVING.md`).
//!
//! `GraphSession::new(layout, platform, opts).query(&program).run()` is the
//! engine's one entry point, on one device or the several that
//! [`Options::devices`] lists; the serving layer (`gr-serve`) multiplexes
//! many concurrent queries over one session.

use std::sync::{Arc, Mutex};

use gr_graph::GraphLayout;
use gr_observe::{Observer, WallProfiler};
use gr_sim::Platform;

use crate::api::GasProgram;
use crate::engine::RunResult;
use crate::exec::compress::ShardCompression;
use crate::exec::driver::Runner;
use crate::options::Options;
use crate::recovery::EngineError;
use crate::sizes::{PartitionPlan, PlanError, SizeModel};
use crate::snapshot::CheckpointPolicy;

/// Warm-start state for incremental (dynamic-graph) processing — the
/// paper's third future-work item. After mutating a graph (e.g. appending
/// edges and rebuilding the [`GraphLayout`]), a previous run's vertex
/// values can be carried over and only the vertices a mutation touched are
/// re-activated; monotone algorithms (CC, SSSP, BFS levels with care)
/// then converge in a handful of incremental iterations instead of a full
/// re-run. Mutable edge state restarts from `Default` (canonical edge ids
/// change when the layout is rebuilt).
///
/// A warm start is just a query against an existing session: build the
/// session once, then [`Query::warm`] seeds the follow-up query.
pub struct WarmStart<P: GasProgram> {
    /// Vertex values from the previous run; padded with `init_vertex` for
    /// vertices the mutation added.
    pub vertex_values: Vec<P::VertexValue>,
    /// Vertices to seed the frontier with (typically the endpoints of
    /// inserted/removed edges).
    pub frontier: Vec<gr_graph::VertexId>,
}

impl<P: GasProgram> WarmStart<P> {
    /// Reject a warm start that does not fit an `n`-vertex graph: more
    /// carried values than vertices, or a frontier id past the last
    /// vertex (which `Bitmap::set` would index out of bounds, or silently
    /// count when it lands in the last word's padding).
    pub(crate) fn check(&self, n: u32) -> Result<(), EngineError> {
        let reject = |what, found| {
            Err(EngineError::BadStart {
                what,
                found,
                num_vertices: n,
            })
        };
        if self.vertex_values.len() > n as usize {
            return reject("vertex-value count", self.vertex_values.len() as u64);
        }
        match self.frontier.iter().find(|&&v| v >= n) {
            Some(&v) => reject("frontier vertex", u64::from(v)),
            None => Ok(()),
        }
    }
}

/// Reject a cold start whose program seeds a vertex past the last one of
/// an `n`-vertex graph — the same hazard [`WarmStart::check`] guards.
pub(crate) fn check_seeds<P: GasProgram>(program: &P, n: u32) -> Result<(), EngineError> {
    match program.initial_frontier().out_of_range(n) {
        Some(v) => Err(EngineError::BadStart {
            what: "initial seed",
            found: u64::from(v),
            num_vertices: n,
        }),
        None => Ok(()),
    }
}

/// Build-once, query-many handle to one graph on one platform.
///
/// Construction pays the graph-lifetime costs up front — notably the
/// gap-coded compressed topology when `opts.shard_compression` is armed —
/// and every subsequent [`Query`] borrows the session instead of
/// rebuilding them. Sessions are `Sync`: the plan cache is behind a mutex,
/// everything else is read-only after construction.
pub struct GraphSession<'g> {
    layout: &'g GraphLayout,
    platform: Platform,
    opts: Options,
    comp: Option<Arc<ShardCompression>>,
    plans: Mutex<Vec<(SizeModel, PartitionPlan)>>,
}

impl<'g> GraphSession<'g> {
    /// Bind a graph to a platform under session-lifetime `opts`.
    pub fn new(layout: &'g GraphLayout, platform: Platform, opts: Options) -> Self {
        // Graph-lifetime state: the compressed topology is a pure function
        // of (layout, codec) — build it once here instead of per run.
        let comp = opts
            .shard_compression
            .map(|codec| Arc::new(ShardCompression::new(layout, codec)));
        GraphSession {
            layout,
            platform,
            opts,
            comp,
            plans: Mutex::new(Vec::new()),
        }
    }

    /// The graph this session serves.
    pub fn layout(&self) -> &'g GraphLayout {
        self.layout
    }

    /// The platform every query runs on.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// The session-lifetime options (graph/partitioning/compression knobs).
    pub fn options(&self) -> &Options {
        &self.opts
    }

    /// The shared compressed topology, if compression is armed.
    pub(crate) fn compression(&self) -> Option<Arc<ShardCompression>> {
        self.comp.clone()
    }

    /// Number of distinct partition plans materialized so far.
    #[cfg(test)]
    pub(crate) fn cached_plans(&self) -> usize {
        self.plans.lock().unwrap().len()
    }

    /// The session's partition plan for a program byte model, computed on
    /// first use and cached: `plan_partition` is pure and every input
    /// besides `sizes` is session-constant.
    pub fn partition_plan(&self, sizes: &SizeModel) -> Result<PartitionPlan, PlanError> {
        if let Some((_, plan)) = self.plans.lock().unwrap().iter().find(|(k, _)| k == sizes) {
            return Ok(plan.clone());
        }
        let plan = crate::sizes::plan_partition(
            self.layout,
            sizes,
            &self.platform.device,
            &self.platform.pcie,
            self.opts.concurrent_shards,
            self.opts.num_shards,
        )?;
        self.plans.lock().unwrap().push((*sizes, plan.clone()));
        Ok(plan)
    }

    /// Start a query for `program` against this session. The returned
    /// builder carries the query-lifetime state; [`Query::run`] executes.
    pub fn query<'q, P: GasProgram>(&'q self, program: &'q P) -> Query<'q, 'g, P> {
        Query {
            session: self,
            program,
            opts: self.opts.clone(),
            observer: Observer::disabled(),
            wall: WallProfiler::disarmed(),
            warm: None,
            lane: None,
        }
    }
}

/// One query's execution builder: algorithm program, warm/resume state,
/// observability hooks, and query-scoped policy overrides, borrowing the
/// graph-lifetime state from a [`GraphSession`].
pub struct Query<'q, 'g, P: GasProgram> {
    session: &'q GraphSession<'g>,
    program: &'q P,
    opts: Options,
    observer: Observer,
    wall: WallProfiler,
    warm: Option<WarmStart<P>>,
    lane: Option<String>,
}

impl<'q, 'g, P: GasProgram> Query<'q, 'g, P> {
    /// Attach a [`gr_observe::Observer`] for this query's spans, decisions
    /// and metric snapshots; the default costs one branch per event.
    pub fn with_observer(mut self, observer: Observer) -> Self {
        self.observer = observer;
        self
    }

    /// Attach a wall-clock profiler (armed or disarmed) for this query;
    /// armed, it fills [`RunStats::wall`](crate::stats::RunStats::wall).
    pub fn with_wall_profiler(mut self, wall: WallProfiler) -> Self {
        self.wall = wall;
        self
    }

    /// Seed the query from a previous run's vertex values (incremental
    /// processing over a mutated graph) — see [`WarmStart`].
    pub fn warm(mut self, warm: WarmStart<P>) -> Self {
        self.warm = Some(warm);
        self
    }

    /// Prefix this query's device-op observability lanes (e.g. `"q3/"`) so
    /// concurrent queries over one session demultiplex in the decision/span
    /// log — the serving layer's per-query lane.
    pub fn with_lane(mut self, lane: impl Into<String>) -> Self {
        self.lane = Some(lane.into());
        self
    }

    /// Query-scoped checkpoint policy.
    pub fn with_checkpoint_policy(mut self, policy: CheckpointPolicy) -> Self {
        self.opts.checkpoint_policy = policy;
        self
    }

    /// Execute to convergence; returns final state and statistics.
    pub fn run(self) -> Result<RunResult<P>, EngineError> {
        self.run_on(None)
    }

    /// Resume a killed or interrupted run from the newest intact durable
    /// snapshot in `dir`: another program's or graph's snapshot fails fast
    /// ([`SnapshotError::FingerprintMismatch`](crate::SnapshotError::FingerprintMismatch)),
    /// a corrupt newest one falls back to the previous intact one, and
    /// replay converges bit-identically to an uninterrupted run.
    pub fn resume(self, dir: impl AsRef<std::path::Path>) -> Result<RunResult<P>, EngineError> {
        self.run_on(Some(dir.as_ref()))
    }

    /// Execute to convergence, resuming from the newest intact snapshot in
    /// `resume_from` when given.
    fn run_on(self, resume_from: Option<&std::path::Path>) -> Result<RunResult<P>, EngineError> {
        let layout = self.session.layout;
        let restored = match resume_from {
            Some(dir) => {
                let fp = crate::snapshot::fingerprint_for(self.program, layout);
                Some(crate::snapshot_delta::load_newest::<P>(dir, &fp)?)
            }
            None => None,
        };
        let n = layout.num_vertices();
        match &self.warm {
            Some(w) => w.check(n)?,
            None => check_seeds(self.program, n)?,
        }
        let sizes = SizeModel::for_program(self.program);
        let plan = self.session.partition_plan(&sizes)?;
        Runner::new(
            self.program,
            layout,
            &self.session.platform,
            &self.opts,
            sizes,
            plan,
            self.observer,
            self.wall,
            self.session.compression(),
            self.lane,
            restored.as_ref().and_then(|r| r.placement.as_ref()),
        )?
        .run(self.warm, restored)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testprog::{Bfs, Cc};
    use gr_graph::gen;

    fn small_graph() -> GraphLayout {
        GraphLayout::build(&gen::uniform(512, 4096, 3).symmetrize())
    }

    #[test]
    fn shared_session_queries_match_fresh_sessions() {
        let layout = small_graph();
        let plat = Platform::paper_node_scaled(16384);
        let session = GraphSession::new(&layout, plat.clone(), Options::optimized());
        // The second shared query runs on the first one's cached plan.
        for _ in 0..2 {
            let shared = session.query(&Cc).run().unwrap();
            let fresh = GraphSession::new(&layout, plat.clone(), Options::optimized())
                .query(&Cc)
                .run()
                .unwrap();
            assert_eq!(shared.vertex_values, fresh.vertex_values);
            assert_eq!(
                shared.stats.to_string(),
                fresh.stats.to_string(),
                "a cached plan must run exactly like a fresh one"
            );
        }
    }

    #[test]
    fn plan_cache_is_shared_across_same_shape_queries() {
        let layout = small_graph();
        let session = GraphSession::new(
            &layout,
            Platform::paper_node_scaled(16384),
            Options::optimized(),
        );
        let a = session.query(&Bfs(0)).run().unwrap();
        assert_eq!(session.cached_plans(), 1);
        let b = session.query(&Bfs(0)).run().unwrap();
        // Same byte model: one plan serves both queries.
        assert_eq!(session.cached_plans(), 1);
        assert_eq!(a.vertex_values, b.vertex_values);
        // A different byte model (CC gathers) plans separately.
        session.query(&Cc).run().unwrap();
        assert_eq!(session.cached_plans(), 2);
    }

    #[test]
    fn queries_with_distinct_sources_share_one_session() {
        let layout = small_graph();
        let session = GraphSession::new(&layout, Platform::paper_node(), Options::optimized());
        for src in [0u32, 17, 400] {
            let got = session.query(&Bfs(src)).run().unwrap();
            let want = GraphSession::new(&layout, Platform::paper_node(), Options::optimized())
                .query(&Bfs(src))
                .run()
                .unwrap();
            assert_eq!(got.vertex_values, want.vertex_values, "source {src}");
        }
        assert_eq!(session.cached_plans(), 1);
    }
}
