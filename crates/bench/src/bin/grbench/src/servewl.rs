//! The `serve` workload: one session behind `GraphServe`, driven through
//! four phases — `sat` and `mixed` (pre-submitted, closed), `lone` (one
//! client, closed) and `burst` (fixed-rate open loop) — each answer
//! checked against the sequential oracle after its phase ends.

use std::collections::BTreeMap;
use std::time::Instant;

use gr_algorithms::{reference, MsBfsLevels, MsBfsLevelsValue};
use gr_graph::GraphLayout;
use gr_serve::{standalone_bfs, GraphServe, QueryOutcome, QueryOutput, QuerySpec, ServeConfig};
use gr_sim::Platform;
use graphreduce::{EngineError, GraphSession};

use crate::graphwl::fingerprint;
use crate::inputs::{serve_sources, SplitMix};
use crate::metrics::{median, percentile};
use crate::{Ctx, Outcome};

// ---------------------------------------------------------------------------
// Open-loop scheduler
// ---------------------------------------------------------------------------

pub trait Clock {
    /// Seconds since the schedule started.
    fn now(&self) -> f64;
    fn sleep_until(&self, t: f64);
}

struct WallClock(Instant);

impl Clock for WallClock {
    fn now(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }

    fn sleep_until(&self, t: f64) {
        let now = self.now();
        if t > now {
            std::thread::sleep(std::time::Duration::from_secs_f64(t - now));
        }
    }
}

/// Per-query and per-drain timings of one open-loop schedule. Every
/// per-query time is measured from the query's *due* time, so a stall is
/// charged to every request it delays, not only to the one being served.
#[derive(Default, Debug)]
pub struct OpenLoopLog {
    /// Completion − due.
    pub latency_s: Vec<f64>,
    /// Submission − due: how late the generator ran.
    pub gen_lag_s: Vec<f64>,
    /// Start of the carrying drain − due.
    pub queue_wait_s: Vec<f64>,
    /// Return of the carrying drain − its start.
    pub exec_s: Vec<f64>,
    pub drain_s: Vec<f64>,
    pub submit_s: Vec<f64>,
    /// Most queries pending when a drain started.
    pub backlog_max: usize,
    /// Last completion − last due: a server that keeps up ends close to
    /// its schedule; one with a growing backlog ends far behind it.
    pub tail_s: f64,
}

/// What the open loop drives: `submit` the `i`-th scheduled query, `drain`
/// everything pending and return the schedule indices completed.
pub trait OpenLoopServer {
    fn submit(&mut self, i: usize);
    fn drain(&mut self) -> Vec<usize>;
}

/// Drive `due` (ascending seconds) through `server` on one thread: submit
/// everything that is due, drain, repeat; sleep only when nothing is
/// pending.
pub fn run_open_loop(
    clock: &impl Clock,
    due: &[f64],
    server: &mut impl OpenLoopServer,
) -> OpenLoopLog {
    let n = due.len();
    let mut log = OpenLoopLog {
        latency_s: vec![0.0; n],
        gen_lag_s: vec![0.0; n],
        queue_wait_s: vec![0.0; n],
        exec_s: vec![0.0; n],
        ..OpenLoopLog::default()
    };
    let (mut next, mut pending, mut last_end) = (0, 0usize, 0.0);
    while next < n || pending > 0 {
        while next < n && due[next] <= clock.now() {
            let t = clock.now();
            server.submit(next);
            log.gen_lag_s[next] = t - due[next];
            log.submit_s.push(clock.now() - t);
            next += 1;
            pending += 1;
        }
        if pending == 0 {
            clock.sleep_until(due[next]);
            continue;
        }
        log.backlog_max = log.backlog_max.max(pending);
        let start = clock.now();
        let done = server.drain();
        let end = clock.now();
        log.drain_s.push(end - start);
        for &q in &done {
            log.latency_s[q] = end - due[q];
            log.queue_wait_s[q] = start - due[q];
            log.exec_s[q] = end - start;
        }
        // A drain that completes nothing (an engine error) would spin.
        if done.is_empty() {
            break;
        }
        pending -= done.len();
        last_end = end;
    }
    log.tail_s = last_end - due.last().copied().unwrap_or(0.0);
    log
}

// ---------------------------------------------------------------------------
// Oracle
// ---------------------------------------------------------------------------

/// Fingerprints of the sequential answers for every distinct source: BFS
/// depths, and the same depths as SSSP distances (the serving graph is
/// unweighted, so a distance is a hop count held in an f32).
struct Oracle {
    by_source: BTreeMap<u32, (u64, u64)>,
}

impl Oracle {
    fn build(layout: &GraphLayout, sources: &[u32], threads: usize) -> Oracle {
        let mut distinct = sources.to_vec();
        distinct.sort_unstable();
        distinct.dedup();
        let answer = |&s: &u32| {
            let depths = reference::bfs(layout, s);
            let dists: Vec<f32> = depths
                .iter()
                .map(|&d| {
                    if d == u32::MAX {
                        f32::INFINITY
                    } else {
                        d as f32
                    }
                })
                .collect();
            (s, (fingerprint(&depths), fingerprint(&dists)))
        };
        let chunk = distinct.len().div_ceil(threads.max(1)).max(1);
        let by_source = std::thread::scope(|scope| {
            let workers: Vec<_> = distinct
                .chunks(chunk)
                .map(|c| scope.spawn(move || c.iter().map(answer).collect::<Vec<_>>()))
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().expect("oracle worker panicked"))
                .collect()
        });
        Oracle { by_source }
    }

    /// Whether a served BFS or SSSP answer is bit-identical to the oracle's.
    fn agrees(&self, o: &QueryOutcome) -> bool {
        match (&o.spec, &o.output) {
            (QuerySpec::Bfs { source }, QueryOutput::Depths(d)) => {
                self.by_source.get(source).map(|h| h.0) == Some(fingerprint(d))
            }
            (QuerySpec::Sssp { source }, QueryOutput::Distances(d)) => {
                self.by_source.get(source).map(|h| h.1) == Some(fingerprint(d))
            }
            _ => false,
        }
    }
}

// ---------------------------------------------------------------------------
// The workload
// ---------------------------------------------------------------------------

struct Sizes {
    sources: usize,
    sat_queries: usize,
    burst_qps: f64,
    mixed: (usize, usize, usize), // BFS, SSSP, CC
    /// Lone BFS, then lone SSSP, queries of one closed-loop cycle.
    lone_per_cycle: usize,
    min_cycles: usize,
}

const FULL: Sizes = Sizes {
    sources: 128,
    sat_queries: 128,
    burst_qps: 80.0,
    mixed: (48, 8, 8),
    lone_per_cycle: 4,
    min_cycles: 4,
};

const QUICK: Sizes = Sizes {
    sources: 32,
    sat_queries: 64,
    burst_qps: 20.0,
    mixed: (12, 2, 2),
    lone_per_cycle: 2,
    min_cycles: 2,
};

/// Latency limit of the `burst` phase, on its 95th percentile.
const BURST_LIMIT_MS: f64 = 1000.0;

struct Driver<'a, 's, 'g> {
    ctx: &'a Ctx,
    serve: GraphServe<'s, 'g>,
    oracle: &'a Oracle,
    out: Outcome,
    rejected: u64,
    next_query: u64,
}

impl Driver<'_, '_, '_> {
    /// Submit one query; `None` when admission refused it.
    fn submit(&mut self, spec: QuerySpec, deadline: Option<u64>) -> Option<u64> {
        self.next_query += 1;
        self.out.attempted += 1;
        let q = self.next_query;
        let (verdict, _) = self
            .ctx
            .tr
            .timed("serve.submit", q, || self.serve.submit(spec, deadline));
        if verdict.is_err() {
            // A refused request fails and misses every latency limit.
            self.rejected += 1;
            self.out.failed += 1;
        }
        verdict.ok()
    }

    fn drain(&mut self) -> Result<(Vec<QueryOutcome>, f64), EngineError> {
        let (outcomes, secs) = self.ctx.tr.timed("serve.drain", 0, || self.serve.drain());
        Ok((outcomes?, secs))
    }

    /// Check traversal answers after their phase ended.
    fn verify(&mut self, phase: &str, outcomes: &[QueryOutcome]) {
        for o in outcomes {
            if !self.oracle.agrees(o) {
                eprintln!(
                    "FAIL {phase}: query {} ({:?}) differs from the oracle",
                    o.id, o.spec
                );
                self.out.failed += 1;
            }
        }
    }
}

pub fn run(ctx: &mut Ctx) -> Result<Outcome, EngineError> {
    let traced = ctx.tr.is_on();
    let sizes = if ctx.quick { QUICK } else { FULL };
    // The traced run keeps a share of the window for the sweep probes.
    let window = ctx.seconds * if traced { 0.7 } else { 1.0 };
    let setup_t0 = Instant::now();

    // --- set-up. ---------------------------------------------------------
    let (el, gen_s) = ctx
        .tr
        .timed("graph.gen", 0, || ctx.workload.edges(ctx.seed, ctx.quick));
    let (layout, layout_s) = ctx.tr.timed("graph.layout", 0, || GraphLayout::build(&el));
    drop(el);
    let (session, session_s) = ctx.tr.timed("core.session_new", 0, || {
        GraphSession::new(&layout, Platform::paper_node(), ctx.workload.options())
    });
    let mut rng = SplitMix(ctx.seed);
    let sources = serve_sources(&layout, sizes.sources, &mut rng);
    let cfg = ServeConfig {
        max_pending: 4096,
        max_batch: 64,
    };
    let pick = |rng: &mut SplitMix| sources[rng.below(sources.len() as u64) as usize];
    // Warm-up (discarded): one full-width sweep and one of each singleton
    // kind, so plan caches and allocator pools are filled before timing.
    {
        let mut serve = GraphServe::with_config(&session, cfg);
        for &s in sources.iter().cycle().take(64) {
            let _ = serve.submit(QuerySpec::Bfs { source: s }, None);
        }
        let _ = serve.submit(QuerySpec::Sssp { source: sources[0] }, None);
        let _ = serve.submit(QuerySpec::Cc, None);
        ctx.tr.timed("round.warmup", 0, || serve.drain()).0?;
    }
    let setup_s = setup_t0.elapsed().as_secs_f64();

    let (oracle, oracle_s) = ctx.tr.timed("verify.oracle", 0, || {
        Oracle::build(&layout, &sources, ctx.threads)
    });
    let mut d = Driver {
        ctx,
        serve: GraphServe::with_config(&session, cfg),
        oracle: &oracle,
        out: Outcome::default(),
        rejected: 0,
        next_query: 0,
    };

    // --- sat and lone, closed loops, in alternating slices. -----------------
    // `sat`: BFS pre-submitted, then one drain. `lone`: one client, one
    // query in flight. Each cycle runs a slice of each, so every metric's
    // samples span the whole share of the window and a disturbance of a
    // few seconds moves a minority of them. A seeded 1-in-8 sample of the
    // lone BFS answers is kept and checked after its slice; every SSSP
    // answer is.
    let lone = |d: &mut Driver<'_, '_, '_>,
                rng: &mut SplitMix,
                sssp: bool|
     -> Result<Vec<f64>, EngineError> {
        let (mut ms, mut kept) = (Vec::new(), Vec::new());
        for _ in 0..sizes.lone_per_cycle {
            let source = pick(rng);
            let keep = sssp || rng.below(8) == 0;
            let t = Instant::now();
            d.submit(
                if sssp {
                    QuerySpec::Sssp { source }
                } else {
                    QuerySpec::Bfs { source }
                },
                None,
            );
            let (outcomes, _) = d.drain()?;
            ms.push(t.elapsed().as_secs_f64() * 1e3);
            if keep {
                kept.extend(outcomes);
            }
        }
        d.verify(if sssp { "lone-sssp" } else { "lone" }, &kept);
        Ok(ms)
    };
    let (mut sat_qps, mut sim_ms) = (Vec::new(), 0.0);
    let (mut lone_bfs_ms, mut lone_sssp_ms) = (Vec::new(), Vec::new());
    let closed_t0 = Instant::now();
    while sat_qps.len() < sizes.min_cycles
        || (!ctx.quick && closed_t0.elapsed().as_secs_f64() < window * 0.65)
    {
        for _ in 0..sizes.sat_queries {
            let source = pick(&mut rng);
            d.submit(QuerySpec::Bfs { source }, None);
        }
        let (outcomes, secs) = d.drain()?;
        sat_qps.push(outcomes.len() as f64 / secs);
        if sat_qps.len() == 1 {
            // Simulated device time of the first repetition, each batch once.
            let per_batch: BTreeMap<u64, f64> = outcomes
                .iter()
                .map(|o| (o.stats.batch, o.stats.run.elapsed.as_millis_f64()))
                .collect();
            sim_ms = per_batch.values().sum();
        }
        d.verify("sat", &outcomes);
        lone_bfs_ms.extend(lone(&mut d, &mut rng, false)?);
        lone_sssp_ms.extend(lone(&mut d, &mut rng, true)?);
    }

    // --- burst: fixed-rate open loop. -------------------------------------
    // Long enough for a 95th percentile (200 samples) at the full rate.
    let burst_secs = if ctx.quick {
        2.0
    } else {
        (window * 0.25).max(2.75)
    };
    let due: Vec<f64> = (0..(burst_secs * sizes.burst_qps) as usize)
        .map(|i| i as f64 / sizes.burst_qps)
        .collect();
    let ticks_before = d.serve.ticks();
    let mut burst = Burst {
        d: &mut d,
        sources: due.iter().map(|_| pick(&mut rng)).collect(),
        keep: due.iter().map(|_| rng.below(8) == 0).collect(),
        index_of: BTreeMap::new(),
        kept: Vec::new(),
        batch_sizes: Vec::new(),
        failure: None,
    };
    let log = run_open_loop(&WallClock(Instant::now()), &due, &mut burst);
    let Burst {
        kept,
        batch_sizes,
        failure,
        ..
    } = burst;
    if let Some(e) = failure {
        return Err(e);
    }
    d.verify("burst", &kept);
    drop(kept);
    let burst_batches = d.serve.ticks() - ticks_before;
    let latency_ms: Vec<f64> = log.latency_s.iter().map(|s| s * 1e3).collect();

    // --- mixed: BFS batches sharing the queue with singletons. ------------
    // The phase draws from its own stream, and `serve.deadline_missed`
    // counts its first repetition: the earlier phases run for a time, not
    // for a count, so the shared stream's state here is not a function of
    // the seed, and an exact metric must be.
    let mut rng = SplitMix(ctx.seed ^ 0x6d69_7865_64);
    let (mut mixed_qps, mut mixed_secs, mut deadline_missed) = (Vec::new(), 0.0, 0u64);
    let mut cc_fp = None;
    while mixed_qps.is_empty() || (!ctx.quick && mixed_secs < window * 0.10) {
        let (bfs, sssp, cc) = sizes.mixed;
        let mut specs: Vec<QuerySpec> = Vec::new();
        specs.extend((0..bfs).map(|_| QuerySpec::Bfs {
            source: pick(&mut rng),
        }));
        specs.extend((0..sssp).map(|_| QuerySpec::Sssp {
            source: pick(&mut rng),
        }));
        specs.extend((0..cc).map(|_| QuerySpec::Cc));
        // Seeded deadlines, in service ticks from now; a quarter carry none.
        let now = d.serve.ticks();
        for spec in specs {
            let deadline = (rng.below(4) != 0).then(|| now + 1 + rng.below(24));
            d.submit(spec, deadline);
        }
        let (outcomes, secs) = d.drain()?;
        if mixed_qps.is_empty() {
            deadline_missed = outcomes.iter().filter(|o| !o.stats.deadline_met).count() as u64;
        }
        mixed_qps.push(outcomes.len() as f64 / secs);
        mixed_secs += secs;
        let (snapshots, traversals): (Vec<_>, Vec<_>) = outcomes
            .into_iter()
            .partition(|o| matches!(o.spec, QuerySpec::Cc));
        d.verify("mixed", &traversals);
        for o in &snapshots {
            let QueryOutput::Components(labels) = &o.output else {
                d.out.failed += 1;
                continue;
            };
            // The first CC answer is checked by union-find; the rest must
            // be bit-identical to it.
            let fp = fingerprint(labels);
            let want = *cc_fp.get_or_insert_with(|| {
                let ok = std::panic::catch_unwind(|| reference::check_cc_labels(&layout, labels));
                if ok.is_err() {
                    eprintln!("FAIL mixed: CC labels are not component minima");
                    d.out.failed += 1;
                }
                fp
            });
            if fp != want {
                eprintln!(
                    "FAIL mixed: CC query {} differs from the first CC answer",
                    o.id
                );
                d.out.failed += 1;
            }
        }
    }

    let Driver {
        mut out, rejected, ..
    } = d;

    // --- report. ---------------------------------------------------------
    let rep = &mut ctx.rep;
    rep.set("setup_s", setup_s);
    rep.set("graph.gen_ms", gen_s * 1e3);
    rep.set("graph.layout_ms", layout_s * 1e3);
    rep.set("core.session_new_ms", session_s * 1e3);
    rep.set("verify.oracle_ms", oracle_s * 1e3);
    // On `serve` a query's wall time is what its client waits: through the
    // server, alone on an idle system.
    rep.set_median("bfs_ms", &lone_bfs_ms);
    rep.set_median("sssp_ms", &lone_sssp_ms);
    rep.set("mteps", layout.num_edges() as f64 * median(&sat_qps) / 1e6);
    rep.set("sim_ms", sim_ms);
    rep.set_median("serve_qps", &sat_qps);
    rep.set_median("mixed_qps", &mixed_qps);
    rep.set_median("burst_ms_p50", &latency_ms);
    match percentile(&latency_ms, 0.95) {
        Some(p95) => {
            rep.put("burst_ms_p95", p95, latency_ms.len(), 0.0);
            let kept_up = p95 <= BURST_LIMIT_MS && log.tail_s <= BURST_LIMIT_MS / 1e3;
            if !kept_up {
                eprintln!(
                    "LIMIT MISSED burst: p95 {p95:.1} ms (limit {BURST_LIMIT_MS} ms), \
                     finished {:.3} s behind the schedule",
                    log.tail_s
                );
            }
            rep.set("serve.burst_limit_met", kept_up as u64 as f64);
        }
        None => eprintln!(
            "burst_ms_p95 refused: {} samples leave fewer than ten beyond the percentile",
            latency_ms.len()
        ),
    }
    let us = |xs: &[f64]| xs.iter().map(|s| s * 1e6).collect::<Vec<_>>();
    let ms = |xs: &[f64]| xs.iter().map(|s| s * 1e3).collect::<Vec<_>>();
    rep.set_median("serve.submit_us_p50", &us(&log.submit_s));
    rep.set_median("serve.drain_ms_p50", &ms(&log.drain_s));
    rep.set_median("serve.queue_wait_ms_p50", &ms(&log.queue_wait_s));
    rep.set_median("serve.exec_ms_p50", &ms(&log.exec_s));
    if let Some(lag) = percentile(&ms(&log.gen_lag_s), 0.95) {
        rep.put("serve.gen_lag_ms_p95", lag, log.gen_lag_s.len(), 0.0);
    }
    rep.set("serve.backlog_max", log.backlog_max as f64);
    rep.set("serve.batches", burst_batches as f64);
    rep.set(
        "serve.batch_size_mean",
        batch_sizes.iter().sum::<f64>() / batch_sizes.len().max(1) as f64,
    );
    rep.set("serve.rejected", rejected as f64);
    rep.set("serve.deadline_missed", deadline_missed as f64);
    rep.set(
        "serve.state_bytes_per_vertex",
        std::mem::size_of::<MsBfsLevelsValue>() as f64,
    );
    if !traced {
        return Ok(out);
    }

    // --- the layers under the server, called directly. --------------------
    let standalone: Vec<f64> = (0..10)
        .map(|i| {
            let s = sources[i % sources.len()];
            ctx.tr
                .timed("probe.standalone_bfs", 0, || standalone_bfs(&session, s))
        })
        .map(|(r, secs)| r.map(|_| secs * 1e3))
        .collect::<Result<_, _>>()?;
    ctx.rep.set_median("serve.standalone_bfs_ms", &standalone);
    for width in [1usize, 4, 16, 64] {
        let prog = MsBfsLevels::new(sources.iter().cycle().take(width).copied().collect());
        let mut sweep_ms = Vec::new();
        for _ in 0..2 {
            let (res, secs) = ctx.tr.timed(&format!("probe.sweep.w{width}"), 0, || {
                session.query(&prog).run()
            });
            let res = res?;
            sweep_ms.push(secs * 1e3);
            out.attempted += 1;
            let lane0 = MsBfsLevels::lane_depths(&res.vertex_values, 0);
            if oracle.by_source.get(&sources[0]).map(|h| h.0) != Some(fingerprint(&lane0)) {
                eprintln!("FAIL sweep w{width}: lane 0 differs from the oracle");
                out.failed += 1;
            }
            if width == 64 && sweep_ms.len() == 2 {
                let demux: Vec<f64> = (0..3)
                    .map(|_| {
                        ctx.tr
                            .timed("probe.demux.w64", 0, || {
                                std::hint::black_box(MsBfsLevels::all_lane_depths(
                                    &res.vertex_values,
                                    64,
                                ));
                            })
                            .1
                            * 1e3
                    })
                    .collect();
                ctx.rep.set_median("serve.demux_ms.w64", &demux);
            }
        }
        ctx.rep
            .set_median(&format!("serve.sweep_ms.w{width}"), &sweep_ms);
    }
    Ok(out)
}

/// The `burst` phase as the open loop sees it: BFS queries into the
/// driver's server, a seeded 1-in-8 sample of the answers kept for the
/// check after the phase.
struct Burst<'d, 'a, 's, 'g> {
    d: &'d mut Driver<'a, 's, 'g>,
    sources: Vec<u32>,
    keep: Vec<bool>,
    /// Server query id → schedule index.
    index_of: BTreeMap<u64, usize>,
    kept: Vec<QueryOutcome>,
    batch_sizes: Vec<f64>,
    failure: Option<EngineError>,
}

impl OpenLoopServer for Burst<'_, '_, '_, '_> {
    fn submit(&mut self, i: usize) {
        let source = self.sources[i];
        if let Some(id) = self.d.submit(QuerySpec::Bfs { source }, None) {
            self.index_of.insert(id, i);
        }
    }

    fn drain(&mut self) -> Vec<usize> {
        let outcomes = match self.d.drain() {
            Ok((outcomes, _)) => outcomes,
            Err(e) => {
                self.failure = Some(e);
                return Vec::new();
            }
        };
        let mut done = Vec::with_capacity(outcomes.len());
        for o in outcomes {
            let i = self.index_of[&o.id];
            done.push(i);
            if o.stats.lane == 0 {
                self.batch_sizes.push(o.stats.batch_size as f64);
            }
            if self.keep[i] {
                self.kept.push(o);
            }
        }
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A clock the test moves by hand: sleeping jumps to the wake time.
    struct FakeClock(Cell<f64>);

    impl Clock for FakeClock {
        fn now(&self) -> f64 {
            self.0.get()
        }
        fn sleep_until(&self, t: f64) {
            self.0.set(self.0.get().max(t));
        }
    }

    /// Serves whatever is pending in `service` seconds of fake time.
    struct FakeServer<'c> {
        clock: &'c FakeClock,
        service: f64,
        pending: Vec<usize>,
    }

    impl OpenLoopServer for FakeServer<'_> {
        fn submit(&mut self, i: usize) {
            self.pending.push(i);
        }
        fn drain(&mut self) -> Vec<usize> {
            self.clock.0.set(self.clock.0.get() + self.service);
            std::mem::take(&mut self.pending)
        }
    }

    #[test]
    fn open_loop_times_from_the_due_time_and_reports_generator_lag() {
        // Four queries due every 1 s; every drain takes 2.5 s and serves
        // whatever is pending. The first drain makes the generator late
        // for queries 1 and 2, the second for query 3.
        let clock = FakeClock(Cell::new(0.0));
        let mut server = FakeServer {
            clock: &clock,
            service: 2.5,
            pending: Vec::new(),
        };
        let log = run_open_loop(&clock, &[0.0, 1.0, 2.0, 3.0], &mut server);
        // Drain 1: [0] over 0→2.5. Drain 2: [1, 2] over 2.5→5. Drain 3: [3] over 5→7.5.
        assert_eq!(log.drain_s, vec![2.5, 2.5, 2.5]);
        assert_eq!(log.latency_s, vec![2.5, 4.0, 3.0, 4.5]);
        assert_eq!(log.gen_lag_s, vec![0.0, 1.5, 0.5, 2.0]);
        assert_eq!(log.queue_wait_s, vec![0.0, 1.5, 0.5, 2.0]);
        assert_eq!(log.exec_s, vec![2.5; 4]);
        assert_eq!(log.backlog_max, 2);
        assert_eq!(log.tail_s, 4.5);
        assert_eq!(log.submit_s.len(), 4);
    }

    #[test]
    fn open_loop_sleeps_when_idle_instead_of_spinning() {
        let clock = FakeClock(Cell::new(0.0));
        let mut server = FakeServer {
            clock: &clock,
            service: 0.25,
            pending: Vec::new(),
        };
        let log = run_open_loop(&clock, &[0.5, 10.0], &mut server);
        assert_eq!(log.latency_s, vec![0.25, 0.25]);
        assert_eq!(log.gen_lag_s, vec![0.0, 0.0]);
        assert_eq!(log.backlog_max, 1);
    }
}
