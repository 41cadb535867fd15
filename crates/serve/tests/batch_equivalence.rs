//! Satellite: batched serving is bit-identical to standalone runs.
//!
//! For K ∈ {1, 4, 32} BFS queries, one `GraphServe` drain (which folds
//! them into one batch: the plain BFS for a single source, an MS-BFS sweep
//! otherwise) must produce, per query, exactly the depth vector a
//! query of `Bfs::new(source)` on a fresh `GraphSession` produces — and the
//! per-query stats lanes must demux correctly (batch ids, lane ids, batch
//! sizes). Mixed-deadline submission orders must not change any answer.

use gr_algorithms::{reference, Bfs};
use gr_graph::{gen, GraphLayout};
use gr_observe::{Decision, Observer};
use gr_serve::{GraphServe, QueryOutput, QuerySpec, RejectReason, ServeConfig};
use gr_sim::Platform;
use graphreduce::{GraphSession, Options};

fn fixture() -> GraphLayout {
    GraphLayout::build(&gen::rmat_g500(10, 12_000, 7).symmetrize())
}

/// Sources spread across the vertex range, including repeats — serving
/// must tolerate duplicate outstanding queries for the same source.
fn sources(k: usize, n: u32) -> Vec<u32> {
    (0..k as u32)
        .map(|i| (i.wrapping_mul(2654435761) ^ 0x9e37) % n)
        .collect()
}

fn standalone_depths(layout: &GraphLayout, source: u32) -> Vec<u32> {
    // A fresh session per query: construct, run, drop — the oracle the
    // serving layer is measured against.
    GraphSession::new(layout, Platform::paper_node(), Options::optimized())
        .query(&Bfs::new(source))
        .run()
        .expect("standalone bfs")
        .vertex_values
}

fn check_k_batched_queries(k: usize) {
    let layout = fixture();
    let n = layout.num_vertices();
    let session = GraphSession::new(&layout, Platform::paper_node(), Options::optimized());
    let mut serve = GraphServe::new(&session);
    let srcs = sources(k, n);
    for &s in &srcs {
        serve.submit(QuerySpec::Bfs { source: s }, None).unwrap();
    }
    let outcomes = serve.drain().unwrap();
    assert_eq!(outcomes.len(), k);
    // K ≤ 64 ⇒ exactly one batch carries every query; a lone source runs
    // the plain BFS, several run one MS-BFS sweep.
    assert_eq!(serve.ticks(), 1, "K={k} should fold into one batch");
    let algorithm = if k == 1 { "bfs" } else { "ms-bfs-levels" };
    for (i, o) in outcomes.iter().enumerate() {
        let QuerySpec::Bfs { source } = o.spec else {
            panic!("bfs outcome expected")
        };
        assert_eq!(source, srcs[i], "EDF with no deadlines preserves FIFO");
        let want = standalone_depths(&layout, source);
        assert_eq!(
            o.output,
            QueryOutput::Depths(want),
            "K={k} query {} (source {source}) diverged from standalone",
            o.id
        );
        // Stats demux: every query names the batch that carried it, its
        // own lane bit, and the shared amortization width.
        assert_eq!(o.stats.batch, 0);
        assert_eq!(o.stats.lane, i as u32);
        assert_eq!(o.stats.batch_size, k as u32);
        assert_eq!(o.stats.run.algorithm, algorithm);
        assert!(o.stats.deadline_met);
    }
}

#[test]
fn one_batched_query_matches_standalone() {
    check_k_batched_queries(1);
}

#[test]
fn four_batched_queries_match_standalone() {
    check_k_batched_queries(4);
}

#[test]
fn thirty_two_batched_queries_match_standalone() {
    check_k_batched_queries(32);
}

#[test]
fn mixed_deadline_orders_change_scheduling_not_answers() {
    let layout = fixture();
    let n = layout.num_vertices();
    let session = GraphSession::new(&layout, Platform::paper_node(), Options::optimized());
    let srcs = sources(8, n);

    // Order A: tight deadlines interleaved with loose/no deadlines.
    let deadlines_a: Vec<Option<u64>> = vec![
        Some(5),
        Some(1),
        None,
        Some(1),
        Some(9),
        None,
        Some(2),
        Some(1),
    ];
    // Order B: same queries submitted in reverse.
    let cfg = ServeConfig {
        max_pending: 64,
        max_batch: 3, // force several batches so EDF ordering matters
    };

    let run = |order: Vec<(u32, Option<u64>)>| {
        let mut serve = GraphServe::with_config(&session, cfg);
        for (s, d) in order {
            serve.submit(QuerySpec::Bfs { source: s }, d).unwrap();
        }
        let mut outcomes = serve.drain().unwrap();
        // Completion order differs between A and B; compare per-source.
        outcomes.sort_by_key(|o| match o.spec {
            QuerySpec::Bfs { source } => source,
            _ => unreachable!(),
        });
        outcomes
    };

    let order_a: Vec<(u32, Option<u64>)> = srcs
        .iter()
        .copied()
        .zip(deadlines_a.iter().copied())
        .collect();
    let mut order_b = order_a.clone();
    order_b.reverse();

    let a = run(order_a);
    let b = run(order_b);
    assert_eq!(a.len(), b.len());
    for (oa, ob) in a.iter().zip(&b) {
        assert_eq!(oa.spec, ob.spec);
        assert_eq!(
            oa.output, ob.output,
            "submission order changed an answer for {:?}",
            oa.spec
        );
        let QuerySpec::Bfs { source } = oa.spec else {
            panic!()
        };
        assert_eq!(
            oa.output,
            QueryOutput::Depths(standalone_depths(&layout, source))
        );
    }
}

#[test]
fn stats_lanes_demux_one_decision_trail_per_query() {
    let layout = fixture();
    let session = GraphSession::new(&layout, Platform::paper_node(), Options::optimized());
    let (obs, sink) = Observer::recording();
    let mut serve = GraphServe::new(&session).with_observer(obs);
    let srcs = sources(4, layout.num_vertices());
    let ids: Vec<u64> = srcs
        .iter()
        .map(|&s| serve.submit(QuerySpec::Bfs { source: s }, None).unwrap())
        .collect();
    let outcomes = serve.drain().unwrap();
    let rec = sink.recorded();

    // Every query id appears exactly once as an admit and once as a done,
    // with the done naming the (batch, lane) its stats lane claims.
    for (o, id) in outcomes.iter().zip(&ids) {
        assert_eq!(o.id, *id);
        let admits = rec
            .decisions
            .iter()
            .filter(|d| matches!(d, Decision::QueryAdmit { query, .. } if query == id))
            .count();
        assert_eq!(admits, 1, "query {id} admit trail");
        let done = rec
            .decisions
            .iter()
            .find_map(|d| match d {
                Decision::QueryDone {
                    query, batch, lane, ..
                } if query == id => Some((*batch, *lane)),
                _ => None,
            })
            .expect("query done decision");
        assert_eq!(done, (o.stats.batch, o.stats.lane));
    }
    // One BatchFormed for the single folded batch.
    let batches = rec
        .decisions
        .iter()
        .filter(|d| matches!(d, Decision::BatchFormed { .. }))
        .count();
    assert_eq!(batches, 1);
}

#[test]
fn a_batch_sharing_one_source_runs_the_plain_bfs() {
    let layout = fixture();
    let session = GraphSession::new(&layout, Platform::paper_node(), Options::optimized());
    let mut serve = GraphServe::new(&session);
    for _ in 0..5 {
        serve.submit(QuerySpec::Bfs { source: 17 }, None).unwrap();
    }
    let outcomes = serve.drain().unwrap();
    assert_eq!(serve.ticks(), 1);
    let want = QueryOutput::Depths(standalone_depths(&layout, 17));
    for (lane, o) in outcomes.iter().enumerate() {
        assert_eq!(o.output, want);
        assert_eq!(o.stats.run.algorithm, "bfs");
        assert_eq!((o.stats.lane, o.stats.batch_size), (lane as u32, 5));
        // Phase elimination: the plain BFS gathers no edges.
        assert!(o
            .stats
            .run
            .per_iteration
            .iter()
            .all(|i| i.gathered_edges == 0));
    }
}

#[test]
fn a_lone_query_leaves_one_batch_and_one_done_at_lane_zero() {
    let layout = fixture();
    let session = GraphSession::new(&layout, Platform::paper_node(), Options::optimized());
    let (obs, sink) = Observer::recording();
    let mut serve = GraphServe::new(&session).with_observer(obs);
    let id = serve.submit(QuerySpec::Bfs { source: 3 }, Some(1)).unwrap();
    let outcomes = serve.drain().unwrap();
    assert_eq!(outcomes.len(), 1);
    assert_eq!(outcomes[0].stats.run.algorithm, "bfs");
    let rec = sink.recorded();
    let trail: Vec<&Decision> = rec
        .decisions
        .iter()
        .filter(|d| matches!(d, Decision::BatchFormed { .. } | Decision::QueryDone { .. }))
        .collect();
    assert!(
        matches!(
            trail[..],
            [
                Decision::BatchFormed {
                    batch: 0,
                    size: 1,
                    kind: "bfs"
                },
                Decision::QueryDone {
                    query,
                    batch: 0,
                    lane: 0,
                    deadline_met: true
                },
            ] if *query == id
        ),
        "{trail:?}"
    );
}

/// RMAT-13 on a device scaled to stream several shards: a 16-source
/// sweep's frontier passes the host fan-out gate (4 096 active vertices),
/// so at `RAYON_NUM_THREADS` > 1 its shards run on several workers, and
/// every served answer must still equal the queue-BFS oracle.
#[test]
fn fanned_out_sweep_answers_match_the_oracle() {
    let layout = GraphLayout::build(&gen::rmat_g500(13, 80_000, 5).symmetrize());
    let session = GraphSession::new(
        &layout,
        Platform::paper_node_scaled(1_536),
        Options::optimized(),
    );
    let mut serve = GraphServe::new(&session);
    let srcs = sources(16, layout.num_vertices());
    for &s in &srcs {
        serve.submit(QuerySpec::Bfs { source: s }, None).unwrap();
    }
    let outcomes = serve.drain().unwrap();
    let run = &outcomes[0].stats.run;
    assert_eq!(run.algorithm, "ms-bfs-levels");
    assert!(run.num_shards > 1, "the sweep must stream several shards");
    let peak = run.per_iteration.iter().map(|i| i.frontier_size).max();
    assert!(
        peak >= Some(4096),
        "peak frontier {peak:?} stays under the gate"
    );
    for (o, &s) in outcomes.iter().zip(&srcs) {
        assert_eq!(
            o.output,
            QueryOutput::Depths(reference::bfs(&layout, s)),
            "source {s}"
        );
    }
}

#[test]
fn out_of_range_sources_are_rejected_and_never_fail_a_drain() {
    let layout = fixture();
    let n = layout.num_vertices();
    let session = GraphSession::new(&layout, Platform::paper_node(), Options::optimized());
    let (obs, sink) = Observer::recording();
    let mut serve = GraphServe::new(&session).with_observer(obs);
    serve.submit(QuerySpec::Bfs { source: 1 }, None).unwrap();
    for spec in [
        QuerySpec::Bfs { source: n },
        QuerySpec::Sssp { source: u32::MAX },
    ] {
        let err = serve.submit(spec.clone(), None).unwrap_err();
        assert_eq!(
            err.reason,
            RejectReason::SourceOutOfRange {
                source: spec.source().unwrap(),
                num_vertices: n
            }
        );
    }
    serve
        .submit(QuerySpec::Bfs { source: n - 1 }, None)
        .unwrap();
    assert_eq!(serve.pending(), 2);
    let outcomes = serve.drain().unwrap();
    assert_eq!(outcomes.len(), 2);
    for o in &outcomes {
        let source = o.spec.source().unwrap();
        assert_eq!(
            o.output,
            QueryOutput::Depths(standalone_depths(&layout, source))
        );
    }
    let rejects = sink
        .recorded()
        .decisions
        .iter()
        .filter(|d| {
            matches!(
                d,
                Decision::QueryReject {
                    rationale: "source out of range",
                    ..
                }
            )
        })
        .count();
    assert_eq!(rejects, 2);
}
