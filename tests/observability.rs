//! End-to-end acceptance tests for the gr-observe layer: one engine run
//! with a recording sink must yield (a) phase spans for every processed
//! shard, exportable as JSONL; (b) a decision log whose shard-skip count
//! equals the run's `shards_skipped` total; (c) a Perfetto-loadable
//! unified trace carrying both the sim-resource and engine-iteration
//! tracks.

use std::collections::BTreeSet;

use graphreduce_repro::core::{report, GraphSession, Options, RunStats, WallProfiler};
use graphreduce_repro::graph::{gen, EdgeList, GraphLayout};
use graphreduce_repro::observe::{export, FieldValue, Observer, Recorded};
use graphreduce_repro::sim::Platform;
use graphreduce_repro::{Bfs, Heat};

/// A run that exercises all five GAS phases (Heat defines gather *and*
/// scatter) over many shards on a shrunken device.
fn heat_run() -> (RunStats, Recorded) {
    let layout = GraphLayout::build(&gen::rmat_g500(12, 40_000, 7).symmetrize());
    let (observer, sink) = Observer::recording();
    let out = GraphSession::new(
        &layout,
        Platform::paper_node_scaled(1 << 13),
        Options::optimized(),
    )
    .query(&Heat::default())
    .with_observer(observer)
    .run()
    .unwrap();
    (out.stats, sink.recorded())
}

fn field_u64(fields: &[(&'static str, FieldValue)], key: &str) -> Option<u64> {
    fields
        .iter()
        .find(|(k, _)| *k == key)
        .map(|(_, v)| match v {
            FieldValue::U64(n) => *n,
            other => panic!("{key} is not a u64: {other:?}"),
        })
}

/// Distinct shard ids with a span named `phase` in iteration `iter`.
fn shards_with_phase(rec: &Recorded, phase: &str, iter: u64) -> BTreeSet<u64> {
    rec.spans
        .iter()
        .filter(|s| {
            s.track == "engine"
                && s.name == phase
                && field_u64(&s.fields, "iteration") == Some(iter)
        })
        .map(|s| field_u64(&s.fields, "shard").expect("shard field"))
        .collect()
}

#[test]
fn every_processed_shard_gets_its_phase_spans() {
    let (stats, rec) = heat_run();
    assert!(stats.num_shards > 1, "need an out-of-core run");
    for (i, it) in stats.per_iteration.iter().enumerate() {
        // gatherMap / gatherReduce / apply run for exactly the shards the
        // frontier kept active this iteration.
        for phase in ["gatherMap", "gatherReduce", "apply"] {
            let shards = shards_with_phase(&rec, phase, i as u64);
            assert_eq!(
                shards.len() as u32,
                it.shards_processed,
                "iteration {i}: {phase} spans vs shards_processed"
            );
        }
    }
    // Scatter + FrontierActivate run for shards with changed out-edges —
    // present in the capture, labeled with iteration and shard.
    for phase in ["scatter", "frontierActivate"] {
        assert!(
            rec.spans
                .iter()
                .any(|s| s.track == "engine" && s.name == phase),
            "no {phase} span recorded"
        );
    }

    // The JSONL export carries all five phases, one object per line.
    let jsonl = export::jsonl(&rec);
    for phase in [
        "gatherMap",
        "gatherReduce",
        "apply",
        "scatter",
        "frontierActivate",
    ] {
        assert!(
            jsonl.contains(&format!("\"name\":\"{phase}\"")),
            "JSONL lacks {phase}"
        );
    }
    for line in jsonl.lines() {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "bad line {line}"
        );
    }
}

#[test]
fn decision_log_skips_match_iteration_stats() {
    // The long-path BFS setup: most shards are inactive most iterations,
    // so frontier management skips aggressively.
    let n = 2048u32;
    let el =
        EdgeList::from_edges(n, (0..n - 1).map(|v| (v, v + 1)).collect::<Vec<_>>()).symmetrize();
    let layout = GraphLayout::build(&el);
    let (observer, sink) = Observer::recording();
    let out = GraphSession::new(
        &layout,
        Platform::paper_node_scaled(1 << 16),
        Options::optimized(),
    )
    .query(&Bfs::new(0))
    .with_observer(observer)
    .run()
    .unwrap();
    let rec = sink.recorded();
    let skipped: u64 = out
        .stats
        .per_iteration
        .iter()
        .map(|it| it.shards_skipped as u64)
        .sum();
    assert!(skipped > 0, "setup must skip shards");
    assert_eq!(
        rec.shard_skips() as u64,
        skipped,
        "one ShardSkip decision per skipped shard per iteration"
    );
}

#[test]
fn armed_wall_profiler_attributes_real_time_without_changing_results() {
    let layout = GraphLayout::build(&gen::rmat_g500(12, 40_000, 7).symmetrize());
    let plat = Platform::paper_node_scaled(1 << 13);
    let base = GraphSession::new(&layout, plat.clone(), Options::optimized())
        .query(&Heat::default())
        .run()
        .unwrap();
    assert!(base.stats.wall.is_none(), "no profiler, no wall section");
    assert!(!base.stats.to_string().contains("host wall:"));

    let wall = WallProfiler::armed();
    let (observer, sink) = Observer::recording();
    let out = GraphSession::new(&layout, plat, Options::optimized())
        .query(&Heat::default())
        .with_wall_profiler(wall.clone())
        .with_observer(observer)
        .run()
        .unwrap();
    // Profiling is read-only: results and every simulated number are
    // untouched.
    assert_eq!(out.vertex_values, base.vertex_values);
    assert_eq!(out.stats.elapsed, base.stats.elapsed);
    assert_eq!(out.stats.bytes_h2d, base.stats.bytes_h2d);

    let summary = out.stats.wall.clone().expect("armed profiler fills wall");
    assert!(summary.total_ns > 0, "real time must accumulate");
    assert!(summary.kernel_ns > 0 && summary.kernel_ns <= summary.total_ns);
    assert!(summary.threads >= 1);
    assert!(summary.imbalance >= 1.0);
    assert!(out.stats.to_string().contains("host wall:"));

    // The profile tree attributes every GAS phase of this all-phase
    // program, labeled with the algorithm.
    let profile = wall.profile();
    assert_eq!(profile.algorithm, out.stats.algorithm);
    let phases: BTreeSet<&str> = profile.rows.iter().map(|r| r.key.phase).collect();
    for p in ["gather", "apply", "scatter", "activate", "setup"] {
        assert!(phases.contains(p), "profile lacks phase {p}");
    }

    // The run report grows a wall section; the baseline report has none.
    let rec = sink.recorded();
    let rep = report::run_report(&out.stats, &rec);
    assert!(rep.contains("\"wall\": {\"total_ns\":"));
    let base_rep = report::run_report(&base.stats, &rec);
    assert!(!base_rep.contains("\"wall\""));

    // And the unified trace gains a wall-clock track beside sim/engine.
    let trace = export::chrome_trace_with_wall(&rec, Some(&profile));
    assert!(trace.contains("\"args\":{\"name\":\"wall\"}"));
    assert_eq!(trace.matches('{').count(), trace.matches('}').count());
}

#[test]
fn unified_trace_has_sim_and_engine_tracks() {
    let (_, rec) = heat_run();
    let trace = export::chrome_trace(&rec);
    // Perfetto-loadable shape: a single traceEvents array object.
    assert!(trace.starts_with("{\"traceEvents\":["));
    assert!(trace.trim_end().ends_with("]}"));
    assert!(!trace.contains(",]") && !trace.contains(",}"));
    assert_eq!(trace.matches('{').count(), trace.matches('}').count());
    // Both tracks present as named processes.
    assert!(trace.contains("\"name\":\"process_name\""));
    for track in ["sim", "engine"] {
        assert!(
            trace.contains(&format!("\"args\":{{\"name\":\"{track}\"}}")),
            "trace lacks the {track} track"
        );
    }
    // Sim lanes (copy/kernel engines) and engine lanes (shards,
    // iterations) both carry events.
    assert!(trace.contains("\"name\":\"h2d\"") || trace.contains("\"name\":\"kernel"));
    assert!(trace.contains("iteration 0"));
}
