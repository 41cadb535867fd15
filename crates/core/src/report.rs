//! Machine-readable run artifacts: a versioned JSON run report and the
//! CSV tables behind the paper's figures.
//!
//! The report is a superset of [`RunStats`]: everything the `Display`
//! impl prints, plus the per-iteration trace, a summary of the
//! engine's recorded [`Decision`]s, and the end-of-run metrics
//! snapshots — one self-describing JSON document per run, stable under
//! `report_version`. The CSV exporters produce exactly the series the
//! paper's evaluation figures plot (Figure 15's memcpy table, Figure
//! 16/17's frontier dynamics), so regenerating a figure is a run plus
//! a plot script, not a parse of log text.

use gr_observe::export::{decision_fields, snapshot_fields};
use gr_observe::json::{Layout, Value, Writer};
use gr_observe::{Decision, Recorded};

use crate::stats::RunStats;

/// Format version stamped into every report. Bump when a field changes
/// meaning or disappears; adding fields is compatible.
pub const REPORT_VERSION: u32 = 2;

/// The versioned run report: `RunStats` and its derived metrics, the
/// per-iteration trace, decision summary, and every non-per-iteration
/// metrics snapshot the observer captured (scopes like `"run"`,
/// `"engine"`, `"gpu0"`).
///
/// Sections for opt-in features (durability, compression, more than one
/// device, the wall profile) and their decision counts appear only when
/// the feature did work: adding a member is compatible within a `report_version`, and
/// runs without the feature emit the byte-identical report they always
/// did.
pub fn run_report(stats: &RunStats, rec: &Recorded) -> String {
    let mut out = String::new();
    let mut o = Writer::object(&mut out, Layout::Lines(0));
    o.field("report_version", REPORT_VERSION)
        .field("algorithm", stats.algorithm)
        .field("iterations", stats.iterations)
        .field("elapsed_ns", stats.elapsed.as_nanos())
        .field("memcpy_time_ns", stats.memcpy_time.as_nanos())
        .field("kernel_time_ns", stats.kernel_time.as_nanos())
        .field("bytes_h2d", stats.bytes_h2d)
        .field("bytes_d2h", stats.bytes_d2h)
        .field("copy_ops", stats.copy_ops)
        .field("kernel_launches", stats.kernel_launches)
        .field("skipped_shard_copies", stats.skipped_shard_copies)
        .field("skipped_kernel_launches", stats.skipped_kernel_launches)
        .field("num_shards", stats.num_shards)
        .field("concurrent_shards", stats.concurrent_shards)
        .field("all_resident", stats.all_resident)
        .field("faults_injected", stats.faults_injected)
        .field("recovered_retries", stats.recovered_retries)
        .field("rollbacks", stats.rollbacks)
        .field("host_fallback", stats.host_fallback)
        .field("mem_pressure_events", stats.mem_pressure_events)
        .field("shard_splits", stats.shard_splits)
        .field("chunked_shards", stats.chunked_shards)
        .field("chunked_copies", stats.chunked_copies)
        .field("host_shards", stats.host_shards)
        .field("mem_peak", stats.mem_peak)
        .field("mem_min_headroom", stats.mem_min_headroom);
    if stats.checkpoint_writes > 0
        || stats.checkpoint_restores > 0
        || stats.spilled_shards > 0
        || stats.checkpoints_skipped > 0
        || stats.storage_retries > 0
    {
        Writer::object(o.key("durability"), Layout::Spaced)
            .field("checkpoint_writes", stats.checkpoint_writes)
            .field("checkpoint_bytes_written", stats.checkpoint_bytes_written)
            .field("checkpoint_full_bytes", stats.checkpoint_full_bytes)
            .field("checkpoint_delta_writes", stats.checkpoint_delta_writes)
            .field("checkpoint_delta_bytes", stats.checkpoint_delta_bytes)
            .field("checkpoint_raw_bytes", stats.checkpoint_raw_bytes)
            .field("checkpoint_restores", stats.checkpoint_restores)
            .field("checkpoints_skipped", stats.checkpoints_skipped)
            .field("spilled_shards", stats.spilled_shards)
            .field("spilled_bytes", stats.spilled_bytes)
            .field("spill_loads", stats.spill_loads)
            .field("spill_load_bytes", stats.spill_load_bytes)
            .field("storage_retries", stats.storage_retries)
            .field("spill_restreams", stats.spill_restreams);
    }
    if let Some(codec) = stats.compression_codec {
        Writer::object(o.key("compression"), Layout::Spaced)
            .field("codec", codec)
            .field("compressed_bytes", stats.compressed_bytes)
            .field("raw_bytes", stats.compressed_raw_bytes)
            .field("ratio", stats.compression_ratio().unwrap_or(0.0))
            .field("decompress_launches", stats.decompress_launches);
    }
    if stats.num_gpus() > 1 {
        let mut dev = Writer::object(o.key("devices"), Layout::Spaced);
        dev.field("gpus", stats.num_gpus())
            .field("exchange_bytes", stats.exchange_bytes)
            .field("evictions", stats.evictions)
            .field("redistributions", stats.redistributions);
        for (key, busy) in [
            ("memcpy_busy_ns", &stats.per_gpu_memcpy),
            ("kernel_busy_ns", &stats.per_gpu_kernel),
        ] {
            let mut ns = Writer::array(dev.key(key), Layout::Compact);
            for d in busy {
                d.as_nanos().write_to(ns.item());
            }
        }
    }
    if let Some(fp) = stats.state_fingerprint {
        o.field("state_fingerprint", format!("{fp:#018x}").as_str());
    }
    o.field("max_frontier", stats.max_frontier())
        .field(
            "pct_iterations_below_half_max",
            stats.pct_iterations_below_half_max(),
        )
        .field("memcpy_share", stats.memcpy_share());
    if let Some(w) = &stats.wall {
        let mut wall = Writer::object(o.key("wall"), Layout::Spaced);
        wall.field("total_ns", w.total_ns)
            .field("kernel_ns", w.kernel_ns)
            .field("threads", w.threads)
            .field("imbalance", w.imbalance);
        let mut phases = Writer::array(wall.key("phases"), Layout::Compact);
        for (phase, ns) in &w.phases {
            Writer::object(phases.item(), Layout::Compact)
                .field("phase", phase)
                .field("self_ns", ns);
        }
    }

    let mut iters = Writer::array(o.key("per_iteration"), Layout::Lines(2));
    for (i, it) in stats.per_iteration.iter().enumerate() {
        Writer::object(iters.item(), Layout::Compact)
            .field("iteration", i)
            .field("frontier_size", it.frontier_size)
            .field("gathered_edges", it.gathered_edges)
            .field("changed", it.changed)
            .field("activated", it.activated)
            .field("shards_processed", it.shards_processed)
            .field("shards_skipped", it.shards_skipped);
    }
    drop(iters);

    // Per-event decisions are summarized by count (the full stream lives
    // in the JSONL decision log); only the per-run plan is listed.
    let mut decisions = Writer::object(o.key("decisions"), Layout::Spaced);
    decisions
        .field("shard_skips", rec.shard_skips())
        .field("recovery_decisions", rec.recovery_decisions())
        .field("memory_decisions", rec.memory_decisions());
    for (key, n) in [
        ("durability_decisions", rec.durability_decisions()),
        ("compression_decisions", rec.compression_decisions()),
        ("storage_decisions", rec.storage_decisions()),
    ] {
        if n > 0 {
            decisions.field(key, n);
        }
    }
    let mut plan = Writer::array(decisions.key("plan"), Layout::Lines(4));
    for d in &rec.decisions {
        if matches!(
            d,
            Decision::PhaseFusion { .. } | Decision::PhaseElimination { .. }
        ) {
            decision_fields(&mut Writer::object(plan.item(), Layout::Compact), d);
        }
    }
    drop(plan);
    drop(decisions);

    let mut snaps = Writer::object(o.key("snapshots"), Layout::Lines(2));
    for (scope, snap) in &rec.snapshots {
        if !scope.starts_with("iteration") {
            snapshot_fields(&mut Writer::object(snaps.key(scope), Layout::Compact), snap);
        }
    }
    drop(snaps);
    drop(o);
    out.push('\n');
    out
}

/// Figure 15 table: one row per `(graph, algorithm, variant)` run, with
/// the memcpy/kernel split and transfer volumes the figure compares.
pub fn memcpy_csv<'a>(rows: impl IntoIterator<Item = (&'a str, &'a str, &'a RunStats)>) -> String {
    let mut out = String::from(
        "graph,algo,variant,elapsed_ms,memcpy_ms,kernel_ms,memcpy_share,bytes_h2d,bytes_d2h\n",
    );
    for (graph, variant, s) in rows {
        out.push_str(&format!(
            "{graph},{},{variant},{:.3},{:.3},{:.3},{:.4},{},{}\n",
            s.algorithm,
            s.elapsed.as_millis_f64(),
            s.memcpy_time.as_millis_f64(),
            s.kernel_time.as_millis_f64(),
            s.memcpy_share(),
            s.bytes_h2d,
            s.bytes_d2h
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::IterationStats;
    use gr_observe::{MetricsRegistry, Observer};
    use gr_sim::{DeviceMetric, SimDuration};

    fn stats() -> RunStats {
        RunStats {
            algorithm: "bfs",
            iterations: 2,
            elapsed: SimDuration::from_micros(10),
            memcpy_time: SimDuration::from_micros(6),
            kernel_time: SimDuration::from_micros(3),
            bytes_h2d: 1000,
            bytes_d2h: 200,
            copy_ops: 4,
            kernel_launches: 6,
            skipped_shard_copies: 1,
            skipped_kernel_launches: 2,
            num_shards: 2,
            concurrent_shards: 2,
            all_resident: false,
            faults_injected: 1,
            recovered_retries: 1,
            rollbacks: 0,
            host_fallback: false,
            mem_pressure_events: 1,
            shard_splits: 2,
            chunked_shards: 0,
            chunked_copies: 0,
            host_shards: 0,
            mem_peak: 900,
            mem_min_headroom: 100,
            wall: None,
            per_iteration: vec![
                IterationStats {
                    frontier_size: 1,
                    gathered_edges: 3,
                    changed: 2,
                    activated: 2,
                    shards_processed: 1,
                    shards_skipped: 1,
                },
                IterationStats {
                    frontier_size: 2,
                    gathered_edges: 5,
                    changed: 0,
                    activated: 0,
                    shards_processed: 2,
                    shards_skipped: 0,
                },
            ],
            ..Default::default()
        }
    }

    fn recorded() -> Recorded {
        let (obs, sink) = Observer::recording();
        obs.decision(|| Decision::ShardSkip {
            iteration: 0,
            shard: 1,
            interval_bits: 64,
            active_bits: 0,
        });
        obs.decision(|| Decision::PhaseElimination {
            phase: "scatter",
            rationale: "program defines no scatter",
        });
        obs.decision(|| Decision::FaultRetry {
            iteration: 0,
            device: 0,
            op: "in.topo",
            fault: "transient.h2d",
            attempt: 1,
            backoff_ns: 50_000,
        });
        obs.decision(|| Decision::ShardSplit {
            shard: 0,
            vertices: 8,
            bytes: 512,
        });
        let mut m = MetricsRegistry::new();
        m.inc(DeviceMetric::H2dBytes, 1000);
        obs.snapshot("run", || m.snapshot());
        obs.snapshot("iteration 0", || m.snapshot());
        sink.recorded()
    }

    #[test]
    fn report_is_versioned_and_complete() {
        let rep = run_report(&stats(), &recorded());
        assert!(rep.contains("\"report_version\": 2"));
        assert!(rep.contains("\"algorithm\": \"bfs\""));
        assert!(rep.contains("\"elapsed_ns\": 10000"));
        assert!(rep.contains("\"shard_skips\": 1"));
        assert!(rep.contains("\"phase_elimination\""));
        assert!(rep.contains("\"frontier_size\":1"));
        // Recovery: counted in the summary, not expanded in the plan list.
        assert!(rep.contains("\"recovery_decisions\": 1"));
        assert!(rep.contains("\"faults_injected\": 1"));
        assert!(rep.contains("\"recovered_retries\": 1"));
        assert!(rep.contains("\"host_fallback\": false"));
        assert!(!rep.contains("\"fault_retry\""));
        // Governor: counted in the summary and the flat fields, not
        // expanded in the plan list.
        assert!(rep.contains("\"memory_decisions\": 1"));
        assert!(rep.contains("\"mem_pressure_events\": 1"));
        assert!(rep.contains("\"shard_splits\": 2"));
        assert!(rep.contains("\"mem_min_headroom\": 100"));
        assert!(!rep.contains("\"shard_split\""));
        // Snapshots: run-level in, per-iteration filtered out.
        assert!(rep.contains("\"run\": {\"counters\":{\"h2d.bytes\":1000}"));
        assert!(!rep.contains("\"iteration 0\""));
    }

    #[test]
    fn wall_section_only_appears_when_a_profiler_was_armed() {
        let rec = recorded();
        let clean = run_report(&stats(), &rec);
        assert!(!clean.contains("\"wall\""), "disarmed report unchanged");
        let mut s = stats();
        s.wall = Some(gr_observe::WallSummary {
            total_ns: 5_000_000,
            kernel_ns: 4_000_000,
            phases: vec![("gather", 3_000_000), ("apply", 1_000_000)],
            threads: 2,
            imbalance: 1.5,
        });
        let rep = run_report(&s, &rec);
        assert!(rep.contains("\"wall\": {\"total_ns\": 5000000, \"kernel_ns\": 4000000"));
        assert!(rep.contains("\"threads\": 2"));
        assert!(rep.contains("\"imbalance\": 1.5"));
        assert!(rep.contains("{\"phase\":\"gather\",\"self_ns\":3000000}"));
        assert_eq!(rep.matches('{').count(), rep.matches('}').count());
    }

    #[test]
    fn compression_section_only_appears_when_a_codec_was_armed() {
        let rec = recorded();
        let clean = run_report(&stats(), &rec);
        assert!(!clean.contains("\"compression\""), "uncompressed unchanged");
        let mut s = stats();
        s.compression_codec = Some("zeta3");
        s.compressed_bytes = 250;
        s.compressed_raw_bytes = 1000;
        s.decompress_launches = 8;
        let rep = run_report(&s, &rec);
        assert!(rep.contains(
            "\"compression\": {\"codec\": \"zeta3\", \"compressed_bytes\": 250, \
             \"raw_bytes\": 1000, \"ratio\": 4.0, \"decompress_launches\": 8}"
        ));
        assert_eq!(rep.matches('{').count(), rep.matches('}').count());
    }

    #[test]
    fn devices_section_only_appears_with_more_than_one_device() {
        let rec = recorded();
        let mut s = stats();
        s.per_gpu_memcpy = vec![SimDuration::from_micros(3)];
        s.per_gpu_kernel = vec![SimDuration::from_micros(4)];
        assert!(!run_report(&s, &rec).contains("\"devices\""), "one device");
        s.per_gpu_memcpy.push(SimDuration::from_micros(5));
        s.per_gpu_kernel.push(SimDuration::from_micros(6));
        s.exchange_bytes = 800;
        s.redistributions = 2;
        let rep = run_report(&s, &rec);
        assert!(
            rep.contains(
                "\"devices\": {\"gpus\": 2, \"exchange_bytes\": 800, \"evictions\": 0, \
                 \"redistributions\": 2, \"memcpy_busy_ns\": [3000,5000], \
                 \"kernel_busy_ns\": [4000,6000]}"
            ),
            "{rep}"
        );
    }

    #[test]
    fn report_is_valid_json() {
        // Reuse the exporter's escaping; validate with a quick paren/
        // brace balance plus a parse through the jsonl test helper is
        // not available here, so check structural invariants instead.
        let rep = run_report(&stats(), &recorded());
        assert_eq!(
            rep.matches('{').count(),
            rep.matches('}').count(),
            "balanced braces"
        );
        assert_eq!(rep.matches('[').count(), rep.matches(']').count());
        assert!(!rep.contains(",]") && !rep.contains(",}"));
    }

    #[test]
    fn memcpy_csv_rows() {
        let s = stats();
        let csv = memcpy_csv([("cage15", "optimized", &s), ("cage15", "unoptimized", &s)]);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[1].starts_with("cage15,bfs,optimized,"));
        assert!(lines[1].contains(",0.6000,1000,200"));
    }
}
