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

use gr_observe::export::snapshot_body;
use gr_observe::{json, Decision, Recorded};

use crate::stats::RunStats;

/// Format version stamped into every report. Bump when a field changes
/// meaning or disappears; adding fields is compatible.
pub const REPORT_VERSION: u32 = 2;

/// The versioned run report: `RunStats` and its derived metrics, the
/// per-iteration trace, decision summary, and every non-per-iteration
/// metrics snapshot the observer captured (scopes like `"run"`,
/// `"engine"`, `"gpu0"`).
pub fn run_report(stats: &RunStats, rec: &Recorded) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"report_version\": {REPORT_VERSION},\n"));
    out.push_str(&format!(
        "  \"algorithm\": {},\n",
        json::string(stats.algorithm)
    ));
    out.push_str(&format!("  \"iterations\": {},\n", stats.iterations));
    out.push_str(&format!(
        "  \"elapsed_ns\": {},\n",
        stats.elapsed.as_nanos()
    ));
    out.push_str(&format!(
        "  \"memcpy_time_ns\": {},\n",
        stats.memcpy_time.as_nanos()
    ));
    out.push_str(&format!(
        "  \"kernel_time_ns\": {},\n",
        stats.kernel_time.as_nanos()
    ));
    out.push_str(&format!("  \"bytes_h2d\": {},\n", stats.bytes_h2d));
    out.push_str(&format!("  \"bytes_d2h\": {},\n", stats.bytes_d2h));
    out.push_str(&format!("  \"copy_ops\": {},\n", stats.copy_ops));
    out.push_str(&format!(
        "  \"kernel_launches\": {},\n",
        stats.kernel_launches
    ));
    out.push_str(&format!(
        "  \"skipped_shard_copies\": {},\n",
        stats.skipped_shard_copies
    ));
    out.push_str(&format!(
        "  \"skipped_kernel_launches\": {},\n",
        stats.skipped_kernel_launches
    ));
    out.push_str(&format!("  \"num_shards\": {},\n", stats.num_shards));
    out.push_str(&format!(
        "  \"concurrent_shards\": {},\n",
        stats.concurrent_shards
    ));
    out.push_str(&format!("  \"all_resident\": {},\n", stats.all_resident));
    out.push_str(&format!(
        "  \"faults_injected\": {},\n",
        stats.faults_injected
    ));
    out.push_str(&format!(
        "  \"recovered_retries\": {},\n",
        stats.recovered_retries
    ));
    out.push_str(&format!("  \"rollbacks\": {},\n", stats.rollbacks));
    out.push_str(&format!("  \"host_fallback\": {},\n", stats.host_fallback));
    out.push_str(&format!(
        "  \"mem_pressure_events\": {},\n",
        stats.mem_pressure_events
    ));
    out.push_str(&format!("  \"shard_splits\": {},\n", stats.shard_splits));
    out.push_str(&format!(
        "  \"chunked_shards\": {},\n",
        stats.chunked_shards
    ));
    out.push_str(&format!(
        "  \"chunked_copies\": {},\n",
        stats.chunked_copies
    ));
    out.push_str(&format!("  \"host_shards\": {},\n", stats.host_shards));
    out.push_str(&format!("  \"mem_peak\": {},\n", stats.mem_peak));
    out.push_str(&format!(
        "  \"mem_min_headroom\": {},\n",
        stats.mem_min_headroom
    ));
    // Durability section: present only when durable checkpoints, a
    // resume, or the spill store actually did work (same compatibility
    // rule as the wall section — absent means byte-identical to pre-
    // durability reports).
    if stats.checkpoint_writes > 0
        || stats.checkpoint_restores > 0
        || stats.spilled_shards > 0
        || stats.checkpoints_skipped > 0
        || stats.storage_retries > 0
    {
        out.push_str(&format!(
            "  \"durability\": {{\"checkpoint_writes\": {}, \"checkpoint_bytes_written\": {}, \
             \"checkpoint_full_bytes\": {}, \"checkpoint_delta_writes\": {}, \
             \"checkpoint_delta_bytes\": {}, \"checkpoint_raw_bytes\": {}, \
             \"checkpoint_restores\": {}, \"checkpoints_skipped\": {}, \
             \"spilled_shards\": {}, \"spilled_bytes\": {}, \
             \"spill_loads\": {}, \"spill_load_bytes\": {}, \
             \"storage_retries\": {}, \"spill_restreams\": {}}},\n",
            stats.checkpoint_writes,
            stats.checkpoint_bytes_written,
            stats.checkpoint_full_bytes,
            stats.checkpoint_delta_writes,
            stats.checkpoint_delta_bytes,
            stats.checkpoint_raw_bytes,
            stats.checkpoint_restores,
            stats.checkpoints_skipped,
            stats.spilled_shards,
            stats.spilled_bytes,
            stats.spill_loads,
            stats.spill_load_bytes,
            stats.storage_retries,
            stats.spill_restreams
        ));
    }
    // Compression section: present only when a shard codec was armed
    // (uncompressed runs emit the byte-identical report they always did).
    if let Some(codec) = stats.compression_codec {
        out.push_str(&format!(
            "  \"compression\": {{\"codec\": {}, \"compressed_bytes\": {}, \
             \"raw_bytes\": {}, \"ratio\": {}, \"decompress_launches\": {}}},\n",
            json::string(codec),
            stats.compressed_bytes,
            stats.compressed_raw_bytes,
            json::number(stats.compression_ratio().unwrap_or(0.0)),
            stats.decompress_launches
        ));
    }
    if let Some(fp) = stats.state_fingerprint {
        out.push_str(&format!("  \"state_fingerprint\": \"{fp:#018x}\",\n"));
    }
    out.push_str(&format!("  \"max_frontier\": {},\n", stats.max_frontier()));
    out.push_str(&format!(
        "  \"pct_iterations_below_half_max\": {},\n",
        json::number(stats.pct_iterations_below_half_max())
    ));
    out.push_str(&format!(
        "  \"memcpy_share\": {},\n",
        json::number(stats.memcpy_share())
    ));

    // Real wall-clock section: present only when a profiler was armed
    // (adding a field is compatible within a `report_version`; disarmed
    // runs emit the byte-identical report they always did).
    if let Some(w) = &stats.wall {
        let phases: Vec<String> = w
            .phases
            .iter()
            .map(|(p, ns)| format!("{{\"phase\":{},\"self_ns\":{ns}}}", json::string(p)))
            .collect();
        out.push_str(&format!(
            "  \"wall\": {{\"total_ns\": {}, \"kernel_ns\": {}, \"threads\": {}, \
             \"imbalance\": {}, \"phases\": [{}]}},\n",
            w.total_ns,
            w.kernel_ns,
            w.threads,
            json::number(w.imbalance),
            phases.join(",")
        ));
    }

    let iters: Vec<String> = stats
        .per_iteration
        .iter()
        .enumerate()
        .map(|(i, it)| {
            format!(
                "    {{\"iteration\":{i},\"frontier_size\":{},\"gathered_edges\":{},\
                 \"changed\":{},\"activated\":{},\"shards_processed\":{},\"shards_skipped\":{}}}",
                it.frontier_size,
                it.gathered_edges,
                it.changed,
                it.activated,
                it.shards_processed,
                it.shards_skipped
            )
        })
        .collect();
    out.push_str(&format!(
        "  \"per_iteration\": [\n{}\n  ],\n",
        iters.join(",\n")
    ));

    let plan: Vec<String> = rec
        .decisions
        .iter()
        .filter_map(|d| match d {
            Decision::PhaseFusion { phases, rationale } => Some(format!(
                "      {{\"kind\":\"phase_fusion\",\"phases\":{},\"rationale\":{}}}",
                json::string(phases),
                json::string(rationale)
            )),
            Decision::PhaseElimination { phase, rationale } => Some(format!(
                "      {{\"kind\":\"phase_elimination\",\"phase\":{},\"rationale\":{}}}",
                json::string(phase),
                json::string(rationale)
            )),
            // Per-event decisions are summarized by count here (the full
            // stream lives in the JSONL decision log).
            Decision::ShardSkip { .. }
            | Decision::FaultRetry { .. }
            | Decision::Rollback { .. }
            | Decision::DeviceEvict { .. }
            | Decision::HostFallback { .. }
            | Decision::MemoryPressure { .. }
            | Decision::ShardSplit { .. }
            | Decision::ChunkedXfer { .. }
            | Decision::ShardSpill { .. }
            | Decision::ShardLoad { .. }
            | Decision::CheckpointWrite { .. }
            | Decision::CheckpointRestore { .. }
            | Decision::CompressShard { .. }
            | Decision::DecompressShard { .. }
            | Decision::StorageRetry { .. }
            | Decision::StorageDegraded { .. }
            | Decision::CheckpointSkipped { .. }
            | Decision::QueryAdmit { .. }
            | Decision::QueryReject { .. }
            | Decision::BatchFormed { .. }
            | Decision::QueryDone { .. } => None,
        })
        .collect();
    // Durability decisions appear in the summary only when any were made
    // (keeps durability-off reports byte-identical).
    let durability = rec.durability_decisions();
    let durability_field = if durability > 0 {
        format!("\"durability_decisions\": {durability}, ")
    } else {
        String::new()
    };
    // Same rule for compression: counted only when a codec was armed.
    let compression = rec.compression_decisions();
    let compression_field = if compression > 0 {
        format!("\"compression_decisions\": {compression}, ")
    } else {
        String::new()
    };
    // And for storage faults: counted only when I/O faults did fire.
    let storage = rec.storage_decisions();
    let storage_field = if storage > 0 {
        format!("\"storage_decisions\": {storage}, ")
    } else {
        String::new()
    };
    out.push_str(&format!(
        "  \"decisions\": {{\"shard_skips\": {}, \"recovery_decisions\": {}, \
         \"memory_decisions\": {}, {}{}{}\"plan\": [\n{}\n    ]}},\n",
        rec.shard_skips(),
        rec.recovery_decisions(),
        rec.memory_decisions(),
        durability_field,
        compression_field,
        storage_field,
        plan.join(",\n")
    ));

    let snaps: Vec<String> = rec
        .snapshots
        .iter()
        .filter(|(scope, _)| !scope.starts_with("iteration"))
        .map(|(scope, snap)| format!("    {}: {{{}}}", json::string(scope), snapshot_body(snap)))
        .collect();
    out.push_str(&format!(
        "  \"snapshots\": {{\n{}\n  }}\n",
        snaps.join(",\n")
    ));
    out.push_str("}\n");
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
    use gr_sim::SimDuration;

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
        m.inc("h2d.bytes", 1000);
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
