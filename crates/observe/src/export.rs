//! Exporters over a [`Recorded`] capture: a JSONL event stream and a
//! Chrome/Perfetto trace. Both are pure functions from records to
//! `String`; callers decide where the bytes go.

use std::fmt::Write as _;

use crate::event::{Decision, FieldValue};
use crate::json::{self, Layout, Writer};
use crate::metrics::MetricsSnapshot;
use crate::sink::Recorded;

/// One JSON object per line: every span, instant, decision, and
/// metrics snapshot, in emission order within each kind. Suitable for
/// `grep`/`jq` pipelines and append-only log files.
pub fn jsonl(rec: &Recorded) -> String {
    let mut out = String::new();
    for s in &rec.spans {
        let times = [("start_ns", s.start_ns), ("dur_ns", s.dur_ns)];
        event_line(
            &mut out,
            "span",
            [s.track, &s.lane, &s.name],
            &times,
            &s.fields,
        );
    }
    for i in &rec.instants {
        let times = [("at_ns", i.at_ns)];
        event_line(
            &mut out,
            "instant",
            [i.track, &i.lane, &i.name],
            &times,
            &i.fields,
        );
    }
    for d in &rec.decisions {
        line(&mut out, "decision", |o| decision_fields(o, d));
    }
    for (scope, snap) in &rec.snapshots {
        line(&mut out, "snapshot", |o| {
            snapshot_fields(o.field("scope", &**scope), snap)
        });
    }
    out
}

/// Append one JSONL line: an object tagged with its record `type`.
fn line(out: &mut String, kind: &str, body: impl FnOnce(&mut Writer)) {
    body(Writer::object(out, Layout::Compact).field("type", kind));
    out.push('\n');
}

/// A span or instant line: its `[track, lane, name]`, its times, then
/// its typed fields.
fn event_line(
    out: &mut String,
    kind: &str,
    place: [&str; 3],
    times: &[(&str, u64)],
    fields: &[(&'static str, FieldValue)],
) {
    line(out, kind, |o| {
        for (k, v) in ["track", "lane", "name"].into_iter().zip(place) {
            o.field(k, v);
        }
        for (k, v) in times {
            o.field(k, v);
        }
        for (k, v) in fields {
            o.field(k, v);
        }
    });
}

/// A decision's `kind` tag and its fields, in declaration order: the
/// one listing of every variant's fields, shared by the JSONL decision
/// log and the run report's plan summary. The object's own tag is
/// `kind`, so a decision field named `kind` is written as `query_kind`.
pub fn decision_fields(o: &mut Writer, d: &Decision) {
    fn key(field: &'static str) -> &'static str {
        if field == "kind" {
            "query_kind"
        } else {
            field
        }
    }
    macro_rules! variants {
        ($($variant:ident $tag:literal { $($field:ident),* })*) => {
            match d {
                $(Decision::$variant { $($field),* } => {
                    o.field("kind", $tag);
                    $(o.field(key(stringify!($field)), $field);)*
                })*
            }
        };
    }
    variants! {
        ShardSkip "shard_skip" { iteration, shard, interval_bits, active_bits }
        PhaseFusion "phase_fusion" { phases, rationale }
        PhaseElimination "phase_elimination" { phase, rationale }
        FaultRetry "fault_retry" { iteration, device, op, fault, attempt, backoff_ns }
        Rollback "rollback" { iteration, device, op, fault }
        DeviceEvict "device_evict" { iteration, device, shards_moved }
        HostFallback "host_fallback" { iteration, device, rationale }
        MemoryPressure "memory_pressure" { device, requested, available, capacity, response, scope }
        ShardSplit "shard_split" { shard, vertices, bytes }
        ChunkedXfer "chunked_xfer" { shard, shard_bytes, chunk_bytes, chunks }
        ShardSpill "shard_spill" { shard, bytes, store }
        ShardLoad "shard_load" { iteration, shard, bytes, store }
        CompressShard "compress_shard" { shard, raw_bytes, compressed_bytes, codec }
        DecompressShard "decompress_shard" { iteration, shard, compressed_bytes, raw_bytes }
        CheckpointWrite "checkpoint_write" { iteration, bytes }
        CheckpointRestore "checkpoint_restore" { iteration, bytes }
        StorageRetry "storage_retry" { iteration, op, fault, shard, attempt, backoff_ns }
        StorageDegraded "storage_degraded" { iteration, op, shard, rationale }
        CheckpointSkipped "checkpoint_skipped" { iteration, rationale }
        QueryAdmit "query_admit" { query, kind, queue_depth }
        QueryReject "query_reject" { kind, queue_depth, rationale }
        BatchFormed "batch_formed" { batch, size, kind }
        QueryDone "query_done" { query, batch, lane, deadline_met }
    }
}

/// The `counters`/`gauges`/`histograms` members of a snapshot object
/// (without surrounding braces), as [`snapshot_fields`] writes them.
pub fn snapshot_body(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    snapshot_fields(&mut Writer::object(&mut out, Layout::Compact), snap);
    out[1..out.len() - 1].to_string()
}

/// Write a snapshot's `counters`, `gauges` and `histograms` members.
/// No registry holds gauges; the empty `gauges` member stays because
/// report format v2 and the pinned snapshot fingerprints include it.
pub fn snapshot_fields(o: &mut Writer, snap: &MetricsSnapshot) {
    let mut counters = Writer::object(o.key("counters"), Layout::Compact);
    for (k, v) in &snap.counters {
        counters.field(k, v);
    }
    drop(counters);
    drop(Writer::object(o.key("gauges"), Layout::Compact));
    let mut hists = Writer::object(o.key("histograms"), Layout::Compact);
    for (k, h) in &snap.histograms {
        let mut entry = Writer::object(hists.key(k), Layout::Compact);
        entry
            .field("count", h.count)
            .field("sum", h.sum)
            .field("min", h.min)
            .field("max", h.max);
        let mut buckets = Writer::array(entry.key("buckets"), Layout::Compact);
        for (lb, c) in &h.buckets {
            let _ = write!(buckets.item(), "[{lb},{c}]");
        }
    }
}

/// Chrome trace (the `chrome://tracing` / Perfetto JSON format), with
/// one *process* per track (`sim`, `engine`, `multi`) and one *thread*
/// per lane, so resource timelines and GAS-phase timelines load as
/// separate named groups in one unified view. Spans become complete
/// (`"X"`) events, instants become instant (`"i"`) events; timestamps
/// convert from virtual nanoseconds to the format's microseconds.
pub fn chrome_trace(rec: &Recorded) -> String {
    let mut tracks: Vec<&'static str> = Vec::new();
    let mut lanes: Vec<(usize, String)> = Vec::new(); // (pid, lane) -> index = tid order
    let mut events: Vec<String> = Vec::new();

    let mut ids = |track: &'static str, lane: &str| -> (usize, usize) {
        let pid = match tracks.iter().position(|t| *t == track) {
            Some(p) => p,
            None => {
                tracks.push(track);
                tracks.len() - 1
            }
        };
        let tid = match lanes
            .iter()
            .filter(|(p, _)| *p == pid)
            .position(|(_, l)| l == lane)
        {
            Some(t) => t,
            None => {
                let t = lanes.iter().filter(|(p, _)| *p == pid).count();
                lanes.push((pid, lane.to_string()));
                t
            }
        };
        (pid, tid)
    };

    for s in &rec.spans {
        let (pid, tid) = ids(s.track, &s.lane);
        events.push(format!(
            "{{\"name\":{},\"ph\":\"X\",\"pid\":{},\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{}}}",
            json::string(&s.name),
            pid,
            tid,
            s.start_ns as f64 / 1e3,
            s.dur_ns as f64 / 1e3,
            args_json(&s.fields)
        ));
    }
    for i in &rec.instants {
        let (pid, tid) = ids(i.track, &i.lane);
        events.push(format!(
            "{{\"name\":{},\"ph\":\"i\",\"s\":\"t\",\"pid\":{},\"tid\":{},\"ts\":{:.3},\
             \"args\":{}}}",
            json::string(&i.name),
            pid,
            tid,
            i.at_ns as f64 / 1e3,
            args_json(&i.fields)
        ));
    }

    // Metadata first so viewers name processes/threads before events.
    let mut meta: Vec<String> = Vec::new();
    for (pid, track) in tracks.iter().enumerate() {
        meta.push(format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},\"args\":{{\"name\":{}}}}}",
            pid,
            json::string(track)
        ));
        meta.push(format!(
            "{{\"name\":\"process_sort_index\",\"ph\":\"M\",\"pid\":{pid},\
             \"args\":{{\"sort_index\":{pid}}}}}"
        ));
    }
    let mut tid_within = vec![0usize; tracks.len()];
    for (pid, lane) in &lanes {
        let tid = tid_within[*pid];
        tid_within[*pid] += 1;
        meta.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{},\"tid\":{},\
             \"args\":{{\"name\":{}}}}}",
            pid,
            tid,
            json::string(lane)
        ));
    }

    let mut all = meta;
    all.extend(events);
    format!("{{\"traceEvents\":[{}]}}", all.join(","))
}

/// [`chrome_trace`] with a wall-clock profile appended as its own
/// `"wall"` process: the profile's samples (real nanoseconds since the
/// profiler was armed, one lane per worker thread) render beside the
/// virtual-time tracks. `None` degrades to plain [`chrome_trace`], so
/// callers can pass an optional profile unconditionally.
pub fn chrome_trace_with_wall(
    rec: &Recorded,
    wall: Option<&crate::profiler::WallProfile>,
) -> String {
    match wall {
        None => chrome_trace(rec),
        Some(profile) => {
            let mut merged = rec.clone();
            merged.spans.extend(profile.to_span_events());
            chrome_trace(&merged)
        }
    }
}

fn args_json(fields: &[(&'static str, FieldValue)]) -> String {
    let mut out = String::new();
    let mut o = Writer::object(&mut out, Layout::Compact);
    for (k, v) in fields {
        o.field(k, v);
    }
    drop(o);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{InstantEvent, SpanEvent};
    use crate::metrics::MetricsRegistry;
    use crate::sink::Observer;

    fn span(track: &'static str, lane: &str, name: &str, start: u64, dur: u64) -> SpanEvent {
        SpanEvent {
            track,
            lane: lane.into(),
            name: name.into(),
            start_ns: start,
            dur_ns: dur,
            fields: vec![("iteration", FieldValue::U64(0))],
        }
    }

    /// Minimal JSON parser for validity checks (no serde offline).
    mod jsonck {
        pub fn valid(s: &str) -> bool {
            let b = s.as_bytes();
            let mut i = 0;
            value(b, &mut i) && {
                skip_ws(b, &mut i);
                i == b.len()
            }
        }

        fn skip_ws(b: &[u8], i: &mut usize) {
            while *i < b.len() && (b[*i] as char).is_ascii_whitespace() {
                *i += 1;
            }
        }

        fn value(b: &[u8], i: &mut usize) -> bool {
            skip_ws(b, i);
            match b.get(*i) {
                Some(b'{') => object(b, i),
                Some(b'[') => array(b, i),
                Some(b'"') => string(b, i),
                Some(b't') => lit(b, i, b"true"),
                Some(b'f') => lit(b, i, b"false"),
                Some(b'n') => lit(b, i, b"null"),
                Some(c) if c.is_ascii_digit() || *c == b'-' => number(b, i),
                _ => false,
            }
        }

        fn lit(b: &[u8], i: &mut usize, l: &[u8]) -> bool {
            if b[*i..].starts_with(l) {
                *i += l.len();
                true
            } else {
                false
            }
        }

        fn number(b: &[u8], i: &mut usize) -> bool {
            let start = *i;
            if b.get(*i) == Some(&b'-') {
                *i += 1;
            }
            while *i < b.len() && (b[*i].is_ascii_digit() || b"+-.eE".contains(&b[*i])) {
                *i += 1;
            }
            *i > start
        }

        fn string(b: &[u8], i: &mut usize) -> bool {
            *i += 1; // opening quote
            while *i < b.len() {
                match b[*i] {
                    b'"' => {
                        *i += 1;
                        return true;
                    }
                    b'\\' => *i += 2,
                    0x00..=0x1f => return false, // raw control char
                    _ => *i += 1,
                }
            }
            false
        }

        fn array(b: &[u8], i: &mut usize) -> bool {
            *i += 1;
            skip_ws(b, i);
            if b.get(*i) == Some(&b']') {
                *i += 1;
                return true;
            }
            loop {
                if !value(b, i) {
                    return false;
                }
                skip_ws(b, i);
                match b.get(*i) {
                    Some(b',') => *i += 1,
                    Some(b']') => {
                        *i += 1;
                        return true;
                    }
                    _ => return false,
                }
            }
        }

        fn object(b: &[u8], i: &mut usize) -> bool {
            *i += 1;
            skip_ws(b, i);
            if b.get(*i) == Some(&b'}') {
                *i += 1;
                return true;
            }
            loop {
                skip_ws(b, i);
                if b.get(*i) != Some(&b'"') || !string(b, i) {
                    return false;
                }
                skip_ws(b, i);
                if b.get(*i) != Some(&b':') {
                    return false;
                }
                *i += 1;
                if !value(b, i) {
                    return false;
                }
                skip_ws(b, i);
                match b.get(*i) {
                    Some(b',') => *i += 1,
                    Some(b'}') => {
                        *i += 1;
                        return true;
                    }
                    _ => return false,
                }
            }
        }

        #[test]
        fn parser_sanity() {
            assert!(valid(r#"{"a":[1,2.5,"x\"y",true,null],"b":{}}"#));
            assert!(!valid(r#"{"a":}"#));
            assert!(!valid(r#"[1,2"#));
            assert!(!valid("{\"a\":\"\n\"}")); // raw newline in string
        }
    }

    #[test]
    fn empty_capture_exports_valid_empty_trace() {
        let rec = Recorded::default();
        let trace = chrome_trace(&rec);
        assert_eq!(trace, "{\"traceEvents\":[]}");
        assert!(jsonck::valid(&trace));
        assert_eq!(jsonl(&rec), "");
    }

    #[test]
    fn chrome_trace_is_valid_json_with_escaped_labels() {
        let mut rec = Recorded::default();
        rec.spans.push(SpanEvent {
            track: "sim",
            lane: "gpu.copy\"h2d\"".into(),
            name: "copy \\ back".into(),
            start_ns: 1500,
            dur_ns: 500,
            fields: vec![("label", FieldValue::Str("a\"b".into()))],
        });
        let trace = chrome_trace(&rec);
        assert!(jsonck::valid(&trace), "invalid JSON: {trace}");
        assert!(trace.contains(r#""name":"copy \\ back""#));
        assert!(trace.contains(r#"copy\"h2d\""#));
        // ns → µs with three decimals.
        assert!(trace.contains("\"ts\":1.500"));
        assert!(trace.contains("\"dur\":0.500"));
    }

    #[test]
    fn chrome_trace_separates_tracks_and_lanes() {
        let mut rec = Recorded::default();
        rec.spans.push(span("sim", "gpu.kernel", "apply", 0, 10));
        rec.spans.push(span("sim", "pcie.h2d", "h2d", 0, 10));
        rec.spans
            .push(span("engine", "iterations", "iteration 0", 0, 20));
        rec.spans.push(span("engine", "shard 0", "gatherMap", 0, 5));
        rec.instants.push(InstantEvent {
            track: "engine",
            lane: "shard 0".into(),
            name: "skip".into(),
            at_ns: 7,
            fields: vec![],
        });
        let trace = chrome_trace(&rec);
        assert!(jsonck::valid(&trace), "invalid JSON: {trace}");
        // Two processes, named.
        assert!(trace.contains(r#""process_name","ph":"M","pid":0,"args":{"name":"sim"}"#));
        assert!(trace.contains(r#""process_name","ph":"M","pid":1,"args":{"name":"engine"}"#));
        // Lanes get distinct tids within their track, shared across
        // span and instant events.
        assert!(trace.contains(
            r#""name":"thread_name","ph":"M","pid":0,"tid":1,"args":{"name":"pcie.h2d"}"#
        ));
        assert!(trace.contains(
            r#""name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"shard 0"}"#
        ));
        assert!(trace.contains(r#""name":"skip","ph":"i","s":"t","pid":1,"tid":1"#));
    }

    #[test]
    fn nested_engine_spans_share_a_lane() {
        // An iteration span and a phase span on the same lane nest by
        // containment (same tid, phase inside iteration window).
        let mut rec = Recorded::default();
        rec.spans
            .push(span("engine", "shard 1", "shard window", 0, 100));
        rec.spans
            .push(span("engine", "shard 1", "gatherMap", 10, 20));
        let trace = chrome_trace(&rec);
        assert!(jsonck::valid(&trace));
        let tid0 = trace.matches("\"tid\":0").count();
        // metadata + both X events all on tid 0 of pid 0.
        assert_eq!(tid0, 3);
    }

    #[test]
    fn wall_track_round_trips_through_the_chrome_exporter() {
        use crate::profiler::{WallKey, WallProfile, WallSample, WALL_ITERATION, WALL_NO_SHARD};
        let mut rec = Recorded::default();
        rec.spans.push(span("sim", "gpu.kernel", "apply", 0, 10));
        rec.spans
            .push(span("engine", "iterations", "iteration 0", 0, 20));
        let wall = WallProfile::from_samples(
            "bfs".into(),
            vec![
                WallSample {
                    key: WallKey {
                        iteration: 0,
                        shard: WALL_NO_SHARD,
                        phase: WALL_ITERATION,
                        shape: "",
                    },
                    start_ns: 1000,
                    dur_ns: 4500,
                    thread: 0,
                },
                WallSample {
                    key: WallKey {
                        iteration: 0,
                        shard: 2,
                        phase: "apply",
                        shape: "sparse",
                    },
                    start_ns: 1500,
                    dur_ns: 2000,
                    thread: 1,
                },
            ],
        );
        let trace = chrome_trace_with_wall(&rec, Some(&wall));
        assert!(jsonck::valid(&trace), "invalid JSON: {trace}");
        // The wall samples land in their own named process, after the
        // existing tracks, with one lane per worker thread.
        assert!(trace.contains(r#""process_name","ph":"M","pid":2,"args":{"name":"wall"}"#));
        assert!(trace.contains(
            r#""name":"thread_name","ph":"M","pid":2,"tid":1,"args":{"name":"thread 1"}"#
        ));
        // Timestamps round-trip ns → µs with three decimals preserved.
        assert!(trace.contains("\"ts\":1.500") && trace.contains("\"dur\":2.000"));
        assert!(trace.contains("\"shape\":\"sparse\""));
        assert!(trace.contains("\"algorithm\":\"bfs\""));
        // None is exactly the plain exporter; the sim/engine events are
        // byte-identical either way.
        let plain = chrome_trace_with_wall(&rec, None);
        assert_eq!(plain, chrome_trace(&rec));
        assert!(!plain.contains("\"wall\""));
        for ev in plain
            .trim_start_matches("{\"traceEvents\":[")
            .trim_end_matches("]}")
            .split("},{")
        {
            assert!(trace.contains(ev), "wall export altered event {ev}");
        }
    }

    #[test]
    fn jsonl_lines_are_individually_valid() {
        let (obs, sink) = Observer::recording();
        obs.span(|| span("engine", "shard 0", "apply", 5, 5));
        obs.decision(|| Decision::ShardSkip {
            iteration: 2,
            shard: 3,
            interval_bits: 128,
            active_bits: 0,
        });
        obs.decision(|| Decision::PhaseFusion {
            phases: "gatherMap+gatherReduce+apply",
            rationale: "intermediates stay on-device",
        });
        obs.decision(|| Decision::MemoryPressure {
            device: 0,
            requested: 4096,
            available: 1024,
            capacity: 2048,
            response: "reduce-concurrency",
            scope: "plan",
        });
        obs.decision(|| Decision::ShardSplit {
            shard: 1,
            vertices: 64,
            bytes: 9000,
        });
        obs.decision(|| Decision::ChunkedXfer {
            shard: 1,
            shard_bytes: 9000,
            chunk_bytes: 1024,
            chunks: 9,
        });
        obs.decision(|| Decision::ShardSpill {
            shard: 1,
            bytes: 9000,
            store: "file",
        });
        obs.decision(|| Decision::ShardLoad {
            iteration: 0,
            shard: 1,
            bytes: 9000,
            store: "file",
        });
        obs.decision(|| Decision::CheckpointWrite {
            iteration: 2,
            bytes: 65536,
        });
        obs.decision(|| Decision::CheckpointRestore {
            iteration: 2,
            bytes: 65536,
        });
        obs.decision(|| Decision::StorageRetry {
            iteration: 1,
            op: "spill.read",
            fault: "io.spill.read",
            shard: 1,
            attempt: 1,
            backoff_ns: 50_000,
        });
        obs.decision(|| Decision::StorageDegraded {
            iteration: 1,
            op: "spill.read",
            shard: 1,
            rationale: "re-stream from source graph",
        });
        obs.decision(|| Decision::CheckpointSkipped {
            iteration: 3,
            rationale: "io.checkpoint.write",
        });
        crate::metric_table! {
            enum T {
                Bytes: Counter("h2d.bytes"),
                Size: Histogram("h2d.size_bytes"),
            }
        }
        let mut m = MetricsRegistry::<T>::new();
        m.inc(T::Bytes, 42);
        m.observe(T::Size, 42);
        obs.snapshot("run", || m.snapshot());
        let rec = sink.recorded();
        let out = jsonl(&rec);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 14);
        for line in &lines {
            assert!(jsonck::valid(line), "invalid JSONL line: {line}");
        }
        assert!(lines[1].contains("\"kind\":\"shard_skip\""));
        assert!(lines[1].contains("\"interval_bits\":128"));
        assert!(lines[3].contains("\"kind\":\"memory_pressure\""));
        assert!(lines[3].contains("\"response\":\"reduce-concurrency\""));
        assert!(lines[4].contains("\"kind\":\"shard_split\""));
        assert!(lines[5].contains("\"kind\":\"chunked_xfer\""));
        assert!(lines[5].contains("\"chunks\":9"));
        assert!(lines[6].contains("\"kind\":\"shard_spill\""));
        assert!(lines[6].contains("\"store\":\"file\""));
        assert!(lines[7].contains("\"kind\":\"shard_load\""));
        assert!(lines[8].contains("\"kind\":\"checkpoint_write\""));
        assert!(lines[8].contains("\"bytes\":65536"));
        assert!(lines[9].contains("\"kind\":\"checkpoint_restore\""));
        assert!(lines[10].contains("\"kind\":\"storage_retry\""));
        assert!(lines[10].contains("\"fault\":\"io.spill.read\""));
        assert!(lines[11].contains("\"kind\":\"storage_degraded\""));
        assert!(lines[11].contains("\"rationale\":\"re-stream from source graph\""));
        assert!(lines[12].contains("\"kind\":\"checkpoint_skipped\""));
        assert!(lines[13].contains("\"scope\":\"run\""));
        assert!(lines[13].contains("\"h2d.bytes\":42"));
        assert!(lines[13].contains("\"buckets\":[[32,1]]"));
    }
}
