//! The metric registry, the per-run report, and the sample statistics.
//!
//! Every number grbench prints is declared here first: its name, unit,
//! direction, whether it is an end-to-end or a per-layer metric, and how
//! `--check` judges it. `BENCHMARK.json` at the repository root mirrors the
//! registry (a unit test holds the two together).

use std::collections::BTreeMap;

/// The four algorithms a graph round runs, in round order.
pub const ALGOS: [&str; 4] = ["bfs", "sssp", "cc", "pagerank"];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Layer {
    /// What a user of the system sees; measured with tracing off.
    EndToEnd,
    /// One layer's share; measured in the separate traced run.
    PerLayer,
}

/// How `--check` judges a metric between two result sets of one seed.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Gate {
    /// A count or a simulated time: must repeat bit for bit.
    Exact,
    /// May worsen by this share of the baseline before it is a regression.
    Bound(f64),
    /// Reported, never gated.
    Info,
}

#[derive(Clone, Debug)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub layer: Layer,
    pub gate: Gate,
}

/// Every metric grbench can report, end-to-end first.
pub fn registry() -> Vec<MetricDef> {
    let mut defs = Vec::new();
    let mut e2e = |name: &str, unit, higher, gate| {
        defs.push(MetricDef {
            name: name.to_string(),
            unit,
            higher_is_better: higher,
            layer: Layer::EndToEnd,
            gate,
        })
    };
    // Wall bounds equal `BENCHMARK.json`'s: the contract's largest, three
    // times the widest spread seen over ten seeds on a quiet machine
    // (README, "Bounds"), because the driver's shared host is noisier.
    // `sim_ms` is exact between two runs of one seed; its `BENCHMARK.json`
    // bound only covers the difference between seeded graphs.
    let wall = Gate::Bound(0.25);
    e2e("setup_s", "s", false, wall);
    e2e("bfs_ms", "ms", false, wall);
    e2e("sssp_ms", "ms", false, wall);
    e2e("mteps", "1e6/s", true, wall);
    e2e("sim_ms", "ms", false, Gate::Exact);
    e2e("peak_rss_mb", "MB", false, Gate::Bound(0.05));

    let mut layer = |name: String, unit, higher, gate| {
        defs.push(MetricDef {
            name,
            unit,
            higher_is_better: higher,
            layer: Layer::PerLayer,
            gate,
        })
    };
    // End-to-end numbers one workload cannot report (the driver wants every
    // end-to-end metric from every workload), kept under their issue names.
    layer("cc_ms".into(), "ms", false, wall);
    layer("pagerank_ms".into(), "ms", false, wall);
    layer("serve_qps".into(), "1/s", true, wall);
    layer("burst_ms_p50".into(), "ms", false, wall);
    layer("burst_ms_p95".into(), "ms", false, wall);
    layer("mixed_qps".into(), "1/s", true, wall);
    layer("failed_frac".into(), "frac", false, Gate::Exact);
    layer("env.threads".into(), "count", true, Gate::Exact);
    layer(
        "env.available_parallelism".into(),
        "count",
        true,
        Gate::Exact,
    );

    for (name, unit) in [
        ("graph.gen_ms", "ms"),
        ("graph.layout_ms", "ms"),
        ("graph.shard_build_ms", "ms"),
        ("graph.compress_build_ms", "ms"),
        ("core.session_new_ms", "ms"),
        ("core.plan_cold_us", "us"),
        ("core.plan_warm_us", "us"),
        ("verify.oracle_ms", "ms"),
    ] {
        layer(name.into(), unit, false, Gate::Info);
    }
    layer(
        "graph.compress_bits_per_edge".into(),
        "bits",
        false,
        Gate::Exact,
    );
    for a in ALGOS {
        for (field, unit) in [
            ("iters", "count"),
            ("gathered_edges", "count"),
            ("sim_ms", "ms"),
            ("xfer_mb", "MB"),
            ("sim_ops", "count"),
            ("shards_skipped", "count"),
        ] {
            layer(format!("q.{a}.{field}"), unit, false, Gate::Exact);
        }
        layer(format!("q.{a}.us_per_iter"), "us", false, Gate::Info);
        layer(format!("verify.fp.{a}"), "count", false, Gate::Exact);
        for phase in ["gather", "apply", "scatter", "activate", "other"] {
            layer(format!("phase.{a}.{phase}_ms"), "ms", false, Gate::Info);
        }
    }
    layer("phase.imbalance".into(), "x", false, Gate::Info);
    layer("phase.workers".into(), "count", true, Gate::Info);
    for (name, unit) in [
        ("kernel.gather_dense_ns_per_edge", "ns"),
        ("kernel.apply_dense_ns_per_vertex", "ns"),
        ("kernel.scatter_dense_ns_per_edge", "ns"),
        ("kernel.activate_dense_ns_per_edge", "ns"),
        ("kernel.apply_sparse_us", "us"),
        ("kernel.activate_sparse_us", "us"),
        ("decode.row_ns_per_edge", "ns"),
        ("decode.raw_row_ns_per_edge", "ns"),
        ("decode.slowdown_x", "x"),
        ("decode.gather_dense_ns_per_edge", "ns"),
        ("decode.raw_round_ms", "ms"),
        ("sim.host_ns_per_op", "ns"),
    ] {
        layer(name.into(), unit, false, Gate::Info);
    }
    layer("sim.probe_sim_ms".into(), "ms", false, Gate::Exact);
    layer("scale.threads".into(), "count", true, Gate::Exact);
    layer("scale.t1_round_ms".into(), "ms", false, Gate::Info);
    layer("scale.tn_round_ms".into(), "ms", false, Gate::Info);
    layer("scale.speedup_x".into(), "x", true, Gate::Info);
    layer("durable.overhead_ms".into(), "ms", false, Gate::Info);
    layer("durable.bytes".into(), "B", false, Gate::Exact);
    layer("durable.delta_bytes".into(), "B", false, Gate::Exact);
    layer("durable.resume_ms".into(), "ms", false, Gate::Info);
    layer("spill.put_mb_s".into(), "MB/s", true, Gate::Info);
    layer("spill.get_mb_s".into(), "MB/s", true, Gate::Info);
    for (name, unit, higher) in [
        ("serve.submit_us_p50", "us", false),
        ("serve.drain_ms_p50", "ms", false),
        ("serve.batch_size_mean", "count", true),
        ("serve.queue_wait_ms_p50", "ms", false),
        ("serve.exec_ms_p50", "ms", false),
        ("serve.gen_lag_ms_p95", "ms", false),
        ("serve.backlog_max", "count", false),
        ("serve.burst_limit_met", "count", true),
        ("serve.sweep_ms.w1", "ms", false),
        ("serve.sweep_ms.w4", "ms", false),
        ("serve.sweep_ms.w16", "ms", false),
        ("serve.sweep_ms.w64", "ms", false),
        ("serve.demux_ms.w64", "ms", false),
        ("serve.standalone_bfs_ms", "ms", false),
    ] {
        layer(name.into(), unit, higher, Gate::Info);
    }
    layer("serve.batches".into(), "count", false, Gate::Info);
    for name in [
        "serve.state_bytes_per_vertex",
        "serve.rejected",
        "serve.deadline_missed",
    ] {
        layer(name.into(), "count", false, Gate::Exact);
    }
    layer("trace.overhead_frac".into(), "frac", false, Gate::Info);
    layer("trace.spans".into(), "count", false, Gate::Info);
    defs
}

// ---------------------------------------------------------------------------
// Sample statistics
// ---------------------------------------------------------------------------

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    v
}

/// Median of a non-empty sample (mean of the two middle values when even).
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (in `(0.5, 1)`), or `None` when fewer than
/// ten samples lie beyond it — a tail read off a handful of samples is a
/// maximum, not a percentile.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    let n = xs.len();
    let rank = (n as f64 * p).ceil() as usize;
    if rank == 0 || n < rank + 10 {
        return None;
    }
    Some(sorted(xs)[rank - 1])
}

/// Distance between the first and third quartile as a share of the median
/// (0 for fewer than four samples, which have no quartiles to speak of).
pub fn iqr_share(xs: &[f64]) -> f64 {
    if xs.len() < 4 {
        return 0.0;
    }
    let v = sorted(xs);
    let q = |p: f64| v[((v.len() - 1) as f64 * p).round() as usize];
    let m = median(xs);
    if m == 0.0 {
        0.0
    } else {
        (q(0.75) - q(0.25)) / m
    }
}

// ---------------------------------------------------------------------------
// The per-run report
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Reading {
    pub value: f64,
    /// Samples behind the value (1 for a single measurement or a count).
    pub samples: usize,
    /// Within-run IQR/median of those samples; `--check` calls a breach
    /// "unresolved" when this is wider than the bound.
    pub spread: f64,
}

/// What one run measured, keyed by registered metric name.
pub struct Report {
    defs: Vec<MetricDef>,
    values: BTreeMap<String, Reading>,
}

impl Report {
    pub fn new() -> Self {
        Report {
            defs: registry(),
            values: BTreeMap::new(),
        }
    }

    fn def(&self, name: &str) -> &MetricDef {
        self.defs
            .iter()
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not in the registry"))
    }

    /// Record a single measurement or a count.
    pub fn set(&mut self, name: &str, value: f64) {
        self.put(name, value, 1, 0.0);
    }

    /// Record the median of `samples` with their count and spread.
    pub fn set_median(&mut self, name: &str, samples: &[f64]) {
        self.put(name, median(samples), samples.len(), iqr_share(samples));
    }

    pub fn put(&mut self, name: &str, value: f64, samples: usize, spread: f64) {
        self.def(name);
        assert!(value.is_finite(), "metric `{name}` is not finite: {value}");
        self.values.insert(
            name.to_string(),
            Reading {
                value,
                samples,
                spread,
            },
        );
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|r| r.value)
    }

    /// The `name value unit` table, registry order, measured metrics only.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for d in &self.defs {
            if let Some(r) = self.values.get(&d.name) {
                let n = if r.samples > 1 {
                    format!("  (n={})", r.samples)
                } else {
                    String::new()
                };
                out.push_str(&format!("{} {} {}{}\n", d.name, r.value, d.unit, n));
            }
        }
        out
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}` for every metric of
    /// `layer`. A per-layer metric the workload does not exercise reads 0
    /// (no work done in that layer); an end-to-end metric must be measured.
    pub fn contract_metrics(&self, layer: Layer) -> String {
        let rows: Vec<String> = self
            .defs
            .iter()
            .filter(|d| d.layer == layer)
            .map(|d| {
                let v = match (self.values.get(&d.name), layer) {
                    (Some(r), _) => r.value,
                    (None, Layer::PerLayer) => 0.0,
                    (None, Layer::EndToEnd) => {
                        panic!("end-to-end metric `{}` was not measured", d.name)
                    }
                };
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    d.name, d.unit
                )
            })
            .collect();
        format!("{{{}}}", rows.join(", "))
    }

    /// Every measured metric with its sample count and spread — the rows
    /// `run.sh` merges into `results.json` and `--check` compares.
    pub fn full_metrics(&self) -> String {
        let rows: Vec<String> = self
            .defs
            .iter()
            .filter_map(|d| self.values.get(&d.name).map(|r| (d, r)))
            .map(|(d, r)| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\", \"samples\": {}, \"spread\": {}}}",
                    d.name, r.value, d.unit, r.samples, r.spread
                )
            })
            .collect();
        format!("{{{}}}", rows.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::Json;

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        let defs = registry();
        let mut seen = std::collections::BTreeSet::new();
        for d in &defs {
            assert!(
                !d.name.is_empty()
                    && d.name.len() <= 64
                    && d.name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "bad metric name {:?}",
                d.name
            );
            assert!(d.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(seen.insert(d.name.clone()), "duplicate metric {}", d.name);
            assert!(d.unit.len() <= 16);
        }
        assert!(defs.iter().filter(|d| d.layer == Layer::EndToEnd).count() <= 16);
        assert!(defs.iter().filter(|d| d.layer == Layer::PerLayer).count() <= 128);
    }

    #[test]
    fn benchmark_json_mirrors_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        for (key, layer) in [
            ("end_to_end", Layer::EndToEnd),
            ("per_layer", Layer::PerLayer),
        ] {
            let listed = doc.get(key).and_then(Json::as_array).expect(key);
            let defs: Vec<MetricDef> = registry()
                .into_iter()
                .filter(|d| d.layer == layer)
                .collect();
            assert_eq!(listed.len(), defs.len(), "{key} length");
            for (j, d) in listed.iter().zip(&defs) {
                assert_eq!(j.get("name").and_then(Json::as_str), Some(d.name.as_str()));
                assert_eq!(j.get("unit").and_then(Json::as_str), Some(d.unit));
                let better = if d.higher_is_better {
                    "higher"
                } else {
                    "lower"
                };
                assert_eq!(j.get("better").and_then(Json::as_str), Some(better));
                let bound = j.get("bound").and_then(Json::as_f64);
                match (layer, d.gate) {
                    (Layer::PerLayer, _) => assert_eq!(bound, None),
                    (Layer::EndToEnd, Gate::Bound(b)) => assert_eq!(bound, Some(b), "{}", d.name),
                    (Layer::EndToEnd, _) => assert!(bound.is_some()),
                }
            }
        }
    }

    #[test]
    fn percentile_refuses_a_thin_tail() {
        let xs: Vec<f64> = (1..=199).map(f64::from).collect();
        // 199 samples: rank ceil(189.05) = 190, only 9 beyond — refused.
        assert_eq!(percentile(&xs, 0.95), None);
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.95), Some(190.0));
        assert_eq!(percentile(&xs[..19], 0.9), None);
        assert_eq!(percentile(&[], 0.95), None);
    }

    #[test]
    fn median_and_spread() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(iqr_share(&[1.0, 2.0, 3.0]), 0.0);
        let s = iqr_share(&[10.0, 10.0, 10.0, 10.0, 20.0]);
        assert_eq!(s, 0.0);
        assert!(iqr_share(&[8.0, 9.0, 10.0, 11.0, 12.0]) > 0.15);
    }

    #[test]
    fn report_prints_zero_for_an_unexercised_layer_only() {
        let mut r = Report::new();
        r.set("serve.batches", 3.0);
        let j = Json::parse(&r.contract_metrics(Layer::PerLayer)).unwrap();
        assert_eq!(
            j.get("serve.batches")
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64(),
            Some(3.0)
        );
        assert_eq!(
            j.get("cc_ms").unwrap().get("value").unwrap().as_f64(),
            Some(0.0)
        );
        let missing = std::panic::catch_unwind(|| Report::new().contract_metrics(Layer::EndToEnd));
        assert!(
            missing.is_err(),
            "an unmeasured end-to-end metric must not print"
        );
    }
}
