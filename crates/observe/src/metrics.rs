//! Counters, gauges, and log2-bucket histograms.
//!
//! A [`MetricsRegistry`] is a plain mutable value (no interior
//! mutability): each component that accounts quantities owns one, and
//! the fact that names are `&'static str` keeps the hot-path cost at
//! a `BTreeMap` probe on a short key. [`MetricsRegistry::snapshot`]
//! produces an owned, exporter-friendly view.

use std::collections::BTreeMap;

/// (metric name, label) — `""` label means the unlabeled series.
type Key = (&'static str, &'static str);

/// Power-of-two bucket histogram for sizes and durations. Bucket `i`
/// counts values `v` with `floor(log2(v)) == i - 1` (bucket 0 counts
/// zeros), so 65 buckets cover the full `u64` range.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

impl Histogram {
    pub fn record(&mut self, v: u64) {
        if self.counts.is_empty() {
            self.counts = vec![0; 65];
        }
        self.counts[bucket_index(v)] += 1;
        if self.count == 0 || v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn sum(&self) -> u64 {
        self.sum
    }

    pub fn min(&self) -> u64 {
        self.min
    }

    pub fn max(&self) -> u64 {
        self.max
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Lower bound of the bucket a value falls into (0, 1, 2, 4, 8…).
    pub fn bucket_lower_bound(i: usize) -> u64 {
        if i == 0 {
            0
        } else {
            1u64 << (i - 1)
        }
    }

    /// Non-empty buckets as `(lower_bound, count)`, ascending.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (Self::bucket_lower_bound(i), c))
            .collect()
    }
}

/// Owned registry of named series. Labeled counters (e.g. per-kernel
/// time keyed by kernel label) live under the same name with a
/// non-empty label.
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<Key, u64>,
    gauges: BTreeMap<Key, f64>,
    histograms: BTreeMap<Key, Histogram>,
}

impl MetricsRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn inc(&mut self, name: &'static str, by: u64) {
        *self.counters.entry((name, "")).or_insert(0) += by;
    }

    pub fn inc_labeled(&mut self, name: &'static str, label: &'static str, by: u64) {
        *self.counters.entry((name, label)).or_insert(0) += by;
    }

    pub fn set_gauge(&mut self, name: &'static str, v: f64) {
        self.gauges.insert((name, ""), v);
    }

    pub fn observe(&mut self, name: &'static str, v: u64) {
        self.histograms.entry((name, "")).or_default().record(v);
    }

    pub fn counter(&self, name: &'static str) -> u64 {
        self.counters.get(&(name, "")).copied().unwrap_or(0)
    }

    pub fn gauge(&self, name: &'static str) -> Option<f64> {
        self.gauges.get(&(name, "")).copied()
    }

    pub fn histogram(&self, name: &'static str) -> Option<&Histogram> {
        self.histograms.get(&(name, ""))
    }

    /// Owned, exporter-friendly view of every series.
    pub fn snapshot(&self) -> MetricsSnapshot {
        fn render((name, label): &Key) -> String {
            if label.is_empty() {
                (*name).to_string()
            } else {
                format!("{name}{{{label}}}")
            }
        }
        MetricsSnapshot {
            counters: self.counters.iter().map(|(k, &v)| (render(k), v)).collect(),
            gauges: self.gauges.iter().map(|(k, &v)| (render(k), v)).collect(),
            histograms: self
                .histograms
                .iter()
                .map(|(k, h)| {
                    (
                        render(k),
                        HistogramSnapshot {
                            count: h.count(),
                            sum: h.sum(),
                            min: h.min(),
                            max: h.max(),
                            buckets: h.nonzero_buckets(),
                        },
                    )
                })
                .collect(),
        }
    }
}

/// Frozen histogram for snapshots: summary stats plus non-empty
/// `(bucket_lower_bound, count)` pairs.
#[derive(Clone, Debug, PartialEq)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
    pub buckets: Vec<(u64, u64)>,
}

/// Owned point-in-time view of a registry, sorted by series name.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, f64)>,
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_log2() {
        let mut h = Histogram::default();
        for v in [0, 1, 2, 3, 4, 1024, u64::MAX] {
            h.record(v);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), u64::MAX);
        let buckets = h.nonzero_buckets();
        // 0 → bucket 0; 1 → [1,2); 2,3 → [2,4); 4 → [4,8); 1024; MAX.
        assert_eq!(
            buckets,
            vec![(0, 1), (1, 1), (2, 2), (4, 1), (1024, 1), (1 << 63, 1)]
        );
    }

    #[test]
    fn histogram_mean_of_empty_is_zero() {
        assert_eq!(Histogram::default().mean(), 0.0);
    }

    #[test]
    fn registry_counters_and_labels() {
        let mut m = MetricsRegistry::new();
        m.inc("h2d.bytes", 100);
        m.inc("h2d.bytes", 50);
        m.inc_labeled("kernel.time_ns", "apply", 7);
        m.inc_labeled("kernel.time_ns", "scatter", 3);
        assert_eq!(m.counter("h2d.bytes"), 150);
        assert_eq!(m.counter("missing"), 0);
        // Labeled series are separate from the unlabeled one.
        assert_eq!(m.counter("kernel.time_ns"), 0);
        let s = m.snapshot();
        assert_eq!(s.counter("kernel.time_ns{apply}"), 7);
        assert_eq!(s.counter("kernel.time_ns{scatter}"), 3);
    }

    #[test]
    fn snapshot_renders_labels_and_reads_back() {
        let mut m = MetricsRegistry::new();
        m.inc("ops", 2);
        m.inc_labeled("ops", "h2d", 1);
        m.set_gauge("occupancy", 0.5);
        m.observe("size", 4096);
        let s = m.snapshot();
        assert_eq!(s.counter("ops"), 2);
        assert_eq!(s.counter("ops{h2d}"), 1);
        assert_eq!(s.gauges, vec![("occupancy".to_string(), 0.5)]);
        assert_eq!(s.histograms[0].0, "size");
        assert_eq!(s.histograms[0].1.buckets, vec![(4096, 1)]);
    }
}
