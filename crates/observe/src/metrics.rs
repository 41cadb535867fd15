//! Counters and log2-bucket histograms over declared metric tables.
//!
//! Each crate that accounts quantities declares its series once with
//! [`metric_table!`](crate::metric_table): a handle enum plus a row
//! table of `(name, kind)`. A [`MetricsRegistry`] is a plain mutable
//! value holding one slot per row, indexed by handle, so a counter bump
//! is an array add and one crate's handle cannot touch another crate's
//! registry. [`MetricsRegistry::snapshot`] produces the owned,
//! string-keyed view the exporters and tests read.

use std::marker::PhantomData;

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

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Frozen summary plus the non-empty buckets as `(lower_bound,
    /// count)`, ascending; lower bounds run 0, 1, 2, 4, 8…
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets = self.counts.iter().enumerate().filter(|(_, &c)| c > 0);
        HistogramSnapshot {
            count: self.count,
            sum: self.sum,
            min: self.min,
            max: self.max,
            buckets: buckets
                .map(|(i, &c)| (if i == 0 { 0 } else { 1 << (i - 1) }, c))
                .collect(),
        }
    }
}

/// What a declared series records: one monotonic `u64` total, one total
/// per label (a kernel label, a fault op class), or a [`Histogram`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Counter,
    Labeled,
    Histogram,
}

/// A crate's declared metric table: the handle enum that
/// [`metric_table!`](crate::metric_table) emits.
pub trait MetricTable: Copy {
    /// Every series as `(name, kind)`, in handle order.
    const ROWS: &'static [(&'static str, Kind)];

    /// The handle's row in [`MetricTable::ROWS`].
    fn index(self) -> usize;

    /// The declared series name.
    fn name(self) -> &'static str {
        Self::ROWS[self.index()].0
    }
}

/// Declare a crate's metric table once: a handle enum, its
/// `(name, kind)` rows and its [`MetricTable`] impl. Each row reads
/// `Handle: Kind("series.name"),` with `Kind` a [`Kind`] variant.
#[macro_export]
macro_rules! metric_table {
    (
        $(#[$meta:meta])*
        $vis:vis enum $table:ident {
            $($(#[$row_meta:meta])* $handle:ident: $kind:ident($name:literal),)*
        }
    ) => {
        $(#[$meta])*
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        $vis enum $table {
            $($(#[$row_meta])* $handle,)*
        }

        impl $crate::metrics::MetricTable for $table {
            const ROWS: &'static [(&'static str, $crate::metrics::Kind)] =
                &[$(($name, $crate::metrics::Kind::$kind),)*];

            fn index(self) -> usize {
                self as usize
            }
        }
    };
}

/// One slot per row of the table `M`, indexed by handle. A series
/// appears in a snapshot once written, even by 0.
#[derive(Clone, Debug)]
pub struct MetricsRegistry<M> {
    /// `None` until first written.
    counters: Vec<Option<u64>>,
    /// `(label, total)` per labeled row, in first-touch order.
    labeled: Vec<Vec<(&'static str, u64)>>,
    /// Empty (count 0) until first recorded.
    histograms: Vec<Histogram>,
    table: PhantomData<M>,
}

impl<M: MetricTable> Default for MetricsRegistry<M> {
    fn default() -> Self {
        let rows = M::ROWS.len();
        MetricsRegistry {
            counters: vec![None; rows],
            labeled: vec![Vec::new(); rows],
            histograms: vec![Histogram::default(); rows],
            table: PhantomData,
        }
    }
}

impl<M: MetricTable> MetricsRegistry<M> {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn inc(&mut self, m: M, by: u64) {
        debug_assert_eq!(M::ROWS[m.index()].1, Kind::Counter, "{}", m.name());
        *self.counters[m.index()].get_or_insert(0) += by;
    }

    pub fn inc_labeled(&mut self, m: M, label: &'static str, by: u64) {
        self.inc_labeled_each([m], label, [by]);
    }

    /// Add `by[k]` to series `ms[k]` under one `label`, looking the label
    /// up once. Series that are only ever bumped together touch their
    /// labels in the same order, so the slot found in `ms[0]` holds the
    /// label in each of the others; a series where it does not is
    /// searched on its own, so the totals never depend on that.
    pub fn inc_labeled_each<const N: usize>(
        &mut self,
        ms: [M; N],
        label: &'static str,
        by: [u64; N],
    ) {
        let slot = ms
            .first()
            .and_then(|m| find_label(&self.labeled[m.index()], label));
        for (m, by) in ms.into_iter().zip(by) {
            debug_assert_eq!(M::ROWS[m.index()].1, Kind::Labeled, "{}", m.name());
            let series = &mut self.labeled[m.index()];
            let same = |i: usize| {
                series
                    .get(i)
                    .is_some_and(|&(l, _)| std::ptr::eq(l, label) || l == label)
            };
            match slot
                .filter(|&i| same(i))
                .or_else(|| find_label(series, label))
            {
                Some(i) => series[i].1 += by,
                None => series.push((label, by)),
            }
        }
    }

    pub fn observe(&mut self, m: M, v: u64) {
        debug_assert_eq!(M::ROWS[m.index()].1, Kind::Histogram, "{}", m.name());
        self.histograms[m.index()].record(v);
    }

    pub fn counter(&self, m: M) -> u64 {
        self.counters[m.index()].unwrap_or(0)
    }

    /// Owned, exporter-friendly view of every written series, sorted by
    /// `(name, label)`; a labeled series renders as `name{label}`.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut counters: Vec<(&str, &str, u64)> = Vec::new();
        let mut histograms: Vec<(&str, &Histogram)> = Vec::new();
        for (i, &(name, _)) in M::ROWS.iter().enumerate() {
            counters.extend(self.counters[i].map(|v| (name, "", v)));
            counters.extend(self.labeled[i].iter().map(|&(label, v)| (name, label, v)));
            if self.histograms[i].count > 0 {
                histograms.push((name, &self.histograms[i]));
            }
        }
        counters.sort_unstable();
        histograms.sort_unstable_by_key(|&(name, _)| name);
        MetricsSnapshot {
            counters: counters
                .into_iter()
                .map(|(name, label, v)| match label {
                    "" => (name.to_string(), v),
                    _ => (format!("{name}{{{label}}}"), v),
                })
                .collect(),
            histograms: histograms
                .into_iter()
                .map(|(name, h)| (name.to_string(), h.snapshot()))
                .collect(),
        }
    }
}

/// Where `label` sits in a labeled series. Labels are `'static` literals,
/// so a call site usually passes the very slice it passed before: compare
/// addresses first, text only when no entry shares the address.
fn find_label(series: &[(&'static str, u64)], label: &str) -> Option<usize> {
    match series.iter().position(|&(l, _)| std::ptr::eq(l, label)) {
        Some(i) => Some(i),
        None => series.iter().position(|&(l, _)| l == label),
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
        let s = h.snapshot();
        assert_eq!(s.count, 7);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, u64::MAX);
        let buckets = s.buckets;
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

    crate::metric_table! {
        enum T {
            Bytes: Counter("h2d.bytes"),
            Ops: Counter("ops"),
            TimeNs: Labeled("kernel.time_ns"),
            Count: Labeled("kernel.count"),
            Size: Histogram("size"),
        }
    }

    #[test]
    fn registry_counters_and_labels() {
        let mut m = MetricsRegistry::<T>::new();
        m.inc(T::Bytes, 100);
        m.inc(T::Bytes, 50);
        m.inc_labeled(T::TimeNs, "scatter", 3);
        m.inc_labeled(T::TimeNs, "apply", 7);
        assert_eq!(m.counter(T::Bytes), 150);
        assert_eq!(m.counter(T::Ops), 0);
        let s = m.snapshot();
        // Unwritten series are absent; labels sort by content.
        assert_eq!(
            s.counters,
            vec![
                ("h2d.bytes".to_string(), 150),
                ("kernel.time_ns{apply}".to_string(), 7),
                ("kernel.time_ns{scatter}".to_string(), 3),
            ]
        );
        assert!(s.histograms.is_empty());
    }

    #[test]
    fn snapshot_renders_labels_and_reads_back() {
        let mut m = MetricsRegistry::<T>::new();
        m.inc(T::Ops, 0);
        let label = String::from("apply");
        m.inc_labeled(T::TimeNs, "apply", 1);
        m.inc_labeled(T::TimeNs, label.leak(), 2);
        m.observe(T::Size, 4096);
        let s = m.snapshot();
        assert_eq!(s.counter("ops"), 0);
        assert_eq!(s.counters[0].0, "kernel.time_ns{apply}");
        assert_eq!(s.counter("kernel.time_ns{apply}"), 3);
        assert_eq!(s.counters.len(), 2);
        assert_eq!(s.histograms[0].0, "size");
        assert_eq!(s.histograms[0].1.buckets, vec![(4096, 1)]);
        assert_eq!(T::Size.name(), "size");
    }

    #[test]
    fn series_bumped_together_match_their_one_by_one_totals() {
        let mut each = MetricsRegistry::<T>::new();
        let mut one = MetricsRegistry::<T>::new();
        // `Count` takes a label alone first, so its slots sit one off
        // from `TimeNs`'s and the shared lookup must miss and search.
        each.inc_labeled(T::Count, "solo", 9);
        one.inc_labeled(T::Count, "solo", 9);
        let label: &'static str = "in.topo";
        for (l, by) in [("apply", 1), (label, 2), (&label[..2], 3), ("apply", 4)] {
            each.inc_labeled_each([T::TimeNs, T::Count], l, [10 * by, by]);
            one.inc_labeled(T::TimeNs, l, 10 * by);
            one.inc_labeled(T::Count, l, by);
        }
        let s = each.snapshot();
        assert_eq!(s, one.snapshot());
        assert_eq!(s.counter("kernel.count{apply}"), 5);
        assert_eq!(s.counter("kernel.time_ns{in}"), 30);
        assert_eq!(s.counter("kernel.count{in.topo}"), 2);
    }

    #[test]
    fn labels_sharing_an_address_differ_by_length() {
        let mut m = MetricsRegistry::<T>::new();
        let long: &'static str = "in.topo";
        m.inc_labeled(T::TimeNs, long, 1);
        m.inc_labeled(T::TimeNs, &long[..2], 2);
        m.inc_labeled(T::TimeNs, long, 4);
        let s = m.snapshot();
        assert_eq!(s.counter("kernel.time_ns{in.topo}"), 5);
        assert_eq!(s.counter("kernel.time_ns{in}"), 2);
    }
}
