//! Wall-clock profiling: the *real*-time counterpart of the virtual
//! timeline everything else in this crate records.
//!
//! [`WallProfiler`] is a scoped profiler with the same zero-cost-when-off
//! contract as [`Observer`](crate::Observer): disarmed (the default), a
//! [`WallProfiler::scope`] call is one branch on an `Option` — the key
//! closure never runs, no clock is read, nothing allocates (asserted by
//! the `tests/overhead.rs` guard). Armed, each scope records one
//! [`WallSample`] keyed by (iteration, shard, GAS phase, kernel shape)
//! plus the worker thread it ran on; [`WallProfiler::profile`] aggregates
//! the samples into a [`WallProfile`] — self/total wall time per key,
//! per-phase totals, per-thread busy time, and an imbalance ratio across
//! the shards of each phase.
//!
//! Timestamps are **real nanoseconds** since the profiler was armed, not
//! virtual simulator time; [`WallProfile::to_span_events`] exports them
//! on the dedicated `"wall"` track so the Chrome/Perfetto exporter keeps
//! the two clocks in visibly separate process groups.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use crate::event::{FieldValue, SpanEvent};

/// `shard` value for scopes not tied to one shard (whole-run setup,
/// whole-iteration windows).
pub const WALL_NO_SHARD: u32 = u32::MAX;

/// The pseudo-phase wrapping one whole BSP iteration's host work; every
/// other phase label is a leaf under it.
pub const WALL_ITERATION: &str = "iteration";

/// Canonical GAS leaf-phase order for per-phase rollups.
pub const WALL_PHASES: [&str; 4] = ["gather", "apply", "scatter", "activate"];

/// Attribution key of one scope: where in the run the time went.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct WallKey {
    pub iteration: u32,
    /// Shard index, or [`WALL_NO_SHARD`] for non-shard scopes.
    pub shard: u32,
    /// GAS phase (`"gather"`, `"apply"`, …), [`WALL_ITERATION`], or a
    /// caller-defined label like `"setup"`.
    pub phase: &'static str,
    /// Kernel shape that executed (`"dense"`/`"sparse"`), or `""` when
    /// shapes don't apply.
    pub shape: &'static str,
}

/// One recorded scope: a real-time interval attributed to a [`WallKey`]
/// and the worker thread that ran it.
#[derive(Clone, Copy, Debug)]
pub struct WallSample {
    pub key: WallKey,
    /// Real nanoseconds since the profiler was armed.
    pub start_ns: u64,
    pub dur_ns: u64,
    /// Dense worker ordinal (0 = first thread that recorded; the scoped
    /// threads of the shard fan-out reuse low ordinals as they come and
    /// go).
    pub thread: u32,
}

// Worker-thread ordinals: a global free-list so the ephemeral scoped
// threads the engine spawns (one per extra run of each shard fan-out)
// reuse low slot numbers instead of growing an unbounded id space. A
// thread leases an ordinal on its first sample and returns it when the
// thread exits.
static ORDINAL_FREE: Mutex<Vec<u32>> = Mutex::new(Vec::new());
static ORDINAL_NEXT: AtomicU32 = AtomicU32::new(0);

struct OrdinalLease(u32);

impl Drop for OrdinalLease {
    fn drop(&mut self) {
        ORDINAL_FREE
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(self.0);
    }
}

thread_local! {
    static ORDINAL: OrdinalLease = OrdinalLease(
        ORDINAL_FREE
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop()
            .unwrap_or_else(|| ORDINAL_NEXT.fetch_add(1, Ordering::Relaxed)),
    );
}

fn thread_ordinal() -> u32 {
    ORDINAL.with(|l| l.0)
}

struct Inner {
    epoch: Instant,
    algorithm: Mutex<&'static str>,
    samples: Mutex<Vec<WallSample>>,
}

/// Cheap, cloneable scoped wall-clock profiler handle. Disarmed by
/// default; clones share the armed sample store like [`crate::Observer`] clones
/// share a sink.
#[derive(Clone, Default)]
pub struct WallProfiler {
    inner: Option<Arc<Inner>>,
}

impl fmt::Debug for WallProfiler {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.inner {
            None => write!(f, "WallProfiler(disarmed)"),
            Some(_) => write!(f, "WallProfiler(armed, {} samples)", self.sample_count()),
        }
    }
}

impl WallProfiler {
    /// The no-op profiler (same as `WallProfiler::default()`).
    pub fn disarmed() -> Self {
        WallProfiler { inner: None }
    }

    /// An armed profiler; real time is measured from this call.
    pub fn armed() -> Self {
        WallProfiler {
            inner: Some(Arc::new(Inner {
                epoch: Instant::now(),
                algorithm: Mutex::new(""),
                samples: Mutex::new(Vec::new()),
            })),
        }
    }

    pub fn is_armed(&self) -> bool {
        self.inner.is_some()
    }

    /// Record which algorithm the samples belong to (the engine calls
    /// this once at run start). No-op when disarmed.
    pub fn set_algorithm(&self, name: &'static str) {
        if let Some(inner) = &self.inner {
            *inner
                .algorithm
                .lock()
                .unwrap_or_else(PoisonError::into_inner) = name;
        }
    }

    /// Open a scope; the interval from this call to the guard's drop is
    /// recorded under `key`. Disarmed, the closure never runs and no
    /// clock is read — the cost is one branch.
    #[inline]
    pub fn scope(&self, key: impl FnOnce() -> WallKey) -> WallScope<'_> {
        match &self.inner {
            None => WallScope { live: None },
            Some(inner) => WallScope {
                live: Some((inner.as_ref(), key(), Instant::now())),
            },
        }
    }

    /// Samples recorded so far (0 when disarmed).
    pub fn sample_count(&self) -> usize {
        self.inner.as_ref().map_or(0, |i| {
            i.samples
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .len()
        })
    }

    /// Drop all recorded samples (e.g. between benchmark trials).
    pub fn reset(&self) {
        if let Some(inner) = &self.inner {
            inner
                .samples
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .clear();
        }
    }

    /// Aggregate everything recorded so far. Empty when disarmed.
    pub fn profile(&self) -> WallProfile {
        match &self.inner {
            None => WallProfile::default(),
            Some(inner) => {
                let algorithm = inner
                    .algorithm
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .to_string();
                let samples = inner
                    .samples
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .clone();
                WallProfile::from_samples(algorithm, samples)
            }
        }
    }
}

/// RAII guard returned by [`WallProfiler::scope`]; records one sample on
/// drop when armed.
pub struct WallScope<'p> {
    live: Option<(&'p Inner, WallKey, Instant)>,
}

impl Drop for WallScope<'_> {
    fn drop(&mut self) {
        if let Some((inner, key, started)) = self.live.take() {
            let dur_ns = started.elapsed().as_nanos() as u64;
            let start_ns = started.duration_since(inner.epoch).as_nanos() as u64;
            let sample = WallSample {
                key,
                start_ns,
                dur_ns,
                thread: thread_ordinal(),
            };
            inner
                .samples
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(sample);
        }
    }
}

/// One aggregated profile-tree row: all samples sharing a [`WallKey`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WallRow {
    pub key: WallKey,
    /// Scopes merged into this row.
    pub count: u64,
    /// Summed wall time of this row's own scopes (self time; totals are
    /// rollups over rows — see [`WallProfile::phase_totals`]).
    pub self_ns: u64,
}

/// Aggregated wall-clock profile of one run (or one profiler lifetime).
#[derive(Clone, Debug, Default)]
pub struct WallProfile {
    pub algorithm: String,
    /// Profile tree in key order: iteration → shard → phase → shape.
    pub rows: Vec<WallRow>,
    /// Raw samples in recording order, worker ordinals renumbered dense
    /// (0..thread_count) in order of first appearance.
    pub samples: Vec<WallSample>,
    /// Busy nanoseconds per dense worker ordinal, from leaf samples.
    pub thread_busy_ns: Vec<u64>,
}

impl WallProfile {
    /// Aggregate raw samples (exposed so tests and external harnesses can
    /// build profiles without an armed profiler).
    pub fn from_samples(algorithm: String, mut samples: Vec<WallSample>) -> Self {
        // Renumber worker ordinals dense in order of first appearance so
        // profiles are independent of what else ran in this process.
        let mut dense: BTreeMap<u32, u32> = BTreeMap::new();
        for s in samples.iter_mut() {
            let next = dense.len() as u32;
            s.thread = *dense.entry(s.thread).or_insert(next);
        }
        let mut thread_busy_ns = vec![0u64; dense.len()];
        let mut rows: BTreeMap<WallKey, WallRow> = BTreeMap::new();
        for s in &samples {
            if s.key.phase != WALL_ITERATION {
                thread_busy_ns[s.thread as usize] += s.dur_ns;
            }
            let row = rows.entry(s.key).or_insert(WallRow {
                key: s.key,
                count: 0,
                self_ns: 0,
            });
            row.count += 1;
            row.self_ns += s.dur_ns;
        }
        WallProfile {
            algorithm,
            rows: rows.into_values().collect(),
            samples,
            thread_busy_ns,
        }
    }

    /// Total host wall time: the iteration windows when present (they
    /// include merge/bookkeeping time between phases), else all leaves.
    pub fn total_ns(&self) -> u64 {
        let iter_total: u64 = self
            .rows
            .iter()
            .filter(|r| r.key.phase == WALL_ITERATION)
            .map(|r| r.self_ns)
            .sum();
        if iter_total > 0 {
            iter_total
        } else {
            self.kernel_ns()
        }
    }

    /// Summed wall time of the GAS leaf phases (host kernel time proper).
    pub fn kernel_ns(&self) -> u64 {
        self.rows
            .iter()
            .filter(|r| r.key.phase != WALL_ITERATION)
            .map(|r| r.self_ns)
            .sum()
    }

    /// Per-phase wall totals in [`WALL_PHASES`] order, then any other
    /// leaf phases (e.g. `"setup"`) in key order.
    pub fn phase_totals(&self) -> Vec<(&'static str, u64)> {
        let mut totals: Vec<(&'static str, u64)> = WALL_PHASES.iter().map(|&p| (p, 0u64)).collect();
        for r in &self.rows {
            if r.key.phase == WALL_ITERATION {
                continue;
            }
            match totals.iter_mut().find(|(p, _)| *p == r.key.phase) {
                Some(slot) => slot.1 += r.self_ns,
                None => totals.push((r.key.phase, r.self_ns)),
            }
        }
        totals
    }

    /// Distinct worker threads that recorded leaf samples: 1 when every
    /// phase ran inline on the caller, more once the shard fan-out
    /// engaged.
    pub fn thread_count(&self) -> usize {
        self.thread_busy_ns.iter().filter(|&&b| b > 0).count()
    }

    /// Load-imbalance ratio across shards: within each (iteration, phase)
    /// group that touched ≥ 2 shards, the slowest shard's time over the
    /// mean shard time (1.0 = perfectly balanced); groups are combined
    /// weighted by their total time. It measures shard skew whether the
    /// phase fanned out or ran inline (a fanned-out run holds several
    /// shards, so it is not the skew between threads). 1.0 when no group
    /// has two shards (single-shard runs).
    pub fn imbalance(&self) -> f64 {
        let mut groups: BTreeMap<(u32, &'static str), BTreeMap<u32, u64>> = BTreeMap::new();
        for r in &self.rows {
            if r.key.phase == WALL_ITERATION || r.key.shard == WALL_NO_SHARD {
                continue;
            }
            *groups
                .entry((r.key.iteration, r.key.phase))
                .or_default()
                .entry(r.key.shard)
                .or_insert(0) += r.self_ns;
        }
        let mut weighted = 0.0f64;
        let mut weight = 0.0f64;
        for shard_ns in groups.values() {
            if shard_ns.len() < 2 {
                continue;
            }
            let total: u64 = shard_ns.values().sum();
            if total == 0 {
                continue;
            }
            let max = *shard_ns.values().max().expect("non-empty") as f64;
            let mean = total as f64 / shard_ns.len() as f64;
            weighted += total as f64 * (max / mean);
            weight += total as f64;
        }
        if weight > 0.0 {
            weighted / weight
        } else {
            1.0
        }
    }

    /// The compact summary embedded in `RunStats` / the run report.
    /// An empty profile summarizes to `WallSummary::default()`.
    pub fn summary(&self) -> WallSummary {
        if self.rows.is_empty() {
            return WallSummary::default();
        }
        WallSummary {
            total_ns: self.total_ns(),
            kernel_ns: self.kernel_ns(),
            phases: self.phase_totals(),
            threads: self.thread_count().max(1),
            imbalance: self.imbalance(),
        }
    }

    /// Export the raw samples as spans on the `"wall"` track (lane per
    /// worker thread), ready for [`crate::export::chrome_trace`] — wall
    /// time loads as its own process group beside the virtual tracks.
    pub fn to_span_events(&self) -> Vec<SpanEvent> {
        self.samples
            .iter()
            .map(|s| SpanEvent {
                track: "wall",
                lane: format!("thread {}", s.thread),
                name: if s.key.phase == WALL_ITERATION {
                    format!("iteration {}", s.key.iteration)
                } else {
                    s.key.phase.to_string()
                },
                start_ns: s.start_ns,
                dur_ns: s.dur_ns,
                fields: {
                    let mut f: Vec<(&'static str, FieldValue)> = vec![
                        ("iteration", s.key.iteration.into()),
                        ("algorithm", FieldValue::Str(self.algorithm.clone())),
                    ];
                    if s.key.shard != WALL_NO_SHARD {
                        f.push(("shard", s.key.shard.into()));
                    }
                    if !s.key.shape.is_empty() {
                        f.push(("shape", s.key.shape.into()));
                    }
                    f
                },
            })
            .collect()
    }
}

/// Compact wall-clock rollup of one run: what `RunStats` carries and the
/// run report's `wall` section serializes.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WallSummary {
    /// Total real host time (iteration windows, incl. merges).
    pub total_ns: u64,
    /// Real time inside the GAS phase kernels proper.
    pub kernel_ns: u64,
    /// Per-phase wall totals ([`WALL_PHASES`] first, extras after).
    pub phases: Vec<(&'static str, u64)>,
    /// Worker threads that did leaf work.
    pub threads: usize,
    /// Across-shard fan-out imbalance ratio (1.0 = balanced).
    pub imbalance: f64,
}

impl fmt::Display for WallSummary {
    /// The one-line human rollup (`RunStats`' `host wall:` line and the
    /// multi-GPU CLI both print this): totals, worker count, imbalance,
    /// then every nonzero phase.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.3} ms total ({:.3} ms in kernels) | {} threads, imbalance {:.2}",
            self.total_ns as f64 / 1e6,
            self.kernel_ns as f64 / 1e6,
            self.threads,
            self.imbalance
        )?;
        for (phase, ns) in &self.phases {
            if *ns > 0 {
                write!(f, " | {phase} {:.3} ms", *ns as f64 / 1e6)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(iteration: u32, shard: u32, phase: &'static str, shape: &'static str) -> WallKey {
        WallKey {
            iteration,
            shard,
            phase,
            shape,
        }
    }

    fn sample(k: WallKey, start_ns: u64, dur_ns: u64, thread: u32) -> WallSample {
        WallSample {
            key: k,
            start_ns,
            dur_ns,
            thread,
        }
    }

    #[test]
    fn disarmed_scope_never_builds_keys() {
        let p = WallProfiler::disarmed();
        assert!(!p.is_armed());
        // The key closure must not run: disarmed cost is one branch.
        let _s = p.scope(|| unreachable!("key built on disarmed profiler"));
        drop(_s);
        assert_eq!(p.sample_count(), 0);
        assert_eq!(p.profile().rows.len(), 0);
        assert_eq!(p.profile().summary(), WallSummary::default());
    }

    #[test]
    fn armed_scopes_record_and_aggregate() {
        let p = WallProfiler::armed();
        p.set_algorithm("bfs");
        for _ in 0..3 {
            let s = p.scope(|| key(0, 1, "apply", "dense"));
            // Spin until the clock visibly advances so dur_ns > 0.
            let t = Instant::now();
            while t.elapsed().as_nanos() == 0 {
                std::hint::spin_loop();
            }
            drop(s);
        }
        {
            let _s = p.scope(|| key(0, WALL_NO_SHARD, WALL_ITERATION, ""));
        }
        assert_eq!(p.sample_count(), 4);
        let prof = p.profile();
        assert_eq!(prof.algorithm, "bfs");
        let apply = prof
            .rows
            .iter()
            .find(|r| r.key.phase == "apply")
            .expect("apply row");
        assert_eq!(apply.count, 3);
        assert!(apply.self_ns > 0);
        assert_eq!(apply.key.shape, "dense");
        assert!(prof.kernel_ns() >= apply.self_ns);
        // Clones share the store; reset drains it.
        let clone = p.clone();
        clone.reset();
        assert_eq!(p.sample_count(), 0);
    }

    #[test]
    fn worker_ordinals_renumber_dense_per_profile() {
        // Raw ordinals 7 and 42 (as if leased in a busy process) come out
        // dense as 0 and 1, first-appearance order.
        let prof = WallProfile::from_samples(
            "x".into(),
            vec![
                sample(key(0, 0, "gather", "sparse"), 0, 10, 42),
                sample(key(0, 1, "gather", "sparse"), 0, 30, 7),
                sample(key(1, 0, "apply", "dense"), 50, 5, 42),
            ],
        );
        assert_eq!(
            prof.samples.iter().map(|s| s.thread).collect::<Vec<_>>(),
            vec![0, 1, 0]
        );
        assert_eq!(prof.thread_busy_ns, vec![15, 30]);
        assert_eq!(prof.thread_count(), 2);
    }

    #[test]
    fn threads_actually_running_get_distinct_ordinals() {
        let p = WallProfiler::armed();
        // The barrier keeps both workers (and so both ordinal leases)
        // alive at once — sequential short-lived threads legitimately
        // reuse one slot via the free-list.
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for shard in 0..2u32 {
                let p = p.clone();
                let barrier = &barrier;
                s.spawn(move || {
                    let w = p.scope(|| key(0, shard, "gather", "dense"));
                    drop(w);
                    barrier.wait();
                });
            }
        });
        let prof = p.profile();
        assert_eq!(prof.samples.len(), 2);
        assert_eq!(prof.thread_count(), 2, "concurrent workers share no slot");
    }

    #[test]
    fn totals_and_phase_rollup() {
        let prof = WallProfile::from_samples(
            "pr".into(),
            vec![
                sample(key(0, 0, "gather", "dense"), 0, 40, 0),
                sample(key(0, 0, "apply", "dense"), 40, 30, 0),
                sample(key(0, 0, "scatter", "serial"), 70, 10, 0),
                sample(key(0, 0, "activate", "sparse"), 80, 15, 0),
                sample(key(0, WALL_NO_SHARD, WALL_ITERATION, ""), 0, 100, 0),
            ],
        );
        // Total prefers the iteration window (includes merge gaps).
        assert_eq!(prof.total_ns(), 100);
        assert_eq!(prof.kernel_ns(), 95);
        let phases = prof.phase_totals();
        assert_eq!(
            phases,
            vec![
                ("gather", 40),
                ("apply", 30),
                ("scatter", 10),
                ("activate", 15)
            ]
        );
        let sum = prof.summary();
        assert_eq!(sum.total_ns, 100);
        assert_eq!(sum.kernel_ns, 95);
        assert_eq!(sum.threads, 1);
    }

    #[test]
    fn imbalance_reflects_shard_skew() {
        // Perfectly balanced fan-out: ratio 1.0.
        let balanced = WallProfile::from_samples(
            "x".into(),
            vec![
                sample(key(0, 0, "gather", "dense"), 0, 50, 0),
                sample(key(0, 1, "gather", "dense"), 0, 50, 1),
            ],
        );
        assert!((balanced.imbalance() - 1.0).abs() < 1e-12);
        // One straggler: max 90 over mean 50 → 1.8.
        let skewed = WallProfile::from_samples(
            "x".into(),
            vec![
                sample(key(0, 0, "gather", "dense"), 0, 90, 0),
                sample(key(0, 1, "gather", "dense"), 0, 10, 1),
            ],
        );
        assert!((skewed.imbalance() - 1.8).abs() < 1e-12);
        // Single-shard runs have no fan-out to be imbalanced.
        let single = WallProfile::from_samples(
            "x".into(),
            vec![sample(key(0, 0, "gather", "dense"), 0, 90, 0)],
        );
        assert!((single.imbalance() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn span_export_targets_the_wall_track() {
        let prof = WallProfile::from_samples(
            "cc".into(),
            vec![
                sample(key(2, 3, "apply", "sparse"), 100, 25, 0),
                sample(key(2, WALL_NO_SHARD, WALL_ITERATION, ""), 90, 60, 0),
            ],
        );
        let spans = prof.to_span_events();
        assert_eq!(spans.len(), 2);
        assert!(spans.iter().all(|s| s.track == "wall"));
        let leaf = &spans[0];
        assert_eq!(leaf.name, "apply");
        assert_eq!(leaf.lane, "thread 0");
        assert_eq!(leaf.start_ns, 100);
        assert_eq!(leaf.dur_ns, 25);
        assert!(leaf
            .fields
            .iter()
            .any(|(k, v)| *k == "shape" && *v == FieldValue::Str("sparse".into())));
        let iter = &spans[1];
        assert_eq!(iter.name, "iteration 2");
        assert!(!iter.fields.iter().any(|(k, _)| *k == "shard"));
    }
}
