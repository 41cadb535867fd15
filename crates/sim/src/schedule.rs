//! The discrete-event scheduler at the heart of the virtual accelerator.
//!
//! Work is described as a DAG of *operations*. Each op names:
//!
//! * its dependencies (ops that must finish first — stream predecessors,
//!   issue ops, recorded events),
//! * the *resource* it occupies (a hardware queue, the H2D or D2H copy
//!   engine, a kernel slot), and
//! * its duration, computed by a cost model before submission.
//!
//! Resources have finite capacity; an op holds one capacity slot for its
//! whole duration. Scheduling is event-driven, earliest-ready-first with a
//! deterministic tie-break on submission order, which mirrors how GPU
//! hardware queues drain: whichever queued op's dependencies resolve first
//! is dispatched first, and a full resource delays dispatch.
//!
//! Submission is incremental: clients add ops as the host program runs and
//! call [`Scheduler::flush`] at synchronization points. Dependencies may only
//! reference previously submitted ops (streams are in-order; events are
//! recorded before they are waited on), so each flush schedules a closed
//! batch against the persistent resource state.
//!
//! Records retire at the next flush. A flushed batch's records (resource,
//! duration, label) stay readable through [`Scheduler::last_batch`] until
//! the following flush, which is when a device emits them as trace spans; after that, only a 16-byte
//! `(start, finish)` record per op remains ([`Scheduler::window`]), which
//! is all a later dependency, an event or an op window needs. Pricing an
//! op allocates nothing in steady state: dependencies go into one arena,
//! and the flush scratch (in-degrees, ready times, the dependents' CSR and
//! the ready heap) is reused from flush to flush.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::{SimDuration, SimTime};

/// Handle to a submitted operation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct OpId(pub(crate) u32);

impl OpId {
    /// Raw index (stable across a scheduler's lifetime).
    pub fn index(self) -> u32 {
        self.0
    }
}

/// Handle to a registered resource.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ResourceId(pub(crate) u32);

impl ResourceId {
    /// Raw index (stable across a scheduler's lifetime).
    pub fn index(self) -> u32 {
        self.0
    }
}

/// Capacity of a resource: how many ops can occupy it simultaneously.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Capacity {
    /// At most `n` concurrent ops (`n >= 1`).
    Finite(u32),
    /// Unbounded concurrency (used for pure synchronization pseudo-ops).
    Infinite,
}

struct ResourceState {
    name: String,
    capacity: Capacity,
    /// Free-at times of the busiest `capacity` slots (min-heap).
    /// Empty/unused for infinite resources.
    slots: BinaryHeap<Reverse<u64>>,
    /// Total busy time accumulated on this resource.
    busy: SimDuration,
}

/// The record of a live operation: pending, or in the last flushed batch
/// (see [`Scheduler::last_batch`]).
#[derive(Clone, Copy, Debug)]
pub struct OpRecord {
    /// Resource the op occupies.
    pub resource: ResourceId,
    /// Modeled duration.
    pub duration: SimDuration,
    /// Lower bound on start time (e.g. a synchronization barrier).
    pub earliest: SimTime,
    /// Free-form label for traces and profiles.
    pub label: &'static str,
    /// The op's dependencies, `Scheduler::deps[deps_from..deps_to]`;
    /// meaningful while the op is pending.
    deps_from: u32,
    deps_to: u32,
}

/// A flush's working memory, kept across flushes so that one allocates
/// only when its batch outgrows every earlier one.
#[derive(Default)]
struct FlushScratch {
    /// Unscheduled in-batch dependencies per pending op.
    indegree: Vec<u32>,
    /// Ready lower bound per pending op.
    ready: Vec<u64>,
    /// CSR of in-batch dependents: pending op `k` releases
    /// `dependents[offsets[k]..offsets[k + 1]]`.
    offsets: Vec<u32>,
    dependents: Vec<u32>,
    /// Min-heap of (ready_time, pending_index): earliest-ready-first with
    /// submission-order tie-break.
    heap: BinaryHeap<Reverse<(u64, u32)>>,
}

/// Incremental earliest-ready-first discrete-event scheduler.
pub struct Scheduler {
    resources: Vec<ResourceState>,
    /// `(start, finish)` of every flushed op, indexed by op id.
    times: Vec<(SimTime, SimTime)>,
    /// Records of the live ops, from id `retired` on: the last flushed
    /// batch, then the pending ops.
    live: Vec<OpRecord>,
    /// Ops below this id have retired: only their times remain.
    retired: u32,
    /// Dependencies of the pending ops, in submission order.
    deps: Vec<OpId>,
    scratch: FlushScratch,
    makespan: SimTime,
}

impl Scheduler {
    pub fn new() -> Self {
        Scheduler {
            resources: Vec::new(),
            times: Vec::new(),
            live: Vec::new(),
            retired: 0,
            deps: Vec::new(),
            scratch: FlushScratch::default(),
            makespan: SimTime::ZERO,
        }
    }

    /// Register a resource and return its handle.
    pub fn add_resource(&mut self, name: impl Into<String>, capacity: Capacity) -> ResourceId {
        if let Capacity::Finite(n) = capacity {
            assert!(n >= 1, "finite resource capacity must be >= 1");
        }
        let id = ResourceId(self.resources.len() as u32);
        let slots = match capacity {
            Capacity::Finite(n) => {
                let mut h = BinaryHeap::with_capacity(n as usize);
                for _ in 0..n {
                    h.push(Reverse(0));
                }
                h
            }
            Capacity::Infinite => BinaryHeap::new(),
        };
        self.resources.push(ResourceState {
            name: name.into(),
            capacity,
            slots,
            busy: SimDuration::ZERO,
        });
        id
    }

    /// Submit an operation. Dependencies must reference earlier ops.
    pub fn submit(
        &mut self,
        resource: ResourceId,
        duration: SimDuration,
        deps: &[OpId],
        earliest: SimTime,
        label: &'static str,
    ) -> OpId {
        let id = OpId(self.retired + self.live.len() as u32);
        debug_assert!(
            deps.iter().all(|d| d.0 < id.0),
            "dependencies must be earlier ops"
        );
        assert!(
            (resource.0 as usize) < self.resources.len(),
            "unknown resource"
        );
        let deps_from = self.deps.len() as u32;
        self.deps.extend_from_slice(deps);
        self.live.push(OpRecord {
            resource,
            duration,
            earliest,
            label,
            deps_from,
            deps_to: self.deps.len() as u32,
        });
        id
    }

    /// Retire the last flushed batch, then schedule all pending
    /// operations; returns the new makespan (the finish time of the
    /// latest op ever scheduled).
    pub fn flush(&mut self) -> SimTime {
        let base = self.times.len();
        self.live.drain(..base - self.retired as usize);
        self.retired = base as u32;
        let n = self.live.len();
        if n == 0 {
            return self.makespan;
        }

        let FlushScratch {
            indegree,
            ready,
            offsets,
            dependents,
            heap,
        } = &mut self.scratch;
        indegree.clear();
        indegree.resize(n, 0);
        ready.clear();
        offsets.clear();
        offsets.resize(n + 1, 0);
        // Ready lower bound from `earliest` and earlier batches' finishes;
        // in-batch dependencies are counted on both ends.
        for (i, op) in self.live.iter().enumerate() {
            let mut r = op.earliest.0;
            for d in &self.deps[op.deps_from as usize..op.deps_to as usize] {
                match (d.0 as usize).checked_sub(base) {
                    Some(k) => {
                        indegree[i] += 1;
                        offsets[k] += 1;
                    }
                    None => r = r.max(self.times[d.0 as usize].1 .0),
                }
            }
            ready.push(r);
        }
        // Counts to running ends, then fill back to front: each offset
        // steps down to its list's start and each list is in submission
        // order.
        let mut total = 0;
        for o in offsets.iter_mut() {
            total += *o;
            *o = total;
        }
        dependents.clear();
        dependents.resize(total as usize, 0);
        for (i, op) in self.live.iter().enumerate().rev() {
            for d in self.deps[op.deps_from as usize..op.deps_to as usize]
                .iter()
                .rev()
            {
                if let Some(k) = (d.0 as usize).checked_sub(base) {
                    offsets[k] -= 1;
                    dependents[offsets[k] as usize] = i as u32;
                }
            }
        }

        heap.extend(
            (0..n)
                .filter(|&i| indegree[i] == 0)
                .map(|i| Reverse((ready[i], i as u32))),
        );
        self.times.resize(base + n, (SimTime::ZERO, SimTime::ZERO));
        let mut scheduled = 0usize;
        while let Some(Reverse((r, i))) = heap.pop() {
            let i = i as usize;
            let op = &self.live[i];
            let dur = op.duration.0;
            let res = &mut self.resources[op.resource.0 as usize];
            let start = match res.capacity {
                Capacity::Infinite => r,
                Capacity::Finite(_) => {
                    let mut slot = res.slots.peek_mut().expect("resource has slots");
                    let start = r.max(slot.0);
                    *slot = Reverse(start + dur);
                    start
                }
            };
            res.busy += op.duration;
            let finish = start + dur;
            self.times[base + i] = (SimTime(start), SimTime(finish));
            self.makespan = self.makespan.max(SimTime(finish));
            scheduled += 1;

            // Release dependents.
            for &j in &dependents[offsets[i] as usize..offsets[i + 1] as usize] {
                let j = j as usize;
                indegree[j] -= 1;
                ready[j] = ready[j].max(finish);
                if indegree[j] == 0 {
                    heap.push(Reverse((ready[j], j as u32)));
                }
            }
        }
        assert_eq!(scheduled, n, "dependency cycle among pending ops");
        self.deps.clear();
        self.makespan
    }

    /// Finish time of the latest scheduled op.
    pub fn makespan(&self) -> SimTime {
        self.makespan
    }

    /// Total busy time accumulated on a resource.
    pub fn resource_busy(&self, r: ResourceId) -> SimDuration {
        self.resources[r.0 as usize].busy
    }

    /// Name a resource was registered with.
    pub fn resource_name(&self, r: ResourceId) -> &str {
        &self.resources[r.0 as usize].name
    }

    /// `(start, finish)` of a flushed op; `None` while it is pending.
    pub fn window(&self, id: OpId) -> Option<(SimTime, SimTime)> {
        self.times.get(id.0 as usize).copied()
    }

    /// The last flushed batch in submission order, each record with its
    /// `(start, finish)` (for trace dumps).
    pub fn last_batch(&self) -> impl Iterator<Item = (&OpRecord, SimTime, SimTime)> {
        let base = self.retired as usize;
        self.live[..self.times.len() - base]
            .iter()
            .zip(&self.times[base..])
            .map(|(op, &(start, finish))| (op, start, finish))
    }
}

impl Default for Scheduler {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(ns: u64) -> SimDuration {
        SimDuration(ns)
    }

    fn start(s: &Scheduler, id: OpId) -> Option<SimTime> {
        s.window(id).map(|w| w.0)
    }

    fn finish(s: &Scheduler, id: OpId) -> Option<SimTime> {
        s.window(id).map(|w| w.1)
    }

    #[test]
    fn serial_chain_on_one_resource() {
        let mut s = Scheduler::new();
        let r = s.add_resource("copy", Capacity::Finite(1));
        let a = s.submit(r, d(10), &[], SimTime::ZERO, "a");
        let b = s.submit(r, d(20), &[a], SimTime::ZERO, "b");
        s.flush();
        assert_eq!(start(&s, a), Some(SimTime(0)));
        assert_eq!(finish(&s, a), Some(SimTime(10)));
        assert_eq!(start(&s, b), Some(SimTime(10)));
        assert_eq!(finish(&s, b), Some(SimTime(30)));
        assert_eq!(s.makespan(), SimTime(30));
        assert_eq!(s.resource_busy(r), d(30));
    }

    #[test]
    fn independent_ops_serialize_on_capacity_one() {
        let mut s = Scheduler::new();
        let r = s.add_resource("copy", Capacity::Finite(1));
        s.submit(r, d(10), &[], SimTime::ZERO, "a");
        s.submit(r, d(10), &[], SimTime::ZERO, "b");
        assert_eq!(s.flush(), SimTime(20));
    }

    #[test]
    fn independent_ops_overlap_on_capacity_two() {
        let mut s = Scheduler::new();
        let r = s.add_resource("kernels", Capacity::Finite(2));
        s.submit(r, d(10), &[], SimTime::ZERO, "a");
        s.submit(r, d(10), &[], SimTime::ZERO, "b");
        s.submit(r, d(10), &[], SimTime::ZERO, "c");
        assert_eq!(s.flush(), SimTime(20)); // two in parallel, one after
        assert_eq!(s.resource_busy(r), d(30));
    }

    #[test]
    fn infinite_resource_never_delays() {
        let mut s = Scheduler::new();
        let r = s.add_resource("sync", Capacity::Infinite);
        for _ in 0..100 {
            s.submit(r, d(7), &[], SimTime::ZERO, "x");
        }
        assert_eq!(s.flush(), SimTime(7));
    }

    #[test]
    fn earliest_ready_wins_over_submission_order() {
        let mut s = Scheduler::new();
        let slow = s.add_resource("slow", Capacity::Finite(1));
        let fast = s.add_resource("fast", Capacity::Finite(1));
        // a: long op on `slow`; b depends on a, so b is ready late.
        let a = s.submit(slow, d(100), &[], SimTime::ZERO, "a");
        let b = s.submit(fast, d(10), &[a], SimTime::ZERO, "b");
        // c: submitted after b but ready immediately — must run first on fast.
        let c = s.submit(fast, d(10), &[], SimTime::ZERO, "c");
        s.flush();
        assert_eq!(start(&s, c), Some(SimTime(0)));
        assert_eq!(start(&s, b), Some(SimTime(100)));
    }

    #[test]
    fn earliest_lower_bound_respected() {
        let mut s = Scheduler::new();
        let r = s.add_resource("q", Capacity::Finite(1));
        let a = s.submit(r, d(5), &[], SimTime(42), "a");
        s.flush();
        assert_eq!(start(&s, a), Some(SimTime(42)));
    }

    #[test]
    fn incremental_flush_preserves_resource_state() {
        let mut s = Scheduler::new();
        let r = s.add_resource("copy", Capacity::Finite(1));
        let a = s.submit(r, d(10), &[], SimTime::ZERO, "a");
        assert_eq!(s.flush(), SimTime(10));
        // Next batch: new op depends on previous batch; resource slot is at 10.
        let b = s.submit(r, d(5), &[a], SimTime::ZERO, "b");
        assert_eq!(s.flush(), SimTime(15));
        assert_eq!(start(&s, b), Some(SimTime(10)));
    }

    #[test]
    fn diamond_dependency() {
        let mut s = Scheduler::new();
        let r = s.add_resource("k", Capacity::Finite(4));
        let a = s.submit(r, d(10), &[], SimTime::ZERO, "a");
        let b = s.submit(r, d(20), &[a], SimTime::ZERO, "b");
        let c = s.submit(r, d(5), &[a], SimTime::ZERO, "c");
        let e = s.submit(r, d(1), &[b, c], SimTime::ZERO, "e");
        s.flush();
        assert_eq!(start(&s, e), Some(SimTime(30)));
        assert_eq!(s.makespan(), SimTime(31));
    }

    #[test]
    fn tie_break_is_submission_order() {
        let mut s = Scheduler::new();
        let r = s.add_resource("q", Capacity::Finite(1));
        let a = s.submit(r, d(10), &[], SimTime::ZERO, "a");
        let b = s.submit(r, d(10), &[], SimTime::ZERO, "b");
        s.flush();
        assert!(start(&s, a).unwrap() < start(&s, b).unwrap());
    }

    #[test]
    fn empty_flush_is_noop() {
        let mut s = Scheduler::new();
        assert_eq!(s.flush(), SimTime::ZERO);
        let _r = s.add_resource("q", Capacity::Finite(1));
        assert_eq!(s.flush(), SimTime::ZERO);
    }

    #[test]
    fn zero_duration_ops() {
        let mut s = Scheduler::new();
        let sync = s.add_resource("sync", Capacity::Infinite);
        let r = s.add_resource("q", Capacity::Finite(1));
        let a = s.submit(r, d(10), &[], SimTime::ZERO, "a");
        let ev = s.submit(sync, d(0), &[a], SimTime::ZERO, "event");
        let b = s.submit(r, d(10), &[ev], SimTime::ZERO, "b");
        s.flush();
        assert_eq!(finish(&s, ev), Some(SimTime(10)));
        assert_eq!(start(&s, b), Some(SimTime(10)));
    }

    #[test]
    fn records_retire_at_the_next_flush_and_times_stay() {
        let mut s = Scheduler::new();
        let r = s.add_resource("q", Capacity::Finite(1));
        let a = s.submit(r, d(10), &[], SimTime::ZERO, "a");
        assert_eq!(s.window(a), None);
        s.flush();
        let b = s.submit(r, d(5), &[a], SimTime::ZERO, "b");
        // `a` is the last flushed batch; `b` is pending.
        let batch: Vec<_> = s
            .last_batch()
            .map(|(op, st, fi)| (op.label, op.duration, st, fi))
            .collect();
        assert_eq!(batch, [("a", d(10), SimTime(0), SimTime(10))]);
        s.flush();
        // `a` retired at the second flush: only its times remain.
        assert_eq!(s.window(a), Some((SimTime(0), SimTime(10))));
        assert_eq!(s.window(b), Some((SimTime(10), SimTime(15))));
        assert_eq!(
            s.last_batch().map(|(op, ..)| op.label).collect::<Vec<_>>(),
            ["b"]
        );
        // An empty flush retires `b` and leaves an empty batch.
        s.flush();
        assert_eq!(s.last_batch().count(), 0);
    }

    #[test]
    #[should_panic(expected = "unknown resource")]
    fn unknown_resource_rejected() {
        let mut s = Scheduler::new();
        s.submit(ResourceId(3), d(1), &[], SimTime::ZERO, "bad");
    }
}
