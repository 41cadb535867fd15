//! Property tests for the discrete-event scheduler: for arbitrary DAGs of
//! operations over arbitrary resources, the produced schedule must equal
//! a reference list scheduler's, respect dependencies, never exceed any
//! resource's capacity, and account busy time exactly.

use std::ops::Range;

use proptest::prelude::*;

use gr_sim::{Capacity, OpId, ResourceId, Scheduler, SimDuration, SimTime};

/// A generated workload: resources with capacities, ops with (resource,
/// duration, dep fan-in drawn from earlier ops, earliest bound).
#[derive(Clone, Debug)]
struct Workload {
    /// Capacity per resource; 0 stands for [`Capacity::Infinite`].
    capacities: Vec<u32>,
    // (resource index, duration ns, dep indices (earlier), earliest ns)
    ops: Vec<(usize, u64, Vec<usize>, u64)>,
    // flush after each op index in this set (tests incremental batching)
    flush_points: Vec<usize>,
}

fn capacity(c: u32) -> Capacity {
    match c {
        0 => Capacity::Infinite,
        n => Capacity::Finite(n),
    }
}

fn workload_over(caps: Range<u32>) -> impl Strategy<Value = Workload> {
    let caps = prop::collection::vec(caps, 1..4);
    caps.prop_flat_map(|capacities| {
        let nres = capacities.len();
        let ops = prop::collection::vec(
            (
                0..nres,
                1u64..200,
                prop::collection::vec(0usize..1000, 0..4),
                0u64..500,
            ),
            1..60,
        );
        let flushes = prop::collection::vec(0usize..60, 0..4);
        (Just(capacities), ops, flushes).prop_map(|(capacities, raw, flush_points)| {
            let ops = raw
                .into_iter()
                .enumerate()
                .map(|(i, (r, d, deps, e))| {
                    // Deps must point at strictly earlier ops.
                    let deps = deps
                        .into_iter()
                        .filter_map(|x| if i > 0 { Some(x % i) } else { None })
                        .collect();
                    (r, d, deps, e)
                })
                .collect();
            Workload {
                capacities,
                ops,
                flush_points,
            }
        })
    })
}

/// Finite resources only.
fn workload() -> impl Strategy<Value = Workload> {
    workload_over(1..4)
}

/// Submit `w` to a fresh scheduler, flushing after each flush point and
/// once at the end; returns the scheduler, the op ids, the resource ids
/// and the final makespan.
fn schedule(w: &Workload) -> (Scheduler, Vec<OpId>, Vec<ResourceId>, SimTime) {
    let mut s = Scheduler::new();
    let rids: Vec<_> = w
        .capacities
        .iter()
        .map(|&c| s.add_resource("r", capacity(c)))
        .collect();
    let mut ids: Vec<OpId> = Vec::new();
    for (i, (r, d, deps, e)) in w.ops.iter().enumerate() {
        let dep_ids: Vec<OpId> = deps.iter().map(|&j| ids[j]).collect();
        ids.push(s.submit(
            rids[*r],
            SimDuration::from_nanos(*d),
            &dep_ids,
            SimTime(*e),
            "op",
        ));
        if w.flush_points.contains(&i) {
            s.flush();
        }
    }
    let makespan = s.flush();
    (s, ids, rids, makespan)
}

/// `(start, finish)` of an op after its flush.
fn window(s: &Scheduler, id: OpId) -> (SimTime, SimTime) {
    s.window(id).unwrap()
}

/// The specification, as an O(n²) list scheduler. Each flush schedules
/// the ops submitted since the last one: at every step it takes the
/// unscheduled op whose deps are all scheduled with the least
/// `(ready, submission index)` — ready being the latest of its
/// `earliest` bound and its deps' finishes — and starts it on its
/// resource's least-free slot, no earlier than ready. An infinite
/// resource never delays. Slots persist across flushes.
fn reference(w: &Workload) -> Vec<(u64, u64)> {
    let mut slots: Vec<Vec<u64>> = w.capacities.iter().map(|&c| vec![0; c as usize]).collect();
    let mut times: Vec<Option<(u64, u64)>> = vec![None; w.ops.len()];
    let mut batch_start = 0;
    for end in 0..w.ops.len() {
        if !(w.flush_points.contains(&end) || end + 1 == w.ops.len()) {
            continue;
        }
        for _ in batch_start..=end {
            let mut best: Option<(u64, usize)> = None;
            for i in batch_start..=end {
                let (_, _, deps, earliest) = &w.ops[i];
                if times[i].is_some() || deps.iter().any(|&d| times[d].is_none()) {
                    continue;
                }
                let ready = deps
                    .iter()
                    .map(|&d| times[d].unwrap().1)
                    .fold(*earliest, u64::max);
                if best.is_none_or(|b| (ready, i) < b) {
                    best = Some((ready, i));
                }
            }
            let (ready, i) = best.expect("a batch is a DAG over earlier ops");
            let (r, dur, _, _) = w.ops[i];
            let start = match slots[r].iter_mut().min() {
                Some(free) => {
                    let start = ready.max(*free);
                    *free = start + dur;
                    start
                }
                None => ready,
            };
            times[i] = Some((start, start + dur));
        }
        batch_start = end + 1;
    }
    times.into_iter().map(Option::unwrap).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn schedule_matches_the_reference_list_scheduler(w in workload_over(0..4)) {
        let (s, ids, _, makespan) = schedule(&w);
        let got: Vec<(u64, u64)> = ids
            .iter()
            .map(|&id| {
                let (start, finish) = window(&s, id);
                (start.as_nanos(), finish.as_nanos())
            })
            .collect();
        let want = reference(&w);
        prop_assert_eq!(&got, &want);
        prop_assert_eq!(makespan.as_nanos(), want.iter().map(|t| t.1).max().unwrap());
    }

    #[test]
    fn schedule_is_valid(w in workload()) {
        let (s, ids, rids, makespan) = schedule(&w);

        // 1. Every op scheduled, with finish = start + duration.
        for (i, &id) in ids.iter().enumerate() {
            let (_, dur, deps, earliest) = &w.ops[i];
            let (start, finish) = window(&s, id);
            prop_assert_eq!(finish - start, SimDuration::from_nanos(*dur));
            // 2. Starts respect the earliest bound.
            prop_assert!(start >= SimTime(*earliest));
            // 3. Starts respect dependencies.
            for &d in deps {
                prop_assert!(start >= window(&s, ids[d]).1);
            }
            prop_assert!(finish <= makespan);
        }

        // 4. Makespan is exactly the max finish.
        let max_finish = ids.iter().map(|&id| window(&s, id).1).max().unwrap();
        prop_assert_eq!(makespan, max_finish);

        // 5. Capacity is never exceeded: sweep each resource's intervals.
        for (ri, &rid) in rids.iter().enumerate() {
            let mut events: Vec<(u64, i64)> = Vec::new();
            let mut busy = 0u64;
            for (i, &id) in ids.iter().enumerate() {
                let (r, dur, _, _) = &w.ops[i];
                if *r == ri && *dur != 0 {
                    let (start, finish) = window(&s, id);
                    events.push((start.as_nanos(), 1));
                    events.push((finish.as_nanos(), -1));
                    busy += dur;
                }
            }
            events.sort_by_key(|&(t, delta)| (t, delta)); // finish (-1) before start (+1) at ties
            let mut level = 0i64;
            for (_, delta) in events {
                level += delta;
                prop_assert!(
                    level <= w.capacities[ri] as i64,
                    "resource {ri} over capacity"
                );
            }
            // 6. Busy time accounts the sum of durations.
            prop_assert_eq!(s.resource_busy(rid).as_nanos(), busy);
        }
    }

    #[test]
    fn schedule_is_deterministic(w in workload()) {
        let run = |w: &Workload| {
            let w = Workload { flush_points: Vec::new(), ..w.clone() };
            let (s, ids, _, _) = schedule(&w);
            ids.iter().map(|&i| window(&s, i).0).collect::<Vec<_>>()
        };
        prop_assert_eq!(run(&w), run(&w));
    }
}
