//! Single/multi execution parity: a 1-GPU `MultiGraphReduce` run goes
//! through the same BSP loop as the single-GPU engine (`exec::bsp`:
//! host results, rollback bookkeeping) and the same shared layers —
//! device ops through `exec::device::DeviceCtx`, kernel pricing from
//! `exec::compute`. Only the device timelines differ, so these tests pin
//! them as observable behavior: identical results, iteration traces,
//! skip/fusion/elimination decision logs, governor silence when
//! uncapped, and — for identical fault schedules — identical recovery
//! decisions and identical simulated recovery time on both paths.

use gr_graph::{gen, GraphLayout};
use gr_observe::{Decision, Observer, Recorded};
use gr_sim::{Platform, SimDuration};
use graphreduce::testprog::{Bfs, Cc};
use graphreduce::{FaultPlan, GraphReduce, MultiGraphReduce, Options};

fn layout() -> GraphLayout {
    GraphLayout::build(&gen::rmat_g500(11, 30_000, 17).symmetrize())
}

/// Out-of-core platform (many shards) so frontier skips actually happen.
fn platform() -> Platform {
    Platform::paper_node_scaled(1 << 14)
}

fn shard_skips(rec: &Recorded) -> Vec<(u32, u32, u64, u64)> {
    rec.decisions
        .iter()
        .filter_map(|d| match d {
            Decision::ShardSkip {
                iteration,
                shard,
                interval_bits,
                active_bits,
            } => Some((*iteration, *shard, *interval_bits, *active_bits)),
            _ => None,
        })
        .collect()
}

fn plan_decisions(rec: &Recorded) -> Vec<Decision> {
    rec.decisions
        .iter()
        .filter(|d| {
            matches!(
                d,
                Decision::PhaseFusion { .. } | Decision::PhaseElimination { .. }
            )
        })
        .cloned()
        .collect()
}

/// `FaultRetry` with the op label erased: both paths must charge the same
/// backoff schedule even though the faulted op is named differently
/// (`init.vertices` vs `multi.init.vertices`).
fn retries_modulo_op(rec: &Recorded) -> Vec<(u32, u32, &'static str, u32, u64)> {
    rec.decisions
        .iter()
        .filter_map(|d| match d {
            Decision::FaultRetry {
                iteration,
                device,
                fault,
                attempt,
                backoff_ns,
                ..
            } => Some((*iteration, *device, *fault, *attempt, *backoff_ns)),
            _ => None,
        })
        .collect()
}

fn rollbacks_modulo_op(rec: &Recorded) -> Vec<(u32, u32, &'static str)> {
    rec.decisions
        .iter()
        .filter_map(|d| match d {
            Decision::Rollback {
                iteration,
                device,
                fault,
                ..
            } => Some((*iteration, *device, *fault)),
            _ => None,
        })
        .collect()
}

/// The full differential: one fault-free run per path, all observable
/// engine behavior compared — vertex state, iteration trace, frontier
/// skips, fusion/elimination planning, and governor silence.
#[test]
fn one_gpu_multi_matches_single_engine_end_to_end() {
    let l = layout();
    let plat = platform();

    let (sobs, ssink) = Observer::recording();
    let single = GraphReduce::new(Bfs(0), &l, plat.clone(), Options::optimized())
        .with_observer(sobs)
        .run()
        .unwrap();
    let (mobs, msink) = Observer::recording();
    let multi = MultiGraphReduce::new(Bfs(0), &l, plat, 1)
        .with_observer(mobs)
        .run()
        .unwrap();
    let srec = ssink.recorded();
    let mrec = msink.recorded();

    // Results and iteration trace.
    assert_eq!(multi.vertex_values, single.vertex_values);
    assert_eq!(multi.stats.iterations, single.stats.iterations);
    let sf: Vec<u64> = single.stats.frontier_sizes();
    let mf: Vec<u64> = multi
        .stats
        .per_iteration
        .iter()
        .map(|i| i.frontier_size)
        .collect();
    assert_eq!(sf, mf);
    for (s, m) in single
        .stats
        .per_iteration
        .iter()
        .zip(multi.stats.per_iteration.iter())
    {
        assert_eq!(s.changed, m.changed);
        assert_eq!(s.activated, m.activated);
        assert_eq!(s.gathered_edges, m.gathered_edges);
        assert_eq!(s.shards_processed, m.shards_processed);
        assert_eq!(s.shards_skipped, m.shards_skipped);
    }

    // Frontier-management skip decisions: same shards skipped on the same
    // iterations, with the same audit fields (both paths partition with
    // the default K=2 plan, so shard geometry is identical).
    let skips = shard_skips(&srec);
    assert!(!skips.is_empty(), "BFS on a sharded plan must skip shards");
    assert_eq!(skips, shard_skips(&mrec));

    // Fusion/elimination planning decisions come from the same
    // `exec::plan` emitter on both paths.
    let plans = plan_decisions(&srec);
    assert!(!plans.is_empty(), "BFS must eliminate the gather phase");
    assert_eq!(plans, plan_decisions(&mrec));

    // Uncapped runs: the governor stays silent on both paths.
    assert_eq!(srec.memory_decisions(), 0);
    assert_eq!(mrec.memory_decisions(), 0);
    assert_eq!(srec.recovery_decisions(), 0);
    assert_eq!(mrec.recovery_decisions(), 0);
}

/// Retry/backoff alignment (the drift the refactor removed): for an
/// identical fault schedule, both paths must log identical retry
/// decisions — same attempts, same exponential backoffs — and charge
/// identical *simulated recovery time* (faulted minus fault-free
/// elapsed). Before the shared `DeviceCtx::retry`, `multi_retry` was a
/// hand-maintained copy of the engine's loop; any backoff drift between
/// them breaks this test.
#[test]
fn identical_fault_schedules_charge_identical_sim_time() {
    let l = layout();
    let plat = platform();
    // Fault the first two H2D copies: the very first upload on either
    // path (`init.vertices` / `multi.init.vertices`), retried twice with
    // escalating backoff, succeeding within the retry budget — no
    // rollback, so the elapsed delta is pure recovery charge.
    let schedule = FaultPlan::none().fail_h2d(0, 2);

    let clean_single = GraphReduce::new(Cc, &l, plat.clone(), Options::optimized())
        .run()
        .unwrap();
    let (sobs, ssink) = Observer::recording();
    let faulted_single = GraphReduce::new(
        Cc,
        &l,
        plat.clone(),
        Options {
            fault_plan: schedule.clone(),
            ..Options::optimized()
        },
    )
    .with_observer(sobs)
    .run()
    .unwrap();

    let clean_multi = MultiGraphReduce::new(Cc, &l, plat.clone(), 1)
        .run()
        .unwrap();
    let (mobs, msink) = Observer::recording();
    let faulted_multi = MultiGraphReduce::new(Cc, &l, plat, 1)
        .with_fault_plan(0, schedule)
        .with_observer(mobs)
        .run()
        .unwrap();

    // Same faults seen, same results as fault-free.
    assert_eq!(faulted_single.stats.faults_injected, 2);
    assert_eq!(faulted_multi.stats.faults_injected, 2);
    assert_eq!(faulted_single.vertex_values, clean_single.vertex_values);
    assert_eq!(faulted_multi.vertex_values, clean_multi.vertex_values);

    // Identical retry decisions modulo the op label.
    let sretries = retries_modulo_op(&ssink.recorded());
    let mretries = retries_modulo_op(&msink.recorded());
    assert_eq!(sretries.len(), 2, "one retry decision per injected fault");
    assert_eq!(sretries, mretries);
    // Exponential backoff actually escalates (attempt 1 then 2).
    assert_eq!(sretries[0].3, 1);
    assert_eq!(sretries[1].3, 2);
    assert!(sretries[1].4 > sretries[0].4);

    // The recovery charge — faulted minus fault-free wall time — is
    // identical on both paths.
    let single_delta: SimDuration = faulted_single.stats.elapsed - clean_single.stats.elapsed;
    let multi_delta: SimDuration = faulted_multi.stats.elapsed - clean_multi.stats.elapsed;
    assert!(single_delta > SimDuration::ZERO, "faults must cost time");
    assert_eq!(single_delta, multi_delta);
}

/// Exhausted retries roll back through the BSP loop's replay helper on
/// both paths: same retry ladder, then the same rollback decision, then a
/// successful replay.
#[test]
fn exhausted_retries_roll_back_identically() {
    let l = layout();
    let plat = platform();
    // Four consecutive H2D faults: three retries burn the default budget,
    // the fourth failure aborts the stage, and the replayed timeline
    // succeeds (the fault window is exhausted by then).
    let schedule = FaultPlan::none().fail_h2d(0, 4);

    let (sobs, ssink) = Observer::recording();
    let single = GraphReduce::new(
        Cc,
        &l,
        plat.clone(),
        Options {
            fault_plan: schedule.clone(),
            ..Options::optimized()
        },
    )
    .with_observer(sobs)
    .run()
    .unwrap();
    let (mobs, msink) = Observer::recording();
    let multi = MultiGraphReduce::new(Cc, &l, plat, 1)
        .with_fault_plan(0, schedule)
        .with_observer(mobs)
        .run()
        .unwrap();

    assert_eq!(single.vertex_values, multi.vertex_values);
    let srec = ssink.recorded();
    let mrec = msink.recorded();
    assert_eq!(retries_modulo_op(&srec), retries_modulo_op(&mrec));
    let srb = rollbacks_modulo_op(&srec);
    assert_eq!(srb.len(), 1, "one rollback after the exhausted budget");
    assert_eq!(srb, rollbacks_modulo_op(&mrec));
    // One recovery decision per injected fault on both paths (the chaos
    // invariant, preserved across the unification).
    assert_eq!(
        srec.recovery_decisions() as u64,
        single.stats.faults_injected
    );
    assert_eq!(
        mrec.recovery_decisions() as u64,
        multi.stats.faults_injected
    );
}
