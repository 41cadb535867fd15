//! Single/multi execution parity by construction: `MultiGraphReduce` on
//! one device runs the same `Query` and the same device timeline
//! (`exec/driver.rs`) as `GraphReduce` with `Options::optimized()`, so
//! the two must agree on everything observable — vertex and edge values,
//! the per-iteration trace, simulated elapsed and busy time, every device
//! op (label, start, duration), every metrics snapshot and the full
//! decision log — fault-free, under retried and rolled-back H2D faults,
//! and with a capped device the governor splits shards for.

use gr_graph::{gen, GraphLayout};
use gr_observe::{Decision, Observer, Recorded};
use gr_sim::Platform;
use graphreduce::testprog::{Bfs, Cc};
use graphreduce::{
    plan_partition, FaultPlan, GasProgram, GraphReduce, MultiGraphReduce, Options, RunResult,
    SizeModel,
};

fn layout() -> GraphLayout {
    GraphLayout::build(&gen::rmat_g500(11, 30_000, 17).symmetrize())
}

/// Out-of-core platform (many shards) so frontier skips actually happen.
fn platform() -> Platform {
    Platform::paper_node_scaled(1 << 14)
}

/// Every recorded span as (track, lane, name, start, duration), with the
/// multi engine's `gpu0/` lane prefix dropped.
fn spans(rec: &Recorded) -> Vec<(&'static str, String, String, u64, u64)> {
    rec.spans
        .iter()
        .map(|s| {
            let lane = s.lane.strip_prefix("gpu0/").unwrap_or(&s.lane);
            (
                s.track,
                lane.to_string(),
                s.name.clone(),
                s.start_ns,
                s.dur_ns,
            )
        })
        .collect()
}

/// Run `program` through `GraphReduce` under `opts` and through a 1-GPU
/// `MultiGraphReduce` set up by `multi`, assert the two runs equal on
/// every observable, and return the single engine's result and recording.
fn assert_parity<P: GasProgram + Clone>(
    program: P,
    opts: Options,
    multi: impl FnOnce(MultiGraphReduce<P>) -> MultiGraphReduce<P>,
) -> (RunResult<P>, Recorded)
where
    P::VertexValue: PartialEq + std::fmt::Debug,
    P::EdgeValue: PartialEq + std::fmt::Debug,
{
    let l = layout();
    let (sobs, ssink) = Observer::recording();
    let single = GraphReduce::new(program.clone(), &l, platform(), opts)
        .with_observer(sobs)
        .run()
        .unwrap();
    let (mobs, msink) = Observer::recording();
    let m = multi(MultiGraphReduce::new(program, &l, platform(), 1).with_observer(mobs))
        .run()
        .unwrap();
    let (srec, mrec) = (ssink.recorded(), msink.recorded());

    assert_eq!(m.vertex_values, single.vertex_values);
    assert_eq!(m.edge_values, single.edge_values);
    let s = &single.stats;
    assert_eq!(m.stats.per_iteration, s.per_iteration);
    assert_eq!(m.stats.iterations, s.iterations);
    assert_eq!(m.stats.elapsed, s.elapsed);
    assert_eq!(m.stats.per_gpu_memcpy, vec![s.memcpy_time]);
    assert_eq!(m.stats.per_gpu_kernel, vec![s.kernel_time]);
    assert_eq!(m.stats.num_shards, s.num_shards);
    assert_eq!(m.stats.faults_injected, s.faults_injected);
    assert_eq!(m.stats.mem_pressure_events, s.mem_pressure_events);
    assert_eq!(m.stats.shard_splits, s.shard_splits);
    assert_eq!((m.stats.exchange_bytes, m.stats.evictions), (0, 0));
    // Bytes h2d/d2h, op counts per label, retries and rollbacks: the
    // device and engine registries' snapshots, per iteration and at the
    // end of the run.
    assert_eq!(mrec.snapshots, srec.snapshots);
    for scope in ["run", "engine"] {
        assert!(srec.snapshots.iter().any(|(name, _)| name == scope));
    }
    let bytes = |rec: &Recorded, name| {
        let (_, run) = rec.snapshots.iter().find(|(n, _)| n == "run").unwrap();
        run.counter(name)
    };
    assert_eq!(bytes(&srec, "h2d.bytes"), s.bytes_h2d);
    assert_eq!(bytes(&srec, "d2h.bytes"), s.bytes_d2h);
    // Every device op, op labels included, and the full decision log.
    assert_eq!(spans(&mrec), spans(&srec));
    assert_eq!(mrec.decisions, srec.decisions);
    (single, srec)
}

/// Fault-free: results, trace, skip/fusion/elimination decisions and
/// governor silence, all equal.
#[test]
fn one_gpu_multi_matches_single_engine_end_to_end() {
    let (single, rec) = assert_parity(Bfs(0), Options::optimized(), |m| m);
    assert!(single.stats.num_shards > 1, "needs a sharded plan");
    assert!(
        rec.shard_skips() > 0,
        "BFS on a sharded plan must skip shards"
    );
    assert!(rec
        .decisions
        .iter()
        .any(|d| matches!(d, Decision::PhaseElimination { .. })));
    assert_eq!(rec.memory_decisions(), 0);
    assert_eq!(rec.recovery_decisions(), 0);
}

/// Two faulted H2D copies (the initial vertex upload and its first
/// retry) retried within the budget: same retry decisions and the same
/// simulated recovery time on both paths.
#[test]
fn identical_fault_schedules_charge_identical_sim_time() {
    let schedule = FaultPlan::none().fail_h2d(0, 2);
    let opts = Options {
        fault_plan: schedule.clone(),
        ..Options::optimized()
    };
    let (single, rec) = assert_parity(Cc, opts, |m| m.with_fault_plan(0, schedule));
    assert_eq!(single.stats.faults_injected, 2);
    assert_eq!(single.stats.recovered_retries, 2);
    assert_eq!(single.stats.rollbacks, 0);
    assert_eq!(rec.recovery_decisions(), 2, "one decision per fault");
    // The device retry loop numbers its attempts and escalates the
    // backoff (attempt 1 then 2, the second wait longer).
    let retries: Vec<(u32, u64)> = rec
        .decisions
        .iter()
        .filter_map(|d| match d {
            Decision::FaultRetry {
                attempt,
                backoff_ns,
                ..
            } => Some((*attempt, *backoff_ns)),
            _ => None,
        })
        .collect();
    assert_eq!(retries.iter().map(|r| r.0).collect::<Vec<_>>(), [1, 2]);
    assert!(retries[1].1 > retries[0].1, "backoff must escalate");
    // Recovered faults leave the answer alone and cost simulated time.
    let clean = GraphReduce::new(Cc, &layout(), platform(), Options::optimized())
        .run()
        .unwrap();
    assert_eq!(single.vertex_values, clean.vertex_values);
    assert!(
        single.stats.elapsed > clean.stats.elapsed,
        "faults cost time"
    );
}

/// Four faulted H2D copies exhaust the retry budget: both paths roll back
/// once and replay identically.
#[test]
fn exhausted_retries_roll_back_identically() {
    let schedule = FaultPlan::none().fail_h2d(0, 4);
    let opts = Options {
        fault_plan: schedule.clone(),
        ..Options::optimized()
    };
    let (single, rec) = assert_parity(Cc, opts, |m| m.with_fault_plan(0, schedule));
    assert_eq!(single.stats.rollbacks, 1, "one rollback after the budget");
    assert_eq!(
        rec.recovery_decisions() as u64,
        single.stats.faults_injected,
        "one recovery decision per injected fault"
    );
}

/// A device capped below one slot of the largest shard: both paths
/// reduce concurrency and split shards, with the same decisions.
#[test]
fn capped_one_gpu_multi_splits_like_the_single_engine() {
    let l = layout();
    let plat = platform();
    let plan = plan_partition(
        &l,
        &SizeModel::for_program(&Cc),
        &plat.device,
        &plat.pcie,
        2,
        None,
    )
    .unwrap();
    let cap = plan.static_bytes + plan.max_shard_bytes - 1;
    let opts = Options::optimized().with_mem_cap(cap);
    let (single, rec) = assert_parity(Cc, opts, |m| m.with_mem_cap(0, cap));
    assert!(single.stats.shard_splits > 0);
    assert_eq!(
        rec.memory_decisions() as u64,
        single.stats.mem_pressure_events + single.stats.shard_splits + single.stats.chunked_shards
    );
}
