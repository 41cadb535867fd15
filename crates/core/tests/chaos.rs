//! Chaos harness: every fault profile, injected into real runs, must
//! leave the final vertex state bit-identical to the fault-free run —
//! the host computes exact results and the recovery layer replays only
//! the device timeline — and must leave exactly one recovery decision
//! in the log per injected fault.
//!
//! See docs/FAULTS.md for the fault model and the decision-per-fault
//! invariant these tests pin down.

mod common;

use common::{assert_kill_restart_family, multi_layout, on_gpus, platform, scratch};
use gr_graph::{gen, EdgeList, GraphLayout};
use gr_observe::{Decision, Observer, Recorded};
use gr_sim::Platform;
use graphreduce::testprog::{Bfs, Cc, Pr, Sssp};
use graphreduce::{
    plan_partition, EngineError, FaultPlan, GasProgram, GraphSession, Options, PartitionPlan,
    RecoveryPolicy, RunStats, SizeModel,
};

fn small_graph() -> GraphLayout {
    GraphLayout::build(&gen::uniform(512, 4096, 3).symmetrize())
}

fn baseline() -> Vec<u32> {
    let layout = small_graph();
    GraphSession::new(&layout, platform(), Options::optimized())
        .query(&Cc)
        .run()
        .unwrap()
        .vertex_values
}

/// Run CC under `plan`, asserting the decision-per-fault invariant, and
/// return (vertex_values, stats).
fn run_faulted(plan: FaultPlan) -> (Vec<u32>, graphreduce::RunStats) {
    let layout = small_graph();
    let (obs, sink) = Observer::recording();
    let out = GraphSession::new(
        &layout,
        platform(),
        Options {
            devices: vec![plan.into()],
            ..Options::optimized()
        },
    )
    .query(&Cc)
    .with_observer(obs)
    .run()
    .unwrap();
    let rec = sink.recorded();
    assert_eq!(
        rec.recovery_decisions() as u64,
        out.stats.faults_injected,
        "one recovery decision per injected fault"
    );
    (out.vertex_values, out.stats)
}

#[test]
fn transient_copy_faults_recover_bit_identical() {
    let want = baseline();
    let (got, stats) = run_faulted(FaultPlan::profile("transient-copy", 0).unwrap());
    assert_eq!(got, want);
    assert!(stats.faults_injected >= 1, "profile must actually fire");
    assert!(stats.recovered_retries >= 1);
    assert!(!stats.host_fallback);
}

#[test]
fn kernel_faults_recover_bit_identical() {
    let want = baseline();
    let (got, stats) = run_faulted(FaultPlan::profile("kernel-fault", 0).unwrap());
    assert_eq!(got, want);
    assert!(stats.faults_injected >= 1, "profile must actually fire");
}

#[test]
fn alloc_pressure_recovers_bit_identical() {
    let want = baseline();
    let (got, stats) = run_faulted(FaultPlan::profile("oom-pressure", 0).unwrap());
    assert_eq!(got, want);
    assert_eq!(stats.faults_injected, 2, "fail_alloc(0, 2) fires twice");
    assert_eq!(stats.recovered_retries, 2);
}

#[test]
fn ecc_stalls_and_degraded_pcie_slow_but_never_fault() {
    let want = baseline();
    for profile in ["ecc-stall", "degraded-pcie"] {
        let (got, stats) = run_faulted(FaultPlan::profile(profile, 0).unwrap());
        assert_eq!(got, want, "{profile}");
        assert_eq!(stats.faults_injected, 0, "{profile}: slowdowns, not faults");
        assert_eq!(stats.rollbacks, 0, "{profile}");
    }
}

#[test]
fn exhausted_retries_roll_back_and_replay() {
    // 6 consecutive failures on one op exceed max_retries=3, forcing a
    // rollback; the monotone fault counters make the replay converge past
    // the window.
    let want = baseline();
    let (got, stats) = run_faulted(FaultPlan::none().fail_h2d(0, 6));
    assert_eq!(got, want);
    assert!(stats.rollbacks >= 1, "retry budget must have been exceeded");
    assert!(!stats.host_fallback);
}

/// The device retry loop numbers its attempts and escalates its backoff,
/// and recovered faults cost simulated time but leave the answer alone;
/// past the retry budget the iteration rolls back exactly once.
#[test]
fn retries_escalate_backoff_and_an_exhausted_budget_rolls_back_once() {
    let l = multi_layout();
    let run = |plan: FaultPlan| {
        let (obs, sink) = Observer::recording();
        let out = GraphSession::new(
            &l,
            platform(),
            Options {
                devices: vec![plan.into()],
                ..Options::optimized()
            },
        )
        .query(&Cc)
        .with_observer(obs)
        .run()
        .unwrap();
        (out, sink.recorded())
    };
    let clean = run(FaultPlan::none()).0;
    // Two faulted H2D copies: the initial vertex upload and its first
    // retry, both within the budget.
    let (out, rec) = run(FaultPlan::none().fail_h2d(0, 2));
    assert_eq!(out.stats.faults_injected, 2);
    assert_eq!(out.stats.recovered_retries, 2);
    assert_eq!(out.stats.rollbacks, 0);
    assert_eq!(rec.recovery_decisions(), 2, "one decision per fault");
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
    assert_eq!(out.vertex_values, clean.vertex_values);
    assert!(out.stats.elapsed > clean.stats.elapsed, "faults cost time");
    // Four exhaust the budget: one rollback, one decision per fault.
    let (out, rec) = run(FaultPlan::none().fail_h2d(0, 4));
    assert_eq!(out.stats.rollbacks, 1, "one rollback after the budget");
    assert_eq!(rec.recovery_decisions() as u64, out.stats.faults_injected);
    assert_eq!(out.vertex_values, clean.vertex_values);
}

/// The `device-loss` profile's 2 ms loss time targets full-size runs;
/// this graph finishes in under 1 ms, so the chaos tests pin the loss
/// mid-run explicitly (same code path, same sticky-loss semantics).
fn mid_run_loss() -> FaultPlan {
    FaultPlan::none().lose_device_at_ns(400_000)
}

#[test]
fn device_loss_single_gpu_falls_back_to_host() {
    let want = baseline();
    let (got, stats) = run_faulted(mid_run_loss());
    assert_eq!(got, want, "host fallback preserves exact results");
    assert_eq!(stats.faults_injected, 1, "loss is one fault, counted once");
    assert!(stats.host_fallback);
}

#[test]
fn device_loss_fail_fast_surfaces_device_lost() {
    let layout = small_graph();
    let res = GraphSession::new(
        &layout,
        platform(),
        Options {
            devices: vec![mid_run_loss().into()],
            recovery: RecoveryPolicy::fail_fast(),
            ..Options::optimized()
        },
    )
    .query(&Cc)
    .run();
    match res {
        Err(EngineError::DeviceLost) => {}
        Err(e) => panic!("wrong error: {e}"),
        Ok(_) => panic!("fail-fast run must not survive device loss"),
    }
}

#[test]
fn alloc_pressure_past_retry_budget_surfaces_oom() {
    let layout = small_graph();
    let res = GraphSession::new(
        &layout,
        platform(),
        Options {
            devices: vec![FaultPlan::none().fail_alloc(0, 64).into()],
            recovery: RecoveryPolicy::fail_fast(),
            ..Options::optimized()
        },
    )
    .query(&Cc)
    .run();
    match res {
        Err(EngineError::Alloc(_)) => {}
        Err(e) => panic!("wrong error: {e}"),
        Ok(_) => panic!("fail-fast run must not survive allocation pressure"),
    }
}

#[test]
fn seeded_chaos_recovers_bit_identical() {
    // Seeded plans mix transient copy/launch/alloc faults, ECC stalls,
    // and degraded-PCIe windows (never permanent loss); every seed must
    // converge to the fault-free answer with a fully accounted log.
    let want = baseline();
    for seed in [1u64, 7, 42, 1234, 0xdead] {
        let (got, stats) = run_faulted(FaultPlan::from_seed(seed));
        assert_eq!(got, want, "seed {seed}");
        assert!(!stats.host_fallback, "seeded plans never lose the device");
    }
}

#[test]
fn disarmed_fault_plan_adds_zero_overhead() {
    let layout = small_graph();
    let clean = GraphSession::new(&layout, platform(), Options::optimized())
        .query(&Cc)
        .run()
        .unwrap();
    let armed_none = GraphSession::new(
        &layout,
        platform(),
        Options {
            devices: vec![FaultPlan::none().into()],
            ..Options::optimized()
        },
    )
    .query(&Cc)
    .run()
    .unwrap();
    assert_eq!(clean.vertex_values, armed_none.vertex_values);
    assert_eq!(clean.stats.elapsed, armed_none.stats.elapsed, "no stalls");
    assert_eq!(clean.stats.copy_ops, armed_none.stats.copy_ops, "no ops");
    assert_eq!(
        clean.stats.kernel_launches,
        armed_none.stats.kernel_launches
    );
    assert_eq!(clean.stats.faults_injected, 0);
    assert_eq!(armed_none.stats.faults_injected, 0);
}

#[test]
fn device_loss_multi_gpu_evicts_and_redistributes() {
    let l = multi_layout();
    let want = GraphSession::new(&l, platform(), on_gpus(2))
        .query(&Cc)
        .run()
        .unwrap()
        .vertex_values;
    let mut opts = on_gpus(2);
    opts.devices[0].fault_plan = FaultPlan::profile("device-loss", 0).unwrap();
    let (obs, sink) = Observer::recording();
    let res = GraphSession::new(&l, platform(), opts)
        .query(&Cc)
        .with_observer(obs)
        .run()
        .unwrap();
    assert_eq!(res.vertex_values, want, "survivor finishes the exact run");
    assert_eq!(res.stats.evictions, 1, "one device lost, one eviction");
    assert_eq!(res.stats.faults_injected, 1, "loss counted once");
    assert_eq!(
        sink.recorded().recovery_decisions() as u64,
        res.stats.faults_injected,
        "one recovery decision per injected fault"
    );
}

#[test]
fn multi_gpu_transient_faults_recover_bit_identical() {
    let l = multi_layout();
    let want = GraphSession::new(&l, platform(), on_gpus(2))
        .query(&Cc)
        .run()
        .unwrap()
        .vertex_values;
    let mut opts = on_gpus(2);
    opts.devices[1].fault_plan = FaultPlan::none().fail_h2d(0, 1).fail_d2h(2, 1);
    let (obs, sink) = Observer::recording();
    let res = GraphSession::new(&l, platform(), opts)
        .query(&Cc)
        .with_observer(obs)
        .run()
        .unwrap();
    assert_eq!(res.vertex_values, want);
    assert_eq!(res.stats.evictions, 0);
    assert_eq!(res.stats.faults_injected, 2);
    assert_eq!(
        sink.recorded().recovery_decisions() as u64,
        res.stats.faults_injected
    );
}

/// The recovery-relevant slice of a single-GPU run: elapsed ns, copy ops,
/// kernel launches, H2D bytes, rollbacks, recovered retries, host fallback.
fn recovery_timeline(s: &RunStats) -> (u64, u64, u64, u64, u64, u64, bool) {
    (
        s.elapsed.as_nanos(),
        s.copy_ops,
        s.kernel_launches,
        s.bytes_h2d,
        s.rollbacks,
        s.recovered_retries,
        s.host_fallback,
    )
}

#[test]
fn faulted_single_gpu_timelines_are_pinned() {
    // How recovery is carried out may change; what it costs on the
    // simulated clock may not. Every value below must hold exactly.
    let dir = scratch("pinned");
    let cases = [
        (
            Options {
                devices: vec![FaultPlan::none().fail_h2d(5, 6).into()],
                ..Options::optimized()
            },
            (1_433_643, 144, 39, 2_304_042, 1, 5, false),
        ),
        (
            Options {
                devices: vec![FaultPlan::none().fail_h2d(5, 6).into()],
                ..durable_opts(&dir, 1)
            },
            (1_433_643, 144, 39, 2_304_042, 1, 5, false),
        ),
        (
            Options {
                devices: vec![mid_run_loss().into()],
                ..Options::optimized()
            },
            (1_088_659, 73, 21, 1_214_464, 0, 0, true),
        ),
        (
            Options {
                devices: vec![FaultPlan::from_seed(42).into()],
                ..Options::optimized()
            },
            (1_074_537, 135, 41, 2_140_158, 0, 3, false),
        ),
    ];
    let layout = small_graph();
    let want = baseline();
    for (i, (opts, pinned)) in cases.into_iter().enumerate() {
        let out = GraphSession::new(&layout, platform(), opts)
            .query(&Cc)
            .run()
            .unwrap();
        assert_eq!(out.vertex_values, want, "case {i}");
        assert_eq!(recovery_timeline(&out.stats), pinned, "case {i}");
    }
}

#[test]
fn faulted_multi_gpu_timelines_are_pinned() {
    // (device, plan, (elapsed ns, exchange bytes, evictions)), held
    // exactly like the single-GPU pins above.
    let l = multi_layout();
    let cases = [
        (
            1,
            FaultPlan::none().fail_h2d(0, 1).fail_d2h(2, 1),
            (2_979_211, 41_184, 0),
        ),
        (
            0,
            FaultPlan::profile("device-loss", 0).unwrap(),
            (4_147_879, 40_960, 1),
        ),
    ];
    for (device, plan, pinned) in cases {
        let mut opts = on_gpus(2);
        opts.devices[device].fault_plan = plan;
        let (obs, sink) = Observer::recording();
        let s = GraphSession::new(&l, platform(), opts)
            .query(&Cc)
            .with_observer(obs)
            .run()
            .unwrap()
            .stats;
        assert_eq!(
            (s.elapsed.as_nanos(), s.exchange_bytes, s.evictions),
            pinned,
            "fault on device {device}"
        );
        // The `engine` snapshot sums every device's registry, so retries
        // on device 1 are counted there too.
        let rec = sink.recorded();
        let (_, engine) = rec.snapshots.iter().find(|(n, _)| n == "engine").unwrap();
        let retries = rec
            .decisions
            .iter()
            .filter(|d| matches!(d, Decision::FaultRetry { .. }))
            .count() as u64;
        assert_eq!(engine.counter("engine.fault_retries"), retries);
        assert!(device == 0 || retries > 0, "device 1's faults are retried");
    }
}

fn shard_skips(rec: &Recorded) -> Vec<(u32, u32)> {
    rec.decisions
        .iter()
        .filter_map(|d| match d {
            Decision::ShardSkip {
                iteration, shard, ..
            } => Some((*iteration, *shard)),
            _ => None,
        })
        .collect()
}

fn rollback_iterations(rec: &Recorded) -> Vec<u32> {
    rec.decisions
        .iter()
        .filter_map(|d| match d {
            Decision::Rollback { iteration, .. } => Some(*iteration),
            _ => None,
        })
        .collect()
}

/// How many iterations fed the `engine.frontier_size` histogram.
fn frontier_observations(rec: &Recorded) -> u64 {
    let (_, engine) = rec
        .snapshots
        .iter()
        .find(|(scope, _)| scope == "engine")
        .expect("engine metrics snapshot");
    engine
        .histograms
        .iter()
        .find(|(name, _)| name == "engine.frontier_size")
        .map_or(0, |(_, h)| h.count)
}

#[test]
fn a_replayed_iteration_is_not_recomputed() {
    // A device small enough that BFS on the chaos graph runs sharded, so
    // its opening iterations skip shards. H2D op 0 is the initial vertex
    // upload; ops 1-4 fail the first shard copy of iteration 0 past the
    // retry budget, forcing a rollback inside that iteration.
    let layout = small_graph();
    let run = |plan: FaultPlan| {
        let (obs, sink) = Observer::recording();
        let out = GraphSession::new(
            &layout,
            Platform::paper_node_scaled(65536),
            Options {
                devices: vec![plan.into()],
                ..Options::optimized()
            },
        )
        .query(&Bfs(0))
        .with_observer(obs)
        .run()
        .unwrap();
        (out, sink.recorded())
    };
    let (clean, clean_rec) = run(FaultPlan::none());
    let (faulted, rec) = run(FaultPlan::none().fail_h2d(1, 4));
    assert_eq!(rollback_iterations(&rec), vec![0]);
    assert!(
        shard_skips(&clean_rec).iter().any(|&(it, _)| it == 0),
        "the replayed iteration must skip shards"
    );
    assert_eq!(faulted.vertex_values, clean.vertex_values);
    assert_eq!(shard_skips(&rec), shard_skips(&clean_rec));
    assert_eq!(faulted.stats.per_iteration, clean.stats.per_iteration);
    assert_eq!(
        frontier_observations(&rec),
        frontier_observations(&clean_rec)
    );

    // The same on two GPUs, with the rollback inside iteration 0.
    let l = multi_layout();
    let run = |plan: FaultPlan| {
        let mut opts = on_gpus(2);
        opts.devices[0].fault_plan = plan;
        let (obs, sink) = Observer::recording();
        let out = GraphSession::new(&l, platform(), opts)
            .query(&Bfs(0))
            .with_observer(obs)
            .run()
            .unwrap();
        (out, sink.recorded())
    };
    let (clean, clean_rec) = run(FaultPlan::none());
    let (faulted, rec) = run(FaultPlan::none().fail_h2d(1, 4));
    assert_eq!(rollback_iterations(&rec), vec![0]);
    assert!(shard_skips(&clean_rec).iter().any(|&(it, _)| it == 0));
    assert_eq!(faulted.vertex_values, clean.vertex_values);
    assert_eq!(shard_skips(&rec), shard_skips(&clean_rec));
    assert_eq!(faulted.stats.per_iteration, clean.stats.per_iteration);
}

// ---------------------------------------------------------------------------
// Memory pressure: the governor must turn capped device memory into graceful
// degradation (residency drops, shard splits, chunked transfers, host shards)
// with bit-identical results and exactly one decision-log entry per response.
// See docs/MEMORY.md for the escalation ladder these tests pin down.
// ---------------------------------------------------------------------------

/// The partition the engine computes for `p` on the chaos platform (same
/// size model, same default K=2), so caps can be derived from the real
/// static/shard footprints.
fn engine_plan<P: GasProgram>(p: &P, layout: &GraphLayout) -> PartitionPlan {
    let plat = platform();
    let sizes = SizeModel {
        vertex_value: std::mem::size_of::<P::VertexValue>() as u64,
        gather: std::mem::size_of::<P::Gather>() as u64,
        edge_value: std::mem::size_of::<P::EdgeValue>() as u64,
        has_gather: p.has_gather(),
        has_scatter: p.has_scatter(),
    };
    plan_partition(layout, &sizes, &plat.device, &plat.pcie, 2, None).unwrap()
}

/// Device capacity granting the static buffers plus `pct`% of the planned
/// in-flight shard footprint (`K × max_shard_bytes`) — the "largest shard
/// footprint" profiles of the memory-pressure sweep.
fn cap_at(plan: &PartitionPlan, pct: u64) -> u64 {
    plan.static_bytes + plan.concurrent as u64 * plan.max_shard_bytes * pct / 100
}

/// Run `p` with an optional device-memory cap, recording decisions.
fn run_capped<P: GasProgram>(
    p: P,
    layout: &GraphLayout,
    cap: Option<u64>,
) -> (Vec<P::VertexValue>, RunStats, Recorded) {
    let mut opts = Options::optimized();
    if let Some(c) = cap {
        opts = opts.with_mem_cap(c);
    }
    let (obs, sink) = Observer::recording();
    let out = GraphSession::new(layout, platform(), opts)
        .query(&p)
        .with_observer(obs)
        .run()
        .unwrap();
    (out.vertex_values, out.stats, sink.recorded())
}

/// Oracle-vs-capped check for one program at one pressure profile.
fn assert_capped_bit_identical<P: GasProgram, F: Fn() -> P>(make: F, layout: &GraphLayout, pct: u64)
where
    P::VertexValue: PartialEq + std::fmt::Debug,
{
    let name = make().name();
    let plan = engine_plan(&make(), layout);
    let (want, _, _) = run_capped(make(), layout, None);
    let (got, stats, rec) = run_capped(make(), layout, Some(cap_at(&plan, pct)));
    assert_eq!(got, want, "{name} at {pct}% shard footprint");
    // Governor responses are memory decisions, never recovery decisions:
    // the chaos invariant (one recovery decision per injected fault) must
    // hold untouched, here with zero faults.
    assert_eq!(stats.faults_injected, 0, "{name} at {pct}%");
    assert_eq!(rec.recovery_decisions(), 0, "{name} at {pct}%");
    // Exactly one decision-log entry per governor response.
    assert_eq!(
        rec.memory_decisions() as u64,
        stats.governor_decisions(),
        "{name} at {pct}%: one log entry per response"
    );
}

#[test]
fn memory_pressure_profiles_stay_bit_identical_for_all_algorithms() {
    let unweighted = small_graph();
    let weighted = GraphLayout::build(
        &gen::with_random_weights(gen::uniform(512, 4096, 3), 16.0, 9).symmetrize(),
    );
    for pct in [100u64, 50, 25, 10] {
        assert_capped_bit_identical(|| Cc, &unweighted, pct);
        assert_capped_bit_identical(|| Bfs(0), &unweighted, pct);
        assert_capped_bit_identical(|| Pr, &unweighted, pct);
        assert_capped_bit_identical(|| Sssp(0), &weighted, pct);
    }
}

#[test]
fn unconstrained_runs_make_no_governor_decisions() {
    let layout = small_graph();
    let (want, clean, rec) = run_capped(Cc, &layout, None);
    assert_eq!(clean.governor_decisions(), 0);
    assert_eq!(rec.memory_decisions(), 0);
    // A cap at full nominal capacity is indistinguishable from no cap.
    let cap = platform().device.mem_capacity;
    let (got, capped, rec) = run_capped(Cc, &layout, Some(cap));
    assert_eq!(got, want);
    assert_eq!(
        capped.governor_decisions(),
        0,
        "ample capacity, no responses"
    );
    assert_eq!(rec.memory_decisions(), 0);
    assert_eq!(
        clean.elapsed, capped.elapsed,
        "zero cost when unconstrained"
    );
}

#[test]
fn shard_splits_emit_exactly_one_decision_each() {
    let layout = small_graph();
    let plan = engine_plan(&Cc, &layout);
    // Room for the static buffers plus half of one shard slot: the
    // governor must drop to K=1 and split until every shard fits.
    let cap = plan.static_bytes + plan.max_shard_bytes / 2;
    let (want, _, _) = run_capped(Cc, &layout, None);
    let (got, stats, rec) = run_capped(Cc, &layout, Some(cap));
    assert_eq!(got, want);
    assert!(stats.shard_splits > 0, "cap must force splitting");
    let split_decisions = rec
        .decisions
        .iter()
        .filter(|d| matches!(d, Decision::ShardSplit { .. }))
        .count() as u64;
    assert_eq!(
        split_decisions, stats.shard_splits,
        "one decision per split"
    );
    assert_eq!(
        stats.num_shards as u64,
        plan.shards.len() as u64 + stats.shard_splits,
        "every split adds exactly one shard"
    );
}

/// A hub graph whose edge mass collapses onto one vertex: the governor can
/// split the hub off into a single-vertex shard but no further, so a cap
/// below that shard's footprint must escalate past splitting.
fn hub_graph() -> GraphLayout {
    let edges: Vec<(u32, u32)> = (0..4000u32).map(|i| (i % 511 + 1, 0)).collect();
    GraphLayout::build(&EdgeList::from_edges(512, edges).symmetrize())
}

#[test]
fn unsplittable_shards_fall_back_to_chunked_transfers() {
    let layout = hub_graph();
    let plan = engine_plan(&Cc, &layout);
    // Half the largest shard's bytes is still a viable staging buffer, so
    // the hub shard (unsplittable below its single vertex) must stream
    // through the bounded staging allocation in pieces.
    let cap = plan.static_bytes + plan.max_shard_bytes / 2;
    let (want, _, _) = run_capped(Cc, &layout, None);
    let (got, stats, rec) = run_capped(Cc, &layout, Some(cap));
    assert_eq!(got, want);
    assert!(stats.chunked_shards > 0, "hub shard must be chunked");
    assert!(stats.chunked_copies > 0, "chunked copies must be counted");
    let chunk_decisions = rec
        .decisions
        .iter()
        .filter(|d| matches!(d, Decision::ChunkedXfer { .. }))
        .count() as u64;
    assert_eq!(
        chunk_decisions, stats.chunked_shards,
        "one decision per chunked shard"
    );
    assert_eq!(rec.memory_decisions() as u64, stats.governor_decisions());
}

#[test]
fn terminal_pressure_degrades_to_host_shards() {
    let layout = hub_graph();
    let plan = engine_plan(&Cc, &layout);
    // Leave so little shard headroom that the unsplittable hub shard
    // cannot even be staged in chunks: the terminal degradation keeps the
    // shard's work on the host and the run still finishes bit-identical.
    let cap = plan.static_bytes + 3000;
    let (want, _, _) = run_capped(Cc, &layout, None);
    let (got, stats, rec) = run_capped(Cc, &layout, Some(cap));
    assert_eq!(got, want);
    assert!(stats.host_shards > 0, "hub shard must stay on the host");
    assert_eq!(rec.memory_decisions() as u64, stats.governor_decisions());
}

#[test]
fn impossible_cap_without_host_fallback_is_a_clean_alloc_error() {
    let layout = hub_graph();
    let plan = engine_plan(&Cc, &layout);
    for cap in [
        plan.static_bytes.saturating_sub(1),
        plan.static_bytes + 3000,
    ] {
        let res = GraphSession::new(
            &layout,
            platform(),
            Options {
                recovery: RecoveryPolicy::fail_fast(),
                ..Options::optimized().with_mem_cap(cap)
            },
        )
        .query(&Cc)
        .run();
        match res {
            Err(EngineError::Alloc(_)) => {}
            Err(e) => panic!("cap {cap}: wrong error {e}"),
            Ok(_) => panic!("cap {cap}: must not fit without host fallback"),
        }
    }
}

/// Both devices of a 2-GPU run capped below one slot of their largest
/// shard: no peer has headroom to redistribute to, so the ladder goes on
/// to reduce concurrency and split shards on each device — values
/// bit-identical, one decision per response.
#[test]
fn two_capped_gpus_descend_the_ladder_past_redistribution() {
    let l = multi_layout();
    // Two slots of many shards: both rungs past redistribution apply.
    let plat = Platform::paper_node_scaled(1 << 13);
    let sizes = SizeModel::for_program(&Cc);
    let plan = plan_partition(&l, &sizes, &plat.device, &plat.pcie, 2, None).unwrap();
    assert_eq!((plan.concurrent, plan.shards.len()), (2, 20));
    let cap = plan.static_bytes + plan.max_shard_bytes - 1;
    let want = GraphSession::new(&l, plat.clone(), on_gpus(2))
        .query(&Cc)
        .run()
        .unwrap();
    let (obs, sink) = Observer::recording();
    let got = GraphSession::new(&l, plat, on_gpus(2).with_mem_cap(cap))
        .query(&Cc)
        .with_observer(obs)
        .run()
        .unwrap();
    assert_eq!(got.vertex_values, want.vertex_values);
    let (s, rec) = (&got.stats, sink.recorded());
    assert_eq!(s.redistributions, 0, "no peer has headroom");
    assert!(s.shard_splits > 0, "the largest shards must split");
    let count = |f: fn(&Decision) -> bool| rec.decisions.iter().filter(|d| f(d)).count() as u64;
    let reduced = count(|d| {
        matches!(
            d,
            Decision::MemoryPressure {
                response: "reduce-concurrency",
                ..
            }
        )
    });
    assert_eq!(reduced, 1, "concurrency drops once, for both devices");
    assert_eq!(s.mem_pressure_events, reduced);
    assert_eq!(
        count(|d| matches!(d, Decision::ShardSplit { .. })),
        s.shard_splits
    );
    let chunked = count(|d| matches!(d, Decision::ChunkedXfer { .. }));
    assert_eq!(
        rec.memory_decisions() as u64,
        s.mem_pressure_events + s.shard_splits + chunked,
        "one decision per response"
    );
}

/// Splitting the one planned shard of a two-device run hands each right
/// half to the device owning fewer shard bytes, so both devices copy and
/// compute; the answer and the ladder's decisions stay the one-device
/// run's.
#[test]
fn split_halves_spread_over_two_capped_gpus() {
    let l = small_graph();
    let plat = Platform::paper_node();
    let sizes = SizeModel::for_program(&Bfs(0));
    let plan = plan_partition(&l, &sizes, &plat.device, &plat.pcie, 2, None).unwrap();
    assert_eq!(plan.shards.len(), 1, "needs a one-shard plan");
    let cap = plan.static_bytes + plan.max_shard_bytes / 3;
    let run = |gpus: usize| {
        let opts = Options {
            checkpoint_policy: common::durable(&scratch("split-halves")),
            ..on_gpus(gpus).with_mem_cap(cap)
        };
        let (obs, sink) = Observer::recording();
        let out = GraphSession::new(&l, plat.clone(), opts)
            .query(&Bfs(0))
            .with_observer(obs)
            .run()
            .unwrap();
        (out, sink.recorded().memory_decisions())
    };
    let ((one, one_decisions), (two, two_decisions)) = (run(1), run(2));
    assert_eq!(two.vertex_values, one.vertex_values);
    assert!(two.stats.state_fingerprint.is_some());
    assert_eq!(two.stats.state_fingerprint, one.stats.state_fingerprint);
    assert_eq!((two.stats.shard_splits, two_decisions), (3, 5));
    assert_eq!((one.stats.shard_splits, one_decisions), (3, 5));
    for (d, busy) in two.stats.per_gpu_memcpy.iter().enumerate() {
        assert!(
            *busy > gr_sim::SimDuration::ZERO,
            "device {d} copied nothing"
        );
    }
}

// ---------------------------------------------------------------------------
// Durability: kill-restart resume from durable snapshots, corruption
// fallback, rollback under a durable policy, and the out-of-host-core
// spill rung. See docs/DURABILITY.md for the snapshot format and resume
// semantics these tests pin down.
// ---------------------------------------------------------------------------

use graphreduce::{CheckpointPolicy, SnapshotError};

fn durable_opts(dir: &std::path::Path, every: u32) -> Options {
    Options {
        checkpoint_policy: CheckpointPolicy::durable(dir, every),
        ..Options::optimized()
    }
}

#[test]
fn bfs_kill_restart_resumes_bit_identical() {
    assert_kill_restart_family(Bfs(0), &small_graph(), 1, "bfs");
}

#[test]
fn pagerank_kill_restart_resumes_bit_identical() {
    assert_kill_restart_family(Pr, &small_graph(), 1, "pr");
}

#[test]
fn corrupted_latest_snapshot_falls_back_to_previous_intact_one() {
    let layout = small_graph();
    let dir = scratch("corrupt");
    let oracle = GraphSession::new(&layout, platform(), durable_opts(&dir, 1))
        .query(&Cc)
        .run()
        .unwrap();
    // Flip one bit in the newest snapshot: resume must silently fall back
    // to the previous intact file and still replay to the exact answer.
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "grck"))
        .collect();
    files.sort();
    assert!(files.len() >= 2, "retention must keep a fallback snapshot");
    let newest = files.last().unwrap();
    let mut bytes = std::fs::read(newest).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(newest, &bytes).unwrap();
    let out = GraphSession::new(&layout, platform(), durable_opts(&dir, 1))
        .query(&Cc)
        .resume(&dir)
        .unwrap();
    assert_eq!(out.vertex_values, oracle.vertex_values);
    assert_eq!(out.stats.state_fingerprint, oracle.stats.state_fingerprint);
    assert_eq!(out.stats.checkpoint_restores, 1);
}

/// FNV-1a 64, the frame checksum, so a test can forge a field and
/// reseal the file (docs/DURABILITY.md).
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn forged_counts_under_a_valid_checksum_are_typed_errors() {
    // A real CC snapshot with one count changed and its checksum
    // recomputed. Each forgery once got past the decoder: a short vertex
    // count resumed with 448 values, an iteration count of u32::MAX asked
    // for a 171 GB trace, and 2^40 zero-width edge values spun for minutes.
    let layout = small_graph();
    let dir = scratch("forged");
    GraphSession::new(&layout, platform(), durable_opts(&dir, 1))
        .query(&Cc)
        .run()
        .unwrap();
    let newest = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "grck"))
        .max()
        .expect("a snapshot was written");
    let good = std::fs::read(&newest).unwrap();
    // Magic, version, kind and flags (10 B), then the fingerprint: name
    // length u32 + name, graph u64, state u64, n u32, m u64; then the
    // iteration count u32.
    let name_len = u32::from_le_bytes(good[10..14].try_into().unwrap()) as usize;
    let n_at = 14 + name_len + 16;
    let (m_at, iters_at) = (n_at + 4, n_at + 12);
    assert_eq!(good[n_at..m_at], 512u32.to_le_bytes());
    let forgeries = [
        (n_at, 448u32.to_le_bytes().to_vec(), "vertex count"),
        (iters_at, u32::MAX.to_le_bytes().to_vec(), "iteration trace"),
        (m_at, (1u64 << 40).to_le_bytes().to_vec(), "edge count"),
    ];
    for (at, field, want) in forgeries {
        let mut bad = good.clone();
        bad[at..at + field.len()].copy_from_slice(&field);
        let end = bad.len() - 8;
        let sum = fnv1a(&bad[..end]);
        bad[end..].copy_from_slice(&sum.to_le_bytes());
        // The forged file is the only snapshot: no fallback can mask it.
        let only = scratch("forged-one");
        std::fs::write(only.join(newest.file_name().unwrap()), &bad).unwrap();
        let res = GraphSession::new(&layout, platform(), durable_opts(&only, 1))
            .query(&Cc)
            .resume(&only);
        match res {
            Err(EngineError::Snapshot(SnapshotError::FingerprintMismatch { field, .. }))
            | Err(EngineError::Snapshot(SnapshotError::ShortRead { what: field, .. })) => {
                assert_eq!(field, want)
            }
            Err(e) => panic!("{want}: wrong error {e}"),
            Ok(_) => panic!("{want}: a forged snapshot must not resume"),
        }
    }
}

#[test]
fn wrong_graph_fingerprint_fails_fast_on_resume() {
    let dir = scratch("wrong-graph");
    GraphSession::new(&small_graph(), platform(), durable_opts(&dir, 1))
        .query(&Cc)
        .run()
        .unwrap();
    // Same algorithm, different graph: the snapshot must be rejected
    // before any state is trusted, not silently replayed onto the wrong
    // topology.
    let other = GraphLayout::build(&gen::uniform(512, 4096, 99).symmetrize());
    let res = GraphSession::new(&other, platform(), durable_opts(&dir, 1))
        .query(&Cc)
        .resume(&dir);
    match res {
        Err(EngineError::Snapshot(SnapshotError::FingerprintMismatch { field, .. })) => {
            assert_eq!(field, "graph fingerprint");
        }
        Err(e) => panic!("wrong error: {e}"),
        Ok(_) => panic!("resume must reject a snapshot of a different graph"),
    }
}

#[test]
fn resume_from_empty_directory_is_a_typed_no_snapshot_error() {
    let dir = scratch("empty");
    let res = GraphSession::new(&small_graph(), platform(), durable_opts(&dir, 1))
        .query(&Cc)
        .resume(&dir);
    match res {
        Err(EngineError::Snapshot(SnapshotError::NoSnapshot { .. })) => {}
        Err(e) => panic!("wrong error: {e}"),
        Ok(_) => panic!("resume needs a snapshot to resume from"),
    }
}

#[test]
fn rollback_under_a_durable_policy_replays_exactly() {
    // A durable snapshot covers every boundary here, yet a rollback reads
    // nothing back: it replays the device timeline over host results that
    // never moved.
    let layout = small_graph();
    let want = baseline();
    let dir = scratch("durable-rollback");
    // Start the fault window at the 5th H2D so it lands on a mid-iteration
    // shard copy rather than `init`'s single upload.
    let out = GraphSession::new(
        &layout,
        platform(),
        Options {
            devices: vec![FaultPlan::none().fail_h2d(5, 6).into()],
            ..durable_opts(&dir, 1)
        },
    )
    .query(&Cc)
    .run()
    .unwrap();
    assert_eq!(out.vertex_values, want, "rollback replays exactly");
    assert!(
        out.stats.rollbacks >= 1,
        "retry budget must have been exceeded"
    );
    assert!(out.stats.checkpoint_bytes_written > 0);
}

#[test]
fn durable_checkpointing_leaves_results_and_timeline_untouched() {
    // Snapshot writes happen on the host side of the wall: the simulated
    // device timeline, op counts, and results must be byte-identical to a
    // run without durability.
    let layout = small_graph();
    let clean = GraphSession::new(&layout, platform(), Options::optimized())
        .query(&Cc)
        .run()
        .unwrap();
    let dir = scratch("timeline");
    let durable = GraphSession::new(&layout, platform(), durable_opts(&dir, 2))
        .query(&Cc)
        .run()
        .unwrap();
    assert_eq!(clean.vertex_values, durable.vertex_values);
    assert_eq!(
        clean.stats.elapsed, durable.stats.elapsed,
        "no sim-time cost"
    );
    assert_eq!(clean.stats.copy_ops, durable.stats.copy_ops);
    assert_eq!(clean.stats.kernel_launches, durable.stats.kernel_launches);
    assert!(
        durable.stats.checkpoint_writes > 0,
        "snapshots were written"
    );
    assert_eq!(clean.stats.checkpoint_writes, 0);
    assert_eq!(clean.stats.state_fingerprint, None, "zero cost when off");
}

// ---------------------------------------------------------------------------
// Out-of-host-core: with a shard store plugged in, shards that exceed host
// RAM spill to the store and stream back on demand — bit-identical to the
// unconstrained run, with exactly one decision per spill and per load.
// ---------------------------------------------------------------------------

/// Platform whose host RAM is far below the graph's host footprint, with
/// a device small enough to force sharding.
fn host_capped_platform() -> Platform {
    let mut plat = platform();
    plat.host.mem_capacity = 100_000;
    plat
}

fn assert_spill_run_bit_identical(opts: Options, tag: &str) {
    let layout = small_graph();
    let want = baseline();
    let (obs, sink) = Observer::recording();
    let out = GraphSession::new(&layout, host_capped_platform(), opts)
        .query(&Cc)
        .with_observer(obs)
        .run()
        .unwrap();
    assert_eq!(
        out.vertex_values, want,
        "{tag}: spill must not change results"
    );
    assert!(
        out.stats.spilled_shards > 0,
        "{tag}: host cap must force spilling"
    );
    assert!(out.stats.spilled_bytes > 0, "{tag}");
    assert!(
        out.stats.spill_loads > 0,
        "{tag}: spilled shards must stream back"
    );
    let rec = sink.recorded();
    let spills = rec
        .decisions
        .iter()
        .filter(|d| matches!(d, Decision::ShardSpill { .. }))
        .count() as u64;
    let loads = rec
        .decisions
        .iter()
        .filter(|d| matches!(d, Decision::ShardLoad { .. }))
        .count() as u64;
    assert_eq!(
        spills, out.stats.spilled_shards,
        "{tag}: one decision per spill"
    );
    assert_eq!(loads, out.stats.spill_loads, "{tag}: one decision per load");
    // Stall accounting: a streamed-back shard is charged exactly one
    // spill.read per load — never one per stream-in (the old
    // double-count) and never the blanket ssd.read on top.
    let engine = rec
        .snapshots
        .iter()
        .find(|(scope, _)| scope == "engine")
        .map(|(_, snap)| snap)
        .expect("engine metrics snapshot");
    assert_eq!(
        engine.counter("engine.spill_stalls"),
        out.stats.spill_loads,
        "{tag}: one spill.read stall per load"
    );
    assert_eq!(
        engine.counter("engine.ssd_stalls"),
        0,
        "{tag}: spill-armed runs never also pay the blanket ssd.read"
    );
    // Durability decisions are a separate class: the governor invariant
    // (one memory decision per response) and the chaos invariant (one
    // recovery decision per fault) both hold untouched.
    assert_eq!(
        rec.memory_decisions() as u64,
        out.stats.governor_decisions(),
        "{tag}"
    );
    assert_eq!(rec.recovery_decisions(), 0, "{tag}");
}

#[test]
fn host_capped_run_spills_through_file_store_bit_identical() {
    let dir = scratch("spill");
    assert_spill_run_bit_identical(Options::optimized().with_spill_dir(&dir), "file-store");
    // The spill rung really hit disk: framed shard blobs exist.
    let blobs = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "grsh"))
        .count();
    assert!(blobs > 0, "file store must leave shard blobs on disk");
}

#[test]
fn all_devices_lost_surfaces_device_lost() {
    // Losing every device follows `Options::recovery`: without host
    // fallback the run fails.
    let l = multi_layout();
    let loss = FaultPlan::profile("device-loss", 0).unwrap();
    let opts = Options {
        devices: vec![loss.clone().into(), loss.into()],
        recovery: RecoveryPolicy {
            host_fallback: false,
            ..RecoveryPolicy::default()
        },
        ..Options::optimized()
    };
    let res = GraphSession::new(&l, platform(), opts).query(&Cc).run();
    match res {
        Err(EngineError::DeviceLost) => {}
        Err(e) => panic!("wrong error: {e}"),
        Ok(_) => panic!("run must not survive losing every device"),
    }
}
