//! Storage-fault chaos: injected I/O faults on the spill and durable-
//! checkpoint paths must be absorbed by capped retries or degrade
//! gracefully — never change results, never corrupt a snapshot, and
//! leave exactly one decision-log entry per injected fault. Disarmed
//! plans must be byte-identical to runs without this machinery.
//!
//! See docs/FAULTS.md (I/O fault model) and docs/DURABILITY.md (the
//! degradation ladder these tests pin down).

use gr_graph::{gen, GraphLayout};
use gr_observe::{Decision, Observer, Recorded};
use gr_sim::Platform;
use graphreduce::testprog::Cc;
use graphreduce::{CheckpointPolicy, EngineError, FaultPlan, GraphSession, Options, RunResult};

fn small_graph() -> GraphLayout {
    GraphLayout::build(&gen::uniform(512, 4096, 3).symmetrize())
}

fn platform() -> Platform {
    Platform::paper_node_scaled(16384)
}

/// Host RAM far below the graph's footprint: every run spills shards.
fn host_capped_platform() -> Platform {
    let mut plat = platform();
    plat.host.mem_capacity = 100_000;
    plat
}

fn scratch(tag: &str) -> std::path::PathBuf {
    static N: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = N.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let d = std::env::temp_dir().join(format!("gr-iofault-{tag}-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn oracle() -> RunResult<Cc> {
    GraphSession::new(&small_graph(), host_capped_platform(), spill_opts())
        .query(&Cc)
        .run()
        .unwrap()
}

fn spill_opts() -> Options {
    Options::optimized().with_spill_dir(scratch("spill"))
}

/// Run CC on the host-capped platform under `opts`, asserting the
/// one-decision-per-injected-I/O-fault invariant.
fn run_io_faulted(opts: Options) -> (RunResult<Cc>, Recorded) {
    let layout = small_graph();
    let (obs, sink) = Observer::recording();
    let out = GraphSession::new(&layout, host_capped_platform(), opts)
        .query(&Cc)
        .with_observer(obs)
        .run()
        .unwrap();
    let rec = sink.recorded();
    (out, rec)
}

#[test]
fn transient_spill_faults_absorbed_bit_identical() {
    let want = oracle();
    let plan = FaultPlan::none()
        .fail_spill_write(0, 2)
        .fail_spill_read(0, 2);
    let injected = plan.io_fault_count();
    let (out, rec) = run_io_faulted(Options {
        devices: vec![plan.into()],
        ..spill_opts()
    });
    assert_eq!(out.vertex_values, want.vertex_values);
    assert_eq!(out.stats.spilled_shards, want.stats.spilled_shards);
    assert_eq!(out.stats.storage_retries, injected, "all faults absorbed");
    assert_eq!(out.stats.spill_restreams, 0);
    assert_eq!(
        rec.storage_decisions() as u64,
        injected,
        "one decision per injected fault"
    );
    assert!(rec
        .decisions
        .iter()
        .filter(|d| d.is_storage())
        .all(|d| matches!(d, Decision::StorageRetry { .. })));
}

#[test]
fn exhausted_spill_read_restreams_bit_identical() {
    let want = oracle();
    // 4 consecutive read faults exhaust the default 3-retry budget on the
    // first spilled-shard load: that load degrades to re-streaming the
    // shard's topology from the source graph.
    let plan = FaultPlan::none().fail_spill_read(0, 4);
    let injected = plan.io_fault_count();
    let (out, rec) = run_io_faulted(Options {
        devices: vec![plan.into()],
        ..spill_opts()
    });
    assert_eq!(
        out.vertex_values, want.vertex_values,
        "re-streaming must reproduce the exact shard"
    );
    assert_eq!(out.stats.spill_restreams, 1);
    assert_eq!(out.stats.storage_retries, injected - 1);
    assert_eq!(
        out.stats.spill_loads,
        want.stats.spill_loads - 1,
        "a re-streamed shard is not a store load"
    );
    assert_eq!(rec.storage_decisions() as u64, injected);
    let degradations = rec
        .decisions
        .iter()
        .filter(|d| matches!(d, Decision::StorageDegraded { .. }))
        .count();
    assert_eq!(degradations, 1, "exactly one degradation decision");
}

#[test]
fn exhausted_spill_write_leaves_shard_host_resident() {
    let want = oracle();
    let plan = FaultPlan::none().fail_spill_write(0, 4);
    let injected = plan.io_fault_count();
    let (out, rec) = run_io_faulted(Options {
        devices: vec![plan.into()],
        ..spill_opts()
    });
    assert_eq!(out.vertex_values, want.vertex_values);
    assert_eq!(
        out.stats.spilled_shards,
        want.stats.spilled_shards - 1,
        "the abandoned write must not count as a spill"
    );
    assert_eq!(out.stats.storage_retries, injected - 1);
    assert_eq!(rec.storage_decisions() as u64, injected);
    assert!(matches!(
        rec.decisions.iter().find(|d| d.is_storage()).unwrap(),
        Decision::StorageRetry { .. }
    ));
}

#[test]
fn checkpoint_write_faults_are_retried_and_resume_still_works() {
    let layout = small_graph();
    let dir = scratch("ckpt-retry");
    let plan = FaultPlan::none().fail_checkpoint_write(0, 2);
    let injected = plan.io_fault_count();
    let (obs, sink) = Observer::recording();
    let out = GraphSession::new(
        &layout,
        platform(),
        Options {
            checkpoint_policy: CheckpointPolicy::durable(&dir, 1),
            devices: vec![plan.into()],
            ..Options::optimized()
        },
    )
    .query(&Cc)
    .with_observer(obs)
    .run()
    .unwrap();
    assert_eq!(out.stats.storage_retries, injected);
    assert_eq!(out.stats.checkpoints_skipped, 0);
    assert_eq!(sink.recorded().storage_decisions() as u64, injected);
    // The absorbed faults never reduced durable coverage: resume replays
    // to the identical answer.
    let resumed = GraphSession::new(
        &layout,
        platform(),
        Options {
            checkpoint_policy: CheckpointPolicy::durable(&dir, 1),
            ..Options::optimized()
        },
    )
    .query(&Cc)
    .resume(&dir)
    .unwrap();
    assert_eq!(resumed.vertex_values, out.vertex_values);
    assert_eq!(resumed.stats.state_fingerprint, out.stats.state_fingerprint);
}

#[test]
fn exhausted_checkpoint_write_skips_and_the_run_continues() {
    let layout = small_graph();
    let dir = scratch("ckpt-skip");
    // An endless checkpoint-fault window: every durable write exhausts
    // its retries and is skipped; the run itself must still converge.
    let plan = FaultPlan::none().fail_checkpoint_write(0, u64::MAX);
    let (obs, sink) = Observer::recording();
    let out = GraphSession::new(
        &layout,
        platform(),
        Options {
            checkpoint_policy: CheckpointPolicy::durable(&dir, 1),
            devices: vec![plan.into()],
            ..Options::optimized()
        },
    )
    .query(&Cc)
    .with_observer(obs)
    .run()
    .unwrap();
    let clean = GraphSession::new(&layout, platform(), Options::optimized())
        .query(&Cc)
        .run()
        .unwrap();
    assert_eq!(out.vertex_values, clean.vertex_values);
    assert!(out.stats.checkpoints_skipped > 0);
    assert_eq!(out.stats.checkpoint_writes, 0, "nothing reached disk");
    let rec = sink.recorded();
    let skips = rec
        .decisions
        .iter()
        .filter(|d| matches!(d, Decision::CheckpointSkipped { .. }))
        .count() as u64;
    assert_eq!(skips, out.stats.checkpoints_skipped);
    // One decision per injected fault: every retry plus every skip.
    assert_eq!(
        rec.storage_decisions() as u64,
        out.stats.storage_retries + out.stats.checkpoints_skipped
    );
    // No durable file ever appeared.
    let snapshots = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "grck"))
        .count();
    assert_eq!(snapshots, 0);
}

#[test]
fn torn_checkpoint_writes_never_install_a_corrupt_snapshot() {
    let layout = small_graph();
    let dir = scratch("torn");
    // Tear the first three checkpoint writes mid-file. Each retry must
    // install the complete bytes behind the rename barrier; the
    // truncated `.tmp` debris is invisible to the resume scanner.
    let plan = FaultPlan::none().torn_checkpoint_write(0, 3);
    let out = GraphSession::new(
        &layout,
        platform(),
        Options {
            checkpoint_policy: CheckpointPolicy::durable(&dir, 1),
            devices: vec![plan.into()],
            ..Options::optimized()
        },
    )
    .query(&Cc)
    .run()
    .unwrap();
    assert!(out.stats.checkpoint_writes > 0);
    let resumed = GraphSession::new(
        &layout,
        platform(),
        Options {
            checkpoint_policy: CheckpointPolicy::durable(&dir, 1),
            ..Options::optimized()
        },
    )
    .query(&Cc)
    .resume(&dir)
    .unwrap();
    assert_eq!(resumed.vertex_values, out.vertex_values);
    assert_eq!(resumed.stats.state_fingerprint, out.stats.state_fingerprint);
}

#[test]
fn disarmed_io_plan_is_byte_identical_to_no_plan() {
    let want = oracle();
    let (out, rec) = run_io_faulted(spill_opts());
    assert_eq!(out.vertex_values, want.vertex_values);
    assert_eq!(out.stats.elapsed, want.stats.elapsed);
    assert_eq!(out.stats.storage_retries, 0);
    assert_eq!(out.stats.spill_restreams, 0);
    assert_eq!(out.stats.checkpoints_skipped, 0);
    assert_eq!(rec.storage_decisions(), 0, "zero decisions when disarmed");
}

#[test]
fn io_fault_profiles_parse_and_recover_bit_identical() {
    let want = oracle();
    for profile in ["spill-io", "checkpoint-io"] {
        let plan = FaultPlan::profile(profile, 0).unwrap();
        assert!(plan.has_io_faults(), "{profile}");
        let injected = plan.io_fault_count();
        let dir = scratch(&format!("profile-{profile}"));
        let (obs, sink) = Observer::recording();
        let out = GraphSession::new(
            &small_graph(),
            host_capped_platform(),
            Options {
                checkpoint_policy: CheckpointPolicy::durable(&dir, 1),
                devices: vec![plan.into()],
                ..spill_opts()
            },
        )
        .query(&Cc)
        .with_observer(obs)
        .run()
        .unwrap();
        assert_eq!(out.vertex_values, want.vertex_values, "{profile}");
        assert_eq!(
            sink.recorded().storage_decisions() as u64,
            injected,
            "{profile}: one decision per injected fault"
        );
    }
}

#[test]
fn io_faults_never_touch_the_device_timeline() {
    // Storage faults live on the host side of the wall: retries and
    // degradations must not move the simulated clock.
    let want = oracle();
    let plan = FaultPlan::none()
        .fail_spill_read(0, 4)
        .fail_spill_write(0, 2);
    let (out, _) = run_io_faulted(Options {
        devices: vec![plan.into()],
        ..spill_opts()
    });
    assert_eq!(out.stats.elapsed, want.stats.elapsed);
    assert_eq!(out.stats.faults_injected, 0, "no device faults injected");
}

#[test]
fn kill_during_io_faults_still_resumes_exactly() {
    let layout = small_graph();
    let dir = scratch("kill-io");
    let clean = GraphSession::new(&layout, platform(), Options::optimized())
        .query(&Cc)
        .run()
        .unwrap();
    let res = GraphSession::new(
        &layout,
        platform(),
        Options {
            checkpoint_policy: CheckpointPolicy::durable(&dir, 1),
            devices: vec![FaultPlan::none()
                .torn_checkpoint_write(0, 1)
                .kill_at_iteration(2)
                .into()],
            ..Options::optimized()
        },
    )
    .query(&Cc)
    .run();
    assert!(matches!(res, Err(EngineError::Killed { iteration: 2 })));
    let resumed = GraphSession::new(
        &layout,
        platform(),
        Options {
            checkpoint_policy: CheckpointPolicy::durable(&dir, 1),
            ..Options::optimized()
        },
    )
    .query(&Cc)
    .resume(&dir)
    .unwrap();
    assert_eq!(resumed.vertex_values, clean.vertex_values);
    assert_eq!(resumed.stats.checkpoint_restores, 1);
}
