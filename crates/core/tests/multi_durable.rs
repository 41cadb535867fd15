//! Multi-GPU durable recovery: checkpoints a run on several devices
//! takes at BSP barrier boundaries must resume bit-identically — same
//! vertex values, same per-iteration trace, same state fingerprint —
//! including after a process kill, on *fewer* devices than the run was
//! checkpointed on, and under delta snapshots. Durable writes are
//! host-side only: device timelines and barrier counts stay untouched.
//!
//! See docs/DURABILITY.md (multi-GPU resume semantics). The kill-restart
//! harness is shared with tests/chaos.rs (tests/common/mod.rs).

mod common;

use common::{
    assert_kill_restart_family, durable, kill_then_resume, multi_layout, on_gpus, platform, scratch,
};
use gr_observe::{Decision, Observer};
use gr_sim::FaultPlan;
use graphreduce::testprog::{Bfs, Cc, Pr, Sssp};
use graphreduce::{CheckpointPolicy, EngineError, GasProgram, GraphSession, Options, RunResult};

/// `p` on `gpus` devices of the common platform, under `policy`.
fn run<P: GasProgram>(
    p: P,
    layout: &gr_graph::GraphLayout,
    gpus: usize,
    policy: CheckpointPolicy,
) -> RunResult<P> {
    let opts = Options {
        checkpoint_policy: policy,
        ..on_gpus(gpus)
    };
    GraphSession::new(layout, platform(), opts)
        .query(&p)
        .run()
        .unwrap()
}

#[test]
fn bfs_multi_kill_restart_resumes_bit_identical() {
    assert_kill_restart_family(Bfs(0), &multi_layout(), 2, "bfs-x2");
}

#[test]
fn cc_multi_kill_restart_resumes_bit_identical() {
    assert_kill_restart_family(Cc, &multi_layout(), 4, "cc-x4");
}

#[test]
fn resume_on_fewer_devices_redistributes_and_matches() {
    // Checkpoint on 4 GPUs, come back up with 2: the recorded placement
    // is advisory — ownership is re-derived for the surviving device set
    // and the answer matches an uninterrupted 2-GPU run exactly.
    let layout = multi_layout();
    let oracle = GraphSession::new(&layout, platform(), on_gpus(2))
        .query(&Cc)
        .run()
        .unwrap();
    let (out, _) = kill_then_resume(&Cc, &layout, (4, 2), durable, 2, "shrink");
    assert_eq!(out.vertex_values, oracle.vertex_values);
    assert_eq!(out.stats.num_gpus(), 2, "resumed run reports its own width");
    assert_eq!(out.stats.iterations, oracle.stats.iterations);
    assert_eq!(out.stats.checkpoint_restores, 1);
}

#[test]
fn resume_emits_exactly_one_restore_decision() {
    // The kill fault sits on device 1: a process kill ends the whole run,
    // whichever device's plan carries it.
    let layout = multi_layout();
    let dir = scratch("one-restore");
    let mut opts = Options {
        checkpoint_policy: durable(&dir),
        ..on_gpus(2)
    };
    opts.devices[1].fault_plan = FaultPlan::none().kill_at_iteration(2);
    let res = GraphSession::new(&layout, platform(), opts.clone())
        .query(&Cc)
        .run();
    assert!(matches!(res, Err(EngineError::Killed { iteration: 2 })));
    opts.devices[1].fault_plan = FaultPlan::none();
    let (obs, sink) = Observer::recording();
    let out = GraphSession::new(&layout, platform(), opts)
        .query(&Cc)
        .with_observer(obs)
        .resume(&dir)
        .unwrap();
    let rec = sink.recorded();
    let restores = rec
        .decisions
        .iter()
        .filter(|d| matches!(d, Decision::CheckpointRestore { .. }))
        .count() as u64;
    assert_eq!(restores, 1);
    let writes = rec
        .decisions
        .iter()
        .filter(|d| matches!(d, Decision::CheckpointWrite { .. }))
        .count() as u64;
    assert_eq!(
        writes, out.stats.checkpoint_writes,
        "one decision per write"
    );
    assert!(out.stats.checkpoint_bytes_written > 0);
}

#[test]
fn durable_checkpointing_leaves_multi_timeline_untouched() {
    // Snapshot writes are host-side: elapsed virtual time, exchange
    // bytes, and results must be byte-identical with and without them.
    let layout = multi_layout();
    let clean = run(Cc, &layout, 2, CheckpointPolicy::InMemoryOnly);
    let durable_run = run(Cc, &layout, 2, durable(&scratch("timeline")));
    assert_eq!(clean.vertex_values, durable_run.vertex_values);
    assert_eq!(clean.stats.elapsed, durable_run.stats.elapsed);
    assert_eq!(clean.stats.exchange_bytes, durable_run.stats.exchange_bytes);
    assert!(durable_run.stats.checkpoint_writes > 0);
    assert_eq!(clean.stats.checkpoint_writes, 0);
    assert_eq!(clean.stats.state_fingerprint, None, "zero cost when off");
}

fn durable_delta(dir: &std::path::Path) -> CheckpointPolicy {
    CheckpointPolicy::durable_delta(dir, 1, 4)
}

/// Delta-vs-full differential for one program: identical results and
/// fingerprints, and the delta run's on-disk footprint splits into full
/// + delta bytes that sum to the total.
fn assert_delta_matches_full<P: GasProgram + Clone>(p: P, tag: &str) -> (u64, u64)
where
    P::VertexValue: PartialEq + std::fmt::Debug,
{
    let layout = multi_layout();
    let full = run(
        p.clone(),
        &layout,
        2,
        durable(&scratch(&format!("{tag}-full"))),
    );
    let delta_dir = scratch(&format!("{tag}-delta"));
    let delta = run(p.clone(), &layout, 2, durable_delta(&delta_dir));
    assert_eq!(full.vertex_values, delta.vertex_values, "{tag}");
    assert_eq!(
        full.stats.state_fingerprint, delta.stats.state_fingerprint,
        "{tag}"
    );
    assert_eq!(
        full.stats.iterations, delta.stats.iterations,
        "{tag}: snapshot cadence must not change the computation"
    );
    assert!(delta.stats.checkpoint_delta_writes > 0, "{tag}");
    assert_eq!(
        delta.stats.checkpoint_full_bytes + delta.stats.checkpoint_delta_bytes,
        delta.stats.checkpoint_bytes_written,
        "{tag}: full + delta bytes account for every byte written"
    );
    // A kill mid-run must restore through the delta chain (one full +
    // one delta) to the exact same answer.
    let kill_at = full.stats.iterations - 1;
    let tag_kill = format!("{tag}-delta-kill");
    let (resumed, _) = kill_then_resume(&p, &layout, (2, 2), durable_delta, kill_at, &tag_kill);
    assert_eq!(resumed.vertex_values, full.vertex_values, "{tag}");
    assert_eq!(
        resumed.stats.state_fingerprint, full.stats.state_fingerprint,
        "{tag}: delta-chain resume lands on the same fingerprint"
    );
    (
        delta.stats.checkpoint_full_bytes
            / delta
                .stats
                .checkpoint_writes
                .saturating_sub(delta.stats.checkpoint_delta_writes)
                .max(1),
        delta.stats.checkpoint_delta_bytes / delta.stats.checkpoint_delta_writes.max(1),
    )
}

#[test]
fn delta_snapshots_match_fulls_across_algorithms() {
    assert_delta_matches_full(Cc, "cc");
    assert_delta_matches_full(Sssp(0), "sssp");
    assert_delta_matches_full(Pr, "pr");
}

#[test]
fn sparse_frontier_deltas_are_measurably_smaller_than_fulls() {
    // BFS touches a shrinking frontier each iteration: a delta snapshot
    // serializes only the dirty rows, so its average on-disk size must
    // land well under the average full snapshot.
    let (avg_full, avg_delta) = assert_delta_matches_full(Bfs(0), "bfs");
    assert!(
        avg_delta < avg_full / 2,
        "delta snapshots must be measurably smaller: avg delta {avg_delta} vs avg full {avg_full}"
    );
}

#[test]
fn multi_checkpoint_write_faults_degrade_gracefully() {
    // I/O faults on the checkpoint path: absorbed faults retry,
    // exhaustion skips the write, and the run still converges to the
    // clean answer with one decision per injected fault.
    let layout = multi_layout();
    let clean = run(Cc, &layout, 2, CheckpointPolicy::InMemoryOnly);
    let dir = scratch("multi-io");
    let plan = FaultPlan::none()
        .fail_checkpoint_write(0, 2)
        .torn_checkpoint_write(3, 1);
    let injected = plan.io_fault_count();
    let mut opts = Options {
        checkpoint_policy: durable(&dir),
        ..on_gpus(2)
    };
    opts.devices[0].fault_plan = plan;
    let (obs, sink) = Observer::recording();
    let out = GraphSession::new(&layout, platform(), opts)
        .query(&Cc)
        .with_observer(obs)
        .run()
        .unwrap();
    assert_eq!(out.vertex_values, clean.vertex_values);
    assert_eq!(out.stats.storage_retries, injected, "all faults absorbed");
    assert_eq!(out.stats.checkpoints_skipped, 0);
    assert_eq!(
        sink.recorded().storage_decisions() as u64,
        injected,
        "one decision per injected I/O fault"
    );
    // The hardened writes stayed durable: resume replays exactly.
    let resumed = GraphSession::new(
        &layout,
        platform(),
        Options {
            checkpoint_policy: durable(&dir),
            ..on_gpus(2)
        },
    )
    .query(&Cc)
    .resume(&dir)
    .unwrap();
    assert_eq!(resumed.vertex_values, clean.vertex_values);
}

#[test]
fn multi_snapshots_carry_the_placement_frame() {
    // The files a multi run writes record the placement in the frame
    // header; a one-device run accepts them too (placement is advisory),
    // so a multi checkpoint can even be resumed on one GPU.
    let layout = multi_layout();
    let dir = scratch("grcm");
    let multi = run(Cc, &layout, 2, durable(&dir));
    let newest = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "grck"))
        .max()
        .expect("a snapshot was written");
    let bytes = std::fs::read(&newest).unwrap();
    assert_eq!(&bytes[..4], b"GRFR", "the one frame magic");
    // Byte 9 is the flags byte; bit 0 says a placement map follows the
    // fixed header fields (docs/DURABILITY.md).
    assert_eq!(bytes[9] & 1, 1, "multi snapshots carry the placement");
    let single = GraphSession::new(
        &layout,
        platform(),
        Options {
            checkpoint_policy: durable(&dir),
            ..Options::optimized()
        },
    )
    .query(&Cc)
    .resume(&dir)
    .unwrap();
    assert_eq!(single.vertex_values, multi.vertex_values);
    assert_eq!(
        single.stats.state_fingerprint,
        multi.stats.state_fingerprint
    );
}
