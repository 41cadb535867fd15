//! The kill-restart harness the durability suites share (`chaos.rs` and
//! `multi_durable.rs`): kill a durable run at an iteration boundary on
//! one device count, resume it from its snapshots on another, and hold
//! the resumed run to the uninterrupted oracle. See docs/DURABILITY.md.

use std::path::{Path, PathBuf};

use gr_graph::{gen, GraphLayout};
use gr_observe::{Decision, Observer, Recorded};
use gr_sim::{FaultPlan, Platform};
use graphreduce::{
    CheckpointPolicy, DeviceSpec, EngineError, GasProgram, GraphSession, Options, RunResult,
};

/// Out-of-core platform: shards stream over PCIe, so copy, launch and
/// alloc faults have real ops to land on, and several devices each own
/// shards.
pub fn platform() -> Platform {
    Platform::paper_node_scaled(1 << 14)
}

/// RMAT-11: on [`platform`] it plans many shards, so every device of a
/// 2- or 4-GPU run owns some.
pub fn multi_layout() -> GraphLayout {
    GraphLayout::build(&gen::rmat_g500(11, 30_000, 17).symmetrize())
}

/// Fresh scratch directory (no tempfile crate in the workspace).
pub fn scratch(tag: &str) -> PathBuf {
    static N: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = N.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let d = std::env::temp_dir().join(format!("gr-test-{tag}-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// The optimized options on `n` uncapped, fault-free devices.
pub fn on_gpus(n: usize) -> Options {
    Options {
        devices: vec![DeviceSpec::default(); n],
        ..Options::optimized()
    }
}

/// Snapshots every iteration into `dir`.
pub fn durable(dir: &Path) -> CheckpointPolicy {
    CheckpointPolicy::durable(dir, 1)
}

/// Kill `p` at boundary `kill_at` of a run on `gpus` devices that writes
/// snapshots under `policy`, then resume it on `resume_gpus` devices and
/// return the finished run with the resumed leg's recording.
pub fn kill_then_resume<P: GasProgram>(
    p: &P,
    layout: &GraphLayout,
    (gpus, resume_gpus): (usize, usize),
    policy: fn(&Path) -> CheckpointPolicy,
    kill_at: u32,
    tag: &str,
) -> (RunResult<P>, Recorded) {
    let dir = scratch(tag);
    let mut killed = Options {
        checkpoint_policy: policy(&dir),
        ..on_gpus(gpus)
    };
    killed.devices[0].fault_plan = FaultPlan::none().kill_at_iteration(kill_at);
    match GraphSession::new(layout, platform(), killed).query(p).run() {
        Err(EngineError::Killed { iteration }) => {
            assert_eq!(
                iteration, kill_at,
                "{tag}: killed at the requested boundary"
            )
        }
        Err(e) => panic!("{tag}: wrong error {e}"),
        Ok(_) => panic!("{tag}: run must not survive the kill"),
    }
    let resumed = Options {
        checkpoint_policy: policy(&dir),
        ..on_gpus(resume_gpus)
    };
    let (obs, sink) = Observer::recording();
    let out = GraphSession::new(layout, platform(), resumed)
        .query(p)
        .with_observer(obs)
        .resume(&dir)
        .unwrap();
    (out, sink.recorded())
}

/// The kill-restart family for `p` on `gpus` devices: kill at the first,
/// a middle, and the last iteration boundary; every resumed run must be
/// bit-identical to the uninterrupted oracle — values, iteration trace
/// and state fingerprint — with exactly one restore decision and one
/// write decision per snapshot logged.
pub fn assert_kill_restart_family<P: GasProgram>(p: P, layout: &GraphLayout, gpus: usize, tag: &str)
where
    P::VertexValue: PartialEq + std::fmt::Debug,
{
    let oracle_opts = Options {
        checkpoint_policy: durable(&scratch(&format!("{tag}-oracle"))),
        ..on_gpus(gpus)
    };
    let oracle = GraphSession::new(layout, platform(), oracle_opts)
        .query(&p)
        .run()
        .unwrap();
    let iters = oracle.stats.iterations;
    assert!(
        iters >= 3,
        "{tag}: graph too easy to kill mid-run ({iters})"
    );
    let fp = oracle
        .stats
        .state_fingerprint
        .expect("durable runs fingerprint state");
    for kill_at in [0, iters / 2, iters - 1] {
        let (case, dir) = (format!("{tag} kill@{kill_at}"), format!("{tag}-k{kill_at}"));
        let (out, rec) = kill_then_resume(&p, layout, (gpus, gpus), durable, kill_at, &dir);
        assert_eq!(out.vertex_values, oracle.vertex_values, "{case}");
        assert_eq!(out.stats.iterations, iters, "{case}: full trace restored");
        assert_eq!(
            out.stats.frontier_sizes(),
            oracle.stats.frontier_sizes(),
            "{case}: per-iteration trace bit-identical"
        );
        assert_eq!(out.stats.state_fingerprint, Some(fp), "{case}");
        assert_eq!(out.stats.checkpoint_restores, 1, "{case}");
        let count = |f: fn(&Decision) -> bool| rec.decisions.iter().filter(|d| f(d)).count();
        assert_eq!(
            count(|d| matches!(d, Decision::CheckpointRestore { .. })),
            1,
            "{case}: exactly one restore decision"
        );
        assert_eq!(
            count(|d| matches!(d, Decision::CheckpointWrite { .. })) as u64,
            out.stats.checkpoint_writes,
            "{case}: one decision per snapshot written"
        );
        assert!(out.stats.checkpoint_bytes_written > 0, "{case}");
    }
}
