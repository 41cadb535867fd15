//! Kill-restart smoke for the bench CLI: runs killed by the armed
//! `kill:<iteration>` fault plan — and by a real out-of-band SIGKILL —
//! must exit distinguishably, leave intact snapshots behind, and
//! `--resume` to a run report bit-identical to the uninterrupted oracle
//! (same `state_fingerprint`). The CI chaos job drives the same flow
//! from the workflow file; see docs/DURABILITY.md.

use std::path::{Path, PathBuf};
use std::process::Command;

const RUN: &str = env!("CARGO_BIN_EXE_run");

/// Exit code the CLI reserves for a run killed by `--faults kill:<K>`.
const EXIT_KILLED: i32 = 9;

fn scratch(tag: &str) -> PathBuf {
    static N: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = N.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let d = std::env::temp_dir().join(format!("gr-killrestart-{tag}-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn run_cli(args: &[&str]) -> std::process::Output {
    Command::new(RUN)
        .args(args)
        .output()
        .expect("spawn bench run binary")
}

/// The `"state_fingerprint": "0x…"` line of a run report.
fn fingerprint_of(report: &Path) -> String {
    let text = std::fs::read_to_string(report).unwrap();
    text.lines()
        .find(|l| l.contains("\"state_fingerprint\""))
        .unwrap_or_else(|| panic!("no state_fingerprint in {}", report.display()))
        .trim()
        .trim_end_matches(',')
        .to_string()
}

fn snapshot_count(dir: &Path) -> usize {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter(|e| {
                e.as_ref()
                    .unwrap()
                    .path()
                    .extension()
                    .is_some_and(|x| x == "grck")
            })
            .count()
        })
        .unwrap_or(0)
}

#[test]
fn fault_plan_kill_exits_9_and_resume_matches_oracle() {
    let dir = scratch("faultkill");
    let ckpt = dir.join("ckpt");
    let base = [
        "--algo",
        "pagerank",
        "--dataset",
        "ak2010",
        "--scale",
        "64",
        "--engine",
        "gr",
    ];
    let mut kill_args: Vec<&str> = base.to_vec();
    let ckpt_s = ckpt.to_str().unwrap().to_string();
    kill_args.extend(["--checkpoint-dir", &ckpt_s, "--faults", "kill:2"]);
    let killed = run_cli(&kill_args);
    assert_eq!(
        killed.status.code(),
        Some(EXIT_KILLED),
        "stderr: {}",
        String::from_utf8_lossy(&killed.stderr)
    );
    assert!(
        String::from_utf8_lossy(&killed.stderr).contains("--resume"),
        "the kill message must point at the restart path"
    );
    assert!(
        snapshot_count(&ckpt) >= 1,
        "the killed run must leave snapshots to resume from"
    );

    let resumed_report = dir.join("resumed.json");
    let mut resume_args: Vec<&str> = base.to_vec();
    let resumed_s = resumed_report.to_str().unwrap().to_string();
    resume_args.extend([
        "--checkpoint-dir",
        &ckpt_s,
        "--resume",
        "--report",
        &resumed_s,
    ]);
    let resumed = run_cli(&resume_args);
    assert!(
        resumed.status.success(),
        "resume failed: {}",
        String::from_utf8_lossy(&resumed.stderr)
    );

    let oracle_report = dir.join("oracle.json");
    let oracle_ckpt = dir.join("oracle-ckpt");
    let mut oracle_args: Vec<&str> = base.to_vec();
    let oracle_ckpt_s = oracle_ckpt.to_str().unwrap().to_string();
    let oracle_s = oracle_report.to_str().unwrap().to_string();
    oracle_args.extend(["--checkpoint-dir", &oracle_ckpt_s, "--report", &oracle_s]);
    let oracle = run_cli(&oracle_args);
    assert!(
        oracle.status.success(),
        "oracle failed: {}",
        String::from_utf8_lossy(&oracle.stderr)
    );

    assert_eq!(
        fingerprint_of(&resumed_report),
        fingerprint_of(&oracle_report),
        "resumed run must converge bit-identically to the oracle"
    );
}

#[test]
fn real_sigkill_mid_run_resumes_to_oracle_fingerprint() {
    let dir = scratch("sigkill");
    let ckpt = dir.join("ckpt");
    let ckpt_s = ckpt.to_str().unwrap().to_string();
    // A graph big enough that durable-every-iteration snapshots appear
    // while the run is still in flight.
    let base = [
        "--algo",
        "pagerank",
        "--dataset",
        "uk-2002",
        "--scale",
        "512",
        "--engine",
        "gr",
    ];
    let mut child_args: Vec<&str> = base.to_vec();
    child_args.extend(["--checkpoint-dir", &ckpt_s]);
    let mut child = Command::new(RUN)
        .args(&child_args)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn bench run binary");
    // Kill as soon as the first snapshot lands (a hard SIGKILL: no
    // cleanup, no atexit — exactly the crash the format must survive).
    // If the run finishes first, resume-from-completion is still a valid
    // leg of the same contract.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    loop {
        if snapshot_count(&ckpt) >= 1 {
            let _ = child.kill();
            break;
        }
        if child.try_wait().expect("poll child").is_some() {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "no snapshot appeared within the deadline"
        );
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    child.wait().expect("reap child");
    assert!(
        snapshot_count(&ckpt) >= 1,
        "snapshots must exist whether or not the kill landed mid-run"
    );

    let resumed_report = dir.join("resumed.json");
    let resumed_s = resumed_report.to_str().unwrap().to_string();
    let mut resume_args: Vec<&str> = base.to_vec();
    resume_args.extend([
        "--checkpoint-dir",
        &ckpt_s,
        "--resume",
        "--report",
        &resumed_s,
    ]);
    let resumed = run_cli(&resume_args);
    assert!(
        resumed.status.success(),
        "resume after SIGKILL failed: {}",
        String::from_utf8_lossy(&resumed.stderr)
    );

    let oracle_report = dir.join("oracle.json");
    let oracle_ckpt = dir.join("oracle-ckpt");
    let oracle_ckpt_s = oracle_ckpt.to_str().unwrap().to_string();
    let oracle_s = oracle_report.to_str().unwrap().to_string();
    let mut oracle_args: Vec<&str> = base.to_vec();
    oracle_args.extend(["--checkpoint-dir", &oracle_ckpt_s, "--report", &oracle_s]);
    let oracle = run_cli(&oracle_args);
    assert!(
        oracle.status.success(),
        "oracle failed: {}",
        String::from_utf8_lossy(&oracle.stderr)
    );
    assert_eq!(
        fingerprint_of(&resumed_report),
        fingerprint_of(&oracle_report),
        "SIGKILL mid-run must not change where the computation converges"
    );
}

/// The `state fingerprint: 0x…` line a durable run prints to stdout
/// (the multi-GPU path has no single-device run report, so the CLI
/// summary is the machine-readable surface).
fn stdout_fingerprint(out: &std::process::Output) -> String {
    let text = String::from_utf8_lossy(&out.stdout);
    text.lines()
        .find(|l| l.trim_start().starts_with("state fingerprint:"))
        .unwrap_or_else(|| panic!("no state fingerprint line in stdout: {text}"))
        .trim()
        .to_string()
}

#[test]
fn multi_gpu_kill_exits_9_and_resume_matches_oracle() {
    let dir = scratch("multikill");
    let ckpt = dir.join("ckpt");
    let ckpt_s = ckpt.to_str().unwrap().to_string();
    let base = [
        "--algo",
        "pagerank",
        "--dataset",
        "ak2010",
        "--scale",
        "64",
        "--engine",
        "gr",
        "--gpus",
        "2",
    ];
    let mut kill_args: Vec<&str> = base.to_vec();
    kill_args.extend(["--checkpoint-dir", &ckpt_s, "--faults", "kill:2"]);
    let killed = run_cli(&kill_args);
    assert_eq!(
        killed.status.code(),
        Some(EXIT_KILLED),
        "stderr: {}",
        String::from_utf8_lossy(&killed.stderr)
    );
    assert!(
        String::from_utf8_lossy(&killed.stderr).contains("--resume"),
        "the kill message must point at the restart path"
    );
    assert!(
        snapshot_count(&ckpt) >= 1,
        "the killed multi run must leave snapshots to resume from"
    );

    let mut resume_args: Vec<&str> = base.to_vec();
    resume_args.extend(["--checkpoint-dir", &ckpt_s, "--resume"]);
    let resumed = run_cli(&resume_args);
    assert!(
        resumed.status.success(),
        "multi resume failed: {}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    assert!(
        String::from_utf8_lossy(&resumed.stdout).contains("1 restored"),
        "the durability line must count the restore"
    );

    let oracle_ckpt = dir.join("oracle-ckpt");
    let oracle_ckpt_s = oracle_ckpt.to_str().unwrap().to_string();
    let mut oracle_args: Vec<&str> = base.to_vec();
    oracle_args.extend(["--checkpoint-dir", &oracle_ckpt_s]);
    let oracle = run_cli(&oracle_args);
    assert!(
        oracle.status.success(),
        "oracle failed: {}",
        String::from_utf8_lossy(&oracle.stderr)
    );
    assert_eq!(
        stdout_fingerprint(&resumed),
        stdout_fingerprint(&oracle),
        "multi resume must converge bit-identically to the oracle"
    );
}

#[test]
fn multi_gpu_resume_on_fewer_gpus_matches_that_width() {
    // Checkpoint on 4 GPUs, SIGKILL-free fault kill, resume on 2:
    // placement is re-derived, and the answer matches an uninterrupted
    // 2-GPU run.
    let dir = scratch("multishrink");
    let ckpt = dir.join("ckpt");
    let ckpt_s = ckpt.to_str().unwrap().to_string();
    let killed = run_cli(&[
        "--algo",
        "cc",
        "--dataset",
        "ak2010",
        "--scale",
        "64",
        "--engine",
        "gr",
        "--gpus",
        "4",
        "--checkpoint-dir",
        &ckpt_s,
        "--faults",
        "kill:2",
    ]);
    assert_eq!(killed.status.code(), Some(EXIT_KILLED));
    let resumed = run_cli(&[
        "--algo",
        "cc",
        "--dataset",
        "ak2010",
        "--scale",
        "64",
        "--engine",
        "gr",
        "--gpus",
        "2",
        "--checkpoint-dir",
        &ckpt_s,
        "--resume",
    ]);
    assert!(
        resumed.status.success(),
        "fewer-GPU resume failed: {}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    let oracle_ckpt_s = dir.join("oracle-ckpt").to_str().unwrap().to_string();
    let oracle = run_cli(&[
        "--algo",
        "cc",
        "--dataset",
        "ak2010",
        "--scale",
        "64",
        "--engine",
        "gr",
        "--gpus",
        "2",
        "--checkpoint-dir",
        &oracle_ckpt_s,
    ]);
    assert!(oracle.status.success());
    assert_eq!(
        stdout_fingerprint(&resumed),
        stdout_fingerprint(&oracle),
        "resuming on fewer devices must match that device count's oracle"
    );
}

#[test]
fn delta_checkpoints_resume_and_write_fewer_bytes() {
    let dir = scratch("delta");
    let ckpt = dir.join("ckpt");
    let ckpt_s = ckpt.to_str().unwrap().to_string();
    let base = [
        "--algo",
        "bfs",
        "--dataset",
        "ak2010",
        "--scale",
        "64",
        "--engine",
        "gr",
        "--gpus",
        "2",
    ];
    let mut kill_args: Vec<&str> = base.to_vec();
    kill_args.extend([
        "--checkpoint-dir",
        &ckpt_s,
        "--checkpoint-delta",
        "--checkpoint-full-every",
        "3",
        "--faults",
        "kill:3",
    ]);
    let killed = run_cli(&kill_args);
    assert_eq!(
        killed.status.code(),
        Some(EXIT_KILLED),
        "stderr: {}",
        String::from_utf8_lossy(&killed.stderr)
    );
    let mut resume_args: Vec<&str> = base.to_vec();
    resume_args.extend([
        "--checkpoint-dir",
        &ckpt_s,
        "--checkpoint-delta",
        "--checkpoint-full-every",
        "3",
        "--resume",
    ]);
    let resumed = run_cli(&resume_args);
    assert!(
        resumed.status.success(),
        "delta resume failed: {}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    let stdout = String::from_utf8_lossy(&resumed.stdout);
    assert!(
        stdout.contains("deltas ("),
        "the durability line must split full vs delta bytes: {stdout}"
    );
    let oracle_ckpt_s = dir.join("oracle-ckpt").to_str().unwrap().to_string();
    let mut oracle_args: Vec<&str> = base.to_vec();
    oracle_args.extend(["--checkpoint-dir", &oracle_ckpt_s]);
    let oracle = run_cli(&oracle_args);
    assert!(oracle.status.success());
    assert_eq!(
        stdout_fingerprint(&resumed),
        stdout_fingerprint(&oracle),
        "delta-chain resume must land on the full-snapshot oracle's fingerprint"
    );
}

#[test]
fn invalid_flag_combinations_are_usage_errors() {
    let dir = scratch("usage");
    let ckpt_s = dir.join("ckpt").to_str().unwrap().to_string();
    let cases: Vec<Vec<&str>> = vec![
        // --resume without a directory to resume from.
        vec![
            "--algo",
            "bfs",
            "--dataset",
            "ak2010",
            "--engine",
            "gr",
            "--resume",
        ],
        // --checkpoint-every without --checkpoint-dir.
        vec![
            "--algo",
            "bfs",
            "--dataset",
            "ak2010",
            "--engine",
            "gr",
            "--checkpoint-every",
            "2",
        ],
        // Zero interval is meaningless.
        vec![
            "--algo",
            "bfs",
            "--dataset",
            "ak2010",
            "--engine",
            "gr",
            "--checkpoint-dir",
            &ckpt_s,
            "--checkpoint-every",
            "0",
        ],
        // Durability is a gr-engine feature (any GPU count).
        vec![
            "--algo",
            "bfs",
            "--dataset",
            "ak2010",
            "--engine",
            "xstream",
            "--checkpoint-dir",
            &ckpt_s,
        ],
        // --checkpoint-delta without a directory to write into.
        vec![
            "--algo",
            "bfs",
            "--dataset",
            "ak2010",
            "--engine",
            "gr",
            "--checkpoint-delta",
        ],
        // --checkpoint-full-every modifies delta mode; alone it's noise.
        vec![
            "--algo",
            "bfs",
            "--dataset",
            "ak2010",
            "--engine",
            "gr",
            "--checkpoint-dir",
            &ckpt_s,
            "--checkpoint-full-every",
            "3",
        ],
        // A zero full cadence is meaningless.
        vec![
            "--algo",
            "bfs",
            "--dataset",
            "ak2010",
            "--engine",
            "gr",
            "--checkpoint-dir",
            &ckpt_s,
            "--checkpoint-delta",
            "--checkpoint-full-every",
            "0",
        ],
    ];
    for args in &cases {
        let out = run_cli(args);
        assert_eq!(
            out.status.code(),
            Some(2),
            "args {:?} must be a usage error, stderr: {}",
            args,
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

/// The engine spills on any device count, and so does the CLI: a BFS on
/// two capped GPUs that streams its shards back from the store exits 0
/// with the one-GPU run's state.
#[test]
fn spilled_two_gpu_run_matches_the_one_gpu_run() {
    let dir = scratch("spill-gpus");
    let run = |gpus: &str| {
        let spill = dir.join(format!("spill-{gpus}"));
        let out = run_cli(&[
            "--algo",
            "bfs",
            "--dataset",
            "ak2010",
            "--scale",
            "64",
            "--engine",
            "gr",
            "--gpus",
            gpus,
            "--mem-cap",
            "50000",
            "--host-mem-cap",
            "20000",
            "--spill-dir",
            spill.to_str().unwrap(),
        ]);
        assert!(
            out.status.success(),
            "{gpus} GPU(s): {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(
            String::from_utf8_lossy(&out.stdout).contains("2 shards spilled"),
            "{gpus} GPU(s) must stream from the store"
        );
        stdout_fingerprint(&out)
    };
    assert_eq!(run("2"), run("1"));
}
