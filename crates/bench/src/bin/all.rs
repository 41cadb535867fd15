//! Run every table/figure harness in paper order, then the extensions and
//! the design-choice ablations. Equivalent to executing each binary; used
//! to regenerate EXPERIMENTS.md data in one go. The default-scale output
//! is committed as `results/all_default.txt` and CI diffs against it:
//!
//! ```sh
//! cargo run --release -q -p gr-bench --bin all > all.txt
//! diff -u results/all_default.txt all.txt
//! ```

use std::process::Command;

fn main() {
    // Forward --scale only when the user gave one: the in-memory
    // experiments (table2/table4) default to a finer scale on their own.
    let explicit_scale = std::env::args()
        .any(|a| a == "--scale")
        .then(|| gr_bench::scale_from_args().to_string());
    let exe = std::env::current_exe().expect("own path");
    let dir = exe.parent().expect("bin dir");
    for bin in [
        "table1",
        "table2",
        "fig3",
        "fig4",
        "fig5",
        "table3",
        "table4",
        "fig15",
        "fig16",
        "fig17",
        "ext_multigpu",
        "ext_ssd",
        "ext_totem",
        "ablations",
    ] {
        println!("\n######## {bin} ########");
        let mut cmd = Command::new(dir.join(bin));
        if let Some(scale) = &explicit_scale {
            cmd.args(["--scale", scale]);
        }
        let status = cmd
            .status()
            .unwrap_or_else(|e| panic!("failed to spawn {bin}: {e}"));
        assert!(status.success(), "{bin} failed");
    }
    // Session sweep: every algorithm against ONE shared GraphSession
    // (layout/platform loaded once instead of once per algorithm), with
    // the `run` binary asserting each report stays byte-identical to a
    // dedicated per-algorithm construction.
    println!("\n######## session sweep (run --algo all) ########");
    let mut cmd = Command::new(dir.join("run"));
    cmd.args(["--algo", "all", "--dataset", "quickstart"]);
    let status = cmd
        .status()
        .unwrap_or_else(|e| panic!("failed to spawn run: {e}"));
    assert!(status.success(), "session sweep failed");
    println!("\nall experiments completed.");
}
