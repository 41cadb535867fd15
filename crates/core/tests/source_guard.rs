//! Source-size guard: the engine monolith was decomposed into layered
//! modules under `src/exec/`, and no file in this crate — or in any
//! other library crate of the workspace — may regrow past the cap. If
//! this test fails, split the offending module instead of raising the
//! limit.
//!
//! The public-surface census (ROADMAP item 16) is pinned here too: the
//! count of `pub fn with_*` builders and the list of public modules. A
//! new knob or a re-opened module is a deliberate edit of these numbers.

use std::fs;
use std::path::{Path, PathBuf};

const MAX_LINES: usize = 1_200;

/// Every `.rs` file under `dir`, skipping `grbench/` (the benchmark is a
/// package of its own, outside the workspace).
fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("readable source dir") {
        let path = entry.expect("readable dir entry").path();
        if path.is_dir() {
            if path.file_name().is_some_and(|name| name == "grbench") {
                continue;
            }
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

fn assert_under_cap(files: &[PathBuf]) {
    let mut oversized: Vec<String> = files
        .iter()
        .filter_map(|f| {
            let lines = fs::read_to_string(f)
                .expect("readable source")
                .lines()
                .count();
            (lines > MAX_LINES).then(|| format!("{} ({lines} lines)", f.display()))
        })
        .collect();
    oversized.sort();
    assert!(
        oversized.is_empty(),
        "source files exceed the {MAX_LINES}-line cap; split them into \
         focused modules (see docs/ARCHITECTURE.md): {oversized:?}"
    );
}

#[test]
fn no_core_source_file_exceeds_line_cap() {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut files = Vec::new();
    rust_sources(&src, &mut files);
    assert!(
        files.len() >= 10,
        "expected the decomposed module tree, found {} files",
        files.len()
    );
    assert_under_cap(&files);
}

#[test]
fn no_serve_source_file_exceeds_line_cap() {
    // The serving subsystem obeys the same cap from day one.
    let src = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("crates dir")
        .join("serve")
        .join("src");
    let mut files = Vec::new();
    rust_sources(&src, &mut files);
    assert!(
        files.len() >= 3,
        "expected the serve module tree (lib/admission/query/server), found {} files",
        files.len()
    );
    assert_under_cap(&files);
}

#[test]
fn no_library_source_file_exceeds_line_cap() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("crates dir");
    let mut files = Vec::new();
    for krate in [
        "sim",
        "graph",
        "observe",
        "algorithms",
        "baselines",
        "bench",
    ] {
        let before = files.len();
        rust_sources(&crates.join(krate).join("src"), &mut files);
        assert!(files.len() > before, "no sources found for crate {krate}");
    }
    assert_under_cap(&files);
}

/// Most non-test lines `crates/core/src` may hold: each file counted up
/// to its first unindented `#[cfg(test)]`, and a file that module pulls
/// in (`#[cfg(test)] #[path = ".."] mod tests;`) not at all. A ratchet:
/// growth is a deliberate edit of this number, and a change that cuts
/// lines lowers it (CHANGES.md records every move).
const MAX_CORE_CODE_LINES: usize = 7_491;

/// The files `text` (the source at `file`) includes only under
/// `#[cfg(test)]` through a `#[path]` attribute.
fn test_only_includes(file: &Path, text: &str) -> Vec<PathBuf> {
    let lines: Vec<&str> = text.lines().collect();
    lines
        .windows(2)
        .filter(|w| w[0] == "#[cfg(test)]")
        .filter_map(|w| w[1].strip_prefix("#[path = \"")?.strip_suffix("\"]"))
        .map(|name| file.with_file_name(name))
        .collect()
}

#[test]
fn core_code_lines_stay_under_the_ratchet() {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut files = Vec::new();
    rust_sources(&src, &mut files);
    let texts: Vec<(PathBuf, String)> = files
        .into_iter()
        .map(|f| {
            let text = fs::read_to_string(&f).expect("readable source");
            (f, text)
        })
        .collect();
    let test_only: Vec<PathBuf> = texts
        .iter()
        .flat_map(|(f, text)| test_only_includes(f, text))
        .collect();
    assert!(
        test_only.iter().any(|f| f.ends_with("snapshot_tests.rs")),
        "the guard must see snapshot.rs's test-only include: {test_only:?}"
    );
    let lines: usize = texts
        .iter()
        .filter(|(f, _)| !test_only.contains(f))
        .map(|(_, text)| {
            text.lines()
                .take_while(|l| !l.starts_with("#[cfg(test)]"))
                .count()
        })
        .sum();
    assert!(
        lines <= MAX_CORE_CODE_LINES,
        "{lines} non-test lines in crates/core/src, ratchet \
         {MAX_CORE_CODE_LINES} (ROADMAP item 4(g): cut code, or raise the \
         bound deliberately and record it in CHANGES.md)"
    );
}

/// The device ops a timeline is priced with.
const DEVICE_OPS: [&str; 3] = [".h2d(", ".d2h(", ".launch"];

/// Every device op is issued in one place: no `DeviceCtx` op appears in
/// `crates/core/src` outside `exec/`, so a second device timeline (the
/// multi-GPU engine had one) cannot grow back beside the driver.
#[test]
fn device_ops_stay_inside_exec() {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut files = Vec::new();
    rust_sources(&src, &mut files);
    let ops_in = |f: &PathBuf| -> Vec<String> {
        let text = fs::read_to_string(f).expect("readable source");
        text.lines()
            .enumerate()
            .filter(|(_, l)| !l.trim_start().starts_with("//"))
            .filter(|(_, l)| DEVICE_OPS.iter().any(|op| l.contains(op)))
            .map(|(n, _)| format!("{}:{}", f.display(), n + 1))
            .collect()
    };
    let (exec, rest): (Vec<PathBuf>, Vec<PathBuf>) = files
        .into_iter()
        .partition(|f| f.starts_with(src.join("exec")));
    assert!(
        !exec.iter().flat_map(ops_in).collect::<Vec<_>>().is_empty(),
        "the guard must see the driver's own device ops"
    );
    let strays: Vec<String> = rest.iter().flat_map(ops_in).collect();
    assert!(
        strays.is_empty(),
        "device ops outside crates/core/src/exec/; route them through \
         exec/driver.rs's one device timeline: {strays:?}"
    );
}

/// Most `pub fn with_*` builders `crates/core/src` may hold. A builder
/// earns its place by enforcing something (a clamp, a wrap, a coupled
/// field); a plain field is set with struct-update syntax instead.
const MAX_WITH_BUILDERS: usize = 11;

/// The modules `lib.rs` may declare `pub`; everything else is
/// `pub(crate)`, so rustc's `dead_code` lint covers it.
const PUBLIC_MODULES: [&str; 12] = [
    "api", "engine", "options", "phases", "recovery", "report", "session", "sizes", "snapshot",
    "stats", "store", "testprog",
];

#[test]
fn with_builders_stay_within_the_census() {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut files = Vec::new();
    rust_sources(&src, &mut files);
    let builders: usize = files
        .iter()
        .map(|f| {
            fs::read_to_string(f)
                .expect("readable source")
                .matches("pub fn with_")
                .count()
        })
        .sum();
    assert!(
        builders <= MAX_WITH_BUILDERS,
        "{builders} `pub fn with_*` builders in crates/core/src, cap \
         {MAX_WITH_BUILDERS} (ROADMAP item 16: set plain fields with \
         struct-update syntax; a new builder must enforce something)"
    );
}

#[test]
fn public_modules_match_the_allow_list() {
    let lib = fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("src/lib.rs"))
        .expect("readable lib.rs");
    let public: Vec<&str> = lib
        .lines()
        .filter_map(|l| l.trim().strip_prefix("pub mod "))
        .map(|l| l.trim_end_matches(';'))
        .collect();
    assert_eq!(
        public, PUBLIC_MODULES,
        "lib.rs's `pub mod` list changed (ROADMAP item 16: open a module \
         only for an item a shipped path reaches by module path, and \
         update this allow-list in the same change)"
    );
}

/// Every library source file of the workspace, paired with its non-test
/// code: the unit-test module is cut off and comment lines dropped.
fn library_code() -> Vec<(PathBuf, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root");
    let mut files = Vec::new();
    rust_sources(&root.join("src"), &mut files);
    for entry in fs::read_dir(root.join("crates")).expect("readable crates dir") {
        rust_sources(
            &entry.expect("readable dir entry").path().join("src"),
            &mut files,
        );
    }
    files
        .into_iter()
        .map(|f| {
            let text = fs::read_to_string(&f).expect("readable source");
            let lib = text.split("\n#[cfg(test)]\nmod ").next().unwrap_or("");
            let code: Vec<&str> = lib
                .lines()
                .filter(|l| !l.trim_start().starts_with("//"))
                .collect();
            (f, code.join("\n"))
        })
        .collect()
}

/// Every declared metric row as `(table, handle, series name)`, parsed
/// from the `metric_table!` invocations in library code.
fn declared_metrics(code: &[(PathBuf, String)]) -> Vec<(String, String, String)> {
    let mut rows = Vec::new();
    for (_, text) in code {
        for table in text.split("metric_table! {").skip(1) {
            let body = table.split("\n}").next().unwrap_or("");
            let name = body
                .split("enum ")
                .nth(1)
                .and_then(|s| s.split_whitespace().next())
                .expect("a metric table declares an enum");
            for line in body.lines().map(str::trim) {
                let Some((handle, rest)) = line.split_once(": ") else {
                    continue;
                };
                if let Some(series) = rest.split('"').nth(1) {
                    rows.push((name.to_string(), handle.to_string(), series.to_string()));
                }
            }
        }
    }
    rows
}

#[test]
fn every_declared_metric_is_written_in_library_code() {
    let code = library_code();
    let rows = declared_metrics(&code);
    assert!(
        rows.len() >= 50,
        "expected the device and engine tables, found {} rows",
        rows.len()
    );
    let flat: Vec<String> = code
        .iter()
        .map(|(_, text)| text.split_whitespace().collect())
        .collect();
    let unwritten: Vec<String> = rows
        .iter()
        .filter(|(table, handle, _)| {
            let series = format!("{table}::{handle}");
            let written = ["inc", "inc_labeled", "observe"].iter().any(|write| {
                let call = format!(".{write}({series},");
                flat.iter().any(|text| text.contains(&call))
            });
            // `inc_labeled_each([A::X, A::Y, ...], label, [...])` writes
            // every series of its first argument.
            let written_together = flat.iter().any(|text| {
                text.split(".inc_labeled_each([").skip(1).any(|call| {
                    call.split(']')
                        .next()
                        .is_some_and(|list| list.split(',').any(|s| s == series))
                })
            });
            !written && !written_together
        })
        .map(|(table, handle, _)| format!("{table}::{handle}"))
        .collect();
    assert!(
        unwritten.is_empty(),
        "declared metrics no library code writes (delete the row or write it): {unwritten:?}"
    );
}

#[test]
fn metric_names_appear_only_in_their_table_row() {
    let code = library_code();
    let mut strays = Vec::new();
    for (_, _, series) in declared_metrics(&code) {
        let literal = format!("\"{series}\"");
        let uses: Vec<(String, usize)> = code
            .iter()
            .map(|(f, text)| (f.display().to_string(), text.matches(&literal).count()))
            .filter(|&(_, n)| n > 0)
            .collect();
        if uses.iter().map(|&(_, n)| n).sum::<usize>() != 1 {
            strays.push(format!("{literal}: {uses:?}"));
        }
    }
    assert!(
        strays.is_empty(),
        "a metric name is spelled outside its table row; use the handle \
         (or `MetricTable::name`) instead: {strays:?}"
    );
}
