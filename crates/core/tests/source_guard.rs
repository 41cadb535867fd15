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

/// Most `pub fn with_*` builders `crates/core/src` may hold. A builder
/// earns its place by enforcing something (a clamp, a wrap, a coupled
/// field); a plain field is set with struct-update syntax instead.
const MAX_WITH_BUILDERS: usize = 20;

/// The modules `lib.rs` may declare `pub`; everything else is
/// `pub(crate)`, so rustc's `dead_code` lint covers it.
const PUBLIC_MODULES: [&str; 13] = [
    "api", "engine", "multi", "options", "phases", "recovery", "report", "session", "sizes",
    "snapshot", "stats", "store", "testprog",
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
