//! v2 gate tests: the cross-file rule families (R7 layering, R9
//! scope-drift), R8 error-contract, JSON output, the baseline ratchet, the
//! diagnostic sort order, and the waiver edge cases — all against synthetic
//! workspaces under `CARGO_TARGET_TMPDIR`.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

fn write(path: &Path, content: &str) {
    fs::create_dir_all(path.parent().expect("file path has a parent")).expect("mkdir");
    fs::write(path, content).expect("write fixture file");
}

/// A fresh fixture workspace root (virtual `[workspace]` manifest only;
/// tests add crates on top).
fn ws(name: &str) -> PathBuf {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    if root.exists() {
        fs::remove_dir_all(&root).expect("clear stale fixture workspace");
    }
    write(
        &root.join("Cargo.toml"),
        "[workspace]\nmembers = [\"crates/*\"]\n",
    );
    root
}

/// Writes a fixture crate manifest with the given package name, lead class,
/// and `[dependencies]` entries (`name = {{ path = … }}` lines).
fn crate_manifest(root: &Path, dir: &str, package: &str, class: &str, deps: &[&str]) {
    let mut toml = format!(
        "[package]\nname = \"{package}\"\n\n[package.metadata.lead]\nclass = \"{class}\"\n\n[dependencies]\n"
    );
    for d in deps {
        toml.push_str(&format!("{d} = {{ path = \"../x\" }}\n"));
    }
    write(&root.join(dir).join("Cargo.toml"), &toml);
}

/// A classified fixture crate root carrying the crate-attr discipline the
/// R9/R10 audits demand of every library class, so layering/scope tests
/// stay focused on their own rule.
fn lib_rs(doc: &str) -> String {
    format!(
        "//! {doc}\n#![forbid(unsafe_code)]\n#![deny(missing_docs)]\n#![deny(unreachable_pub)]\n\
         #![deny(clippy::disallowed_types)]\n#![deny(clippy::missing_errors_doc)]\n"
    )
}

fn run(root: &Path, extra: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_lead-lint"))
        .arg("--root")
        .arg(root)
        .args(extra)
        .output()
        .expect("run lead-lint");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    (out.status.code().unwrap_or(-1), stdout)
}

fn tuples(diags: &[lead_lint::diag::Diagnostic]) -> Vec<(String, usize, &'static str)> {
    diags
        .iter()
        .map(|d| (d.file.clone(), d.line, d.rule))
        .collect()
}

// ---------------------------------------------------------------------------
// R7 — layering
// ---------------------------------------------------------------------------

#[test]
fn declared_import_on_a_sanctioned_edge_is_clean() {
    let root = ws("v2-declared");
    crate_manifest(
        &root,
        "crates/core",
        "lead-core",
        "result-lib",
        &["lead-geo"],
    );
    crate_manifest(&root, "crates/geo", "lead-geo", "lib", &[]);
    write(&root.join("crates/geo/src/lib.rs"), &lib_rs("Geo."));
    write(
        &root.join("crates/core/src/lib.rs"),
        &format!("{}\nuse lead_geo::point;\n", lib_rs("Core.")),
    );
    let diags = lead_lint::scan_workspace(&root).expect("scan");
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn core_depending_on_eval_inverts_the_dag_and_fails() {
    let root = ws("v2-inverted");
    crate_manifest(
        &root,
        "crates/core",
        "lead-core",
        "result-lib",
        &["lead-eval"],
    );
    crate_manifest(&root, "crates/eval", "lead-eval", "result-lib", &[]);
    write(&root.join("crates/core/src/lib.rs"), &lib_rs("Core."));
    write(&root.join("crates/eval/src/lib.rs"), &lib_rs("Eval."));
    let diags = lead_lint::scan_workspace(&root).expect("scan");
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].rule, "layering");
    assert_eq!(diags[0].file, "crates/core/Cargo.toml");
    assert!(diags[0].message.contains("may not depend on `lead-eval`"));
}

// ---------------------------------------------------------------------------
// R8 — error-contract
// ---------------------------------------------------------------------------

#[test]
fn string_error_type_is_banned_in_all_library_crates() {
    // crates/geo is not a doc crate, so only the stringly-error ban applies.
    let src = "//! Geo.\n\npub fn g() -> Result<u32, String> {\n    Ok(1)\n}\n";
    let diags = lead_lint::scan_source("crates/geo/src/x.rs", src);
    assert_eq!(
        tuples(&diags),
        vec![("crates/geo/src/x.rs".to_string(), 3, "error-contract")],
        "{diags:?}"
    );
    assert!(diags[0].message.contains("String"));
}

#[test]
fn boxed_dyn_error_is_banned_even_when_documented() {
    let src = "//! Doc.\n\n/// Does a thing.\n///\n/// # Errors\n/// Various.\n\
               pub fn f() -> Result<(), Box<dyn std::error::Error>> {\n    Ok(())\n}\n";
    let diags = lead_lint::scan_source("crates/core/src/api.rs", src);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].rule, "error-contract");
    assert!(diags[0].message.contains("Box<dyn std::error::Error>"));
}

#[test]
fn multi_line_signatures_are_seen_and_io_result_aliases_are_exempt() {
    // The first signature spans lines; `std::io::Result` names no error
    // parameter, so only the stringly error fires.
    let src = "//! Doc.\n\n/// Parses.\npub fn p(\n    s: &str,\n) -> Result<u32, String> {\n    Ok(1)\n}\n\n\
               /// Writes.\npub fn w<W: Write>(\n    w: &mut W,\n) -> std::io::Result<()> {\n    Ok(())\n}\n";
    let diags = lead_lint::scan_source("crates/nn/src/fixture_io.rs", src);
    assert_eq!(
        tuples(&diags),
        vec![(
            "crates/nn/src/fixture_io.rs".to_string(),
            4,
            "error-contract"
        )],
        "{diags:?}"
    );
}

#[test]
fn infallible_pub_fns_are_exempt() {
    let src = "//! Doc.\n\n/// Adds.\npub fn add(x: u32) -> u32 {\n    x + 1\n}\n";
    let diags = lead_lint::scan_source("crates/core/src/api.rs", src);
    assert!(diags.is_empty(), "{diags:?}");
}

// ---------------------------------------------------------------------------
// R9 — scope-drift
// ---------------------------------------------------------------------------

#[test]
fn unclassified_new_crate_fires_scope_drift() {
    let root = ws("v2-unclassified");
    write(
        &root.join("crates/newthing/Cargo.toml"),
        "[package]\nname = \"newthing\"\n",
    );
    write(&root.join("crates/newthing/src/lib.rs"), "//! New.\n");
    let diags = lead_lint::scan_workspace(&root).expect("scan");
    assert_eq!(
        tuples(&diags),
        vec![("crates/newthing/Cargo.toml".to_string(), 1, "scope-drift")],
        "{diags:?}"
    );
    assert!(diags[0].message.contains("unclassified"));
}

#[test]
fn metadata_class_disagreeing_with_the_table_fires_scope_drift() {
    let root = ws("v2-mismatch");
    crate_manifest(&root, "crates/core", "lead-core", "lib", &[]);
    write(&root.join("crates/core/src/lib.rs"), &lib_rs("Core."));
    let diags = lead_lint::scan_workspace(&root).expect("scan");
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].rule, "scope-drift");
    assert!(diags[0].message.contains("disagrees"));
    assert_eq!(diags[0].line, 5, "anchored at the class line");
}

// ---------------------------------------------------------------------------
// Sort order and the single-file regression workspace
// ---------------------------------------------------------------------------

/// One seeded violation per single-file rule family, pinned to exact
/// `(file, line, rule)` triples: the regression against the pre-refactor
/// line-oriented scanner, and the `(path, line, rule)` sort pin in one
/// test. The hash map, clock, thread and undocumented item stay in the
/// source: they are clippy's and rustc's now, so lead-lint stays silent.
#[test]
fn single_file_regression_workspace_pins_rules_lines_and_order() {
    let root = ws("v2-regression");
    write(
        &root.join("crates/core/src/lib.rs"),
        "//! Regression fixture.\n\
         \n\
         fn f() {\n\
             let m = std::collections::HashMap::<u32, u32>::new();\n\
             let _ = m.get(&0).unwrap();\n\
             let t = std::time::Instant::now();\n\
             let _ = t;\n\
             std::thread::spawn(|| {});\n\
         }\n\
         \n\
         pub fn undocumented() {}\n",
    );
    write(
        &root.join("crates/nn/src/lib.rs"),
        "//! NN fixture.\n\
         \n\
         fn g(x: f32, n: f64) -> f32 {\n\
             let _ = n as f32;\n\
             if x == 0.0 {}\n\
             x\n\
         }\n",
    );
    let diags = lead_lint::scan_workspace(&root).expect("scan");
    assert_eq!(
        tuples(&diags),
        vec![
            ("crates/core/src/lib.rs".to_string(), 5, "panic"),
            ("crates/nn/src/lib.rs".to_string(), 4, "float-cast"),
            ("crates/nn/src/lib.rs".to_string(), 5, "float-eq"),
        ],
        "{diags:?}"
    );
}

#[test]
fn same_line_diagnostics_sort_by_col_then_rule() {
    let root = ws("v2-sort");
    // One line violating two rules: `panic` fires at the `.unwrap()` (col
    // 14) and `float-cast` at the `as` (col 32); with columns in the sort
    // key the earlier column now comes first, not the smaller rule id.
    write(
        &root.join("crates/nn/src/lib.rs"),
        "//! Sort fixture.\n\nfn g(v: &[f32]) -> i32 {\n    v.first().unwrap().round() as i32\n}\n",
    );
    let diags = lead_lint::scan_workspace(&root).expect("scan");
    assert_eq!(
        tuples(&diags),
        vec![
            ("crates/nn/src/lib.rs".to_string(), 4, "panic"),
            ("crates/nn/src/lib.rs".to_string(), 4, "float-cast"),
        ],
        "{diags:?}"
    );
    assert_eq!(
        diags.iter().map(|d| d.col).collect::<Vec<_>>(),
        vec![14, 32],
        "columns point at the offending tokens: {diags:?}"
    );
}

// ---------------------------------------------------------------------------
// Waiver edge cases
// ---------------------------------------------------------------------------

#[test]
fn waiving_one_of_two_rules_on_a_line_keeps_the_other_and_stays_hygienic() {
    let src = "//! Doc.\n\nfn g(v: &[f32]) -> i32 {\n    \
               v.first().unwrap().round() as i32 // lint: allow(panic): fixture invariant\n}\n";
    let diags = lead_lint::scan_source("crates/nn/src/lib.rs", src);
    // `panic` is silenced, `float-cast` still fires, and the waiver is NOT
    // reported as unused (it matched the panic violation).
    assert_eq!(
        tuples(&diags),
        vec![("crates/nn/src/lib.rs".to_string(), 4, "float-cast")],
        "{diags:?}"
    );
}

#[test]
fn waiver_inside_cfg_test_that_matches_nothing_is_unused() {
    let src = "//! Doc.\n\n#[cfg(test)]\nmod tests {\n    fn t() {\n        \
               let x: Option<u32> = None;\n        \
               let _ = x.unwrap(); // lint: allow(panic): rules are off in tests anyway\n    }\n}\n";
    let diags = lead_lint::scan_source("crates/core/src/api.rs", src);
    assert_eq!(
        tuples(&diags),
        vec![("crates/core/src/api.rs".to_string(), 7, "unused-waiver")],
        "{diags:?}"
    );
}

#[test]
fn unknown_rule_in_waiver_lists_the_valid_ids() {
    let src = "//! Doc.\n\nfn f(o: Option<u32>) -> u32 {\n    \
               o.unwrap() // lint: allow(no-such-rule): typo\n}\n";
    let diags = lead_lint::scan_source("crates/core/src/api.rs", src);
    let bad = diags
        .iter()
        .find(|d| d.rule == "bad-waiver")
        .expect("bad-waiver fires");
    for id in lead_lint::rules::RULE_IDS {
        assert!(
            bad.message.contains(id),
            "bad-waiver must list `{id}`: {}",
            bad.message
        );
    }
    // The unwaived violation still fires.
    assert!(diags.iter().any(|d| d.rule == "panic"), "{diags:?}");
}

#[test]
fn waiver_on_final_line_without_trailing_newline_works_end_to_end() {
    let src =
        "//! Doc.\n\nfn f(o: Option<u32>) -> u32 { o.unwrap() } // lint: allow(panic): fixture";
    let diags = lead_lint::scan_source("crates/core/src/api.rs", src);
    assert!(diags.is_empty(), "{diags:?}");
}

// ---------------------------------------------------------------------------
// JSON output
// ---------------------------------------------------------------------------

#[test]
fn json_report_for_a_clean_workspace_is_the_exact_golden_bytes() {
    let root = ws("v2-json-clean");
    write(&root.join("crates/core/src/lib.rs"), "//! Clean.\n");
    let (code, stdout) = run(&root, &["--format", "json"]);
    assert_eq!(code, 0);
    assert_eq!(stdout, "{\"version\":1,\"count\":0,\"diagnostics\":[]}\n");
}

#[test]
fn json_report_is_byte_stable_across_runs_and_fails_on_diagnostics() {
    let root = ws("v2-json-dirty");
    write(
        &root.join("crates/core/src/lib.rs"),
        "//! Dirty.\n\nfn f(o: Option<u32>) -> u32 {\n    o.unwrap()\n}\n",
    );
    let (code1, out1) = run(&root, &["--format", "json"]);
    let (code2, out2) = run(&root, &["--format", "json"]);
    assert_eq!(code1, 1, "diagnostics still fail in JSON mode");
    assert_eq!(code2, 1);
    assert_eq!(
        out1, out2,
        "two runs over the same tree must emit identical bytes"
    );
    assert!(out1.starts_with("{\"version\":1,\"count\":1,\"diagnostics\":[{\"file\":\"crates/core/src/lib.rs\",\"line\":4,\"col\":6,\"rule\":\"panic\","), "{out1}");
    assert!(out1.ends_with("]}\n"), "{out1}");
}

// ---------------------------------------------------------------------------
// Baseline ratchet
// ---------------------------------------------------------------------------

fn dirty_ws(name: &str) -> PathBuf {
    let root = ws(name);
    write(
        &root.join("crates/core/src/lib.rs"),
        "//! Dirty.\n\nfn f(o: Option<u32>) -> u32 {\n    o.unwrap()\n}\n",
    );
    root
}

#[test]
fn baselined_diagnostic_passes_the_gate() {
    let root = dirty_ws("v2-ratchet-known");
    let baseline = root.join("lint.baseline");
    write(&baseline, "# known debt\ncrates/core/src/lib.rs:4:panic\n");
    let (code, stdout) = run(
        &root,
        &["--baseline", baseline.to_str().expect("utf-8 path")],
    );
    assert_eq!(code, 0, "baselined diagnostic must not fail CI:\n{stdout}");
    assert!(stdout.contains("lead-lint: clean"), "{stdout}");
}

#[test]
fn new_diagnostic_fails_despite_a_baseline() {
    let root = dirty_ws("v2-ratchet-new");
    let baseline = root.join("lint.baseline");
    write(&baseline, "# unrelated entry\nsrc/other.rs:1:panic\n");
    let (code, stdout) = run(
        &root,
        &["--baseline", baseline.to_str().expect("utf-8 path")],
    );
    assert_eq!(code, 1, "a new diagnostic must fail:\n{stdout}");
    assert!(
        stdout.contains("crates/core/src/lib.rs:4:6: [panic]"),
        "{stdout}"
    );
    // The unmatched entry is also stale.
    assert!(stdout.contains("stale-baseline"), "{stdout}");
}

#[test]
fn fixed_but_still_baselined_diagnostic_fails_as_stale() {
    let root = ws("v2-ratchet-stale");
    write(&root.join("crates/core/src/lib.rs"), "//! Fixed.\n");
    let baseline = root.join("lint.baseline");
    write(&baseline, "crates/core/src/lib.rs:4:panic\n");
    let (code, stdout) = run(
        &root,
        &["--baseline", baseline.to_str().expect("utf-8 path")],
    );
    assert_eq!(code, 1, "a stale baseline entry must fail:\n{stdout}");
    assert!(stdout.contains("[stale-baseline]"), "{stdout}");
    assert!(
        stdout.contains("crates/core/src/lib.rs:4:panic"),
        "{stdout}"
    );
}

#[test]
fn missing_baseline_file_is_a_usage_error() {
    let root = dirty_ws("v2-ratchet-missing");
    let (code, _) = run(&root, &["--baseline", "/nonexistent/lint.baseline"]);
    assert_eq!(code, 2);
}

#[test]
fn list_rules_includes_the_cross_file_families() {
    let out = Command::new(env!("CARGO_BIN_EXE_lead-lint"))
        .arg("--list-rules")
        .output()
        .expect("run lead-lint");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let rules: Vec<&str> = stdout.lines().collect();
    assert_eq!(rules.len(), 10, "{stdout}");
    for id in [
        "layering",
        "error-contract",
        "scope-drift",
        "unsafe-contract",
        "hot-loop-alloc",
        "panic-path",
        "determinism-taint",
    ] {
        assert!(rules.contains(&id), "{stdout}");
    }
}
