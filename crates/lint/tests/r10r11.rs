//! R10 (`unsafe-contract`) and R11 (`hot-loop-alloc`) fire/no-fire matrix:
//! the sanctioned-unsafe allowlist, the `// SAFETY:` discipline, the
//! crate-attr audit (with its R9 half), `#[allow(unsafe_code)]` placement,
//! kernel tagging, and waiver interplay — per-file cases through `scan_source`, manifest-scoped
//! cases through `scan_workspace` on fixture workspaces.

use std::fs;
use std::path::{Path, PathBuf};

fn write(path: &Path, content: &str) {
    fs::create_dir_all(path.parent().expect("file path has a parent")).expect("mkdir");
    fs::write(path, content).expect("write fixture file");
}

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

/// A fixture crate manifest with a lead class and optional kernel tag.
fn manifest(root: &Path, dir: &str, package: &str, class: &str, kernel: Option<&str>) {
    let mut toml = format!(
        "[package]\nname = \"{package}\"\n\n[package.metadata.lead]\nclass = \"{class}\"\n"
    );
    if let Some(k) = kernel {
        toml.push_str(&format!("kernel = \"{k}\"\n"));
    }
    write(&root.join(dir).join("Cargo.toml"), &toml);
}

/// Crate-root attrs the R9/R10 audits demand of every library class, kept
/// on two lines so fixture line numbers stay put.
const ATTRS: &str = "#![forbid(unsafe_code)]\n\
    #![deny(missing_docs)] #![deny(unreachable_pub)] \
    #![deny(clippy::disallowed_types)] #![deny(clippy::missing_errors_doc)]\n";

/// The lint levels lead-nn's class (result-lib, documented) requires beside
/// its unsafe lint.
const NN_LINTS: &str = "#![deny(missing_docs)]\n#![deny(unreachable_pub)]\n\
    #![deny(clippy::disallowed_types)]\n#![deny(clippy::missing_errors_doc)]\n";

fn rules_of(diags: &[lead_lint::diag::Diagnostic]) -> Vec<&'static str> {
    diags.iter().map(|d| d.rule).collect()
}

// ---------------------------------------------------------------------------
// R10 per-file: sites and SAFETY discipline
// ---------------------------------------------------------------------------

#[test]
fn unsafe_outside_the_allowlist_fires() {
    let src = "//! F.\n\nfn f(p: *const f32) -> f32 {\n    unsafe { *p }\n}\n";
    let diags = lead_lint::scan_source("crates/core/src/x.rs", src);
    assert_eq!(rules_of(&diags), vec!["unsafe-contract"], "{diags:?}");
    assert_eq!((diags[0].line, diags[0].col), (4, 5));
    assert!(diags[0]
        .message
        .contains("outside the sanctioned allowlist"));
    assert!(diags[0].message.contains("`crates/nn::simd`"));
}

#[test]
fn sanctioned_unsafe_with_a_safety_comment_is_clean() {
    let src = "//! F.\n\nfn f(p: *const f32) -> f32 {\n    \
               // SAFETY: `p` points at a live f32 owned by the caller.\n    \
               unsafe { *p }\n}\n";
    let diags = lead_lint::scan_source("crates/nn/src/simd/kernel.rs", src);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn sanctioned_unsafe_without_a_safety_comment_fires() {
    let src = "//! F.\n\nfn f(p: *const f32) -> f32 {\n    unsafe { *p }\n}\n";
    let diags = lead_lint::scan_source("crates/nn/src/simd/kernel.rs", src);
    assert_eq!(rules_of(&diags), vec!["unsafe-contract"], "{diags:?}");
    assert!(diags[0].message.contains("without a `// SAFETY:` comment"));
}

#[test]
fn empty_safety_text_fires() {
    let src = "//! F.\n\nfn f(p: *const f32) -> f32 {\n    // SAFETY:\n    unsafe { *p }\n}\n";
    let diags = lead_lint::scan_source("crates/nn/src/simd/kernel.rs", src);
    assert_eq!(rules_of(&diags), vec!["unsafe-contract"], "{diags:?}");
    assert!(diags[0].message.contains("empty"));
}

#[test]
fn same_line_safety_comment_counts() {
    let src = "//! F.\n\nfn f(p: *const f32) -> f32 {\n    \
               unsafe { *p } // SAFETY: caller keeps `p` alive\n}\n";
    let diags = lead_lint::scan_source("crates/nn/src/simd/kernel.rs", src);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn safety_comment_above_attribute_lines_counts() {
    // `#[target_feature]` sits between the SAFETY comment and the unsafe fn;
    // attribute lines are transparent to the upward walk.
    let src = "//! F.\n\n// SAFETY: only reached after is_x86_feature_detected!(\"avx2\").\n\
               #[target_feature(enable = \"avx2\")]\nunsafe fn k() {}\n";
    let diags = lead_lint::scan_source("crates/nn/src/simd/kernel.rs", src);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn unsafe_inside_cfg_test_is_exempt() {
    let src = "//! F.\n\n#[cfg(test)]\nmod tests {\n    fn t() {\n        let x = 0u8;\n        \
               let _ = unsafe { core::ptr::read(&x) };\n    }\n}\n";
    let diags = lead_lint::scan_source("crates/core/src/x.rs", src);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn unsafe_in_strings_and_comments_is_invisible() {
    let src = "//! F.\n\n// the word unsafe in prose is fine\nfn f() -> &'static str {\n    \
               \"unsafe { }\"\n}\n";
    let diags = lead_lint::scan_source("crates/geo/src/x.rs", src);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn waived_unsafe_site_is_silenced() {
    let src = "//! F.\n\nfn f(p: *const f32) -> f32 {\n    \
               // lint: allow(unsafe-contract): doc exemplar, justified in review\n    \
               unsafe { *p }\n}\n";
    let diags = lead_lint::scan_source("crates/nn/src/simd/kernel.rs", src);
    assert!(diags.is_empty(), "{diags:?}");
}

// ---------------------------------------------------------------------------
// R10 per-file: allow(unsafe_code) placement
// ---------------------------------------------------------------------------

#[test]
fn allow_unsafe_code_outside_sanctioned_declarations_fires() {
    for src in [
        "//! F.\n#![allow(unsafe_code)]\n",
        "//! F.\n#[expect(\n    unsafe_code,\n    reason = \"r\"\n)]\nmod m;\n",
    ] {
        let diags = lead_lint::scan_source("crates/core/src/lib.rs", src);
        assert_eq!(rules_of(&diags), vec!["unsafe-contract"], "{diags:?}");
        assert!(diags[0].message.contains("allow(unsafe_code)"));
    }
}

#[test]
fn allow_unsafe_code_on_the_sanctioned_mod_declaration_is_legal() {
    for src in [
        "//! N.\n\n/// Kernels.\n#[allow(unsafe_code)]\npub mod simd;\n",
        "//! N.\n\n/// Kernels.\n#[expect(\n    unsafe_code,\n    reason = \"r\"\n)]\npub mod simd;\n",
    ] {
        let diags = lead_lint::scan_source("crates/nn/src/lib.rs", src);
        assert!(diags.is_empty(), "{diags:?}");
    }
}

// ---------------------------------------------------------------------------
// The crate-attr audit: R10's unsafe lint, R9's class lint levels
// ---------------------------------------------------------------------------

#[test]
fn library_crate_missing_forbid_unsafe_code_fires() {
    let root = ws("r10-no-forbid");
    manifest(&root, "crates/geo", "lead-geo", "lib", None);
    write(
        &root.join("crates/geo/src/lib.rs"),
        "//! G.\n#![deny(missing_docs)]\n",
    );
    let diags = lead_lint::scan_workspace(&root).expect("scan");
    assert_eq!(rules_of(&diags), vec!["unsafe-contract"], "{diags:?}");
    assert_eq!(diags[0].file, "crates/geo/src/lib.rs");
    assert!(diags[0].message.contains("forbid(unsafe_code)"));
}

#[test]
fn library_crate_missing_deny_missing_docs_fires() {
    // (crate, class, crate-root attrs, the one lint left out): every library
    // needs missing_docs, eval as a result-lib crate also disallowed_types,
    // and data as a documented crate also unreachable_pub and
    // missing_errors_doc.
    let cases = [
        ("geo", "lib", "#![forbid(unsafe_code)]\n", "missing_docs"),
        (
            "eval",
            "result-lib",
            "#![forbid(unsafe_code)]\n#![deny(missing_docs)]\n",
            "clippy::disallowed_types",
        ),
        (
            "data",
            "lib",
            "#![forbid(unsafe_code)]\n#![deny(missing_docs)]\n\
             #![deny(clippy::missing_errors_doc)]\n",
            "unreachable_pub",
        ),
        (
            "data",
            "lib",
            "#![forbid(unsafe_code)]\n#![deny(missing_docs)]\n#![deny(unreachable_pub)]\n",
            "clippy::missing_errors_doc",
        ),
    ];
    for (dir, class, attrs, missing) in cases {
        let root = ws(&format!("r9-attrs-{dir}-{}", missing.replace(':', "")));
        manifest(
            &root,
            &format!("crates/{dir}"),
            &format!("lead-{dir}"),
            class,
            None,
        );
        write(
            &root.join(format!("crates/{dir}/src/lib.rs")),
            &format!("//! C.\n{attrs}"),
        );
        let diags = lead_lint::scan_workspace(&root).expect("scan");
        assert_eq!(rules_of(&diags), vec!["scope-drift"], "{diags:?}");
        assert!(
            diags[0].message.contains(&format!("#![deny({missing})]")),
            "{diags:?}"
        );
    }
}

#[test]
fn sanctioned_crate_must_use_deny_not_forbid() {
    let root = ws("r10-nn-forbid");
    manifest(&root, "crates/nn", "lead-nn", "result-lib", None);
    write(
        &root.join("crates/nn/src/lib.rs"),
        &format!("//! N.\n#![forbid(unsafe_code)]\n{NN_LINTS}"),
    );
    let diags = lead_lint::scan_workspace(&root).expect("scan");
    assert_eq!(rules_of(&diags), vec!["unsafe-contract"], "{diags:?}");
    assert!(diags[0].message.contains("forbid"), "{diags:?}");
}

#[test]
fn sanctioned_crate_with_deny_unsafe_code_is_clean() {
    let root = ws("r10-nn-deny");
    manifest(&root, "crates/nn", "lead-nn", "result-lib", None);
    write(
        &root.join("crates/nn/src/lib.rs"),
        &format!("//! N.\n#![deny(unsafe_code)]\n{NN_LINTS}"),
    );
    let diags = lead_lint::scan_workspace(&root).expect("scan");
    assert!(diags.is_empty(), "{diags:?}");
}

// ---------------------------------------------------------------------------
// R11 — hot-loop-alloc
// ---------------------------------------------------------------------------

/// A module whose loop body allocates: one `push` inside the loop, the
/// `Vec::new` hoisted above it (which must stay silent).
const HOT: &str =
    "//! Hot.\n\nfn grow(xs: &[u32]) -> Vec<u32> {\n    let mut out = Vec::new();\n    \
                   for &x in xs {\n        out.push(x);\n    }\n    out\n}\n";

#[test]
fn alloc_in_a_loop_of_a_kernel_tagged_module_fires() {
    let root = ws("r11-kernel");
    manifest(&root, "crates/core", "lead-core", "result-lib", Some("hot"));
    write(
        &root.join("crates/core/src/lib.rs"),
        &format!("//! C.\n{ATTRS}"),
    );
    write(&root.join("crates/core/src/hot.rs"), HOT);
    let diags = lead_lint::scan_workspace(&root).expect("scan");
    assert_eq!(rules_of(&diags), vec!["hot-loop-alloc"], "{diags:?}");
    assert_eq!(
        (diags[0].file.as_str(), diags[0].line),
        ("crates/core/src/hot.rs", 6)
    );
    assert!(diags[0].message.contains("`push`"));
}

#[test]
fn same_code_outside_the_kernel_tag_is_clean() {
    let root = ws("r11-cold");
    manifest(&root, "crates/core", "lead-core", "result-lib", Some("hot"));
    write(
        &root.join("crates/core/src/lib.rs"),
        &format!("//! C.\n{ATTRS}"),
    );
    write(&root.join("crates/core/src/cold.rs"), HOT);
    let diags = lead_lint::scan_workspace(&root).expect("scan");
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn kernel_true_tags_the_whole_crate() {
    let root = ws("r11-whole");
    manifest(
        &root,
        "crates/core",
        "lead-core",
        "result-lib",
        Some("true"),
    );
    write(
        &root.join("crates/core/src/lib.rs"),
        &format!("//! C.\n{ATTRS}"),
    );
    write(&root.join("crates/core/src/anywhere.rs"), HOT);
    let diags = lead_lint::scan_workspace(&root).expect("scan");
    assert_eq!(rules_of(&diags), vec!["hot-loop-alloc"], "{diags:?}");
}

#[test]
fn untagged_crate_never_fires_r11() {
    let root = ws("r11-untagged");
    manifest(&root, "crates/core", "lead-core", "result-lib", None);
    write(
        &root.join("crates/core/src/lib.rs"),
        &format!("//! C.\n{ATTRS}"),
    );
    write(&root.join("crates/core/src/hot.rs"), HOT);
    let diags = lead_lint::scan_workspace(&root).expect("scan");
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn macro_allocations_in_loops_fire_per_pattern() {
    let root = ws("r11-macros");
    manifest(&root, "crates/core", "lead-core", "result-lib", Some("hot"));
    write(
        &root.join("crates/core/src/lib.rs"),
        &format!("//! C.\n{ATTRS}"),
    );
    write(
        &root.join("crates/core/src/hot.rs"),
        "//! Hot.\n\nfn f(n: usize) {\n    for _ in 0..n {\n        let v = vec![0u8];\n        \
         let s = String::new();\n        drop((v, s));\n    }\n}\n",
    );
    let diags = lead_lint::scan_workspace(&root).expect("scan");
    assert_eq!(
        rules_of(&diags),
        vec!["hot-loop-alloc", "hot-loop-alloc"],
        "{diags:?}"
    );
    assert_eq!(
        diags.iter().map(|d| d.line).collect::<Vec<_>>(),
        vec![5, 6],
        "{diags:?}"
    );
}

#[test]
fn waived_hot_loop_alloc_is_silenced() {
    let root = ws("r11-waived");
    manifest(&root, "crates/core", "lead-core", "result-lib", Some("hot"));
    write(
        &root.join("crates/core/src/lib.rs"),
        &format!("//! C.\n{ATTRS}"),
    );
    write(
        &root.join("crates/core/src/hot.rs"),
        "//! Hot.\n\nfn grow(xs: &[u32]) -> Vec<u32> {\n    let mut out = Vec::new();\n    \
         for &x in xs {\n        \
         // lint: allow(hot-loop-alloc): amortised growth, measured in benches\n        \
         out.push(x);\n    }\n    out\n}\n",
    );
    let diags = lead_lint::scan_workspace(&root).expect("scan");
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn allocations_in_test_loops_are_exempt() {
    let root = ws("r11-tests");
    manifest(&root, "crates/core", "lead-core", "result-lib", Some("hot"));
    write(
        &root.join("crates/core/src/lib.rs"),
        &format!("//! C.\n{ATTRS}"),
    );
    write(
        &root.join("crates/core/src/hot.rs"),
        "//! Hot.\n\n#[cfg(test)]\nmod tests {\n    fn t() {\n        let mut v = Vec::new();\n        \
         for i in 0..4 {\n            v.push(i);\n        }\n    }\n}\n",
    );
    let diags = lead_lint::scan_workspace(&root).expect("scan");
    assert!(diags.is_empty(), "{diags:?}");
}
