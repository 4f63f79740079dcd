//! Cross-file analysis: the workspace dependency graph (R7
//! `layering`) and the crate classification audit (R9 `scope-drift`).
//!
//! Per-file rules see one file at a time; these checks see the workspace as
//! a whole, through the parsed manifests ([`crate::manifest`]) and each
//! library crate's root. Two families of diagnostics come out:
//!
//! - **sanctioned-DAG violations** — a manifest edge absent from the crate's
//!   allowed-dependency set in [`crate::rules::CRATES`] (e.g. nothing but
//!   bins may depend on `lead-eval`, and `lead-lint` stays dependency-free);
//!   rustc already rejects an undeclared crate and cargo a cycle;
//! - **scope drift** — a crate missing from the classification table, a
//!   stale table entry whose crate no longer exists, a manifest whose
//!   `[package.metadata.lead] class` disagrees with the table, a stale
//!   kernel/timing path in the scope tables, or a library crate root
//!   missing a lint attribute its class requires.

use std::path::Path;

use crate::diag::Diagnostic;
use crate::manifest::Manifest;
use crate::rules::{self, Class};

/// The manifest owning `rel_path` (longest matching directory prefix; the
/// root manifest owns `src/`).
pub(crate) fn manifest_for<'m>(rel_path: &str, manifests: &'m [Manifest]) -> Option<&'m Manifest> {
    let mut best: Option<&Manifest> = None;
    for m in manifests {
        let owns = if m.rel_dir.is_empty() {
            rel_path.starts_with("src/")
        } else {
            rel_path
                .strip_prefix(m.rel_dir.as_str())
                .is_some_and(|r| r.starts_with('/'))
        };
        if owns && best.is_none_or(|b| b.rel_dir.len() < m.rel_dir.len()) {
            best = Some(m);
        }
    }
    best
}

/// Runs the manifest-level checks: sanctioned-DAG edges (R7), the crate
/// classification audit (R9), and the crate-root attribute audits (R9/R10).
pub fn workspace_checks(root: &Path, manifests: &[Manifest]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    check_edges(manifests, &mut diags);
    check_classes(manifests, &mut diags);
    check_crate_attrs(root, manifests, &mut diags);
    // Stale-path completeness only applies to the real workspace (root
    // package `lead`): synthetic fixture workspaces are deliberately tiny.
    let is_real = manifests
        .iter()
        .any(|m| m.rel_dir.is_empty() && m.package.as_deref() == Some("lead"));
    if is_real {
        check_completeness(root, manifests, &mut diags);
    }
    diags
}

fn workspace_package<'m>(manifests: &'m [Manifest], pkg: &str) -> Option<&'m Manifest> {
    manifests
        .iter()
        .find(|m| !m.vendored && m.package.as_deref() == Some(pkg))
}

/// R7: every lib-class crate's workspace dependencies must be in its
/// sanctioned set; tool-class crates stay dependency-free.
fn check_edges(manifests: &[Manifest], diags: &mut Vec<Diagnostic>) {
    for m in manifests.iter().filter(|m| !m.vendored) {
        let Some(pkg) = m.package.as_deref() else {
            continue;
        };
        let Some(info) = rules::crate_info_by_dir(&m.rel_dir) else {
            continue; // fixture crates: classified by metadata only, no table
        };
        for dep in m.deps.iter().filter(|d| !d.dev) {
            if workspace_package(manifests, &dep.name).is_none() {
                continue; // vendored shim or external — not a layering edge
            }
            let sanctioned = match info.class {
                Class::Bin => true,
                Class::Tool => false,
                Class::Lib | Class::ResultLib => info.allowed.contains(&dep.name.as_str()),
            };
            if !sanctioned {
                let hint = match info.class {
                    Class::Tool => "the lint gate stays dependency-free".to_string(),
                    _ if info.allowed.is_empty() => format!("`{pkg}` is a leaf crate"),
                    _ => format!("sanctioned deps: {}", info.allowed.join(", ")),
                };
                diags.push(Diagnostic {
                    file: m.rel_path.clone(),
                    line: dep.line,
                    col: 1,
                    rule: "layering",
                    message: format!(
                        "`{pkg}` may not depend on `{}` — {hint} (see the sanctioned \
                         DAG in DESIGN.md §10)",
                        dep.name
                    ),
                    snippet: format!("{} -> {}", pkg, dep.name),
                });
            }
        }
    }
}

/// R9: every crate is classified, and manifest metadata agrees with the
/// classification table.
fn check_classes(manifests: &[Manifest], diags: &mut Vec<Diagnostic>) {
    let valid: Vec<&str> = Class::ALL.iter().map(|c| c.as_str()).collect();
    for m in manifests.iter().filter(|m| !m.vendored) {
        if m.package.is_none() {
            continue; // virtual workspace root (fixtures)
        }
        let table = rules::crate_info_by_dir(&m.rel_dir);
        match (&table, &m.lead_class) {
            (None, None) => diags.push(drift(
                m,
                1,
                format!(
                    "crate `{}` is unclassified: declare `[package.metadata.lead] class` \
                     and add it to the scope tables (rules::CRATES)",
                    m.rel_dir
                ),
            )),
            (Some(info), None) => diags.push(drift(
                m,
                1,
                format!(
                    "missing `[package.metadata.lead]`: declare `class = \"{}\"` to match \
                     the scope tables",
                    info.class.as_str()
                ),
            )),
            (Some(info), Some((class, line))) if class != info.class.as_str() => diags.push(drift(
                m,
                *line,
                format!(
                    "declared class `{class}` disagrees with the scope tables \
                     (rules::CRATES says `{}`)",
                    info.class.as_str()
                ),
            )),
            (None, Some((class, line))) if !valid.contains(&class.as_str()) => diags.push(drift(
                m,
                *line,
                format!(
                    "unknown crate class `{class}` (valid: {})",
                    valid.join(", ")
                ),
            )),
            _ => {}
        }
    }
}

fn drift(m: &Manifest, line: usize, message: String) -> Diagnostic {
    Diagnostic {
        file: m.rel_path.clone(),
        line,
        col: 1,
        rule: "scope-drift",
        message,
        snippet: m.rel_dir.clone(),
    }
}

/// The crate-root audit: every library-class crate must *actually* carry
/// the crate-root lints its contracts assume.
///
/// - R10 (`unsafe-contract`): crates outside the sanctioned-unsafe allowlist
///   need `#![forbid(unsafe_code)]`; crates hosting a sanctioned module
///   downgrade to `#![deny(unsafe_code)]` (so `#[expect(unsafe_code)]` can
///   re-open exactly the sanctioned module) and must not keep `forbid`
///   (which cannot be overridden).
/// - R9 (`scope-drift`): the lint levels that carry the class table. Every
///   library crate denies `missing_docs`, result-lib crates deny
///   `clippy::disallowed_types`, and the documented crates deny
///   `unreachable_pub` and `clippy::missing_errors_doc`.
///
/// The audit is manifest-driven: crates without a resolvable library class
/// (fixture workspaces without metadata) are skipped, as are crates whose
/// `src/lib.rs` cannot be read.
fn check_crate_attrs(root: &Path, manifests: &[Manifest], diags: &mut Vec<Diagnostic>) {
    for m in manifests.iter().filter(|m| !m.vendored) {
        let Some(pkg) = m.package.as_deref() else {
            continue;
        };
        let (class, doc) = match rules::crate_info_by_dir(&m.rel_dir) {
            Some(info) => (info.class, info.doc),
            None => match m.lead_class.as_ref().and_then(|(c, _)| {
                Class::ALL
                    .iter()
                    .find(|k| k.as_str() == c.as_str())
                    .copied()
            }) {
                Some(c) => (c, false),
                None => continue,
            },
        };
        if !matches!(class, Class::Lib | Class::ResultLib) {
            continue;
        }
        let lib_rel = if m.rel_dir.is_empty() {
            "src/lib.rs".to_string()
        } else {
            format!("{}/src/lib.rs", m.rel_dir)
        };
        let Ok(source) = std::fs::read_to_string(root.join(&lib_rel)) else {
            continue;
        };
        // Attr presence is checked on the comment-stripped code view with
        // whitespace compacted, so a doc comment *describing* the attribute
        // never satisfies the audit.
        let code: String = crate::scan::preprocess(&source)
            .iter()
            .flat_map(|l| l.code.chars())
            .filter(|c| !c.is_whitespace())
            .collect();
        let has = |attr: &str| code.contains(attr);
        let sanctioned = rules::SANCTIONED_UNSAFE
            .iter()
            .find(|s| s.crate_dir == m.rel_dir);
        let mut fire = |rule: &'static str, message: String| {
            diags.push(Diagnostic {
                file: lib_rel.clone(),
                line: 1,
                col: 1,
                rule,
                message,
                snippet: format!("crate `{pkg}`"),
            });
        };
        match sanctioned {
            None => {
                if !has("#![forbid(unsafe_code)]") {
                    fire(
                        "unsafe-contract",
                        format!(
                            "library crate `{pkg}` must carry `#![forbid(unsafe_code)]` at the \
                         crate root — unsafe is sanctioned only inside the allowlisted \
                         modules (rules::SANCTIONED_UNSAFE)"
                        ),
                    );
                }
            }
            Some(s) => {
                if has("#![forbid(unsafe_code)]") {
                    fire(
                        "unsafe-contract",
                        format!(
                            "`{pkg}` hosts the sanctioned unsafe module `{}`: use \
                         `#![deny(unsafe_code)]` at the crate root (with \
                         `#[expect(unsafe_code)]` on the module) — `forbid` cannot be \
                         overridden",
                            s.module
                        ),
                    );
                } else if !has("#![deny(unsafe_code)]") {
                    fire(
                        "unsafe-contract",
                        format!(
                            "`{pkg}` hosts the sanctioned unsafe module `{}` and must carry \
                         `#![deny(unsafe_code)]` at the crate root so unsafe stays \
                         opt-in per module",
                            s.module
                        ),
                    );
                }
            }
        }
        let mut required = vec![(
            "missing_docs",
            "every library crate documents its public surface",
        )];
        if class == Class::ResultLib {
            required.push((
                "clippy::disallowed_types",
                "result-lib crates ban the hash maps and clocks listed in clippy.toml",
            ));
        }
        if doc {
            required.push((
                "unreachable_pub",
                "a documented crate keeps every `pub` item reachable, so rustc checks its docs",
            ));
            required.push((
                "clippy::missing_errors_doc",
                "a documented crate gives every fallible public fn an `# Errors` section",
            ));
        }
        for (lint, why) in required {
            if !has(&format!("#![deny({lint})]")) && !has(&format!("#![forbid({lint})]")) {
                fire(
                    "scope-drift",
                    format!("crate `{pkg}` must carry `#![deny({lint})]` at the crate root: {why}"),
                );
            }
        }
    }
}

/// R9 (real workspace only): classification-table entries and scope-table
/// paths must still exist on disk, so the tables cannot rot.
fn check_completeness(root: &Path, manifests: &[Manifest], diags: &mut Vec<Diagnostic>) {
    let root_drift = |message: String| Diagnostic {
        file: "Cargo.toml".to_string(),
        line: 1,
        col: 1,
        rule: "scope-drift",
        message,
        snippet: "[workspace]".to_string(),
    };
    for info in rules::CRATES.iter().filter(|c| !c.dir.is_empty()) {
        if !manifests.iter().any(|m| m.rel_dir == info.dir) {
            diags.push(root_drift(format!(
                "scope-table entry `{}` (`{}`) has no crate on disk — remove it from \
                 rules::CRATES",
                info.dir, info.package
            )));
        }
    }
    for path in rules::scope_paths() {
        let full = root.join(path.trim_end_matches('/'));
        let ok = if path.ends_with('/') {
            full.is_dir()
        } else {
            full.is_file()
        };
        if !ok {
            diags.push(root_drift(format!(
                "scope-table path `{path}` no longer exists — update the kernel/timing/par \
                 tables in rules.rs"
            )));
        }
    }
}
