//! `lead-lint` — the workspace's static-analysis gate.
//!
//! LEAD's detection output must be reproducible to be trustworthy for a
//! safety-critical workload (hazardous-chemicals transport). PR 1 established
//! a hard contract — bit-identical `c-vec`s and detection distributions at
//! any thread count, and no panics on degenerate GPS days — and this crate
//! enforces it mechanically instead of by convention.
//!
//! The tool is built on a lossless hand-rolled tokenizer ([`lex`] — no
//! `syn`, no dependencies, so it runs in the offline build environment).
//! [`scan`] replays the token stream into per-line code/comment views
//! (string literals blanked, comments routed aside) and tracks
//! `#[cfg(test)]` regions by brace depth; [`blocks`] builds a block-aware
//! IR over the same token stream (brace tree, fn/impl/mod item extraction,
//! loop spans, `unsafe` sites) for the structural rules; [`rules`] applies
//! the catalog to every workspace source file, and [`workspace`] adds the
//! cross-file checks over the parsed manifests ([`manifest`]). Diagnostics
//! are printed as `file:line:col: [rule] message` with the offending
//! snippet (or as JSON); any diagnostic makes the binary exit non-zero,
//! which is how `scripts/ci.sh` gates merges.
//!
//! # Rule catalog
//!
//! | id            | contract                                                        |
//! |---------------|-----------------------------------------------------------------|
//! | `panic`       | R2: no `unwrap`/`expect`/`panic!`/literal indexing in libraries |
//! | `float-cast`  | R4a: no unguarded numeric narrowing in the numeric kernels      |
//! | `float-eq`    | R4b: no float `==`/`!=` against literals/consts in kernels      |
//! | `layering`    | R7: workspace dependency edges stay on the sanctioned DAG       |
//! | `error-contract` | R8: no stringly or boxed error types in library `pub fn`s    |
//! | `scope-drift` | R9: every crate is classified; scope tables and crate-root lint attrs stay current |
//! | `unsafe-contract` | R10: `unsafe` only in sanctioned modules, each site SAFETY-commented; library crates carry the crate-root unsafe lint |
//! | `hot-loop-alloc` | R11: no allocation/clone calls in loop bodies of kernel-tagged modules |
//! | `panic-path`  | R12: no `pub fn` of a result-affecting crate transitively reaches a panic site |
//! | `determinism-taint` | R13: no nondeterminism source reachable from result-affecting public APIs |
//!
//! The numbers R1, R3, R5 and R6 are retired: those checks, R7's
//! undeclared-import and cycle halves, and R8's `# Errors` half are enforced
//! by the toolchain, scoped by crate-root attributes that R9 audits:
//!
//! | former check          | now                                                        |
//! |-----------------------|------------------------------------------------------------|
//! | R1 hash order, R5 wall clock | clippy `disallowed_types` (list in `clippy.toml`), denied at each result-lib crate root |
//! | R3 thread spawning    | clippy `disallowed_methods`, fatal everywhere under `-D warnings` |
//! | R6 public-item docs   | rustc `missing_docs` + `unreachable_pub` in the documented crates |
//! | R7 undeclared imports, cycles | rustc name resolution, cargo's resolver             |
//! | R8 `# Errors` section | clippy `missing_errors_doc` in the documented crates       |
//!
//! R7 and R9 are cross-file: they read a parsed subset of every workspace
//! `Cargo.toml` ([`manifest`]), so a dependency edge outside the sanctioned
//! DAG, or a new crate missing from the classification tables, fails the
//! gate.
//!
//! R12–R13 are interprocedural: [`callgraph`] extracts every `fn` item and
//! call site from the token stream + block IR, resolves calls lexically
//! across the workspace (unresolved calls are opaque — assumed clean), and
//! propagates panic sites and nondeterminism taint along the resulting
//! graph, reporting a full witness path (`a → b → c: panics at file:line`)
//! anchored at the offending public entry point. Run `lead-lint explain R12`
//! for the rule docs.
//!
//! R10 confines `unsafe` to the allowlist in `rules::SANCTIONED_UNSAFE`
//! (initially `lead_nn::simd`): every site there needs a non-empty
//! `// SAFETY:` comment directly above, every library crate outside the
//! allowlist must actually carry `#![forbid(unsafe_code)]`, and sanctioned
//! crates downgrade to `#![deny(unsafe_code)]` with
//! `#[expect(unsafe_code)]` permitted only on the sanctioned module's
//! declaration. R11 reads the block IR's loop spans inside modules tagged
//! `[package.metadata.lead] kernel = …` and flags allocation calls
//! (`Vec::new`, `push`, `collect`, `clone`, `format!`, …) in loop bodies,
//! keeping kernel inner loops allocation-free.
//!
//! # Output and ratchet
//!
//! The binary prints `file:line: [rule] message` by default, or a byte-stable
//! JSON document with `--format json`. `--baseline <file>` enables ratchet
//! mode: diagnostics listed in the baseline are suppressed, new ones fail,
//! and baseline entries that no longer fire fail as `stale-baseline` so the
//! baseline can only shrink.
//!
//! # Waivers
//!
//! A violation can be waived where the flagged construct is deliberate, but
//! the waiver must carry a written justification. The syntax is a line
//! comment on the offending line (or on a comment-only line directly above
//! it):
//!
//! ```text
//! let h = hs.last().expect("non-empty"); // lint: allow(panic): asserted non-empty above
//! ```
//!
//! A waiver with no reason, an unknown rule name, or one that waives nothing
//! is itself a diagnostic (`bad-waiver` / `unused-waiver`), so the gate also
//! keeps waiver hygiene honest. Toolchain-enforced checks are waived with
//! `#[expect(lint, reason = "…")]` instead; clippy's `allow_attributes` and
//! `allow_attributes_without_reason`, denied workspace-wide, keep those
//! honest the same way.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod baseline;
pub mod blocks;
pub mod callgraph;
pub mod diag;
pub mod lex;
pub mod manifest;
pub mod rules;
pub mod scan;
pub mod walk;
pub mod workspace;

use diag::Diagnostic;

/// Scans one source file (given as its workspace-relative path with forward
/// slashes, plus its contents) and returns every diagnostic.
///
/// This is the single entry point shared by the binary and the test suite:
/// fixtures are scanned by handing their contents in under a pretend
/// workspace path so rule scoping can be exercised.
pub fn scan_source(rel_path: &str, source: &str) -> Vec<Diagnostic> {
    let view = scan::preprocess_file(source);
    let inputs = [callgraph::SourceFile {
        rel: rel_path,
        source,
        view: &view,
    }];
    let analysis = callgraph::analyze(&inputs, &[]);
    let mut diags = rules::apply_file(rel_path, &view, &[], analysis.used_for(rel_path));
    diags.extend(analysis.diags);
    diags
}

/// Scans the whole workspace rooted at `root` and returns all diagnostics,
/// sorted by `(file, line, col, rule)`. `Err` reports an I/O problem
/// (unreadable file or directory), which the binary also treats as a gate
/// failure.
///
/// Unlike [`scan_source`], this runs the cross-file families too: the
/// manifest-level layering/classification checks run once over the whole
/// workspace (R7/R9), kernel tags from the manifests scope R11, and the
/// interprocedural families (R12/R13) propagate over the workspace-wide call
/// graph ([`callgraph`]).
pub fn scan_workspace(root: &std::path::Path) -> Result<Vec<Diagnostic>, String> {
    let files = walk::workspace_sources(root)?;
    let manifests = manifest::workspace_manifests(root)?;
    // Load everything first: the call graph needs the whole workspace.
    let mut sources = Vec::with_capacity(files.len());
    for rel in &files {
        let full = root.join(rel);
        let source = std::fs::read_to_string(&full)
            .map_err(|e| format!("cannot read {}: {e}", full.display()))?;
        let view = scan::preprocess_file(&source);
        sources.push((rel.as_str(), source, view));
    }
    let inputs: Vec<callgraph::SourceFile<'_>> = sources
        .iter()
        .map(|(rel, source, view)| callgraph::SourceFile { rel, source, view })
        .collect();
    let analysis = callgraph::analyze(&inputs, &manifests);
    let mut diags = Vec::new();
    for (rel, _, view) in &sources {
        diags.extend(rules::apply_file(
            rel,
            view,
            &manifests,
            analysis.used_for(rel),
        ));
    }
    diags.extend(analysis.diags);
    diags.extend(workspace::workspace_checks(root, &manifests));
    diags.sort_by(|a, b| (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule)));
    Ok(diags)
}
