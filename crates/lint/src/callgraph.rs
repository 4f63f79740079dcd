//! Workspace-wide call graph and the interprocedural rule families built on
//! it: R12 `panic-path` and R13 `determinism-taint`.
//!
//! The per-line rules (R2–R11) are file-local: they see a `.unwrap()` but
//! not a public API that reaches one through three private helpers. Clippy's
//! per-crate `disallowed_types` bans wall-clock *sites* in result-affecting
//! crates without seeing a clock value laundered through a utility function
//! in another crate. This module
//! closes that gap. It extracts every `fn` item from the block IR
//! ([`crate::blocks`]), every call site from the lossless token stream
//! ([`crate::lex`]), resolves calls lexically across the workspace, and
//! builds a directed call graph with deterministic node ordering (nodes
//! sorted by `(file, line, col)`, edges deduplicated and sorted).
//!
//! # Resolution rules
//!
//! Resolution is deliberately conservative: anything the lexical rules
//! cannot pin down is *opaque* — no edge, assumed clean — so the
//! interprocedural families never fire on a guess. A call resolves when:
//!
//! 1. its path qualifier's first segment names a workspace crate, directly
//!    (`lead_geo::dist(…)`) or through a `use`-import alias
//!    (`use lead_geo::csv; … csv::read(…)`), or is `crate`/`self`/`super`
//!    (the caller's own crate): edges to every `fn` of that name in the
//!    named crate;
//! 2. it is unqualified and a `fn` of that name exists in the same file:
//!    edges to the same-file matches;
//! 3. it is unqualified and the name was imported (`use lead_geo::dist;`):
//!    edges to every `fn` of that name in the imported crate;
//! 4. otherwise — including method calls (`x.merge(…)`) and paths rooted in
//!    a type (`Detector::new`) — the name must be *unique* across the
//!    caller's reachable crate set (its own crate plus transitive declared
//!    non-dev workspace dependencies); ambiguity means opaque.
//!
//! Calls inside `macro_rules!` bodies, `#[cfg(test)]` regions, and crates
//! outside the `lib`/`result-lib` classes stay out of the graph.
//!
//! # The rule families
//!
//! **R12 `panic-path`**: every `pub fn` of a result-affecting crate must not
//! transitively reach a panic site (R2's site detection: `panic!`,
//! `.unwrap()`, `.expect(`, `unreachable!`, literal indexing). Sites inside
//! `#[cfg(test)]` or on a `debug_assert!` line are exempt. A
//! `lint: allow(panic-path)` waiver on a site line exempts that site; on a
//! `fn`'s declaration line it certifies the whole function (propagation
//! stops there). Diagnostics print the full witness path
//! (`a → b → c: panics at path:line`), chosen by breadth-first search over
//! the ordered graph so the report is byte-stable.
//!
//! **R13 `determinism-taint`**: the same propagation with a different site
//! detector — wall-clock reads outside the two sanctioned timing homes,
//! `HashMap`/`HashSet` iteration-order dependence, environment reads other
//! than the sanctioned `LEAD_SIMD_FORCE` probe, and thread-identity
//! (`thread::current`, `ThreadId`, `ptr::hash`) — must not be reachable
//! from result-affecting crates' public APIs.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::diag::Diagnostic;
use crate::lex::{self, Token, TokenKind};
use crate::manifest::Manifest;
use crate::rules::{self, Class};
use crate::scan::{FileView, Line};
use crate::workspace;

/// One source file handed to the interprocedural analysis.
pub struct SourceFile<'a> {
    /// Workspace-relative path with forward slashes.
    pub rel: &'a str,
    /// The raw source text (re-tokenized for call-site extraction).
    pub source: &'a str,
    /// The preprocessed view of the same source.
    pub view: &'a FileView,
}

/// The outcome of the interprocedural analysis: the R12/R13 diagnostics plus
/// the waivers those rules consumed, keyed by file, so the per-file waiver
/// hygiene pass can account for them.
pub struct Analysis {
    /// `panic-path` / `determinism-taint` diagnostics, unsorted.
    pub diags: Vec<Diagnostic>,
    /// Per rel path: `(line index, rule)` pairs of satisfied waivers.
    pub used_waivers: BTreeMap<String, Vec<(usize, String)>>,
}

impl Analysis {
    /// The waivers consumed in `rel`, as `(line index, rule)` pairs.
    pub fn used_for(&self, rel: &str) -> &[(usize, String)] {
        self.used_waivers.get(rel).map_or(&[], |v| v.as_slice())
    }
}

/// One extracted call site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallSite {
    /// 1-based line of the called name.
    pub line: usize,
    /// The called identifier (last path segment).
    pub name: String,
    /// The first path segment when the call is path-qualified
    /// (`lead_geo` in `lead_geo::csv::read(…)`, `crate`, a type name, …).
    pub qualifier: Option<String>,
    /// Whether this is a method call (`x.name(…)`).
    pub is_method: bool,
}

/// Identifiers that look like calls but never are.
const NON_CALL_IDENTS: [&str; 30] = [
    "fn", "if", "else", "while", "for", "in", "match", "return", "loop", "break", "continue", "as",
    "let", "mut", "ref", "move", "use", "mod", "pub", "impl", "trait", "struct", "enum", "union",
    "where", "dyn", "unsafe", "extern", "async", "await",
];

fn is_punct(tok: Option<&&Token<'_>>, text: &str) -> bool {
    tok.is_some_and(|t| t.kind == TokenKind::Punct && t.text == text)
}

/// Extracts every call site from a token stream: an identifier directly
/// followed by `(` (or by a turbofish `::<…>` then `(`). Macro invocations
/// (`name!(…)`) and `fn` definitions are skipped; `x.name(…)` is recorded as
/// a method call; `a::b::name(…)` records `a` as the qualifier.
pub fn extract_calls(tokens: &[Token<'_>]) -> Vec<CallSite> {
    let code: Vec<&Token<'_>> = tokens
        .iter()
        .filter(|t| {
            !matches!(
                t.kind,
                TokenKind::Whitespace
                    | TokenKind::LineComment { .. }
                    | TokenKind::BlockComment { .. }
            )
        })
        .collect();
    let mut out = Vec::new();
    for i in 0..code.len() {
        let t = code[i];
        if t.kind != TokenKind::Ident || NON_CALL_IDENTS.contains(&t.text) {
            continue;
        }
        // `fn name(…)` is a definition, not a call.
        if i > 0 && code[i - 1].text == "fn" {
            continue;
        }
        // Step over a turbofish: `name::<T, U>(…)`.
        let mut j = i + 1;
        if is_punct(code.get(j), ":")
            && is_punct(code.get(j + 1), ":")
            && is_punct(code.get(j + 2), "<")
        {
            let mut depth = 0usize;
            let mut k = j + 2;
            let mut closed = None;
            while let Some(tok) = code.get(k) {
                match tok.text {
                    "<" => depth += 1,
                    ">" => {
                        depth -= 1;
                        if depth == 0 {
                            closed = Some(k);
                            break;
                        }
                    }
                    ";" | "{" | "}" => break,
                    _ => {}
                }
                k += 1;
            }
            match closed {
                Some(k) => j = k + 1,
                None => continue,
            }
        }
        if !is_punct(code.get(j), "(") {
            continue;
        }
        let is_method = i > 0 && code[i - 1].text == ".";
        let mut qualifier = None;
        if !is_method {
            // Walk back over `seg::`-joined path segments to the root.
            let mut q = i;
            while q >= 3
                && code[q - 1].text == ":"
                && code[q - 2].text == ":"
                && code[q - 3].kind == TokenKind::Ident
            {
                q -= 3;
            }
            if q < i {
                qualifier = Some(code[q].text.to_string());
            }
        }
        out.push(CallSite {
            line: t.line,
            name: t.text.to_string(),
            qualifier,
            is_method,
        });
    }
    out
}

/// Maps each imported leaf identifier to the first segment of its `use`
/// path: `use lead_geo::csv::{read, write as w};` yields
/// `read → lead_geo`, `w → lead_geo`, `csv` not at all (only leaves bind).
pub fn import_leaves(tokens: &[Token<'_>]) -> BTreeMap<String, String> {
    let code: Vec<&Token<'_>> = tokens
        .iter()
        .filter(|t| {
            !matches!(
                t.kind,
                TokenKind::Whitespace
                    | TokenKind::LineComment { .. }
                    | TokenKind::BlockComment { .. }
            )
        })
        .collect();
    let mut map = BTreeMap::new();
    let mut i = 0usize;
    while i < code.len() {
        if !(code[i].kind == TokenKind::Ident && code[i].text == "use") {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        if is_punct(code.get(j), ":") && is_punct(code.get(j + 1), ":") {
            j += 2; // `use ::lead_geo::…` (absolute path)
        }
        let root = match code.get(j) {
            Some(t) if t.kind == TokenKind::Ident => t.text.to_string(),
            _ => {
                i = j;
                continue;
            }
        };
        while let Some(t) = code.get(j) {
            if t.text == ";" {
                break;
            }
            if t.kind == TokenKind::Ident && t.text != "as" && t.text != "self" {
                // A leaf is an identifier not followed by more path.
                let next = code.get(j + 1).map_or(";", |n| n.text);
                if matches!(next, "," | "}" | ";") {
                    map.insert(t.text.to_string(), root.clone());
                }
            }
            j += 1;
        }
        i = j + 1;
    }
    map
}

/// One classified crate participating in the graph.
struct CrateId {
    package: String,
    class: Class,
}

/// The crate owning `rel`, when it is a classifiable library crate: the
/// static table ([`rules::CRATES`]) decides first, then (for fixture
/// workspaces) the manifest's `[package.metadata.lead] class`.
fn crate_of(rel: &str, manifests: &[Manifest]) -> Option<CrateId> {
    if let Some(info) = rules::class_of(rel) {
        return Some(CrateId {
            package: info.package.to_string(),
            class: info.class,
        });
    }
    let m = workspace::manifest_for(rel, manifests)?;
    let class = m.lead_class.as_ref().and_then(|(c, _)| {
        Class::ALL
            .iter()
            .find(|k| k.as_str() == c.as_str())
            .copied()
    })?;
    Some(CrateId {
        package: m.package.clone()?,
        class,
    })
}

/// The transitive non-dev workspace dependency closure of `start` (itself
/// included). Manifests are ground truth; crates without one (single-file
/// scans) fall back to the sanctioned sets in [`rules::CRATES`].
fn reach_of(start: &str, manifests: &[Manifest]) -> BTreeSet<String> {
    let mut seen = BTreeSet::new();
    let mut queue = vec![start.to_string()];
    while let Some(pkg) = queue.pop() {
        if !seen.insert(pkg.clone()) {
            continue;
        }
        if let Some(m) = manifests
            .iter()
            .find(|m| !m.vendored && m.package.as_deref() == Some(pkg.as_str()))
        {
            queue.extend(m.deps.iter().filter(|d| !d.dev).map(|d| d.name.clone()));
        } else if let Some(info) = rules::CRATES.iter().find(|c| c.package == pkg) {
            queue.extend(info.allowed.iter().map(|s| s.to_string()));
        }
    }
    seen
}

/// One `fn` definition node in the call graph.
struct FnNode {
    file: usize,
    crate_idx: usize,
    name: String,
    line: usize,
    col: usize,
    is_pub: bool,
    open: usize,
    close: usize,
}

/// The assembled graph: deterministic nodes, sorted deduplicated edges, and
/// the per-file context needed to anchor diagnostics.
struct Graph {
    nodes: Vec<FnNode>,
    edges: Vec<Vec<usize>>,
    crates: Vec<CrateId>,
}

/// Whether the `fn` keyword at `col` on `code` is `pub` (not `pub(crate)`):
/// the qualifier run directly before it contains a bare `pub` token.
fn decl_is_pub(code: &str, col: usize) -> bool {
    let end = (col.saturating_sub(1)).min(code.len());
    let Some(prefix) = code.get(..end) else {
        return false;
    };
    prefix
        .split_whitespace()
        .rev()
        .take_while(|t| matches!(*t, "pub" | "const" | "unsafe" | "async" | "extern"))
        .any(|t| t == "pub")
}

fn build_graph(files: &[SourceFile<'_>], manifests: &[Manifest]) -> Graph {
    // Crate table: one entry per distinct classifiable lib crate.
    let mut crates: Vec<CrateId> = Vec::new();
    let crate_idx_of = |package: String, class: Class, crates: &mut Vec<CrateId>| {
        if let Some(i) = crates.iter().position(|c| c.package == package) {
            return i;
        }
        crates.push(CrateId { package, class });
        crates.len() - 1
    };

    let mut file_crate: Vec<Option<usize>> = Vec::with_capacity(files.len());
    for f in files {
        let idx = crate_of(f.rel, manifests)
            .filter(|c| matches!(c.class, Class::Lib | Class::ResultLib))
            .map(|c| crate_idx_of(c.package, c.class, &mut crates));
        file_crate.push(idx);
    }

    // Fn nodes from the block IR, deterministic order.
    let mut nodes: Vec<FnNode> = Vec::new();
    for (fi, f) in files.iter().enumerate() {
        let Some(ci) = file_crate[fi] else { continue };
        for item in &f.view.blocks.items {
            if item.kind != crate::blocks::ItemKind::Fn {
                continue;
            }
            let (Some(name), Some(body)) = (item.name.clone(), item.body) else {
                continue;
            };
            let Some(line) = f.view.lines.get(item.line - 1) else {
                continue;
            };
            if line.in_test {
                continue;
            }
            nodes.push(FnNode {
                file: fi,
                crate_idx: ci,
                name,
                line: item.line,
                col: item.col,
                is_pub: decl_is_pub(&line.code, item.col),
                open: body.open_line,
                close: body.close_line,
            });
        }
    }
    nodes.sort_by_key(|n| (n.file, n.line, n.col));

    // Lookup structures.
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, n) in nodes.iter().enumerate() {
        by_name.entry(n.name.as_str()).or_default().push(i);
    }
    let reach: Vec<BTreeSet<String>> = crates
        .iter()
        .map(|c| reach_of(&c.package, manifests))
        .collect();
    let resolve_crate = |ident: &str, own: usize| -> Option<usize> {
        if matches!(ident, "crate" | "self" | "super") {
            return Some(own);
        }
        let dashed = ident.replace('_', "-");
        crates
            .iter()
            .position(|c| c.package == ident || c.package == dashed)
    };

    // Edges: extract and resolve every call per file.
    let mut edges: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); nodes.len()];
    for (fi, f) in files.iter().enumerate() {
        let Some(own) = file_crate[fi] else { continue };
        let tokens = lex::tokenize(f.source);
        let imports = import_leaves(&tokens);
        let owner = line_owners(&nodes, fi, f.view.lines.len());
        for call in extract_calls(&tokens) {
            if f.view.lines.get(call.line - 1).is_none_or(|l| l.in_test) {
                continue;
            }
            let Some(from) = owner.get(call.line).copied().flatten() else {
                continue;
            };
            let in_crate = |k: usize, cands: &[usize]| -> Vec<usize> {
                cands
                    .iter()
                    .copied()
                    .filter(|&n| nodes[n].crate_idx == k)
                    .collect()
            };
            let cands = by_name.get(call.name.as_str()).map_or(&[][..], |v| v);
            let targets: Vec<usize> = if let Some(q) = call
                .qualifier
                .as_ref()
                .map(|q| imports.get(q).unwrap_or(q))
                .and_then(|root| resolve_crate(root, own))
            {
                // Rule 1: path rooted in a workspace crate (or an alias).
                in_crate(q, cands)
            } else if call.qualifier.is_none() && !call.is_method {
                // Rule 2: same-file name match wins.
                let same_file: Vec<usize> = cands
                    .iter()
                    .copied()
                    .filter(|&n| nodes[n].file == fi)
                    .collect();
                if !same_file.is_empty() {
                    same_file
                } else if let Some(k) = imports
                    .get(call.name.as_str())
                    .and_then(|root| resolve_crate(root, own))
                {
                    // Rule 3: the name itself was imported.
                    in_crate(k, cands)
                } else {
                    unique_in_reach(&nodes, cands, &reach[own], &crates)
                }
            } else {
                // Rule 4: methods and type-qualified paths.
                unique_in_reach(&nodes, cands, &reach[own], &crates)
            };
            for t in targets {
                if t != from {
                    edges[from].insert(t);
                }
            }
        }
    }

    Graph {
        nodes,
        edges: edges.into_iter().map(|s| s.into_iter().collect()).collect(),
        crates,
    }
}

/// The candidates in the reachable crate set — kept only when unambiguous.
fn unique_in_reach(
    nodes: &[FnNode],
    cands: &[usize],
    reach: &BTreeSet<String>,
    crates: &[CrateId],
) -> Vec<usize> {
    let hits: Vec<usize> = cands
        .iter()
        .copied()
        .filter(|&n| reach.contains(&crates[nodes[n].crate_idx].package))
        .collect();
    if hits.len() == 1 {
        hits
    } else {
        Vec::new() // ambiguous or unknown: opaque
    }
}

/// For one file, maps each 1-based line to its innermost enclosing `fn`
/// node, so call sites and panic/taint sites attribute to the right node.
fn line_owners(nodes: &[FnNode], file: usize, nlines: usize) -> Vec<Option<usize>> {
    let mut owner: Vec<Option<usize>> = vec![None; nlines + 1];
    for (i, n) in nodes.iter().enumerate() {
        if n.file != file {
            continue;
        }
        let last = n.close.min(nlines);
        for slot in owner.iter_mut().take(last + 1).skip(n.open) {
            match *slot {
                Some(o) if nodes[o].open >= n.open => {}
                _ => *slot = Some(i),
            }
        }
    }
    owner
}

/// A rule-specific site found inside a function body.
struct Site {
    line: usize,
    what: String,
}

/// Runs the interprocedural analysis over `files` and returns the R12/R13
/// diagnostics plus the waivers they consumed. Pass the workspace manifests
/// when scanning a whole tree; an empty slice falls back to the static
/// classification table (single-file fixture scans).
pub fn analyze(files: &[SourceFile<'_>], manifests: &[Manifest]) -> Analysis {
    let graph = build_graph(files, manifests);
    let mut analysis = Analysis {
        diags: Vec::new(),
        used_waivers: BTreeMap::new(),
    };
    run_rule(
        "panic-path",
        files,
        &graph,
        &mut analysis,
        |_, line| {
            if rules::find_word(&line.code, "debug_assert").is_some() {
                return None;
            }
            rules::panic_sites(&line.code)
                .into_iter()
                .next()
                .map(|s| s.what)
        },
        |entry, path, file, line, what| {
            format!(
                "`pub fn {entry}` can reach a panic site: {path}: panics at \
                 {file}:{line} ({what}) — public APIs of result-affecting crates \
                 must be panic-free end to end (R12); return a typed error, or \
                 waive a step with `// lint: allow(panic-path): <reason>`"
            )
        },
    );
    run_rule(
        "determinism-taint",
        files,
        &graph,
        &mut analysis,
        taint_site,
        |entry, path, file, line, what| {
            format!(
                "`pub fn {entry}` can reach a nondeterminism source: {path}: \
                 tainted at {file}:{line} ({what}) — results must not depend on \
                 wall clocks, hash iteration order, the environment, or thread \
                 identity (R13); thread a deterministic input through, or waive \
                 a step with `// lint: allow(determinism-taint): <reason>`"
            )
        },
    );
    analysis
}

/// The R13 site detector over one code line.
fn taint_site(rel: &str, line: &Line) -> Option<String> {
    let code = line.code.as_str();
    if !rules::is_timing_file(rel) {
        for pat in ["Instant", "SystemTime"] {
            if rules::find_word(code, pat).is_some() {
                return Some(format!("`{pat}` wall-clock read"));
            }
        }
    }
    for pat in ["HashMap", "HashSet"] {
        if rules::find_word(code, pat).is_some() {
            return Some(format!("`{pat}` iteration order"));
        }
    }
    if code.contains("env::var") && !line.raw.contains("LEAD_SIMD_FORCE") {
        return Some("`env::var` read".to_string());
    }
    for pat in ["thread::current", "ptr::hash"] {
        if code.contains(pat) {
            return Some(format!("`{pat}`"));
        }
    }
    if rules::find_word(code, "ThreadId").is_some() {
        return Some("`ThreadId`".to_string());
    }
    None
}

/// Runs one propagation rule (`panic-path` or `determinism-taint`) over the
/// assembled graph.
fn run_rule(
    rule: &'static str,
    files: &[SourceFile<'_>],
    graph: &Graph,
    analysis: &mut Analysis,
    detect: impl Fn(&str, &Line) -> Option<String>,
    message: impl Fn(&str, &str, &str, usize, &str) -> String,
) {
    let nodes = &graph.nodes;
    let mut sites: Vec<Option<Site>> = (0..nodes.len()).map(|_| None).collect();
    let mut certified = vec![false; nodes.len()];
    let mut used: BTreeMap<String, Vec<(usize, String)>> = BTreeMap::new();

    // Local sites and per-site waivers, file by file.
    let mut by_file: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (i, n) in nodes.iter().enumerate() {
        by_file.entry(n.file).or_default().push(i);
    }
    for (&fi, members) in &by_file {
        let f = &files[fi];
        let lines = f.view.lines.as_slice();
        let owner = line_owners(nodes, fi, lines.len());
        for &ni in members {
            let n = &nodes[ni];
            // A waiver on the declaration line certifies the whole fn.
            if let Some(w) = rules::waiver_for(lines, n.line - 1, rule) {
                certified[ni] = true;
                // Usage is decided later, once reachability is known.
                let _ = w;
            }
            for ln in n.open..=n.close.min(lines.len()) {
                if owner[ln] != Some(ni) {
                    continue; // owned by a nested fn
                }
                let line = &lines[ln - 1];
                if line.in_test {
                    continue;
                }
                let Some(what) = detect(f.rel, line) else {
                    continue;
                };
                if let Some(w) = rules::waiver_for(lines, ln - 1, rule) {
                    used.entry(f.rel.to_string()).or_default().push(w);
                } else if sites[ni].is_none() {
                    sites[ni] = Some(Site { line: ln, what });
                }
            }
        }
    }

    // Decide declaration-waiver usage: the waiver is consumed iff the fn
    // could otherwise reach a site (through certified nodes too — the
    // unrestricted graph decides what the waiver actually suppresses).
    let unblocked = vec![false; nodes.len()];
    for (ni, n) in nodes.iter().enumerate() {
        if !certified[ni] {
            continue;
        }
        if witness(ni, &graph.edges, &sites, &unblocked).is_some() {
            if let Some(w) =
                rules::waiver_for(files[n.file].view.lines.as_slice(), n.line - 1, rule)
            {
                used.entry(files[n.file].rel.to_string())
                    .or_default()
                    .push(w);
            }
        }
    }

    // Entries: every pub fn of a result-affecting crate.
    for (ni, n) in nodes.iter().enumerate() {
        if !n.is_pub || certified[ni] || graph.crates[n.crate_idx].class != Class::ResultLib {
            continue;
        }
        let Some(path) = witness(ni, &graph.edges, &sites, &certified) else {
            continue;
        };
        let last = *path.last().expect("witness paths are non-empty");
        let site = sites[last].as_ref().expect("witness ends at a site");
        let names: Vec<&str> = path.iter().map(|&p| nodes[p].name.as_str()).collect();
        let f = &files[n.file];
        let decl = &f.view.lines[n.line - 1];
        analysis.diags.push(Diagnostic {
            file: f.rel.to_string(),
            line: n.line,
            col: n.col,
            rule,
            message: message(
                &n.name,
                &names.join(" → "),
                files[nodes[last].file].rel,
                site.line,
                &site.what,
            ),
            snippet: decl.raw.clone(),
        });
    }

    for (rel, mut ws) in used {
        analysis
            .used_waivers
            .entry(rel)
            .or_default()
            .append(&mut ws);
    }
}

/// Breadth-first search from `start` to the nearest node carrying a local
/// site, never expanding blocked (certified) nodes. Neighbor order follows
/// the sorted edge lists, so the returned path is deterministic.
fn witness(
    start: usize,
    edges: &[Vec<usize>],
    sites: &[Option<Site>],
    blocked: &[bool],
) -> Option<Vec<usize>> {
    let mut prev: BTreeMap<usize, usize> = BTreeMap::new();
    let mut seen = vec![false; edges.len()];
    let mut queue = VecDeque::new();
    seen[start] = true;
    queue.push_back(start);
    while let Some(m) = queue.pop_front() {
        if sites[m].is_some() {
            let mut path = vec![m];
            let mut cur = m;
            while cur != start {
                cur = prev[&cur];
                path.push(cur);
            }
            path.reverse();
            return Some(path);
        }
        for &s in &edges[m] {
            if !seen[s] && !blocked[s] {
                seen[s] = true;
                prev.insert(s, m);
                queue.push_back(s);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn calls(src: &str) -> Vec<CallSite> {
        extract_calls(&lex::tokenize(src))
    }

    #[test]
    fn plain_method_and_path_calls_are_classified() {
        let got = calls("fn f() { helper(); x.merge(y); lead_geo::csv::read(p); }\n");
        assert_eq!(got.len(), 3, "{got:?}");
        assert_eq!((got[0].name.as_str(), got[0].is_method), ("helper", false));
        assert!(got[0].qualifier.is_none());
        assert_eq!((got[1].name.as_str(), got[1].is_method), ("merge", true));
        assert_eq!(got[2].qualifier.as_deref(), Some("lead_geo"));
        assert_eq!(got[2].name, "read");
    }

    #[test]
    fn macros_definitions_and_keywords_are_not_calls() {
        let got = calls("fn f(x: u32) { println!(\"{x}\"); if (x > 0) { return (); } }\n");
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn turbofish_calls_resolve_to_the_base_name() {
        let got = calls("fn f(s: &str) { s.parse::<i32>(); collect::<Vec<_>>(it); }\n");
        let names: Vec<&str> = got.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["parse", "collect"], "{got:?}");
        assert!(got[0].is_method);
        assert!(!got[1].is_method);
    }

    #[test]
    fn calls_in_strings_and_comments_are_invisible() {
        let got = calls("fn f() -> &'static str { \"helper()\" } // helper()\n");
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn import_leaves_bind_leaves_to_the_path_root() {
        let map = import_leaves(&lex::tokenize(
            "use lead_geo::csv;\nuse lead_nn::{par, num as n};\nuse crate::detect;\nuse lead_geo::prelude::*;\n",
        ));
        assert_eq!(map.get("csv").map(String::as_str), Some("lead_geo"));
        assert_eq!(map.get("par").map(String::as_str), Some("lead_nn"));
        assert_eq!(map.get("n").map(String::as_str), Some("lead_nn"));
        assert_eq!(map.get("detect").map(String::as_str), Some("crate"));
        assert!(!map.contains_key("prelude"), "globs bind nothing: {map:?}");
        assert!(!map.contains_key("num"), "`as` rebinds the leaf: {map:?}");
    }

    #[test]
    fn pub_detection_distinguishes_restricted_visibility() {
        assert!(decl_is_pub("pub fn f()", 5));
        assert!(decl_is_pub("    pub const fn f()", 15));
        assert!(decl_is_pub("pub unsafe fn f()", 12));
        assert!(!decl_is_pub("fn f()", 1));
        assert!(!decl_is_pub("pub(crate) fn f()", 12));
        assert!(!decl_is_pub("pub(super) fn f()", 12));
    }
}
