//! The `lead-lint` binary: scans the workspace and exits non-zero on any
//! diagnostic. See the library docs for the rule catalog, waiver syntax,
//! JSON output, and the baseline ratchet.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

enum Format {
    Text,
    Json,
}

/// `lead-lint explain [R<N>|<rule-id>]`: prints rule documentation from the
/// catalog table ([`lead_lint::rules::RULE_DOCS`]) — the same source of
/// truth DESIGN.md §10 mirrors. With no argument, lists every rule.
fn explain(target: Option<&str>) -> ExitCode {
    let docs = &lead_lint::rules::RULE_DOCS;
    let Some(target) = target else {
        for d in docs {
            let first = d
                .doc
                .split(". ")
                .next()
                .unwrap_or(d.doc)
                .trim_end_matches('.');
            println!("{:<4} {:<18} {first}.", d.num, d.id);
        }
        println!(
            "\nrun `lead-lint explain R<N>` (or a rule id) for the full doc and waiver syntax"
        );
        return ExitCode::SUCCESS;
    };
    let want = target.to_ascii_lowercase();
    // `R4` matches both halves (R4a/R4b); ids and exact nums match one rule.
    let hits: Vec<_> = docs
        .iter()
        .filter(|d| {
            let num = d.num.to_ascii_lowercase();
            num == want || d.id == want || num.trim_end_matches(['a', 'b']) == want
        })
        .collect();
    if hits.is_empty() {
        eprintln!(
            "lead-lint: unknown rule `{target}` (known: {})",
            lead_lint::rules::RULE_IDS.join(", ")
        );
        return ExitCode::from(2);
    }
    for (k, d) in hits.iter().enumerate() {
        if k > 0 {
            println!();
        }
        println!("{} `{}`\n", d.num, d.id);
        println!("{}\n", d.doc);
        println!("waiver (on the offending line, or a comment-only line directly above):");
        println!("    {}", d.waiver);
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut format = Format::Text;
    let mut baseline: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => {
                    eprintln!("lead-lint: --root needs a path");
                    return ExitCode::from(2);
                }
            },
            "--format" => match args.next().as_deref() {
                Some("text") => format = Format::Text,
                Some("json") => format = Format::Json,
                Some(other) => {
                    eprintln!("lead-lint: unknown format `{other}` (text|json)");
                    return ExitCode::from(2);
                }
                None => {
                    eprintln!("lead-lint: --format needs a value (text|json)");
                    return ExitCode::from(2);
                }
            },
            "--baseline" => match args.next() {
                Some(p) => baseline = Some(p),
                None => {
                    eprintln!("lead-lint: --baseline needs a path");
                    return ExitCode::from(2);
                }
            },
            "--list-rules" => {
                for id in lead_lint::rules::RULE_IDS {
                    println!("{id}");
                }
                return ExitCode::SUCCESS;
            }
            "explain" => {
                let target = args.next();
                return explain(target.as_deref());
            }
            "--help" | "-h" => {
                // The rule range derives from the catalog so it cannot drift.
                let docs = &lead_lint::rules::RULE_DOCS;
                let (first, last) = (docs[0].num, docs[docs.len() - 1].num);
                println!(
                    "usage: lead-lint [--root DIR] [--format text|json] [--baseline FILE] [--list-rules]\n\
                     \x20      lead-lint explain [R<N>|<rule-id>]\n\n\
                     Scans the LEAD workspace sources and fails on violations of the\n\
                     determinism, panic-freedom, unsafe-contract, and architecture rule\n\
                     catalog ({first}-{last}, see DESIGN.md; `lead-lint explain` prints it).\n\
                     Waive a deliberate violation with a justified line comment:\n\
                     '// lint: allow(<rule>): <reason>'.\n\n\
                     --baseline enables ratchet mode: diagnostics listed in FILE (one\n\
                     'file:line:rule' per line) are suppressed, new diagnostics fail,\n\
                     and entries that no longer fire fail as stale-baseline."
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("lead-lint: unknown argument `{other}`");
                return ExitCode::from(2);
            }
        }
    }

    let root = match root {
        Some(r) => r,
        None => {
            let cwd = match std::env::current_dir() {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("lead-lint: cannot determine working directory: {e}");
                    return ExitCode::from(2);
                }
            };
            match lead_lint::walk::find_workspace_root(&cwd) {
                Some(r) => r,
                None => {
                    eprintln!(
                        "lead-lint: no workspace root found above {} (pass --root)",
                        cwd.display()
                    );
                    return ExitCode::from(2);
                }
            }
        }
    };

    let mut diags = match lead_lint::scan_workspace(&root) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("lead-lint: {e}");
            return ExitCode::from(2);
        }
    };

    if let Some(path) = &baseline {
        // The path is resolved against the cwd (as typed), but diagnostics
        // anchor at it verbatim so `lint.baseline:3: [stale-baseline] …`
        // stays copy-pasteable.
        let source = match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("lead-lint: cannot read baseline {path}: {e}");
                return ExitCode::from(2);
            }
        };
        let entries = match lead_lint::baseline::parse(&source) {
            Ok(e) => e,
            Err(e) => {
                eprintln!("lead-lint: {path}: {e}");
                return ExitCode::from(2);
            }
        };
        diags = lead_lint::baseline::apply(diags, &entries, path);
    }

    match format {
        Format::Json => print!("{}", lead_lint::diag::to_json(&diags)),
        Format::Text => {
            if diags.is_empty() {
                println!("lead-lint: clean");
            } else {
                for d in &diags {
                    println!("{d}");
                }
                println!("lead-lint: {} diagnostic(s)", diags.len());
            }
        }
    }
    if diags.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
