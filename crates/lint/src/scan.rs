//! Per-line views over the lossless token stream: code/comment separation,
//! string stripping, `#[cfg(test)]` region tracking, and waiver extraction.
//!
//! The heavy lifting lives in [`crate::lex`]; this module replays the token
//! stream into the per-line *code-only* view the rule catalog consumes, so a
//! pattern inside a string literal or a doc-comment example can never
//! trigger a rule. String literals keep their quotes (`"foo"` becomes `""`),
//! char literals become `''`, and comments are routed to a separate
//! per-line comment channel that the waiver parser reads.

use crate::blocks::{self, FileBlocks};
use crate::lex::{self, TokenKind};

/// The full per-file scan input: the per-line code/comment view plus the
/// block-aware IR, built from a single tokenize pass.
#[derive(Debug, Clone)]
pub struct FileView {
    /// Preprocessed lines (code/comment channels, test regions, waivers).
    pub lines: Vec<Line>,
    /// The block IR: brace tree, items, loop spans, unsafe sites.
    pub blocks: FileBlocks,
}

/// Tokenizes `source` once and builds both the per-line view and the block
/// IR over the same token stream.
pub fn preprocess_file(source: &str) -> FileView {
    let tokens = lex::tokenize(source);
    FileView {
        lines: lines_from(source, &tokens),
        blocks: blocks::build(&tokens),
    }
}

/// One preprocessed source line.
#[derive(Debug, Clone)]
pub struct Line {
    /// 1-based line number.
    pub number: usize,
    /// The code content with string/char-literal bodies and comments removed
    /// (quotes are kept, so `"foo"` becomes `""`).
    pub code: String,
    /// The concatenated comment text of the line (without `//` markers).
    pub comment: String,
    /// The original line, trimmed, for diagnostics.
    pub raw: String,
    /// Whether the line lies in (or opens/closes) a `#[cfg(test)]`/`#[test]`
    /// region.
    pub in_test: bool,
    /// Whether the line is a doc comment (`///`, `//!`, or `/** … */`).
    pub is_doc: bool,
    /// Waivers declared on this line, as parsed from its comments.
    pub waivers: Vec<Waiver>,
}

impl Line {
    /// True when the line carries no code at all (blank or comment-only), in
    /// which case a waiver on it applies to the next code line.
    pub fn is_comment_only(&self) -> bool {
        self.code.trim().is_empty()
    }
}

/// One `lint: allow(rule, …): reason` annotation.
#[derive(Debug, Clone)]
pub struct Waiver {
    /// The rule ids being waived, exactly as written.
    pub rules: Vec<String>,
    /// The justification text after the rule list (may be empty — the rule
    /// layer then reports a `bad-waiver`).
    pub reason: String,
}

/// Splits `source` into preprocessed [`Line`]s.
pub fn preprocess(source: &str) -> Vec<Line> {
    let tokens = lex::tokenize(source);
    lines_from(source, &tokens)
}

/// Replays an already-tokenized `source` into preprocessed [`Line`]s.
fn lines_from(source: &str, tokens: &[lex::Token<'_>]) -> Vec<Line> {
    let stripped = strip_lines(source, tokens);

    let mut out = Vec::with_capacity(stripped.len());
    let mut depth: i64 = 0;
    // While `Some(d)`, lines are inside a test region that ends when the
    // brace depth returns to `d`.
    let mut test_until_depth: Option<i64> = None;
    // A `#[cfg(test)]` / `#[test]` attribute has been seen and its item's
    // opening brace is still ahead.
    let mut pending_test = false;

    for (idx, (raw_line, stripped_line)) in source.lines().zip(stripped).enumerate() {
        let StrippedLine {
            code,
            comment,
            continued,
        } = stripped_line;

        let trimmed_code = code.trim_start();
        if trimmed_code.starts_with("#[cfg(test)") || trimmed_code.starts_with("#[test]") {
            // Attributes inside an already-open test region must not leak a
            // pending marker past the region's closing brace.
            pending_test = test_until_depth.is_none();
        }

        let in_test_before = test_until_depth.is_some();
        let mut opened_here = false;
        if test_until_depth.is_none() && pending_test && code.contains('{') {
            test_until_depth = Some(depth);
            pending_test = false;
            opened_here = true;
        } else if pending_test && !code.contains('{') && code.contains(';') {
            // `#[cfg(test)] use …;` — a braceless item consumes the attribute.
            pending_test = false;
        }

        for b in code.bytes() {
            match b {
                b'{' => depth += 1,
                b'}' => depth -= 1,
                _ => {}
            }
        }
        if let Some(d) = test_until_depth {
            if depth <= d {
                test_until_depth = None;
            }
        }

        let raw_trim = raw_line.trim();
        let is_doc = !continued
            && (raw_trim.starts_with("///")
                || raw_trim.starts_with("//!")
                || raw_trim.starts_with("/**")
                || raw_trim.starts_with("/*!"));

        // Waivers live in regular comments only: doc comments describe the
        // waiver syntax (e.g. in this crate) without declaring one.
        let waivers = if is_doc {
            Vec::new()
        } else {
            parse_waivers(&comment)
        };
        out.push(Line {
            number: idx + 1,
            waivers,
            code,
            comment,
            raw: raw_trim.to_string(),
            in_test: in_test_before || opened_here,
            is_doc,
        });
    }
    out
}

/// The per-line result of replaying the token stream.
struct StrippedLine {
    code: String,
    comment: String,
    /// True when the line starts inside a multi-line string or block comment
    /// opened on an earlier line.
    continued: bool,
}

/// Replays the token stream into per-line code/comment channels.
fn strip_lines(source: &str, tokens: &[lex::Token<'_>]) -> Vec<StrippedLine> {
    let count = source.lines().count();
    let mut lines: Vec<StrippedLine> = (0..count)
        .map(|_| StrippedLine {
            code: String::new(),
            comment: String::new(),
            continued: false,
        })
        .collect();
    let push_code = |lines: &mut Vec<StrippedLine>, line: usize, s: &str| {
        if let Some(l) = lines.get_mut(line - 1) {
            l.code.push_str(s);
        }
    };

    for tok in tokens {
        match tok.kind {
            TokenKind::Whitespace => {
                for (k, seg) in tok.text.split('\n').enumerate() {
                    push_code(&mut lines, tok.line + k, seg.trim_end_matches('\r'));
                }
            }
            TokenKind::Ident | TokenKind::Number | TokenKind::Lifetime | TokenKind::Punct => {
                push_code(&mut lines, tok.line, tok.text);
            }
            TokenKind::Char => push_code(&mut lines, tok.line, "''"),
            TokenKind::Str { terminated, .. } => {
                let newlines = tok.text.matches('\n').count();
                push_code(&mut lines, tok.line, "\"");
                if terminated {
                    push_code(&mut lines, tok.line + newlines, "\"");
                }
                for k in 1..=newlines {
                    if let Some(l) = lines.get_mut(tok.line + k - 1) {
                        l.continued = true;
                    }
                }
            }
            TokenKind::LineComment { .. } => {
                if let Some(l) = lines.get_mut(tok.line - 1) {
                    l.comment.push_str(&tok.text[2..]);
                }
            }
            TokenKind::BlockComment { terminated, .. } => {
                strip_block_comment(&mut lines, tok.line, tok.text, terminated);
                let newlines = tok.text.matches('\n').count();
                for k in 1..=newlines {
                    if let Some(l) = lines.get_mut(tok.line + k - 1) {
                        l.continued = true;
                    }
                }
            }
        }
    }
    lines
}

/// Routes a block comment's inner text (delimiters excluded, nested
/// delimiters too) into the comment channel of each line it spans.
fn strip_block_comment(
    lines: &mut [StrippedLine],
    start_line: usize,
    text: &str,
    terminated: bool,
) {
    let bytes = text.as_bytes();
    // Skip the opening `/*`; drop the closing `*/` when present.
    let end = if terminated {
        bytes.len() - 2
    } else {
        bytes.len()
    };
    let mut line = start_line;
    let mut i = 2;
    while i < end {
        match bytes[i] {
            b'/' if bytes.get(i + 1) == Some(&b'*') => i += 2,
            b'*' if bytes.get(i + 1) == Some(&b'/') => i += 2,
            b'\n' => {
                line += 1;
                i += 1;
            }
            b'\r' if bytes.get(i + 1) == Some(&b'\n') => i += 1,
            _ => {
                // Push whole UTF-8 characters, not bytes.
                let ch_len = utf8_len(bytes[i]);
                if let Some(l) = lines.get_mut(line - 1) {
                    l.comment.push_str(&text[i..usize::min(i + ch_len, end)]);
                }
                i += ch_len;
            }
        }
    }
}

fn utf8_len(b: u8) -> usize {
    match b {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

/// Parses every `lint: allow(rule, …)[:—-] reason` annotation out of a
/// line's comment text.
fn parse_waivers(comment: &str) -> Vec<Waiver> {
    let mut out = Vec::new();
    let mut rest = comment;
    while let Some(pos) = rest.find("lint:") {
        rest = &rest[pos + 5..];
        let after = rest.trim_start();
        let Some(args) = after.strip_prefix("allow(") else {
            continue;
        };
        let Some(close) = args.find(')') else {
            continue;
        };
        let rules: Vec<String> = args[..close]
            .split(',')
            .map(|r| r.trim().to_string())
            .filter(|r| !r.is_empty())
            .collect();
        let reason = args[close + 1..]
            .trim_start_matches([':', '-', '—', '–', ' ', '\t'])
            .trim()
            .to_string();
        rest = &args[close + 1..];
        out.push(Waiver { rules, reason });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_comments_are_stripped() {
        let lines = preprocess("let x = \"unwrap() HashMap\"; // trailing unwrap()\n");
        assert_eq!(lines.len(), 1);
        assert!(!lines[0].code.contains("unwrap"));
        assert!(!lines[0].code.contains("HashMap"));
        assert!(lines[0].comment.contains("trailing unwrap()"));
    }

    #[test]
    fn raw_strings_are_stripped() {
        let lines = preprocess("let x = r#\"panic! \"inner\" HashSet\"#; let y = 1;\n");
        assert!(!lines[0].code.contains("panic"));
        assert!(lines[0].code.contains("let y = 1;"));
    }

    #[test]
    fn char_literals_and_lifetimes() {
        let lines = preprocess("fn f<'a>(x: &'a str) -> char { '{' }\n");
        // The `{` inside the char literal must not unbalance brace tracking.
        let opens = lines[0].code.matches('{').count();
        let closes = lines[0].code.matches('}').count();
        assert_eq!(opens, closes, "{:?}", lines[0].code);
    }

    #[test]
    fn block_comments_nest_and_span_lines() {
        let src = "let a = 1; /* start\nstill /* nested */ comment\nend */ let b = 2;\n";
        let lines = preprocess(src);
        assert!(lines[0].code.contains("let a = 1;"));
        assert!(lines[1].code.trim().is_empty());
        assert!(lines[2].code.contains("let b = 2;"));
    }

    #[test]
    fn multiline_strings_keep_inner_lines_code_free() {
        let src = "let s = \"one\\\ntwo unwrap()\";\nlet t = 3;\n";
        let lines = preprocess(src);
        assert!(!lines[1].code.contains("unwrap"), "{:?}", lines[1].code);
        assert!(lines[2].code.contains("let t = 3;"));
    }

    #[test]
    fn cfg_test_regions_cover_nested_braces() {
        let src = "\
fn real() {}
#[cfg(test)]
mod tests {
    fn helper() { inner(); }
    #[test]
    fn t() {}
}
fn also_real() {}
";
        let lines = preprocess(src);
        assert!(!lines[0].in_test);
        assert!(lines[2].in_test, "mod line opens the region");
        assert!(lines[3].in_test);
        assert!(lines[5].in_test, "closing brace still in region");
        assert!(!lines[7].in_test);
    }

    #[test]
    fn waiver_parsing_extracts_rules_and_reason() {
        let lines = preprocess("x(); // lint: allow(panic, float-eq): invariant holds\n");
        let w = &lines[0].waivers;
        assert_eq!(w.len(), 1);
        assert_eq!(w[0].rules, vec!["panic", "float-eq"]);
        assert_eq!(w[0].reason, "invariant holds");
    }

    #[test]
    fn waiver_without_reason_is_kept_with_empty_reason() {
        let lines = preprocess("x(); // lint: allow(panic)\n");
        assert_eq!(lines[0].waivers.len(), 1);
        assert!(lines[0].waivers[0].reason.is_empty());
    }

    #[test]
    fn waiver_on_final_line_without_trailing_newline_is_seen() {
        let lines = preprocess("x(); // lint: allow(panic): last line, no newline");
        assert_eq!(lines.len(), 1);
        assert_eq!(lines[0].waivers.len(), 1);
        assert_eq!(lines[0].waivers[0].rules, vec!["panic"]);
    }

    #[test]
    fn doc_comment_examples_are_not_code() {
        let lines = preprocess("/// model.save(\"x\").unwrap();\npub fn save() {}\n");
        assert!(lines[0].is_doc);
        assert!(lines[0].code.trim().is_empty());
        assert!(!lines[1].is_doc);
    }
}
