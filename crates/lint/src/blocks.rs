//! Block-aware IR over the lossless token stream: a brace tree with item
//! extraction (fn/impl/trait/mod boundaries, attributes, doc comments),
//! loop-body spans, and `unsafe` site classification.
//!
//! The per-line views in [`crate::scan`] answer "what does this line say";
//! this module answers "what block does this line live in". The rule catalog
//! uses it for the structural rules — R10 `unsafe-contract` (which `unsafe`
//! sites exist, where `#[expect(unsafe_code)]` is attached) and R11
//! `hot-loop-alloc` (which lines sit inside a loop body) — while the
//! lexical rules R2–R9 keep consuming the per-line view unchanged.
//!
//! The parser is deliberately forgiving: unbalanced delimiters close at end
//! of file, and anything it cannot classify becomes an `Other` block. It
//! never panics on malformed input — broken source should surface as
//! compiler errors, not linter crashes.

use crate::lex::{Token, TokenKind};

/// What introduced a brace-delimited block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockKind {
    /// A function body (`fn name(…) { … }`).
    Fn,
    /// An `impl` block.
    Impl,
    /// A `trait` definition block.
    Trait,
    /// An inline module body (`mod name { … }`).
    Mod,
    /// A `for … in … { … }` loop body.
    For,
    /// A `while … { … }` loop body.
    While,
    /// A bare `loop { … }` body.
    Loop,
    /// An `unsafe { … }` block expression.
    Unsafe,
    /// Anything else: struct/enum bodies, match/if arms, closures, struct
    /// literals, blocks opened inside parentheses, …
    Other,
}

/// A line range covered by one block, opening and closing braces included.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// 1-based line of the opening `{`.
    pub open_line: usize,
    /// 1-based line of the closing `}` (last source line when unbalanced).
    pub close_line: usize,
}

/// One brace-delimited block, flat-listed in source order.
#[derive(Debug, Clone)]
pub struct Block {
    /// The classification of the block's header.
    pub kind: BlockKind,
    /// The lines the block covers.
    pub span: Span,
    /// Brace-nesting depth of the block (0 for top-level item bodies).
    pub depth: usize,
}

/// The kind of item a header introduced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ItemKind {
    /// `fn` (free or associated).
    Fn,
    /// `impl` block.
    Impl,
    /// `trait` definition.
    Trait,
    /// `mod`, inline (`mod m { … }`) or declared (`mod m;`).
    Mod,
}

/// One extracted item: its header location, attributes, doc-comment flag,
/// and body span (absent for braceless declarations like `pub mod simd;`).
#[derive(Debug, Clone)]
pub struct Item {
    /// What kind of item this is.
    pub kind: ItemKind,
    /// The item's name (`fn`/`trait`/`mod` token successor); `None` for
    /// `impl` blocks.
    pub name: Option<String>,
    /// 1-based line of the introducing keyword.
    pub line: usize,
    /// 1-based byte column of the introducing keyword.
    pub col: usize,
    /// Lines of `#[…]` attributes attached to the item's header.
    pub attr_lines: Vec<usize>,
    /// Whether a doc comment immediately precedes the item.
    pub has_doc: bool,
    /// The body span; `None` for braceless declarations (`mod m;`).
    pub body: Option<Span>,
}

/// What an `unsafe` keyword introduces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnsafeKind {
    /// `unsafe fn …`.
    Fn,
    /// `unsafe impl …`.
    Impl,
    /// `unsafe trait …`.
    Trait,
    /// An `unsafe { … }` block expression.
    Block,
    /// Anything else (`unsafe extern`, stray keyword, …).
    Other,
}

/// One `unsafe` keyword occurrence in code (strings and comments excluded
/// by the tokenizer).
#[derive(Debug, Clone)]
pub struct UnsafeSite {
    /// 1-based line of the `unsafe` keyword.
    pub line: usize,
    /// 1-based byte column of the `unsafe` keyword.
    pub col: usize,
    /// What the keyword introduces.
    pub kind: UnsafeKind,
}

/// The block-aware IR for one source file.
#[derive(Debug, Clone, Default)]
pub struct FileBlocks {
    /// Every brace-delimited block in source order.
    pub blocks: Vec<Block>,
    /// Extracted fn/impl/trait/mod items in source order.
    pub items: Vec<Item>,
    /// Every `unsafe` keyword in code, in source order.
    pub unsafe_sites: Vec<UnsafeSite>,
}

impl FileBlocks {
    /// Line spans of every loop body (`for`/`while`/`loop`), in source
    /// order. Nested loops each contribute their own span.
    pub fn loop_spans(&self) -> impl Iterator<Item = Span> + '_ {
        self.blocks
            .iter()
            .filter(|b| matches!(b.kind, BlockKind::For | BlockKind::While | BlockKind::Loop))
            .map(|b| b.span)
    }
}

/// One significant event in the replayed token stream.
enum Ev {
    /// A code token worth classifying: its text, line, and column.
    Tok(String, usize, usize),
    /// A doc comment (line or block form).
    Doc,
}

/// A header token retained for block classification.
struct HTok {
    text: String,
    line: usize,
    col: usize,
}

/// One still-open `{` on the parse stack.
struct Open {
    kind: BlockKind,
    open_line: usize,
    depth: usize,
    /// Index into `FileBlocks::items` when this block is an item body.
    item: Option<usize>,
    /// The enclosing paren/bracket depth, restored on close.
    saved_paren: usize,
    saved_bracket: usize,
    /// Header length at open time, restored on close for blocks embedded in
    /// an expression so the enclosing statement's header survives (e.g. a
    /// closure body inside a `for … in` iterator chain).
    saved_header: usize,
}

/// Builds the block IR from the lossless token stream of one file.
pub fn build(tokens: &[Token<'_>]) -> FileBlocks {
    let mut evs: Vec<Ev> = Vec::new();
    let mut last_line = 1usize;
    for t in tokens {
        if !matches!(t.kind, TokenKind::Whitespace) {
            last_line = t.line + t.text.matches('\n').count();
        }
        match t.kind {
            TokenKind::Whitespace | TokenKind::Char | TokenKind::Str { .. } => {}
            TokenKind::LineComment { doc } | TokenKind::BlockComment { doc, .. } => {
                if doc {
                    evs.push(Ev::Doc);
                }
            }
            TokenKind::Ident | TokenKind::Number | TokenKind::Lifetime => {
                evs.push(Ev::Tok(t.text.to_string(), t.line, t.col));
            }
            TokenKind::Punct => {
                // Punct tokens are single bytes in the lossless stream.
                evs.push(Ev::Tok(t.text.to_string(), t.line, t.col));
            }
        }
    }

    let mut out = FileBlocks::default();
    let mut stack: Vec<Open> = Vec::new();
    let mut header: Vec<HTok> = Vec::new();
    let mut attr_lines: Vec<usize> = Vec::new();
    let mut pending_doc = false;
    let mut paren: usize = 0;
    let mut bracket: usize = 0;

    // Returns the next code token after `i`, skipping doc events.
    let peek = |evs: &[Ev], mut i: usize| -> Option<String> {
        loop {
            i += 1;
            match evs.get(i)? {
                Ev::Tok(text, _, _) => return Some(text.clone()),
                Ev::Doc => {}
            }
        }
    };

    let mut i = 0usize;
    while i < evs.len() {
        match &evs[i] {
            Ev::Doc => {
                pending_doc = true;
                i += 1;
                continue;
            }
            Ev::Tok(text, line, col) => {
                let (text, line, col) = (text.clone(), *line, *col);
                match text.as_str() {
                    "#" if bracket == 0 && paren == 0 => {
                        // Attribute: skip `#` (and `!`) plus the bracketed
                        // body so attr contents never pollute the header.
                        attr_lines.push(line);
                        let mut j = i + 1;
                        if matches!(evs.get(j), Some(Ev::Tok(t, _, _)) if t == "!") {
                            j += 1;
                        }
                        if matches!(evs.get(j), Some(Ev::Tok(t, _, _)) if t == "[") {
                            let mut depth = 0usize;
                            while let Some(ev) = evs.get(j) {
                                if let Ev::Tok(t, _, _) = ev {
                                    match t.as_str() {
                                        "[" => depth += 1,
                                        "]" => {
                                            depth -= 1;
                                            if depth == 0 {
                                                break;
                                            }
                                        }
                                        _ => {}
                                    }
                                }
                                j += 1;
                            }
                        }
                        i = j + 1;
                        continue;
                    }
                    "unsafe" => {
                        let kind = match peek(&evs, i).as_deref() {
                            Some("fn") => UnsafeKind::Fn,
                            Some("impl") => UnsafeKind::Impl,
                            Some("trait") => UnsafeKind::Trait,
                            Some("{") => UnsafeKind::Block,
                            _ => UnsafeKind::Other,
                        };
                        out.unsafe_sites.push(UnsafeSite { line, col, kind });
                        header.push(HTok { text, line, col });
                    }
                    "(" => {
                        paren += 1;
                        header.push(HTok { text, line, col });
                    }
                    ")" => {
                        paren = paren.saturating_sub(1);
                        header.push(HTok { text, line, col });
                    }
                    "[" => {
                        bracket += 1;
                        header.push(HTok { text, line, col });
                    }
                    "]" => {
                        bracket = bracket.saturating_sub(1);
                        header.push(HTok { text, line, col });
                    }
                    ";" if paren == 0 && bracket == 0 => {
                        // A braceless declaration (`pub mod simd;`) is still
                        // an item worth extracting for attribute checks.
                        if let Some(item) = braceless_item(&header, &attr_lines, pending_doc) {
                            out.items.push(item);
                        }
                        header.clear();
                        attr_lines.clear();
                        pending_doc = false;
                    }
                    "{" => {
                        let inside_expr = paren > 0 || bracket > 0;
                        let kind = if inside_expr {
                            BlockKind::Other
                        } else {
                            classify(&header)
                        };
                        let item = if !inside_expr {
                            item_from_header(&header, kind, &attr_lines, pending_doc).map(|item| {
                                out.items.push(item);
                                out.items.len() - 1
                            })
                        } else {
                            None
                        };
                        stack.push(Open {
                            kind,
                            open_line: line,
                            depth: stack.len(),
                            item,
                            saved_paren: paren,
                            saved_bracket: bracket,
                            saved_header: if inside_expr { header.len() } else { 0 },
                        });
                        paren = 0;
                        bracket = 0;
                        if !inside_expr {
                            header.clear();
                            attr_lines.clear();
                            pending_doc = false;
                        }
                    }
                    "}" => {
                        let mut embedded = false;
                        if let Some(open) = stack.pop() {
                            let span = Span {
                                open_line: open.open_line,
                                close_line: line,
                            };
                            out.blocks.push(Block {
                                kind: open.kind,
                                span,
                                depth: open.depth,
                            });
                            if let Some(idx) = open.item {
                                out.items[idx].body = Some(span);
                            }
                            paren = open.saved_paren;
                            bracket = open.saved_bracket;
                            embedded = open.saved_paren > 0 || open.saved_bracket > 0;
                            if embedded {
                                // A block embedded in an expression (closure
                                // body in an iterator chain, …): restore the
                                // statement header that was in flight.
                                header.truncate(open.saved_header);
                            }
                        }
                        if !embedded {
                            header.clear();
                            attr_lines.clear();
                            pending_doc = false;
                        }
                    }
                    _ => header.push(HTok { text, line, col }),
                }
            }
        }
        i += 1;
    }

    // Unbalanced input: close every open block at the last seen line.
    while let Some(open) = stack.pop() {
        let span = Span {
            open_line: open.open_line,
            close_line: last_line,
        };
        out.blocks.push(Block {
            kind: open.kind,
            span,
            depth: open.depth,
        });
        if let Some(idx) = open.item {
            out.items[idx].body = Some(span);
        }
    }
    out.blocks.sort_by_key(|b| (b.span.open_line, b.depth));
    out
}

/// Classifies a `{` by its header keywords, highest-priority first. `impl`
/// outranks `for` so `impl Trait for Type` never reads as a loop.
fn classify(header: &[HTok]) -> BlockKind {
    let has = |kw: &str| header.iter().any(|t| t.text == kw);
    if has("fn") {
        BlockKind::Fn
    } else if has("mod") {
        BlockKind::Mod
    } else if has("impl") {
        BlockKind::Impl
    } else if has("trait") {
        BlockKind::Trait
    } else if has("for") && has("in") {
        BlockKind::For
    } else if has("while") {
        BlockKind::While
    } else if has("loop") {
        BlockKind::Loop
    } else if header.last().is_some_and(|t| t.text == "unsafe") {
        BlockKind::Unsafe
    } else {
        BlockKind::Other
    }
}

/// Builds the [`Item`] (if any) a brace-opening header introduces.
fn item_from_header(
    header: &[HTok],
    kind: BlockKind,
    attr_lines: &[usize],
    has_doc: bool,
) -> Option<Item> {
    let item_kind = match kind {
        BlockKind::Fn => ItemKind::Fn,
        BlockKind::Impl => ItemKind::Impl,
        BlockKind::Trait => ItemKind::Trait,
        BlockKind::Mod => ItemKind::Mod,
        _ => return None,
    };
    let kw = match item_kind {
        ItemKind::Fn => "fn",
        ItemKind::Impl => "impl",
        ItemKind::Trait => "trait",
        ItemKind::Mod => "mod",
    };
    let pos = header.iter().position(|t| t.text == kw)?;
    let name = match item_kind {
        ItemKind::Impl => None,
        _ => header.get(pos + 1).map(|t| t.text.clone()),
    };
    Some(Item {
        kind: item_kind,
        name,
        line: header[pos].line,
        col: header[pos].col,
        attr_lines: attr_lines.to_vec(),
        has_doc,
        body: None,
    })
}

/// Extracts a braceless `mod name;` declaration from a header ended by `;`.
fn braceless_item(header: &[HTok], attr_lines: &[usize], has_doc: bool) -> Option<Item> {
    let pos = header.iter().position(|t| t.text == "mod")?;
    Some(Item {
        kind: ItemKind::Mod,
        name: header.get(pos + 1).map(|t| t.text.clone()),
        line: header[pos].line,
        col: header[pos].col,
        attr_lines: attr_lines.to_vec(),
        has_doc,
        body: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex;

    fn ir(src: &str) -> FileBlocks {
        build(&lex::tokenize(src))
    }

    #[test]
    fn classifies_fn_mod_impl_trait_and_loops() {
        let src = "\
mod m {
    trait T { fn t(&self); }
    struct S;
    impl T for S {
        fn t(&self) {
            for i in 0..3 { body(i); }
            while go() { body(0); }
            loop { break; }
        }
    }
}
";
        let b = ir(src);
        let kinds: Vec<BlockKind> = b.blocks.iter().map(|x| x.kind).collect();
        assert!(kinds.contains(&BlockKind::Mod));
        assert!(kinds.contains(&BlockKind::Trait));
        assert!(kinds.contains(&BlockKind::Impl));
        assert!(kinds.contains(&BlockKind::Fn));
        assert!(kinds.contains(&BlockKind::For));
        assert!(kinds.contains(&BlockKind::While));
        assert!(kinds.contains(&BlockKind::Loop));
        // `impl T for S` is an impl, never a for-loop.
        assert_eq!(
            b.blocks.iter().filter(|x| x.kind == BlockKind::For).count(),
            1
        );
    }

    #[test]
    fn loop_spans_cover_multiline_bodies() {
        let src = "\
fn f() {
    for i in 0..3 {
        step(i);
    }
}
";
        let b = ir(src);
        let spans: Vec<Span> = b.loop_spans().collect();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].open_line, 2);
        assert_eq!(spans[0].close_line, 4);
    }

    #[test]
    fn closure_in_loop_header_is_not_a_loop_body() {
        // The `{` inside the parens belongs to a closure, not the for body.
        let src = "fn f() { for i in xs.iter().map(|x| { x + 1 }) { use_it(i); } }\n";
        let b = ir(src);
        assert_eq!(b.loop_spans().count(), 1);
        let closures = b
            .blocks
            .iter()
            .filter(|x| x.kind == BlockKind::Other)
            .count();
        assert_eq!(closures, 1);
    }

    #[test]
    fn unsafe_sites_classified_by_successor() {
        let src = "\
unsafe fn f() {}
unsafe impl Send for S {}
unsafe trait T {}
fn g() { unsafe { core() } }
";
        let b = ir(src);
        let kinds: Vec<UnsafeKind> = b.unsafe_sites.iter().map(|s| s.kind).collect();
        assert_eq!(
            kinds,
            vec![
                UnsafeKind::Fn,
                UnsafeKind::Impl,
                UnsafeKind::Trait,
                UnsafeKind::Block
            ]
        );
        assert_eq!(b.unsafe_sites[0].line, 1);
        assert_eq!(b.unsafe_sites[0].col, 1);
        assert_eq!(b.unsafe_sites[3].line, 4);
        assert_eq!(b.unsafe_sites[3].col, 10);
    }

    #[test]
    fn unsafe_in_strings_and_comments_is_invisible() {
        let src = "let s = \"unsafe {\"; // unsafe fn in a comment\n";
        assert!(ir(src).unsafe_sites.is_empty());
    }

    #[test]
    fn braceless_mod_with_attrs_is_an_item() {
        let src = "/// Sanctioned.\n#[allow(unsafe_code)]\npub mod simd;\n";
        let b = ir(src);
        assert_eq!(b.items.len(), 1);
        let item = &b.items[0];
        assert_eq!(item.kind, ItemKind::Mod);
        assert_eq!(item.name.as_deref(), Some("simd"));
        assert_eq!(item.attr_lines, vec![2]);
        assert!(item.has_doc);
        assert!(item.body.is_none());
    }

    #[test]
    fn inline_mod_gets_body_span_and_attrs() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() {}\n}\n";
        let b = ir(src);
        let m = b
            .items
            .iter()
            .find(|i| i.kind == ItemKind::Mod)
            .expect("mod item");
        assert_eq!(m.name.as_deref(), Some("tests"));
        assert_eq!(m.attr_lines, vec![1]);
        assert_eq!(
            m.body,
            Some(Span {
                open_line: 2,
                close_line: 4
            })
        );
    }

    #[test]
    fn doc_comment_marks_the_next_item_only() {
        let src = "/// Documented.\nfn a() {}\nfn b() {}\n";
        let b = ir(src);
        let fns: Vec<&Item> = b.items.iter().filter(|i| i.kind == ItemKind::Fn).collect();
        assert_eq!(fns.len(), 2);
        assert!(fns[0].has_doc);
        assert!(!fns[1].has_doc);
    }

    #[test]
    fn unbalanced_braces_close_at_eof() {
        let src = "fn f() {\n    loop {\n        step();\n";
        let b = ir(src);
        assert_eq!(b.blocks.len(), 2);
        for blk in &b.blocks {
            assert_eq!(blk.span.close_line, 3);
        }
    }

    #[test]
    fn struct_literal_and_match_are_other() {
        let src = "fn f() { let p = Point { x: 1, y: 2 }; match p { _ => {} } }\n";
        let b = ir(src);
        let others = b
            .blocks
            .iter()
            .filter(|x| x.kind == BlockKind::Other)
            .count();
        assert!(others >= 3, "literal, match, arm: {:?}", b.blocks);
        assert_eq!(b.loop_spans().count(), 0);
    }
}
