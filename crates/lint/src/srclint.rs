//! srclint: a token-level linter for the workspace's own Rust sources.
//!
//! The engine cannot take crates.io analysis dependencies (no `syn`, no
//! clippy lints of our own), so the repo's concurrency/correctness rules
//! are enforced by a hand-rolled lexer + token-pattern matcher. The lexer
//! is *correct about what is code*: strings (plain, raw, byte, C),
//! char-vs-lifetime, nested block comments, and doc comments are all
//! recognised, so a `.unwrap()` inside a doc example or a string literal
//! never fires. It is not a parser — rules match short token sequences,
//! which is exactly enough for the rule set below and keeps the linter
//! total: any byte sequence lexes to *something*.
//!
//! ## Rules
//!
//! | code | severity | fires on |
//! |------|----------|----------|
//! | `R001` | error   | `std::sync::Mutex`/`RwLock` outside the compat shim — engine code must use the labeled, tracked `parking_lot` wrappers |
//! | `R002` | error   | `.unwrap()` / `.expect(` in non-test library code |
//! | `R003` | error   | `panic!` outside tests |
//! | `R004` | warning | unlabeled `Mutex::new` / `RwLock::new` in engine code (use `new_labeled` so the lock participates in deadlock detection and `\lock-stats`) |
//! | `R005` | error   | crate root missing `#![forbid(unsafe_code)]` |
//! | `R006` | error   | `Instant::now` / `SystemTime::now` in planner/optimizer code (plans must be deterministic functions of catalog + query) |
//! | `R000` | error   | malformed `srclint: allow` directive (unknown rule or missing justification) |
//!
//! ## Per-file allows
//!
//! A file opts out of one rule with a justified directive comment:
//!
//! ```text
//! // srclint: allow(R002): lexer peeks are guarded by is_some checks two lines up
//! ```
//!
//! The justification is mandatory — an empty one fires `R000` and does
//! not suppress. Directives are file-wide: srclint is a review gate, not
//! a per-line escape hatch, and a file that needs many distinct waivers
//! should be split or fixed.
//!
//! ## Scope
//!
//! What runs where is decided from the file's workspace-relative path
//! (see [`FileClass`]): compat shims get only `R005`, test code and
//! fixtures are exempt from the panic-discipline rules, `R006` applies
//! only to planner/optimizer paths.

use crate::{Diagnostic, Severity};

// ---- lexer ----------------------------------------------------------------

/// What a lexed token is. Comments are kept (allow directives live in
/// them); rule matching skips them via `Lexed::code_tokens`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    Ident,
    /// One punctuation byte (`:`, `(`, `#`, …). Multi-byte operators are
    /// consecutive `Punct` tokens.
    Punct,
    /// String/char/byte/number literal, lexed as one atom.
    Literal,
    /// `// …`, `/// …`, `//! …`, `/* … */` (nested ok), incl. doc text.
    Comment,
}

/// One token: kind, byte range, 1-based line of its first byte.
#[derive(Debug, Clone, Copy)]
pub struct Token {
    pub kind: TokKind,
    pub start: usize,
    pub end: usize,
    pub line: u32,
}

/// A lexed file: the source plus its token stream.
pub struct Lexed<'a> {
    pub source: &'a str,
    pub tokens: Vec<Token>,
}

impl<'a> Lexed<'a> {
    pub fn text(&self, t: &Token) -> &'a str {
        &self.source[t.start..t.end]
    }

    /// Indices of non-comment tokens, in order.
    fn code_tokens(&self) -> Vec<usize> {
        (0..self.tokens.len())
            .filter(|&i| self.tokens[i].kind != TokKind::Comment)
            .collect()
    }
}

/// Lex `source` into tokens. Total: never panics, any input produces a
/// token stream (unterminated constructs run to end of input).
pub fn lex(source: &str) -> Lexed<'_> {
    let b = source.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;

    // Count newlines in b[from..to] into `line`.
    fn advance_lines(b: &[u8], from: usize, to: usize, line: &mut u32) {
        *line += b[from..to].iter().filter(|&&c| c == b'\n').count() as u32;
    }

    while i < b.len() {
        let start = i;
        let start_line = line;
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_ascii_whitespace() => {
                i += 1;
            }
            b'/' if b.get(i + 1) == Some(&b'/') => {
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
                tokens.push(Token { kind: TokKind::Comment, start, end: i, line: start_line });
            }
            b'/' if b.get(i + 1) == Some(&b'*') => {
                i += 2;
                let mut depth = 1usize;
                while i < b.len() && depth > 0 {
                    if b[i] == b'/' && b.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if b[i] == b'*' && b.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        if b[i] == b'\n' {
                            line += 1;
                        }
                        i += 1;
                    }
                }
                tokens.push(Token { kind: TokKind::Comment, start, end: i, line: start_line });
            }
            b'"' => {
                i = lex_string(b, i);
                advance_lines(b, start, i, &mut line);
                tokens.push(Token { kind: TokKind::Literal, start, end: i, line: start_line });
            }
            b'r' | b'b' | b'c' if starts_raw_or_bytes(b, i) => {
                i = lex_prefixed_literal(b, i);
                advance_lines(b, start, i, &mut line);
                tokens.push(Token { kind: TokKind::Literal, start, end: i, line: start_line });
            }
            b'\'' => {
                // Char literal vs lifetime. `'a'`, `'\n'`, `'\u{1F4A9}'`
                // are chars; `'a` followed by non-quote is a lifetime.
                if let Some(end) = try_lex_char(b, i) {
                    i = end;
                    tokens.push(Token {
                        kind: TokKind::Literal,
                        start,
                        end: i,
                        line: start_line,
                    });
                } else {
                    i += 1; // the quote
                    while i < b.len() && (b[i] == b'_' || b[i].is_ascii_alphanumeric()) {
                        i += 1;
                    }
                    tokens.push(Token {
                        kind: TokKind::Ident, // lifetimes rule-match like idents
                        start,
                        end: i,
                        line: start_line,
                    });
                }
            }
            c if c == b'_' || c.is_ascii_alphabetic() => {
                i += 1;
                while i < b.len() && (b[i] == b'_' || b[i].is_ascii_alphanumeric()) {
                    i += 1;
                }
                tokens.push(Token { kind: TokKind::Ident, start, end: i, line: start_line });
            }
            c if c.is_ascii_digit() => {
                // Numbers as atoms; `1.5e-3`, `0xFF_u32` all one literal.
                i += 1;
                while i < b.len()
                    && (b[i] == b'_'
                        || b[i] == b'.'
                        || b[i].is_ascii_alphanumeric()
                        || ((b[i] == b'+' || b[i] == b'-')
                            && matches!(b[i - 1], b'e' | b'E')))
                {
                    // Leave `1..2` (range) and `1.method()` intact: a dot
                    // followed by a non-digit is not part of the number.
                    if b[i] == b'.' && !b.get(i + 1).is_some_and(u8::is_ascii_digit) {
                        break;
                    }
                    i += 1;
                }
                tokens.push(Token { kind: TokKind::Literal, start, end: i, line: start_line });
            }
            _ => {
                // Multi-byte UTF-8 scalar or single punctuation byte.
                let mut end = i + 1;
                while end < b.len() && (b[end] & 0xC0) == 0x80 {
                    end += 1;
                }
                i = end;
                tokens.push(Token { kind: TokKind::Punct, start, end: i, line: start_line });
            }
        }
    }
    Lexed { source, tokens }
}

/// Does `b[i..]` start a raw string (`r"`, `r#"`), byte string (`b"`,
/// `br"`), byte char (`b'`), or C string (`c"`) literal — as opposed to a
/// plain identifier like `radius` or a raw identifier like `r#type`?
fn starts_raw_or_bytes(b: &[u8], i: usize) -> bool {
    let rest = &b[i + 1..];
    match b[i] {
        b'r' | b'c' => {
            // r" | r#…" (raw string; r#ident is a raw identifier)
            if rest.first() == Some(&b'"') {
                return true;
            }
            let hashes = rest.iter().take_while(|&&c| c == b'#').count();
            hashes > 0 && rest.get(hashes) == Some(&b'"')
        }
        b'b' => match rest.first() {
            Some(&b'"') | Some(&b'\'') => true,
            Some(&b'r') => {
                let rest2 = &rest[1..];
                if rest2.first() == Some(&b'"') {
                    return true;
                }
                let hashes = rest2.iter().take_while(|&&c| c == b'#').count();
                hashes > 0 && rest2.get(hashes) == Some(&b'"')
            }
            _ => false,
        },
        _ => false,
    }
}

/// Lex a plain `"…"` string starting at the opening quote; returns the
/// index one past the closing quote (or end of input).
fn lex_string(b: &[u8], mut i: usize) -> usize {
    i += 1;
    while i < b.len() {
        match b[i] {
            b'\\' => i = (i + 2).min(b.len()),
            b'"' => return i + 1,
            _ => i += 1,
        }
    }
    i
}

/// Lex a literal with an `r`/`b`/`c` prefix (raw/byte/C strings, byte
/// chars) starting at the prefix; returns the index one past its end.
fn lex_prefixed_literal(b: &[u8], mut i: usize) -> usize {
    let mut raw = false;
    while i < b.len() && matches!(b[i], b'r' | b'b' | b'c') {
        raw |= b[i] == b'r';
        i += 1;
    }
    if raw {
        let hashes = b[i..].iter().take_while(|&&c| c == b'#').count();
        i += hashes;
        if b.get(i) != Some(&b'"') {
            return i; // not actually a literal; treated as consumed prefix
        }
        i += 1;
        // Scan for `"` followed by `hashes` hashes.
        while i < b.len() {
            if b[i] == b'"' && b[i + 1..].iter().take(hashes).filter(|&&c| c == b'#').count() == hashes
            {
                return i + 1 + hashes;
            }
            i += 1;
        }
        i
    } else if b.get(i) == Some(&b'\'') {
        // Byte char b'…'.
        i += 1;
        while i < b.len() {
            match b[i] {
                b'\\' => i = (i + 2).min(b.len()),
                b'\'' => return i + 1,
                _ => i += 1,
            }
        }
        i
    } else {
        // b"…" / c"…"
        lex_string(b, i)
    }
}

/// If `b[i..]` (at a `'`) is a char literal, return its end; `None` for a
/// lifetime.
fn try_lex_char(b: &[u8], i: usize) -> Option<usize> {
    let next = *b.get(i + 1)?;
    if next == b'\\' {
        // Escaped char: scan to the closing quote.
        let mut j = i + 2;
        while j < b.len() {
            match b[j] {
                b'\\' => j += 2,
                b'\'' => return Some(j + 1),
                _ => j += 1,
            }
        }
        return Some(j);
    }
    // `'x'` — a single scalar then a quote is a char; anything else
    // (ident char not followed by `'`) is a lifetime.
    let mut j = i + 1 + utf8_len(next);
    if b.get(j) == Some(&b'\'') {
        return Some(j + 1);
    }
    // Multi-char like `'abc'`? Not valid Rust, but stay total: if a quote
    // appears before whitespace, treat as a (malformed) char literal.
    if !(next == b'_' || next.is_ascii_alphanumeric()) {
        while j < b.len() && !b[j].is_ascii_whitespace() {
            if b[j] == b'\'' {
                return Some(j + 1);
            }
            j += 1;
        }
    }
    None
}

fn utf8_len(first: u8) -> usize {
    match first {
        c if c < 0x80 => 1,
        c if c >= 0xF0 => 4,
        c if c >= 0xE0 => 3,
        _ => 2,
    }
}

// ---- scope classification -------------------------------------------------

/// Which rule set a file gets, decided from its workspace-relative path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    /// `crates/compat/**`: vendored API stand-ins; only `R005` applies
    /// (the shims hold the `std::sync` primitives everything wraps).
    Compat,
    /// `crates/xtask/**`, `crates/bench/**`, `**/benches/**`,
    /// `**/examples/**`: developer tooling and demos may unwrap and
    /// panic, but still must not use raw `std::sync` locks.
    Tooling,
    /// `tests/**` integration tests and lint fixtures.
    TestCode,
    /// Everything else: engine library code — the full rule set.
    Engine,
}

/// Classify a workspace-relative path (forward slashes).
pub fn classify(path: &str) -> FileClass {
    let p = path.replace('\\', "/");
    if p.starts_with("crates/compat/") {
        FileClass::Compat
    } else if p.starts_with("crates/xtask/")
        || p.starts_with("crates/bench/")
        || p.starts_with("examples/")
        || p.contains("/benches/")
        || p.contains("/examples/")
    {
        FileClass::Tooling
    } else if p.starts_with("tests/") || p.contains("/tests/") {
        FileClass::TestCode
    } else {
        FileClass::Engine
    }
}

/// Is this file a crate root (`R005` checks only these)?
fn is_crate_root(path: &str) -> bool {
    let p = path.replace('\\', "/");
    p.ends_with("src/lib.rs") || p.ends_with("src/main.rs")
}

/// Planner/optimizer paths where `R006` (no wall-clock) applies: the plan
/// builder and every rewrite pass. Plans must be deterministic functions
/// of (catalog version, query text) — the plan cache and EXPLAIN
/// snapshots depend on it.
fn is_planner_code(path: &str) -> bool {
    let p = path.replace('\\', "/");
    p.ends_with("relational/src/plan.rs") || p.contains("relational/src/opt/")
}

// ---- allow directives -----------------------------------------------------

const RULES: &[&str] = &["R001", "R002", "R003", "R004", "R005", "R006"];

/// Parse `// srclint: allow(RXXX): justification` directives out of the
/// comment tokens. Returns the allowed codes; malformed directives push
/// `R000` diagnostics instead of suppressing anything.
fn parse_allows(lexed: &Lexed<'_>, out: &mut Vec<Diagnostic>) -> Vec<&'static str> {
    let mut allowed = Vec::new();
    for t in &lexed.tokens {
        if t.kind != TokKind::Comment {
            continue;
        }
        let text = lexed.text(t);
        // Directives live only in plain comments and must open them —
        // doc comments (`///`, `//!`, `/**`, `/*!`) are documentation
        // and may *mention* the syntax without activating it.
        let body = if let Some(rest) = text.strip_prefix("//") {
            if rest.starts_with('/') || rest.starts_with('!') {
                continue;
            }
            rest
        } else if let Some(rest) = text.strip_prefix("/*") {
            if rest.starts_with('*') || rest.starts_with('!') {
                continue;
            }
            rest.trim_end_matches("*/")
        } else {
            continue;
        };
        let Some(rest) = body.trim_start().strip_prefix("srclint:") else { continue };
        let rest = rest.trim_start();
        let Some(rest) = rest.strip_prefix("allow(") else {
            out.push(
                Diagnostic::error(
                    "R000",
                    format!("malformed srclint directive on line {}: expected `srclint: allow(RXXX): justification`", t.line),
                )
                .with_span(t.start, t.end),
            );
            continue;
        };
        let Some(close) = rest.find(')') else {
            out.push(
                Diagnostic::error(
                    "R000",
                    format!("unclosed srclint allow directive on line {}", t.line),
                )
                .with_span(t.start, t.end),
            );
            continue;
        };
        let code = rest[..close].trim();
        let Some(&code) = RULES.iter().find(|&&r| r == code) else {
            out.push(
                Diagnostic::error(
                    "R000",
                    format!("srclint allow on line {} names unknown rule `{code}`", t.line),
                )
                .with_span(t.start, t.end),
            );
            continue;
        };
        let justification = rest[close + 1..].trim_start_matches(':').trim();
        if justification.is_empty() {
            out.push(
                Diagnostic::error(
                    "R000",
                    format!(
                        "srclint allow({code}) on line {} has no justification — \
                         `// srclint: allow({code}): <why this file is exempt>`",
                        t.line
                    ),
                )
                .with_span(t.start, t.end),
            );
            continue;
        }
        allowed.push(code);
    }
    allowed
}

// ---- `#[cfg(test)]` region detection --------------------------------------

/// Byte ranges of `#[cfg(test)] mod … { … }` bodies (and any item a
/// `#[test]`/`#[cfg(test)]` attribute introduces), where the test-only
/// exemptions (R002/R003/R004) apply even in engine files.
fn test_regions(lexed: &Lexed<'_>, code: &[usize]) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    let toks = &lexed.tokens;
    let mut k = 0usize;
    while k < code.len() {
        let i = code[k];
        // Match `#` `[` … `]` containing ident `test`.
        if toks[i].kind == TokKind::Punct && lexed.text(&toks[i]) == "#" {
            let Some(&open) = code.get(k + 1) else { break };
            if lexed.text(&toks[open]) == "[" {
                // Scan the attribute body to its matching `]`.
                let mut depth = 0usize;
                let mut saw_test = false;
                let mut m = k + 1;
                let mut end_k = None;
                while m < code.len() {
                    let t = &toks[code[m]];
                    match (t.kind, lexed.text(t)) {
                        (TokKind::Punct, "[") => depth += 1,
                        (TokKind::Punct, "]") => {
                            depth -= 1;
                            if depth == 0 {
                                end_k = Some(m);
                                break;
                            }
                        }
                        (TokKind::Ident, "test") => saw_test = true,
                        _ => {}
                    }
                    m += 1;
                }
                let Some(end_k) = end_k else { break };
                if saw_test {
                    // The attributed item runs to the end of its brace
                    // block: find the first `{` and its match.
                    let mut n = end_k + 1;
                    let mut brace_depth = 0usize;
                    let mut started = false;
                    while n < code.len() {
                        let t = &toks[code[n]];
                        match (t.kind, lexed.text(t)) {
                            (TokKind::Punct, "{") => {
                                brace_depth += 1;
                                started = true;
                            }
                            (TokKind::Punct, "}") => {
                                brace_depth = brace_depth.saturating_sub(1);
                                if started && brace_depth == 0 {
                                    regions.push((toks[code[end_k]].end, t.end));
                                    break;
                                }
                            }
                            (TokKind::Punct, ";") if !started => {
                                // Attribute on a braceless item.
                                regions.push((toks[code[end_k]].end, t.end));
                                break;
                            }
                            _ => {}
                        }
                        n += 1;
                    }
                    if n >= code.len() {
                        regions.push((toks[code[end_k]].end, lexed.source.len()));
                    }
                    k = end_k + 1;
                    continue;
                }
                k = end_k + 1;
                continue;
            }
        }
        k += 1;
    }
    regions
}

/// Lines of `source` that start outside every test-only item (see
/// `test_regions`): the size of a file's non-test part. Blank and comment
/// lines count.
pub fn non_test_lines(source: &str) -> usize {
    let lexed = lex(source);
    let regions = test_regions(&lexed, &lexed.code_tokens());
    let mut start = 0;
    source
        .split_inclusive('\n')
        .filter(|line| {
            let outside = !in_regions(&regions, start);
            start += line.len();
            outside
        })
        .count()
}

fn in_regions(regions: &[(usize, usize)], pos: usize) -> bool {
    regions.iter().any(|&(s, e)| pos >= s && pos < e)
}

// ---- rules ----------------------------------------------------------------

/// Lint one file. `path` is workspace-relative and decides the rule
/// scope; `source` is the file text.
pub fn lint_source(path: &str, source: &str) -> Vec<Diagnostic> {
    let lexed = lex(source);
    let code = lexed.code_tokens();
    let mut out: Vec<Diagnostic> = Vec::new();
    let allowed = parse_allows(&lexed, &mut out);
    let class = classify(path);
    let tests = test_regions(&lexed, &code);

    let allow = |rule: &str| allowed.contains(&rule);
    let toks = &lexed.tokens;
    let text = |k: usize| lexed.text(&toks[code[k]]);
    let is = |k: usize, s: &str| code.get(k).is_some_and(|&i| lexed.text(&toks[i]) == s);

    // R005 first: crate roots only, every class (even compat — the shims
    // are exactly where unsafe would be tempting).
    if is_crate_root(path) && !allow("R005") {
        let mut found = false;
        for k in 0..code.len().saturating_sub(7) {
            if text(k) == "#"
                && is(k + 1, "!")
                && is(k + 2, "[")
                && is(k + 3, "forbid")
                && is(k + 4, "(")
                && is(k + 5, "unsafe_code")
                && is(k + 6, ")")
                && is(k + 7, "]")
            {
                found = true;
                break;
            }
        }
        if !found {
            out.push(Diagnostic::error(
                "R005",
                "crate root missing `#![forbid(unsafe_code)]`".to_string(),
            ));
        }
    }
    if class == FileClass::Compat {
        out.sort_by_key(|d| d.span.map(|s| s.start));
        return out;
    }

    let full_rules = class == FileClass::Engine;
    let planner = is_planner_code(path);

    for k in 0..code.len() {
        let t = &toks[code[k]];
        let w = lexed.text(t);

        // R001: `std :: sync :: {Mutex,RwLock}` or `use std::sync::{…}`.
        if w == "std" && !allow("R001") && is(k + 1, ":") && is(k + 2, ":")
            && is(k + 3, "sync") && is(k + 4, ":") && is(k + 5, ":")
        {
            let mut hits: Vec<(&str, Token)> = Vec::new();
            if let Some(&i6) = code.get(k + 6) {
                let t6 = &toks[i6];
                let w6 = lexed.text(t6);
                if w6 == "Mutex" || w6 == "RwLock" {
                    hits.push((w6, *t6));
                } else if w6 == "{" {
                    // Scan the use-group to its `}` for the lock types.
                    let mut m = k + 7;
                    let mut depth = 1usize;
                    while m < code.len() && depth > 0 {
                        let tm = &toks[code[m]];
                        match lexed.text(tm) {
                            "{" => depth += 1,
                            "}" => depth -= 1,
                            "Mutex" | "RwLock" if depth == 1 => {
                                hits.push((lexed.text(tm), *tm));
                            }
                            _ => {}
                        }
                        m += 1;
                    }
                }
            }
            for (name, ht) in hits {
                out.push(
                    Diagnostic::error(
                        "R001",
                        format!(
                            "`std::sync::{name}` on line {} — use the labeled \
                             `parking_lot::{name}` shim so the lock participates \
                             in lock-order tracking",
                            ht.line
                        ),
                    )
                    .with_span(ht.start, ht.end),
                );
            }
        }

        // R002: `.unwrap()` / `.expect(` in non-test engine code.
        if full_rules
            && !allow("R002")
            && w == "."
            && !in_regions(&tests, t.start)
        {
            if is(k + 1, "unwrap") && is(k + 2, "(") && is(k + 3, ")") {
                let ut = &toks[code[k + 1]];
                out.push(
                    Diagnostic::error(
                        "R002",
                        format!(
                            "`.unwrap()` in library code on line {} — propagate a \
                             typed error or justify with a srclint allow",
                            ut.line
                        ),
                    )
                    .with_span(ut.start, ut.end),
                );
            } else if is(k + 1, "expect") && is(k + 2, "(") {
                let ut = &toks[code[k + 1]];
                out.push(
                    Diagnostic::error(
                        "R002",
                        format!(
                            "`.expect(…)` in library code on line {} — propagate a \
                             typed error or justify with a srclint allow",
                            ut.line
                        ),
                    )
                    .with_span(ut.start, ut.end),
                );
            }
        }

        // R003: `panic!` outside tests.
        if full_rules
            && !allow("R003")
            && w == "panic"
            && is(k + 1, "!")
            && !in_regions(&tests, t.start)
        {
            out.push(
                Diagnostic::error(
                    "R003",
                    format!(
                        "`panic!` in library code on line {} — return an error \
                         (or move the check into a test/sabotage hook)",
                        t.line
                    ),
                )
                .with_span(t.start, t.end),
            );
        }

        // R004: unlabeled lock construction in engine code.
        if full_rules
            && !allow("R004")
            && (w == "Mutex" || w == "RwLock")
            && is(k + 1, ":")
            && is(k + 2, ":")
            && is(k + 3, "new")
            && is(k + 4, "(")
            && !in_regions(&tests, t.start)
        {
            out.push(
                Diagnostic::warning(
                    "R004",
                    format!(
                        "unlabeled `{w}::new` on line {} — use \
                         `{w}::new_labeled(\"site.label\", …)` so the lock joins \
                         deadlock detection and `\\lock-stats`",
                        t.line
                    ),
                )
                .with_span(t.start, t.end),
            );
        }

        // R006: wall-clock reads in planner/optimizer code.
        if planner
            && !allow("R006")
            && (w == "Instant" || w == "SystemTime")
            && is(k + 1, ":")
            && is(k + 2, ":")
            && is(k + 3, "now")
        {
            out.push(
                Diagnostic::error(
                    "R006",
                    format!(
                        "`{w}::now` in planner code on line {} — plans must be \
                         deterministic functions of catalog + query (time the \
                         execution, not the plan)",
                        t.line
                    ),
                )
                .with_span(t.start, t.end),
            );
        }
    }

    out.sort_by_key(|d| d.span.map(|s| s.start));
    out
}

// ---- workspace walker -----------------------------------------------------

/// Lint every `.rs` file under `root`, returning per-file findings for
/// files with at least one, sorted by path. Skips build output, VCS
/// metadata, and the lint fixture corpus (fixtures are linted by the
/// golden test, on purpose — half of them must fire).
pub fn lint_workspace(root: &std::path::Path) -> std::io::Result<Vec<(String, Vec<Diagnostic>)>> {
    let mut out = Vec::new();
    for rel in workspace_rs_files(root)? {
        let source = std::fs::read_to_string(root.join(&rel))?;
        let diags = lint_source(&rel, &source);
        if !diags.is_empty() {
            out.push((rel, diags));
        }
    }
    Ok(out)
}

/// Every `.rs` file under `root` as a sorted, root-relative path, minus
/// build output, VCS metadata and the lint fixture corpus.
pub fn workspace_rs_files(root: &std::path::Path) -> std::io::Result<Vec<String>> {
    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files)?;
    files.sort();
    Ok(files)
}

fn collect_rs_files(
    root: &std::path::Path,
    dir: &std::path::Path,
    out: &mut Vec<String>,
) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') || name == "fixtures" {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            out.push(rel);
        }
    }
    Ok(())
}

/// Render findings the way the golden snapshot and `cargo xtask srclint`
/// print them: one `path: severity[code]: message` line per finding.
pub fn render_findings(findings: &[(String, Vec<Diagnostic>)]) -> String {
    let mut s = String::new();
    for (path, diags) in findings {
        for d in diags {
            s.push_str(&format!("{path}: {}[{}]: {}\n", d.severity, d.code, d.message));
        }
    }
    s
}

/// Does any finding gate the build? (`R004` is a warning; everything
/// else is an error.)
pub fn has_errors(findings: &[(String, Vec<Diagnostic>)]) -> bool {
    findings
        .iter()
        .flat_map(|(_, ds)| ds)
        .any(|d| d.severity >= Severity::Error)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codes(path: &str, src: &str) -> Vec<&'static str> {
        lint_source(path, src).into_iter().map(|d| d.code).collect()
    }

    #[test]
    fn lexer_skips_strings_and_comments() {
        let src = r#"
            // .unwrap() in a comment
            /* panic! in a block /* nested */ still comment */
            /// doc: x.unwrap()
            fn f() -> String { "std::sync::Mutex .unwrap() panic!".to_string() }
        "#;
        assert!(codes("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn raw_strings_and_chars_do_not_confuse_the_lexer() {
        let src = r##"
            fn f() {
                let s = r#"not code: .unwrap() "quoted" panic!"#;
                let c = '"';
                let esc = '\'';
                let bytes = b"panic!";
                let _ = (s, c, esc, bytes);
                let lifetime: &'static str = "x";
                let _ = lifetime;
            }
        "##;
        assert!(codes("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn r001_fires_on_direct_and_grouped_use() {
        let direct = "fn f(m: &std::sync::Mutex<u8>) {}";
        assert_eq!(codes("crates/core/src/x.rs", direct), vec!["R001"]);
        let grouped = "use std::sync::{Arc, Mutex, RwLock};";
        assert_eq!(codes("crates/core/src/x.rs", grouped), vec!["R001", "R001"]);
        let atomic = "use std::sync::{Arc, atomic::AtomicU64};";
        assert!(codes("crates/core/src/x.rs", atomic).is_empty());
    }

    #[test]
    fn r002_and_r003_exempt_test_regions_and_test_files() {
        let src = r#"
            fn lib() { maybe().unwrap(); }
            #[cfg(test)]
            mod tests {
                fn t() { maybe().unwrap(); panic!("fine here"); }
            }
        "#;
        assert_eq!(codes("crates/core/src/x.rs", src), vec!["R002"]);
        assert!(codes("tests/integration.rs", src).is_empty());
    }

    #[test]
    fn r004_wants_labels_but_not_in_tests() {
        let src = r#"
            fn f() { let _m = Mutex::new(0); }
            fn g() { let _m = Mutex::new_labeled("x.y", 0); }
            #[cfg(test)]
            mod tests { fn t() { let _m = RwLock::new(0); } }
        "#;
        assert_eq!(codes("crates/core/src/x.rs", src), vec!["R004"]);
    }

    #[test]
    fn r005_only_on_crate_roots() {
        let src = "pub fn f() {}";
        assert_eq!(codes("crates/core/src/lib.rs", src), vec!["R005"]);
        assert!(codes("crates/core/src/other.rs", src).is_empty());
        let ok = "#![forbid(unsafe_code)]\npub fn f() {}";
        assert!(codes("crates/core/src/lib.rs", ok).is_empty());
    }

    #[test]
    fn r006_only_in_planner_paths() {
        let src = "fn f() { let _t = std::time::Instant::now(); }";
        assert_eq!(codes("crates/relational/src/opt/rules.rs", src), vec!["R006"]);
        assert!(codes("crates/relational/src/exec/stream.rs", src).is_empty());
    }

    #[test]
    fn allows_suppress_with_justification_only() {
        let with = "// srclint: allow(R002): probe is guarded by contains_key\nfn f() { x().unwrap(); }";
        assert!(codes("crates/core/src/x.rs", with).is_empty());
        let without = "// srclint: allow(R002):\nfn f() { x().unwrap(); }";
        assert_eq!(codes("crates/core/src/x.rs", without), vec!["R000", "R002"]);
        let unknown = "// srclint: allow(R099): nope\nfn f() {}";
        assert_eq!(codes("crates/core/src/x.rs", unknown), vec!["R000"]);
    }

    #[test]
    fn compat_class_gets_only_r005() {
        let src = "use std::sync::Mutex;\nfn f() { x().unwrap(); panic!(); }";
        assert!(codes("crates/compat/parking_lot/src/inner.rs", src).is_empty());
        assert_eq!(codes("crates/compat/parking_lot/src/lib.rs", src), vec!["R005"]);
    }

    #[test]
    fn tooling_class_skips_panic_discipline() {
        let src = "use std::sync::Mutex;\nfn f() { x().unwrap(); panic!(); }";
        assert_eq!(codes("crates/xtask/src/gates.rs", src), vec!["R001"]);
    }

    #[test]
    fn totality_on_nasty_inputs() {
        for src in [
            "",
            "\"unterminated",
            "r#\"unterminated raw",
            "/* unterminated block /* nested",
            "'",
            "b'",
            "'\\",
            "𝕊𝕥𝕣𝕒𝕟𝕘𝕖 𝕦𝕟𝕚𝕔𝕠𝕕𝕖 §§§",
            "#![]",
            "# ! [ forbid ( unsafe_code ) ]",
            "0x 1. 2e+ 'a 'b1 r#type",
        ] {
            let _ = lint_source("crates/core/src/x.rs", src);
            let _ = lint_source("crates/core/src/lib.rs", src);
        }
    }

    #[test]
    fn spaced_forbid_attribute_is_recognised() {
        let src = "# ! [ forbid ( unsafe_code ) ]\npub fn f() {}";
        assert!(codes("crates/core/src/lib.rs", src).is_empty());
    }
}
