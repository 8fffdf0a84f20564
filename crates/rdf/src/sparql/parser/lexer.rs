// srclint: allow(R002): the one hit is an in-bounds char read from the scan position just checked
//! The SPARQL lexer: source text to positioned tokens.

use crate::error::{Error, Result};


#[derive(Debug, Clone, PartialEq)]
pub(super) enum Tok {
    /// Bare word (keyword or prefixed-name fragment before `:`).
    Word(String),
    /// `?name` variable.
    Var(String),
    /// `$name` parameter, or bare `?` (positional, synthesized `#<n>`
    /// name). This engine reserves `$` for prepared-query parameters —
    /// a deliberate divergence from the SPARQL spec's `$x ≡ ?x` — so the
    /// placeholder grammar is uniform with SQL and SESQL.
    Param(String),
    /// `<iri>`
    Iri(String),
    /// String literal.
    Str(String),
    /// Numeric literal, kept in lexical form.
    Num(String),
    /// `prefix:local`
    Prefixed(String, String),
    LBrace,
    RBrace,
    LParen,
    RParen,
    Dot,
    Comma,
    Semicolon,
    Star,
    /// `+` path modifier.
    Plus,
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    AndAnd,
    OrOr,
    Bang,
    /// `^^` datatype marker.
    DtMarker,
    /// `/` path sequence operator.
    Slash,
    /// `|` path alternative operator.
    Pipe,
    /// `^` path inverse operator.
    Caret,
    Eof,
}

pub(super) fn lex(src: &str) -> Result<Vec<(Tok, usize)>> {
    let b = src.as_bytes();
    let mut i = 0;
    let mut out = Vec::new();
    let mut positional = 0usize;
    while i < b.len() {
        let c = b[i];
        let start = i;
        match c {
            _ if c.is_ascii_whitespace() => {
                i += 1;
                continue;
            }
            b'#' => {
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
                continue;
            }
            b'{' => {
                out.push((Tok::LBrace, start));
                i += 1;
            }
            b'}' => {
                out.push((Tok::RBrace, start));
                i += 1;
            }
            b'(' => {
                out.push((Tok::LParen, start));
                i += 1;
            }
            b')' => {
                out.push((Tok::RParen, start));
                i += 1;
            }
            b'.' => {
                out.push((Tok::Dot, start));
                i += 1;
            }
            b',' => {
                out.push((Tok::Comma, start));
                i += 1;
            }
            b';' => {
                out.push((Tok::Semicolon, start));
                i += 1;
            }
            b'*' => {
                out.push((Tok::Star, start));
                i += 1;
            }
            b'=' => {
                out.push((Tok::Eq, start));
                i += 1;
            }
            b'!' => {
                if b.get(i + 1) == Some(&b'=') {
                    out.push((Tok::NotEq, start));
                    i += 2;
                } else {
                    out.push((Tok::Bang, start));
                    i += 1;
                }
            }
            b'<' => {
                // `<=` or IRI
                if b.get(i + 1) == Some(&b'=') {
                    out.push((Tok::LtEq, start));
                    i += 2;
                } else {
                    // IRI iff it closes with '>' before whitespace.
                    let mut j = i + 1;
                    let mut iri = String::new();
                    let mut is_iri = false;
                    while j < b.len() {
                        if b[j] == b'>' {
                            is_iri = true;
                            break;
                        }
                        if b[j].is_ascii_whitespace() {
                            break;
                        }
                        iri.push(b[j] as char);
                        j += 1;
                    }
                    if is_iri {
                        out.push((Tok::Iri(iri), start));
                        i = j + 1;
                    } else {
                        out.push((Tok::Lt, start));
                        i += 1;
                    }
                }
            }
            b'>' => {
                if b.get(i + 1) == Some(&b'=') {
                    out.push((Tok::GtEq, start));
                    i += 2;
                } else {
                    out.push((Tok::Gt, start));
                    i += 1;
                }
            }
            b'&' => {
                if b.get(i + 1) == Some(&b'&') {
                    out.push((Tok::AndAnd, start));
                    i += 2;
                } else {
                    return Err(Error::parse("unexpected `&`", start));
                }
            }
            b'|' => {
                if b.get(i + 1) == Some(&b'|') {
                    out.push((Tok::OrOr, start));
                    i += 2;
                } else {
                    out.push((Tok::Pipe, start));
                    i += 1;
                }
            }
            b'^' => {
                if b.get(i + 1) == Some(&b'^') {
                    out.push((Tok::DtMarker, start));
                    i += 2;
                } else {
                    out.push((Tok::Caret, start));
                    i += 1;
                }
            }
            b'/' => {
                out.push((Tok::Slash, start));
                i += 1;
            }
            b'?' | b'$' => {
                i += 1;
                let s = i;
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                    i += 1;
                }
                if s == i {
                    if c == b'?' {
                        // Bare `?`: a positional parameter slot.
                        out.push((Tok::Param(format!("#{positional}")), start));
                        positional += 1;
                    } else {
                        return Err(Error::parse("empty parameter name after `$`", start));
                    }
                } else if c == b'$' {
                    out.push((Tok::Param(src[s..i].to_string()), start));
                } else {
                    out.push((Tok::Var(src[s..i].to_string()), start));
                }
            }
            b'"' => {
                i += 1;
                let mut s = String::new();
                loop {
                    match b.get(i) {
                        Some(b'"') => {
                            i += 1;
                            break;
                        }
                        Some(b'\\') => {
                            let esc = b.get(i + 1).copied();
                            match esc {
                                Some(b'"') => s.push('"'),
                                Some(b'\\') => s.push('\\'),
                                Some(b'n') => s.push('\n'),
                                Some(b't') => s.push('\t'),
                                _ => return Err(Error::parse("bad escape", i)),
                            }
                            i += 2;
                        }
                        Some(_) => {
                            let ch = src[i..].chars().next().expect("in bounds");
                            s.push(ch);
                            i += ch.len_utf8();
                        }
                        None => return Err(Error::parse("unterminated string", start)),
                    }
                }
                out.push((Tok::Str(s), start));
            }
            b'0'..=b'9' | b'-' | b'+' => {
                // `+` not followed by a digit is the path modifier.
                if c == b'+' && !b.get(i + 1).map(|d| d.is_ascii_digit()).unwrap_or(false) {
                    out.push((Tok::Plus, start));
                    i += 1;
                    continue;
                }
                i += 1;
                while i < b.len() && (b[i].is_ascii_digit() || b[i] == b'.') {
                    // A dot followed by non-digit ends the number (it's a
                    // triple terminator).
                    if b[i] == b'.'
                        && !b.get(i + 1).map(|d| d.is_ascii_digit()).unwrap_or(false)
                    {
                        break;
                    }
                    i += 1;
                }
                let text = &src[start..i];
                if text == "-" {
                    return Err(Error::parse("dangling sign", start));
                }
                out.push((Tok::Num(text.to_string()), start));
            }
            _ if c.is_ascii_alphabetic() || c == b'_' => {
                while i < b.len()
                    && (b[i].is_ascii_alphanumeric() || b[i] == b'_' || b[i] == b'-')
                {
                    i += 1;
                }
                let word = src[start..i].to_string();
                // prefixed name?
                if b.get(i) == Some(&b':') {
                    i += 1;
                    let s = i;
                    while i < b.len()
                        && (b[i].is_ascii_alphanumeric() || b[i] == b'_' || b[i] == b'-')
                    {
                        i += 1;
                    }
                    out.push((Tok::Prefixed(word, src[s..i].to_string()), start));
                } else {
                    out.push((Tok::Word(word), start));
                }
            }
            b':' => {
                // default-prefix name `:local`
                i += 1;
                let s = i;
                while i < b.len()
                    && (b[i].is_ascii_alphanumeric() || b[i] == b'_' || b[i] == b'-')
                {
                    i += 1;
                }
                out.push((Tok::Prefixed(String::new(), src[s..i].to_string()), start));
            }
            other => {
                return Err(Error::parse(
                    format!("unexpected character `{}`", other as char),
                    start,
                ))
            }
        }
    }
    out.push((Tok::Eof, src.len()));
    Ok(out)
}
