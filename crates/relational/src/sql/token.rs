//! SQL tokens.

use std::fmt;

use crate::value::DataType;

/// A lexical token with its byte offset in the source.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    pub kind: TokenKind,
    pub offset: usize,
}

/// Token kinds produced by the SQL lexer.
///
/// Keywords are *not* reserved at the lexer level: the lexer emits
/// [`TokenKind::Ident`] and the parser decides contextually, which keeps the
/// identifier space open for SESQL vocabulary (e.g. a column named `enrich`
/// would still lex, while the SESQL layer splits on the ENRICH keyword
/// before SQL parsing).
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind {
    /// Bare or quoted identifier. `quoted` identifiers keep their case and
    /// never match keywords.
    Ident { value: String, quoted: bool },
    /// String literal (single quotes, `''` escape).
    String(String),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    // punctuation / operators
    Comma,
    Dot,
    LParen,
    RParen,
    Star,
    Plus,
    Minus,
    Slash,
    Percent,
    Eq,
    /// `<>` or `!=`
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    /// `||` string concatenation
    Concat,
    Semicolon,
    /// `$name` — a named parameter placeholder.
    NamedParam(String),
    /// `?` — a positional parameter placeholder.
    PositionalParam,
    /// A literal of this type lifted into a hidden slot by the statement
    /// cache's normaliser (see [`crate::sql::shape`]); the lexer never
    /// produces one.
    Lifted(DataType),
    /// End of input sentinel.
    Eof,
}

impl TokenKind {
    /// If this token is a bare identifier equal (case-insensitively) to
    /// `kw`, return true. Quoted identifiers never match.
    pub fn is_kw(&self, kw: &str) -> bool {
        matches!(self, TokenKind::Ident { value, quoted: false } if value.eq_ignore_ascii_case(kw))
    }
}

impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Ident { value, quoted: false } => write!(f, "{value}"),
            TokenKind::Ident { value, quoted: true } => write!(f, "\"{value}\""),
            TokenKind::String(s) => write!(f, "'{s}'"),
            TokenKind::Int(i) => write!(f, "{i}"),
            TokenKind::Float(x) => write!(f, "{x}"),
            TokenKind::Comma => f.write_str(","),
            TokenKind::Dot => f.write_str("."),
            TokenKind::LParen => f.write_str("("),
            TokenKind::RParen => f.write_str(")"),
            TokenKind::Star => f.write_str("*"),
            TokenKind::Plus => f.write_str("+"),
            TokenKind::Minus => f.write_str("-"),
            TokenKind::Slash => f.write_str("/"),
            TokenKind::Percent => f.write_str("%"),
            TokenKind::Eq => f.write_str("="),
            TokenKind::NotEq => f.write_str("<>"),
            TokenKind::Lt => f.write_str("<"),
            TokenKind::LtEq => f.write_str("<="),
            TokenKind::Gt => f.write_str(">"),
            TokenKind::GtEq => f.write_str(">="),
            TokenKind::Concat => f.write_str("||"),
            TokenKind::Semicolon => f.write_str(";"),
            TokenKind::NamedParam(n) => write!(f, "${n}"),
            TokenKind::PositionalParam => f.write_str("?"),
            TokenKind::Lifted(ty) => write!(f, "?{ty}"),
            TokenKind::Eof => f.write_str("<eof>"),
        }
    }
}
