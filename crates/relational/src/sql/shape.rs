//! The statement cache's one normaliser: a statement's text reduced to its
//! *shape*.
//!
//! Two texts with one shape compile to one cached statement. The shape is
//! built from the lexer's tokens, so comments and whitespace never reach
//! it; keyword case is folded where the word can only be a keyword, and
//! identifier case is kept (it names output columns). A region the caller
//! marks verbatim — a SESQL `${…:id}` tag — is kept as written and never
//! lifted from.
//!
//! A literal is *lifted* into a hidden slot — the key records its type,
//! the statement gets its value when a cursor opens — when all of these
//! hold:
//!
//! * it is a string or numeric literal (a sign included);
//! * it is compared by `=`, `<>`, `<`, `<=`, `>` or `>=` with a column
//!   reference, in either order, and nothing binds tighter to either
//!   operand;
//! * it is in the WHERE clause of a SELECT, outside subqueries and
//!   verbatim regions;
//! * its column is named nowhere else in that WHERE clause, so no other
//!   literal is compared with it.
//!
//! Everything else stays in the key: LIMIT/OFFSET, ORDER BY positions,
//! projections, IN / BETWEEN / LIKE, NULL, booleans and parameters. The
//! conditions make a lifted slot indistinguishable from its literal to
//! the planner and the linter, which type it by the literal's type: no
//! rule compares two literals of one column, and an index key coerces by
//! type alone.

use std::ops::Range;

use crate::error::Result;
use crate::value::{DataType, Value};

use super::lexer::tokenize;
use super::token::{Token, TokenKind};

/// A statement reduced to its shape (see the module docs).
#[derive(Debug, Clone)]
pub struct Shape {
    /// The cache key: the tokens one space apart, each lifted literal as
    /// `?TYPE`, each verbatim region as written.
    pub key: String,
    /// What the parser reads on a miss: the statement's tokens with each
    /// lifted literal (and its sign) replaced by one [`TokenKind::Lifted`].
    pub tokens: Vec<Token>,
    /// The lifted literals' values, in token order — the values of the
    /// shape's hidden slots.
    pub lifted: Vec<Value>,
}

/// A region of the token source that the shape keeps as `text` and never
/// lifts from: every token whose offset lies in `range`.
#[derive(Debug, Clone)]
pub struct Verbatim<'a> {
    pub range: Range<usize>,
    pub text: &'a str,
}

impl Shape {
    /// The shape of SQL text.
    pub fn of(sql: &str) -> Result<Shape> {
        Ok(Shape::new(tokenize(sql)?, &[]))
    }

    /// The shape of a lexed statement with `verbatim` regions.
    pub fn new(tokens: Vec<Token>, verbatim: &[Verbatim]) -> Shape {
        let region = |t: &Token| verbatim.iter().position(|v| v.range.contains(&t.offset));
        let (tokens, lifted) = lift(tokens, &|t| region(t).is_some());
        let mut key = String::with_capacity(tokens.len() * 6);
        let mut last = None;
        for (i, t) in tokens.iter().enumerate() {
            match region(t) {
                None => render(&mut key, &tokens, i),
                Some(v) if last != Some(v) => {
                    space(&mut key);
                    key.push_str(verbatim[v].text);
                }
                Some(_) => {}
            }
            last = region(t);
        }
        Shape { key, tokens, lifted }
    }
}

/// Whether lexed text is a SELECT: only a SELECT's literals are lifted.
pub fn is_select(tokens: &[Token]) -> bool {
    tokens.first().is_some_and(|t| t.kind.is_kw("select"))
}

fn space(key: &mut String) {
    if !key.is_empty() {
        key.push(' ');
    }
}

/// Append token `i` to the key.
fn render(key: &mut String, tokens: &[Token], i: usize) {
    let kind = &tokens[i].kind;
    if *kind == TokenKind::Eof {
        return;
    }
    space(key);
    match kind {
        TokenKind::Ident { value, quoted: false } if folds(tokens, i) => {
            key.extend(value.chars().map(|c| c.to_ascii_lowercase()))
        }
        TokenKind::Ident { value, quoted: true } => {
            key.push('"');
            key.push_str(&value.replace('"', "\"\""));
            key.push('"');
        }
        TokenKind::String(s) => {
            key.push('\'');
            key.push_str(&s.replace('\'', "''"));
            key.push('\'');
        }
        // `{:?}` keeps `1.0` apart from the integer `1`.
        TokenKind::Float(x) => key.push_str(&format!("{x:?}")),
        other => key.push_str(&other.to_string()),
    }
}

/// Whether `t` is an unquoted word of `set`.
fn is_word(t: Option<&Token>, set: &[&str]) -> bool {
    t.is_some_and(|t| set.iter().any(|k| t.kind.is_kw(k)))
}

/// Words that are keywords wherever they are not a table name, an alias or
/// a qualified name.
const CLAUSE_RESERVED: &[&str] = &[
    "from", "where", "group", "having", "order", "limit", "offset", "union", "as", "on", "join",
    "inner", "left", "right", "cross", "enrich",
];
/// Words that are keywords right after an operand (elsewhere they can be a
/// column).
const AFTER_OPERAND: &[&str] = &["and", "or", "not", "asc", "desc"];
/// Words that are keywords except right after an operand (where they can
/// be an alias).
const NOT_AFTER_OPERAND: &[&str] = &["select", "distinct", "by", "set", "values", "into"];
/// Keywords that start or continue an operand but never end one.
const LEADING: &[&str] = &["when", "then", "else", "case", "in", "is", "like", "between", "exists"];

/// Whether token `i` ends an operand.
fn ends_operand(tokens: &[Token], i: usize) -> bool {
    let t = &tokens[i];
    match t.kind {
        TokenKind::Ident { quoted: false, .. } => ![CLAUSE_RESERVED, AFTER_OPERAND, NOT_AFTER_OPERAND, LEADING]
            .iter()
            .any(|set| is_word(Some(t), set)),
        TokenKind::Ident { quoted: true, .. }
        | TokenKind::String(_)
        | TokenKind::Int(_)
        | TokenKind::Float(_)
        | TokenKind::NamedParam(_)
        | TokenKind::PositionalParam
        | TokenKind::Lifted(_)
        | TokenKind::RParen => true,
        _ => false,
    }
}

/// Whether unquoted word `i` is a keyword whose case the parser ignores —
/// so folding it cannot change what the statement means or the names it
/// outputs. A word that may be an identifier there keeps its case.
fn folds(tokens: &[Token], i: usize) -> bool {
    let (t, prev) = (Some(&tokens[i]), i.checked_sub(1));
    if tokens.get(i + 1).is_some_and(|t| t.kind == TokenKind::Dot) {
        return false;
    }
    let after_operand = prev.is_some_and(|p| ends_operand(tokens, p));
    let names_follow = prev.map(|p| &tokens[p]).is_some_and(|p| {
        matches!(p.kind, TokenKind::Dot | TokenKind::Comma) || is_word(Some(p), &["as", "from", "join"])
    });
    if is_word(t, CLAUSE_RESERVED) {
        !names_follow
    } else if is_word(t, AFTER_OPERAND) {
        after_operand
    } else {
        is_word(t, NOT_AFTER_OPERAND) && !after_operand && !names_follow
    }
}

// ---- lifting ---------------------------------------------------------------

/// Words after which a comparison may start as a whole operand (as may
/// `(` and `,`).
const OPENS: &[&str] = &["where", "and", "or", "not", "when", "then", "else"];
/// Words that may follow a comparison's right operand (as may `)`, `,`,
/// `;` and the end).
const CLOSES: &[&str] = &[
    "and", "or", "then", "when", "else", "end", "group", "having", "order", "limit", "offset",
    "union",
];
/// Words that end a top-level WHERE clause.
const AFTER_WHERE: &[&str] = &["group", "having", "order", "limit", "offset", "union"];
/// Words the parser never reads as a column reference where a comparison
/// operand starts.
const NOT_A_COLUMN: &[&str] = &[
    "null", "true", "false", "not", "exists", "case", "from", "where", "group", "having", "order",
    "limit", "offset", "select", "set", "values", "into", "by", "on", "join", "inner", "left",
    "right", "cross", "as", "distinct", "union", "enrich",
];

fn opens_comparison(t: &Token) -> bool {
    matches!(t.kind, TokenKind::LParen | TokenKind::Comma) || is_word(Some(t), OPENS)
}

fn closes_comparison(t: &Token) -> bool {
    matches!(t.kind, TokenKind::RParen | TokenKind::Comma | TokenKind::Semicolon | TokenKind::Eof)
        || is_word(Some(t), CLOSES)
}

fn is_comparison(t: &Token) -> bool {
    use TokenKind::*;
    matches!(t.kind, Eq | NotEq | Lt | LtEq | Gt | GtEq)
}

/// The column reference starting at `i` — `name` or `qualifier.name` —
/// as the index past it and the index of its name token.
fn column_ref(tokens: &[Token], i: usize) -> Option<(usize, usize)> {
    let is_name = |j: usize| {
        matches!(tokens.get(j), Some(Token { kind: TokenKind::Ident { .. }, .. }))
            && !is_word(tokens.get(j), NOT_A_COLUMN)
    };
    if !is_name(i) {
        return None;
    }
    if tokens.get(i + 1).is_some_and(|t| t.kind == TokenKind::Dot) {
        return is_name(i + 2).then_some((i + 3, i + 2));
    }
    Some((i + 1, i))
}

/// The (optionally signed) literal starting at `i`: the index past it and
/// its value.
fn literal(tokens: &[Token], i: usize) -> Option<(usize, Value)> {
    let number = |j: usize, neg: bool| match tokens.get(j)?.kind {
        TokenKind::Int(v) => Some(Value::Int(if neg { -v } else { v })),
        TokenKind::Float(v) => Some(Value::Float(if neg { -v } else { v })),
        _ => None,
    };
    match &tokens.get(i)?.kind {
        TokenKind::String(s) => Some((i + 1, Value::from(s.as_str()))),
        TokenKind::Minus => Some((i + 2, number(i + 1, true)?)),
        TokenKind::Plus => Some((i + 2, number(i + 1, false)?)),
        _ => Some((i + 1, number(i, false)?)),
    }
}

fn name_of(tokens: &[Token], i: usize) -> &str {
    match &tokens[i].kind {
        TokenKind::Ident { value, .. } => value,
        _ => "",
    }
}

/// The index ranges of every top-level WHERE clause: the token after
/// `WHERE` up to the clause keyword, `;` or end that closes it.
fn where_clauses(tokens: &[Token]) -> Vec<Range<usize>> {
    let (mut out, mut depth, mut open) = (Vec::new(), 0usize, None);
    for (i, t) in tokens.iter().enumerate() {
        match t.kind {
            TokenKind::LParen => depth += 1,
            TokenKind::RParen => depth = depth.saturating_sub(1),
            _ if depth > 0 => {}
            _ if t.kind.is_kw("where") && folds(tokens, i) => {
                out.extend(open.replace(i + 1).map(|s| s..i));
            }
            TokenKind::Semicolon | TokenKind::Eof => out.extend(open.take().map(|s| s..i)),
            _ if is_word(Some(t), AFTER_WHERE) => out.extend(open.take().map(|s| s..i)),
            _ => {}
        }
    }
    out
}

/// Lift the literals of every top-level WHERE clause that the module docs
/// allow; `kept` marks verbatim tokens.
fn lift(tokens: Vec<Token>, kept: &dyn Fn(&Token) -> bool) -> (Vec<Token>, Vec<Value>) {
    // (first token, past the last token, value) of each lifted literal.
    let mut lifts: Vec<(usize, usize, Value)> = Vec::new();
    let clauses = if is_select(&tokens) { where_clauses(&tokens) } else { Vec::new() };
    for clause in clauses {
        // Every name in the clause, subqueries and verbatim regions
        // included: a column named twice is never lifted.
        let names: Vec<&str> = clause
            .clone()
            .filter(|&i| {
                let next = tokens.get(i + 1).map(|t| &t.kind);
                matches!(tokens[i].kind, TokenKind::Ident { .. })
                    && !matches!(next, Some(TokenKind::Dot | TokenKind::LParen))
            })
            .map(|i| name_of(&tokens, i))
            .collect();
        let once = |name: usize| {
            let name = name_of(&tokens, name);
            names.iter().filter(|n| n.eq_ignore_ascii_case(name)).count() == 1
        };
        let free = |range: Range<usize>| range.into_iter().all(|j| !kept(&tokens[j]));
        // Parens opened in the clause: whether each opens a subquery.
        let mut frames: Vec<bool> = Vec::new();
        let mut i = clause.start;
        while i < clause.end {
            match tokens[i].kind {
                TokenKind::LParen => frames.push(tokens[i + 1].kind.is_kw("select")),
                TokenKind::RParen => {
                    frames.pop();
                }
                _ => {}
            }
            if !frames.contains(&true) && opens_comparison(&tokens[i - 1]) {
                // `column op literal`, then `literal op column`.
                let lifted = column_ref(&tokens, i)
                    .filter(|&(op, _)| is_comparison(&tokens[op]))
                    .and_then(|(op, name)| Some((op + 1, literal(&tokens, op + 1)?, name)))
                    .map(|(start, (end, value), name)| (start, end, end, value, name))
                    .or_else(|| {
                        let (op, value) = literal(&tokens, i)?;
                        let (end, name) = column_ref(&tokens, op + 1)?;
                        is_comparison(&tokens[op]).then_some((i, op, end, value, name))
                    })
                    .filter(|&(_, _, end, _, name)| {
                        closes_comparison(&tokens[end]) && free(i..end) && once(name)
                    });
                if let Some((start, stop, end, value, _)) = lifted {
                    lifts.push((start, stop, value));
                    i = end;
                    continue;
                }
            }
            i += 1;
        }
    }
    if lifts.is_empty() {
        return (tokens, Vec::new());
    }
    let mut out = Vec::with_capacity(tokens.len());
    let mut values = Vec::with_capacity(lifts.len());
    let mut next = lifts.into_iter().peekable();
    let mut skip_to = 0;
    for (i, t) in tokens.into_iter().enumerate() {
        if i < skip_to {
            continue;
        }
        match next.next_if(|(start, _, _)| *start == i) {
            Some((_, end, value)) => {
                let ty = value.data_type().unwrap_or(DataType::Text);
                out.push(Token { kind: TokenKind::Lifted(ty), offset: t.offset });
                values.push(value);
                skip_to = end;
            }
            None => out.push(t),
        }
    }
    (out, values)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(sql: &str) -> String {
        Shape::of(sql).unwrap().key
    }

    fn lifted(sql: &str) -> Vec<Value> {
        Shape::of(sql).unwrap().lifted
    }

    #[test]
    fn comparison_literals_are_lifted_with_their_type() {
        let s = Shape::of("SELECT a FROM t WHERE b = 'x' AND -2.5 < c AND t.d >= -3").unwrap();
        assert_eq!(
            s.key,
            "select a from t where b = ?TEXT and ?FLOAT < c and t . d >= ?INTEGER"
        );
        assert_eq!(
            s.lifted,
            [Value::from("x"), Value::Float(-2.5), Value::Int(-3)]
        );
        assert_eq!(
            key("select a from t where b = 'y' and -1.0 < c and t.d >= 7"),
            s.key
        );
    }

    #[test]
    fn what_stays_in_the_key() {
        for sql in [
            "SELECT 'x', 1 FROM t LIMIT 3 OFFSET 2",
            "SELECT a FROM t ORDER BY 1",
            "SELECT a FROM t WHERE b IN (1, 2) OR c BETWEEN 1 AND 2 OR d LIKE 'x%'",
            "SELECT a FROM t WHERE b = NULL OR c = TRUE OR d = $p OR e = ?",
            "SELECT a FROM t WHERE b = 1 AND b <> 2",
            "SELECT a FROM t WHERE b = 1 AND b > c",
            "SELECT a FROM t WHERE c IN (SELECT c FROM u WHERE d = 1)",
            "SELECT a FROM t WHERE b + 1 = 2 OR 3 = c * 2 OR d = 4 + e OR 5 - f = 0",
            "SELECT a FROM t HAVING b = 1",
            "SELECT a FROM t JOIN u ON t.b = 1",
            "SELECT a FROM t WHERE f(b) = 1 OR 2 = g(c)",
        ] {
            assert!(lifted(sql).is_empty(), "{sql}: {}", key(sql));
        }
    }

    #[test]
    fn union_members_and_nested_booleans_lift() {
        let sql = "SELECT a FROM t WHERE (b = 1 OR NOT c <> 'z') \
                   UNION SELECT a FROM u WHERE b = 2 ORDER BY a LIMIT 1";
        assert_eq!(
            lifted(sql),
            [Value::Int(1), Value::from("z"), Value::Int(2)]
        );
        assert!(
            key(sql).ends_with("where b = ?INTEGER order by a limit 1"),
            "{}",
            key(sql)
        );
    }

    #[test]
    fn comments_whitespace_and_keyword_case_fold_but_identifiers_do_not() {
        let a = key("SELECT  name FROM landfill -- note\n WHERE city = 'Torino' /* c */");
        assert_eq!(a, key("select name from landfill where city='Lyon'"));
        assert_ne!(a, key("SELECT NAME FROM landfill WHERE city = 'Torino'"));
        assert_ne!(a, key("SELECT name FROM landfill -- WHERE city = 'Torino'"));
        // An alias keeps its case; so do words that may be identifiers.
        assert_ne!(key("SELECT a AS Big FROM t"), key("SELECT a AS big FROM t"));
        assert_ne!(key("SELECT asc FROM t"), key("SELECT ASC FROM t"));
        assert_eq!(
            key("SELECT a FROM t ORDER BY a DESC"),
            key("select a from t order by a desc")
        );
    }

    #[test]
    fn literals_render_apart() {
        assert_ne!(key("SELECT 'a' 'b'"), key("SELECT 'a'' ''b'"));
        assert_ne!(key("SELECT 1"), key("SELECT 1.0"));
        assert_ne!(key("SELECT \"a\"\" \"\"b\""), key("SELECT \"a\" \"b\""));
    }

    #[test]
    fn verbatim_regions_render_as_written_and_lift_nothing() {
        let tokens = tokenize("SELECT a FROM t WHERE (b = 1) AND c = 2").unwrap();
        let tag = Verbatim {
            range: 22..29,
            text: "${b = 1:c1}",
        };
        let s = Shape::new(tokens, &[tag]);
        assert_eq!(s.key, "select a from t where ${b = 1:c1} and c = ?INTEGER");
        assert_eq!(s.lifted, [Value::Int(2)]);
    }
}
