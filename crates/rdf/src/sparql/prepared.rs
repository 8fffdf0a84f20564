// srclint: allow(R002): prepare() resolves every slot before substitution can run
//! Prepared SPARQL queries: compile once, bind terms, evaluate many times.
//!
//! [`prepare`] parses a SELECT into a [`Prepared`] handle carrying its
//! parameter slots. Placeholders use the same grammar as the SQL and
//! SESQL layers:
//!
//! * `$name` — named parameter (every occurrence is one slot). This
//!   deliberately diverges from the SPARQL spec, where `$x` and `?x` are
//!   the same variable; in this engine `?x` is the variable sigil and
//!   `$x` is reserved for parameters.
//! * `?` followed by a non-name character — positional parameter, bound
//!   in occurrence order (internally named `#0`, `#1`, ...).
//!
//! Binding substitutes constant [`Term`]s for the placeholders and hands
//! the resulting parameter-free query to the ID-native evaluator, which
//! then resolves the constants through the dictionary exactly once —
//! bound parameters get the same short-circuit behaviour as constants
//! written literally (an unknown term empties the BGP without scanning).

use std::sync::Arc;

use crate::error::{Error, Result};
use crate::store::TripleStore;
use crate::term::Term;

use super::ast::{GraphPattern, PatternTerm, PatternTriple, Query, SparqlExpr};
use super::eval::{evaluate_with, EvalOptions, Solutions};
#[cfg(test)]
use super::eval::evaluate;
use super::parser::parse_query;

/// Term bindings for the parameter slots of a prepared query.
#[derive(Debug, Clone, Default)]
pub struct SparqlParams {
    named: Vec<(String, Term)>,
    positional: Vec<Term>,
}

impl SparqlParams {
    pub fn new() -> Self {
        SparqlParams::default()
    }

    /// Bind a named (`$name`) parameter.
    pub fn set(mut self, name: impl Into<String>, term: Term) -> Self {
        let name = name.into();
        self.named.retain(|(n, _)| *n != name);
        self.named.push((name, term));
        self
    }

    /// Bind the next positional (`?`) parameter.
    pub fn push(mut self, term: Term) -> Self {
        self.positional.push(term);
        self
    }

    fn lookup(&self, slot: &str) -> Result<Term> {
        // Positional slots carry their *textual* occurrence index in the
        // synthesized `#<n>` name (AST traversal order differs — filters
        // are hoisted above their group's triples).
        if let Some(n) = slot.strip_prefix('#') {
            let index: usize = n
                .parse()
                .map_err(|_| Error::eval(format!("malformed positional slot `{slot}`")))?;
            self.positional.get(index).cloned().ok_or_else(|| {
                Error::eval(format!(
                    "missing binding for positional parameter #{}",
                    index + 1
                ))
            })
        } else {
            self.named
                .iter()
                .find(|(n, _)| n == slot)
                .map(|(_, t)| t.clone())
                .ok_or_else(|| {
                    Error::eval(format!("missing binding for parameter `${slot}`"))
                })
        }
    }
}

/// A compiled SPARQL SELECT with its parameter slot list.
#[derive(Debug, Clone)]
pub struct Prepared {
    query: Arc<Query>,
    /// Parameter names in first-occurrence order (`#<n>` = positional).
    params: Arc<Vec<String>>,
    text: String,
}

/// Compile a SELECT query into a [`Prepared`] handle.
pub fn prepare(sparql: &str) -> Result<Prepared> {
    let query = parse_query(sparql)?;
    let params = query.params();
    Ok(Prepared {
        query: Arc::new(query),
        params: Arc::new(params),
        text: normalize_sparql(sparql),
    })
}

impl Prepared {
    /// Parameter slot names in binding order (`#<n>` entries are
    /// positional).
    pub fn params(&self) -> &[String] {
        &self.params
    }

    /// The parsed (still parameterised) query.
    pub fn query(&self) -> &Query {
        &self.query
    }

    /// Normalized query text.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// Substitute bindings, producing a parameter-free query.
    pub fn bind(&self, params: &SparqlParams) -> Result<Query> {
        if self.params.is_empty() {
            return Ok((*self.query).clone());
        }
        let mut values = Vec::with_capacity(self.params.len());
        for slot in self.params.iter() {
            values.push((slot.clone(), params.lookup(slot)?));
        }
        Ok(bind_query(&self.query, &values))
    }

    /// Bind and evaluate against the union of `graphs`.
    pub fn execute(
        &self,
        store: &TripleStore,
        graphs: &[&str],
        params: &SparqlParams,
    ) -> Result<Solutions> {
        self.execute_with(store, graphs, params, &EvalOptions::default())
    }

    /// Bind and evaluate with explicit [`EvalOptions`] (e.g. a worker
    /// thread budget for partition-parallel probing).
    pub fn execute_with(
        &self,
        store: &TripleStore,
        graphs: &[&str],
        params: &SparqlParams,
        options: &EvalOptions,
    ) -> Result<Solutions> {
        let bound = self.bind(params)?;
        evaluate_with(store, graphs, &bound, options)
    }

    /// Bind and evaluate, returning a cursor over the solutions.
    pub fn cursor(
        &self,
        store: &TripleStore,
        graphs: &[&str],
        params: &SparqlParams,
    ) -> Result<SolutionCursor> {
        Ok(SolutionCursor::new(self.execute(store, graphs, params)?))
    }
}

/// A pull-style cursor over a solution set: the uniform consumption shape
/// shared with the relational `Rows` cursor (the SPARQL evaluator
/// materialises solutions, so this cursor streams the hand-off, not the
/// probe loop).
#[derive(Debug)]
pub struct SolutionCursor {
    variables: Vec<String>,
    rows: std::vec::IntoIter<Vec<Option<Term>>>,
}

impl SolutionCursor {
    pub fn new(sols: Solutions) -> Self {
        SolutionCursor { variables: sols.variables, rows: sols.rows.into_iter() }
    }

    pub fn variables(&self) -> &[String] {
        &self.variables
    }

    /// Remaining solutions, materialised back into a [`Solutions`].
    pub fn collect_solutions(self) -> Solutions {
        Solutions { variables: self.variables, rows: self.rows.collect() }
    }
}

impl Iterator for SolutionCursor {
    type Item = Vec<Option<Term>>;

    fn next(&mut self) -> Option<Self::Item> {
        self.rows.next()
    }
}

// ---- binding substitution --------------------------------------------------

fn bound_term(slot: &str, values: &[(String, Term)]) -> Term {
    values
        .iter()
        .find(|(n, _)| n == slot)
        .map(|(_, t)| t.clone())
        .expect("all slots resolved before substitution")
}

fn bind_pattern_term(pt: &PatternTerm, values: &[(String, Term)]) -> PatternTerm {
    match pt {
        PatternTerm::Param(p) => PatternTerm::Const(bound_term(p, values)),
        other => other.clone(),
    }
}

fn bind_expr(e: &SparqlExpr, values: &[(String, Term)]) -> SparqlExpr {
    match e {
        SparqlExpr::Param(p) => SparqlExpr::Const(bound_term(p, values)),
        SparqlExpr::Var(_) | SparqlExpr::Const(_) | SparqlExpr::Bound(_) => e.clone(),
        SparqlExpr::Cmp(a, op, b) => SparqlExpr::Cmp(
            Box::new(bind_expr(a, values)),
            *op,
            Box::new(bind_expr(b, values)),
        ),
        SparqlExpr::And(a, b) => {
            SparqlExpr::And(Box::new(bind_expr(a, values)), Box::new(bind_expr(b, values)))
        }
        SparqlExpr::Or(a, b) => {
            SparqlExpr::Or(Box::new(bind_expr(a, values)), Box::new(bind_expr(b, values)))
        }
        SparqlExpr::Not(inner) => SparqlExpr::Not(Box::new(bind_expr(inner, values))),
        SparqlExpr::Regex(inner, pat) => {
            SparqlExpr::Regex(Box::new(bind_expr(inner, values)), pat.clone())
        }
        SparqlExpr::Str(inner) => SparqlExpr::Str(Box::new(bind_expr(inner, values))),
    }
}

fn bind_triple(t: &PatternTriple, values: &[(String, Term)]) -> PatternTriple {
    PatternTriple {
        subject: bind_pattern_term(&t.subject, values),
        predicate: bind_pattern_term(&t.predicate, values),
        object: bind_pattern_term(&t.object, values),
        path: t.path,
        complex: t.complex.clone(),
    }
}

fn bind_graph_pattern(p: &GraphPattern, values: &[(String, Term)]) -> GraphPattern {
    match p {
        GraphPattern::Bgp(ts) => {
            GraphPattern::Bgp(ts.iter().map(|t| bind_triple(t, values)).collect())
        }
        GraphPattern::Join(a, b) => GraphPattern::Join(
            Box::new(bind_graph_pattern(a, values)),
            Box::new(bind_graph_pattern(b, values)),
        ),
        GraphPattern::Optional(a, b) => GraphPattern::Optional(
            Box::new(bind_graph_pattern(a, values)),
            Box::new(bind_graph_pattern(b, values)),
        ),
        GraphPattern::Union(a, b) => GraphPattern::Union(
            Box::new(bind_graph_pattern(a, values)),
            Box::new(bind_graph_pattern(b, values)),
        ),
        GraphPattern::Minus(a, b) => GraphPattern::Minus(
            Box::new(bind_graph_pattern(a, values)),
            Box::new(bind_graph_pattern(b, values)),
        ),
        GraphPattern::Filter(inner, e) => GraphPattern::Filter(
            Box::new(bind_graph_pattern(inner, values)),
            bind_expr(e, values),
        ),
        GraphPattern::Values { .. } => p.clone(),
    }
}

/// Substitute bound terms for every parameter of `query`.
pub fn bind_query(query: &Query, values: &[(String, Term)]) -> Query {
    Query {
        distinct: query.distinct,
        variables: query.variables.clone(),
        projections: query.projections.clone(),
        pattern: bind_graph_pattern(&query.pattern, values),
        group_by: query.group_by.clone(),
        having: query.having.as_ref().map(|h| bind_expr(h, values)),
        order_by: query.order_by.clone(),
        limit: query.limit,
        offset: query.offset,
    }
}

/// Whitespace/comment-insensitive cache key: runs of whitespace collapse
/// to one space (string literals and IRIs survive verbatim), `#` comments
/// drop.
pub fn normalize_sparql(src: &str) -> String {
    let mut out = String::with_capacity(src.len());
    let bytes = src.as_bytes();
    let mut i = 0;
    let mut pending_space = false;
    while i < bytes.len() {
        let c = bytes[i];
        match c {
            b'#' => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            _ if c.is_ascii_whitespace() => {
                pending_space = !out.is_empty();
                i += 1;
            }
            b'"' | b'<' => {
                // Copy the literal/IRI verbatim through its terminator.
                if pending_space {
                    out.push(' ');
                    pending_space = false;
                }
                let close = if c == b'"' { b'"' } else { b'>' };
                out.push(c as char);
                i += 1;
                while i < bytes.len() {
                    let b = bytes[i];
                    out.push(b as char);
                    i += 1;
                    if b == b'\\' && close == b'"' && i < bytes.len() {
                        out.push(bytes[i] as char);
                        i += 1;
                        continue;
                    }
                    if b == close {
                        break;
                    }
                    // `<` used as an operator never spans whitespace.
                    if close == b'>' && b.is_ascii_whitespace() {
                        break;
                    }
                }
            }
            _ => {
                if pending_space {
                    out.push(' ');
                    pending_space = false;
                }
                out.push(c as char);
                i += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::Triple;

    fn store() -> TripleStore {
        let s = TripleStore::new();
        for (sub, p, o) in [
            ("Hg", "dangerLevel", "5"),
            ("Pb", "dangerLevel", "4"),
            ("Cu", "dangerLevel", "1"),
        ] {
            s.insert("kb", &Triple::new(Term::iri(sub), Term::iri(p), Term::lit(o)));
        }
        s
    }

    #[test]
    fn named_parameter_round_trip() {
        let s = store();
        let p = prepare("SELECT ?o WHERE { $elem <dangerLevel> ?o }").unwrap();
        assert_eq!(p.params(), ["elem"]);
        let sols = p
            .execute(&s, &["kb"], &SparqlParams::new().set("elem", Term::iri("Hg")))
            .unwrap();
        assert_eq!(sols.len(), 1);
        assert_eq!(sols.rows[0][0], Some(Term::lit("5")));
        // Re-execute with a different binding: no re-parse, new result.
        let sols = p
            .execute(&s, &["kb"], &SparqlParams::new().set("elem", Term::iri("Pb")))
            .unwrap();
        assert_eq!(sols.rows[0][0], Some(Term::lit("4")));
    }

    #[test]
    fn positional_parameter_round_trip() {
        let s = store();
        let p = prepare("SELECT ?s WHERE { ?s ? ? }").unwrap();
        assert_eq!(p.params(), ["#0", "#1"]);
        let sols = p
            .execute(
                &s,
                &["kb"],
                &SparqlParams::new()
                    .push(Term::iri("dangerLevel"))
                    .push(Term::lit("5")),
            )
            .unwrap();
        assert_eq!(sols.len(), 1);
        assert_eq!(sols.rows[0][0], Some(Term::iri("Hg")));
    }

    #[test]
    fn positional_binding_follows_textual_order_not_traversal() {
        // Filters hoist above their group's triples in the AST, so
        // traversal order differs from textual order: a filter written
        // before a triple must still take the *first* pushed value.
        let s = store();
        let p = prepare("SELECT ?s WHERE { FILTER(?d = ?) . ?s ? ?d }").unwrap();
        let sols = p
            .execute(
                &s,
                &["kb"],
                &SparqlParams::new()
                    .push(Term::lit("5")) // #0: the filter comparand
                    .push(Term::iri("dangerLevel")), // #1: the predicate
            )
            .unwrap();
        assert_eq!(sols.len(), 1);
        assert_eq!(sols.rows[0][0], Some(Term::iri("Hg")));
    }

    #[test]
    fn parameter_in_filter_binds() {
        let s = store();
        let p = prepare(
            "SELECT ?s WHERE { ?s <dangerLevel> ?d . FILTER(?d >= $min) }",
        )
        .unwrap();
        let sols = p
            .execute(&s, &["kb"], &SparqlParams::new().set("min", Term::lit("4")))
            .unwrap();
        assert_eq!(sols.len(), 2);
    }

    #[test]
    fn missing_binding_errors() {
        let s = store();
        let p = prepare("SELECT ?o WHERE { $elem <dangerLevel> ?o }").unwrap();
        let err = p.execute(&s, &["kb"], &SparqlParams::new()).unwrap_err();
        assert!(err.to_string().contains("$elem"), "{err}");
    }

    #[test]
    fn evaluating_unbound_parameters_directly_errors() {
        let s = store();
        let q = parse_query("SELECT ?o WHERE { $elem <dangerLevel> ?o }").unwrap();
        let err = evaluate(&s, &["kb"], &q).unwrap_err();
        assert!(err.to_string().contains("unbound parameter"), "{err}");
    }

    #[test]
    fn unknown_bound_term_short_circuits_to_empty() {
        let s = store();
        let p = prepare("SELECT ?o WHERE { $elem <dangerLevel> ?o }").unwrap();
        let sols = p
            .execute(&s, &["kb"], &SparqlParams::new().set("elem", Term::iri("Xx")))
            .unwrap();
        assert!(sols.is_empty());
    }

    #[test]
    fn question_var_is_still_a_variable() {
        // `?elem` must keep meaning "variable" — only `$` is a parameter.
        let p = prepare("SELECT ?elem WHERE { ?elem <dangerLevel> ?o }").unwrap();
        assert!(p.params().is_empty());
    }

    #[test]
    fn cursor_streams_solutions() {
        let s = store();
        let p = prepare("SELECT ?s ?o WHERE { ?s <dangerLevel> ?o }").unwrap();
        let cur = p.cursor(&s, &["kb"], &SparqlParams::new()).unwrap();
        assert_eq!(cur.variables().to_vec(), vec!["s", "o"]);
        let mut n = 0;
        for row in cur {
            assert_eq!(row.len(), 2);
            n += 1;
        }
        assert_eq!(n, 3);
    }

    #[test]
    fn prepare_equals_textual_substitution() {
        let s = store();
        let p = prepare(
            "SELECT ?s WHERE { ?s <dangerLevel> ?d . FILTER(?d >= $min) }",
        )
        .unwrap();
        let prepared = p
            .execute(&s, &["kb"], &SparqlParams::new().set("min", Term::lit("4")))
            .unwrap();
        let textual = super::super::eval::query(
            &s,
            &["kb"],
            "SELECT ?s WHERE { ?s <dangerLevel> ?d . FILTER(?d >= \"4\") }",
        )
        .unwrap();
        assert_eq!(prepared.rows, textual.rows);
    }
}
