//! Prepared SPARQL queries: compile once, execute many times.
//!
//! [`prepare`] parses a SELECT and compiles it into a [`Prepared`] handle
//! holding its operator tree and parameter slots. Placeholders use the
//! same grammar as the SQL and SESQL layers:
//!
//! * `$name` — named parameter (every occurrence is one slot). This
//!   deliberately diverges from the SPARQL spec, where `$x` and `?x` are
//!   the same variable; in this engine `?x` is the variable sigil and
//!   `$x` is reserved for parameters.
//! * `?` followed by a non-name character — positional parameter, bound
//!   in occurrence order (internally named `#0`, `#1`, ...).
//!
//! A parameter is a leaf of the compiled tree, not a substituted term:
//! [`Prepared::execute`] looks every slot up in its [`SparqlParams`] (a
//! missing binding is an error before anything runs) and resolves the
//! bound terms through the dictionary together with the query's
//! constants, once per execution. A bound term the store has never seen
//! behaves like such a constant written literally: it matches nothing.

use std::sync::Arc;

use crate::error::{Error, Result};
use crate::store::TripleStore;
use crate::term::Term;

use super::ast::ParsedQuery;
use super::compile::{compile, Form, Plan};
use super::eval::{EvalOptions, Solutions};
use super::parser::{parse_any, parse_query};

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

/// A compiled SPARQL query: its operator tree and parameter slots.
/// Cheap to clone.
#[derive(Debug, Clone)]
pub struct Prepared {
    plan: Arc<Plan>,
}

/// Compile a SELECT query into a [`Prepared`] handle.
pub fn prepare(sparql: &str) -> Result<Prepared> {
    Prepared::compile(&ParsedQuery::Select(parse_query(sparql)?))
}

/// Compile a query of any form (SELECT, ASK, CONSTRUCT). An ASK handle
/// yields at most one solution with no columns; a CONSTRUCT handle yields
/// the solutions its template is instantiated over.
pub fn prepare_any(sparql: &str) -> Result<Prepared> {
    Prepared::compile(&parse_any(sparql)?)
}

impl Prepared {
    /// Compile an already-parsed query.
    pub(crate) fn compile(parsed: &ParsedQuery) -> Result<Prepared> {
        Ok(Prepared { plan: Arc::new(compile(parsed)?) })
    }

    /// Parameter slot names in binding order (`#<n>` entries are
    /// positional).
    pub fn params(&self) -> &[String] {
        &self.plan.params
    }

    pub(crate) fn form(&self) -> &Form {
        &self.plan.form
    }

    /// Bind `params` and run the query against the union of `graphs`.
    pub fn execute(
        &self,
        store: &TripleStore,
        graphs: &[&str],
        params: &SparqlParams,
        options: &EvalOptions,
    ) -> Result<Solutions> {
        let bound = self
            .plan
            .params
            .iter()
            .map(|slot| params.lookup(slot))
            .collect::<Result<Vec<_>>>()?;
        super::ops::execute(&self.plan, store, graphs, &bound, options)
    }

    /// Execute, returning a cursor over the solutions.
    pub fn cursor(
        &self,
        store: &TripleStore,
        graphs: &[&str],
        params: &SparqlParams,
        options: &EvalOptions,
    ) -> Result<SolutionCursor> {
        Ok(SolutionCursor::new(self.execute(store, graphs, params, options)?))
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

    fn run(p: &Prepared, s: &TripleStore, params: &SparqlParams) -> Result<Solutions> {
        p.execute(s, &["kb"], params, &EvalOptions::default())
    }

    #[test]
    fn named_parameter_round_trip() {
        let s = store();
        let p = prepare("SELECT ?o WHERE { $elem <dangerLevel> ?o }").unwrap();
        assert_eq!(p.params(), ["elem"]);
        let sols = run(&p, &s, &SparqlParams::new().set("elem", Term::iri("Hg"))).unwrap();
        assert_eq!(sols.len(), 1);
        assert_eq!(sols.rows[0][0], Some(Term::lit("5")));
        // Re-execute with a different binding: no re-parse, new result.
        let sols = run(&p, &s, &SparqlParams::new().set("elem", Term::iri("Pb"))).unwrap();
        assert_eq!(sols.rows[0][0], Some(Term::lit("4")));
    }

    #[test]
    fn positional_parameter_round_trip() {
        let s = store();
        let p = prepare("SELECT ?s WHERE { ?s ? ? }").unwrap();
        assert_eq!(p.params(), ["#0", "#1"]);
        let params = SparqlParams::new().push(Term::iri("dangerLevel")).push(Term::lit("5"));
        let sols = run(&p, &s, &params).unwrap();
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
        let params = SparqlParams::new()
            .push(Term::lit("5")) // #0: the filter comparand
            .push(Term::iri("dangerLevel")); // #1: the predicate
        let sols = run(&p, &s, &params).unwrap();
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
        let sols = run(&p, &s, &SparqlParams::new().set("min", Term::lit("4"))).unwrap();
        assert_eq!(sols.len(), 2);
    }

    #[test]
    fn missing_binding_errors() {
        let s = store();
        let p = prepare("SELECT ?o WHERE { $elem <dangerLevel> ?o }").unwrap();
        let err = run(&p, &s, &SparqlParams::new()).unwrap_err();
        assert!(err.to_string().contains("$elem"), "{err}");
    }

    #[test]
    fn evaluating_unbound_parameters_directly_errors() {
        // The text-in helper binds nothing, so a parameter fails at bind
        // time, before the store is read.
        let s = store();
        let err = super::super::eval::query(&s, &["kb"], "SELECT ?o WHERE { $elem <dangerLevel> ?o }")
            .unwrap_err();
        assert!(err.to_string().contains("missing binding for parameter `$elem`"), "{err}");
    }

    #[test]
    fn unknown_bound_term_short_circuits_to_empty() {
        let s = store();
        let p = prepare("SELECT ?o WHERE { $elem <dangerLevel> ?o }").unwrap();
        let sols = run(&p, &s, &SparqlParams::new().set("elem", Term::iri("Xx"))).unwrap();
        assert!(sols.is_empty());
    }

    #[test]
    fn held_handle_sees_a_parameter_term_inserted_later() {
        // Compiled once is not resolved once: the bound term is unknown to
        // the store at the first execution and known at the second.
        let s = store();
        let p = prepare("SELECT ?o WHERE { $elem <dangerLevel> ?o }").unwrap();
        let params = SparqlParams::new().set("elem", Term::iri("Zn"));
        assert!(run(&p, &s, &params).unwrap().is_empty());
        s.insert("kb", &Triple::new(Term::iri("Zn"), Term::iri("dangerLevel"), Term::lit("2")));
        let sols = run(&p, &s, &params).unwrap();
        assert_eq!(sols.rows, vec![vec![Some(Term::lit("2"))]]);
    }

    #[test]
    fn text_only_errors_surface_at_prepare() {
        for (src, needle) in [
            ("SELECT ?s WHERE { ?s <p> ?o } ORDER BY ?nope", "ORDER BY variable `?nope`"),
            ("SELECT ?s (COUNT(?o) AS ?n) WHERE { ?s <p> ?o }", "GROUP BY"),
            ("SELECT (COUNT(?o) AS ?n) WHERE { ?s <p> ?o } ORDER BY ?s", "not projected"),
            ("SELECT (COUNT(?x) AS ?n) WHERE { ?s <p> ?o }", "aggregate variable `?x`"),
            ("SELECT ?s (COUNT(?o) AS ?n) WHERE { ?s <p> ?o } GROUP BY ?s HAVING(?z > 1)", "`?z` in HAVING"),
        ] {
            let err = prepare(src).unwrap_err();
            assert!(err.to_string().contains(needle), "{src}: {err}");
        }
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
        let cur = p.cursor(&s, &["kb"], &SparqlParams::new(), &EvalOptions::default()).unwrap();
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
        let prepared = run(&p, &s, &SparqlParams::new().set("min", Term::lit("4"))).unwrap();
        let textual = super::super::eval::query(
            &s,
            &["kb"],
            "SELECT ?s WHERE { ?s <dangerLevel> ?d . FILTER(?d >= \"4\") }",
        )
        .unwrap();
        assert_eq!(prepared.rows, textual.rows);
    }
}
