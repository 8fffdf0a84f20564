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
use super::eval::Solutions;
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

    /// Bind `params` and run the query against the union of `graphs`, on
    /// the caller's thread. Evaluation polls that thread's ambient
    /// [`CancelToken`](crosse_exec::CancelToken) between BGP probe batches
    /// and inside long probe loops, so a serving layer's deadline reaches
    /// SPARQL legs without explicit plumbing.
    pub fn execute(
        &self,
        store: &TripleStore,
        graphs: &[&str],
        params: &SparqlParams,
    ) -> Result<Solutions> {
        let bound = self
            .plan
            .params
            .iter()
            .map(|slot| params.lookup(slot))
            .collect::<Result<Vec<_>>>()?;
        super::ops::execute(&self.plan, store, graphs, &bound)
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
            s.insert("kb", &Triple::new(Term::iri(sub), Term::iri(p), Term::lit(o))).unwrap();
        }
        s
    }

    fn run(p: &Prepared, s: &TripleStore, params: &SparqlParams) -> Result<Solutions> {
        p.execute(s, &["kb"], params)
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
        s.insert("kb", &Triple::new(Term::iri("Zn"), Term::iri("dangerLevel"), Term::lit("2"))).unwrap();
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
    fn execute_keeps_projection_order_and_row_count() {
        let s = store();
        let p = prepare("SELECT ?o ?s WHERE { ?s <dangerLevel> ?o }").unwrap();
        let sols = run(&p, &s, &SparqlParams::new()).unwrap();
        assert_eq!(sols.variables, vec!["o", "s"]);
        assert_eq!(sols.len(), 3);
        assert!(sols.rows.iter().all(|row| row.len() == 2));
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
