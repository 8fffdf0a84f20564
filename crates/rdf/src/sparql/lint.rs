//! Semantic lint rules for the SPARQL subset.
//!
//! Mirrors the relational linter's contract: rules are *conservative* —
//! they only fire when the defect is certain from the AST alone, never on
//! "maybe" cases — and they never panic on any parseable query. Codes:
//!
//! * `S001` (warning): a variable is bound in the graph pattern but used
//!   nowhere else — not projected, not filtered, not ordered or grouped
//!   on, and appearing only once in the pattern (so it does not even act
//!   as a join constraint). The binding is dead weight.
//! * `S002` (warning): a projected variable is never bound by the graph
//!   pattern; the output column is unbound in every solution.
//! * `S003` (error): a `FILTER` expression is a constant that evaluates
//!   to false, so the enclosing pattern can never produce solutions.

use std::collections::HashMap;

use crosse_lint::Diagnostic;

use super::ast::{
    AggFunc, GraphPattern, ParsedQuery, PatternTerm, Projection, Query, SparqlExpr,
};
use super::ops::compare_terms;

/// Lint any parsed query form. ASK and CONSTRUCT queries only get the
/// filter checks (`S003`) plus, for CONSTRUCT, template variables that the
/// WHERE pattern never binds (`S002`).
pub fn lint_parsed(query: &ParsedQuery, source: &str) -> Vec<Diagnostic> {
    match query {
        ParsedQuery::Select(q) => lint_query(q, source),
        ParsedQuery::Ask(pattern) => lint_filters(pattern, source),
        ParsedQuery::Construct { template, pattern } => {
            let mut out = lint_filters(pattern, source);
            let bound = pattern.variables();
            let mut seen: Vec<&str> = Vec::new();
            for t in template {
                for part in [&t.subject, &t.predicate, &t.object] {
                    if let PatternTerm::Var(v) = part {
                        if !bound.iter().any(|b| b == v) && !seen.contains(&v.as_str()) {
                            seen.push(v);
                            out.push(never_bound(v, source));
                        }
                    }
                }
            }
            out
        }
    }
}

/// Lint a SELECT query.
pub fn lint_query(query: &Query, source: &str) -> Vec<Diagnostic> {
    let mut out = lint_filters(&query.pattern, source);
    let bound = query.pattern.variables();

    // S002: projected (or aggregated) variables the pattern never binds.
    // Aggregate aliases are outputs, not pattern variables, so only the
    // aggregate *input* is checked.
    let mut candidates: Vec<&str> = query.variables.iter().map(String::as_str).collect();
    for p in &query.projections {
        match p {
            Projection::Var(v) => candidates.push(v),
            Projection::Agg(a) => {
                if let Some(v) = &a.var {
                    candidates.push(v);
                }
            }
        }
    }
    let mut reported: Vec<&str> = Vec::new();
    for v in candidates {
        if !bound.iter().any(|b| b == v) && !reported.contains(&v) {
            reported.push(v);
            out.push(never_bound(v, source));
        }
    }

    // S001: pattern-bound variables used nowhere. SELECT * projects every
    // variable, and COUNT(*) counts whole solutions, so both disable the
    // rule — every binding is observable in the output.
    let select_star = query.variables.is_empty()
        && !query.projections.iter().any(|p| matches!(p, Projection::Var(_)));
    let count_star = query
        .projections
        .iter()
        .any(|p| matches!(p, Projection::Agg(a) if a.var.is_none() && a.func == AggFunc::Count));
    if !select_star && !count_star {
        let counts = occurrence_counts(&query.pattern);
        let used = used_variables(query);
        for v in &bound {
            if counts.get(v.as_str()).copied().unwrap_or(0) <= 1
                && !used.iter().any(|u| u == v)
            {
                out.push(
                    Diagnostic::warning(
                        "S001",
                        format!("variable ?{v} is bound in the pattern but never used"),
                    )
                    .try_span_of(source, &format!("?{v}")),
                );
            }
        }
    }

    out
}

fn never_bound(v: &str, source: &str) -> Diagnostic {
    Diagnostic::warning(
        "S002",
        format!("variable ?{v} is projected but never bound by the pattern"),
    )
    .try_span_of(source, &format!("?{v}"))
}

/// Every variable "used" outside its binding site: projections, aggregate
/// inputs, GROUP BY, HAVING, ORDER BY, and all FILTER expressions.
fn used_variables(query: &Query) -> Vec<String> {
    let mut used: Vec<String> = Vec::new();
    let mut push = |v: &str| {
        if !used.iter().any(|x| x == v) {
            used.push(v.to_string());
        }
    };
    for v in &query.variables {
        push(v);
    }
    for p in &query.projections {
        match p {
            Projection::Var(v) => push(v),
            Projection::Agg(a) => {
                if let Some(v) = &a.var {
                    push(v);
                }
            }
        }
    }
    for v in &query.group_by {
        push(v);
    }
    for o in &query.order_by {
        push(&o.variable);
    }
    let mut filter_vars = Vec::new();
    if let Some(h) = &query.having {
        h.collect_vars(&mut filter_vars);
    }
    for f in collect_filters(&query.pattern) {
        f.collect_vars(&mut filter_vars);
    }
    for v in &filter_vars {
        push(v);
    }
    used
}

/// Count how many times each variable appears in binding position across
/// the whole pattern (unlike `variables()`, duplicates count — a variable
/// appearing twice joins two triples and is therefore "used").
fn occurrence_counts(pattern: &GraphPattern) -> HashMap<&str, usize> {
    let mut counts = HashMap::new();
    fn walk<'a>(p: &'a GraphPattern, counts: &mut HashMap<&'a str, usize>) {
        match p {
            GraphPattern::Bgp(triples) => {
                for t in triples {
                    for part in [&t.subject, &t.predicate, &t.object] {
                        if let PatternTerm::Var(v) = part {
                            *counts.entry(v.as_str()).or_insert(0) += 1;
                        }
                    }
                }
            }
            GraphPattern::Join(a, b)
            | GraphPattern::Optional(a, b)
            | GraphPattern::Union(a, b)
            | GraphPattern::Minus(a, b) => {
                walk(a, counts);
                walk(b, counts);
            }
            GraphPattern::Filter(inner, _) => walk(inner, counts),
            GraphPattern::Values { vars, .. } => {
                for v in vars {
                    *counts.entry(v.as_str()).or_insert(0) += 1;
                }
            }
        }
    }
    walk(pattern, &mut counts);
    counts
}

/// All FILTER expressions anywhere in the pattern.
fn collect_filters(pattern: &GraphPattern) -> Vec<&SparqlExpr> {
    let mut out = Vec::new();
    fn walk<'a>(p: &'a GraphPattern, out: &mut Vec<&'a SparqlExpr>) {
        match p {
            GraphPattern::Bgp(_) | GraphPattern::Values { .. } => {}
            GraphPattern::Join(a, b)
            | GraphPattern::Optional(a, b)
            | GraphPattern::Union(a, b)
            | GraphPattern::Minus(a, b) => {
                walk(a, out);
                walk(b, out);
            }
            GraphPattern::Filter(inner, e) => {
                walk(inner, out);
                out.push(e);
            }
        }
    }
    walk(pattern, &mut out);
    out
}

/// S003 over every FILTER in the pattern.
fn lint_filters(pattern: &GraphPattern, source: &str) -> Vec<Diagnostic> {
    collect_filters(pattern)
        .into_iter()
        .filter(|e| const_truth(e) == Some(false))
        .map(|_| {
            Diagnostic::error(
                "S003",
                "FILTER expression is always false; the pattern can never match",
            )
            .try_span_of(source, "FILTER")
        })
        .collect()
}

/// Fold an expression to a constant truth value where possible. Uses the
/// evaluator's own `compare_terms` so the verdict matches runtime
/// semantics exactly. Anything touching a variable or parameter is
/// `None` (unknown).
fn const_truth(e: &SparqlExpr) -> Option<bool> {
    match e {
        SparqlExpr::Cmp(a, op, b) => match (&**a, &**b) {
            (SparqlExpr::Const(ta), SparqlExpr::Const(tb)) => Some(compare_terms(ta, *op, tb)),
            _ => None,
        },
        SparqlExpr::And(a, b) => match (const_truth(a), const_truth(b)) {
            (Some(false), _) | (_, Some(false)) => Some(false),
            (Some(true), Some(true)) => Some(true),
            _ => None,
        },
        SparqlExpr::Or(a, b) => match (const_truth(a), const_truth(b)) {
            (Some(true), _) | (_, Some(true)) => Some(true),
            (Some(false), Some(false)) => Some(false),
            _ => None,
        },
        SparqlExpr::Not(inner) => const_truth(inner).map(|t| !t),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::super::parser::{parse_any, parse_query};
    use super::*;

    fn codes(diags: &[Diagnostic]) -> Vec<&str> {
        diags.iter().map(|d| d.code).collect()
    }

    #[test]
    fn unused_variable_fires_and_select_star_suppresses() {
        let src = "SELECT ?s WHERE { ?s <urn:p> ?dead }";
        let q = parse_query(src).unwrap();
        let diags = lint_query(&q, src);
        assert_eq!(codes(&diags), vec!["S001"]);
        assert!(diags[0].message.contains("?dead"));
        assert!(diags[0].span.is_some());

        let star = "SELECT * WHERE { ?s <urn:p> ?o }";
        let q = parse_query(star).unwrap();
        assert!(lint_query(&q, star).is_empty());
    }

    #[test]
    fn join_filter_order_and_count_star_count_as_uses() {
        for src in [
            // ?o joins two triples.
            "SELECT ?s WHERE { ?s <urn:p> ?o . ?o <urn:q> <urn:x> }",
            // ?o used in a FILTER.
            "SELECT ?s WHERE { ?s <urn:p> ?o FILTER(?o > 3) }",
            // ?o used in ORDER BY.
            "SELECT ?s WHERE { ?s <urn:p> ?o } ORDER BY ?o",
            // COUNT(*) observes every binding.
            "SELECT (COUNT(*) AS ?n) WHERE { ?s <urn:p> ?o }",
        ] {
            let q = parse_query(src).unwrap();
            assert!(lint_query(&q, src).is_empty(), "false positive on {src}");
        }
    }

    #[test]
    fn projected_never_bound_fires() {
        let src = "SELECT ?s ?ghost WHERE { ?s <urn:p> ?o . ?o <urn:q> <urn:x> }";
        let q = parse_query(src).unwrap();
        let diags = lint_query(&q, src);
        assert!(codes(&diags).contains(&"S002"), "got {diags:?}");
        assert!(diags.iter().any(|d| d.message.contains("?ghost")));
    }

    #[test]
    fn aggregate_input_checked_for_binding() {
        let src = "SELECT (SUM(?missing) AS ?total) WHERE { ?s <urn:p> ?o . ?o <urn:q> <urn:x> }";
        let q = parse_query(src).unwrap();
        let diags = lint_query(&q, src);
        assert!(codes(&diags).contains(&"S002"), "got {diags:?}");
    }

    #[test]
    fn always_false_filter_fires() {
        let src = "SELECT * WHERE { ?s <urn:p> ?o FILTER(1 > 2) }";
        let q = parse_query(src).unwrap();
        let diags = lint_query(&q, src);
        assert_eq!(codes(&diags), vec!["S003"]);
        assert_eq!(diags[0].severity, crosse_lint::Severity::Error);

        // Satisfiable and variable-dependent filters stay silent.
        for src in [
            "SELECT * WHERE { ?s <urn:p> ?o FILTER(2 > 1) }",
            "SELECT * WHERE { ?s <urn:p> ?o FILTER(?o > 2) }",
        ] {
            let q = parse_query(src).unwrap();
            assert!(lint_query(&q, src).is_empty(), "false positive on {src}");
        }
    }

    #[test]
    fn composite_constant_filters_fold() {
        let src = "SELECT * WHERE { ?s <urn:p> ?o FILTER(1 = 1 && 3 < 2) }";
        let q = parse_query(src).unwrap();
        assert_eq!(codes(&lint_query(&q, src)), vec!["S003"]);

        // OR with one satisfiable arm is fine.
        let src = "SELECT * WHERE { ?s <urn:p> ?o FILTER(1 = 2 || 2 = 2) }";
        let q = parse_query(src).unwrap();
        assert!(lint_query(&q, src).is_empty());
    }

    #[test]
    fn ask_and_construct_forms() {
        let src = "ASK WHERE { ?s <urn:p> ?o FILTER(1 > 2) }";
        let pq = parse_any(src).unwrap();
        assert_eq!(codes(&lint_parsed(&pq, src)), vec!["S003"]);

        let src = "CONSTRUCT { ?s <urn:made> ?ghost } WHERE { ?s <urn:p> ?o . ?o <urn:q> <urn:x> }";
        let pq = parse_any(src).unwrap();
        let diags = lint_parsed(&pq, src);
        assert_eq!(codes(&diags), vec!["S002"]);
    }
}
