//! SPARQL entry points over text, and the shapes results come back in.
//!
//! Every query runs the same way: [`prepare`] (or [`prepare_any`] for ASK
//! and CONSTRUCT) compiles the text once into a
//! [`Prepared`] operator tree, and [`Prepared::execute`] runs it
//! ([`Prepared::run`] shapes the result by the query's form). The helpers
//! here are that pair for callers holding nothing but text.

use std::collections::HashSet;

use crate::error::{Error, Result};
use crate::store::{Triple, TripleStore};
use crate::term::Term;

use super::ast::{PatternTerm, PatternTriple};
use super::compile::Form;
use super::prepared::{prepare, prepare_any, Prepared, SparqlParams};

/// A set of solutions: variable names plus one row of optional bindings per
/// solution.
#[derive(Debug, Clone, PartialEq)]
pub struct Solutions {
    pub variables: Vec<String>,
    pub rows: Vec<Vec<Option<Term>>>,
}

impl Solutions {
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Index of a variable.
    pub fn var_index(&self, name: &str) -> Option<usize> {
        self.variables.iter().position(|v| v == name)
    }

    /// All bound values of one variable (unbound entries skipped).
    pub fn column(&self, name: &str) -> Result<Vec<Term>> {
        let i = self
            .var_index(name)
            .ok_or_else(|| Error::eval(format!("no variable `?{name}` in solutions")))?;
        Ok(self.rows.iter().filter_map(|r| r[i].clone()).collect())
    }
}

/// Prepare and execute a parameter-free SELECT in one step.
pub fn query(store: &TripleStore, graphs: &[&str], sparql: &str) -> Result<Solutions> {
    prepare(sparql)?.execute(store, graphs, &SparqlParams::new())
}

/// Any query form's result: SELECT solutions, an ASK boolean or a
/// CONSTRUCT graph.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryOutcome {
    Solutions(Solutions),
    Boolean(bool),
    Graph(Vec<Triple>),
}

/// Prepare and execute a parameter-free query of any form.
pub fn query_any(store: &TripleStore, graphs: &[&str], sparql: &str) -> Result<QueryOutcome> {
    prepare_any(sparql)?.run(store, graphs, &SparqlParams::new())
}

impl Prepared {
    /// [`Prepared::execute`], with the solutions shaped by the query's
    /// form: SELECT solutions, the ASK boolean or the CONSTRUCT graph.
    pub fn run(
        &self,
        store: &TripleStore,
        graphs: &[&str],
        params: &SparqlParams,
    ) -> Result<QueryOutcome> {
        let sols = self.execute(store, graphs, params)?;
        Ok(match self.form() {
            Form::Select => QueryOutcome::Solutions(sols),
            // An ASK plan projects nothing and stops at the first solution.
            Form::Ask => QueryOutcome::Boolean(!sols.is_empty()),
            Form::Construct(template) => QueryOutcome::Graph(construct(template, &sols)),
        })
    }
}

/// Instantiate a CONSTRUCT template once per solution. Triples with unbound
/// variables or literal subjects/predicates are skipped; duplicates are
/// removed.
fn construct(template: &[PatternTriple], sols: &Solutions) -> Vec<Triple> {
    let mut out = Vec::new();
    let mut seen = HashSet::new();
    for row in &sols.rows {
        for t in template {
            let resolve = |part: &PatternTerm| match part {
                PatternTerm::Const(c) => Some(c.clone()),
                PatternTerm::Var(v) => sols.var_index(v).and_then(|i| row[i].clone()),
                // A parameter never instantiates a template triple.
                PatternTerm::Param(_) => None,
            };
            let (Some(s), Some(p), Some(o)) =
                (resolve(&t.subject), resolve(&t.predicate), resolve(&t.object))
            else {
                continue;
            };
            // RDF validity: literals cannot be subjects or predicates.
            if s.is_literal() || p.is_literal() {
                continue;
            }
            let triple = Triple::new(s, p, o);
            if seen.insert(triple.clone()) {
                out.push(triple);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparql::ops::simple_regex_match;

    fn t(s: &str, p: &str, o: Term) -> Triple {
        Triple::new(Term::iri(s), Term::iri(p), o)
    }

    fn store() -> TripleStore {
        let store = TripleStore::new();
        let g = "kb";
        store.insert(g, &t("Hg", "dangerLevel", Term::lit("5"))).unwrap();
        store.insert(g, &t("Pb", "dangerLevel", Term::lit("4"))).unwrap();
        store.insert(g, &t("As", "dangerLevel", Term::lit("5"))).unwrap();
        store.insert(g, &t("Cu", "dangerLevel", Term::lit("1"))).unwrap();
        store.insert(g, &t("Hg", "isA", Term::iri("HazardousWaste"))).unwrap();
        store.insert(g, &t("Pb", "isA", Term::iri("HazardousWaste"))).unwrap();
        store.insert(g, &t("Hg", "name", Term::lit("Mercury"))).unwrap();
        store.insert(g, &t("Pb", "name", Term::lit("Lead"))).unwrap();
        store.insert(g, &t("Hg", "occursWith", Term::iri("As"))).unwrap();
        store
    }

    fn run(sparql: &str) -> Solutions {
        query(&store(), &["kb"], sparql).unwrap()
    }

    #[test]
    fn single_pattern() {
        let s = run("SELECT ?s ?o WHERE { ?s <dangerLevel> ?o }");
        assert_eq!(s.len(), 4);
        assert_eq!(s.variables, vec!["s", "o"]);
    }

    #[test]
    fn join_two_patterns() {
        let s = run(
            "SELECT ?s ?n WHERE { ?s <isA> <HazardousWaste> . ?s <name> ?n } ORDER BY ?n",
        );
        assert_eq!(s.len(), 2);
        assert_eq!(s.rows[0][1], Some(Term::lit("Lead")));
        assert_eq!(s.rows[1][1], Some(Term::lit("Mercury")));
    }

    #[test]
    fn filter_numeric() {
        let s = run("SELECT ?s WHERE { ?s <dangerLevel> ?d . FILTER(?d >= 4) } ORDER BY ?s");
        assert_eq!(s.len(), 3);
        let names: Vec<String> = s
            .rows
            .iter()
            .map(|r| r[0].clone().unwrap().lexical_form().to_string())
            .collect();
        assert_eq!(names, vec!["As", "Hg", "Pb"]);
    }

    #[test]
    fn filter_inequality_on_iri() {
        let s = run("SELECT ?s WHERE { ?s <isA> <HazardousWaste> . FILTER(?s != <Hg>) }");
        assert_eq!(s.len(), 1);
        assert_eq!(s.rows[0][0], Some(Term::iri("Pb")));
    }

    #[test]
    fn optional_keeps_unmatched() {
        let s = run(
            "SELECT ?s ?w WHERE { ?s <isA> <HazardousWaste> . OPTIONAL { ?s <occursWith> ?w } } ORDER BY ?s",
        );
        assert_eq!(s.len(), 2);
        // Hg has occursWith, Pb does not.
        let hg = s.rows.iter().find(|r| r[0] == Some(Term::iri("Hg"))).unwrap();
        assert_eq!(hg[1], Some(Term::iri("As")));
        let pb = s.rows.iter().find(|r| r[0] == Some(Term::iri("Pb"))).unwrap();
        assert_eq!(pb[1], None);
    }

    #[test]
    fn union_concatenates() {
        let s = run(
            "SELECT ?x WHERE { { ?x <dangerLevel> \"5\" } UNION { ?x <name> \"Lead\" } }",
        );
        assert_eq!(s.len(), 3); // Hg, As (level 5) + Pb (name Lead)
    }

    #[test]
    fn distinct_and_limit() {
        let s = run("SELECT DISTINCT ?p WHERE { ?s ?p ?o }");
        assert_eq!(s.len(), 4); // dangerLevel, isA, name, occursWith
        let s = run("SELECT ?s WHERE { ?s ?p ?o } LIMIT 3");
        assert_eq!(s.len(), 3);
        let s = run("SELECT ?s WHERE { ?s <dangerLevel> ?d } ORDER BY ?s LIMIT 2 OFFSET 3");
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn select_star_exposes_all_vars() {
        let s = run("SELECT * WHERE { ?s <name> ?n }");
        assert_eq!(s.variables, vec!["s", "n"]);
    }

    #[test]
    fn same_variable_twice_in_pattern() {
        let store = store();
        store.insert("kb", &t("Se", "occursWith", Term::iri("Se"))).unwrap();
        let s = query(&store, &["kb"], "SELECT ?x WHERE { ?x <occursWith> ?x }").unwrap();
        assert_eq!(s.len(), 1);
        assert_eq!(s.rows[0][0], Some(Term::iri("Se")));
    }

    #[test]
    fn bound_filter_with_optional() {
        let s = run(
            "SELECT ?s WHERE { ?s <isA> <HazardousWaste> . \
             OPTIONAL { ?s <occursWith> ?w } FILTER(!BOUND(?w)) }",
        );
        assert_eq!(s.len(), 1);
        assert_eq!(s.rows[0][0], Some(Term::iri("Pb")));
    }

    #[test]
    fn regex_subset() {
        let s = run(
            "SELECT ?s WHERE { ?s <name> ?n . FILTER(REGEX(?n, \"^Merc\")) }",
        );
        assert_eq!(s.len(), 1);
        assert!(simple_regex_match("mercury", "cur"));
        assert!(simple_regex_match("mercury", "^merc"));
        assert!(simple_regex_match("mercury", "ury$"));
        assert!(simple_regex_match("mercury", "^mercury$"));
        assert!(!simple_regex_match("mercury", "^urc"));
    }

    #[test]
    fn empty_graph_yields_no_solutions() {
        let s = query(&store(), &["empty"], "SELECT ?s WHERE { ?s ?p ?o }").unwrap();
        assert!(s.is_empty());
    }

    #[test]
    fn order_by_numeric_desc() {
        let s = run("SELECT ?s ?d WHERE { ?s <dangerLevel> ?d } ORDER BY DESC(?d) ?s");
        assert_eq!(s.rows[0][1], Some(Term::lit("5")));
        assert_eq!(s.rows[3][1], Some(Term::lit("1")));
    }

    #[test]
    fn column_helper() {
        let s = run("SELECT ?s WHERE { ?s <isA> <HazardousWaste> }");
        let c = s.column("s").unwrap();
        assert_eq!(c.len(), 2);
        assert!(s.column("nope").is_err());
    }

    fn hierarchy_store() -> TripleStore {
        let store = TripleStore::new();
        for (a, b) in [("HgS", "HeavyMetalOre"), ("HeavyMetalOre", "MetalOre"), ("MetalOre", "Ore")] {
            store.insert("kb", &t(a, "subClassOf", Term::iri(b))).unwrap();
        }
        store.insert("kb", &t("PbS", "subClassOf", Term::iri("HeavyMetalOre"))).unwrap();
        store
    }

    #[test]
    fn transitive_path_forward() {
        let s = query(
            &hierarchy_store(),
            &["kb"],
            "SELECT ?c WHERE { <HgS> <subClassOf>+ ?c } ORDER BY ?c",
        )
        .unwrap();
        let names: Vec<String> = s
            .rows
            .iter()
            .map(|r| r[0].clone().unwrap().lexical_form().to_string())
            .collect();
        assert_eq!(names, vec!["HeavyMetalOre", "MetalOre", "Ore"]);
    }

    #[test]
    fn transitive_path_backward() {
        let s = query(
            &hierarchy_store(),
            &["kb"],
            "SELECT ?c WHERE { ?c <subClassOf>+ <MetalOre> } ORDER BY ?c",
        )
        .unwrap();
        assert_eq!(s.len(), 3); // HgS, PbS, HeavyMetalOre
    }

    #[test]
    fn zero_or_more_includes_self() {
        let s = query(
            &hierarchy_store(),
            &["kb"],
            "SELECT ?c WHERE { <HgS> <subClassOf>* ?c }",
        )
        .unwrap();
        assert_eq!(s.len(), 4, "self + three ancestors");
    }

    #[test]
    fn path_both_endpoints_bound() {
        let s = query(
            &hierarchy_store(),
            &["kb"],
            "SELECT * WHERE { <HgS> <subClassOf>+ <Ore> }",
        )
        .unwrap();
        assert_eq!(s.len(), 1, "reachability check succeeds");
        let s = query(
            &hierarchy_store(),
            &["kb"],
            "SELECT * WHERE { <Ore> <subClassOf>+ <HgS> }",
        )
        .unwrap();
        assert!(s.is_empty(), "no backward edge");
    }

    #[test]
    fn path_with_cycle_terminates() {
        let store = TripleStore::new();
        store.insert("kb", &t("A", "next", Term::iri("B"))).unwrap();
        store.insert("kb", &t("B", "next", Term::iri("A"))).unwrap();
        let s = query(&store, &["kb"], "SELECT ?x WHERE { <A> <next>+ ?x }").unwrap();
        assert_eq!(s.len(), 2); // B and A (via the cycle)
    }

    #[test]
    fn path_joins_with_other_patterns() {
        let store = hierarchy_store();
        store.insert("kb", &t("HgS", "foundIn", Term::lit("LF1"))).unwrap();
        let s = query(
            &store,
            &["kb"],
            "SELECT ?o WHERE { ?o <subClassOf>+ <Ore> . ?o <foundIn> ?l }",
        )
        .unwrap();
        assert_eq!(s.len(), 1);
        assert_eq!(s.rows[0][0], Some(Term::iri("HgS")));
    }

    #[test]
    fn path_on_variable_predicate_rejected() {
        assert!(crate::sparql::parser::parse_query(
            "SELECT ?x WHERE { <A> ?p+ ?x }"
        )
        .is_err());
    }

    #[test]
    fn ask_form() {
        let store = store();
        match query_any(&store, &["kb"], "ASK { <Hg> <isA> <HazardousWaste> }").unwrap() {
            QueryOutcome::Boolean(b) => assert!(b),
            other => panic!("unexpected {other:?}"),
        }
        match query_any(&store, &["kb"], "ASK WHERE { <Cu> <isA> <HazardousWaste> }").unwrap()
        {
            QueryOutcome::Boolean(b) => assert!(!b),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn ask_with_filter() {
        let store = store();
        match query_any(
            &store,
            &["kb"],
            "ASK { ?s <dangerLevel> ?d . FILTER(?d > 4) }",
        )
        .unwrap()
        {
            QueryOutcome::Boolean(b) => assert!(b),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn construct_instantiates_template() {
        let store = store();
        let out = query_any(
            &store,
            &["kb"],
            "CONSTRUCT { ?s <classifiedAs> <Dangerous> } \
             WHERE { ?s <dangerLevel> ?d . FILTER(?d >= 4) }",
        )
        .unwrap();
        match out {
            QueryOutcome::Graph(ts) => {
                assert_eq!(ts.len(), 3); // Hg, Pb, As
                assert!(ts
                    .iter()
                    .all(|t| t.predicate == Term::iri("classifiedAs")));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn construct_skips_invalid_and_dedupes() {
        let store = store();
        // Literal subject (?n is a literal) → skipped entirely; constant
        // template emitted once per solution but deduplicated to one.
        let out = query_any(
            &store,
            &["kb"],
            "CONSTRUCT { ?n <x> <y> . <a> <b> <c> } WHERE { ?s <name> ?n }",
        )
        .unwrap();
        match out {
            QueryOutcome::Graph(ts) => {
                assert_eq!(ts, vec![t("a", "b", Term::iri("c"))]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn construct_feeds_back_into_store() {
        // CONSTRUCT output loads into a graph — the "context-aware
        // knowledge extension" loop of Sec. I-B(c).
        let store = store();
        let QueryOutcome::Graph(ts) = query_any(
            &store,
            &["kb"],
            "CONSTRUCT { ?s <suspect> \"true\" } WHERE { ?s <dangerLevel> \"5\" }",
        )
        .unwrap() else {
            panic!()
        };
        store.insert_all("derived", ts.iter()).unwrap();
        let s = query(&store, &["derived"], "SELECT ?s WHERE { ?s <suspect> ?v }").unwrap();
        assert_eq!(s.len(), 2); // Hg, As
    }

    #[test]
    fn parse_query_rejects_non_select() {
        assert!(crate::sparql::parser::parse_query("ASK { ?s ?p ?o }").is_err());
    }

    #[test]
    fn cross_graph_union_evaluation() {
        let store = store();
        store.insert("kb2", &t("Zn", "dangerLevel", Term::lit("2"))).unwrap();
        let s = query(&store, &["kb", "kb2"], "SELECT ?s WHERE { ?s <dangerLevel> ?d }")
            .unwrap();
        assert_eq!(s.len(), 5);
    }

    // ---- aggregates ---------------------------------------------------------

    #[test]
    fn count_star_global() {
        let s = run("SELECT (COUNT(*) AS ?n) WHERE { ?s <dangerLevel> ?d }");
        assert_eq!(s.variables, vec!["n"]);
        assert_eq!(s.rows[0][0], Some(Term::lit("4")));
    }

    #[test]
    fn count_star_on_empty_pattern_is_zero() {
        let s = run("SELECT (COUNT(*) AS ?n) WHERE { ?s <nope> ?d }");
        assert_eq!(s.rows[0][0], Some(Term::lit("0")));
    }

    #[test]
    fn group_by_with_count() {
        let s = run(
            "SELECT ?d (COUNT(?s) AS ?n) WHERE { ?s <dangerLevel> ?d } \
             GROUP BY ?d ORDER BY DESC(?n) ?d",
        );
        assert_eq!(s.variables, vec!["d", "n"]);
        // level 5 → 2 subjects; levels 4 and 1 → 1 each.
        assert_eq!(s.rows[0][0], Some(Term::lit("5")));
        assert_eq!(s.rows[0][1], Some(Term::lit("2")));
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn sum_avg_min_max_sample() {
        let s = run(
            "SELECT (SUM(?d) AS ?sum) (AVG(?d) AS ?avg) (MIN(?d) AS ?lo) \
             (MAX(?d) AS ?hi) (SAMPLE(?d) AS ?any) \
             WHERE { ?s <dangerLevel> ?d }",
        );
        assert_eq!(s.rows[0][0], Some(Term::lit("15"))); // 5+4+5+1
        assert_eq!(s.rows[0][1], Some(Term::lit("3.75")));
        assert_eq!(s.rows[0][2], Some(Term::lit("1")));
        assert_eq!(s.rows[0][3], Some(Term::lit("5")));
        assert!(s.rows[0][4].is_some());
    }

    #[test]
    fn count_distinct() {
        let s = run("SELECT (COUNT(DISTINCT ?d) AS ?n) WHERE { ?s <dangerLevel> ?d }");
        assert_eq!(s.rows[0][0], Some(Term::lit("3"))); // 5, 4, 1
    }

    #[test]
    fn having_filters_groups() {
        let s = run(
            "SELECT ?d (COUNT(?s) AS ?n) WHERE { ?s <dangerLevel> ?d } \
             GROUP BY ?d HAVING(?n > 1)",
        );
        assert_eq!(s.len(), 1);
        assert_eq!(s.rows[0][0], Some(Term::lit("5")));
    }

    #[test]
    fn ungrouped_projection_rejected() {
        let store = store();
        let err = query(
            &store,
            &["kb"],
            "SELECT ?s (COUNT(?d) AS ?n) WHERE { ?s <dangerLevel> ?d }",
        )
        .unwrap_err();
        assert!(err.to_string().contains("GROUP BY"), "{err}");
    }

    #[test]
    fn sum_of_non_numeric_errors() {
        let err = query(
            &store(),
            &["kb"],
            "SELECT (SUM(?n) AS ?x) WHERE { ?s <name> ?n }",
        )
        .unwrap_err();
        assert!(err.to_string().contains("non-numeric"), "{err}");
    }

    #[test]
    fn min_max_lexical_for_strings() {
        let s = run(
            "SELECT (MIN(?n) AS ?lo) (MAX(?n) AS ?hi) WHERE { ?s <name> ?n }",
        );
        assert_eq!(s.rows[0][0], Some(Term::lit("Lead")));
        assert_eq!(s.rows[0][1], Some(Term::lit("Mercury")));
    }

    // ---- MINUS / VALUES -----------------------------------------------------

    #[test]
    fn minus_removes_compatible_solutions() {
        let s = run(
            "SELECT ?s WHERE { ?s <dangerLevel> ?d . \
             MINUS { ?s <isA> <HazardousWaste> } } ORDER BY ?s",
        );
        // Hg and Pb are hazardous → removed; As and Cu remain.
        let names: Vec<String> = s
            .rows
            .iter()
            .map(|r| r[0].clone().unwrap().lexical_form().to_string())
            .collect();
        assert_eq!(names, vec!["As", "Cu"]);
    }

    #[test]
    fn minus_with_disjoint_domain_keeps_everything() {
        // The right side binds only ?x, sharing no variable with the left:
        // nothing is removed (SPARQL 1.1 semantics).
        let s = run(
            "SELECT ?s WHERE { ?s <dangerLevel> ?d . MINUS { ?x <isA> <HazardousWaste> } }",
        );
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn values_single_var_restricts() {
        let s = run(
            "SELECT ?s ?d WHERE { VALUES ?s { <Hg> <Cu> } ?s <dangerLevel> ?d } ORDER BY ?s",
        );
        assert_eq!(s.len(), 2);
        assert_eq!(s.rows[0][0], Some(Term::iri("Cu")));
    }

    #[test]
    fn values_multi_var_with_undef() {
        let s = run(
            "SELECT ?s ?d WHERE { ?s <dangerLevel> ?d . \
             VALUES (?s ?d) { (<Hg> \"5\") (<Pb> UNDEF) } } ORDER BY ?s",
        );
        // (Hg, 5) matches exactly; (Pb, UNDEF) leaves ?d free → Pb/4.
        assert_eq!(s.len(), 2);
        assert_eq!(s.rows[1][0], Some(Term::iri("Pb")));
        assert_eq!(s.rows[1][1], Some(Term::lit("4")));
    }

    #[test]
    fn values_with_unseen_term_matches_nothing_downstream() {
        let s = run(
            "SELECT ?s ?d WHERE { VALUES ?s { <Unobtainium> } ?s <dangerLevel> ?d }",
        );
        assert!(s.is_empty());
    }

    #[test]
    fn values_with_unseen_terms_leaves_the_dictionary_alone() {
        // A read-only query must not grow the dictionary (every snapshot
        // persists all of it): unseen VALUES terms get query-local ids.
        let store = store();
        let before = store.dictionary().len();
        for i in 0..100 {
            let s = query(&store, &["kb"], &format!("SELECT ?x WHERE {{ VALUES ?x {{ <fresh{i}> }} }}"))
                .unwrap();
            assert_eq!(s.rows, vec![vec![Some(Term::iri(format!("fresh{i}")))]]);
        }
        assert_eq!(store.dictionary().len(), before);
        // Two VALUES blocks naming the same unseen term still join, and a
        // FILTER compares it as a term.
        let s = query(
            &store,
            &["kb"],
            "SELECT ?x WHERE { VALUES ?x { <fresh> <Hg> } VALUES ?x { <fresh> } \
             FILTER(?x = <fresh>) }",
        )
        .unwrap();
        assert_eq!(s.rows, vec![vec![Some(Term::iri("fresh"))]]);
        assert_eq!(store.dictionary().len(), before);
    }

    // ---- structured property paths -------------------------------------------

    #[test]
    fn sequence_path_composes_edges() {
        let store = store();
        // Hg occursWith As; As dangerLevel 5 → Hg (occursWith/dangerLevel) 5.
        let s = query(
            &store,
            &["kb"],
            "SELECT ?x ?d WHERE { ?x <occursWith>/<dangerLevel> ?d }",
        )
        .unwrap();
        assert_eq!(s.len(), 1);
        assert_eq!(s.rows[0][0], Some(Term::iri("Hg")));
        assert_eq!(s.rows[0][1], Some(Term::lit("5")));
    }

    #[test]
    fn alternative_path_unions_edges() {
        let s = run("SELECT ?x ?v WHERE { ?x <name>|<dangerLevel> ?v }");
        assert_eq!(s.len(), 6); // 2 names + 4 danger levels
    }

    #[test]
    fn inverse_path_flips_direction() {
        let s = run("SELECT ?x WHERE { <As> ^<occursWith> ?x }");
        assert_eq!(s.len(), 1);
        assert_eq!(s.rows[0][0], Some(Term::iri("Hg")));
    }

    #[test]
    fn nested_path_closure_over_alternative() {
        let store = TripleStore::new();
        store.insert("kb", &t("A", "p", Term::iri("B"))).unwrap();
        store.insert("kb", &t("B", "q", Term::iri("C"))).unwrap();
        store.insert("kb", &t("C", "p", Term::iri("D"))).unwrap();
        let s = query(
            &store,
            &["kb"],
            "SELECT ?x WHERE { <A> (<p>|<q>)+ ?x } ORDER BY ?x",
        )
        .unwrap();
        let names: Vec<String> = s
            .rows
            .iter()
            .map(|r| r[0].clone().unwrap().lexical_form().to_string())
            .collect();
        assert_eq!(names, vec!["B", "C", "D"]);
    }

    #[test]
    fn inverse_sequence_roundtrip() {
        let store = hierarchy_store();
        // subClassOf followed by its inverse returns to (any sibling of) the
        // start — HgS and PbS both sit under HeavyMetalOre.
        let s = query(
            &store,
            &["kb"],
            "SELECT ?x WHERE { <HgS> <subClassOf>/^<subClassOf> ?x } ORDER BY ?x",
        )
        .unwrap();
        let names: Vec<String> = s
            .rows
            .iter()
            .map(|r| r[0].clone().unwrap().lexical_form().to_string())
            .collect();
        assert_eq!(names, vec!["HgS", "PbS"]);
    }

    #[test]
    fn path_in_construct_pattern() {
        let store = hierarchy_store();
        let QueryOutcome::Graph(ts) = query_any(
            &store,
            &["kb"],
            "CONSTRUCT { ?x <ancestor> ?y } WHERE { ?x <subClassOf>+ ?y }",
        )
        .unwrap() else {
            panic!()
        };
        assert_eq!(ts.len(), 3 + 2 + 1 + 3); // HgS→3, HeavyMetalOre→2, MetalOre→1, PbS→3
    }
}
