//! `EXPLAIN` and lint for SESQL: what the SQM would run, without running
//! the enrichment.

use super::legs::{pairs_table_schema, sparql_objects_query, sparql_pairs_query};
use super::prepared::lint_sesql_static;
use super::rewrite::variable_expansion_select;
use super::*;

impl SesqlEngine {
    /// Explain a SESQL query without executing the enrichment: the
    /// scanner's cleaned SQL, the bound relational plan, the tagged
    /// conditions, and — per enrichment — the SPARQL text the SQM would
    /// issue in `user`'s context. SESQL's counterpart to `EXPLAIN SELECT`.
    pub fn explain(&self, user: &str, sesql: &str) -> Result<String> {
        use std::fmt::Write;
        if !self.kb.is_registered(user) {
            return Err(Error::platform(format!("user `{user}` is not registered")));
        }
        let query = parse_sesql(sesql)?;
        let mut out = String::new();
        let _ = writeln!(out, "SESQL plan (user `{user}`)");
        let _ = writeln!(out, "clean SQL: {}", query.clean_sql.trim());
        for (id, cond) in &query.conditions {
            let _ = writeln!(out, "tagged condition {id}: {cond}");
        }
        // The cleaned SQL may reference ontology constants that only become
        // valid after the WHERE-clause enrichments rewrite them (e.g.
        // Example 4.5's `elem_name = HazardousWaste`); planning is
        // best-effort here. The plan shown is the *optimized* one — the
        // tree the executor actually runs, annotated with the rewrite
        // passes that fired.
        match self.db.plan_optimized(&query.select) {
            Ok(optimized) => {
                let _ = writeln!(out, "relational plan:");
                for line in optimized.render().lines() {
                    let _ = writeln!(out, "  {line}");
                }
            }
            Err(e) => {
                let _ = writeln!(
                    out,
                    "relational plan: deferred until WHERE enrichment ({e})"
                );
            }
        }
        let graphs = self.kb.context_graphs(user);
        let refs: Vec<&str> = graphs.iter().map(String::as_str).collect();
        let _ = writeln!(out, "context graphs: {}", graphs.join(", "));
        for e in &query.enrichments {
            let _ = writeln!(out, "enrichment: {e}");
            let property = e.property();
            if let Some(stored) = self.stored.get(property) {
                let _ = writeln!(
                    out,
                    "  SPARQL leg (stored query `{}`): {}",
                    stored.name,
                    stored.sparql.replace('\n', " ")
                );
            } else {
                let predicates = self.resolve_predicates(&refs, property);
                // REPLACECONSTANT pushes its constant into the pattern as
                // resolved subject IRIs; every other enrichment fetches
                // the property's (s, o) pairs.
                let sparql = match e {
                    Enrichment::ReplaceConstant { constant, .. } => {
                        let subjects = self.resolve_constant_subjects(constant);
                        sparql_objects_query(&subjects, &predicates)
                    }
                    _ => sparql_pairs_query(&predicates, property),
                };
                let _ = writeln!(out, "  SPARQL leg: {}", sparql.replace('\n', " "));
            }
        }
        // REPLACEVARIABLE rewrites the relational side into a compound
        // (`Q1 UNION Q2` with include_self) over a materialised pairs
        // table. Show the optimized compound the engine will actually run
        // — its `Shared spool` nodes are how the optimizer de-duplicates
        // the base-table work both members read. The real pairs table
        // only exists during execution; plan against an empty stand-in.
        for e in &query.enrichments {
            let Enrichment::ReplaceVariable { cond, attr, property } = e else {
                continue;
            };
            let cond_expr = &query.conditions[cond.as_str()];
            // Prefer the live cached pairs table (a warm engine plans
            // with zero DDL — no catalog-version churn, no cache-stat
            // perturbation: `peek` bypasses recency and counters); cold
            // engines plan against an ephemeral empty stand-in.
            let prop_key = format!("{property}\u{1f}{:?}", self.options.expand);
            let live_table = self
                .cache
                .peek_pairs(&refs, &prop_key, self.kb.store().version())
                .map(|c| c.table)
                .filter(|t| self.db.catalog().has_table(&t.name));
            let (tmp_name, ephemeral) = match &live_table {
                Some(t) => (t.name.as_str(), false),
                None => ("__kb_pairs_explain", true),
            };
            let planned = if ephemeral {
                self.db
                    .materialise_owned(tmp_name, &pairs_table_schema(), Vec::new())
                    .map_err(crate::error::Error::from)
            } else {
                Ok(())
            }
            .and_then(|()| {
                let q = variable_expansion_select(
                    &query.select,
                    cond_expr,
                    attr,
                    tmp_name,
                    self.options.include_self,
                )?;
                Ok(self.db.plan_optimized(&q)?)
            });
            if ephemeral {
                let _ = self.db.catalog().drop_table(tmp_name);
            }
            match planned {
                Ok(optimized) => {
                    let _ = writeln!(
                        out,
                        "rewritten plan (REPLACEVARIABLE, include_self={}):",
                        self.options.include_self
                    );
                    for line in optimized.render().lines() {
                        let _ = writeln!(out, "  {line}");
                    }
                }
                Err(err) => {
                    let _ = writeln!(
                        out,
                        "rewritten plan (REPLACEVARIABLE): deferred ({err})"
                    );
                }
            }
        }
        // Lint footer: the same diagnostics `lint` would report, rendered
        // as trailing comment lines so EXPLAIN output stays one artifact.
        if let Ok(diags) = self.lint(user, sesql) {
            for d in &diags {
                let _ = writeln!(out, "-- lint: {d}");
            }
        }
        Ok(out)
    }

    /// Lint a SESQL (or plain SQL) statement in `user`'s knowledge
    /// context without executing it: the relational rules (`L…`) over the
    /// cleaned SELECT, the enrichment-structure rules (`E001`/`E002`),
    /// the context-dependent property check (`E003`), and the SPARQL
    /// rules (`S…`) over any stored queries the enrichments reference.
    pub fn lint(&self, user: &str, sesql: &str) -> Result<Vec<Diagnostic>> {
        if !self.kb.is_registered(user) {
            return Err(Error::platform(format!("user `{user}` is not registered")));
        }
        let query = parse_sesql(sesql)?;
        let mut out = lint_sesql_static(self.db.catalog(), &query, sesql);

        let graphs = self.kb.context_graphs(user);
        let refs: Vec<&str> = graphs.iter().map(String::as_str).collect();
        let known_predicates = self.kb.store().distinct_predicates(&refs);
        let mut checked: Vec<&str> = Vec::new();
        for e in &query.enrichments {
            let property = e.property();
            if checked.contains(&property) {
                continue;
            }
            checked.push(property);
            if let Some(stored) = self.stored.get(property) {
                // The stored query is user-written SPARQL: run the S-rules
                // over it, attributing each finding to the registry name.
                if let Ok(parsed) = crosse_rdf::sparql::parser::parse_any(&stored.sparql) {
                    for mut d in crosse_rdf::sparql::lint::lint_parsed(&parsed, &stored.sparql) {
                        d.message =
                            format!("in stored query `{}`: {}", stored.name, d.message);
                        // The span indexes the stored query's text, not
                        // the SESQL statement being linted.
                        d.span = None;
                        out.push(d);
                    }
                }
            } else if !property.contains("://")
                && !known_predicates.iter().any(|p| p.matches_lexical(property))
            {
                out.push(
                    Diagnostic::warning(
                        "E003",
                        format!(
                            "`{property}` is neither a registered stored query nor a \
                             predicate in the context graphs; its SPARQL leg will \
                             return no solutions"
                        ),
                    )
                    .try_span_of(sesql, property),
                );
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::*;

    #[test]
    fn explain_renders_full_pipeline() {
        let e = engine();
        let text = e
            .explain(
                "director",
                "SELECT landfill_name FROM elem_contained \
                 WHERE ${elem_name = HazardousWaste:cond1} \
                 ENRICH REPLACECONSTANT(cond1, HazardousWaste, dangerLevel)",
            )
            .unwrap();
        assert!(text.contains("clean SQL:"), "{text}");
        assert!(text.contains("tagged condition cond1"), "{text}");
        // Example 4.5's ontology constant defers planning to enrichment.
        assert!(text.contains("deferred until WHERE enrichment"), "{text}");
        assert!(text.contains("REPLACECONSTANT"), "{text}");
        assert!(text.contains("SPARQL leg:"), "{text}");
        assert!(e.explain("nobody", "SELECT 1").is_err());

        // A schema enrichment plans the SQL part normally.
        let text = e
            .explain(
                "director",
                "SELECT elem_name FROM elem_contained \
                 ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)",
            )
            .unwrap();
        assert!(text.contains("SeqScan: elem_contained"), "{text}");
    }

    #[test]
    fn explain_shows_stored_query_leg() {
        let e = engine();
        e.stored_queries()
            .register("dq", "SELECT ?e WHERE { ?e <dangerLevel> ?d . FILTER(?d >= 4) }")
            .unwrap();
        let text = e
            .explain(
                "director",
                "SELECT elem_name FROM elem_contained \
                 WHERE ${elem_name = X:c} ENRICH REPLACECONSTANT(c, X, dq)",
            )
            .unwrap();
        assert!(text.contains("stored query `dq`"), "{text}");
    }
}
