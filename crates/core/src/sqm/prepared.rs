//! Prepared SESQL: the compiled handle and the user-independent lint run
//! at prepare time. SESQL text is compiled through the databank's
//! statement cache ([`Database::prepare_shape`]) under its (SESQL, shape)
//! key: the scanner's cleaned SQL is shaped like any SQL — comparison
//! literals of its WHERE clause lifted into hidden slots — with each
//! `${…:id}` tag and the ENRICH clause kept as written, and the SESQL
//! parse is kept beside the relational entry.

use std::sync::OnceLock;

use crosse_relational::db::{Compiled, Lang};

use super::*;
use crate::sesql::parser::scan;
use crate::sesql::scanner::{extract_tags, split_enrich};

/// A compiled SESQL query with typed parameter slots, bound to its engine.
///
/// The prepare/execute split of the relational layer, lifted to SESQL:
/// [`PreparedSesql::execute_cursor`] binds values and returns the
/// streaming shape (see [`crate::session::Rows`]) — un-enriched queries
/// stream straight off the relational executor, so `LIMIT` stops the scan
/// early, and enriched ones stream out of the pipeline;
/// [`PreparedSesql::execute`] drains that cursor into the classic
/// [`EnrichedResult`].
#[derive(Clone)]
pub struct PreparedSesql {
    engine: SesqlEngine,
    /// The parse of the statement's shape, shared by every text of it:
    /// lifted literals are slots of `query.select`.
    pub(super) query: Arc<SesqlQuery>,
    /// The executable form of `query.select`: typed slots, this text's
    /// lifted values, its text and prepare-time warnings, re-validation
    /// after DDL and the plan template all live in this handle.
    pub(super) sql: crosse_relational::Prepared,
    /// `query` as written, built by the first [`PreparedSesql::query`].
    written: OnceLock<Arc<SesqlQuery>>,
}

/// The user-independent SESQL lint: relational rules over the cleaned
/// SELECT (params allowed — binding them is what prepare is for) plus the
/// enrichment-structure rules:
///
/// * `E001` (warning): a tagged condition `${…:id}` is never referenced by
///   any WHERE-clause enrichment — the tag is dead syntax.
/// * `E002` (error): a `REPLACECONSTANT`/`REPLACEVARIABLE` clause names a
///   condition id that no tag defines; the rewrite has nothing to rewrite.
pub(super) fn lint_sesql_static(
    catalog: &crosse_relational::storage::Catalog,
    query: &SesqlQuery,
    source: &str,
) -> Vec<Diagnostic> {
    let mut out =
        crosse_relational::lint::lint_select(catalog, &query.select, source, true);
    let referenced: Vec<&str> = query
        .enrichments
        .iter()
        .filter_map(|e| e.condition_id())
        .collect();
    let mut unused: Vec<&String> = query
        .conditions
        .keys()
        .filter(|id| !referenced.contains(&id.as_str()))
        .collect();
    unused.sort(); // HashMap order is arbitrary; snapshots need stability.
    for id in unused {
        out.push(
            Diagnostic::warning(
                "E001",
                format!("tagged condition `{id}` is not referenced by any enrichment"),
            )
            .try_span_of(source, &format!(":{id}")),
        );
    }
    for e in &query.enrichments {
        if let Some(cond) = e.condition_id() {
            if !query.conditions.contains_key(cond) {
                out.push(
                    Diagnostic::error(
                        "E002",
                        format!(
                            "{} references unknown condition tag `{cond}`",
                            e.keyword()
                        ),
                    )
                    .try_span_of(source, cond),
                );
            }
        }
    }
    out
}

impl PreparedSesql {
    /// The parameter slots, in binding order, typed against the live
    /// catalog. Lifted literals are not among them.
    pub fn param_slots(&self) -> Arc<Vec<crosse_relational::SlotInfo>> {
        self.sql.param_slots()
    }

    /// Lint findings attached at prepare time (the user-independent
    /// rules: relational `L…` plus `E001`/`E002`), found once per shape.
    /// Empty for clean queries.
    pub fn warnings(&self) -> &[Diagnostic] {
        self.sql.warnings()
    }

    /// The query as written.
    pub fn text(&self) -> &str {
        self.sql.text()
    }

    /// The parsed query as written: lifted literals in place, parameters
    /// as their placeholders.
    pub fn query(&self) -> &SesqlQuery {
        self.written.get_or_init(|| {
            let mut query = (*self.query).clone();
            query.select = Arc::new(self.sql.select().into_owned());
            // The scan cannot fail: it succeeded when the text was shaped.
            if let Ok((sql, _)) = split_enrich(self.text()) {
                if let Ok((clean, _)) = extract_tags(&sql) {
                    query.clean_sql = clean;
                }
            }
            Arc::new(query)
        })
    }

    /// Bind `params` and the lifted literals into a slot-free
    /// [`SesqlQuery`].
    pub fn bind(&self, params: &crosse_relational::Params) -> Result<SesqlQuery> {
        use crosse_relational::prepared::{substitute_expr, substitute_select};
        let values = self.sql.slot_values(&self.param_slots(), params)?;
        let mut bound = (*self.query).clone();
        bound.select = Arc::new(substitute_select((*bound.select).clone(), &values));
        bound.conditions = bound
            .conditions
            .into_iter()
            .map(|(id, e)| (id, substitute_expr(e, &values)))
            .collect();
        bound.params = Vec::new();
        Ok(bound)
    }

    /// Bind and execute in `user`'s context, materialising the enriched
    /// result: [`PreparedSesql::execute_cursor`] drained (no re-parse; the
    /// pipeline report's `parse` stage is zero).
    pub fn execute(
        &self,
        user: &str,
        params: &crosse_relational::Params,
    ) -> Result<EnrichedResult> {
        self.execute_cursor(user, params)?.collect()
    }

    /// Bind and execute, returning the streaming cursor shape.
    pub fn execute_cursor(
        &self,
        user: &str,
        params: &crosse_relational::Params,
    ) -> Result<EnrichedRows> {
        self.engine.run(user, self, params)
    }
}

impl SesqlEngine {
    /// Compile a SESQL query into a [`PreparedSesql`] handle through the
    /// databank's statement cache: a text whose shape is cached costs its
    /// scan and lexing; a miss parses both grammars and lints once for
    /// the shape (see [`Database::prepare_shape`]). The SQL part is
    /// planned at its first execution, after any WHERE enrichment.
    pub fn prepare(&self, sesql: &str) -> Result<PreparedSesql> {
        let (scanned, tokens) = scan(sesql)?;
        let shape = scanned.shape(tokens);
        let compile = |tokens, key: &str| {
            // A shape parses as its text does; report the text's error.
            let query =
                scanned.parse(tokens).map_err(|e| parse_sesql(sesql).err().unwrap_or(e))?;
            let warnings = lint_sesql_static(self.db.catalog(), &query, key);
            let select = Arc::clone(&query.select);
            Ok::<_, Error>(Compiled { select, warnings, extra: Some(Arc::new(query)) })
        };
        let (sql, extra) = self.db.prepare_shape(Lang::Sesql, sesql, shape, compile)?;
        let query = extra
            .and_then(|parse| parse.downcast::<SesqlQuery>().ok())
            .ok_or_else(|| Error::sqm("a SESQL statement-cache entry keeps its parse"))?;
        Ok(PreparedSesql { engine: self.clone(), query, sql, written: OnceLock::new() })
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::*;
    use super::*;

    #[test]
    fn static_lint_catches_unknown_condition_in_built_query() {
        // The parser rejects unknown tags, so construct the defect
        // directly: an enrichment naming a condition no tag defines.
        let db = Database::new();
        db.execute("CREATE TABLE t (a TEXT)").unwrap();
        let src = "SELECT a FROM t";
        let mut query = parse_sesql(src).unwrap();
        query.enrichments.push(Enrichment::ReplaceVariable {
            cond: "ghost".into(),
            attr: "a".into(),
            property: "p".into(),
        });
        let diags = lint_sesql_static(db.catalog(), &query, src);
        assert_eq!(diags.iter().map(|d| d.code).collect::<Vec<_>>(), vec!["E002"]);
        assert_eq!(diags[0].severity, crosse_lint::Severity::Error);
        assert!(diags[0].message.contains("ghost"));
    }

    #[test]
    fn a_line_comment_ends_at_its_newline() {
        // The first text filters on the line after its comment; the
        // second comments its WHERE clause out and returns every row.
        let e = engine();
        let rows = |text: &str| {
            let p = e.prepare(text).unwrap();
            p.execute("director", &crosse_relational::Params::new()).unwrap().rows.len()
        };
        let q = "SELECT elem_name FROM elem_contained -- note";
        assert_eq!(rows(&format!("{q}\nWHERE landfill_name = 'a'")), 3);
        assert_eq!(rows(&format!("{q} WHERE landfill_name = 'a'")), 6);
    }

    #[test]
    fn a_cached_statement_is_linted_again_after_ddl() {
        let db = Database::new();
        db.execute("CREATE TABLE t (a INT)").unwrap();
        let e = SesqlEngine::new(db.clone(), KnowledgeBase::new());
        let q = "SELECT a FROM t WHERE a = 3";
        let codes = |w: &[Diagnostic]| w.iter().map(|d| d.code).collect::<Vec<_>>();
        assert!(e.prepare(q).unwrap().warnings().is_empty());
        db.execute_script("DROP TABLE t; CREATE TABLE t (a TEXT)").unwrap();
        assert_eq!(codes(e.prepare(q).unwrap().warnings()), ["L004"]);
        assert_eq!(codes(db.prepare(q).unwrap().warnings()), ["L004"]);
    }

    #[test]
    fn execute_goes_through_the_prepared_cache() {
        let e = engine();
        let first = e.execute("director", CACHED_QUERY).unwrap();
        let second = e.execute("director", CACHED_QUERY).unwrap();
        assert!(e.prepared_cache_stats().hits >= 1, "{:?}", e.prepared_cache_stats());
        let prepared = e
            .prepare(CACHED_QUERY)
            .unwrap()
            .execute("director", &crosse_relational::Params::new())
            .unwrap();
        assert_eq!(first.rows, prepared.rows);
        assert_eq!(second.rows, prepared.rows);
    }
}
