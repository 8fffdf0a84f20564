// srclint: allow(R002): the char walk indexes char boundaries
//! Prepared SESQL: the compiled handle, the engine's prepared cache, text
//! normalization and the user-independent lint run at prepare time.

use super::*;

/// A compiled SESQL query as stored in the engine's prepared cache: a
/// [`PreparedSesql`] minus the engine (which owns the cache).
#[derive(Debug, Clone)]
pub(super) struct CachedSesql {
    query: Arc<SesqlQuery>,
    sql: crosse_relational::Prepared,
    warnings: Arc<Vec<Diagnostic>>,
}

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
    pub(super) query: Arc<SesqlQuery>,
    /// The executable form of `query.select`: typed slots, re-validation
    /// after DDL and the plan template all live in this handle.
    pub(super) sql: crosse_relational::Prepared,
    text: String,
    /// Lint findings from prepare time (the user-independent rules; see
    /// [`SesqlEngine::lint`] for the context-dependent ones).
    warnings: Arc<Vec<Diagnostic>>,
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
    /// catalog.
    pub fn param_slots(&self) -> Arc<Vec<crosse_relational::SlotInfo>> {
        self.sql.param_slots()
    }

    /// Lint findings attached at prepare time (the user-independent
    /// rules: relational `L…` plus `E001`/`E002`). Empty for clean
    /// queries.
    pub fn warnings(&self) -> &[Diagnostic] {
        &self.warnings
    }

    /// Normalized query text (the prepared-cache key).
    pub fn text(&self) -> &str {
        &self.text
    }

    /// The parsed (still parameterised) query.
    pub fn query(&self) -> &SesqlQuery {
        &self.query
    }

    /// Bind `params` into a parameter-free [`SesqlQuery`].
    pub fn bind(&self, params: &crosse_relational::Params) -> Result<SesqlQuery> {
        use crosse_relational::prepared::{resolve_params, substitute_expr, substitute_select};
        let values = resolve_params(&self.param_slots(), params)?;
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
    /// Compile a SESQL query into a [`PreparedSesql`] handle: scan, parse
    /// both grammars, compile the SQL part. Compilations are cached in a
    /// bounded LRU keyed by normalized text, so repeated `prepare` calls
    /// with equivalent text skip parsing entirely (check
    /// [`SesqlEngine::prepared_cache_stats`]) and share the SQL part's
    /// plan template.
    pub fn prepare(&self, sesql: &str) -> Result<PreparedSesql> {
        let key = normalize_sesql(sesql);
        let cached = { self.prepared.lock().get(&key).cloned() };
        let CachedSesql { query, sql, warnings } = match cached {
            Some(cached) => cached,
            None => {
                let query = Arc::new(parse_sesql(sesql)?);
                let cached = CachedSesql {
                    sql: self.db.compile(Arc::clone(&query.select)),
                    warnings: Arc::new(lint_sesql_static(self.db.catalog(), &query, &key)),
                    query,
                };
                self.prepared.lock().put(key.clone(), cached.clone());
                cached
            }
        };
        Ok(PreparedSesql { engine: self.clone(), query, sql, warnings, text: key })
    }
}

/// Quote-aware whitespace normalization of SESQL text (the prepared-cache
/// key): runs of whitespace outside `'...'` / `"..."` collapse to one
/// space. Keyword case is left alone — SESQL's enrichment grammar is
/// case-insensitive but its arguments are not, and a cache miss on case
/// only costs a re-parse.
pub fn normalize_sesql(text: &str) -> String {
    let bytes = text.as_bytes();
    let mut out = String::with_capacity(text.len());
    let mut i = 0;
    let mut pending_space = false;
    while i < bytes.len() {
        let c = bytes[i];
        if c.is_ascii_whitespace() {
            pending_space = !out.is_empty();
            i += 1;
            continue;
        }
        if pending_space {
            out.push(' ');
            pending_space = false;
        }
        if c == b'\'' || c == b'"' {
            // Copy the quoted region verbatim (doubled-quote escapes).
            let quote = c;
            out.push(c as char);
            i += 1;
            while i < bytes.len() {
                let b = bytes[i];
                out.push(b as char);
                i += 1;
                if b == quote {
                    if bytes.get(i) == Some(&quote) {
                        out.push(quote as char);
                        i += 1;
                    } else {
                        break;
                    }
                }
            }
            continue;
        }
        let ch = text[i..].chars().next().expect("in bounds");
        out.push(ch);
        i += ch.len_utf8();
    }
    out
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
