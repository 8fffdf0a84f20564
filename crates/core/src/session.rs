//! Sessions and the unified streaming cursor API.
//!
//! The platform serves three query languages — SESQL, plain SQL and
//! SPARQL — that historically returned three incompatible result shapes
//! (`EnrichedResult`, `RowSet`, `Solutions`). A [`Session`] ties a user's
//! knowledge context to the engine and exposes one lifecycle for all
//! three:
//!
//! ```text
//! Session::new(engine, user)
//!   └─ prepare(text)        → Prepared handle (compiled, typed params)
//!        └─ execute(params) → Rows cursor (lazy)
//!             └─ collect()  → the legacy materialised shape
//! ```
//!
//! The [`Rows`] trait is the common cursor: uniform `columns()` /
//! `next_row()` over relational execution (fully streaming — `LIMIT`
//! stops the scan), SPARQL solutions (term→value rendered lazily per
//! row), and SESQL enrichment (un-enriched queries stream end-to-end;
//! enriched ones stream out of the pipeline). `collect_rows()` and the
//! per-language collect adapters keep every pre-cursor call site working
//! mechanically.

use crosse_federation::join_manager::term_to_value_in;
use crosse_lint::Diagnostic;
use crosse_relational::Interner;
use crosse_rdf::sparql::eval::{EvalOptions, Solutions};
use crosse_rdf::sparql::{Prepared as PreparedSparql, SolutionCursor, SparqlParams};
use crosse_relational::{Column, DataType, Params, Prepared as PreparedSql, RowSet, Schema, Value};

use crate::error::{Error, Result};
use crate::sqm::{EnrichedResult, PipelineReport, PreparedSesql, SesqlEngine};

/// The uniform streaming cursor over all three query languages.
///
/// Implementations yield rows of [`Value`]s lazily; `collect_rows`
/// drains the remainder into a [`RowSet`].
pub trait Rows {
    /// Output column names, in row order.
    fn columns(&self) -> Vec<String>;

    /// Pull the next row; `None` when exhausted.
    fn next_row(&mut self) -> Option<Result<Vec<Value>>>;

    /// Output schema; the default types every column as TEXT (language
    /// backends with real type information override this).
    fn schema(&self) -> Schema {
        Schema::new(
            self.columns()
                .into_iter()
                .map(|c| Column::new(c, DataType::Text))
                .collect(),
        )
    }

    /// Drain the remaining rows into a materialised row set.
    fn collect_rows(&mut self) -> Result<RowSet> {
        let schema = self.schema();
        let mut rows = Vec::new();
        while let Some(r) = self.next_row() {
            rows.push(r?);
        }
        Ok(RowSet { schema, rows })
    }
}

/// The relational cursor is already the right shape; adapt errors.
impl Rows for crosse_relational::Rows {
    fn columns(&self) -> Vec<String> {
        self.schema().columns.iter().map(|c| c.display_name()).collect()
    }

    fn next_row(&mut self) -> Option<Result<Vec<Value>>> {
        crosse_relational::Rows::next_row(self).map(|r| r.map_err(Error::from))
    }

    fn schema(&self) -> Schema {
        crosse_relational::Rows::schema(self).clone()
    }
}

/// SPARQL solutions as a cursor: variables become columns, terms render
/// to values lazily per pulled row (unbound → NULL). A cursor-local
/// interner makes a term that occurs in many rows cost one allocation.
#[derive(Debug)]
pub struct SparqlRows {
    cursor: SolutionCursor,
    interner: Interner,
}

impl SparqlRows {
    pub fn new(sols: Solutions) -> Self {
        SparqlRows { cursor: SolutionCursor::new(sols), interner: Interner::new() }
    }
}

impl Rows for SparqlRows {
    fn columns(&self) -> Vec<String> {
        self.cursor.variables().to_vec()
    }

    fn next_row(&mut self) -> Option<Result<Vec<Value>>> {
        let interner = &self.interner;
        self.cursor.next().map(|row| {
            Ok(row
                .iter()
                .map(|t| {
                    t.as_ref()
                        .map(|t| term_to_value_in(t, interner))
                        .unwrap_or(Value::Null)
                })
                .collect())
        })
    }
}

enum EnrichedInner {
    /// Un-enriched query streaming straight off the relational executor.
    Streaming(crosse_relational::Rows),
    /// Enrichment pipeline output, streamed from the materialised result.
    Materialized {
        schema: Schema,
        rows: std::vec::IntoIter<Vec<Value>>,
        report: PipelineReport,
    },
}

/// SESQL execution as a cursor, with the pipeline report retained for the
/// [`EnrichedResult`] collect adapter.
pub struct EnrichedRows {
    inner: EnrichedInner,
}

impl EnrichedRows {
    pub(crate) fn streaming(rows: crosse_relational::Rows) -> Self {
        EnrichedRows { inner: EnrichedInner::Streaming(rows) }
    }

    pub fn from_result(result: EnrichedResult) -> Self {
        EnrichedRows {
            inner: EnrichedInner::Materialized {
                schema: result.rows.schema,
                rows: result.rows.rows.into_iter(),
                report: result.report,
            },
        }
    }

    /// The Fig. 6 pipeline report (`None` while streaming un-enriched
    /// queries, which never enter the pipeline).
    pub fn report(&self) -> Option<&PipelineReport> {
        match &self.inner {
            EnrichedInner::Streaming(_) => None,
            EnrichedInner::Materialized { report, .. } => Some(report),
        }
    }

    /// Base-table rows fetched so far on the streaming path (proof of the
    /// `LIMIT` short-circuit); `None` once materialised.
    pub fn rows_scanned(&self) -> Option<u64> {
        match &self.inner {
            EnrichedInner::Streaming(rows) => Some(rows.rows_scanned()),
            EnrichedInner::Materialized { .. } => None,
        }
    }

    /// Drain into the legacy [`EnrichedResult`] shape. A streaming cursor
    /// reports its drain time as the SQL leg (lowering is lazy, so the
    /// drain is where an un-enriched query's execution happens).
    pub fn collect(self) -> Result<EnrichedResult> {
        match self.inner {
            EnrichedInner::Streaming(rows) => {
                let t = std::time::Instant::now();
                let rows = rows.collect_rows()?;
                let report = PipelineReport {
                    sql_exec: t.elapsed(),
                    base_rows: rows.len(),
                    result_rows: rows.len(),
                    ..PipelineReport::default()
                };
                Ok(EnrichedResult { rows, report })
            }
            EnrichedInner::Materialized { schema, rows, report } => {
                Ok(EnrichedResult { rows: RowSet { schema, rows: rows.collect() }, report })
            }
        }
    }
}

impl Rows for EnrichedRows {
    fn columns(&self) -> Vec<String> {
        match &self.inner {
            EnrichedInner::Streaming(rows) => Rows::columns(rows),
            EnrichedInner::Materialized { schema, .. } => {
                schema.columns.iter().map(|c| c.display_name()).collect()
            }
        }
    }

    fn next_row(&mut self) -> Option<Result<Vec<Value>>> {
        match &mut self.inner {
            EnrichedInner::Streaming(rows) => Rows::next_row(rows),
            EnrichedInner::Materialized { rows, .. } => rows.next().map(Ok),
        }
    }

    fn schema(&self) -> Schema {
        match &self.inner {
            EnrichedInner::Streaming(rows) => Rows::schema(rows),
            EnrichedInner::Materialized { schema, .. } => schema.clone(),
        }
    }
}

/// A user session: the engine plus the user's knowledge context, with the
/// prepare → execute → cursor lifecycle for all three languages.
#[derive(Clone)]
pub struct Session {
    engine: SesqlEngine,
    user: String,
}

impl Session {
    /// Open a session for a registered user.
    pub fn new(engine: &SesqlEngine, user: &str) -> Result<Session> {
        if !engine.knowledge_base().is_registered(user) {
            return Err(Error::platform(format!("user `{user}` is not registered")));
        }
        Ok(Session { engine: engine.clone(), user: user.to_string() })
    }

    /// Open a durable engine at `dir` and start a session for `user` in
    /// one step, registering the user on first contact (registration is
    /// idempotent and — like every mutation on a durable engine — logged,
    /// so the user survives restarts).
    pub fn open(dir: impl AsRef<std::path::Path>, user: &str) -> Result<Session> {
        let engine = SesqlEngine::open(dir)?;
        if !engine.knowledge_base().is_registered(user) {
            engine.knowledge_base().register_user(user);
        }
        Session::new(&engine, user)
    }

    pub fn user(&self) -> &str {
        &self.user
    }

    pub fn engine(&self) -> &SesqlEngine {
        &self.engine
    }

    /// Set the worker-thread budget for intra-query parallelism (morsel
    /// scans, hash-join probes, SPARQL probe batches). The budget lives on
    /// the shared engine — it is a server-wide setting surfaced here (and
    /// as the CLI's `--threads` flag) for convenience. 1 = sequential.
    pub fn set_threads(&self, threads: usize) {
        self.engine.set_exec_threads(threads);
    }

    /// Current worker-thread budget.
    pub fn threads(&self) -> usize {
        self.engine.exec_threads()
    }

    /// Explain a SESQL (or plain SQL) statement without executing it: the
    /// cleaned SQL, the optimized relational plan with its rewrite-pass
    /// annotations (shared spools, pushdowns), and — for enriched queries
    /// — the SPARQL legs the SQM would issue plus the rewritten
    /// REPLACEVARIABLE compound. The session-level face of `EXPLAIN`.
    pub fn explain(&self, text: &str) -> Result<String> {
        self.engine.explain(&self.user, text)
    }

    /// Explain a plain SQL SELECT against the databank: the optimized
    /// plan tree plus pass annotations (`EXPLAIN <stmt>` as a string).
    pub fn explain_sql(&self, sql: &str) -> Result<String> {
        let prepared = self.prepare_sql(sql)?;
        Ok(prepared.explain()?)
    }

    /// Lint a SESQL (or plain SQL) statement in this session's knowledge
    /// context without executing it. See [`SesqlEngine::lint`] for the
    /// rule set.
    pub fn lint(&self, text: &str) -> Result<Vec<Diagnostic>> {
        self.engine.lint(&self.user, text)
    }

    /// Lint a plain SQL statement against the databank (`L…` rules only).
    pub fn lint_sql(&self, sql: &str) -> Result<Vec<Diagnostic>> {
        Ok(self.engine.database().lint(sql)?)
    }

    /// Lint a SPARQL query (`S…` rules). Parse errors are real errors;
    /// lint findings are the returned list.
    pub fn lint_sparql(&self, sparql: &str) -> Result<Vec<Diagnostic>> {
        let parsed = crosse_rdf::sparql::parser::parse_any(sparql)?;
        Ok(crosse_rdf::sparql::lint::lint_parsed(&parsed, sparql))
    }

    // ---- SESQL ----------------------------------------------------------

    /// Prepare a SESQL query (LRU-cached compilation).
    pub fn prepare(&self, sesql: &str) -> Result<PreparedSesql> {
        self.engine.prepare(sesql)
    }

    /// Execute a prepared SESQL query, materialising the enriched result.
    pub fn execute(
        &self,
        prepared: &PreparedSesql,
        params: &Params,
    ) -> Result<EnrichedResult> {
        prepared.execute(&self.user, params)
    }

    /// Execute a prepared SESQL query as a streaming cursor.
    pub fn execute_cursor(
        &self,
        prepared: &PreparedSesql,
        params: &Params,
    ) -> Result<EnrichedRows> {
        prepared.execute_cursor(&self.user, params)
    }

    // ---- plain SQL (databank, no enrichment context) ---------------------

    /// Prepare a plain SQL SELECT against the databank (plan-cached).
    pub fn prepare_sql(&self, sql: &str) -> Result<PreparedSql> {
        Ok(self.engine.database().prepare(sql)?)
    }

    /// Execute a prepared SQL statement as a streaming cursor.
    pub fn execute_sql(
        &self,
        prepared: &PreparedSql,
        params: &Params,
    ) -> Result<crosse_relational::Rows> {
        Ok(prepared.execute(params)?)
    }

    // ---- SPARQL (the user's knowledge context) ---------------------------

    /// Prepare a SPARQL SELECT (parse only; evaluation binds the user's
    /// context graphs at execute time).
    pub fn prepare_sparql(&self, sparql: &str) -> Result<PreparedSparql> {
        Ok(crosse_rdf::sparql::prepare(sparql)?)
    }

    /// Execute a prepared SPARQL query in this session's context graphs,
    /// returning the uniform cursor. Evaluation uses the session's
    /// worker-thread budget for partition-parallel probing.
    pub fn execute_sparql(
        &self,
        prepared: &PreparedSparql,
        params: &SparqlParams,
    ) -> Result<SparqlRows> {
        let kb = self.engine.knowledge_base();
        let graphs = kb.context_graphs(&self.user);
        let refs: Vec<&str> = graphs.iter().map(String::as_str).collect();
        let opts = EvalOptions { threads: self.engine.exec_threads(), ..Default::default() };
        let sols = prepared.execute_with(kb.store(), &refs, params, &opts)?;
        Ok(SparqlRows::new(sols))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crosse_rdf::provenance::KnowledgeBase;
    use crosse_rdf::store::Triple;
    use crosse_rdf::term::Term;
    use crosse_relational::Database;

    fn engine() -> SesqlEngine {
        let db = Database::new();
        db.execute_script(
            "CREATE TABLE elem_contained (elem_name TEXT, landfill_name TEXT, amount FLOAT);
             INSERT INTO elem_contained VALUES
               ('Hg', 'a', 12.5), ('Pb', 'a', 30.0), ('Cu', 'b', 100.0);",
        )
        .unwrap();
        let kb = KnowledgeBase::new();
        kb.register_user("director");
        for (s, o) in [("Hg", "5"), ("Pb", "4")] {
            kb.assert_statement(
                "director",
                &Triple::new(Term::iri(s), Term::iri("dangerLevel"), Term::lit(o)),
            )
            .unwrap();
        }
        SesqlEngine::new(db, kb)
    }

    #[test]
    fn lint_clean_enriched_query_is_silent() {
        let e = engine();
        let s = Session::new(&e, "director").unwrap();
        let diags = s
            .lint(
                "SELECT elem_name FROM elem_contained WHERE ${amount > 10:cond1} \
                 ENRICH SCHEMAEXTENSION(elem_name, dangerLevel) \
                 REPLACEVARIABLE(cond1, elem_name, dangerLevel)",
            )
            .unwrap();
        assert!(diags.is_empty(), "expected clean lint, got {diags:?}");
    }

    #[test]
    fn lint_reports_unused_and_unknown_condition_tags() {
        let e = engine();
        let s = Session::new(&e, "director").unwrap();
        // cond1 tagged but never referenced → E001.
        let diags = s
            .lint(
                "SELECT elem_name FROM elem_contained WHERE ${amount > 10:cond1} \
                 ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)",
            )
            .unwrap();
        assert_eq!(diags.iter().map(|d| d.code).collect::<Vec<_>>(), vec!["E001"]);

        // An enrichment naming a tag that does not exist is a *parse*
        // error — the linter's E002 is defense-in-depth for queries built
        // programmatically (covered in `sqm::tests`).
        let err = s
            .lint(
                "SELECT elem_name FROM elem_contained WHERE ${amount > 10:cond1} \
                 ENRICH REPLACEVARIABLE(ghost, elem_name, dangerLevel)",
            )
            .unwrap_err();
        assert!(err.to_string().contains("ghost"));
    }

    #[test]
    fn lint_flags_unresolvable_property() {
        let e = engine();
        let s = Session::new(&e, "director").unwrap();
        let diags = s
            .lint(
                "SELECT elem_name FROM elem_contained \
                 ENRICH SCHEMAEXTENSION(elem_name, noSuchProperty)",
            )
            .unwrap();
        assert_eq!(diags.iter().map(|d| d.code).collect::<Vec<_>>(), vec!["E003"]);
        // A verbatim IRI is deliberate — never flagged.
        let diags = s
            .lint(
                "SELECT elem_name FROM elem_contained \
                 ENRICH SCHEMAEXTENSION(elem_name, urn://no-such-property)",
            )
            .unwrap();
        assert!(diags.is_empty(), "got {diags:?}");
    }

    #[test]
    fn lint_runs_sparql_rules_over_stored_queries() {
        let e = engine();
        e.stored_queries()
            .register("deadFilter", "SELECT ?s WHERE { ?s <urn:p> ?o FILTER(1 > 2) }")
            .unwrap();
        let s = Session::new(&e, "director").unwrap();
        let diags = s
            .lint(
                "SELECT elem_name FROM elem_contained WHERE ${elem_name = 'Hg':c1} \
                 ENRICH REPLACECONSTANT(c1, Hg, deadFilter)",
            )
            .unwrap();
        let codes: Vec<_> = diags.iter().map(|d| d.code).collect();
        assert!(codes.contains(&"S003"), "got {diags:?}");
        assert!(diags.iter().any(|d| d.message.contains("deadFilter")));
    }

    #[test]
    fn prepared_sesql_carries_warnings() {
        let e = engine();
        let s = Session::new(&e, "director").unwrap();
        let p = s
            .prepare("SELECT elem_name FROM elem_contained WHERE 1 = 2")
            .unwrap();
        assert_eq!(p.warnings().iter().map(|d| d.code).collect::<Vec<_>>(), vec!["L001"]);
        // Clean parameterised query: params are fine at prepare time.
        let p = s
            .prepare("SELECT elem_name FROM elem_contained WHERE landfill_name = $lf")
            .unwrap();
        assert!(p.warnings().is_empty());
    }

    #[test]
    fn lint_sparql_surfaces_s_rules() {
        let e = engine();
        let s = Session::new(&e, "director").unwrap();
        let diags = s
            .lint_sparql("SELECT ?s ?ghost WHERE { ?s <urn:p> ?o . ?o <urn:q> <urn:x> }")
            .unwrap();
        assert!(diags.iter().map(|d| d.code).any(|c| c == "S002"), "got {diags:?}");
    }

    #[test]
    fn explain_carries_lint_footer() {
        let e = engine();
        let s = Session::new(&e, "director").unwrap();
        let out = s
            .explain(
                "SELECT elem_name FROM elem_contained WHERE ${amount > 10:cond1} \
                 ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)",
            )
            .unwrap();
        assert!(out.contains("-- lint: warning[E001]"), "got:\n{out}");
        // Clean statements keep their EXPLAIN output footer-free.
        let out = s.explain("SELECT elem_name FROM elem_contained").unwrap();
        assert!(!out.contains("-- lint:"), "got:\n{out}");
    }

    #[test]
    fn session_requires_registered_user() {
        let e = engine();
        assert!(Session::new(&e, "director").is_ok());
        assert!(Session::new(&e, "nobody").is_err());
    }

    #[test]
    fn sesql_prepare_execute_with_params() {
        let e = engine();
        let s = Session::new(&e, "director").unwrap();
        let p = s
            .prepare(
                "SELECT elem_name FROM elem_contained WHERE landfill_name = $lf \
                 ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)",
            )
            .unwrap();
        assert_eq!(p.param_slots().len(), 1);
        let r = s.execute(&p, &Params::new().set("lf", "a")).unwrap();
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.rows.schema.columns[1].name, "dangerLevel");
        // Execute-many: same handle, new binding, no re-parse.
        let r = s.execute(&p, &Params::new().set("lf", "b")).unwrap();
        assert_eq!(r.rows.len(), 1);
        assert!(r.rows.rows[0][1].is_null(), "Cu has no danger level");
    }

    #[test]
    fn prepared_cache_hits_across_sessions() {
        let e = engine();
        let s = Session::new(&e, "director").unwrap();
        let q = "SELECT elem_name FROM elem_contained WHERE landfill_name = $lf";
        let _p1 = s.prepare(q).unwrap();
        let _p2 = s.prepare("SELECT elem_name  FROM elem_contained WHERE landfill_name = $lf").unwrap();
        let stats = e.prepared_cache_stats();
        assert_eq!(stats.hits, 1, "{stats:?}");
        assert_eq!(stats.misses, 1, "{stats:?}");
    }

    #[test]
    fn unified_cursor_over_all_three_languages() {
        let e = engine();
        let s = Session::new(&e, "director").unwrap();

        // SESQL (un-enriched → streaming).
        let p = s.prepare("SELECT elem_name FROM elem_contained ORDER BY elem_name").unwrap();
        let mut cur = s.execute_cursor(&p, &Params::new()).unwrap();
        assert_eq!(Rows::columns(&cur), vec!["elem_name"]);
        let first = cur.next_row().unwrap().unwrap();
        assert_eq!(first[0], Value::from("Cu"));

        // SQL.
        let p = s.prepare_sql("SELECT COUNT(*) AS n FROM elem_contained").unwrap();
        let mut cur = s.execute_sql(&p, &Params::new()).unwrap();
        assert_eq!(Rows::columns(&cur), vec!["n"]);
        assert_eq!(Rows::next_row(&mut cur).unwrap().unwrap()[0], Value::Int(3));

        // SPARQL.
        let p = s.prepare_sparql("SELECT ?o WHERE { $e <dangerLevel> ?o }").unwrap();
        let mut cur = s
            .execute_sparql(&p, &SparqlParams::new().set("e", Term::iri("Hg")))
            .unwrap();
        assert_eq!(Rows::columns(&cur), vec!["o"]);
        let row = cur.next_row().unwrap().unwrap();
        assert_eq!(row[0], Value::Int(5));
    }

    #[test]
    fn cursor_collect_matches_legacy_execute() {
        let e = engine();
        let s = Session::new(&e, "director").unwrap();
        let text = "SELECT elem_name FROM elem_contained \
                    ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)";
        let p = s.prepare(text).unwrap();
        let via_cursor = s.execute_cursor(&p, &Params::new()).unwrap().collect().unwrap();
        let legacy = e.execute("director", text).unwrap();
        assert_eq!(via_cursor.rows.rows, legacy.rows.rows);
        assert!(via_cursor.report.result_rows == legacy.report.result_rows);
    }

    #[test]
    fn streaming_limit_stops_scan_early() {
        let e = engine();
        let t = e.database().catalog().get_table("elem_contained").unwrap();
        let mut rows = Vec::new();
        for i in 0..50_000 {
            rows.push(vec![
                Value::from(format!("E{i}")),
                Value::from("x"),
                Value::from(1.0),
            ]);
        }
        t.insert_many(rows).unwrap();
        let s = Session::new(&e, "director").unwrap();
        let p = s.prepare("SELECT elem_name FROM elem_contained LIMIT 5").unwrap();
        let mut cur = s.execute_cursor(&p, &Params::new()).unwrap();
        let mut n = 0;
        while let Some(r) = cur.next_row() {
            r.unwrap();
            n += 1;
        }
        assert_eq!(n, 5);
        let scanned = cur.rows_scanned().expect("streaming path");
        assert!(
            scanned < 5_000,
            "LIMIT 5 over 50k rows scanned {scanned} rows — no short-circuit"
        );
    }

    /// Drain a cursor, returning how many base-table rows it fetched.
    fn drain_scanned(mut cur: EnrichedRows) -> u64 {
        while let Some(r) = cur.next_row() {
            r.unwrap();
        }
        cur.rows_scanned().expect("streaming path")
    }

    /// A 10 000-row table and a statement that scans it four times as
    /// written, once when the optimizer shares the structurally equal
    /// scans through one spool.
    const FOUR_SCANS: &str =
        "SELECT e1.x FROM big e1, big e2 WHERE e1.x = e2.x AND e1.t <> e2.t \
         UNION ALL \
         SELECT e1.x FROM big e1, big e2 WHERE e1.x = e2.x AND e1.t <> e2.t";

    fn engine_with_big_table() -> SesqlEngine {
        let e = engine();
        e.database().execute("CREATE TABLE big (x INT, t TEXT)").unwrap();
        let t = e.database().catalog().get_table("big").unwrap();
        t.insert_many(
            (0..10_000).map(|i| vec![Value::Int(i % 97), Value::from("k")]).collect(),
        )
        .unwrap();
        e
    }

    #[test]
    fn held_handles_follow_the_optimizer_config() {
        use crosse_relational::OptimizerConfig;
        let e = engine_with_big_table();
        let db = e.database();
        let s = Session::new(&e, "director").unwrap();
        let sql = s.prepare_sql(FOUR_SCANS).unwrap();
        let sesql = s.prepare(FOUR_SCANS).unwrap();
        let scanned = || {
            let mut cur = s.execute_sql(&sql, &Params::new()).unwrap();
            while let Some(r) = Rows::next_row(&mut cur) {
                r.unwrap();
            }
            let through_sesql = drain_scanned(s.execute_cursor(&sesql, &Params::new()).unwrap());
            (cur.rows_scanned(), through_sesql)
        };
        assert_eq!(scanned(), (10_000, 10_000));
        // A live handle must not keep replaying the template it optimized
        // under the old configuration.
        db.set_optimizer_config(OptimizerConfig::none());
        assert_eq!(scanned(), (40_000, 40_000));
        db.set_optimizer_config(OptimizerConfig::default());
        assert_eq!(scanned(), (10_000, 10_000));
    }

    #[test]
    fn unenriched_cursor_runs_the_optimized_plan_on_the_thread_budget() {
        let e = engine_with_big_table();
        let db = e.database();
        let s = Session::new(&e, "director").unwrap();

        // The optimizer passes run: four structurally equal scans share
        // one spool, exactly as for the relational `prepare` of the clean
        // SQL, and the scan counter shows the cursor executed that plan.
        let p = s.prepare(FOUR_SCANS).unwrap();
        let sql = s.prepare_sql(&p.query().clean_sql).unwrap();
        let plan = sql.explain().unwrap();
        assert!(plan.contains("Shared spool #"), "{plan}");
        assert_eq!(db.plan_optimized(&p.query().select).unwrap().render(), plan);
        let mut sql_cur = s.execute_sql(&sql, &Params::new()).unwrap();
        while let Some(r) = Rows::next_row(&mut sql_cur) {
            r.unwrap();
        }
        assert_eq!(sql_cur.rows_scanned(), 10_000);
        assert_eq!(drain_scanned(s.execute_cursor(&p, &Params::new()).unwrap()), 10_000);

        // The thread budget is honoured: a filtered scan is dispatched in
        // waves of `threads` batches, so a LIMIT that one batch satisfies
        // still fetches one batch per worker — and no more than that.
        let p = s.prepare("SELECT x FROM big WHERE x >= 0 LIMIT 5").unwrap();
        let sequential = drain_scanned(s.execute_cursor(&p, &Params::new()).unwrap());
        s.set_threads(4);
        let parallel = drain_scanned(s.execute_cursor(&p, &Params::new()).unwrap());
        assert_eq!(parallel, 4 * sequential, "one scan batch per worker");
        assert!(parallel < 10_000, "LIMIT still stops the scan early");
    }

    #[test]
    fn unenriched_collect_reports_the_drain_as_the_sql_leg() {
        let e = engine();
        let s = Session::new(&e, "director").unwrap();
        let p = s.prepare("SELECT elem_name FROM elem_contained ORDER BY elem_name").unwrap();
        let r = s.execute_cursor(&p, &Params::new()).unwrap().collect().unwrap();
        assert_eq!((r.report.base_rows, r.report.result_rows), (3, 3));
        assert!(r.report.sql_exec > std::time::Duration::ZERO);
        assert_eq!(r.report.total(), r.report.sql_exec, "no other stage ran");
    }

    #[test]
    fn enriched_cursor_reports_pipeline() {
        let e = engine();
        let s = Session::new(&e, "director").unwrap();
        let p = s
            .prepare(
                "SELECT elem_name FROM elem_contained \
                 ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)",
            )
            .unwrap();
        let cur = s.execute_cursor(&p, &Params::new()).unwrap();
        assert!(cur.report().is_some());
        assert_eq!(cur.report().unwrap().sparql_runs.len(), 1);
    }
}
