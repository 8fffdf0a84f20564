//! Sessions and the one statement handle for SESQL, SQL and SPARQL.
//!
//! A [`Session`] ties a user's knowledge context to the engine and runs
//! all three languages through one lifecycle:
//!
//! ```text
//! Session::new(engine, user)         (Session::login / Session::open register)
//!   └─ prepare(Lang, text)   → Statement (compiled once, typed parameter slots)
//!        └─ execute(&Params) → Box<dyn Rows> (lazy cursor)
//! ```
//!
//! [`Lang`] picks the front-end: SESQL runs the enrichment pipeline (an
//! un-enriched query streams straight off the relational executor, so
//! `LIMIT` stops the scan), SQL runs on the databank, and SPARQL of any
//! form runs over the user's context graphs on the engine's thread
//! budget. DDL/DML text ([`is_write`]) in SESQL or SQL becomes a write
//! statement: the relational engine executes it, and its cursor yields no
//! rows but reports [`Rows::affected`]. One [`Params`] binds all three
//! languages; a SPARQL parameter takes a string written `<…>` as an IRI
//! and any other value as a literal.
//!
//! [`Session::explain`] and [`Session::lint`] take text, not a statement:
//! lint's `L006` (a literal where a parameter would do) fires only on
//! ad-hoc text.

use std::sync::Arc;
use std::time::Instant;

use crosse_lint::Diagnostic;
use crosse_rdf::sparql::eval::QueryOutcome;
use crosse_rdf::sparql::{Prepared as PreparedSparql, SparqlParams};
use crosse_rdf::term::Term;
use crosse_relational::sql::ast::Statement as SqlStatement;
use crosse_relational::{
    Column, DataType, ExecOutcome, Interner, Params, Prepared as PreparedSql, RowSet, Schema,
    SlotInfo, Value,
};
/// The language of a statement's text (also half of a statement-cache
/// key, which is why the relational crate defines it).
pub use crosse_relational::db::Lang;

use crate::error::{Error, Result};
use crate::platform::check_user_name;
use crate::sqm::{term_to_value_in, EnrichedResult, PipelineReport, PreparedSesql, SesqlEngine};

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
        drain(self)
    }

    /// Base-table rows fetched so far, on the paths that count them
    /// (relational and un-enriched SESQL cursors); `None` elsewhere.
    fn rows_scanned(&self) -> Option<u64> {
        None
    }

    /// The Fig. 6 pipeline report of a SESQL execution. An un-enriched
    /// query executes while it is drained, so its report (the drain as
    /// the SQL leg) exists once the cursor is exhausted.
    fn report(&self) -> Option<&PipelineReport> {
        None
    }

    /// The affected-row count of a write statement, whose cursor yields
    /// no columns and no rows.
    fn affected(&self) -> Option<u64> {
        None
    }
}

fn drain<R: Rows + ?Sized>(cursor: &mut R) -> Result<RowSet> {
    let schema = cursor.schema();
    let mut rows = Vec::new();
    while let Some(r) = cursor.next_row() {
        rows.push(r?);
    }
    Ok(RowSet { schema, rows })
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

    fn rows_scanned(&self) -> Option<u64> {
        Some(crosse_relational::Rows::rows_scanned(self))
    }
}

/// A SPARQL result as a cursor: SELECT variables become columns, ASK is
/// one BOOL column `ask`, CONSTRUCT yields `(subject, predicate, object)`
/// rows. Terms render to values lazily per pulled row (unbound → NULL);
/// a cursor-local interner makes a term that occurs in many rows cost
/// one allocation.
struct SparqlRows {
    schema: Schema,
    rows: std::vec::IntoIter<Vec<Option<Term>>>,
    interner: Interner,
}

impl SparqlRows {
    fn new(outcome: QueryOutcome) -> Self {
        let text = |names: Vec<String>| {
            Schema::new(names.into_iter().map(|n| Column::new(n, DataType::Text)).collect())
        };
        let (schema, rows) = match outcome {
            QueryOutcome::Solutions(sols) => (text(sols.variables), sols.rows),
            QueryOutcome::Boolean(b) => (
                Schema::new(vec![Column::new("ask", DataType::Bool)]),
                vec![vec![Some(Term::lit(b.to_string()))]],
            ),
            QueryOutcome::Graph(triples) => (
                text(vec!["subject".into(), "predicate".into(), "object".into()]),
                triples
                    .into_iter()
                    .map(|t| vec![Some(t.subject), Some(t.predicate), Some(t.object)])
                    .collect(),
            ),
        };
        SparqlRows { schema, rows: rows.into_iter(), interner: Interner::new() }
    }
}

impl Rows for SparqlRows {
    fn columns(&self) -> Vec<String> {
        self.schema.columns.iter().map(|c| c.name.clone()).collect()
    }

    fn next_row(&mut self) -> Option<Result<Vec<Value>>> {
        let interner = &self.interner;
        self.rows.next().map(|row| {
            Ok(row
                .iter()
                .map(|t| t.as_ref().map_or(Value::Null, |t| term_to_value_in(t, interner)))
                .collect())
        })
    }

    fn schema(&self) -> Schema {
        self.schema.clone()
    }
}

/// A write statement's outcome: no columns, no rows, a count.
struct Affected(u64);

impl Rows for Affected {
    fn columns(&self) -> Vec<String> {
        Vec::new()
    }

    fn next_row(&mut self) -> Option<Result<Vec<Value>>> {
        None
    }

    fn affected(&self) -> Option<u64> {
        Some(self.0)
    }
}

enum EnrichedInner {
    /// Un-enriched query streaming straight off the relational executor.
    Streaming(crosse_relational::Rows),
    /// Enrichment pipeline output, streamed from the materialised result.
    Materialized { schema: Schema, rows: std::vec::IntoIter<Vec<Value>> },
}

/// SESQL execution as a cursor, with the pipeline report for the
/// [`EnrichedResult`] collect adapter.
pub struct EnrichedRows {
    inner: EnrichedInner,
    report: PipelineReport,
    /// When a streaming cursor opened; taken when it is exhausted, and
    /// the elapsed drain becomes the report's SQL leg.
    draining: Option<Instant>,
}

impl EnrichedRows {
    pub(crate) fn streaming(rows: crosse_relational::Rows) -> Self {
        EnrichedRows {
            inner: EnrichedInner::Streaming(rows),
            report: PipelineReport::default(),
            draining: Some(Instant::now()),
        }
    }

    pub(crate) fn from_result(result: EnrichedResult) -> Self {
        EnrichedRows {
            inner: EnrichedInner::Materialized {
                schema: result.rows.schema,
                rows: result.rows.rows.into_iter(),
            },
            report: result.report,
            draining: None,
        }
    }

    /// Drain into the [`EnrichedResult`] shape. A streaming cursor
    /// reports its drain time as the SQL leg (lowering is lazy, so the
    /// drain is where an un-enriched query's execution happens).
    pub fn collect(mut self) -> Result<EnrichedResult> {
        let rows = self.collect_rows()?;
        Ok(EnrichedResult { rows, report: self.report })
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
            EnrichedInner::Materialized { rows, .. } => rows.next().map(Ok),
            EnrichedInner::Streaming(rows) => {
                let next = Rows::next_row(rows);
                match (&next, self.draining) {
                    (Some(Ok(_)), _) => self.report.result_rows += 1,
                    (None, Some(t0)) => {
                        self.report.sql_exec = t0.elapsed();
                        self.report.base_rows = self.report.result_rows;
                        self.draining = None;
                    }
                    _ => {}
                }
                next
            }
        }
    }

    fn schema(&self) -> Schema {
        match &self.inner {
            EnrichedInner::Streaming(rows) => Rows::schema(rows),
            EnrichedInner::Materialized { schema, .. } => schema.clone(),
        }
    }

    fn collect_rows(&mut self) -> Result<RowSet> {
        match &mut self.inner {
            // Hand the pipeline's row vector over whole.
            EnrichedInner::Materialized { schema, rows } => {
                Ok(RowSet { schema: schema.clone(), rows: std::mem::take(rows).collect() })
            }
            EnrichedInner::Streaming(_) => drain(self),
        }
    }

    fn rows_scanned(&self) -> Option<u64> {
        match &self.inner {
            EnrichedInner::Streaming(rows) => Some(rows.rows_scanned()),
            EnrichedInner::Materialized { .. } => None,
        }
    }

    fn report(&self) -> Option<&PipelineReport> {
        self.draining.is_none().then_some(&self.report)
    }
}

/// Whether `text` is DDL/DML (`CREATE`, `INSERT`, `UPDATE`, `DELETE`,
/// `DROP`), which runs on the relational engine as a write whether it
/// arrives as SESQL or SQL.
pub fn is_write(text: &str) -> bool {
    let head = text.split_whitespace().next().unwrap_or_default();
    ["CREATE", "INSERT", "UPDATE", "DELETE", "DROP"]
        .iter()
        .any(|k| head.eq_ignore_ascii_case(k))
}

/// Bind `params` as SPARQL terms: a string written `<…>` is an IRI, any
/// other value a (typed) literal; NULL cannot bind.
fn sparql_params(params: &Params) -> Result<SparqlParams> {
    const XSD: &str = "http://www.w3.org/2001/XMLSchema#";
    let term = |name: &str, value: &Value| -> Result<Term> {
        Ok(match value {
            Value::Null => {
                return Err(Error::platform(format!(
                    "SPARQL parameter `{name}` cannot be NULL"
                )))
            }
            Value::Bool(v) => Term::typed_lit(v.to_string(), format!("{XSD}boolean")),
            Value::Int(v) => Term::typed_lit(v.to_string(), format!("{XSD}integer")),
            Value::Float(v) => Term::typed_lit(v.to_string(), format!("{XSD}double")),
            Value::Str(s) => match s.strip_prefix('<').and_then(|rest| rest.strip_suffix('>')) {
                Some(iri) => Term::iri(iri),
                None => Term::lit(&**s),
            },
        })
    };
    let mut out = SparqlParams::new();
    for (name, value) in params.named() {
        out = out.set(name, term(&format!("${name}"), value)?);
    }
    for value in params.positional() {
        out = out.push(term("?", value)?);
    }
    Ok(out)
}

/// A user session: the engine plus the user's knowledge context.
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

    /// Open a session for `user`, registering the name on first contact
    /// (the server's `HELLO`). The name must pass
    /// [`check_user_name`].
    pub fn login(engine: &SesqlEngine, user: &str) -> Result<Session> {
        check_user_name(user)?;
        let kb = engine.knowledge_base();
        if !kb.is_registered(user) {
            kb.register_user(user)?;
        }
        Session::new(engine, user)
    }

    /// Open a durable engine at `dir` and [`Session::login`] to it.
    /// Registration, like every mutation on a durable engine, is logged,
    /// so the user survives restarts.
    pub fn open(dir: impl AsRef<std::path::Path>, user: &str) -> Result<Session> {
        Session::login(&SesqlEngine::open(dir)?, user)
    }

    pub fn user(&self) -> &str {
        &self.user
    }

    pub fn engine(&self) -> &SesqlEngine {
        &self.engine
    }

    /// Compile `text` once into a [`Statement`]. SESQL and SQL go through
    /// the databank's statement cache, one entry per (language, shape);
    /// SPARQL of any form is parsed and compiled here; DDL/DML
    /// ([`is_write`]) is parsed now and executed by each
    /// [`Statement::execute`].
    pub fn prepare(&self, lang: Lang, text: &str) -> Result<Statement> {
        let compiled = match lang {
            Lang::Sparql => Compiled::Sparql(crosse_rdf::sparql::prepare_any(text)?),
            _ if is_write(text) => {
                Compiled::Write(crosse_relational::sql::parser::parse_statement(text)?)
            }
            Lang::Sesql => Compiled::Sesql(Box::new(self.engine.prepare(text)?)),
            Lang::Sql => Compiled::Sql(self.engine.database().prepare(text)?),
        };
        Ok(Statement { session: self.clone(), lang, text: text.to_string(), compiled })
    }

    /// Explain a statement without executing it. SESQL (which covers
    /// plain SQL) shows the cleaned SQL, the optimized relational plan
    /// with its rewrite-pass annotations and, for enriched queries, the
    /// SPARQL legs the SQM would issue; SQL shows the `EXPLAIN` tree.
    /// SPARQL has no plan rendering.
    pub fn explain(&self, lang: Lang, text: &str) -> Result<String> {
        match lang {
            Lang::Sesql => self.engine.explain(&self.user, text),
            Lang::Sql => Ok(self.engine.database().prepare(text)?.explain()?),
            Lang::Sparql => Err(Error::platform("EXPLAIN covers SESQL and SQL, not SPARQL")),
        }
    }

    /// Lint statement text in this session's knowledge context without
    /// executing it: SESQL runs every rule family (see
    /// [`SesqlEngine::lint`]), SQL the `L…` rules, SPARQL the `S…` rules.
    /// Parse errors are errors; findings are the returned list.
    pub fn lint(&self, lang: Lang, text: &str) -> Result<Vec<Diagnostic>> {
        match lang {
            Lang::Sesql => self.engine.lint(&self.user, text),
            Lang::Sql => Ok(self.engine.database().lint(text)?),
            Lang::Sparql => {
                let parsed = crosse_rdf::sparql::parser::parse_any(text)?;
                Ok(crosse_rdf::sparql::lint::lint_parsed(&parsed, text))
            }
        }
    }
}

#[derive(Clone)]
enum Compiled {
    Sesql(Box<PreparedSesql>),
    Sql(PreparedSql),
    Sparql(PreparedSparql),
    /// DDL/DML, executed by the relational engine.
    Write(SqlStatement),
}

/// A compiled statement of any language, bound to its session: the one
/// handle behind the CLI, the server's `Query`/`Prepare`/`Execute` and
/// library callers. Cheap to clone.
#[derive(Clone)]
pub struct Statement {
    session: Session,
    lang: Lang,
    text: String,
    compiled: Compiled,
}

impl Statement {
    pub fn lang(&self) -> Lang {
        self.lang
    }

    /// The statement text as prepared.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// The parameter slots, in binding order. SQL and SESQL slots are
    /// typed against the live catalog; SPARQL slots take any value.
    pub fn param_slots(&self) -> Arc<Vec<SlotInfo>> {
        match &self.compiled {
            Compiled::Sesql(p) => p.param_slots(),
            Compiled::Sql(p) => p.param_slots(),
            Compiled::Sparql(p) => Arc::new(
                p.params()
                    .iter()
                    .map(|slot| SlotInfo {
                        name: (!slot.starts_with('#')).then(|| slot.clone()),
                        expected: None,
                    })
                    .collect(),
            ),
            Compiled::Write(_) => Arc::default(),
        }
    }

    /// Bind `params` and execute in the session's context, returning the
    /// cursor. A write runs here, to completion.
    pub fn execute(&self, params: &Params) -> Result<Box<dyn Rows>> {
        let Session { engine, user } = &self.session;
        Ok(match &self.compiled {
            Compiled::Sesql(p) => Box::new(p.execute_cursor(user, params)?),
            Compiled::Sql(p) => Box::new(p.execute(params)?),
            Compiled::Sparql(p) => {
                let kb = engine.knowledge_base();
                let graphs = kb.context_graphs(user);
                let refs: Vec<&str> = graphs.iter().map(String::as_str).collect();
                let outcome = p.run(kb.store(), &refs, &sparql_params(params)?)?;
                Box::new(SparqlRows::new(outcome))
            }
            Compiled::Write(stmt) => match engine.database().execute_statement(stmt.clone())? {
                ExecOutcome::Affected(n) => Box::new(Affected(n as u64)),
                // DDL; only SELECT and EXPLAIN, never writes, return rows.
                _ => Box::new(Affected(0)),
            },
        })
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
        kb.register_user("director").unwrap();
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
                Lang::Sesql,
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
                Lang::Sesql,
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
                Lang::Sesql,
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
                Lang::Sesql,
                "SELECT elem_name FROM elem_contained \
                 ENRICH SCHEMAEXTENSION(elem_name, noSuchProperty)",
            )
            .unwrap();
        assert_eq!(diags.iter().map(|d| d.code).collect::<Vec<_>>(), vec!["E003"]);
        // A verbatim IRI is deliberate — never flagged.
        let diags = s
            .lint(
                Lang::Sesql,
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
                Lang::Sesql,
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
        let p = e.prepare("SELECT elem_name FROM elem_contained WHERE 1 = 2").unwrap();
        assert_eq!(p.warnings().iter().map(|d| d.code).collect::<Vec<_>>(), vec!["L001"]);
        // Clean parameterised query: params are fine at prepare time.
        let p = e
            .prepare("SELECT elem_name FROM elem_contained WHERE landfill_name = $lf")
            .unwrap();
        assert!(p.warnings().is_empty());
    }

    #[test]
    fn lint_sparql_surfaces_s_rules() {
        let e = engine();
        let s = Session::new(&e, "director").unwrap();
        let diags = s
            .lint(Lang::Sparql, "SELECT ?s ?ghost WHERE { ?s <urn:p> ?o . ?o <urn:q> <urn:x> }")
            .unwrap();
        assert!(diags.iter().map(|d| d.code).any(|c| c == "S002"), "got {diags:?}");
    }

    #[test]
    fn explain_carries_lint_footer() {
        let e = engine();
        let s = Session::new(&e, "director").unwrap();
        let out = s
            .explain(
                Lang::Sesql,
                "SELECT elem_name FROM elem_contained WHERE ${amount > 10:cond1} \
                 ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)",
            )
            .unwrap();
        assert!(out.contains("-- lint: warning[E001]"), "got:\n{out}");
        // Clean statements keep their EXPLAIN output footer-free.
        let out = s.explain(Lang::Sesql, "SELECT elem_name FROM elem_contained").unwrap();
        assert!(!out.contains("-- lint:"), "got:\n{out}");
    }

    #[test]
    fn session_requires_registered_user() {
        let e = engine();
        assert!(Session::new(&e, "director").is_ok());
        assert!(Session::new(&e, "nobody").is_err());
    }

    #[test]
    fn login_checks_the_user_name_and_registers() {
        let e = engine();
        assert!(Session::login(&e, "bad name").is_err());
        assert!(!e.knowledge_base().is_registered("bad name"));
        assert_eq!(Session::login(&e, "newcomer").unwrap().user(), "newcomer");
        assert!(e.knowledge_base().is_registered("newcomer"));
    }

    #[test]
    fn open_rejects_a_bad_user_name() {
        let dir = std::env::temp_dir().join(format!("crosse-session-open-{}", std::process::id()));
        let err = Session::open(&dir, "bad name").err().expect("bad name must not log in");
        assert!(err.to_string().contains("invalid user name"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sesql_prepare_execute_with_params() {
        let e = engine();
        let s = Session::new(&e, "director").unwrap();
        let p = s
            .prepare(
                Lang::Sesql,
                "SELECT elem_name FROM elem_contained WHERE landfill_name = $lf \
                 ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)",
            )
            .unwrap();
        assert_eq!(p.param_slots().len(), 1);
        let r = p.execute(&Params::new().set("lf", "a")).unwrap().collect_rows().unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r.schema.columns[1].name, "dangerLevel");
        // Execute-many: same handle, new binding, no re-parse.
        let r = p.execute(&Params::new().set("lf", "b")).unwrap().collect_rows().unwrap();
        assert_eq!(r.len(), 1);
        assert!(r.rows[0][1].is_null(), "Cu has no danger level");
    }

    #[test]
    fn prepared_cache_hits_across_sessions() {
        let e = engine();
        let s = Session::new(&e, "director").unwrap();
        let q = "SELECT elem_name FROM elem_contained WHERE landfill_name = $lf";
        let _p1 = s.prepare(Lang::Sesql, q).unwrap();
        let _p2 = s
            .prepare(Lang::Sesql, "SELECT elem_name  FROM elem_contained WHERE landfill_name = $lf")
            .unwrap();
        let stats = e.prepared_cache_stats();
        assert_eq!(stats.hits, 1, "{stats:?}");
        assert_eq!(stats.misses, 1, "{stats:?}");
    }

    #[test]
    fn unified_cursor_over_all_three_languages() {
        let e = engine();
        let s = Session::new(&e, "director").unwrap();
        let none = Params::new();

        // SESQL (un-enriched → streaming).
        let p = s
            .prepare(Lang::Sesql, "SELECT elem_name FROM elem_contained ORDER BY elem_name")
            .unwrap();
        let mut cur = p.execute(&none).unwrap();
        assert_eq!(cur.columns(), vec!["elem_name"]);
        assert_eq!(cur.next_row().unwrap().unwrap()[0], Value::from("Cu"));

        // SQL.
        let p = s.prepare(Lang::Sql, "SELECT COUNT(*) AS n FROM elem_contained").unwrap();
        let mut cur = p.execute(&none).unwrap();
        assert_eq!(cur.columns(), vec!["n"]);
        assert_eq!(cur.next_row().unwrap().unwrap()[0], Value::Int(3));

        // SPARQL: the same `Params`, a `<…>` string binding an IRI.
        let p = s.prepare(Lang::Sparql, "SELECT ?o WHERE { $e <dangerLevel> ?o }").unwrap();
        assert_eq!(p.param_slots()[0].display(), "$e");
        let mut cur = p.execute(&Params::new().set("e", "<Hg>")).unwrap();
        assert_eq!(cur.columns(), vec!["o"]);
        assert_eq!(cur.next_row().unwrap().unwrap()[0], Value::Int(5));
        // Any other string binds a literal, which no subject is.
        let mut cur = p.execute(&Params::new().set("e", "Hg")).unwrap();
        assert!(cur.next_row().is_none());
    }

    #[test]
    fn write_statements_report_affected_rows() {
        let e = engine();
        let s = Session::new(&e, "director").unwrap();
        assert!(is_write("  insert INTO t VALUES (1)") && !is_write("SELECT 1"));
        for lang in [Lang::Sesql, Lang::Sql] {
            let create = s.prepare(lang, "CREATE OR REPLACE TABLE w (a INT)").unwrap();
            let mut cur = create.execute(&Params::new()).unwrap();
            assert_eq!((cur.affected(), cur.columns().len()), (Some(0), 0));
            assert!(cur.next_row().is_none());
            let insert = s.prepare(lang, "INSERT INTO w VALUES (1), (2)").unwrap();
            assert!(insert.param_slots().is_empty());
            assert_eq!(insert.execute(&Params::new()).unwrap().affected(), Some(2));
        }
        // A prepared write runs once per execution.
        assert_eq!(e.database().query("SELECT a FROM w").unwrap().len(), 2);
    }

    #[test]
    fn cursor_collect_matches_legacy_execute() {
        let e = engine();
        let s = Session::new(&e, "director").unwrap();
        let text = "SELECT elem_name FROM elem_contained \
                    ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)";
        let mut cur = s.prepare(Lang::Sesql, text).unwrap().execute(&Params::new()).unwrap();
        let via_cursor = cur.collect_rows().unwrap();
        let ad_hoc = e.execute("director", text).unwrap();
        assert_eq!(via_cursor.rows, ad_hoc.rows.rows);
        assert_eq!(cur.report().unwrap().result_rows, ad_hoc.report.result_rows);
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
        let p = s.prepare(Lang::Sesql, "SELECT elem_name FROM elem_contained LIMIT 5").unwrap();
        let mut cur = p.execute(&Params::new()).unwrap();
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

    /// Execute a statement and drain it, returning how many base-table
    /// rows it fetched.
    fn drain_scanned(stmt: &Statement) -> u64 {
        let mut cur = stmt.execute(&Params::new()).unwrap();
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
        let sql = s.prepare(Lang::Sql, FOUR_SCANS).unwrap();
        let sesql = s.prepare(Lang::Sesql, FOUR_SCANS).unwrap();
        let scanned = || (drain_scanned(&sql), drain_scanned(&sesql));
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
        let query = e.prepare(FOUR_SCANS).unwrap().query().clone();
        let plan = s.explain(Lang::Sql, &query.clean_sql).unwrap();
        assert!(plan.contains("Shared spool #"), "{plan}");
        assert_eq!(db.plan_optimized(&query.select).unwrap().render(), plan);
        assert_eq!(drain_scanned(&s.prepare(Lang::Sql, &query.clean_sql).unwrap()), 10_000);
        assert_eq!(drain_scanned(&s.prepare(Lang::Sesql, FOUR_SCANS).unwrap()), 10_000);

        // The thread budget is honoured: a filtered scan is dispatched in
        // waves of `threads` batches, so a LIMIT that one batch satisfies
        // still fetches one batch per worker — and no more than that.
        let p = s.prepare(Lang::Sesql, "SELECT x FROM big WHERE x >= 0 LIMIT 5").unwrap();
        let sequential = drain_scanned(&p);
        e.set_exec_threads(4);
        let parallel = drain_scanned(&p);
        assert_eq!(parallel, 4 * sequential, "one scan batch per worker");
        assert!(parallel < 10_000, "LIMIT still stops the scan early");
    }

    #[test]
    fn unenriched_collect_reports_the_drain_as_the_sql_leg() {
        let e = engine();
        let s = Session::new(&e, "director").unwrap();
        let p = s
            .prepare(Lang::Sesql, "SELECT elem_name FROM elem_contained ORDER BY elem_name")
            .unwrap();
        let mut cur = p.execute(&Params::new()).unwrap();
        assert!(cur.report().is_none(), "nothing has executed yet");
        cur.collect_rows().unwrap();
        let report = cur.report().expect("drained");
        assert_eq!((report.base_rows, report.result_rows), (3, 3));
        assert!(report.sql_exec > std::time::Duration::ZERO);
        assert_eq!(report.total(), report.sql_exec, "no other stage ran");
        // The collect adapter reports the same drain.
        let r = e.prepare(p.text()).unwrap().execute("director", &Params::new()).unwrap();
        assert_eq!((r.report.base_rows, r.report.total()), (3, r.report.sql_exec));
    }

    #[test]
    fn enriched_cursor_reports_pipeline() {
        let e = engine();
        let s = Session::new(&e, "director").unwrap();
        let p = s
            .prepare(
                Lang::Sesql,
                "SELECT elem_name FROM elem_contained \
                 ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)",
            )
            .unwrap();
        let cur = p.execute(&Params::new()).unwrap();
        assert_eq!(cur.report().unwrap().sparql_runs.len(), 1);
        assert_eq!(cur.rows_scanned(), None);
    }
}
