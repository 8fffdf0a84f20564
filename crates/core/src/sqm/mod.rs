//! The Semantic Query Module (SQM): SESQL execution (paper Fig. 6).
//!
//! Execution follows the paper's architecture: the Semantic Query Parser
//! splits the query; the SQM derives SPARQL queries from the enrichment
//! syntax tree; SQL and SPARQL legs run independently; one enrichment pass
//! (`enrich`) combines their results through the resource mapping and
//! writes each enriched row once, in its final column order. The paper's
//! JoinManager, its "temporary support database" and its "final SQL
//! query" are that one pass here — no second database, no SQL text, no
//! second move of the rows. Every stage is timed in [`PipelineReport`] so
//! the E2 experiment can regenerate the Fig. 6 pipeline breakdown.
//!
//! Every SESQL execution enters through [`SesqlEngine::prepare`] and
//! [`PreparedSesql::execute_cursor`]; `SesqlEngine::run` is the one place
//! that checks the user, decides between streaming and the pipeline, and
//! holds Phases A–C.

use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crosse_cache::Lru;
use crosse_rdf::provenance::KnowledgeBase;
use crosse_rdf::sparql::eval::{EvalOptions, Solutions};
use crosse_rdf::sparql::{Prepared as PreparedSparql, SparqlParams};
use crosse_rdf::stored::StoredQueries;
use crosse_rdf::term::Term;
use crosse_lint::Diagnostic;
use crosse_relational::sql::ast::{BinaryOp, Expr, Select, TableRef};
use crosse_relational::{Column, DataType, Database, Row, RowSet, Schema, Value};

pub use crate::mapping::{MapStrategy, ResourceMapping};

use crate::error::{Error, Result};
use crate::session::EnrichedRows;
use crate::storage::EngineDurability;
use crate::sesql::ast::{Enrichment, SesqlQuery};
use crate::sesql::parser::parse_sesql;

mod enrich;
mod explain;
mod legs;
mod prepared;
mod rewrite;

pub use prepared::{normalize_sesql, PreparedSesql};

pub(crate) use enrich::term_to_value_in;
use legs::{apply_multi_policy, SparqlLegCache};
use prepared::CachedSesql;
use rewrite::{replace_condition, rewrite_constant};

/// How multi-valued enrichments materialise (a subject may have several
/// objects for the chosen property; the paper leaves this open).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MultiValuePolicy {
    /// One output row per (row, object) pair — natural join semantics.
    #[default]
    RowPerMatch,
    /// Keep only the first object per subject.
    FirstMatch,
    /// Concatenate all objects into one `"; "`-separated value.
    Concatenate,
}

/// User-tunable enrichment behaviour ("which may or may not contain the
/// initial value according to the user preferences", paper Sec. III-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EnrichOptions {
    pub multi: MultiValuePolicy,
    /// For the WHERE enrichments: whether the original value/condition is
    /// kept alongside the ontology-derived expansion.
    pub include_self: bool,
}

impl Default for EnrichOptions {
    fn default() -> Self {
        EnrichOptions {
            multi: MultiValuePolicy::RowPerMatch,
            include_self: true,
        }
    }
}

/// One SPARQL leg executed during enrichment.
#[derive(Debug, Clone)]
pub struct SparqlRun {
    /// What the query was generated for (e.g. `SCHEMAEXTENSION(elem_name,
    /// dangerLevel)`).
    pub purpose: String,
    /// The generated SPARQL text.
    pub sparql: String,
    pub solutions: usize,
    pub duration: Duration,
    /// Served from the SPARQL-leg cache (knowledge base unchanged since
    /// the cached evaluation).
    pub cached: bool,
    /// Served from the REPLACEVARIABLE pairs table (the relational form
    /// that feeds the shared/spooled leg of the rewritten compound): the
    /// SPARQL evaluation *and* the term→value pairs conversion were both
    /// skipped. `cached && !shared` is a solution-cache hit; `!cached` is
    /// a recomputed leg.
    pub shared: bool,
}

/// Stage-by-stage timing of one SESQL execution (Fig. 6 pipeline).
#[derive(Debug, Clone, Default)]
pub struct PipelineReport {
    /// Semantic Query Parser (split + clean + parse).
    pub parse: Duration,
    /// The SQL leg on the relational databank.
    pub sql_exec: Duration,
    /// All SPARQL legs on the knowledge base.
    pub sparql_exec: Duration,
    /// The enrichment pass: keying the SPARQL legs' solutions and writing
    /// every enriched row (the paper's JoinManager and final SQL query).
    pub join: Duration,
    /// Always zero: the enrichment pass writes the rows in their output
    /// order, so nothing is left for the paper's "final SQL query". Kept
    /// because the benchmark harness reads every field of this report.
    pub final_sql: Duration,
    pub sparql_runs: Vec<SparqlRun>,
    /// Rows returned by the SQL leg before enrichment.
    pub base_rows: usize,
    /// Rows in the final enriched result.
    pub result_rows: usize,
}

impl PipelineReport {
    /// Total pipeline wall time.
    pub fn total(&self) -> Duration {
        self.parse + self.sql_exec + self.sparql_exec + self.join + self.final_sql
    }
}

/// A SESQL result: the enriched rows plus the pipeline report.
#[derive(Debug, Clone)]
pub struct EnrichedResult {
    pub rows: RowSet,
    pub report: PipelineReport,
}

/// Default capacity of the engine's bounded caches (SPARQL-leg solutions,
/// compiled SPARQL legs, prepared SESQL queries).
pub const DEFAULT_CACHE_CAPACITY: usize = 256;

/// Cumulative cache statistics (hits, misses, LRU evictions) — shared
/// shape across the engine's caches.
pub use crosse_cache::CacheStats;

/// The SESQL engine: relational databank + knowledge base + registries.
#[derive(Clone)]
pub struct SesqlEngine {
    db: Database,
    kb: KnowledgeBase,
    stored: StoredQueries,
    mapping: ResourceMapping,
    options: EnrichOptions,
    cache: Arc<SparqlLegCache>,
    /// Compiled SPARQL legs keyed by query text (bounded LRU): a generated
    /// leg compiles once, then every execution runs the compiled operator
    /// tree. The result cache above is version-checked; this one never
    /// needs invalidation, because a compiled leg holds no data (its
    /// constants are resolved against the store per execution).
    compiled_legs: Arc<Mutex<Lru<String, Arc<PreparedSparql>>>>,
    /// Prepared SESQL queries keyed by normalized text (bounded LRU):
    /// repeated `prepare` traffic skips the scanner + both parsers.
    prepared: Arc<Mutex<Lru<String, CachedSesql>>>,
    /// The data directory's log and checkpointer when the engine was
    /// opened from one ([`SesqlEngine::open`]); `None` in memory.
    durability: Option<Arc<EngineDurability>>,
}

impl SesqlEngine {
    pub fn new(db: Database, kb: KnowledgeBase) -> Self {
        SesqlEngine {
            db,
            kb,
            stored: StoredQueries::new(),
            mapping: ResourceMapping::new(),
            options: EnrichOptions::default(),
            cache: Arc::default(),
            compiled_legs: Arc::new(Mutex::new_labeled("sesql.ast_cache", Lru::new(DEFAULT_CACHE_CAPACITY))),
            prepared: Arc::new(Mutex::new_labeled("sesql.prepared_cache", Lru::new(DEFAULT_CACHE_CAPACITY))),
            durability: None,
        }
    }

    pub(crate) fn with_durability(self, durability: EngineDurability) -> Self {
        SesqlEngine { durability: Some(Arc::new(durability)), ..self }
    }

    /// Open (or create) a durable engine backed by the write-ahead log at
    /// `dir`: loads the latest snapshot of both substrates, replays the
    /// log tail, and attaches the redo sinks so every subsequent
    /// relational or RDF mutation is logged. See [`crate::storage`].
    pub fn open(dir: impl AsRef<std::path::Path>) -> Result<SesqlEngine> {
        crate::storage::open_engine(dir, crate::storage::WalOptions::default())
    }

    /// [`SesqlEngine::open`] with explicit WAL options (sync policy).
    pub fn open_with(
        dir: impl AsRef<std::path::Path>,
        opts: crate::storage::WalOptions,
    ) -> Result<SesqlEngine> {
        crate::storage::open_engine(dir, opts)
    }

    /// Whether this engine logs to a write-ahead log.
    pub fn is_durable(&self) -> bool {
        self.durability.is_some()
    }

    fn durability(&self) -> Result<&EngineDurability> {
        self.durability
            .as_deref()
            .ok_or_else(|| Error::storage("engine was not opened from a data directory"))
    }

    /// Take a checkpoint: pin the relational catalog and the triple store
    /// at one LSN under the WAL barrier, write the two-section snapshot
    /// off-thread, truncate the log. Errors if the engine is in-memory.
    pub fn checkpoint(&self) -> Result<u64> {
        self.durability()?.checkpoint()
    }

    /// Wait for any in-flight checkpoint and surface its error, if any.
    pub fn checkpoint_join(&self) -> Result<()> {
        self.durability()?.checkpoint_join()
    }

    /// WAL statistics, or `None` for an in-memory engine.
    pub fn wal_stats(&self) -> Option<crate::storage::WalStats> {
        self.durability.as_ref().map(|d| d.wal_stats())
    }

    /// Per-site lock counters from the concurrency tracking layer (CLI
    /// `\lock-stats`). Empty in release builds and when tracking is off;
    /// see [`crosse_relational::Database::lock_stats`].
    pub fn lock_stats(&self) -> Vec<crosse_relational::LockSiteStats> {
        self.db.lock_stats()
    }

    /// Non-fatal notes from recovery (e.g. a torn final record truncated
    /// away). Empty for in-memory engines and clean opens.
    pub fn recovery_warnings(&self) -> Vec<String> {
        self.durability
            .as_ref()
            .map(|d| d.recovery_warnings().to_vec())
            .unwrap_or_default()
    }

    /// Set the engine-wide worker-thread budget for intra-query
    /// parallelism: relational scans/filters/projections and hash-join
    /// probes partition pinned table snapshots, and SPARQL probe batches
    /// partition across the same pool. 1 (the default) is sequential; 0 is
    /// clamped to 1. The budget lives on the shared [`Database`], so every
    /// engine clone — and direct `Database` users — see one setting.
    pub fn set_exec_threads(&self, threads: usize) {
        self.db.set_exec_threads(threads);
    }

    /// Current worker-thread budget (see [`SesqlEngine::set_exec_threads`]).
    pub fn exec_threads(&self) -> usize {
        self.db.exec_threads()
    }

    /// SPARQL-leg solution cache statistics.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Compiled-SPARQL-leg cache statistics (the LRU of generated legs'
    /// compiled operator trees; the name predates the operator tree).
    pub fn ast_cache_stats(&self) -> CacheStats {
        self.compiled_legs.lock().stats()
    }

    /// Prepared-SESQL cache statistics.
    pub fn prepared_cache_stats(&self) -> CacheStats {
        self.prepared.lock().stats()
    }

    /// Resize every engine-level cache (solutions, pairs tables, compiled
    /// SPARQL legs, prepared queries). Capacity 0 is the way to switch caching
    /// off: every leg is evaluated, and a REPLACEVARIABLE query's pairs
    /// table lives exactly as long as the query.
    pub fn set_cache_capacity(&self, capacity: usize) {
        self.cache.entries.lock().set_capacity(capacity);
        // Evicted pairs tables leave the catalog after the cache lock.
        let evicted = self.cache.pairs.lock().set_capacity(capacity);
        drop(evicted);
        self.compiled_legs.lock().set_capacity(capacity);
        self.prepared.lock().set_capacity(capacity);
    }

    /// Drop all cached SPARQL-leg results, including REPLACEVARIABLE
    /// pairs entries; each pairs table leaves the catalog once no running
    /// query reads it.
    pub fn clear_cache(&self) {
        self.cache.entries.lock().clear();
        let cleared = self.cache.pairs.lock().clear();
        drop(cleared);
    }

    pub fn with_options(mut self, options: EnrichOptions) -> Self {
        self.options = options;
        self
    }

    pub fn with_mapping(mut self, mapping: ResourceMapping) -> Self {
        self.mapping = mapping;
        self
    }

    pub fn database(&self) -> &Database {
        &self.db
    }

    pub fn knowledge_base(&self) -> &KnowledgeBase {
        &self.kb
    }

    pub fn stored_queries(&self) -> &StoredQueries {
        &self.stored
    }

    pub fn options(&self) -> EnrichOptions {
        self.options
    }

    /// Prepare and execute a SESQL query in `user`'s knowledge context:
    /// `prepare(sesql)?.execute(user, no params)`, with the time `prepare`
    /// took (a cache lookup for repeated text) reported as the `parse`
    /// stage.
    pub fn execute(&self, user: &str, sesql: &str) -> Result<EnrichedResult> {
        let t0 = Instant::now();
        let prepared = self.prepare(sesql)?;
        let parse = t0.elapsed();
        let mut result = prepared.execute(user, &crosse_relational::Params::new())?;
        result.report.parse = parse;
        Ok(result)
    }

    /// Execute a prepared SESQL statement — the single path every
    /// execution takes. Un-enriched queries stream straight off the
    /// relational executor (optimized plan, the engine's thread budget; a
    /// `LIMIT` stops the base-table scan early); enriched queries run the
    /// Fig. 6 pipeline and stream its rows out. Either way the SQL leg is
    /// a relational [`Prepared`](crosse_relational::Prepared): the
    /// statement's own handle, or — when a WHERE-clause enrichment
    /// rewrites the SELECT first — one compiled from the rewritten AST.
    fn run(
        &self,
        user: &str,
        stmt: &PreparedSesql,
        params: &crosse_relational::Params,
    ) -> Result<EnrichedRows> {
        if !self.kb.is_registered(user) {
            return Err(Error::platform(format!("user `{user}` is not registered")));
        }
        let query = &*stmt.query;
        if query.has_params() && params.is_empty() {
            return Err(Error::sqm(
                "query has unbound parameters — bind them before execution",
            ));
        }
        if !query.is_enriched() {
            return Ok(EnrichedRows::streaming(stmt.sql.execute(params)?));
        }
        let mut report = PipelineReport::default();

        let rows = if !query.enrichments.iter().any(Enrichment::is_where_enrichment) {
            // -------- Phase B alone: the statement's own SQL leg ----------
            let t = Instant::now();
            let rows = stmt.sql.query(params)?;
            report.sql_exec = t.elapsed();
            rows
        } else {
            // -------- Phase A: WHERE-clause enrichments (AST rewrites) ----
            // The rewrites work on literals, so parameters are bound first.
            let bound;
            let query = if query.has_params() {
                bound = stmt.bind(params)?;
                &bound
            } else {
                query
            };
            let mut select = (*query.select).clone();
            let mut variable_ops: Vec<&Enrichment> = Vec::new();
            for e in &query.enrichments {
                match e {
                    Enrichment::ReplaceConstant { cond, constant, property } => {
                        let values = self
                            .replacement_values(user, constant, property, e, &mut report)?;
                        let cond_expr = &query.conditions[cond];
                        let rewritten =
                            rewrite_constant(cond_expr.clone(), constant, &values)?;
                        replace_condition(&mut select, cond_expr, rewritten)?;
                    }
                    Enrichment::ReplaceVariable { .. } => variable_ops.push(e),
                    _ => {}
                }
            }
            if variable_ops.len() > 1 {
                return Err(Error::sqm(
                    "at most one REPLACEVARIABLE clause per query is supported",
                ));
            }

            // -------- Phase B: the rewritten SQL leg ----------------------
            let t = Instant::now();
            let rows = match variable_ops.first() {
                None => self
                    .db
                    .compile(Arc::new(select))
                    .execute_once(&crosse_relational::Params::new())?
                    .collect_rows()?,
                Some(Enrichment::ReplaceVariable { cond, attr, property }) => self
                    .execute_with_variable_expansion(
                        user,
                        &select,
                        &query.conditions[cond.as_str()],
                        attr,
                        property,
                        &mut report,
                    )?,
                Some(_) => unreachable!("filtered above"),
            };
            report.sql_exec = t.elapsed();
            rows
        };
        report.base_rows = rows.len();

        // -------- Phase C: schema enrichments (SPARQL legs + one pass) -----
        let rows = self.enrich(user, query, rows, &mut report)?;
        report.result_rows = rows.len();

        Ok(EnrichedRows::from_result(EnrichedResult { rows, report }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    pub(super) use crosse_rdf::store::Triple;

    pub(super) fn iri(s: &str) -> Term {
        Term::iri(s)
    }
    pub(super) fn lit(s: &str) -> Term {
        Term::lit(s)
    }

    /// The running example data: the SmartGround fragment of Fig. 3 plus
    /// the director's personal ontology from the paper's examples.
    pub(super) fn engine() -> SesqlEngine {
        let db = Database::new();
        db.execute_script(
            "CREATE TABLE landfill (name TEXT, city TEXT);
             INSERT INTO landfill VALUES
               ('a', 'Torino'), ('b', 'Lyon'), ('c', 'Collegno');
             CREATE TABLE elem_contained (elem_name TEXT, landfill_name TEXT, amount FLOAT);
             INSERT INTO elem_contained VALUES
               ('Hg', 'a', 12.5), ('Pb', 'a', 30.0), ('Cu', 'a', 100.0),
               ('As', 'b', 5.2), ('Hg', 'c', 3.5), ('Sn', 'c', 7.0);",
        )
        .unwrap();

        let kb = KnowledgeBase::new();
        kb.register_user("director").unwrap();
        for (s, p, o) in [
            ("Hg", "dangerLevel", "5"),
            ("Pb", "dangerLevel", "4"),
            ("As", "dangerLevel", "5"),
            ("Cu", "dangerLevel", "1"),
        ] {
            kb.assert_statement("director", &Triple::new(iri(s), iri(p), lit(o)))
                .unwrap();
        }
        for (s, o) in [("Hg", "HazardousWaste"), ("Pb", "HazardousWaste"), ("As", "HazardousWaste")] {
            kb.assert_statement("director", &Triple::new(iri(s), iri("isA"), iri(o)))
                .unwrap();
        }
        for (s, o) in [("Torino", "Italy"), ("Collegno", "Italy"), ("Lyon", "France")] {
            kb.assert_statement("director", &Triple::new(iri(s), iri("inCountry"), iri(o)))
                .unwrap();
        }
        // ore assemblage: Hg occurs with As and Sb; Sn with Cu.
        for (s, o) in [("Hg", "As"), ("Hg", "Sb"), ("Sn", "Cu")] {
            kb.assert_statement("director", &Triple::new(iri(s), iri("oreAssemblage"), iri(o)))
                .unwrap();
        }
        SesqlEngine::new(db, kb)
    }

    fn col<'r>(rows: &'r RowSet, name: &str) -> Vec<&'r Value> {
        let i = rows.column_index(name).unwrap_or_else(|| {
            panic!(
                "no column `{name}` in {:?}",
                rows.schema.columns.iter().map(|c| c.display_name()).collect::<Vec<_>>()
            )
        });
        rows.rows.iter().map(|r| &r[i]).collect()
    }

    #[test]
    fn plain_sql_passthrough() {
        let e = engine();
        let r = e
            .execute("director", "SELECT name FROM landfill ORDER BY name")
            .unwrap();
        assert_eq!(r.rows.len(), 3);
        assert!(r.report.sparql_runs.is_empty());
    }

    #[test]
    fn unregistered_user_rejected() {
        let e = engine();
        assert!(e.execute("stranger", "SELECT name FROM landfill").is_err());
    }

    #[test]
    fn example_41_schema_extension() {
        let e = engine();
        let r = e
            .execute(
                "director",
                "SELECT elem_name, landfill_name FROM elem_contained \
                 WHERE landfill_name = 'a' \
                 ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)",
            )
            .unwrap();
        assert_eq!(r.rows.schema.columns[2].name, "dangerLevel");
        assert_eq!(r.rows.len(), 3);
        let by_elem: std::collections::HashMap<String, &Value> = r
            .rows
            .rows
            .iter()
            .map(|row| (row[0].lexical_form(), &row[2]))
            .collect();
        assert_eq!(by_elem["Hg"], &Value::Int(5));
        assert_eq!(by_elem["Pb"], &Value::Int(4));
        assert_eq!(by_elem["Cu"], &Value::Int(1));
        assert_eq!(r.report.sparql_runs.len(), 1);
        assert!(r.report.sparql_runs[0].sparql.contains("?s"));
    }

    #[test]
    fn schema_extension_unmatched_rows_get_null() {
        let e = engine();
        let r = e
            .execute(
                "director",
                "SELECT elem_name FROM elem_contained WHERE landfill_name = 'c' \
                 ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)",
            )
            .unwrap();
        // Hg has a level, Sn does not.
        let by_elem: std::collections::HashMap<String, &Value> = r
            .rows
            .rows
            .iter()
            .map(|row| (row[0].lexical_form(), &row[1]))
            .collect();
        assert_eq!(by_elem["Hg"], &Value::Int(5));
        assert!(by_elem["Sn"].is_null());
    }

    #[test]
    fn example_42_schema_replacement() {
        let e = engine();
        let r = e
            .execute(
                "director",
                "SELECT name, city FROM landfill \
                 ENRICH SCHEMAREPLACEMENT(city, inCountry)",
            )
            .unwrap();
        // city column replaced by country, in position 1.
        assert_eq!(r.rows.schema.columns.len(), 2);
        assert_eq!(r.rows.schema.columns[1].name, "inCountry");
        let countries: Vec<String> = col(&r.rows, "inCountry")
            .iter()
            .map(|v| v.lexical_form())
            .collect();
        assert!(countries.contains(&"Italy".to_string()));
        assert!(countries.contains(&"France".to_string()));
        assert!(!countries.contains(&"Torino".to_string()));
    }

    #[test]
    fn example_43_bool_schema_extension() {
        let e = engine();
        let r = e
            .execute(
                "director",
                "SELECT elem_name FROM elem_contained WHERE landfill_name = 'a' \
                 ENRICH BOOLSCHEMAEXTENSION(elem_name, isA, HazardousWaste)",
            )
            .unwrap();
        assert_eq!(r.rows.schema.columns[1].name, "HazardousWaste");
        let by_elem: std::collections::HashMap<String, &Value> = r
            .rows
            .rows
            .iter()
            .map(|row| (row[0].lexical_form(), &row[1]))
            .collect();
        assert_eq!(by_elem["Hg"], &Value::Bool(true));
        assert_eq!(by_elem["Pb"], &Value::Bool(true));
        assert_eq!(by_elem["Cu"], &Value::Bool(false));
    }

    #[test]
    fn example_44_bool_schema_replacement() {
        let e = engine();
        let r = e
            .execute(
                "director",
                "SELECT name, city FROM landfill \
                 ENRICH BOOLSCHEMAREPLACEMENT(city, inCountry, Italy)",
            )
            .unwrap();
        assert_eq!(r.rows.schema.columns.len(), 2);
        assert_eq!(r.rows.schema.columns[1].name, "Italy");
        let by_name: std::collections::HashMap<String, &Value> = r
            .rows
            .rows
            .iter()
            .map(|row| (row[0].lexical_form(), &row[1]))
            .collect();
        assert_eq!(by_name["a"], &Value::Bool(true)); // Torino
        assert_eq!(by_name["b"], &Value::Bool(false)); // Lyon
        assert_eq!(by_name["c"], &Value::Bool(true)); // Collegno
    }

    #[test]
    fn example_45_replace_constant_with_property() {
        let e = engine();
        // Without a stored query, `isA` relates elements to HazardousWaste;
        // REPLACECONSTANT with the *inverse* reading needs objects of
        // (HazardousWaste, prop, ?o) — so use a dedicated property.
        e.knowledge_base()
            .assert_statement(
                "director",
                &Triple::new(iri("DangerList"), iri("includes"), iri("Hg")),
            )
            .unwrap();
        e.knowledge_base()
            .assert_statement(
                "director",
                &Triple::new(iri("DangerList"), iri("includes"), iri("As")),
            )
            .unwrap();
        let r = e
            .execute(
                "director",
                "SELECT landfill_name FROM elem_contained \
                 WHERE ${elem_name = DangerList:cond1} \
                 ENRICH REPLACECONSTANT(cond1, DangerList, includes)",
            )
            .unwrap();
        let mut names: Vec<String> = col(&r.rows, "landfill_name")
            .iter()
            .map(|v| v.lexical_form())
            .collect();
        names.sort();
        names.dedup();
        assert_eq!(names, vec!["a", "b", "c"]); // Hg in a,c; As in b
    }

    #[test]
    fn example_45_replace_constant_with_stored_query() {
        let e = engine();
        e.stored_queries()
            .register(
                "dangerQuery",
                "SELECT ?e WHERE { ?e <dangerLevel> ?d . FILTER(?d >= 4) }",
            )
            .unwrap();
        let r = e
            .execute(
                "director",
                "SELECT landfill_name, elem_name FROM elem_contained \
                 WHERE ${elem_name = HazardousWaste:cond1} \
                 ENRICH REPLACECONSTANT(cond1, HazardousWaste, dangerQuery)",
            )
            .unwrap();
        // dangerLevel >= 4: Hg, Pb, As → rows: (a,Hg),(a,Pb),(b,As),(c,Hg)
        assert_eq!(r.rows.len(), 4);
        let elems: std::collections::HashSet<String> = col(&r.rows, "elem_name")
            .iter()
            .map(|v| v.lexical_form())
            .collect();
        assert!(!elems.contains("Cu"));
        assert!(!elems.contains("Sn"));
    }

    #[test]
    fn replace_constant_empty_set_yields_no_rows() {
        let e = engine();
        e.stored_queries()
            .register("noneQuery", "SELECT ?e WHERE { ?e <dangerLevel> ?d . FILTER(?d > 99) }")
            .unwrap();
        let r = e
            .execute(
                "director",
                "SELECT landfill_name FROM elem_contained \
                 WHERE ${elem_name = X:cond1} \
                 ENRICH REPLACECONSTANT(cond1, X, noneQuery)",
            )
            .unwrap();
        assert_eq!(r.rows.len(), 0);
    }

    #[test]
    fn replace_constant_not_equal() {
        let e = engine();
        e.stored_queries()
            .register(
                "dangerQuery",
                "SELECT ?e WHERE { ?e <dangerLevel> ?d . FILTER(?d >= 4) }",
            )
            .unwrap();
        let r = e
            .execute(
                "director",
                "SELECT elem_name FROM elem_contained \
                 WHERE ${elem_name <> Hazard:c} AND landfill_name = 'a' \
                 ENRICH REPLACECONSTANT(c, Hazard, dangerQuery)",
            )
            .unwrap();
        // NOT IN {Hg, Pb, As} restricted to landfill a → Cu only.
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows.rows[0][0], Value::from("Cu"));
    }

    #[test]
    fn example_46_replace_variable() {
        let e = engine();
        // Landfills with "common" elements modulo the ore-assemblage
        // knowledge: Hg(a,c) occurs with As(b) → pairs across a/b, c/b via
        // expansion; plus literal common element Hg between a and c.
        let r = e
            .execute(
                "director",
                "SELECT e1.landfill_name AS l1, e2.landfill_name AS l2, e1.elem_name \
                 FROM elem_contained AS e1, elem_contained AS e2 \
                 WHERE e1.landfill_name <> e2.landfill_name AND \
                       ${ e1.elem_name = e2.elem_name :cond1} \
                 ENRICH REPLACEVARIABLE(cond1, e2.elem_name, oreAssemblage)",
            )
            .unwrap();
        let pairs: std::collections::HashSet<(String, String, String)> = r
            .rows
            .rows
            .iter()
            .map(|row| {
                (
                    row[0].lexical_form(),
                    row[1].lexical_form(),
                    row[2].lexical_form(),
                )
            })
            .collect();
        // include_self: literal sharing Hg between a and c.
        assert!(pairs.contains(&("a".into(), "c".into(), "Hg".into())));
        // expansion: e1 has Hg, e2 has As, Hg oreAssemblage As → (a,b,Hg), (c,b,Hg)
        assert!(pairs.contains(&("a".into(), "b".into(), "Hg".into())));
        assert!(pairs.contains(&("c".into(), "b".into(), "Hg".into())));
        // expansion: e1 has Sn (c), e2 has Cu (a), Sn oreAssemblage Cu → (c,a,Sn)
        assert!(pairs.contains(&("c".into(), "a".into(), "Sn".into())));
    }

    #[test]
    fn replace_variable_without_include_self() {
        let e = engine().with_options(EnrichOptions {
            include_self: false,
            ..EnrichOptions::default()
        });
        let r = e
            .execute(
                "director",
                "SELECT e1.landfill_name AS l1, e2.landfill_name AS l2, e1.elem_name \
                 FROM elem_contained AS e1, elem_contained AS e2 \
                 WHERE e1.landfill_name <> e2.landfill_name AND \
                       ${ e1.elem_name = e2.elem_name :cond1} \
                 ENRICH REPLACEVARIABLE(cond1, e2.elem_name, oreAssemblage)",
            )
            .unwrap();
        let tuples: std::collections::HashSet<(String, String, String)> = r
            .rows
            .rows
            .iter()
            .map(|row| {
                (
                    row[0].lexical_form(),
                    row[1].lexical_form(),
                    row[2].lexical_form(),
                )
            })
            .collect();
        // (a, c, Hg) is supported only by the literal Hg = Hg match, which
        // include_self = false excludes.
        assert!(!tuples.contains(&("a".into(), "c".into(), "Hg".into())));
        // Expansion-supported tuples remain.
        assert!(tuples.contains(&("a".into(), "b".into(), "Hg".into())));
        assert!(tuples.contains(&("c".into(), "a".into(), "Sn".into())));
    }

    #[test]
    fn combined_extension_and_bool() {
        let e = engine();
        let r = e
            .execute(
                "director",
                "SELECT elem_name FROM elem_contained WHERE landfill_name = 'a' \
                 ENRICH SCHEMAEXTENSION(elem_name, dangerLevel) \
                        BOOLSCHEMAEXTENSION(elem_name, isA, HazardousWaste)",
            )
            .unwrap();
        assert_eq!(r.rows.schema.columns.len(), 3);
        assert_eq!(r.rows.schema.columns[1].name, "dangerLevel");
        assert_eq!(r.rows.schema.columns[2].name, "HazardousWaste");
    }

    #[test]
    fn multi_value_policies() {
        let e = engine();
        e.knowledge_base()
            .assert_statement(
                "director",
                &Triple::new(iri("Hg"), iri("alias"), lit("Mercury")),
            )
            .unwrap();
        e.knowledge_base()
            .assert_statement(
                "director",
                &Triple::new(iri("Hg"), iri("alias"), lit("Quicksilver")),
            )
            .unwrap();
        let sesql = "SELECT elem_name FROM elem_contained WHERE elem_name = 'Hg' \
                     ENRICH SCHEMAEXTENSION(elem_name, alias)";

        // RowPerMatch: 2 base rows × 2 aliases = 4
        let r = e.execute("director", sesql).unwrap();
        assert_eq!(r.rows.len(), 4);

        // FirstMatch: 2 rows
        let e1 = e.clone().with_options(EnrichOptions {
            multi: MultiValuePolicy::FirstMatch,
            ..EnrichOptions::default()
        });
        assert_eq!(e1.execute("director", sesql).unwrap().rows.len(), 2);

        // Concatenate: 2 rows with joined value
        let e2 = e.clone().with_options(EnrichOptions {
            multi: MultiValuePolicy::Concatenate,
            ..EnrichOptions::default()
        });
        let r = e2.execute("director", sesql).unwrap();
        assert_eq!(r.rows.len(), 2);
        let v = r.rows.rows[0][1].lexical_form();
        assert!(v.contains("Mercury") && v.contains("Quicksilver"), "{v}");
    }

    #[test]
    fn enriching_missing_column_errors() {
        let e = engine();
        let err = e
            .execute(
                "director",
                "SELECT landfill_name FROM elem_contained \
                 ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)",
            )
            .unwrap_err();
        assert!(err.to_string().contains("elem_name"), "{err}");
    }

    #[test]
    fn unknown_property_yields_nulls_not_errors() {
        let e = engine();
        let r = e
            .execute(
                "director",
                "SELECT elem_name FROM elem_contained WHERE landfill_name = 'a' \
                 ENRICH SCHEMAEXTENSION(elem_name, noSuchProperty)",
            )
            .unwrap();
        assert!(r.rows.rows.iter().all(|row| row[1].is_null()));
    }

    #[test]
    fn report_records_stages() {
        let e = engine();
        let r = e
            .execute(
                "director",
                "SELECT elem_name FROM elem_contained \
                 ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)",
            )
            .unwrap();
        assert!(r.report.parse > Duration::ZERO);
        assert_eq!(r.report.base_rows, 6);
        assert!(r.report.result_rows >= 6);
        assert_eq!(r.report.sparql_runs.len(), 1);
        assert!(r.report.total() >= r.report.parse);
    }

    #[test]
    fn user_contexts_differ() {
        let e = engine();
        let kb = e.knowledge_base();
        kb.register_user("planner").unwrap();
        kb.assert_statement(
            "planner",
            &Triple::new(iri("Cu"), iri("dangerLevel"), lit("9")),
        )
        .unwrap();
        let sesql = "SELECT elem_name FROM elem_contained WHERE landfill_name = 'a' \
                     ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)";
        let director = e.execute("director", sesql).unwrap();
        let planner = e.execute("planner", sesql).unwrap();
        let d: std::collections::HashMap<String, String> = director
            .rows
            .rows
            .iter()
            .map(|r| (r[0].lexical_form(), r[1].lexical_form()))
            .collect();
        let p: std::collections::HashMap<String, String> = planner
            .rows
            .rows
            .iter()
            .map(|r| (r[0].lexical_form(), r[1].lexical_form()))
            .collect();
        assert_eq!(d["Cu"], "1");
        assert_eq!(p["Cu"], "9");
        assert_eq!(p["Hg"], "", "planner has no Hg knowledge → NULL");
    }

    #[test]
    fn name_collision_in_output_is_disambiguated() {
        let e = engine();
        let r = e
            .execute(
                "director",
                "SELECT elem_name, landfill_name AS dangerLevel FROM elem_contained \
                 WHERE landfill_name = 'a' \
                 ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)",
            )
            .unwrap();
        let names: Vec<String> =
            r.rows.schema.columns.iter().map(|c| c.name.clone()).collect();
        assert_eq!(names.len(), 3);
        assert!(names.contains(&"dangerLevel".to_string()));
        assert!(names.contains(&"dangerLevel_2".to_string()), "{names:?}");
    }

    #[test]
    fn two_replace_variables_rejected() {
        let e = engine();
        let err = e
            .execute(
                "director",
                "SELECT e1.elem_name FROM elem_contained e1 \
                 WHERE ${e1.elem_name = 'Hg':c1} AND ${e1.elem_name = 'Pb':c2} \
                 ENRICH REPLACEVARIABLE(c1, e1.elem_name, oreAssemblage) \
                        REPLACEVARIABLE(c2, e1.elem_name, oreAssemblage)",
            )
            .unwrap_err();
        assert!(err.to_string().contains("at most one"), "{err}");
    }

    #[test]
    fn enrichment_on_aggregate_output() {
        // Enriching a GROUP BY key column of an aggregated result works:
        // the attr is resolved against the *output* schema.
        let e = engine();
        let r = e
            .execute(
                "director",
                "SELECT elem_name, COUNT(*) AS n FROM elem_contained \
                 GROUP BY elem_name \
                 ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)",
            )
            .unwrap();
        assert_eq!(r.rows.schema.columns.len(), 3);
        let hg = r
            .rows
            .rows
            .iter()
            .find(|row| row[0] == Value::from("Hg"))
            .expect("Hg grouped");
        assert_eq!(hg[1], Value::Int(2), "Hg in landfills a and c");
        assert_eq!(hg[2], Value::Int(5), "enriched with danger level");
    }

    #[test]
    fn enrichment_with_order_and_limit() {
        let e = engine();
        let r = e
            .execute(
                "director",
                "SELECT elem_name FROM elem_contained WHERE landfill_name = 'a' \
                 ORDER BY elem_name LIMIT 2 \
                 ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)",
            )
            .unwrap();
        // LIMIT applies to the SQL leg (2 rows) before enrichment.
        assert_eq!(r.report.base_rows, 2);
        assert_eq!(r.rows.rows[0][0], Value::from("Cu"));
    }

    #[test]
    fn replace_constant_on_condition_without_marker_is_error() {
        let e = engine();
        // The tagged condition does not mention the named constant.
        let err = e
            .execute(
                "director",
                "SELECT elem_name FROM elem_contained \
                 WHERE ${elem_name = 'Hg':c1} \
                 ENRICH REPLACECONSTANT(c1, SomethingElse, isA)",
            )
            .unwrap_err();
        assert!(err.to_string().contains("SomethingElse"), "{err}");
    }

    #[test]
    fn bool_extension_on_empty_result_is_empty() {
        let e = engine();
        let r = e
            .execute(
                "director",
                "SELECT elem_name FROM elem_contained WHERE landfill_name = 'nope' \
                 ENRICH BOOLSCHEMAEXTENSION(elem_name, isA, HazardousWaste)",
            )
            .unwrap();
        assert_eq!(r.rows.len(), 0);
        assert_eq!(r.rows.schema.columns.len(), 2, "schema still extended");
    }

    #[test]
    fn enriched_rows_are_not_coerced_to_the_planner_type_guess() {
        // The planner's type for a mixed CASE is a guess (TEXT here); the
        // support database rejected the values that did not fit it, so
        // enriching this query failed. Enriched and un-enriched runs now
        // return the same base values.
        let e = engine();
        let sql = "SELECT elem_name, CASE WHEN amount > 20 THEN 1 ELSE 'low' END AS band \
                   FROM elem_contained WHERE landfill_name = 'a' ORDER BY elem_name";
        let plain = e.execute("director", sql).unwrap().rows;
        let enriched = e
            .execute(
                "director",
                &format!("{sql} ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)"),
            )
            .unwrap()
            .rows;
        assert_eq!(plain.column_values("band").unwrap(), enriched.column_values("band").unwrap());
        assert_eq!(
            enriched.column_values("band").unwrap(),
            vec![Value::Int(1), Value::from("low"), Value::Int(1)]
        );
    }

    pub(super) const CACHED_QUERY: &str = "SELECT elem_name FROM elem_contained \
                                ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)";
}
