// srclint: allow(R002): the generated SPARQL always projects the ?s/?o variables the expects look up; the char walk indexes char boundaries
//! The Semantic Query Module (SQM): SESQL execution (paper Fig. 6).
//!
//! Execution follows the paper's architecture: the Semantic Query Parser
//! splits the query; the SQM derives SPARQL queries from the enrichment
//! syntax tree; SQL and SPARQL legs run independently; the JoinManager
//! combines partial results using the resource mapping. Phase D, the
//! paper's "temporary support database" and "final SQL query", is an
//! output projection here: the last stage only renames and reorders the
//! JoinManager's columns, so `finalize` moves each row's values into the
//! output order — no second database, no SQL text. Every stage is
//! timed in [`PipelineReport`] so the E2 experiment can regenerate the
//! Fig. 6 pipeline breakdown.
//!
//! Every SESQL execution enters through [`SesqlEngine::prepare`] and
//! [`PreparedSesql::execute_cursor`]; `SesqlEngine::run` is the one place
//! that checks the user, decides between streaming and the pipeline, and
//! holds Phases A–D.

use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crosse_cache::Lru;
use crosse_federation::join_manager::{combine_in, term_to_value_in, CombineKind, JoinSpec};
use crosse_federation::mapping::{MapStrategy, ResourceMapping};
use crosse_rdf::provenance::KnowledgeBase;
use crosse_rdf::sparql::eval::Solutions;
use crosse_rdf::stored::StoredQueries;
use crosse_rdf::term::Term;
use crosse_lint::Diagnostic;
use crosse_relational::sql::ast::{BinaryOp, Expr, Select, TableRef};
use crosse_relational::{Column, DataType, Database, Row, RowSet, Schema, Value};

use crate::error::{Error, Result};
use crate::session::EnrichedRows;
use crate::sesql::ast::{Enrichment, SesqlQuery};
use crate::sesql::parser::parse_sesql;

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

/// Direction in which `REPLACEVARIABLE` walks the property edges when
/// expanding a variable (paper Ex. 4.6 uses `oreAssemblage`, a co-
/// occurrence relation that is naturally symmetric; directional properties
/// like `inCountry` want `Forward`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExpandDirection {
    /// `x` expands to the objects of `<x, p, ?o>`.
    Forward,
    /// `x` expands to the subjects of `<?s, p, x>`.
    Inverse,
    /// Both directions.
    #[default]
    Symmetric,
}

/// User-tunable enrichment behaviour ("which may or may not contain the
/// initial value according to the user preferences", paper Sec. III-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EnrichOptions {
    pub multi: MultiValuePolicy,
    /// For the WHERE enrichments: whether the original value/condition is
    /// kept alongside the ontology-derived expansion.
    pub include_self: bool,
    /// Edge direction for `REPLACEVARIABLE` expansion.
    pub expand: ExpandDirection,
}

impl Default for EnrichOptions {
    fn default() -> Self {
        EnrichOptions {
            multi: MultiValuePolicy::RowPerMatch,
            include_self: true,
            expand: ExpandDirection::Symmetric,
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
    /// JoinManager combination work.
    pub join: Duration,
    /// The output projection: moving the JoinManager's rows into the
    /// enriched result's column order and names (the paper's "final SQL
    /// query"; the field keeps that name).
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

/// Internal record of a schema-level enrichment applied to the base rows.
struct AppliedColumn {
    /// Position of the enriched attr in the base schema (for replacements).
    attr_index: usize,
    /// Index of the appended enrichment column in the working row set.
    added_index: usize,
    /// Final output name of the enrichment column.
    output_name: String,
    /// Replacement ops remove the original attr from the output.
    replaces_attr: bool,
}

/// Default capacity of the engine's bounded caches (SPARQL-leg solutions,
/// parsed SPARQL ASTs, prepared SESQL queries).
pub const DEFAULT_CACHE_CAPACITY: usize = 256;

/// Version-checked, LRU-bounded cache of SPARQL-leg solutions, keyed by
/// the user's context graphs and the generated SPARQL text. Entries are
/// valid only while the triple store's mutation version is unchanged, so
/// any annotation, import or retraction invalidates the whole view at
/// zero bookkeeping cost; the LRU bound keeps adversarial traffic (many
/// distinct generated legs) from growing memory without limit.
#[derive(Debug)]
struct SparqlLegCache {
    entries: Mutex<Lru<(String, String), (u64, Solutions)>>,
    /// REPLACEVARIABLE pairs tables, keyed by (context graphs, property +
    /// expansion direction) and version-checked like `entries`: a hit
    /// skips the SPARQL leg *and* the term→value conversion + dedup that
    /// builds the relational pairs table. Only hits touch the counters —
    /// a pairs miss falls through to the solution-cache path, which
    /// counts the leg itself, keeping "one leg, one counter event".
    pairs: Mutex<Lru<(String, String), CachedPairs>>,
    // Hit/miss counters live outside the LRUs: a version-stale entry is a
    // *miss* for the caller even though the LRU lookup succeeded.
    hits: AtomicU64,
    misses: AtomicU64,
}

/// One cached REPLACEVARIABLE pairs table.
#[derive(Debug, Clone)]
struct CachedPairs {
    /// KB version the rows were built against.
    version: u64,
    /// The SPARQL leg text that produced them (for reporting).
    sparql: String,
    /// Solution count of that leg (reported on hits, so warm and cold
    /// runs of one query show the same `SparqlRun::solutions`).
    solutions: usize,
    /// The relational table the oriented, deduplicated pairs rows are
    /// materialised under. It stays in the catalog while this entry (or a
    /// query reading it) holds the guard, so a warm REPLACEVARIABLE run
    /// joins against it directly — no re-materialisation, no catalog
    /// version churn (which would invalidate every plan template
    /// engine-wide).
    table: Arc<PairsTable>,
}

/// A materialised `__kb_pairs_N` table, owned by whoever holds this guard
/// — the pairs-cache entry and every query reading the table. The last
/// holder to let go drops the table from the catalog, so a query never
/// loses its table to an eviction, a replacement or `clear_cache`, and no
/// path (capacity 0, a shrunk cache) can strand one.
#[derive(Debug)]
struct PairsTable {
    db: Database,
    name: String,
}

impl Drop for PairsTable {
    fn drop(&mut self) {
        // Already gone only if a user dropped it by name.
        let _ = self.db.catalog().drop_table(&self.name);
    }
}

impl Default for SparqlLegCache {
    fn default() -> Self {
        SparqlLegCache {
            entries: Mutex::new_labeled("sqm.leg_cache", Lru::new(DEFAULT_CACHE_CAPACITY)),
            pairs: Mutex::new_labeled("sqm.pairs_cache", Lru::new(DEFAULT_CACHE_CAPACITY)),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }
}

impl SparqlLegCache {
    fn key(graphs: &[&str], second: &str) -> (String, String) {
        (graphs.join("\u{1f}"), second.to_string())
    }

    fn get(&self, graphs: &[&str], sparql: &str, version: u64) -> Option<Solutions> {
        let key = Self::key(graphs, sparql);
        match self.entries.lock().get(&key) {
            Some((v, sols)) if *v == version => {
                self.hits.fetch_add(1, AtomicOrdering::Relaxed);
                Some(sols.clone())
            }
            _ => {
                self.misses.fetch_add(1, AtomicOrdering::Relaxed);
                None
            }
        }
    }

    fn put(&self, graphs: &[&str], sparql: &str, version: u64, sols: &Solutions) {
        self.entries
            .lock()
            .put(Self::key(graphs, sparql), (version, sols.clone()));
    }

    /// Version-valid cached pairs. Nothing is counted here: the caller
    /// counts a *hit* once it has seen the table is still there, and
    /// otherwise falls through to `run_sparql_leg`, whose own cache lookup
    /// counts the event (one leg executed = one hit-or-miss, warm or cold).
    fn get_pairs(&self, graphs: &[&str], prop_key: &str, version: u64) -> Option<CachedPairs> {
        let key = Self::key(graphs, prop_key);
        self.pairs.lock().get(&key).filter(|c| c.version == version).cloned()
    }

    /// Version-valid cached pairs without touching recency or the
    /// hit/miss counters — the diagnostic (`EXPLAIN`) lookup.
    fn peek_pairs(&self, graphs: &[&str], prop_key: &str, version: u64) -> Option<CachedPairs> {
        match self.pairs.lock().peek(&Self::key(graphs, prop_key)) {
            Some(cached) if cached.version == version => Some(cached.clone()),
            _ => None,
        }
    }

    /// Publish a pairs entry. What it displaces (the replaced entry, LRU
    /// evictions) is released after the cache lock: a guard's drop takes
    /// the catalog lock. The caller still holds its own clone of the new
    /// entry's guard, so nothing is dropped under the lock at capacity 0
    /// either.
    fn put_pairs(&self, graphs: &[&str], prop_key: &str, cached: CachedPairs) {
        let displaced = self.pairs.lock().put_evicting(Self::key(graphs, prop_key), cached);
        drop(displaced);
    }

    fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(AtomicOrdering::Relaxed),
            misses: self.misses.load(AtomicOrdering::Relaxed),
            evictions: self.entries.lock().stats().evictions
                + self.pairs.lock().stats().evictions,
        }
    }
}

/// Cumulative cache statistics (hits, misses, LRU evictions) — shared
/// shape across the engine's caches.
pub use crosse_cache::CacheStats;

/// A compiled SESQL query as stored in the engine's prepared cache: a
/// [`PreparedSesql`] minus the engine (which owns the cache).
#[derive(Debug, Clone)]
struct CachedSesql {
    query: Arc<SesqlQuery>,
    sql: crosse_relational::Prepared,
    warnings: Arc<Vec<Diagnostic>>,
}

/// The SESQL engine: relational databank + knowledge base + registries.
#[derive(Clone)]
pub struct SesqlEngine {
    db: Database,
    kb: KnowledgeBase,
    stored: StoredQueries,
    mapping: ResourceMapping,
    options: EnrichOptions,
    cache: Arc<SparqlLegCache>,
    /// Compiled SPARQL ASTs keyed by query text (bounded LRU): generated
    /// legs parse once, then evaluate the compiled form (the result cache
    /// above is version-checked; this one never needs invalidation — the
    /// same text always parses to the same AST).
    parsed: Arc<Mutex<Lru<String, Arc<crosse_rdf::sparql::ast::Query>>>>,
    /// Prepared SESQL queries keyed by normalized text (bounded LRU):
    /// repeated `prepare` traffic skips the scanner + both parsers.
    prepared: Arc<Mutex<Lru<String, CachedSesql>>>,
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
            parsed: Arc::new(Mutex::new_labeled("sesql.ast_cache", Lru::new(DEFAULT_CACHE_CAPACITY))),
            prepared: Arc::new(Mutex::new_labeled("sesql.prepared_cache", Lru::new(DEFAULT_CACHE_CAPACITY))),
        }
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
        self.db.is_durable()
    }

    /// Take a checkpoint: pin the relational catalog and the triple store
    /// at one LSN under the WAL barrier, write the two-section snapshot
    /// off-thread, truncate the log. Surfaces any parked background
    /// storage error first. Errors if the engine is in-memory.
    pub fn checkpoint(&self) -> Result<u64> {
        self.storage_check()?;
        Ok(self.db.checkpoint()?)
    }

    /// Wait for any in-flight checkpoint and surface its error, if any.
    pub fn checkpoint_join(&self) -> Result<()> {
        Ok(self.db.checkpoint_join()?)
    }

    /// WAL statistics, or `None` for an in-memory engine.
    pub fn wal_stats(&self) -> Option<crate::storage::WalStats> {
        self.db.wal_stats()
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
        self.db.recovery_warnings()
    }

    /// Surface a storage error parked by an RDF mutator whose signature
    /// cannot return one (`insert` → bool, `insert_all` → usize): once a
    /// redo append fails, the store refuses further writes and this
    /// reports why. `Ok` on healthy and in-memory engines.
    pub fn storage_check(&self) -> Result<()> {
        Ok(self.kb.store().storage_check()?)
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

    /// Parse a SPARQL SELECT once per distinct text, returning the shared
    /// compiled AST (bounded LRU — generated leg texts vary with the live
    /// predicate set, so old entries age out instead of accumulating).
    fn parse_cached(&self, sparql: &str) -> Result<Arc<crosse_rdf::sparql::ast::Query>> {
        if let Some(q) = self.parsed.lock().get(sparql) {
            return Ok(q.clone());
        }
        let q = Arc::new(crosse_rdf::sparql::parser::parse_query(sparql)?);
        self.parsed.lock().put(sparql.to_string(), q.clone());
        Ok(q)
    }

    /// SPARQL-leg solution cache statistics.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Parsed-SPARQL AST cache statistics.
    pub fn ast_cache_stats(&self) -> CacheStats {
        self.parsed.lock().stats()
    }

    /// Prepared-SESQL cache statistics.
    pub fn prepared_cache_stats(&self) -> CacheStats {
        self.prepared.lock().stats()
    }

    /// Resize every engine-level cache (solutions, pairs tables, parsed
    /// ASTs, prepared queries). Capacity 0 is the way to switch caching
    /// off: every leg is evaluated, and a REPLACEVARIABLE query's pairs
    /// table lives exactly as long as the query.
    pub fn set_cache_capacity(&self, capacity: usize) {
        self.cache.entries.lock().set_capacity(capacity);
        // Evicted pairs tables leave the catalog after the cache lock.
        let evicted = self.cache.pairs.lock().set_capacity(capacity);
        drop(evicted);
        self.parsed.lock().set_capacity(capacity);
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

    /// Evaluate one SPARQL leg with version-checked caching and record it
    /// in the pipeline report.
    fn run_sparql_leg(
        &self,
        graphs: &[&str],
        sparql: &str,
        parsed: Option<&crosse_rdf::sparql::ast::Query>,
        purpose: String,
        report: &mut PipelineReport,
    ) -> Result<Solutions> {
        let version = self.kb.store().version();
        let t = Instant::now();
        // The compiled AST is cached per query text, so repeated legs skip
        // the parser even when the solution cache is invalidated.
        let opts =
            crosse_rdf::sparql::eval::EvalOptions { threads: self.exec_threads(), ..Default::default() };
        let evaluate = |parsed: Option<&crosse_rdf::sparql::ast::Query>| -> Result<Solutions> {
            match parsed {
                Some(q) => Ok(crosse_rdf::sparql::eval::evaluate_with(
                    self.kb.store(),
                    graphs,
                    q,
                    &opts,
                )?),
                None => {
                    let q = self.parse_cached(sparql)?;
                    Ok(crosse_rdf::sparql::eval::evaluate_with(
                        self.kb.store(),
                        graphs,
                        &q,
                        &opts,
                    )?)
                }
            }
        };
        let (sols, cached) = match self.cache.get(graphs, sparql, version) {
            Some(s) => (s, true),
            None => {
                let s = evaluate(parsed)?;
                self.cache.put(graphs, sparql, version, &s);
                (s, false)
            }
        };
        let duration = t.elapsed();
        report.sparql_exec += duration;
        report.sparql_runs.push(SparqlRun {
            purpose,
            sparql: sparql.to_string(),
            solutions: sols.len(),
            duration,
            cached,
            shared: false,
        });
        Ok(sols)
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
                    sql: self.db.compile(Arc::new(query.select.clone())),
                    warnings: Arc::new(lint_sesql_static(self.db.catalog(), &query, &key)),
                    query,
                };
                self.prepared.lock().put(key.clone(), cached.clone());
                cached
            }
        };
        Ok(PreparedSesql { engine: self.clone(), query, sql, warnings, text: key })
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
        if stmt.query.has_params() && params.is_empty() {
            return Err(Error::sqm(
                "query has unbound parameters — bind them before execution",
            ));
        }
        if !stmt.query.is_enriched() {
            return Ok(EnrichedRows::streaming(stmt.sql.execute(params)?));
        }
        let mut report = PipelineReport::default();
        let no_params = crosse_relational::Params::new();

        let mut rows = if !stmt.query.enrichments.iter().any(Enrichment::is_where_enrichment) {
            // -------- Phase B alone: the statement's own SQL leg ----------
            let t = Instant::now();
            let rows = stmt.sql.query(params)?;
            report.sql_exec = t.elapsed();
            rows
        } else {
            // -------- Phase A: WHERE-clause enrichments (AST rewrites) ----
            // The rewrites work on literals, so parameters are bound first.
            let bound;
            let query = if stmt.query.has_params() {
                bound = stmt.bind(params)?;
                &bound
            } else {
                &*stmt.query
            };
            let mut select = query.select.clone();
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
                None => self.db.compile(Arc::new(select)).query(&no_params)?,
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
        let query = &*stmt.query;

        // -------- Phase C: schema enrichments (SPARQL + JoinManager) ------
        let mut applied: Vec<AppliedColumn> = Vec::new();
        for e in &query.enrichments {
            match e {
                Enrichment::SchemaExtension { attr, property }
                | Enrichment::SchemaReplacement { attr, property } => {
                    let replaces = matches!(e, Enrichment::SchemaReplacement { .. });
                    let attr_index = resolve_attr(&rows, attr)?;
                    let sols =
                        self.property_pairs(user, property, e.to_string(), &mut report)?;
                    let sols = apply_multi_policy(sols, self.options.multi);
                    let added_index = rows.schema.len();
                    let tmp_col = format!("__enr{added_index}");
                    let spec = JoinSpec {
                        column: rows.schema.columns[attr_index].display_name(),
                        variable: "s".into(),
                        kind: CombineKind::LeftOuter,
                        take: vec![("o".into(), tmp_col)],
                        strategy: self.attr_strategy(&rows.schema, attr_index),
                    };
                    let t = Instant::now();
                    rows = combine_in(&rows, &sols, &spec, self.db.interner())?;
                    report.join += t.elapsed();
                    applied.push(AppliedColumn {
                        attr_index,
                        added_index,
                        output_name: local_label(property),
                        replaces_attr: replaces,
                    });
                }
                Enrichment::BoolSchemaExtension { attr, property, concept }
                | Enrichment::BoolSchemaReplacement { attr, property, concept } => {
                    let replaces =
                        matches!(e, Enrichment::BoolSchemaReplacement { .. });
                    let attr_index = resolve_attr(&rows, attr)?;
                    let sols =
                        self.property_pairs(user, property, e.to_string(), &mut report)?;
                    let t = Instant::now();
                    let subjects = concept_subjects(&sols, concept)?;
                    let strategy = self.attr_strategy(&rows.schema, attr_index);
                    let added_index = rows.schema.len();
                    rows = append_bool_column(
                        rows,
                        attr_index,
                        &subjects,
                        &strategy,
                        &format!("__enr{added_index}"),
                    );
                    report.join += t.elapsed();
                    applied.push(AppliedColumn {
                        attr_index,
                        added_index,
                        output_name: local_label(concept),
                        replaces_attr: replaces,
                    });
                }
                Enrichment::ReplaceConstant { .. } | Enrichment::ReplaceVariable { .. } => {}
            }
        }

        // -------- Phase D: output projection ------------------------------
        let t = Instant::now();
        let final_rows = if applied.is_empty() { rows } else { finalize(rows, &applied) };
        report.final_sql = t.elapsed();
        report.result_rows = final_rows.len();

        Ok(EnrichedRows::from_result(EnrichedResult { rows: final_rows, report }))
    }

    /// Strategy for matching an output column against RDF terms, from the
    /// resource mapping (qualifier stands in for the table name).
    fn attr_strategy(&self, schema: &Schema, attr_index: usize) -> MapStrategy {
        let col = &schema.columns[attr_index];
        self.mapping
            .strategy(col.qualifier.as_deref().unwrap_or(""), &col.name)
    }

    /// Generate + run the SPARQL leg returning (subject, object) pairs for
    /// a property name in the user's context.
    fn property_pairs(
        &self,
        user: &str,
        property: &str,
        purpose: String,
        report: &mut PipelineReport,
    ) -> Result<Solutions> {
        let graphs = self.kb.context_graphs(user);
        let refs: Vec<&str> = graphs.iter().map(String::as_str).collect();
        let predicates = self.resolve_predicates(&refs, property);
        let sparql = sparql_pairs_query(&predicates, property);
        self.run_sparql_leg(&refs, &sparql, None, purpose, report)
    }

    /// Resolve a property argument to concrete predicate IRIs: an argument
    /// containing `://` is used verbatim; otherwise every predicate in the
    /// user's context whose local name equals the argument matches.
    fn resolve_predicates(&self, graphs: &[&str], property: &str) -> Vec<Term> {
        if property.contains("://") {
            return vec![Term::iri(property)];
        }
        let matching: Vec<Term> = self
            .kb
            .store()
            .distinct_predicates(graphs)
            .into_iter()
            .filter(|p| p.matches_lexical(property))
            .collect();
        if matching.is_empty() {
            // Keep the literal name: the generated query still runs (and
            // returns no solutions), which is the honest outcome for an
            // unknown property.
            vec![Term::iri(property)]
        } else {
            matching
        }
    }

    /// Resolve a constant argument to concrete subject IRIs: an argument
    /// containing `://` is used verbatim; otherwise every IRI in the
    /// store's dictionary whose local name (or full text) equals the
    /// argument is a candidate — the ID-native evaluator short-circuits
    /// candidates that never occur as subjects, so over-approximating
    /// costs nothing.
    fn resolve_constant_subjects(&self, constant: &str) -> Vec<Term> {
        if constant.contains("://") {
            return vec![Term::iri(constant)];
        }
        let matching = self.kb.store().dictionary().iris_matching_lexical(constant);
        if matching.is_empty() {
            // Keep the literal name: the generated query still runs (and
            // returns no solutions), the honest outcome for an unknown
            // constant.
            vec![Term::iri(constant)]
        } else {
            matching
        }
    }

    /// Values replacing an ontology constant (paper Sec. IV-A.5): a stored
    /// SPARQL query's output if `property` names one, else the objects of
    /// `<constant> <property> ?o` — with the constant resolved and pushed
    /// into the SPARQL pattern, so the leg fetches only the constant's own
    /// objects instead of every (s, o) pair of the property.
    fn replacement_values(
        &self,
        user: &str,
        constant: &str,
        property: &str,
        e: &Enrichment,
        report: &mut PipelineReport,
    ) -> Result<Vec<Value>> {
        let interner = self.db.interner();
        if let Some(stored) = self.stored.get(property) {
            let graphs = self.kb.context_graphs(user);
            let refs: Vec<&str> = graphs.iter().map(String::as_str).collect();
            let sols = self.run_sparql_leg(
                &refs,
                &stored.sparql,
                Some(&stored.query),
                e.to_string(),
                report,
            )?;
            let terms = sols.column(&stored.output_variable)?;
            return Ok(terms.iter().map(|t| term_to_value_in(t, interner)).collect());
        }
        // Property-based: objects of (constant, property, ?o).
        let graphs = self.kb.context_graphs(user);
        let refs: Vec<&str> = graphs.iter().map(String::as_str).collect();
        let predicates = self.resolve_predicates(&refs, property);
        let subjects = self.resolve_constant_subjects(constant);
        let sparql = sparql_objects_query(&subjects, &predicates);
        let sols = self.run_sparql_leg(&refs, &sparql, None, e.to_string(), report)?;
        let o_idx = sols.var_index("o").expect("objects query binds ?o");
        let mut seen: std::collections::HashSet<Value> =
            std::collections::HashSet::with_capacity(sols.rows.len());
        let mut out = Vec::with_capacity(sols.rows.len());
        for row in &sols.rows {
            if let Some(o) = &row[o_idx] {
                let v = term_to_value_in(o, interner);
                if seen.insert(v.clone()) {
                    out.push(v);
                }
            }
        }
        Ok(out)
    }

    /// The materialised relational pairs table for `property` in `user`'s
    /// context — the oriented, deduplicated KB pairs rows of the
    /// REPLACEVARIABLE expansion. A row (a, b) means "a value equal to
    /// `a` may also match as `b`"; the expansion direction decides the
    /// orientation(s). The cache entry (keyed by context graphs,
    /// property + direction, KB version) keeps the table alive in the
    /// catalog across executions: a warm run skips the SPARQL leg, the
    /// term→value conversion *and* the re-materialisation (no catalog
    /// version churn), reporting the leg as `cached + shared`. The caller
    /// holds the returned guard for as long as it reads the table.
    fn pairs_table(
        &self,
        user: &str,
        property: &str,
        purpose: String,
        report: &mut PipelineReport,
    ) -> Result<Arc<PairsTable>> {
        let graphs = self.kb.context_graphs(user);
        let refs: Vec<&str> = graphs.iter().map(String::as_str).collect();
        let version = self.kb.store().version();
        let prop_key = format!("{property}\u{1f}{:?}", self.options.expand);
        // A table a user dropped by name is a miss: the leg cache still
        // holds the solutions to rebuild it from.
        if let Some(cached) = self
            .cache
            .get_pairs(&refs, &prop_key, version)
            .filter(|c| self.db.catalog().has_table(&c.table.name))
        {
            self.cache.hits.fetch_add(1, AtomicOrdering::Relaxed);
            report.sparql_runs.push(SparqlRun {
                purpose,
                sparql: cached.sparql,
                solutions: cached.solutions,
                duration: Duration::ZERO,
                cached: true,
                shared: true,
            });
            return Ok(cached.table);
        }
        let sols = self.property_pairs(user, property, purpose, report)?;
        let sparql = report
            .sparql_runs
            .last()
            .map(|r| r.sparql.clone())
            .unwrap_or_default();
        let s_idx = sols.var_index("s").expect("pairs query binds ?s");
        let o_idx = sols.var_index("o").expect("pairs query binds ?o");
        let interner = self.db.interner();
        let symmetric = self.options.expand == ExpandDirection::Symmetric;
        let capacity = sols.rows.len() * if symmetric { 2 } else { 1 };
        // Hash-dedup (first-seen order) instead of sort+dedup: O(n) with
        // cheap interned keys, and no O(n log n) comparison pass.
        let mut seen: std::collections::HashSet<(Value, Value)> =
            std::collections::HashSet::with_capacity(capacity);
        let mut rows: Vec<Row> = Vec::with_capacity(capacity);
        let mut push = |a: Value, b: Value, rows: &mut Vec<Row>| {
            if seen.insert((a.clone(), b.clone())) {
                rows.push(vec![a, b]);
            }
        };
        for r in &sols.rows {
            if let (Some(s), Some(o)) = (&r[s_idx], &r[o_idx]) {
                let (sv, ov) = (term_to_value_in(s, interner), term_to_value_in(o, interner));
                match self.options.expand {
                    ExpandDirection::Forward => push(sv, ov, &mut rows),
                    ExpandDirection::Inverse => push(ov, sv, &mut rows),
                    ExpandDirection::Symmetric => {
                        push(sv.clone(), ov.clone(), &mut rows);
                        push(ov, sv, &mut rows);
                    }
                }
            }
        }
        // Unique per materialisation: concurrent REPLACEVARIABLE queries
        // (and successive KB versions) never collide on a table name.
        static PAIRS_SEQ: std::sync::atomic::AtomicU64 =
            std::sync::atomic::AtomicU64::new(0);
        let name = format!(
            "__kb_pairs_{}",
            PAIRS_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        );
        self.db.materialise_owned(&name, &pairs_table_schema(), rows)?;
        let table = Arc::new(PairsTable { db: self.db.clone(), name });
        self.cache.put_pairs(
            &refs,
            &prop_key,
            CachedPairs { version, sparql, solutions: sols.len(), table: Arc::clone(&table) },
        );
        Ok(table)
    }

    /// REPLACEVARIABLE execution strategy: the ontology pairs for `prop`
    /// are materialised as a relational table; a rewritten query joins
    /// through it so the tagged condition also matches through related
    /// values; when `include_self` is set the original query's rows are
    /// united in (deduplicated).
    fn execute_with_variable_expansion(
        &self,
        user: &str,
        select: &Select,
        cond_expr: &Expr,
        attr: &str,
        property: &str,
        report: &mut PipelineReport,
    ) -> Result<RowSet> {
        let purpose = format!("REPLACEVARIABLE(_, {attr}, {property})");
        // Held until the rows are collected: the table cannot leave the
        // catalog under this query, whatever happens to its cache entry.
        let table = self.pairs_table(user, property, purpose, report)?;
        let query = variable_expansion_select(
            select,
            cond_expr,
            attr,
            &table.name,
            self.options.include_self,
        )?;
        Ok(self.db.compile(Arc::new(query)).query(&crosse_relational::Params::new())?)
    }
}

/// Schema of a materialised REPLACEVARIABLE pairs table.
fn pairs_table_schema() -> Schema {
    Schema::new(vec![
        Column::new("subj", DataType::Text),
        Column::new("obj", DataType::Text),
    ])
}

/// Build the rewritten SELECT for a REPLACEVARIABLE expansion over the
/// materialised pairs table `tmp_name`: Q2 adds the pairs table to the
/// FROM clause and rewrites the tagged condition so the enriched
/// attribute matches *through* a pair. With `include_self` the emitted
/// statement is the native compound `Q1 UNION Q2` — no longer an opaque
/// second copy of the original query: the relational optimizer's
/// common-subplan pass fingerprints the base-table subtrees both members
/// read and rewrites them to one shared, spooled scan per table, so Q1's
/// scan work runs once per execution (visible as `Shared spool` nodes in
/// `EXPLAIN`). Without `include_self`, Q2 runs alone under DISTINCT (the
/// expansion can hit several KB pairs per row; the paper's replacement
/// semantics are set-oriented).
fn variable_expansion_select(
    select: &Select,
    cond_expr: &Expr,
    attr: &str,
    tmp_name: &str,
    include_self: bool,
) -> Result<Select> {
    let alias = "__exp";
    let (qualifier, name) = split_attr(attr);
    let attr_col = Expr::Column { qualifier, name };
    let expanded_cond = {
        let target = attr_col.clone();
        let replacement = Expr::qcol(alias, "obj");
        let rewritten = cond_expr.clone().rewrite(&mut |node| {
            if node == target {
                replacement.clone()
            } else {
                node
            }
        });
        if rewritten == *cond_expr {
            return Err(Error::sqm(format!(
                "REPLACEVARIABLE: attribute `{attr}` does not occur in the \
                 tagged condition `{cond_expr}`"
            )));
        }
        Expr::and(Expr::eq(Expr::qcol(alias, "subj"), attr_col), rewritten)
    };
    let mut q2 = select.clone();
    q2.from.push(TableRef::Table {
        name: tmp_name.to_string(),
        alias: Some(alias.to_string()),
    });
    replace_condition(&mut q2, cond_expr, expanded_cond)?;

    if include_self {
        let mut compound = select.clone();
        compound.union.push((false, q2));
        Ok(compound)
    } else {
        q2.distinct = true;
        Ok(q2)
    }
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
    query: Arc<SesqlQuery>,
    /// The executable form of `query.select`: typed slots, re-validation
    /// after DDL and the plan template all live in this handle.
    sql: crosse_relational::Prepared,
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
fn lint_sesql_static(
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
        bound.select = substitute_select(bound.select, &values);
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

// ---- helpers ---------------------------------------------------------------

/// Attr arguments may be qualified (`Elecond2.elem_name`).
fn split_attr(attr: &str) -> (Option<String>, String) {
    match attr.split_once('.') {
        Some((q, n)) => (Some(q.to_string()), n.to_string()),
        None => (None, attr.to_string()),
    }
}

/// Index of the enriched attribute in the base result schema.
fn resolve_attr(rows: &RowSet, attr: &str) -> Result<usize> {
    rows.column_index(attr).ok_or_else(|| {
        Error::sqm(format!(
            "enriched attribute `{attr}` is not an output column of the SQL query \
             (available: {})",
            rows.schema
                .columns
                .iter()
                .map(|c| c.display_name())
                .collect::<Vec<_>>()
                .join(", ")
        ))
    })
}

/// Human-facing column label from a property/concept argument: the local
/// name for IRIs, the text itself otherwise.
fn local_label(arg: &str) -> String {
    Term::iri(arg).local_name().to_string()
}

/// A term as it appears inside a generated SPARQL pattern.
fn pattern_iri(t: &Term) -> &str {
    match t {
        Term::Iri(i) => i,
        other => other.lexical_form(),
    }
}

/// Generate the pairs SPARQL text for a set of candidate predicates.
fn sparql_pairs_query(predicates: &[Term], property: &str) -> String {
    let branch = |p: &Term| format!("?s <{}> ?o", pattern_iri(p));
    match predicates {
        [] => format!("SELECT ?s ?o WHERE {{ ?s <{property}> ?o }}"),
        [single] => format!("SELECT ?s ?o WHERE {{ {} }}", branch(single)),
        many => {
            let branches: Vec<String> =
                many.iter().map(|p| format!("{{ {} }}", branch(p))).collect();
            format!("SELECT ?s ?o WHERE {{ {} }}", branches.join(" UNION "))
        }
    }
}

/// Generate the objects SPARQL text for resolved constant subjects ×
/// candidate predicates: `SELECT ?o WHERE { <s> <p> ?o }`, UNION-ing over
/// every (subject, predicate) combination. This pushes a REPLACECONSTANT
/// argument into the pattern, so the knowledge base is probed by constant
/// instead of streamed and filtered client-side.
fn sparql_objects_query(subjects: &[Term], predicates: &[Term]) -> String {
    let mut branches: Vec<String> = Vec::with_capacity(subjects.len() * predicates.len());
    for s in subjects {
        for p in predicates {
            branches.push(format!("<{}> <{}> ?o", pattern_iri(s), pattern_iri(p)));
        }
    }
    match branches.as_slice() {
        [single] => format!("SELECT ?o WHERE {{ {single} }}"),
        many => {
            let parts: Vec<String> = many.iter().map(|b| format!("{{ {b} }}")).collect();
            format!("SELECT ?o WHERE {{ {} }}", parts.join(" UNION "))
        }
    }
}

/// Apply the multi-value policy to (s, o) solutions.
fn apply_multi_policy(sols: Solutions, policy: MultiValuePolicy) -> Solutions {
    if policy == MultiValuePolicy::RowPerMatch {
        return sols;
    }
    let s_idx = sols.var_index("s").expect("pairs query binds ?s");
    let o_idx = sols.var_index("o").expect("pairs query binds ?o");
    let mut order: Vec<Term> = Vec::new();
    let mut objects: std::collections::HashMap<Term, Vec<Term>> =
        std::collections::HashMap::new();
    for row in &sols.rows {
        if let (Some(s), Some(o)) = (&row[s_idx], &row[o_idx]) {
            let entry = objects.entry(s.clone()).or_insert_with(|| {
                order.push(s.clone());
                Vec::new()
            });
            entry.push(o.clone());
        }
    }
    let rows = order
        .into_iter()
        .map(|s| {
            let os = &objects[&s];
            let o = match policy {
                MultiValuePolicy::FirstMatch => os[0].clone(),
                MultiValuePolicy::Concatenate => {
                    if os.len() == 1 {
                        os[0].clone()
                    } else {
                        Term::lit(
                            os.iter()
                                .map(|t| t.lexical_form().to_string())
                                .collect::<Vec<_>>()
                                .join("; "),
                        )
                    }
                }
                MultiValuePolicy::RowPerMatch => unreachable!(),
            };
            let mut row = vec![None; sols.variables.len()];
            row[s_idx] = Some(s);
            row[o_idx] = Some(o);
            row
        })
        .collect();
    Solutions { variables: sols.variables, rows }
}

/// Subjects related to `concept` in (s, o) solutions.
fn concept_subjects(sols: &Solutions, concept: &str) -> Result<Vec<Term>> {
    let s_idx = sols
        .var_index("s")
        .ok_or_else(|| Error::sqm("pairs query must bind ?s"))?;
    let o_idx = sols
        .var_index("o")
        .ok_or_else(|| Error::sqm("pairs query must bind ?o"))?;
    let mut out = Vec::new();
    for row in &sols.rows {
        if let (Some(s), Some(o)) = (&row[s_idx], &row[o_idx]) {
            if o.matches_lexical(concept) && !out.contains(s) {
                out.push(s.clone());
            }
        }
    }
    Ok(out)
}

/// Append a boolean column: true iff the row's attr value denotes one of
/// `subjects` (paper Sec. IV-A.3: "all the other values will be associated
/// to the value false").
fn append_bool_column(
    rows: RowSet,
    attr_index: usize,
    subjects: &[Term],
    strategy: &MapStrategy,
    name: &str,
) -> RowSet {
    let mut schema = rows.schema;
    schema.columns.push(Column::new(name.to_string(), DataType::Bool));
    let rows_out = rows
        .rows
        .into_iter()
        .map(|mut r| {
            let hit = !r[attr_index].is_null()
                && subjects.iter().any(|s| strategy.matches(&r[attr_index], s));
            r.push(Value::Bool(hit));
            r
        })
        .collect();
    RowSet { schema, rows: rows_out }
}

/// Phase D: arrange the working rows into the enriched result. Every base
/// column keeps its position, a replacement substitutes its enrichment
/// column at the attr's position, and extensions append in clause order.
/// Values are moved, not cloned — no working column is output twice.
fn finalize(rows: RowSet, applied: &[AppliedColumn]) -> RowSet {
    let columns = &rows.schema.columns;
    let base_len = columns.len() - applied.len();
    // (working column index, output name)
    let mut items: Vec<(usize, String)> = (0..base_len)
        .map(|i| match applied.iter().find(|a| a.replaces_attr && a.attr_index == i) {
            Some(a) => (a.added_index, a.output_name.clone()),
            None => (i, columns[i].display_name()),
        })
        .collect();
    items.extend(
        applied
            .iter()
            .filter(|a| !a.replaces_attr)
            .map(|a| (a.added_index, a.output_name.clone())),
    );
    // De-duplicate output names (SQL result sets may repeat names, but
    // the enriched result is easier to consume with unique ones).
    for k in 1..items.len() {
        let (earlier, rest) = items.split_at_mut(k);
        let name = &mut rest[0].1;
        let base_len = name.len();
        let mut n = 1;
        while earlier.iter().any(|(_, s)| s.eq_ignore_ascii_case(name)) {
            n += 1;
            name.truncate(base_len);
            name.push_str(&format!("_{n}"));
        }
    }

    let schema = Schema::new(
        items
            .iter()
            .map(|(i, name)| Column::new(name.clone(), columns[*i].data_type))
            .collect(),
    );
    let rows = rows
        .rows
        .into_iter()
        .map(|mut row| {
            items
                .iter()
                .map(|(i, _)| std::mem::replace(&mut row[*i], Value::Null))
                .collect()
        })
        .collect();
    RowSet { schema, rows }
}

/// Rewrite an ontology constant inside a tagged condition into the
/// replacement value set. The constant may appear as a bare identifier
/// (paper Ex. 4.5's `HazardousWaste`) or as a string literal; it must sit
/// on one side of a comparison.
fn rewrite_constant(cond: Expr, constant: &str, values: &[Value]) -> Result<Expr> {
    fn is_marker(e: &Expr, constant: &str) -> bool {
        match e {
            Expr::Column { qualifier: None, name } => name == constant,
            Expr::Literal(Value::Str(s)) => s == constant,
            _ => false,
        }
    }

    let list: Vec<Expr> = values.iter().map(|v| Expr::Literal(v.clone())).collect();
    let mut replaced = false;
    let rewritten = cond.clone().rewrite(&mut |node| {
        if let Expr::Binary { left, op, right } = &node {
            let (other, marker_side) = if is_marker(right, constant) {
                (left.as_ref().clone(), true)
            } else if is_marker(left, constant) {
                (right.as_ref().clone(), false)
            } else {
                return node;
            };
            replaced = true;
            return match op {
                BinaryOp::Eq => Expr::InList {
                    expr: Box::new(other),
                    list: list.clone(),
                    negated: false,
                },
                BinaryOp::NotEq => Expr::InList {
                    expr: Box::new(other),
                    list: list.clone(),
                    negated: true,
                },
                op => {
                    // attr < Const → ∃ v: attr < v (existential over the
                    // replacement set).
                    let op = *op;
                    list.iter()
                        .map(|v| {
                            if marker_side {
                                Expr::binary(other.clone(), op, v.clone())
                            } else {
                                Expr::binary(v.clone(), op, other.clone())
                            }
                        })
                        .reduce(Expr::or)
                        .unwrap_or(Expr::lit(false))
                }
            };
        }
        node
    });
    if !replaced {
        return Err(Error::sqm(format!(
            "REPLACECONSTANT: constant `{constant}` does not occur in a comparison \
             inside the tagged condition `{cond}`"
        )));
    }
    Ok(rewritten)
}

/// Replace the subtree equal to `target` inside the WHERE clause.
fn replace_condition(select: &mut Select, target: &Expr, replacement: Expr) -> Result<()> {
    let Some(filter) = select.filter.take() else {
        return Err(Error::sqm(
            "query has no WHERE clause, nothing to enrich",
        ));
    };
    let mut hit = false;
    let new_filter = filter.rewrite(&mut |node| {
        if !hit && node == *target {
            hit = true;
            replacement.clone()
        } else {
            node
        }
    });
    if !hit {
        select.filter = Some(new_filter);
        return Err(Error::sqm(format!(
            "tagged condition `{target}` not found in the WHERE clause"
        )));
    }
    select.filter = Some(new_filter);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crosse_rdf::store::Triple;

    fn iri(s: &str) -> Term {
        Term::iri(s)
    }
    fn lit(s: &str) -> Term {
        Term::lit(s)
    }

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

    /// The running example data: the SmartGround fragment of Fig. 3 plus
    /// the director's personal ontology from the paper's examples.
    fn engine() -> SesqlEngine {
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
        kb.register_user("director");
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
        kb.register_user("planner");
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

    /// The output projection's contract: base columns keep their position,
    /// a replacement takes its attr's position, extensions append in
    /// clause order, clashing names get `_2`, and every column's reported
    /// type is the type of its values.
    #[test]
    fn finalize_contract_names_positions_types() {
        use DataType::{Bool, Float, Int, Text};
        let cases: [(&str, &[(&str, DataType)]); 5] = [
            (
                "SELECT elem_name, landfill_name FROM elem_contained \
                 WHERE landfill_name = 'a' \
                 ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)",
                &[("elem_name", Text), ("landfill_name", Text), ("dangerLevel", Int)],
            ),
            (
                "SELECT name, city FROM landfill ENRICH SCHEMAREPLACEMENT(city, inCountry)",
                &[("name", Text), ("inCountry", Text)],
            ),
            (
                "SELECT elem_name FROM elem_contained WHERE landfill_name = 'a' \
                 ENRICH BOOLSCHEMAEXTENSION(elem_name, isA, HazardousWaste)",
                &[("elem_name", Text), ("HazardousWaste", Bool)],
            ),
            (
                "SELECT name, city FROM landfill \
                 ENRICH BOOLSCHEMAREPLACEMENT(city, inCountry, Italy)",
                &[("name", Text), ("Italy", Bool)],
            ),
            (
                "SELECT e.elem_name, landfill_name AS dangerLevel, amount \
                 FROM elem_contained e WHERE landfill_name = 'a' \
                 ENRICH BOOLSCHEMAEXTENSION(e.elem_name, isA, HazardousWaste) \
                        SCHEMAREPLACEMENT(e.elem_name, dangerLevel)",
                &[
                    ("dangerLevel", Int),
                    ("dangerLevel_2", Text),
                    ("amount", Float),
                    ("HazardousWaste", Bool),
                ],
            ),
        ];
        let e = engine();
        for (sesql, expected) in cases {
            let rows = e.execute("director", sesql).unwrap().rows;
            let got: Vec<(&str, DataType)> = rows
                .schema
                .columns
                .iter()
                .map(|c| (c.name.as_str(), c.data_type))
                .collect();
            assert_eq!(got, expected, "{sesql}");
            assert!(rows.schema.columns.iter().all(|c| c.qualifier.is_none()), "{sesql}");
            assert!(!rows.rows.is_empty(), "{sesql}");
            for row in &rows.rows {
                assert_eq!(row.len(), expected.len(), "{sesql}");
                for (v, (name, ty)) in row.iter().zip(expected) {
                    assert!(
                        v.is_null() || v.data_type() == Some(*ty),
                        "{sesql}: column `{name}` holds {v:?}"
                    );
                }
            }
        }
        // Values travel with their columns: Hg's danger level replaces
        // its name, next to the landfill it sits in.
        let rows = e.execute("director", cases[4].0).unwrap().rows;
        assert!(rows.rows.contains(&vec![
            Value::Int(5),
            Value::from("a"),
            Value::Float(12.5),
            Value::Bool(true),
        ]));
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

    // ---- SPARQL-leg cache ----------------------------------------------------

    const CACHED_QUERY: &str = "SELECT elem_name FROM elem_contained \
                                ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)";

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

    #[test]
    fn repeated_query_hits_sparql_cache() {
        let e = engine();
        let r1 = e.execute("director", CACHED_QUERY).unwrap();
        assert!(!r1.report.sparql_runs[0].cached);
        let r2 = e.execute("director", CACHED_QUERY).unwrap();
        assert!(r2.report.sparql_runs[0].cached);
        assert_eq!(r1.rows.rows, r2.rows.rows);
        let stats = e.cache_stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn kb_mutation_invalidates_cache() {
        let e = engine();
        let r1 = e.execute("director", CACHED_QUERY).unwrap();
        let nulls_before = r1
            .rows
            .column_values("dangerLevel")
            .unwrap()
            .iter()
            .filter(|v| v.is_null())
            .count();
        e.knowledge_base()
            .assert_statement(
                "director",
                &Triple::new(iri("Sn"), iri("dangerLevel"), lit("2")),
            )
            .unwrap();
        let r2 = e.execute("director", CACHED_QUERY).unwrap();
        assert!(!r2.report.sparql_runs[0].cached, "stale entry must not serve");
        let nulls_after = r2
            .rows
            .column_values("dangerLevel")
            .unwrap()
            .iter()
            .filter(|v| v.is_null())
            .count();
        assert!(nulls_after < nulls_before, "Sn's new danger level is visible");
    }

    #[test]
    fn cache_is_per_user_context() {
        let e = engine();
        e.knowledge_base().register_user("other");
        e.execute("director", CACHED_QUERY).unwrap();
        let r = e.execute("other", CACHED_QUERY).unwrap();
        // `other` has an empty context — different graphs, no false hit.
        assert!(!r.report.sparql_runs[0].cached);
        assert!(r.rows.column_values("dangerLevel").unwrap().iter().all(Value::is_null));
    }

    #[test]
    fn clear_cache_forces_reevaluation() {
        let e = engine();
        e.execute("director", CACHED_QUERY).unwrap();
        e.clear_cache();
        let r = e.execute("director", CACHED_QUERY).unwrap();
        assert!(!r.report.sparql_runs[0].cached);
    }

    #[test]
    fn stored_query_leg_is_cached_too() {
        let e = engine();
        e.stored_queries()
            .register(
                "dangerQuery",
                "SELECT ?e WHERE { ?e <dangerLevel> ?d . FILTER(?d >= 4) }",
            )
            .unwrap();
        let q = "SELECT landfill_name FROM elem_contained \
                 WHERE ${elem_name = HazardousWaste:cond1} \
                 ENRICH REPLACECONSTANT(cond1, HazardousWaste, dangerQuery)";
        let r1 = e.execute("director", q).unwrap();
        assert!(!r1.report.sparql_runs[0].cached);
        let r2 = e.execute("director", q).unwrap();
        assert!(r2.report.sparql_runs[0].cached);
        assert_eq!(r1.rows.rows, r2.rows.rows);
    }
}
