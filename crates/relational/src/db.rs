//! The `Database` facade: parse → plan → execute, plus the prepared-
//! statement entry point (parse once → bind → stream).

use std::fmt;
use std::sync::Arc;

use crosse_cache::{CacheStats, Lru};
use parking_lot::Mutex;
pub use parking_lot::tracking::LockSiteStats;

use crate::error::{Error, Result};
use crate::exec::expr::bind;
use crate::exec::Rows;
use crate::foreign::{DataSource, Foreign};
use crate::opt::{optimize, OptimizerConfig};
use crate::plan::plan_select;
use crate::prepared::{normalize_sql, Params, Prepared, SharedMemo};
use crate::schema::{Column, Schema};
use crate::sql::ast::{Expr, Select, Statement};
use crate::sql::parser::{parse_script, parse_statement, parse_statement_with_params};
use crate::storage::durable::{
    DurabilityHandle, RelDurability, WalOptions, WalRedoSink, WalStats,
};
use crate::storage::snapshot::decode_catalog;
use crate::storage::wal::apply_rel_op;
use crate::storage::{Catalog, Table};
use crate::value::{Interner, Row, Value};

/// A materialised query result: a schema plus rows.
#[derive(Debug, Clone, PartialEq)]
pub struct RowSet {
    pub schema: Schema,
    pub rows: Vec<Row>,
}

impl RowSet {
    pub fn empty(schema: Schema) -> Self {
        RowSet { schema, rows: Vec::new() }
    }

    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Index of an output column by name (alias-aware).
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.schema.index_of_output(name)
    }

    /// All values of one output column.
    pub fn column_values(&self, name: &str) -> Result<Vec<Value>> {
        let idx = self
            .column_index(name)
            .ok_or_else(|| Error::plan(format!("no output column `{name}`")))?;
        Ok(self.rows.iter().map(|r| r[idx].clone()).collect())
    }

    /// Render as an ASCII table (for examples and the experiment harness).
    pub fn to_ascii_table(&self) -> String {
        let headers: Vec<String> =
            self.schema.columns.iter().map(|c| c.display_name()).collect();
        let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
        let cells: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                r.iter()
                    .enumerate()
                    .map(|(i, v)| {
                        let s = match v {
                            Value::Str(s) => s.to_string(),
                            other => other.to_string(),
                        };
                        widths[i] = widths[i].max(s.len());
                        s
                    })
                    .collect()
            })
            .collect();
        let mut out = String::new();
        let sep = |out: &mut String| {
            out.push('+');
            for w in &widths {
                out.push_str(&"-".repeat(w + 2));
                out.push('+');
            }
            out.push('\n');
        };
        sep(&mut out);
        out.push('|');
        for (h, w) in headers.iter().zip(&widths) {
            out.push_str(&format!(" {h:<w$} |"));
        }
        out.push('\n');
        sep(&mut out);
        for row in &cells {
            out.push('|');
            for (c, w) in row.iter().zip(&widths) {
                out.push_str(&format!(" {c:<w$} |"));
            }
            out.push('\n');
        }
        sep(&mut out);
        out.push_str(&format!("({} rows)\n", self.rows.len()));
        out
    }
}

impl fmt::Display for RowSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_ascii_table())
    }
}

/// Outcome of executing one statement.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecOutcome {
    /// SELECT produced rows.
    Rows(RowSet),
    /// DML affected `n` rows.
    Affected(usize),
    /// DDL completed.
    Done,
}

impl ExecOutcome {
    /// Unwrap a row set; error if the statement was not a SELECT.
    pub fn into_rows(self) -> Result<RowSet> {
        match self {
            ExecOutcome::Rows(r) => Ok(r),
            other => Err(Error::plan(format!("statement produced {other:?}, not rows"))),
        }
    }
}

/// Default capacity of the prepared-statement (plan) cache.
pub const DEFAULT_PLAN_CACHE_CAPACITY: usize = 256;

/// A prepared statement as stored in the plan cache: what a
/// [`Prepared`] is made of, minus the database (which owns the cache).
#[derive(Debug, Clone)]
struct CachedStmt {
    select: Arc<Select>,
    /// Shared with every handle `prepare` hands out for this text, so one
    /// handle's plan template serves them all.
    memo: SharedMemo,
    /// Lint diagnostics computed at prepare time (parameters allowed).
    warnings: Arc<Vec<crosse_lint::Diagnostic>>,
    /// Catalog version the lint and the eager plan ran against; DDL makes
    /// the entry a miss.
    version: u64,
}

/// An in-memory SQL database: a catalog plus an execution engine.
///
/// Cloning is cheap and shares the underlying catalog (and the plan
/// cache), mirroring a pool of connections to one server.
#[derive(Debug, Clone)]
pub struct Database {
    catalog: Catalog,
    plans: Arc<Mutex<Lru<String, CachedStmt>>>,
    /// Worker threads for morsel-parallel query execution (shared across
    /// clones — one engine, one setting). 1 = sequential.
    exec_threads: Arc<std::sync::atomic::AtomicUsize>,
    /// Shared string interner: repeated lexical forms entering the engine
    /// (CSV loads, enrichment term decodes) share one allocation, so text
    /// equality gets a pointer fast path across independent producers.
    interner: Arc<Interner>,
    /// Which plan-rewrite passes run between planning and execution
    /// (shared across clones — one engine, one setting).
    opt: Arc<Mutex<OptimizerConfig>>,
    /// Bumped by every `set_optimizer_config`; half of [`Database::plan_tag`].
    opt_epoch: Arc<std::sync::atomic::AtomicU64>,
    /// Durability handle when the database was opened from a data
    /// directory ([`Database::open`]); `None` for in-memory databases.
    durability: Option<Arc<dyn DurabilityHandle>>,
}

impl Default for Database {
    fn default() -> Self {
        Database {
            catalog: Catalog::default(),
            plans: Arc::new(Mutex::new_labeled("db.plan_cache", Lru::new(DEFAULT_PLAN_CACHE_CAPACITY))),
            exec_threads: Arc::new(std::sync::atomic::AtomicUsize::new(1)),
            interner: Arc::new(Interner::new()),
            opt: Arc::new(Mutex::new_labeled("db.opt_config", OptimizerConfig::default())),
            opt_epoch: Arc::default(),
            durability: None,
        }
    }
}

impl Database {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Open (or create) a durable database at `path` with the default WAL
    /// options. Loads the latest snapshot, replays the log tail, then
    /// attaches the redo sink so every subsequent mutation is logged.
    pub fn open(path: impl AsRef<std::path::Path>) -> Result<Database> {
        Self::open_with(path, WalOptions::default())
    }

    /// [`Database::open`] with explicit [`WalOptions`] (sync policy).
    pub fn open_with(
        path: impl AsRef<std::path::Path>,
        opts: WalOptions,
    ) -> Result<Database> {
        let (wal, recovered) = crosse_wal::WalStore::open(path, opts)?;
        let mut db = Database::new();
        // 1. Restore the checkpoint snapshot (if any).
        for (tag, bytes) in &recovered.sections {
            if *tag == crosse_wal::CHAN_REL {
                decode_catalog(&db.catalog, bytes, Some(&db.interner))?;
            }
        }
        // 2. Replay the log tail. No sink is attached yet, so replay never
        //    re-logs.
        for rec in &recovered.records {
            if rec.chan == crosse_wal::CHAN_REL {
                apply_rel_op(&db.catalog, &rec.payload, Some(&db.interner))?;
            }
        }
        // 3. Start logging.
        db.catalog
            .attach_sink(Arc::new(WalRedoSink::new(Arc::clone(&wal), crosse_wal::CHAN_REL)));
        db.durability = Some(Arc::new(RelDurability::new(
            wal,
            db.catalog.clone(),
            recovered.warnings.clone(),
        )));
        Ok(db)
    }

    /// Install a durability handle (used by `crosse-core`, which owns a
    /// combined relational+RDF checkpoint and shares one log).
    pub fn set_durability(&mut self, handle: Arc<dyn DurabilityHandle>) {
        self.durability = Some(handle);
    }

    /// Whether this database logs to a write-ahead log.
    pub fn is_durable(&self) -> bool {
        self.durability.is_some()
    }

    fn durability(&self) -> Result<&Arc<dyn DurabilityHandle>> {
        self.durability.as_ref().ok_or_else(|| {
            Error::storage("database was not opened from a data directory")
        })
    }

    /// Take a checkpoint: pin both stores' state under the WAL barrier,
    /// write the snapshot off-thread, truncate the log. Returns the pinned
    /// LSN. Errors if the database is not durable.
    pub fn checkpoint(&self) -> Result<u64> {
        self.durability()?.checkpoint()
    }

    /// Wait for any in-flight checkpoint and surface its error, if any.
    pub fn checkpoint_join(&self) -> Result<()> {
        self.durability()?.checkpoint_join()
    }

    /// WAL statistics, or `None` for an in-memory database.
    pub fn wal_stats(&self) -> Option<WalStats> {
        self.durability.as_ref().map(|d| d.wal_stats())
    }

    /// Per-site lock acquisition/contention/hold-time counters from the
    /// concurrency tracking layer, sorted by site label. Counters are
    /// process-global (every labeled lock in the process reports here, not
    /// just this database's). Empty in release builds — the layer compiles
    /// out — and in debug builds unless `CROSSE_LOCK_TRACK` is set or
    /// [`parking_lot::tracking::set_enabled`] was called.
    pub fn lock_stats(&self) -> Vec<LockSiteStats> {
        parking_lot::tracking::stats()
    }

    /// Non-fatal notes from recovery (e.g. a torn final record that was
    /// truncated away). Empty for in-memory databases and clean opens.
    pub fn recovery_warnings(&self) -> Vec<String> {
        self.durability
            .as_ref()
            .map(|d| d.recovery_warnings())
            .unwrap_or_default()
    }

    /// The database's string interner (shared across clones). Layers that
    /// convert external data into [`Value`]s intern through this so
    /// repeated lexical forms cost one allocation total.
    pub fn interner(&self) -> &Arc<Interner> {
        &self.interner
    }

    /// Import CSV text into `table_name`, interning text fields through
    /// the database's interner. See [`crate::csv::import_csv`].
    pub fn import_csv(&self, table_name: &str, text: &str, has_header: bool) -> Result<usize> {
        let table = self.catalog.get_table(table_name)?;
        crate::csv::import_csv_interned(&table, text, has_header, Some(&self.interner))
    }

    /// Set the worker-thread budget for morsel-parallel query execution
    /// (scan/filter/project pipelines and hash-join probe sides partition
    /// pinned snapshots across this many threads). 1 disables parallelism;
    /// 0 is clamped to 1. Applies to every clone of this database.
    pub fn set_exec_threads(&self, threads: usize) {
        self.exec_threads
            .store(threads.max(1), std::sync::atomic::Ordering::Release);
    }

    /// Current worker-thread budget for query execution.
    pub fn exec_threads(&self) -> usize {
        self.exec_threads.load(std::sync::atomic::Ordering::Acquire)
    }

    /// Set which plan-rewrite passes run between planning and execution
    /// (see [`crate::opt`]). The default enables every pass;
    /// [`OptimizerConfig::none`] executes plans exactly as built —
    /// the equivalence property tests compare the two. Applies to every
    /// clone of this database and also invalidates every plan template
    /// (they embed the optimized shape), cached or held by a live
    /// [`Prepared`].
    pub fn set_optimizer_config(&self, cfg: OptimizerConfig) {
        *self.opt.lock() = cfg;
        // Release pairs with the Acquire in `plan_tag`: whoever reads the
        // new epoch plans under the new config.
        self.opt_epoch.fetch_add(1, std::sync::atomic::Ordering::Release);
        self.plans.lock().clear();
    }

    /// What a plan template is valid for: (catalog version, optimizer-
    /// config epoch).
    pub(crate) fn plan_tag(&self) -> (u64, u64) {
        (
            self.catalog.version(),
            self.opt_epoch.load(std::sync::atomic::Ordering::Acquire),
        )
    }

    /// The active plan-rewrite pass configuration.
    pub fn optimizer_config(&self) -> OptimizerConfig {
        *self.opt.lock()
    }

    /// Plan a SELECT and run it through the configured rewrite passes.
    /// This is what every execution path uses; it is public so other
    /// layers (the SESQL engine's `EXPLAIN`, tooling) can inspect the
    /// exact plan a statement would run as.
    pub fn plan_optimized(&self, select: &Select) -> Result<crate::opt::Optimized> {
        let plan = plan_select(&self.catalog, select)?;
        Ok(optimize(plan, &self.optimizer_config())?)
    }

    /// Compile a parsed SELECT into its executable form. Nothing is
    /// derived from the catalog yet — no plan, no lint, no cache entry:
    /// the handle types its slots and plans at first use, so a statement
    /// that cannot be planned as written (SESQL Ex. 4.5's
    /// `elem_name = HazardousWaste` before its WHERE enrichment rewrites
    /// it) still compiles, and "compile, run, drop" costs no more than
    /// planning once.
    pub fn compile(&self, select: Arc<Select>) -> Prepared {
        Prepared::new(self.clone(), String::new(), select, None)
    }

    /// Prepare a SELECT from text: [`Database::compile`] behind a bounded
    /// LRU keyed by normalized text (repeated `prepare` calls with
    /// equivalent text skip the front-end and share one plan template),
    /// plus what a caller preparing ahead of time relies on — the
    /// statement is linted, and a parameterless one is planned now, so a
    /// bad table is a prepare-time error.
    pub fn prepare(&self, sql: &str) -> Result<Prepared> {
        let key = normalize_sql(sql)?;
        let version = self.catalog.version();
        // Bind the lookup before matching: an `if let` scrutinee would
        // keep the cache lock alive across the re-lock below.
        let cached = { self.plans.lock().get(&key).cloned() };
        if let Some(c) = cached.filter(|c| c.version == version) {
            return Ok(Prepared {
                db: self.clone(),
                select: c.select,
                text: key,
                warnings: Some(c.warnings),
                memo: c.memo,
            });
        }
        let (stmt, _) = parse_statement_with_params(sql)?;
        let Statement::Select(select) = stmt else {
            return Err(Error::plan(
                "only SELECT statements can be prepared (DDL/DML execute directly)",
            ));
        };
        let select: Arc<Select> = Arc::from(select);
        // Parameters are expected in a prepared statement, so the linter
        // runs with L006 suppressed. Lint against the normalized text:
        // spans are best-effort anyway and the original was not retained.
        let warnings =
            Arc::new(crate::lint::lint_select(&self.catalog, &select, &key, true));
        let prepared =
            Prepared::new(self.clone(), key.clone(), Arc::clone(&select), Some(Arc::clone(&warnings)));
        let slots = prepared.param_slots();
        // Prepare-time invariant: the AST must not reference a parameter
        // slot outside the table we just derived (an engine bug in slot
        // collection or AST caching, not a user error).
        crate::opt::validate::check_param_slots(&select, slots.len()).map_err(Error::plan)?;
        if slots.is_empty() {
            prepared.plan(&Params::new(), true)?;
        }
        self.plans.lock().put(
            key,
            CachedStmt { select, memo: Arc::clone(&prepared.memo), warnings, version },
        );
        Ok(prepared)
    }

    /// Lint a statement without executing it: parse, then run the
    /// semantic rules of [`crate::lint`] (always-false predicates,
    /// implicit cross joins, coercing comparisons, ...). Parse errors are
    /// returned as errors; a clean statement returns an empty list.
    pub fn lint(&self, sql: &str) -> Result<Vec<crosse_lint::Diagnostic>> {
        let (stmt, _) = parse_statement_with_params(sql)?;
        Ok(crate::lint::lint_statement(&self.catalog, &stmt, sql, false))
    }

    /// Hit/miss/eviction statistics of the prepared-statement cache.
    pub fn prepare_cache_stats(&self) -> CacheStats {
        self.plans.lock().stats()
    }

    /// Resize the prepared-statement cache (0 disables caching).
    pub fn set_plan_cache_capacity(&self, capacity: usize) {
        self.plans.lock().set_capacity(capacity);
    }

    /// Parse, compile and stream a SELECT through a cursor in one call
    /// (the ad-hoc path: the handle is dropped with the call; prepared
    /// statements keep it and amortise the front-end).
    pub fn query_cursor(&self, sql: &str) -> Result<Rows> {
        let stmt = parse_statement(sql)?;
        let Statement::Select(select) = stmt else {
            return Err(Error::plan("query_cursor expects a SELECT statement"));
        };
        self.compile(Arc::from(select)).execute_once(&Params::new())
    }

    /// Parse and execute a single statement.
    pub fn execute(&self, sql: &str) -> Result<ExecOutcome> {
        self.execute_statement(parse_statement(sql)?)
    }

    /// Execute a `;`-separated script, returning the outcome of each
    /// statement.
    pub fn execute_script(&self, sql: &str) -> Result<Vec<ExecOutcome>> {
        parse_script(sql)?
            .into_iter()
            .map(|s| self.execute_statement(s))
            .collect()
    }

    /// Shorthand: execute a SELECT and return its rows.
    pub fn query(&self, sql: &str) -> Result<RowSet> {
        self.execute(sql)?.into_rows()
    }

    /// Execute an already-parsed statement. The SESQL layer uses this to run
    /// the "cleaned" SQL query (paper Remark 4.1) without re-rendering text.
    pub fn execute_statement(&self, stmt: Statement) -> Result<ExecOutcome> {
        match stmt {
            Statement::Select(s) => {
                let rows = self.compile(Arc::from(s)).execute_once(&Params::new())?;
                rows.collect_rows().map(ExecOutcome::Rows)
            }
            Statement::Explain(s) => {
                let optimized = self.plan_optimized(&s)?;
                let schema = Schema::new(vec![Column::new("plan", crate::value::DataType::Text)]);
                let mut lines: Vec<String> =
                    optimized.render().lines().map(str::to_string).collect();
                // Lint footer: one `-- lint:` line per diagnostic, so
                // EXPLAIN doubles as a quick statement health check.
                for d in crate::lint::lint_select(&self.catalog, &s, "", true) {
                    lines.push(format!("-- lint: {d}"));
                }
                let rows = lines.into_iter().map(|l| vec![Value::from(l)]).collect();
                Ok(ExecOutcome::Rows(RowSet { schema, rows }))
            }
            Statement::CreateTable { name, columns, or_replace, if_not_exists } => {
                let cols: Vec<Column> = columns
                    .iter()
                    .map(|c| Column::new(c.name.clone(), c.data_type))
                    .collect();
                if or_replace {
                    self.catalog.create_or_replace_table(&name, cols)?;
                } else if if_not_exists && self.catalog.has_table(&name) {
                    // no-op
                } else {
                    self.catalog.create_table(&name, cols)?;
                }
                Ok(ExecOutcome::Done)
            }
            Statement::DropTable { name, if_exists } => {
                match self.catalog.drop_table(&name) {
                    Ok(()) => Ok(ExecOutcome::Done),
                    Err(_) if if_exists => Ok(ExecOutcome::Done),
                    Err(e) => Err(e),
                }
            }
            Statement::CreateIndex { name, table, column, if_not_exists } => {
                if if_not_exists && self.catalog.has_index(&name) {
                    return Ok(ExecOutcome::Done);
                }
                self.catalog.create_index(&name, &table, &column)?;
                Ok(ExecOutcome::Done)
            }
            Statement::DropIndex { name, if_exists } => {
                match self.catalog.drop_index(&name) {
                    Ok(()) => Ok(ExecOutcome::Done),
                    Err(_) if if_exists => Ok(ExecOutcome::Done),
                    Err(e) => Err(e),
                }
            }
            Statement::Insert { table, columns, rows } => {
                let t = self.catalog.get_table(&table)?;
                let schema = &t.schema;
                let positions = insert_positions(schema, &columns)?;
                let empty = Schema::default();
                let mut materialised = Vec::with_capacity(rows.len());
                for value_exprs in rows {
                    if value_exprs.len() != positions.len() {
                        return Err(Error::constraint(format!(
                            "INSERT expects {} values, got {}",
                            positions.len(),
                            value_exprs.len()
                        )));
                    }
                    let mut row = vec![Value::Null; schema.len()];
                    for (e, &pos) in value_exprs.iter().zip(&positions) {
                        // VALUES expressions are constant: bind to an empty
                        // schema and evaluate against an empty row.
                        let bound = bind(e, &empty)?;
                        row[pos] = bound.eval(&Vec::new())?;
                    }
                    materialised.push(row);
                }
                let n = t.insert_many(materialised)?;
                Ok(ExecOutcome::Affected(n))
            }
            Statement::InsertSelect { table, columns, query } => {
                let t = self.catalog.get_table(&table)?;
                let schema = &t.schema;
                let positions = insert_positions(schema, &columns)?;
                let source =
                    self.compile(Arc::from(query)).execute_once(&Params::new())?.collect_rows()?;
                if source.schema.len() != positions.len() {
                    return Err(Error::constraint(format!(
                        "INSERT ... SELECT provides {} column(s), target expects {}",
                        source.schema.len(),
                        positions.len()
                    )));
                }
                let mut materialised = Vec::with_capacity(source.rows.len());
                for src_row in source.rows {
                    let mut row = vec![Value::Null; schema.len()];
                    for (v, &pos) in src_row.into_iter().zip(&positions) {
                        row[pos] = v;
                    }
                    materialised.push(row);
                }
                let n = t.insert_many(materialised)?;
                Ok(ExecOutcome::Affected(n))
            }
            Statement::Delete { table, filter } => {
                let t = self.catalog.get_table(&table)?;
                let n = match filter {
                    None => {
                        let n = t.row_count();
                        t.truncate()?;
                        n
                    }
                    Some(f) => {
                        let pred = self.bind_dml_filter(f, &t.schema)?;
                        // Collect matches first so an evaluation error
                        // leaves the table untouched.
                        let rows = t.scan();
                        let mut keep_err: Option<Error> = None;
                        let matches: Vec<bool> = rows
                            .iter()
                            .map(|r| match pred.eval_predicate(r) {
                                Ok(b) => b,
                                Err(e) => {
                                    keep_err.get_or_insert(e);
                                    false
                                }
                            })
                            .collect();
                        if let Some(e) = keep_err {
                            return Err(e);
                        }
                        let mut it = matches.iter();
                        t.delete_where(|_| *it.next().unwrap_or(&false))?
                    }
                };
                Ok(ExecOutcome::Affected(n))
            }
            Statement::Update { table, assignments, filter } => {
                let t = self.catalog.get_table(&table)?;
                let schema = t.schema.clone();
                let pred = filter.map(|f| self.bind_dml_filter(f, &schema)).transpose()?;
                let bound: Vec<(usize, crate::exec::expr::BoundExpr)> = assignments
                    .iter()
                    .map(|(c, e)| Ok((schema.resolve(None, c)?, bind(e, &schema)?)))
                    .collect::<Result<_>>()?;
                let n = t.update_where(|row| {
                    if let Some(p) = &pred {
                        if !p.eval_predicate(row)? {
                            return Ok(false);
                        }
                    }
                    let mut new_row = row.clone();
                    for (idx, e) in &bound {
                        let v = e.eval(row)?;
                        new_row[*idx] =
                            v.coerce(schema.columns[*idx].data_type)?;
                    }
                    *row = new_row;
                    Ok(true)
                })?;
                Ok(ExecOutcome::Affected(n))
            }
        }
    }

    /// Bind a DELETE/UPDATE filter, first materialising any uncorrelated
    /// subqueries it contains (e.g. `DELETE ... WHERE x IN (SELECT ...)`).
    fn bind_dml_filter(
        &self,
        filter: Expr,
        schema: &Schema,
    ) -> Result<crate::exec::expr::BoundExpr> {
        let resolved = crate::plan::resolve_expr_subqueries(&self.catalog, filter)?;
        bind(&resolved, schema)
    }

    /// Import every table of `source` as a read-only foreign table named
    /// `<source>__<table>` and return the names. All or none: a name
    /// already taken fails the call before any table is added. A foreign
    /// table holds no rows and is never logged or snapshotted; each query
    /// reads it live from the source, shipping the WHERE conjuncts that
    /// bind to it (see [`crate::foreign`]). A local snapshot is
    /// `CREATE TABLE` + `INSERT … SELECT`.
    pub fn register_source(&self, source: Arc<dyn DataSource>) -> Result<Vec<String>> {
        let tables = source
            .table_names()
            .into_iter()
            .map(|remote| {
                let columns = source.table_schema(&remote)?.columns;
                let schema = Schema::new(
                    columns.into_iter().map(|c| Column::new(c.name, c.data_type)).collect(),
                );
                let name = format!("{}__{remote}", source.name());
                let foreign = Foreign { source: Arc::clone(&source), table: remote };
                Ok(Table::new_foreign(name, schema, foreign))
            })
            .collect::<Result<Vec<_>>>()?;
        let names = tables.iter().map(|t| t.name.clone()).collect();
        self.catalog.add_foreign_tables(tables)?;
        Ok(names)
    }

    /// Materialise owned rows as a new table (the SESQL engine's
    /// REPLACEVARIABLE pairs tables). Materialised tables are
    /// **ephemeral**: derived intermediates are rebuildable, so they stay
    /// out of the write-ahead log and checkpoint snapshots.
    pub fn materialise_owned(&self, name: &str, schema: &Schema, rows: Vec<Row>) -> Result<()> {
        let cols: Vec<Column> = schema
            .columns
            .iter()
            .map(|c| Column::new(c.name.clone(), c.data_type))
            .collect();
        let table = self.catalog.create_ephemeral_table(name, cols)?;
        table.insert_many(rows)?;
        Ok(())
    }
}

/// Table positions an INSERT's values land in: the listed columns, or
/// every column in order.
fn insert_positions(schema: &Schema, columns: &Option<Vec<String>>) -> Result<Vec<usize>> {
    match columns {
        Some(cols) => cols.iter().map(|c| schema.resolve(None, c)).collect(),
        None => Ok((0..schema.len()).collect()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> Database {
        let db = Database::new();
        db.execute_script(
            "CREATE TABLE landfill (name TEXT, city TEXT, tons FLOAT);
             INSERT INTO landfill VALUES
               ('Basse di Stura', 'Torino', 1200.0),
               ('Barricalla', 'Collegno', 800.5),
               ('Gerbido', 'Torino', 450.0),
               ('Vallette', NULL, 90.0);
             CREATE TABLE elem_contained (elem_name TEXT, landfill_name TEXT, amount FLOAT);
             INSERT INTO elem_contained VALUES
               ('Hg', 'Basse di Stura', 12.5),
               ('Pb', 'Basse di Stura', 30.0),
               ('As', 'Barricalla', 5.25),
               ('Cu', 'Gerbido', 100.0),
               ('Hg', 'Gerbido', 3.5);",
        )
        .unwrap();
        db
    }

    #[test]
    fn select_filter_project() {
        let rs = db()
            .query("SELECT name FROM landfill WHERE city = 'Torino' ORDER BY name")
            .unwrap();
        assert_eq!(rs.rows.len(), 2);
        assert_eq!(rs.rows[0][0], Value::from("Basse di Stura"));
        assert_eq!(rs.rows[1][0], Value::from("Gerbido"));
    }

    #[test]
    fn null_city_not_matched_by_equality_or_inequality() {
        let d = db();
        let eq = d.query("SELECT name FROM landfill WHERE city = 'Torino'").unwrap();
        let ne = d.query("SELECT name FROM landfill WHERE city <> 'Torino'").unwrap();
        assert_eq!(eq.len() + ne.len(), 3); // 'Vallette' (NULL city) in neither
    }

    #[test]
    fn implicit_cross_join_with_where() {
        let rs = db()
            .query(
                "SELECT l.name, e.elem_name FROM landfill l, elem_contained e \
                 WHERE l.name = e.landfill_name AND e.elem_name = 'Hg' ORDER BY l.name",
            )
            .unwrap();
        assert_eq!(rs.rows.len(), 2);
    }

    #[test]
    fn explicit_inner_join() {
        let rs = db()
            .query(
                "SELECT l.city, e.elem_name FROM landfill l \
                 JOIN elem_contained e ON l.name = e.landfill_name \
                 WHERE e.amount > 10 ORDER BY e.elem_name",
            )
            .unwrap();
        assert_eq!(rs.rows.len(), 3); // Hg(12.5), Pb(30), Cu(100)
    }

    #[test]
    fn left_join_pads_nulls() {
        let rs = db()
            .query(
                "SELECT l.name, e.elem_name FROM landfill l \
                 LEFT JOIN elem_contained e ON l.name = e.landfill_name \
                 ORDER BY l.name, e.elem_name",
            )
            .unwrap();
        // Vallette has no elements → one padded row. 5 matches + 1 = 6.
        assert_eq!(rs.rows.len(), 6);
        let vallette: Vec<_> = rs
            .rows
            .iter()
            .filter(|r| r[0] == Value::from("Vallette"))
            .collect();
        assert_eq!(vallette.len(), 1);
        assert!(vallette[0][1].is_null());
    }

    #[test]
    fn self_join_paper_example_46_shape() {
        // Landfills sharing a common element (Hg in Basse di Stura and Gerbido).
        let rs = db()
            .query(
                "SELECT e1.landfill_name AS l1, e2.landfill_name AS l2, e1.elem_name \
                 FROM elem_contained AS e1, elem_contained AS e2 \
                 WHERE e1.elem_name = e2.elem_name \
                   AND e1.landfill_name <> e2.landfill_name",
            )
            .unwrap();
        assert_eq!(rs.rows.len(), 2); // (BdS,Gerbido,Hg) and (Gerbido,BdS,Hg)
    }

    #[test]
    fn aggregates_group_by_having() {
        let rs = db()
            .query(
                "SELECT landfill_name, COUNT(*) AS n, SUM(amount) AS total \
                 FROM elem_contained GROUP BY landfill_name \
                 HAVING COUNT(*) > 1 ORDER BY n DESC",
            )
            .unwrap();
        assert_eq!(rs.rows.len(), 2);
        assert_eq!(rs.rows[0][1], Value::Int(2));
    }

    #[test]
    fn global_aggregate_without_group() {
        let rs = db().query("SELECT COUNT(*), AVG(amount) FROM elem_contained").unwrap();
        assert_eq!(rs.rows.len(), 1);
        assert_eq!(rs.rows[0][0], Value::Int(5));
    }

    #[test]
    fn global_aggregate_on_empty_table() {
        let d = db();
        d.execute("CREATE TABLE empty (x INT)").unwrap();
        let rs = d.query("SELECT COUNT(*), SUM(x) FROM empty").unwrap();
        assert_eq!(rs.rows[0][0], Value::Int(0));
        assert!(rs.rows[0][1].is_null());
    }

    #[test]
    fn distinct_rows() {
        let rs = db().query("SELECT DISTINCT elem_name FROM elem_contained").unwrap();
        assert_eq!(rs.rows.len(), 4); // Hg, Pb, As, Cu
    }

    #[test]
    fn order_by_desc_with_nulls_first_on_asc() {
        let rs = db().query("SELECT city FROM landfill ORDER BY city").unwrap();
        assert!(rs.rows[0][0].is_null(), "NULLs sort first in total order");
        let rs = db()
            .query("SELECT tons FROM landfill ORDER BY tons DESC LIMIT 1")
            .unwrap();
        assert_eq!(rs.rows[0][0], Value::Float(1200.0));
    }

    #[test]
    fn limit_offset() {
        let rs = db()
            .query("SELECT name FROM landfill ORDER BY name LIMIT 2 OFFSET 1")
            .unwrap();
        assert_eq!(rs.rows.len(), 2);
        assert_eq!(rs.rows[0][0], Value::from("Basse di Stura"));
    }

    #[test]
    fn order_by_non_projected_column() {
        let rs = db().query("SELECT name FROM landfill ORDER BY tons DESC").unwrap();
        assert_eq!(rs.rows[0][0], Value::from("Basse di Stura"));
        assert_eq!(rs.rows[3][0], Value::from("Vallette"));
    }

    #[test]
    fn update_and_delete() {
        let d = db();
        let out = d.execute("UPDATE landfill SET tons = 0.0 WHERE city = 'Torino'").unwrap();
        assert_eq!(out, ExecOutcome::Affected(2));
        let out = d.execute("DELETE FROM landfill WHERE tons = 0.0").unwrap();
        assert_eq!(out, ExecOutcome::Affected(2));
        let rs = d.query("SELECT COUNT(*) FROM landfill").unwrap();
        assert_eq!(rs.rows[0][0], Value::Int(2));
    }

    #[test]
    fn insert_with_column_list_fills_nulls() {
        let d = db();
        d.execute("INSERT INTO landfill (name) VALUES ('NewOne')").unwrap();
        let rs = d
            .query("SELECT city, tons FROM landfill WHERE name = 'NewOne'")
            .unwrap();
        assert!(rs.rows[0][0].is_null());
        assert!(rs.rows[0][1].is_null());
    }

    #[test]
    fn insert_arity_mismatch_errors() {
        let d = db();
        assert!(d.execute("INSERT INTO landfill (name, city) VALUES ('x')").is_err());
    }

    #[test]
    fn create_if_not_exists_and_drop_if_exists() {
        let d = db();
        d.execute("CREATE TABLE IF NOT EXISTS landfill (x INT)").unwrap();
        // still the original schema
        assert!(d.query("SELECT name FROM landfill LIMIT 1").is_ok());
        d.execute("DROP TABLE IF EXISTS nothere").unwrap();
        assert!(d.execute("DROP TABLE nothere").is_err());
    }

    #[test]
    fn materialise_round_trip() {
        let d = db();
        let rs = d.query("SELECT name, tons FROM landfill WHERE tons > 100").unwrap();
        d.materialise_owned("tmp_big", &rs.schema, rs.rows).unwrap();
        let rs2 = d.query("SELECT COUNT(*) FROM tmp_big").unwrap();
        assert_eq!(rs2.rows[0][0], Value::Int(3));
    }

    #[test]
    fn select_without_from_computes() {
        let rs = db().query("SELECT 2 + 3 AS five, UPPER('hg')").unwrap();
        assert_eq!(rs.rows[0][0], Value::Int(5));
        assert_eq!(rs.rows[0][1], Value::from("HG"));
    }

    #[test]
    fn ascii_table_renders() {
        let rs = db().query("SELECT name FROM landfill ORDER BY name LIMIT 1").unwrap();
        let t = rs.to_ascii_table();
        assert!(t.contains("name"));
        assert!(t.contains("(1 rows)"));
    }

    #[test]
    fn in_list_filter() {
        let rs = db()
            .query("SELECT elem_name FROM elem_contained WHERE elem_name IN ('Hg','Pb')")
            .unwrap();
        assert_eq!(rs.rows.len(), 3);
    }

    #[test]
    fn union_deduplicates_and_union_all_keeps() {
        let d = db();
        let u = d
            .query(
                "SELECT city FROM landfill WHERE tons > 400 \
                 UNION SELECT city FROM landfill WHERE city = 'Torino'",
            )
            .unwrap();
        // Torino (×2 matches collapse), Collegno — NULL city row from
        // Vallette is excluded by both filters.
        assert_eq!(u.len(), 2);
        let ua = d
            .query(
                "SELECT city FROM landfill WHERE tons > 400 \
                 UNION ALL SELECT city FROM landfill WHERE city = 'Torino'",
            )
            .unwrap();
        assert_eq!(ua.len(), 5); // 3 + 2
    }

    #[test]
    fn union_with_order_and_limit() {
        let d = db();
        let rs = d
            .query(
                "SELECT name FROM landfill WHERE city = 'Torino' \
                 UNION SELECT elem_name FROM elem_contained \
                 ORDER BY name DESC LIMIT 3",
            )
            .unwrap();
        assert_eq!(rs.len(), 3);
        assert_eq!(rs.rows[0][0], Value::from("Pb"));
    }

    #[test]
    fn union_arity_mismatch_rejected() {
        let d = db();
        assert!(d
            .query("SELECT name, city FROM landfill UNION SELECT name FROM landfill")
            .is_err());
    }

    #[test]
    fn union_mixed_chain_dedupes() {
        let d = db();
        // UNION ALL followed by UNION: strictest member wins (dedup).
        let rs = d
            .query(
                "SELECT city FROM landfill WHERE city = 'Torino' \
                 UNION ALL SELECT city FROM landfill WHERE city = 'Torino' \
                 UNION SELECT city FROM landfill WHERE city = 'Collegno'",
            )
            .unwrap();
        assert_eq!(rs.len(), 2);
    }

    #[test]
    fn union_explain_shows_inputs() {
        let d = db();
        let rs = d
            .query("EXPLAIN SELECT name FROM landfill UNION SELECT elem_name FROM elem_contained")
            .unwrap();
        let text: String = rs
            .rows
            .iter()
            .map(|r| r[0].lexical_form())
            .collect::<Vec<_>>()
            .join("\n");
        assert!(text.contains("Union: 2 inputs"), "{text}");
    }

    #[test]
    fn where_on_left_join_right_side_is_not_pushed_below() {
        // WHERE e.amount > 5 after a LEFT JOIN removes NULL-padded rows
        // (NULL > 5 is UNKNOWN). Pushing it below the join would wrongly
        // keep Vallette with a padded row.
        let rs = db()
            .query(
                "SELECT l.name, e.amount FROM landfill l \
                 LEFT JOIN elem_contained e ON l.name = e.landfill_name \
                 WHERE e.amount > 5",
            )
            .unwrap();
        assert!(rs.rows.iter().all(|r| !r[1].is_null()));
        assert!(!rs.rows.iter().any(|r| r[0] == Value::from("Vallette")));
    }

    #[test]
    fn where_on_left_join_preserved_side_pushes_safely() {
        let rs = db()
            .query(
                "SELECT l.name, e.elem_name FROM landfill l \
                 LEFT JOIN elem_contained e ON l.name = e.landfill_name \
                 WHERE l.tons < 100 ORDER BY l.name",
            )
            .unwrap();
        // Only Vallette (90 tons), padded with NULL element.
        assert_eq!(rs.rows.len(), 1);
        assert_eq!(rs.rows[0][0], Value::from("Vallette"));
        assert!(rs.rows[0][1].is_null());
    }

    #[test]
    fn explain_shows_plan_shape() {
        let d = db();
        let rs = d
            .query(
                "EXPLAIN SELECT l.city, COUNT(*) FROM landfill l \
                 JOIN elem_contained e ON l.name = e.landfill_name \
                 WHERE e.amount > 1 GROUP BY l.city ORDER BY l.city LIMIT 3",
            )
            .unwrap();
        let text: String = rs
            .rows
            .iter()
            .map(|r| r[0].lexical_form())
            .collect::<Vec<_>>()
            .join("\n");
        assert!(text.contains("HashJoin"), "{text}");
        assert!(text.contains("Aggregate"), "{text}");
        assert!(text.contains("SeqScan: landfill"), "{text}");
        assert!(text.contains("Limit"), "{text}");
    }

    #[test]
    fn explain_pushdown_visible() {
        let d = db();
        let rs = d
            .query(
                "EXPLAIN SELECT l.name FROM landfill l, elem_contained e \
                 WHERE l.name = e.landfill_name AND l.tons > 100",
            )
            .unwrap();
        let text: String = rs
            .rows
            .iter()
            .map(|r| r[0].lexical_form())
            .collect::<Vec<_>>()
            .join("\n");
        // Filter sits below the join after pushdown.
        let join_at = text.find("HashJoin").expect("hash join in plan");
        let filter_at = text.find("Filter").expect("pushed filter");
        assert!(filter_at > join_at, "{text}");
    }

    #[test]
    fn column_values_helper() {
        let rs = db().query("SELECT name, city FROM landfill").unwrap();
        let cities = rs.column_values("city").unwrap();
        assert_eq!(cities.len(), 4);
        assert!(rs.column_values("nope").is_err());
    }

    // ---- index DDL + indexed query paths -----------------------------------

    #[test]
    fn create_index_ddl_and_indexed_query_agree_with_scan() {
        let d = db();
        let want = d
            .query("SELECT name FROM landfill WHERE city = 'Torino' ORDER BY name")
            .unwrap();
        d.execute("CREATE INDEX idx_city ON landfill (city)").unwrap();
        let got = d
            .query("SELECT name FROM landfill WHERE city = 'Torino' ORDER BY name")
            .unwrap();
        assert_eq!(want.rows, got.rows);

        // EXPLAIN confirms the index path is actually chosen.
        let plan = d
            .query("EXPLAIN SELECT name FROM landfill WHERE city = 'Torino'")
            .unwrap();
        let text: String = plan
            .rows
            .iter()
            .map(|r| r[0].lexical_form())
            .collect::<Vec<_>>()
            .join("\n");
        assert!(text.contains("IndexScan"), "{text}");
    }

    #[test]
    fn indexed_query_after_dml_stays_correct() {
        let d = db();
        d.execute("CREATE INDEX idx_city ON landfill (city)").unwrap();
        d.execute("UPDATE landfill SET city = 'Torino' WHERE name = 'Barricalla'")
            .unwrap();
        d.execute("DELETE FROM landfill WHERE name = 'Gerbido'").unwrap();
        d.execute("INSERT INTO landfill VALUES ('Nuovo', 'Torino', 5.0)").unwrap();
        let rs = d
            .query("SELECT name FROM landfill WHERE city = 'Torino' ORDER BY name")
            .unwrap();
        let names: Vec<String> =
            rs.rows.iter().map(|r| r[0].lexical_form()).collect();
        assert_eq!(names, vec!["Barricalla", "Basse di Stura", "Nuovo"]);
    }

    #[test]
    fn index_ddl_variants() {
        let d = db();
        d.execute("CREATE INDEX i ON landfill (city)").unwrap();
        assert!(d.execute("CREATE INDEX i ON landfill (tons)").is_err());
        d.execute("CREATE INDEX IF NOT EXISTS i ON landfill (tons)").unwrap();
        d.execute("DROP INDEX i").unwrap();
        assert!(d.execute("DROP INDEX i").is_err());
        d.execute("DROP INDEX IF EXISTS i").unwrap();
    }

    #[test]
    fn index_scan_falls_back_when_index_dropped_after_planning() {
        let d = db();
        d.execute("CREATE INDEX idx_city ON landfill (city)").unwrap();
        let Statement::Select(s) =
            crate::sql::parser::parse_statement(
                "SELECT name FROM landfill WHERE city = 'Torino'",
            )
            .unwrap()
        else {
            panic!("not a select")
        };
        let plan = plan_select(d.catalog(), &s).unwrap();
        assert!(plan.explain().contains("IndexScan"));
        d.execute("DROP INDEX idx_city").unwrap();
        let rows = crate::exec::execute_plan(&plan).unwrap();
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn in_list_uses_index_end_to_end() {
        let d = db();
        d.execute("CREATE INDEX idx_city ON landfill (city)").unwrap();
        let rs = d
            .query(
                "SELECT name FROM landfill WHERE city IN ('Torino', 'Collegno') \
                 ORDER BY name",
            )
            .unwrap();
        assert_eq!(rs.rows.len(), 3);
    }

    // ---- subqueries and CASE -----------------------------------------------

    #[test]
    fn in_subquery_resolves_to_semi_join_semantics() {
        let rs = db()
            .query(
                "SELECT name FROM landfill WHERE name IN \
                 (SELECT landfill_name FROM elem_contained WHERE elem_name = 'Hg') \
                 ORDER BY name",
            )
            .unwrap();
        let names: Vec<String> = rs.rows.iter().map(|r| r[0].lexical_form()).collect();
        assert_eq!(names, vec!["Basse di Stura", "Gerbido"]);
    }

    #[test]
    fn not_in_subquery_with_null_semantics() {
        let d = db();
        // Add a NULL landfill_name: NOT IN over a set containing NULL
        // filters everything (SQL three-valued logic).
        d.execute("INSERT INTO elem_contained VALUES ('Zn', NULL, 1.0)").unwrap();
        let rs = d
            .query(
                "SELECT name FROM landfill WHERE name NOT IN \
                 (SELECT landfill_name FROM elem_contained)",
            )
            .unwrap();
        assert!(rs.rows.is_empty());
    }

    #[test]
    fn exists_and_not_exists() {
        let d = db();
        let rs = d
            .query(
                "SELECT name FROM landfill WHERE EXISTS \
                 (SELECT elem_name FROM elem_contained WHERE elem_name = 'Hg')",
            )
            .unwrap();
        assert_eq!(rs.rows.len(), 4); // uncorrelated TRUE keeps all rows
        let rs = d
            .query(
                "SELECT name FROM landfill WHERE NOT EXISTS \
                 (SELECT elem_name FROM elem_contained WHERE elem_name = 'Au')",
            )
            .unwrap();
        assert_eq!(rs.rows.len(), 4);
    }

    #[test]
    fn scalar_subquery_in_comparison_and_projection() {
        let d = db();
        let rs = d
            .query(
                "SELECT name FROM landfill WHERE tons > \
                 (SELECT AVG(tons) FROM landfill) ORDER BY name",
            )
            .unwrap();
        let names: Vec<String> = rs.rows.iter().map(|r| r[0].lexical_form()).collect();
        assert_eq!(names, vec!["Barricalla", "Basse di Stura"]);

        let rs = d
            .query("SELECT (SELECT MAX(tons) FROM landfill)")
            .unwrap();
        assert_eq!(rs.rows[0][0], Value::Float(1200.0));
    }

    #[test]
    fn scalar_subquery_empty_is_null_and_multirow_errors() {
        let d = db();
        let rs = d
            .query(
                "SELECT name FROM landfill WHERE tons = \
                 (SELECT tons FROM landfill WHERE name = 'missing')",
            )
            .unwrap();
        assert!(rs.rows.is_empty()); // NULL comparison keeps nothing

        let err = d
            .query("SELECT name FROM landfill WHERE tons = (SELECT tons FROM landfill)")
            .unwrap_err();
        assert!(err.to_string().contains("rows"), "{err}");
    }

    #[test]
    fn in_subquery_multi_column_rejected() {
        let err = db()
            .query(
                "SELECT name FROM landfill WHERE name IN \
                 (SELECT elem_name, landfill_name FROM elem_contained)",
            )
            .unwrap_err();
        assert!(err.to_string().contains("one column"), "{err}");
    }

    #[test]
    fn correlated_subquery_reports_unknown_column() {
        // The inner query references the outer alias — unsupported.
        let err = db()
            .query(
                "SELECT name FROM landfill l WHERE EXISTS \
                 (SELECT 1 FROM elem_contained e WHERE e.landfill_name = l.name)",
            )
            .unwrap_err();
        assert!(err.to_string().contains("l.name") || err.to_string().contains("unknown"),
            "{err}");
    }

    #[test]
    fn nested_subqueries_resolve_inner_first() {
        let rs = db()
            .query(
                "SELECT name FROM landfill WHERE name IN \
                 (SELECT landfill_name FROM elem_contained WHERE elem_name IN \
                   (SELECT elem_name FROM elem_contained WHERE amount > 50))",
            )
            .unwrap();
        // Cu (100.0) is in Gerbido only.
        assert_eq!(rs.rows.len(), 1);
        assert_eq!(rs.rows[0][0], Value::from("Gerbido"));
    }

    #[test]
    fn in_subquery_uses_index_when_available() {
        let d = db();
        d.execute("CREATE INDEX idx_name ON landfill (name)").unwrap();
        let plan = d
            .query(
                "EXPLAIN SELECT name FROM landfill WHERE name IN \
                 (SELECT landfill_name FROM elem_contained)",
            )
            .unwrap();
        let text: String = plan
            .rows
            .iter()
            .map(|r| r[0].lexical_form())
            .collect::<Vec<_>>()
            .join("\n");
        assert!(text.contains("IndexScan"), "{text}");
    }

    #[test]
    fn case_searched_form() {
        let rs = db()
            .query(
                "SELECT name, CASE WHEN tons > 1000 THEN 'large' \
                                   WHEN tons > 100 THEN 'medium' \
                                   ELSE 'small' END AS size \
                 FROM landfill ORDER BY name",
            )
            .unwrap();
        let sizes: Vec<String> = rs.rows.iter().map(|r| r[1].lexical_form()).collect();
        assert_eq!(sizes, vec!["medium", "large", "medium", "small"]);
    }

    #[test]
    fn case_operand_form_and_missing_else_is_null() {
        let rs = db()
            .query(
                "SELECT CASE city WHEN 'Torino' THEN 1 WHEN 'Collegno' THEN 2 END \
                 FROM landfill ORDER BY name",
            )
            .unwrap();
        let vals: Vec<Value> = rs.rows.iter().map(|r| r[0].clone()).collect();
        assert_eq!(
            vals,
            vec![Value::Int(2), Value::Int(1), Value::Int(1), Value::Null]
        );
    }

    #[test]
    fn case_in_where_and_aggregates_over_case() {
        let d = db();
        let rs = d
            .query(
                "SELECT COUNT(*) FROM landfill \
                 WHERE CASE WHEN city IS NULL THEN FALSE ELSE TRUE END",
            )
            .unwrap();
        assert_eq!(rs.rows[0][0], Value::Int(3));
        let rs = d
            .query(
                "SELECT SUM(CASE WHEN tons > 100 THEN 1 ELSE 0 END) FROM landfill",
            )
            .unwrap();
        assert_eq!(rs.rows[0][0], Value::Int(3));
    }

    #[test]
    fn insert_select_copies_query_results() {
        let d = db();
        d.execute("CREATE TABLE torino (name TEXT, tons FLOAT)").unwrap();
        let n = d
            .execute(
                "INSERT INTO torino SELECT name, tons FROM landfill WHERE city = 'Torino'",
            )
            .unwrap();
        assert!(matches!(n, ExecOutcome::Affected(2)));
        let rs = d.query("SELECT name FROM torino ORDER BY name").unwrap();
        assert_eq!(rs.rows[0][0], Value::from("Basse di Stura"));
    }

    #[test]
    fn insert_select_with_column_list_fills_rest_with_null() {
        let d = db();
        d.execute("CREATE TABLE summary (city TEXT, total FLOAT, note TEXT)").unwrap();
        d.execute(
            "INSERT INTO summary (city, total) \
             SELECT city, SUM(tons) FROM landfill WHERE city IS NOT NULL GROUP BY city",
        )
        .unwrap();
        let rs = d.query("SELECT city, total, note FROM summary ORDER BY city").unwrap();
        assert_eq!(rs.rows.len(), 2);
        assert!(rs.rows.iter().all(|r| r[2].is_null()));
    }

    #[test]
    fn insert_select_arity_mismatch_errors() {
        let d = db();
        d.execute("CREATE TABLE narrow (x TEXT)").unwrap();
        let err = d
            .execute("INSERT INTO narrow SELECT name, city FROM landfill")
            .unwrap_err();
        assert!(err.to_string().contains("column"), "{err}");
    }

    #[test]
    fn insert_select_coerces_and_validates_types() {
        let d = db();
        d.execute("CREATE TABLE typed (v FLOAT)").unwrap();
        // Int result coerces into a FLOAT column.
        d.execute("INSERT INTO typed SELECT COUNT(*) FROM landfill").unwrap();
        assert_eq!(d.query("SELECT v FROM typed").unwrap().rows[0][0], Value::Float(4.0));
        // Text into FLOAT is rejected, atomically.
        assert!(d.execute("INSERT INTO typed SELECT name FROM landfill").is_err());
        assert_eq!(d.query("SELECT COUNT(*) FROM typed").unwrap().rows[0][0], Value::Int(1));
    }

    #[test]
    fn delete_and_update_accept_subqueries() {
        let d = db();
        let n = d
            .execute(
                "DELETE FROM landfill WHERE name IN \
                 (SELECT landfill_name FROM elem_contained WHERE elem_name = 'Hg')",
            )
            .unwrap();
        assert!(matches!(n, ExecOutcome::Affected(2)));
        d.execute(
            "UPDATE elem_contained SET amount = 0 WHERE landfill_name NOT IN \
             (SELECT name FROM landfill)",
        )
        .unwrap();
        let rs = d
            .query("SELECT COUNT(*) FROM elem_contained WHERE amount = 0")
            .unwrap();
        assert_eq!(rs.rows[0][0], Value::Int(4)); // rows pointing at deleted landfills
    }

    #[test]
    fn insert_select_roundtrips_through_display() {
        let stmt = crate::sql::parser::parse_statement(
            "INSERT INTO t (a, b) SELECT x, y FROM u WHERE x > 1",
        )
        .unwrap();
        let rendered = stmt.to_string();
        let reparsed = crate::sql::parser::parse_statement(&rendered).unwrap();
        assert_eq!(stmt, reparsed, "{rendered}");
    }

    #[test]
    fn case_null_operand_matches_nothing() {
        // 'Vallette' has a NULL city; CASE <null> WHEN ... never matches,
        // so it falls to ELSE.
        let rs = db()
            .query(
                "SELECT name, CASE city WHEN 'Torino' THEN 'T' ELSE 'other' END \
                 FROM landfill WHERE name = 'Vallette'",
            )
            .unwrap();
        assert_eq!(rs.rows[0][1], Value::from("other"));
    }

    #[test]
    fn null_needle_in_subquery_is_unknown() {
        let d = db();
        // city IS NULL for Vallette: `city IN (subquery)` is UNKNOWN → dropped.
        let rs = d
            .query(
                "SELECT name FROM landfill WHERE city IN (SELECT city FROM landfill)",
            )
            .unwrap();
        assert_eq!(rs.len(), 3, "NULL city row filtered by UNKNOWN");
    }

    #[test]
    fn subquery_in_having_and_order_by() {
        let d = db();
        let rs = d
            .query(
                "SELECT city, COUNT(*) AS n FROM landfill \
                 WHERE city IS NOT NULL GROUP BY city \
                 HAVING COUNT(*) >= (SELECT 1) \
                 ORDER BY n DESC, city",
            )
            .unwrap();
        assert_eq!(rs.rows[0][0], Value::from("Torino"));
        assert_eq!(rs.rows[0][1], Value::Int(2));
    }

    #[test]
    fn exists_on_empty_table_is_false() {
        let d = db();
        d.execute("CREATE TABLE empty (x INT)").unwrap();
        let rs = d
            .query("SELECT name FROM landfill WHERE EXISTS (SELECT x FROM empty)")
            .unwrap();
        assert!(rs.rows.is_empty());
        let rs = d
            .query("SELECT name FROM landfill WHERE NOT EXISTS (SELECT x FROM empty)")
            .unwrap();
        assert_eq!(rs.len(), 4);
    }

    #[test]
    fn subquery_in_projection_with_alias() {
        let rs = db()
            .query("SELECT name, (SELECT COUNT(*) FROM elem_contained) AS n FROM landfill")
            .unwrap();
        assert!(rs.rows.iter().all(|r| r[1] == Value::Int(5)));
        assert_eq!(rs.schema.columns[1].name, "n");
    }

    #[test]
    fn in_subquery_inside_case_branch() {
        let rs = db()
            .query(
                "SELECT name, CASE WHEN name IN \
                   (SELECT landfill_name FROM elem_contained WHERE elem_name = 'Hg') \
                 THEN 'mercury' ELSE 'clean' END FROM landfill ORDER BY name",
            )
            .unwrap();
        let tags: Vec<String> = rs.rows.iter().map(|r| r[1].lexical_form()).collect();
        assert_eq!(tags, vec!["clean", "mercury", "mercury", "clean"]);
    }

    #[test]
    fn range_query_through_index_handles_floats_and_ints() {
        let d = db();
        d.execute("CREATE INDEX idx_tons ON landfill (tons)").unwrap();
        let rs = d
            .query("SELECT name FROM landfill WHERE tons >= 450 ORDER BY tons")
            .unwrap();
        let names: Vec<String> =
            rs.rows.iter().map(|r| r[0].lexical_form()).collect();
        assert_eq!(names, vec!["Gerbido", "Barricalla", "Basse di Stura"]);
    }

    #[test]
    fn hash_join_agrees_with_filter_for_huge_ints() {
        // 2^53 and 2^53+1 both round to the same f64. The hash-keyed join
        // and the comparison-based filter form must agree on how many
        // rows match the float — a non-transitive Value::Eq would make
        // the hash table drop one of the two build entries.
        let d = Database::new();
        d.execute_script(
            "CREATE TABLE a (i INT); CREATE TABLE b (f FLOAT);
             INSERT INTO a VALUES (9007199254740992), (9007199254740993);
             INSERT INTO b VALUES (9007199254740992.0);",
        )
        .unwrap();
        let joined = d.query("SELECT b.f, a.i FROM b, a WHERE b.f = a.i").unwrap();
        let filtered = d
            .query("SELECT b.f, a.i FROM b, a WHERE b.f <= a.i AND b.f >= a.i")
            .unwrap();
        assert_eq!(joined.rows.len(), filtered.rows.len());
        assert_eq!(joined.rows.len(), 2);
    }
}
