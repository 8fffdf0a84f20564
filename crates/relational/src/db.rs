//! The `Database` facade: parse → plan → execute, plus the prepared-
//! statement entry point (parse once → bind → stream).

use std::any::Any;
use std::fmt;
use std::sync::Arc;

use crosse_cache::{CacheStats, Lru};
use parking_lot::Mutex;
pub use parking_lot::tracking::LockSiteStats;

use crate::error::{Error, Result};
use crate::exec::expr::{bind, BoundExpr};
use crate::exec::stream::ExecCtx;
use crate::exec::Rows;
use crate::foreign::{DataSource, Foreign};
use crate::opt::OptimizerConfig;
use crate::plan::{plan_select, Plan};
use crate::prepared::{fresh_memo, Params, Prepared, SharedMemo};
use crate::schema::{Column, Schema};
use crate::sql::ast::{Expr, Select, Statement};
use crate::sql::lexer::tokenize;
use crate::sql::parser::{parse_script, parse_statement, parse_statement_with_params, parse_tokens};
use crate::sql::shape::{is_select, Shape};
use crate::sql::token::Token;
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

/// Default capacity of the statement cache.
pub const DEFAULT_PLAN_CACHE_CAPACITY: usize = 256;

/// The language of a statement's text: half of a statement-cache key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Lang {
    /// SESQL: SQL plus ENRICH clauses, run through the enrichment
    /// pipeline in the session's knowledge context.
    Sesql,
    /// Plain SQL against the databank.
    Sql,
    /// SPARQL (SELECT, ASK or CONSTRUCT) over the session's context
    /// graphs.
    Sparql,
}

/// What the statement cache keeps beside a SELECT for a front end that
/// parses more than SQL (the SESQL parse of an enriched query).
pub type Extra = Arc<dyn Any + Send + Sync>;

/// What a statement-cache miss compiles from a shape's tokens.
pub struct Compiled {
    /// The SELECT, its lifted literals as [`Expr::Lifted`] slots.
    pub select: Arc<Select>,
    /// Prepare-time lint findings.
    pub warnings: Vec<crosse_lint::Diagnostic>,
    /// Kept beside the entry and handed back with every handle made from
    /// it.
    pub extra: Option<Extra>,
}

/// A statement as the cache keeps it: what a [`Prepared`] is made of,
/// minus the database (which owns the cache) and the text and lifted
/// values (which each prepare brings).
#[derive(Debug, Clone)]
struct CachedStmt {
    select: Arc<Select>,
    /// Shared with every handle made from the entry, so one handle's plan
    /// template serves them all.
    memo: SharedMemo,
    warnings: Arc<Vec<crosse_lint::Diagnostic>>,
    /// The [`Database::plan_tag`] the entry was linted (and planned)
    /// against; DDL or a new optimizer config makes it a miss.
    tag: (u64, u64),
    extra: Option<Extra>,
}

/// An in-memory SQL database: a catalog plus an execution engine.
///
/// Cloning is cheap and shares the underlying catalog (and the plan
/// cache), mirroring a pool of connections to one server.
#[derive(Debug, Clone)]
pub struct Database {
    catalog: Catalog,
    /// The statement cache: one LRU keyed by (language, shape).
    statements: Arc<Mutex<Lru<(Lang, String), CachedStmt>>>,
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
}

impl Default for Database {
    fn default() -> Self {
        Database {
            catalog: Catalog::default(),
            statements: Arc::new(Mutex::new_labeled(
                "db.plan_cache",
                Lru::new(DEFAULT_PLAN_CACHE_CAPACITY),
            )),
            exec_threads: Arc::new(std::sync::atomic::AtomicUsize::new(1)),
            interner: Arc::new(Interner::new()),
            opt: Arc::new(Mutex::new_labeled("db.opt_config", OptimizerConfig::default())),
            opt_epoch: Arc::default(),
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

    /// Per-site lock acquisition/contention/hold-time counters from the
    /// concurrency tracking layer, sorted by site label. Counters are
    /// process-global (every labeled lock in the process reports here, not
    /// just this database's). Empty in release builds — the layer compiles
    /// out — and in debug builds unless `CROSSE_LOCK_TRACK` is set or
    /// [`parking_lot::tracking::set_enabled`] was called.
    pub fn lock_stats(&self) -> Vec<LockSiteStats> {
        parking_lot::tracking::stats()
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
    /// 0 is clamped to 1. Applies to every clone of this database. This is
    /// the engine's only thread budget: SPARQL legs run on the caller's
    /// thread.
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
        self.statements.lock().clear();
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
        self.plan_scoped(select, &[])
    }

    /// [`Database::plan_optimized`] with the query-scoped relations of a
    /// [`Prepared`] handle (see [`Prepared::with_table`]).
    pub(crate) fn plan_scoped(
        &self,
        select: &Select,
        scoped: &[Arc<Table>],
    ) -> Result<crate::opt::Optimized> {
        let cfg = self.optimizer_config();
        plan_select(&self.catalog, scoped, select, &cfg)
    }

    /// Compile a parsed SELECT into its executable form. Nothing is
    /// derived from the catalog yet — no plan, no lint, no cache entry:
    /// the handle types its slots and plans at first use, so a statement
    /// that cannot be planned as written (SESQL Ex. 4.5's
    /// `elem_name = HazardousWaste` before its WHERE enrichment rewrites
    /// it) still compiles, and "compile, run, drop" costs no more than
    /// planning once.
    pub fn compile(&self, select: Arc<Select>) -> Prepared {
        Prepared {
            db: self.clone(),
            select,
            text: String::new(),
            lifted: Vec::new(),
            warnings: None,
            memo: fresh_memo(),
            scoped: Vec::new(),
        }
    }

    /// Prepare a SELECT from text: [`Database::compile`] behind the
    /// statement cache (see [`Database::prepare_shape`]; texts of one
    /// shape skip the front-end and share one plan template), plus what a
    /// caller preparing ahead of time relies on — the statement is linted
    /// and planned now, so a bad table is a prepare-time error, and the
    /// plan is kept as the template every execution replays. Planning
    /// runs none of its subqueries.
    pub fn prepare(&self, sql: &str) -> Result<Prepared> {
        self.prepare_sql(sql, Shape::of(sql)?)
    }

    fn prepare_sql(&self, sql: &str, shape: Shape) -> Result<Prepared> {
        let compile = |tokens, key: &str| {
            // A shape parses as its text does; report the text's error.
            let (stmt, _) = parse_tokens(tokens)
                .map_err(|e| parse_statement(sql).err().unwrap_or(e))?;
            let Statement::Select(select) = stmt else {
                return Err(Error::plan(
                    "only SELECT statements can be prepared (DDL/DML execute directly)",
                ));
            };
            let select: Arc<Select> = Arc::from(select);
            // Prepare-time invariant: the AST must not reference a
            // parameter slot outside its slot table (an engine bug in slot
            // collection, not a user error).
            let slots = crate::sql::parser::collect_params(&select).len();
            crate::opt::validate::check_param_slots(&select, slots).map_err(Error::plan)?;
            // Parameters are expected in a prepared statement, so the
            // linter runs with L006 suppressed; spans are into the key.
            let warnings = crate::lint::lint_select(&self.catalog, &select, key, true);
            Ok(Compiled { select, warnings, extra: None })
        };
        Ok(self.prepare_shape(Lang::Sql, sql, shape, compile)?.0)
    }

    /// The statement cache: the compiled statement of `text`, in `lang`,
    /// whose [`Shape`] is `shape`. Every text of one shape shares one
    /// entry — one parse, one lint, one plan template — and gets a handle
    /// of its own with its lifted literals' values. A miss, or an entry
    /// older than the catalog or the optimizer config, runs `compile` on
    /// the shape's tokens and its key; a SQL statement is then planned at
    /// once, while a SESQL statement waits for its first execution (its
    /// WHERE enrichments may have to rewrite it before it plans). The
    /// entry's `extra` comes back beside the handle.
    pub fn prepare_shape<E: From<Error>>(
        &self,
        lang: Lang,
        text: &str,
        shape: Shape,
        compile: impl FnOnce(Vec<Token>, &str) -> std::result::Result<Compiled, E>,
    ) -> std::result::Result<(Prepared, Option<Extra>), E> {
        let Shape { key, tokens, lifted } = shape;
        let key = (lang, key);
        // Read the tag before compiling: a change that lands in between
        // leaves the entry tagged old, and the next lookup compiles again.
        let tag = self.plan_tag();
        // Bind the lookup before matching: a scrutinee would keep the
        // cache lock alive across the re-lock below.
        let cached = { self.statements.lock().get(&key).cloned() };
        let entry = match cached.filter(|c| c.tag == tag) {
            Some(entry) => entry,
            None => {
                let Compiled { select, warnings, extra } = compile(tokens, &key.1)?;
                let warnings = Arc::new(warnings);
                let entry = CachedStmt { select, memo: fresh_memo(), warnings, tag, extra };
                if lang == Lang::Sql {
                    self.handle(&entry, String::new(), Vec::new()).plan(true)?;
                }
                self.statements.lock().put(key, entry.clone());
                entry
            }
        };
        let extra = entry.extra.clone();
        Ok((self.handle(&entry, text.to_string(), lifted), extra))
    }

    fn handle(&self, entry: &CachedStmt, text: String, lifted: Vec<Value>) -> Prepared {
        Prepared {
            db: self.clone(),
            select: Arc::clone(&entry.select),
            text,
            lifted,
            warnings: Some(Arc::clone(&entry.warnings)),
            memo: Arc::clone(&entry.memo),
            scoped: Vec::new(),
        }
    }

    /// Lint a statement without executing it: parse, then run the
    /// semantic rules of [`crate::lint`] (always-false predicates,
    /// implicit cross joins, coercing comparisons, ...). Parse errors are
    /// returned as errors; a clean statement returns an empty list.
    pub fn lint(&self, sql: &str) -> Result<Vec<crosse_lint::Diagnostic>> {
        let (stmt, _) = parse_statement_with_params(sql)?;
        Ok(crate::lint::lint_statement(&self.catalog, &stmt, sql, false))
    }

    /// Hit/miss/eviction statistics of the statement cache (SQL and
    /// SESQL statements, prepared and ad hoc).
    pub fn prepare_cache_stats(&self) -> CacheStats {
        self.statements.lock().stats()
    }

    /// Resize the statement cache. Capacity 0 keeps nothing: every
    /// statement is compiled again, through the same normaliser.
    pub fn set_plan_cache_capacity(&self, capacity: usize) {
        self.statements.lock().set_capacity(capacity);
    }

    /// Stream a SELECT through a cursor in one call (the ad-hoc path:
    /// the statement cache compiles the text's shape once, and a hit
    /// replays its plan template).
    pub fn query_cursor(&self, sql: &str) -> Result<Rows> {
        let tokens = tokenize(sql)?;
        if !is_select(&tokens) {
            return Err(Error::plan("query_cursor expects a SELECT statement"));
        }
        self.prepare_sql(sql, Shape::new(tokens, &[]))?.execute(&Params::new())
    }

    /// Execute a single statement: a SELECT through the statement cache
    /// (as [`Database::query_cursor`]), anything else parsed and run.
    pub fn execute(&self, sql: &str) -> Result<ExecOutcome> {
        let tokens = tokenize(sql)?;
        if is_select(&tokens) {
            let prepared = self.prepare_sql(sql, Shape::new(tokens, &[]))?;
            return prepared.query(&Params::new()).map(ExecOutcome::Rows);
        }
        self.execute_statement(parse_tokens(tokens)?.0)
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
                    None => t.truncate()?,
                    Some(f) => {
                        let pred = self.bind_dml_filter(&t, f)?;
                        t.delete_where(|r| pred.eval_predicate(r))?
                    }
                };
                Ok(ExecOutcome::Affected(n))
            }
            Statement::Update { table, assignments, filter } => {
                let t = self.catalog.get_table(&table)?;
                let schema = t.schema.clone();
                let pred = filter.map(|f| self.bind_dml_filter(&t, f)).transpose()?;
                let bound: Vec<(usize, crate::exec::expr::BoundExpr)> = assignments
                    .iter()
                    .map(|(c, e)| Ok((schema.resolve(None, c)?, bind(e, &schema)?)))
                    .collect::<Result<_>>()?;
                let n = t.update_where(|row| {
                    if let Some(p) = &pred {
                        if !p.eval_predicate(row)? {
                            return Ok(None);
                        }
                    }
                    let mut new_row = row.clone();
                    for (idx, e) in &bound {
                        let v = e.eval(row)?;
                        new_row[*idx] =
                            v.coerce(schema.columns[*idx].data_type)?;
                    }
                    Ok(Some(new_row))
                })?;
                Ok(ExecOutcome::Affected(n))
            }
        }
    }

    /// Bind a DELETE/UPDATE filter of `table`. Its uncorrelated
    /// subqueries (`DELETE ... WHERE x IN (SELECT ...)`) are planned as a
    /// SELECT's are and run by the open-time step of a cursor.
    fn bind_dml_filter(&self, table: &Arc<Table>, filter: Expr) -> Result<BoundExpr> {
        let cfg = self.optimizer_config();
        let plan = crate::plan::plan_filter(&self.catalog, Arc::clone(table), filter, &cfg)?;
        let Plan::Filter { predicate, .. } = ExecCtx::new(1).resolve(plan, Vec::new())? else {
            unreachable!("filling a filter's slots keeps the filter")
        };
        Ok(predicate)
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
    fn scoped_table_round_trip() {
        // A query's rows, kept in a table no catalog holds, feed a second
        // query through its handle and leave the catalog untouched.
        let d = db();
        let rs = d.query("SELECT name, tons FROM landfill WHERE tons > 100").unwrap();
        let big = Arc::new(Table::new("tmp_big", rs.schema.clone()));
        big.insert_many(rs.rows).unwrap();
        let before = (d.catalog().version(), d.catalog().table_names());
        let count = || {
            let sql = "SELECT COUNT(*) FROM tmp_big";
            let Statement::Select(s) = parse_statement(sql).unwrap() else { unreachable!() };
            d.compile(Arc::from(s)).with_table(Arc::clone(&big)).query(&Params::new())
        };
        assert_eq!(count().unwrap().rows[0][0], Value::Int(3));
        assert_eq!((d.catalog().version(), d.catalog().table_names()), before);
        assert!(d.query("SELECT COUNT(*) FROM tmp_big").is_err(), "not in the catalog");
        // A FROM name both a scoped and a catalog table spell is an error.
        d.execute("CREATE TABLE \"TMP_BIG\" (x INT)").unwrap();
        let err = count().unwrap_err();
        assert!(matches!(&err, Error::Plan(m) if m.contains("ambiguous")), "{err}");
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
        let plan = d.plan_optimized(&s).unwrap().plan;
        assert!(plan.explain().contains("IndexScan"));
        d.execute("DROP INDEX idx_city").unwrap();
        let rows = crate::exec::Rows::open(plan, 1, Vec::new()).unwrap().collect_rows().unwrap();
        assert_eq!(rows.rows.len(), 2);
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
    fn null_in_an_empty_subquery_is_false_and_not_in_true() {
        let d = Database::new();
        d.execute_script(
            "CREATE TABLE t (k INT); INSERT INTO t VALUES (1), (NULL);
             CREATE TABLE e (k INT);",
        )
        .unwrap();
        let rows = |sql: &str| d.query(sql).unwrap().rows;
        let not_in = "SELECT k FROM t WHERE k NOT IN (SELECT k FROM e)";
        assert_eq!(rows(not_in), vec![vec![Value::Int(1)], vec![Value::Null]]);
        assert!(rows("SELECT k FROM t WHERE (k IN (SELECT k FROM e)) IS NULL").is_empty());
        assert!(rows("SELECT k FROM t WHERE k IN (SELECT k FROM e)").is_empty());
        let both = "SELECT k IN (SELECT k FROM e), k NOT IN (SELECT k FROM e) FROM t";
        assert_eq!(rows(both), vec![vec![Value::Bool(false), Value::Bool(true)]; 2]);
        // The indexed IN path: the empty key set matches nothing, and the
        // NOT IN filter still keeps the NULL row.
        d.execute("CREATE INDEX t_k ON t (k)").unwrap();
        let plan = d.query("EXPLAIN SELECT k FROM t WHERE k IN (SELECT k FROM e)").unwrap();
        assert!(plan.rows.iter().any(|r| r[0].lexical_form().contains("IndexScan")));
        assert!(rows("SELECT k FROM t WHERE k IN (SELECT k FROM e)").is_empty());
        assert_eq!(rows(not_in), vec![vec![Value::Int(1)], vec![Value::Null]]);
    }

    #[test]
    fn failing_delete_leaves_the_table_untouched() {
        let d = db();
        d.execute("CREATE INDEX idx_city ON landfill (city)").unwrap();
        let table = d.catalog().get_table("landfill").unwrap();
        let before = table.snapshot();
        // The first two rows match before the third one fails: `LIKE` on
        // a FLOAT is an evaluation error.
        let err = d
            .execute("DELETE FROM landfill WHERE tons > 500.0 OR city LIKE tons")
            .unwrap_err();
        assert!(matches!(err, Error::Eval(_)), "{err}");
        let after = table.snapshot();
        assert_eq!(after.generation(), before.generation(), "nothing was written");
        assert_eq!(after.rows(), before.rows());
        let torino = d.query("SELECT name FROM landfill WHERE city = 'Torino'").unwrap();
        assert_eq!(torino.rows.len(), 2);
    }

    #[test]
    fn failing_update_leaves_the_table_untouched() {
        let d = Database::new();
        d.execute_script(
            "CREATE TABLE t (id INT, y INT, x FLOAT); CREATE INDEX tx ON t (x); \
             INSERT INTO t VALUES (1, 1, 0.0), (2, 0, 0.0), (3, 2, 0.0);",
        )
        .unwrap();
        let table = d.catalog().get_table("t").unwrap();
        let before = table.snapshot();
        // Row 1 gets its new value before row 2 divides by zero.
        let err = d.execute("UPDATE t SET x = 10 / y").unwrap_err();
        assert!(matches!(err, Error::Eval(_)), "{err}");
        let err = d.execute("DELETE FROM t WHERE 10 / y > 0").unwrap_err();
        assert!(matches!(err, Error::Eval(_)), "{err}");
        let after = table.snapshot();
        assert_eq!(after.generation(), before.generation(), "nothing was written");
        assert_eq!(after.rows(), before.rows());
        let probe = "SELECT id FROM t WHERE x = 10.0";
        assert!(d.prepare(probe).unwrap().explain().unwrap().contains("IndexScan"));
        assert!(d.query(probe).unwrap().rows.is_empty(), "no index entry moved");
        assert_eq!(d.query("SELECT id FROM t WHERE x = 0.0").unwrap().rows.len(), 3);
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
