// srclint: allow(R002): thread join() only errs when a fetch worker panicked; re-raising that panic is intended
//! The federated database: a mediator over multiple sources.
//!
//! `FederatedDatabase` plays the role of the paper's integrated "Main
//! Platform": a single SQL entry point whose catalog combines native tables
//! with foreign tables imported from registered sources (the
//! `postgres_fdw` pattern). Foreign tables are fetched through the source's
//! cost model on demand and cached; `refresh()` re-pulls them, modelling
//! the periodic synchronisation of the EU databanks.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::Arc;

use parking_lot::RwLock;

use crosse_relational::sql::ast::{Expr, JoinKind, Statement, TableRef};
use crosse_relational::{Column, Database, Error, Result, RowSet};

use crate::source::DataSource;

/// Naming scheme for imported foreign tables.
fn foreign_table_name(source: &str, table: &str) -> String {
    format!("{source}__{table}")
}

/// Result of a pushdown query: the rows plus what was shipped where.
#[derive(Debug, Clone)]
pub struct PushdownOutcome {
    pub result: RowSet,
    /// One entry per foreign-table reference in the query.
    pub pushed: Vec<PushedFilter>,
}

/// One remote sub-query issued during pushdown.
#[derive(Debug, Clone)]
pub struct PushedFilter {
    pub foreign_table: String,
    /// The SQL shipped to the source.
    pub remote_sql: String,
    /// Rows that actually crossed the (simulated) network.
    pub rows_fetched: usize,
}

/// A prepared federated query: the mediator's compiled statement plus the
/// foreign tables it references. `live` executions re-pull exactly those
/// tables before running the cached plan — prepared remote queries,
/// without re-analysing the SQL text per request.
#[derive(Clone)]
pub struct FederatedPrepared {
    inner: crosse_relational::Prepared,
    foreign: Vec<String>,
    fed: FederatedDatabase,
}

impl FederatedPrepared {
    /// Typed parameter slots, in binding order.
    pub fn param_slots(&self) -> Arc<Vec<crosse_relational::SlotInfo>> {
        self.inner.param_slots()
    }

    /// Foreign tables this statement touches (refreshed in live mode).
    pub fn foreign_tables(&self) -> &[String] {
        &self.foreign
    }

    /// Bind parameters and execute, returning a streaming cursor. With
    /// `live`, the referenced foreign tables are re-fetched first.
    pub fn execute(
        &self,
        params: &crosse_relational::Params,
        live: bool,
    ) -> Result<crosse_relational::Rows> {
        if live {
            for name in &self.foreign {
                self.fed.refresh_table(name)?;
            }
        }
        self.inner.execute(params)
    }

    /// Execute and materialise (the collect adapter).
    pub fn query(
        &self,
        params: &crosse_relational::Params,
        live: bool,
    ) -> Result<RowSet> {
        self.execute(params, live)?.collect_rows()
    }
}

/// A mediator database federating several sources behind one SQL surface.
#[derive(Clone)]
pub struct FederatedDatabase {
    local: Database,
    sources: Arc<RwLock<Vec<Arc<dyn DataSource>>>>,
    /// foreign table name → (source index, remote table name)
    foreign: Arc<RwLock<HashMap<String, (usize, String)>>>,
    /// Generation counter for pushdown staging tables.
    push_gen: Arc<AtomicU64>,
}

impl Default for FederatedDatabase {
    fn default() -> Self {
        Self::new()
    }
}

impl FederatedDatabase {
    pub fn new() -> Self {
        FederatedDatabase {
            local: Database::new(),
            sources: Arc::new(RwLock::new_labeled("fdw.sources", Vec::new())),
            foreign: Arc::new(RwLock::new_labeled("fdw.foreign", HashMap::new())),
            push_gen: Arc::default(),
        }
    }

    /// The mediator's own database (native tables, temp tables).
    pub fn local(&self) -> &Database {
        &self.local
    }

    /// Register a source and import all of its tables as foreign tables
    /// named `<source>__<table>`. Returns the imported names.
    pub fn register_source(&self, source: Arc<dyn DataSource>) -> Result<Vec<String>> {
        let idx = {
            let mut sources = self.sources.write();
            sources.push(Arc::clone(&source));
            sources.len() - 1
        };
        let mut imported = Vec::new();
        for table in source.table_names() {
            let fname = foreign_table_name(source.name(), &table);
            let schema = source.table_schema(&table)?;
            let cols: Vec<Column> = schema
                .columns
                .iter()
                .map(|c| Column::new(c.name.clone(), c.data_type))
                .collect();
            self.local.catalog().create_table(&fname, cols)?;
            self.foreign.write().insert(fname.clone(), (idx, table));
            imported.push(fname);
        }
        // Populate immediately so the first query sees data.
        for name in &imported {
            self.refresh_table(name)?;
        }
        Ok(imported)
    }

    /// Names of all foreign tables.
    pub fn foreign_tables(&self) -> Vec<String> {
        let mut v: Vec<String> = self.foreign.read().keys().cloned().collect();
        v.sort();
        v
    }

    /// Re-fetch one foreign table through its source's cost model.
    pub fn refresh_table(&self, foreign_name: &str) -> Result<usize> {
        let (idx, remote) = self
            .foreign
            .read()
            .get(foreign_name)
            .cloned()
            .ok_or_else(|| {
                Error::catalog(format!("`{foreign_name}` is not a foreign table"))
            })?;
        let source = Arc::clone(&self.sources.read()[idx]);
        let rows = source.fetch_table(&remote)?;
        let table = self.local.catalog().get_table(foreign_name)?;
        table.truncate()?;
        table.insert_many(rows.rows)
    }

    /// Re-fetch every foreign table (full sync round).
    pub fn refresh_all(&self) -> Result<usize> {
        let mut total = 0;
        for name in self.foreign_tables() {
            total += self.refresh_table(&name)?;
        }
        Ok(total)
    }

    /// Re-fetch every foreign table, issuing the source requests
    /// concurrently (one thread per fetch). With realtime latency models
    /// the sync round costs max(RTT) instead of sum(RTT) — the concurrent
    /// sub-query dispatch of a mediated query system.
    pub fn refresh_all_parallel(&self) -> Result<usize> {
        let jobs: Vec<(String, Arc<dyn DataSource>, String)> = {
            let foreign = self.foreign.read();
            let sources = self.sources.read();
            foreign
                .iter()
                .map(|(fname, (idx, remote))| {
                    (fname.clone(), Arc::clone(&sources[*idx]), remote.clone())
                })
                .collect()
        };
        let fetched: Vec<(String, Result<RowSet>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = jobs
                .iter()
                .map(|(fname, source, remote)| {
                    let fname = fname.clone();
                    scope.spawn(move || (fname, source.fetch_table(remote)))
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("fetch thread")).collect()
        });
        let mut total = 0;
        for (fname, result) in fetched {
            let rows = result?;
            let table = self.local.catalog().get_table(&fname)?;
            table.truncate()?;
            total += table.insert_many(rows.rows)?;
        }
        Ok(total)
    }

    /// Execute a query against the mediator. `live` queries first re-pull
    /// the referenced foreign tables (postgres_fdw behaviour); non-live
    /// queries run on the cached copies.
    pub fn query(&self, sql: &str, live: bool) -> Result<RowSet> {
        if live {
            for name in self.referenced_foreign_tables(sql)? {
                self.refresh_table(&name)?;
            }
        }
        self.local.query(sql)
    }

    /// Prepare a federated SELECT: compile it once through the mediator's
    /// plan cache and record which foreign tables it touches, so repeated
    /// executions skip both re-parsing and the FROM-clause analysis.
    /// Parameter placeholders (`$name` / `?`) bind per execution.
    pub fn prepare(&self, sql: &str) -> Result<FederatedPrepared> {
        let inner = self.local.prepare(sql)?;
        let foreign = self.foreign_tables_of(inner.select());
        Ok(FederatedPrepared { inner, foreign, fed: self.clone() })
    }

    /// Which foreign tables a query touches (by FROM-clause analysis).
    pub fn referenced_foreign_tables(&self, sql: &str) -> Result<Vec<String>> {
        Ok(match crosse_relational::sql::parser::parse_statement(sql)? {
            Statement::Select(s) => self.foreign_tables_of(&s),
            _ => Vec::new(),
        })
    }

    fn foreign_tables_of(&self, select: &crosse_relational::sql::ast::Select) -> Vec<String> {
        fn walk(tr: &TableRef, out: &mut Vec<String>) {
            match tr {
                TableRef::Table { name, .. } => out.push(name.clone()),
                TableRef::Join { left, right, .. } => {
                    walk(left, out);
                    walk(right, out);
                }
            }
        }
        let mut tables = Vec::new();
        for tr in &select.from {
            walk(tr, &mut tables);
        }
        let foreign = self.foreign.read();
        let mut out = Vec::new();
        for t in tables {
            let key = t.to_ascii_lowercase();
            if foreign.contains_key(&key) && !out.contains(&key) {
                out.push(key);
            }
        }
        out
    }

    /// Execute a live SELECT with **filter pushdown**: WHERE conjuncts that
    /// reference exactly one foreign table are shipped to that table's
    /// source as a remote sub-query, so only matching rows cross the
    /// (simulated) network. Remote fetches for distinct sources run
    /// concurrently. The original WHERE clause is still evaluated locally,
    /// so pushdown can only shrink transfers, never change results.
    ///
    /// Conjuncts are pushed only for tables on the preserved side of the
    /// join tree (never below the null-supplying side of a LEFT join, where
    /// pre-filtering could manufacture NULL-extended rows).
    ///
    /// ```
    /// use std::sync::Arc;
    /// use crosse_federation::{FederatedDatabase, LocalSource};
    /// use crosse_relational::Database;
    ///
    /// let national = Database::new();
    /// national.execute_script(
    ///     "CREATE TABLE landfill (name TEXT, city TEXT);
    ///      INSERT INTO landfill VALUES ('a','Torino'), ('b','Milano');",
    /// ).unwrap();
    /// let fed = FederatedDatabase::new();
    /// fed.register_source(Arc::new(LocalSource::new("it", national))).unwrap();
    ///
    /// let out = fed
    ///     .query_pushdown("SELECT name FROM it__landfill WHERE city = 'Torino'")
    ///     .unwrap();
    /// assert_eq!(out.result.len(), 1);
    /// assert_eq!(out.pushed[0].rows_fetched, 1); // only the match moved
    /// ```
    pub fn query_pushdown(&self, sql: &str) -> Result<PushdownOutcome> {
        let stmt = crosse_relational::sql::parser::parse_statement(sql)?;
        let Statement::Select(select) = stmt else {
            return Err(Error::plan("pushdown queries must be SELECT statements"));
        };
        let mut select = *select;

        // Flatten WHERE into conjuncts.
        let mut conjuncts: Vec<Expr> = Vec::new();
        if let Some(filter) = &select.filter {
            let mut parts = Vec::new();
            crosse_relational::plan::split_conjuncts(filter, &mut parts);
            conjuncts = parts.into_iter().cloned().collect();
        }

        // Collect foreign-table refs (with their effective qualifier and
        // whether conjunct pushdown is semantically safe at that position).
        struct ForeignRef {
            qualifier: String,
            foreign: String,
            remote: String,
            source: Arc<dyn DataSource>,
            pushable: bool,
        }
        let mut refs: Vec<ForeignRef> = Vec::new();
        {
            let foreign = self.foreign.read();
            let sources = self.sources.read();
            fn walk(
                tr: &TableRef,
                nullable: bool,
                foreign: &HashMap<String, (usize, String)>,
                sources: &[Arc<dyn DataSource>],
                out: &mut Vec<ForeignRef>,
            ) {
                match tr {
                    TableRef::Table { name, alias } => {
                        let key = name.to_ascii_lowercase();
                        if let Some((idx, remote)) = foreign.get(&key) {
                            out.push(ForeignRef {
                                qualifier: alias.clone().unwrap_or_else(|| name.clone()),
                                foreign: key,
                                remote: remote.clone(),
                                source: Arc::clone(&sources[*idx]),
                                pushable: !nullable,
                            });
                        }
                    }
                    TableRef::Join { left, right, kind, .. } => {
                        walk(left, nullable, foreign, sources, out);
                        let right_nullable = nullable || *kind == JoinKind::Left;
                        walk(right, right_nullable, foreign, sources, out);
                    }
                }
            }
            for tr in &select.from {
                walk(tr, false, &foreign, &sources, &mut refs);
            }
        }
        if refs.is_empty() {
            // Nothing foreign: plain local execution.
            return Ok(PushdownOutcome {
                result: self.local.query(sql)?,
                pushed: Vec::new(),
            });
        }

        // Assign pushable conjuncts to foreign refs and build remote SQL.
        let mut remote_sqls: Vec<String> = Vec::new();
        let mut pushed_report: Vec<PushedFilter> = Vec::new();
        for r in &refs {
            let table = self.local.catalog().get_table(&r.foreign)?;
            let schema = table.schema.clone().with_qualifier(&r.qualifier);
            let mut parts: Vec<String> = Vec::new();
            if r.pushable {
                for c in &conjuncts {
                    if crosse_relational::exec::expr::bind(c, &schema).is_ok() {
                        let stripped = c.clone().rewrite(&mut |e| match e {
                            Expr::Column { qualifier: Some(q), name }
                                if q.eq_ignore_ascii_case(&r.qualifier) =>
                            {
                                Expr::Column { qualifier: None, name }
                            }
                            other => other,
                        });
                        parts.push(stripped.to_string());
                    }
                }
            }
            let remote_sql = if parts.is_empty() {
                format!("SELECT * FROM {}", r.remote)
            } else {
                format!("SELECT * FROM {} WHERE {}", r.remote, parts.join(" AND "))
            };
            pushed_report.push(PushedFilter {
                foreign_table: r.foreign.clone(),
                remote_sql: remote_sql.clone(),
                rows_fetched: 0,
            });
            remote_sqls.push(remote_sql);
        }

        // Fetch all remote legs concurrently.
        let fetched: Vec<Result<RowSet>> = std::thread::scope(|scope| {
            let handles: Vec<_> = refs
                .iter()
                .zip(&remote_sqls)
                .map(|(r, sql)| {
                    let source = Arc::clone(&r.source);
                    scope.spawn(move || source.fetch_query(sql))
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("fetch thread")).collect()
        });

        // Stage results in generation-stamped local tables and rewrite the
        // query's table refs to them (keeping the original qualifier so
        // column references resolve unchanged).
        let generation = self.push_gen.fetch_add(1, AtomicOrdering::Relaxed);
        let mut staged: Vec<String> = Vec::new();
        let mut stage_err: Option<Error> = None;
        for ((r, result), report) in
            refs.iter().zip(fetched).zip(pushed_report.iter_mut())
        {
            match result {
                Ok(rows) => {
                    let staged_name =
                        format!("__push_{}_{}_{generation}", r.foreign, staged.len());
                    let cols: Vec<Column> = rows
                        .schema
                        .columns
                        .iter()
                        .map(|c| Column::new(c.name.clone(), c.data_type))
                        .collect();
                    report.rows_fetched = rows.rows.len();
                    if let Err(e) = self
                        .local
                        .catalog()
                        .create_table(&staged_name, cols)
                        .and_then(|t| t.insert_many(rows.rows).map(|_| ()))
                    {
                        stage_err.get_or_insert(e);
                        break;
                    }
                    staged.push(staged_name);
                }
                Err(e) => {
                    stage_err.get_or_insert(e);
                    break;
                }
            }
        }

        let result = match stage_err {
            Some(e) => Err(e),
            None => {
                // Rewrite FROM: each foreign ref (in walk order) points at
                // its staged table, aliased back to the original qualifier.
                let mut next = 0usize;
                fn rewrite(
                    tr: &mut TableRef,
                    refs: &[ForeignRef],
                    staged: &[String],
                    next: &mut usize,
                ) {
                    match tr {
                        TableRef::Table { name, alias } => {
                            let key = name.to_ascii_lowercase();
                            if *next < refs.len() && refs[*next].foreign == key {
                                *alias = Some(refs[*next].qualifier.clone());
                                *name = staged[*next].clone();
                                *next += 1;
                            }
                        }
                        TableRef::Join { left, right, .. } => {
                            rewrite(left, refs, staged, next);
                            rewrite(right, refs, staged, next);
                        }
                    }
                }
                for tr in &mut select.from {
                    rewrite(tr, &refs, &staged, &mut next);
                }
                self.local
                    .execute_statement(Statement::Select(Box::new(select)))
                    .and_then(|o| o.into_rows())
            }
        };

        for name in staged {
            let _ = self.local.catalog().drop_table(&name);
        }
        result.map(|rows| PushdownOutcome { result: rows, pushed: pushed_report })
    }

    /// Aggregate stats across all sources.
    pub fn source_stats(&self) -> Vec<(String, crate::source::SourceStats)> {
        self.sources
            .read()
            .iter()
            .map(|s| (s.name().to_string(), s.stats()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{LatencyModel, LocalSource, RemoteSource};
    use crosse_relational::Value;

    fn national_db() -> Database {
        let db = Database::new();
        db.execute_script(
            "CREATE TABLE landfill (name TEXT, city TEXT);
             INSERT INTO landfill VALUES ('Basse di Stura','Torino'), ('Barricalla','Collegno');",
        )
        .unwrap();
        db
    }

    fn eu_db() -> Database {
        let db = Database::new();
        db.execute_script(
            "CREATE TABLE waste_stats (country TEXT, tons FLOAT);
             INSERT INTO waste_stats VALUES ('Italy', 29000.0), ('France', 34000.0);",
        )
        .unwrap();
        db
    }

    fn fed() -> FederatedDatabase {
        let fed = FederatedDatabase::new();
        fed.register_source(Arc::new(LocalSource::new("it", national_db()))).unwrap();
        fed.register_source(Arc::new(RemoteSource::new(
            "eu",
            eu_db(),
            LatencyModel::instant(),
        )))
        .unwrap();
        fed
    }

    #[test]
    fn prepared_federated_query_binds_and_refreshes() {
        use crosse_relational::Params;
        let national = national_db();
        let fed = FederatedDatabase::new();
        fed.register_source(Arc::new(LocalSource::new("it", national.clone())))
            .unwrap();
        let p = fed
            .prepare("SELECT name FROM it__landfill WHERE city = $city")
            .unwrap();
        assert_eq!(p.foreign_tables(), ["it__landfill"]);
        assert_eq!(p.param_slots().len(), 1);
        let rs = p.query(&Params::new().set("city", "Torino"), false).unwrap();
        assert_eq!(rs.len(), 1);
        // Source-side change is invisible on cached copies...
        national
            .execute("INSERT INTO landfill VALUES ('Nuovo','Torino')")
            .unwrap();
        let rs = p.query(&Params::new().set("city", "Torino"), false).unwrap();
        assert_eq!(rs.len(), 1);
        // ...and visible through a live prepared execution.
        let rs = p.query(&Params::new().set("city", "Torino"), true).unwrap();
        assert_eq!(rs.len(), 2);
        // Execute-many with a different binding, same handle.
        let rs = p.query(&Params::new().set("city", "Collegno"), false).unwrap();
        assert_eq!(rs.len(), 1);
    }

    #[test]
    fn import_creates_prefixed_tables() {
        let fed = fed();
        assert_eq!(fed.foreign_tables(), vec!["eu__waste_stats", "it__landfill"]);
    }

    #[test]
    fn query_over_cached_foreign_tables() {
        let fed = fed();
        let rs = fed.query("SELECT name FROM it__landfill ORDER BY name", false).unwrap();
        assert_eq!(rs.len(), 2);
    }

    #[test]
    fn cross_source_join() {
        let fed = fed();
        // Pair each Italian landfill with the Italian national total.
        let rs = fed
            .query(
                "SELECT l.name, w.tons FROM it__landfill l, eu__waste_stats w \
                 WHERE w.country = 'Italy'",
                false,
            )
            .unwrap();
        assert_eq!(rs.len(), 2);
        assert_eq!(rs.rows[0][1], Value::Float(29000.0));
    }

    #[test]
    fn live_query_refetches_only_referenced_tables() {
        let fed = fed();
        let stats0: u64 = fed.source_stats().iter().map(|(_, s)| s.requests).sum();
        fed.query("SELECT * FROM it__landfill", true).unwrap();
        let by_name: HashMap<String, _> = fed.source_stats().into_iter().collect();
        assert_eq!(
            by_name["it"].requests + by_name["eu"].requests,
            stats0 + 1,
            "only the it source should see a new request"
        );
    }

    #[test]
    fn stale_cache_until_refresh() {
        let national = national_db();
        let fed = FederatedDatabase::new();
        fed.register_source(Arc::new(LocalSource::new("it", national.clone()))).unwrap();
        national
            .execute("INSERT INTO landfill VALUES ('Gerbido','Torino')")
            .unwrap();
        let cached = fed.query("SELECT COUNT(*) FROM it__landfill", false).unwrap();
        assert_eq!(cached.rows[0][0], Value::Int(2), "cache is stale");
        let live = fed.query("SELECT COUNT(*) FROM it__landfill", true).unwrap();
        assert_eq!(live.rows[0][0], Value::Int(3), "live pull sees the insert");
    }

    #[test]
    fn refresh_all_counts_rows() {
        let fed = fed();
        assert_eq!(fed.refresh_all().unwrap(), 4);
    }

    #[test]
    fn name_collision_between_sources_errors() {
        let fed = FederatedDatabase::new();
        fed.register_source(Arc::new(LocalSource::new("a", national_db()))).unwrap();
        let err = fed
            .register_source(Arc::new(LocalSource::new("a", national_db())))
            .unwrap_err();
        assert!(err.to_string().contains("already exists"));
    }

    #[test]
    fn refresh_unknown_table_errors() {
        let fed = fed();
        assert!(fed.refresh_table("nope").is_err());
    }

    #[test]
    fn pushdown_ships_filter_and_reduces_transfer() {
        let fed = fed();
        let before: u64 = fed
            .source_stats()
            .iter()
            .map(|(_, s)| s.rows_transferred)
            .sum();
        let out = fed
            .query_pushdown(
                "SELECT name FROM it__landfill WHERE city = 'Torino'",
            )
            .unwrap();
        assert_eq!(out.result.len(), 1);
        assert_eq!(out.pushed.len(), 1);
        assert!(out.pushed[0].remote_sql.contains("WHERE"), "{:?}", out.pushed);
        assert_eq!(out.pushed[0].rows_fetched, 1, "only the matching row moved");
        let after: u64 = fed
            .source_stats()
            .iter()
            .map(|(_, s)| s.rows_transferred)
            .sum();
        assert_eq!(after - before, 1);
    }

    #[test]
    fn pushdown_agrees_with_plain_live_query() {
        let fed = fed();
        let queries = [
            "SELECT name FROM it__landfill WHERE city = 'Torino' ORDER BY name",
            "SELECT l.name, w.tons FROM it__landfill l, eu__waste_stats w \
             WHERE w.country = 'Italy' AND l.city = 'Torino'",
            "SELECT COUNT(*) FROM it__landfill",
        ];
        for sql in queries {
            let plain = fed.query(sql, true).unwrap();
            let pushed = fed.query_pushdown(sql).unwrap();
            assert_eq!(plain.rows, pushed.result.rows, "{sql}");
        }
    }

    #[test]
    fn pushdown_with_alias_strips_qualifier_in_remote_sql() {
        let fed = fed();
        let out = fed
            .query_pushdown("SELECT l.name FROM it__landfill l WHERE l.city = 'Torino'")
            .unwrap();
        assert!(
            !out.pushed[0].remote_sql.contains("l."),
            "qualifier must be stripped: {}",
            out.pushed[0].remote_sql
        );
        assert_eq!(out.result.len(), 1);
    }

    #[test]
    fn pushdown_does_not_push_below_left_join_nullable_side() {
        let fed = fed();
        // `w.country IS NULL OR w.tons > 30000` binds against w alone but
        // sits on the nullable side of the LEFT join — must not be pushed.
        let sql = "SELECT l.name FROM it__landfill l \
                   LEFT JOIN eu__waste_stats w ON l.city = w.country \
                   WHERE w.country IS NULL OR w.tons > 30000";
        let plain = fed.query(sql, true).unwrap();
        let pushed = fed.query_pushdown(sql).unwrap();
        assert_eq!(plain.rows, pushed.result.rows);
        // The eu leg must have fetched the full table (2 rows).
        let eu = pushed
            .pushed
            .iter()
            .find(|p| p.foreign_table == "eu__waste_stats")
            .unwrap();
        assert!(!eu.remote_sql.contains("WHERE"), "{}", eu.remote_sql);
        assert_eq!(eu.rows_fetched, 2);
    }

    #[test]
    fn pushdown_cleans_up_staging_tables() {
        let fed = fed();
        fed.query_pushdown("SELECT name FROM it__landfill WHERE city = 'x'").unwrap();
        let leftovers: Vec<String> = fed
            .local()
            .catalog()
            .table_names()
            .into_iter()
            .filter(|n| n.starts_with("__push_"))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
    }

    #[test]
    fn pushdown_without_foreign_tables_runs_locally() {
        let fed = fed();
        fed.local().execute("CREATE TABLE notes (txt TEXT)").unwrap();
        fed.local().execute("INSERT INTO notes VALUES ('hi')").unwrap();
        let out = fed.query_pushdown("SELECT txt FROM notes").unwrap();
        assert_eq!(out.result.len(), 1);
        assert!(out.pushed.is_empty());
    }

    #[test]
    fn pushdown_rejects_non_select() {
        let fed = fed();
        assert!(fed.query_pushdown("DELETE FROM it__landfill").is_err());
    }

    /// A source that fails every fetch after the first `allowed` requests —
    /// models a databank going offline mid-session.
    struct FlakySource {
        inner: LocalSource,
        allowed: u64,
        seen: std::sync::atomic::AtomicU64,
    }

    impl FlakySource {
        fn new(name: &str, db: Database, allowed: u64) -> Self {
            FlakySource {
                inner: LocalSource::new(name, db),
                allowed,
                seen: std::sync::atomic::AtomicU64::new(0),
            }
        }

        fn check(&self) -> crosse_relational::Result<()> {
            let n = self
                .seen
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            if n >= self.allowed {
                Err(Error::eval("source is offline"))
            } else {
                Ok(())
            }
        }
    }

    impl crate::source::DataSource for FlakySource {
        fn name(&self) -> &str {
            self.inner.name()
        }
        fn table_names(&self) -> Vec<String> {
            self.inner.table_names()
        }
        fn table_schema(&self, table: &str) -> crosse_relational::Result<crosse_relational::Schema> {
            self.inner.table_schema(table)
        }
        fn fetch_table(&self, table: &str) -> crosse_relational::Result<RowSet> {
            self.check()?;
            self.inner.fetch_table(table)
        }
        fn fetch_query(&self, sql: &str) -> crosse_relational::Result<RowSet> {
            self.check()?;
            self.inner.fetch_query(sql)
        }
        fn stats(&self) -> crate::source::SourceStats {
            self.inner.stats()
        }
    }

    #[test]
    fn pushdown_propagates_source_failure_and_cleans_staging() {
        let fed = FederatedDatabase::new();
        // One fetch allowed: registration's initial populate succeeds,
        // the pushdown fetch fails.
        fed.register_source(Arc::new(FlakySource::new("it", national_db(), 1)))
            .unwrap();
        let err = fed
            .query_pushdown("SELECT name FROM it__landfill WHERE city = 'Torino'")
            .unwrap_err();
        assert!(err.to_string().contains("offline"), "{err}");
        let leftovers: Vec<String> = fed
            .local()
            .catalog()
            .table_names()
            .into_iter()
            .filter(|n| n.starts_with("__push_"))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        // The cached copy still answers non-live queries.
        let rs = fed.query("SELECT name FROM it__landfill", false).unwrap();
        assert_eq!(rs.len(), 2);
    }

    #[test]
    fn parallel_refresh_propagates_failure_from_any_source() {
        let fed = FederatedDatabase::new();
        fed.register_source(Arc::new(LocalSource::new("ok", national_db()))).unwrap();
        fed.register_source(Arc::new(FlakySource::new("bad", eu_db(), 1))).unwrap();
        let err = fed.refresh_all_parallel().unwrap_err();
        assert!(err.to_string().contains("offline"), "{err}");
        // Recovery: the healthy source alone still refreshes.
        assert!(fed.refresh_table("ok__landfill").unwrap() == 2);
    }

    #[test]
    fn live_query_fails_cleanly_when_source_dies_midway() {
        let fed = FederatedDatabase::new();
        fed.register_source(Arc::new(FlakySource::new("it", national_db(), 2)))
            .unwrap();
        // First live query consumes the second allowed fetch...
        fed.query("SELECT * FROM it__landfill", true).unwrap();
        // ...the next one hits the dead source but the cache stays usable.
        assert!(fed.query("SELECT * FROM it__landfill", true).is_err());
        assert_eq!(fed.query("SELECT COUNT(*) FROM it__landfill", false).unwrap().len(), 1);
    }

    #[test]
    fn parallel_refresh_matches_sequential_and_overlaps_latency() {
        use std::time::{Duration, Instant};
        let fed = FederatedDatabase::new();
        for i in 0..4 {
            let db = Database::new();
            db.execute_script(&format!(
                "CREATE TABLE t{i} (x INT); INSERT INTO t{i} VALUES (1), (2);"
            ))
            .unwrap();
            fed.register_source(Arc::new(RemoteSource::new(
                format!("s{i}"),
                db,
                LatencyModel::with_rtt(Duration::from_millis(20)),
            )))
            .unwrap();
        }
        let t0 = Instant::now();
        let n = fed.refresh_all_parallel().unwrap();
        let parallel_elapsed = t0.elapsed();
        assert_eq!(n, 8);
        // 4 sequential RTTs would be ≥80ms; parallel should stay well under.
        assert!(
            parallel_elapsed < Duration::from_millis(70),
            "parallel refresh took {parallel_elapsed:?}"
        );
        let t0 = Instant::now();
        fed.refresh_all().unwrap();
        assert!(t0.elapsed() >= Duration::from_millis(80), "sequential baseline");
    }

    #[test]
    fn native_tables_coexist() {
        let fed = fed();
        fed.local()
            .execute("CREATE TABLE notes (txt TEXT)")
            .unwrap();
        fed.local().execute("INSERT INTO notes VALUES ('hello')").unwrap();
        let rs = fed.query("SELECT txt FROM notes", true).unwrap();
        assert_eq!(rs.len(), 1);
    }
}
