//! Row storage: tables and the catalog.
//!
//! Storage is an in-memory heap of rows per table held as a **generational
//! copy-on-write snapshot**: the heap is an `Arc<Vec<Row>>` behind a
//! `parking_lot::RwLock`. Readers pin the current `Arc` once (a
//! [`TableSnapshot`]) and then stream from it without ever re-taking the
//! lock — a cursor sees exactly the rows that existed when it opened, no
//! matter what concurrent `INSERT`/`DELETE`/`TRUNCATE` traffic does in the
//! meantime. Writers mutate through [`Arc::make_mut`]: while no snapshot
//! is pinned that is an in-place update (the common case), and while one
//! is pinned the writer clones the heap and readers keep their frozen
//! version. This is what makes lock-free morsel-parallel scans safe: a
//! worker pool can partition a pinned snapshot freely because nothing can
//! mutate it.
//!
//! ## Durability hooks
//!
//! A catalog may carry a [`wal::RedoSink`]: when one is attached (the
//! database was opened from a data directory), every mutation logs a redo
//! record *before* applying — under the sink's barrier lock, so checkpoint
//! pinning can exclude in-flight mutations — and a failed log append fails
//! the statement without touching the heap. **Ephemeral** tables (the
//! SESQL pairs tables from [`Catalog::create_ephemeral_table`], the
//! foreign tables of [`crate::foreign`]) are excluded from both logging
//! and snapshots. Without a sink everything behaves exactly as before: a
//! purely in-memory engine.

pub mod durable;
pub mod snapshot;
pub mod wal;

use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering as AtomicOrdering};
use std::sync::Arc;

use parking_lot::RwLock;

use crate::error::{Error, Result};
use crate::foreign::Foreign;
use crate::schema::{Column, Schema};
use crate::value::{Row, Value};

use wal::{encode_rel_op, RedoSink, RelOp};

/// Take the sink's barrier in read mode for one log-then-apply critical
/// section (no-op when no sink is attached). Must be acquired **before**
/// any storage lock — the checkpointer takes the write side and then reads
/// the stores, so acquiring in the other order deadlocks.
fn sink_guard(
    sink: &Option<Arc<dyn RedoSink>>,
) -> Option<parking_lot::RwLockReadGuard<'_, ()>> {
    sink.as_ref().map(|s| s.barrier().read())
}

/// Run the sink's deferred fsync. Mutators call this **after** their
/// log-then-apply critical section releases its heap locks — holding
/// `table.rows` (or the barrier) across an fsync stalls every reader
/// behind the disk, and the lock-order tracker flags exactly that.
fn flush_sink(sink: &Option<Arc<dyn RedoSink>>) -> Result<()> {
    match sink {
        Some(s) => s.flush(),
        None => Ok(()),
    }
}

/// A secondary index over one column of a [`Table`].
///
/// The index maps column values to row positions in the heap. It is
/// maintained incrementally on `INSERT` (appends never move rows) and marked
/// *dirty* by `DELETE`/`UPDATE`/`TRUNCATE` (which may move or change rows);
/// a dirty index is rebuilt lazily on the next lookup. This matches the
/// engine's role as an analytical databank stand-in: bulk loads and reads
/// dominate, in-place churn is rare.
#[derive(Debug)]
pub struct Index {
    pub name: String,
    /// Column position in the owning table's schema.
    pub column: usize,
    /// Keyed directly by `Value` — its `Ord` is the total order — so
    /// probes borrow the caller's key instead of cloning it. NULLs never
    /// reach the index (skipped at build/insert time), so NULL's position
    /// in the total order is moot.
    entries: RwLock<BTreeMap<Value, Vec<usize>>>,
    dirty: AtomicBool,
}

impl Index {
    fn build(name: String, column: usize, rows: &[Row]) -> Self {
        let idx = Index {
            name,
            column,
            entries: RwLock::new_labeled("table.index.entries", BTreeMap::new()),
            dirty: AtomicBool::new(false),
        };
        idx.rebuild(rows);
        idx
    }

    fn rebuild(&self, rows: &[Row]) {
        let mut entries = self.entries.write();
        Self::rebuild_into(&mut entries, self.column, rows);
    }

    fn rebuild_into(
        entries: &mut BTreeMap<Value, Vec<usize>>,
        column: usize,
        rows: &[Row],
    ) {
        entries.clear();
        for (i, row) in rows.iter().enumerate() {
            let v = &row[column];
            if !v.is_null() {
                entries.entry(v.clone()).or_default().push(i);
            }
        }
    }

    /// Record one appended row (position `pos`) if the index is clean.
    fn note_append(&self, pos: usize, row: &Row) {
        if self.dirty.load(AtomicOrdering::Acquire) {
            return;
        }
        let v = &row[self.column];
        if !v.is_null() {
            self.entries.write().entry(v.clone()).or_default().push(pos);
        }
    }

    fn mark_dirty(&self) {
        self.dirty.store(true, AtomicOrdering::Release);
    }
}

/// A pinned, immutable view of a table's heap at one point in time.
///
/// Cheap to clone (it is an `Arc` plus a generation counter). Writers
/// never mutate the pinned vector — they copy-on-write — so holding a
/// snapshot across arbitrary concurrent DML is safe and lock-free, and a
/// worker pool may partition `rows()` across threads freely.
#[derive(Debug, Clone)]
pub struct TableSnapshot {
    rows: Arc<Vec<Row>>,
    generation: u64,
}

impl TableSnapshot {
    /// All rows frozen in this snapshot.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The table's write generation when this snapshot was pinned; two
    /// snapshots with equal generations hold identical rows.
    pub fn generation(&self) -> u64 {
        self.generation
    }
}

/// A heap-organised table.
#[derive(Debug)]
pub struct Table {
    pub name: String,
    pub schema: Schema,
    rows: RwLock<Arc<Vec<Row>>>,
    /// Bumped on every heap mutation (insert/delete/update/truncate),
    /// under the rows write lock.
    generation: AtomicU64,
    indexes: RwLock<Vec<Arc<Index>>>,
    /// Redo sink for durability; `None` on purely in-memory tables.
    sink: RwLock<Option<Arc<dyn RedoSink>>>,
    /// Ephemeral tables are excluded from logging and snapshots.
    ephemeral: bool,
    /// Set on a foreign table: its rows live at a source, and the table
    /// itself is ephemeral, empty and read-only.
    foreign: Option<Foreign>,
}

impl Table {
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        Table {
            name: name.into(),
            schema,
            rows: RwLock::new_labeled("table.rows", Arc::new(Vec::new())),
            generation: AtomicU64::new(0),
            indexes: RwLock::new_labeled("table.indexes", Vec::new()),
            sink: RwLock::new_labeled("table.sink", None),
            ephemeral: false,
            foreign: None,
        }
    }

    /// A foreign table named `name` over `foreign` (see [`crate::foreign`]).
    pub(crate) fn new_foreign(name: String, schema: Schema, foreign: Foreign) -> Self {
        Table { ephemeral: true, foreign: Some(foreign), ..Table::new(name, schema) }
    }

    /// The redo sink a mutation logs through (`None` when the table takes
    /// no part in durability); an error on a read-only foreign table.
    fn write_sink(&self) -> Result<Option<Arc<dyn RedoSink>>> {
        if self.foreign.is_some() {
            return Err(Error::catalog(format!(
                "`{}` is a foreign table and is read-only",
                self.name
            )));
        }
        Ok(if self.ephemeral { None } else { self.sink.read().clone() })
    }

    pub(crate) fn set_sink(&self, sink: Option<Arc<dyn RedoSink>>) {
        *self.sink.write() = sink;
    }

    pub fn is_ephemeral(&self) -> bool {
        self.ephemeral
    }

    /// Where a foreign table's rows live; `None` for a table of this
    /// database.
    pub fn foreign(&self) -> Option<&Foreign> {
        self.foreign.as_ref()
    }

    /// Number of stored rows.
    pub fn row_count(&self) -> usize {
        self.rows.read().len()
    }

    /// Pin the current heap as an immutable [`TableSnapshot`]. The caller
    /// holds no lock afterwards; concurrent writers copy-on-write around
    /// the pinned rows.
    pub fn snapshot(&self) -> TableSnapshot {
        let rows = self.rows.read();
        TableSnapshot {
            rows: Arc::clone(&*rows),
            generation: self.generation.load(AtomicOrdering::Acquire),
        }
    }

    /// Validate a row against the schema (arity + per-column coercion) and
    /// append it.
    pub fn insert(&self, row: Row) -> Result<()> {
        let coerced = self.check_row(row)?;
        let sink = self.write_sink()?;
        {
            let _barrier = sink_guard(&sink);
            let mut rows = self.rows.write();
            if let Some(s) = &sink {
                s.log(&encode_rel_op(&RelOp::Insert {
                    table: &self.name,
                    rows: std::slice::from_ref(&coerced),
                }))?;
            }
            let rows = Arc::make_mut(&mut *rows);
            let pos = rows.len();
            for idx in self.indexes.read().iter() {
                idx.note_append(pos, &coerced);
            }
            rows.push(coerced);
            self.generation.fetch_add(1, AtomicOrdering::AcqRel);
        }
        flush_sink(&sink)
    }

    /// Insert many rows; fails atomically (no partial insert) on the first
    /// invalid row. One redo record covers the whole batch, so recovery
    /// replays it all-or-nothing too.
    pub fn insert_many(&self, rows: Vec<Row>) -> Result<usize> {
        let mut checked = Vec::with_capacity(rows.len());
        for row in rows {
            checked.push(self.check_row(row)?);
        }
        let n = checked.len();
        let sink = self.write_sink()?;
        {
            let _barrier = sink_guard(&sink);
            let mut stored = self.rows.write();
            if let Some(s) = &sink {
                if !checked.is_empty() {
                    s.log(&encode_rel_op(&RelOp::Insert {
                        table: &self.name,
                        rows: &checked,
                    }))?;
                }
            }
            let stored = Arc::make_mut(&mut *stored);
            let indexes = self.indexes.read();
            for (offset, row) in checked.iter().enumerate() {
                for idx in indexes.iter() {
                    idx.note_append(stored.len() + offset, row);
                }
            }
            stored.extend(checked);
            self.generation.fetch_add(1, AtomicOrdering::AcqRel);
        }
        flush_sink(&sink)?;
        Ok(n)
    }

    /// Append already-validated rows without logging — the redo-replay
    /// path (the rows come *from* the log or a snapshot).
    pub(crate) fn apply_insert(&self, new_rows: Vec<Row>) {
        let mut stored = self.rows.write();
        let stored = Arc::make_mut(&mut *stored);
        let indexes = self.indexes.read();
        for (offset, row) in new_rows.iter().enumerate() {
            for idx in indexes.iter() {
                idx.note_append(stored.len() + offset, row);
            }
        }
        stored.extend(new_rows);
        self.generation.fetch_add(1, AtomicOrdering::AcqRel);
    }

    /// Remove rows by ascending heap position without logging (replay path).
    pub(crate) fn apply_delete(&self, positions: &[usize]) {
        if positions.is_empty() {
            return;
        }
        let mut rows = self.rows.write();
        let rows = Arc::make_mut(&mut *rows);
        let mut next = positions.iter().peekable();
        let mut i = 0usize;
        rows.retain(|_| {
            let drop_it = next.peek().is_some_and(|&&p| p == i);
            if drop_it {
                next.next();
            }
            i += 1;
            !drop_it
        });
        self.generation.fetch_add(1, AtomicOrdering::AcqRel);
        self.mark_indexes_dirty();
    }

    /// Overwrite rows at given heap positions without logging (replay path).
    pub(crate) fn apply_update(&self, changes: Vec<(usize, Row)>) {
        if changes.is_empty() {
            return;
        }
        let mut rows = self.rows.write();
        let rows = Arc::make_mut(&mut *rows);
        for (pos, row) in changes {
            if pos < rows.len() {
                rows[pos] = row;
            }
        }
        self.generation.fetch_add(1, AtomicOrdering::AcqRel);
        self.mark_indexes_dirty();
    }

    /// Arity and per-column coercion of one row against the schema.
    pub(crate) fn check_row(&self, row: Row) -> Result<Row> {
        if row.len() != self.schema.len() {
            return Err(Error::constraint(format!(
                "table `{}` expects {} values, got {}",
                self.name,
                self.schema.len(),
                row.len()
            )));
        }
        row.into_iter()
            .zip(&self.schema.columns)
            .map(|(v, c)| v.coerce(c.data_type))
            .collect()
    }

    /// Copy of all rows (materialised scan). Streaming readers should pin
    /// [`Table::snapshot`] instead and borrow from it.
    pub fn scan(&self) -> Vec<Row> {
        self.rows.read().as_ref().clone()
    }

    /// Visit rows without copying the whole table. Holds the read lock for
    /// the duration; use [`Table::snapshot`] for long walks.
    pub fn for_each(&self, mut f: impl FnMut(&Row)) {
        for row in self.rows.read().iter() {
            f(row);
        }
    }

    /// Delete rows matching `pred`; returns the number removed. The redo
    /// record carries the matched heap positions, so replay removes
    /// exactly the same rows without re-evaluating the predicate.
    pub fn delete_where(&self, mut pred: impl FnMut(&Row) -> bool) -> Result<usize> {
        let sink = self.write_sink()?;
        let removed = {
            let _barrier = sink_guard(&sink);
            let mut rows = self.rows.write();
            let positions: Vec<usize> = rows
                .iter()
                .enumerate()
                .filter_map(|(i, r)| pred(r).then_some(i))
                .collect();
            if positions.is_empty() {
                return Ok(0);
            }
            if let Some(s) = &sink {
                s.log(&encode_rel_op(&RelOp::Delete {
                    table: &self.name,
                    positions: &positions,
                }))?;
            }
            let rows = Arc::make_mut(&mut *rows);
            let mut next = positions.iter().peekable();
            let mut i = 0usize;
            rows.retain(|_| {
                let drop_it = next.peek().is_some_and(|&&p| p == i);
                if drop_it {
                    next.next();
                }
                i += 1;
                !drop_it
            });
            self.generation.fetch_add(1, AtomicOrdering::AcqRel);
            self.mark_indexes_dirty();
            positions.len()
        };
        flush_sink(&sink)?;
        Ok(removed)
    }

    /// Update rows: `f` receives a copy of each row mutably and returns
    /// true if it modified the row; modified copies replace their heap
    /// rows. If `f` errors mid-iteration, rows it already rewrote stay
    /// rewritten (per-statement atomicity is the executor's job) — the
    /// generation bump and the index-dirty mark still happen, so no index
    /// serves the stale keys. The redo record carries the materialised
    /// `(position, new row)` pairs, so replay is deterministic.
    pub fn update_where(
        &self,
        mut f: impl FnMut(&mut Row) -> Result<bool>,
    ) -> Result<usize> {
        let sink = self.write_sink()?;
        let (updated, failed) = {
            let _barrier = sink_guard(&sink);
            let mut rows = self.rows.write();
            let mut changes: Vec<(usize, Row)> = Vec::new();
            let mut failed: Option<Error> = None;
            for (pos, row) in rows.iter().enumerate() {
                let mut candidate = row.clone();
                match f(&mut candidate) {
                    Ok(true) => changes.push((pos, candidate)),
                    Ok(false) => {}
                    Err(e) => {
                        failed = Some(e);
                        break;
                    }
                }
            }
            let updated = changes.len();
            if !changes.is_empty() {
                if let Some(s) = &sink {
                    s.log(&encode_rel_op(&RelOp::Update {
                        table: &self.name,
                        changes: &changes,
                    }))?;
                }
            }
            if !changes.is_empty() || failed.is_some() {
                let rows = Arc::make_mut(&mut *rows);
                for (pos, row) in changes {
                    rows[pos] = row;
                }
                self.generation.fetch_add(1, AtomicOrdering::AcqRel);
                self.mark_indexes_dirty();
            }
            (updated, failed)
        };
        flush_sink(&sink)?;
        match failed {
            Some(e) => Err(e),
            None => Ok(updated),
        }
    }

    /// Remove all rows, keeping the schema. Pinned snapshots keep the old
    /// rows; the table publishes a fresh empty heap.
    pub fn truncate(&self) -> Result<()> {
        let sink = self.write_sink()?;
        {
            let _barrier = sink_guard(&sink);
            let mut rows = self.rows.write();
            if let Some(s) = &sink {
                s.log(&encode_rel_op(&RelOp::Truncate { table: &self.name }))?;
            }
            // Don't clear through make_mut: dropping the reference entirely
            // is cheaper when a reader has the old heap pinned.
            *rows = Arc::new(Vec::new());
            self.generation.fetch_add(1, AtomicOrdering::AcqRel);
            self.mark_indexes_dirty();
        }
        flush_sink(&sink)
    }

    fn mark_indexes_dirty(&self) {
        for idx in self.indexes.read().iter() {
            idx.mark_dirty();
        }
    }

    // ---- secondary indexes ------------------------------------------------

    /// Create a named index over `column_name`. Errors if the column is
    /// unknown or an index of that name already exists on this table.
    pub fn create_index(&self, index_name: &str, column_name: &str) -> Result<()> {
        let column = self.schema.resolve(None, column_name)?;
        let sink = self.write_sink()?;
        {
            let _barrier = sink_guard(&sink);
            let rows = self.rows.read();
            let mut indexes = self.indexes.write();
            if indexes.iter().any(|i| i.name.eq_ignore_ascii_case(index_name)) {
                return Err(Error::catalog(format!(
                    "index `{index_name}` already exists on table `{}`",
                    self.name
                )));
            }
            if let Some(s) = &sink {
                s.log(&encode_rel_op(&RelOp::CreateIndex {
                    table: &self.name,
                    index: index_name,
                    column: column_name,
                }))?;
            }
            indexes.push(Arc::new(Index::build(index_name.to_string(), column, &rows)));
        }
        flush_sink(&sink)
    }

    /// Drop an index by name; returns whether one was removed.
    pub fn drop_index(&self, index_name: &str) -> Result<bool> {
        let sink = self.write_sink()?;
        {
            let _barrier = sink_guard(&sink);
            let mut indexes = self.indexes.write();
            let Some(pos) =
                indexes.iter().position(|i| i.name.eq_ignore_ascii_case(index_name))
            else {
                return Ok(false);
            };
            if let Some(s) = &sink {
                s.log(&encode_rel_op(&RelOp::DropIndex { index: index_name }))?;
            }
            indexes.remove(pos);
        }
        flush_sink(&sink)?;
        Ok(true)
    }

    /// `(index name, indexed column name)` pairs, in creation order.
    pub fn index_names(&self) -> Vec<(String, String)> {
        self.indexes
            .read()
            .iter()
            .map(|i| (i.name.clone(), self.schema.columns[i.column].name.clone()))
            .collect()
    }

    /// Whether some index covers the given column position.
    pub fn has_index_on(&self, column: usize) -> bool {
        self.indexes.read().iter().any(|i| i.column == column)
    }

    fn index_for(&self, column: usize) -> Option<Arc<Index>> {
        self.indexes.read().iter().find(|i| i.column == column).cloned()
    }

    /// Point lookup through an index on `column`: rows whose column value
    /// equals any of `keys` (NULL keys never match). Returns `None` if no
    /// index covers the column — callers fall back to a scan.
    ///
    /// The lookup pins the live heap as a snapshot while resolving entry
    /// positions under the read lock, then materialises matching rows from
    /// the pinned snapshot off-lock — the same pin-once discipline as the
    /// scan path, so index results are point-in-time consistent.
    pub fn index_lookup_eq(&self, column: usize, keys: &[Value]) -> Option<Vec<Row>> {
        let idx = self.index_for(column)?;
        let rows = self.rows.read();
        self.ensure_clean(&idx, &rows);
        // Entry positions are resolved while the rows read lock is held, so
        // they are guaranteed consistent with the heap we pin; row
        // materialisation then happens off-lock from the snapshot. Probes
        // borrow the caller's keys — no per-lookup clone.
        let entries = idx.entries.read();
        let mut positions: Vec<usize> = Vec::new();
        for key in keys {
            if key.is_null() {
                continue;
            }
            if let Some(ps) = entries.get(key) {
                positions.extend_from_slice(ps);
            }
        }
        drop(entries);
        let snap = Arc::clone(&*rows);
        drop(rows);
        // Dedupe positions in case the key list itself contains duplicates,
        // and restore heap order for deterministic output.
        positions.sort_unstable();
        positions.dedup();
        Some(positions.into_iter().filter_map(|p| snap.get(p).cloned()).collect())
    }

    /// Range lookup through an index on `column` (NULL values are never in
    /// the index, so they never match a range — SQL comparison semantics).
    /// Returns `None` if no index covers the column.
    pub fn index_lookup_range(
        &self,
        column: usize,
        low: Bound<&Value>,
        high: Bound<&Value>,
    ) -> Option<Vec<Row>> {
        let idx = self.index_for(column)?;
        let rows = self.rows.read();
        self.ensure_clean(&idx, &rows);
        let entries = idx.entries.read();
        // The bounds are borrowed as-is: `BTreeMap::range` accepts
        // `Bound<&Value>` directly, so range probes allocate nothing.
        let mut positions: Vec<usize> = Vec::new();
        for (_, ps) in entries.range::<Value, _>((low, high)) {
            positions.extend_from_slice(ps);
        }
        drop(entries);
        let snap = Arc::clone(&*rows);
        drop(rows);
        positions.sort_unstable();
        Some(positions.into_iter().filter_map(|p| snap.get(p).cloned()).collect())
    }

    /// Rebuild a dirty index. Safe against concurrent mutation because the
    /// caller holds the rows read lock (mutators hold the rows write lock
    /// while setting the dirty flag). The flag is cleared only while holding
    /// the entries write lock, so a second concurrent reader either blocks
    /// on that lock or observes a clean flag *after* the rebuilt entries are
    /// published.
    fn ensure_clean(&self, idx: &Index, rows: &[Row]) {
        if idx.dirty.load(AtomicOrdering::Acquire) {
            let mut entries = idx.entries.write();
            if idx.dirty.load(AtomicOrdering::Acquire) {
                Index::rebuild_into(&mut entries, idx.column, rows);
                idx.dirty.store(false, AtomicOrdering::Release);
            }
        }
    }
}

/// The table catalog. Cheap to clone (shared interior).
///
/// Table names are case-insensitive, as in the SQL layer.
#[derive(Debug, Clone)]
pub struct Catalog {
    tables: Arc<RwLock<BTreeMap<String, Arc<Table>>>>,
    /// Bumped on every DDL change (table or index create/drop/replace).
    /// Cached query plans are valid only for the version they were
    /// planned against.
    version: Arc<std::sync::atomic::AtomicU64>,
    /// Redo sink propagated to every (non-ephemeral) table; shared across
    /// catalog clones.
    sink: Arc<RwLock<Option<Arc<dyn RedoSink>>>>,
}

impl Default for Catalog {
    fn default() -> Self {
        Catalog {
            tables: Arc::new(RwLock::new_labeled("catalog.tables", BTreeMap::new())),
            version: Arc::new(std::sync::atomic::AtomicU64::new(0)),
            sink: Arc::new(RwLock::new_labeled("catalog.sink", None)),
        }
    }
}

impl Catalog {
    pub fn new() -> Self {
        Self::default()
    }

    fn key(name: &str) -> String {
        name.to_ascii_lowercase()
    }

    /// Current DDL version (monotone; see field docs).
    pub fn version(&self) -> u64 {
        self.version.load(AtomicOrdering::Acquire)
    }

    fn bump_version(&self) {
        self.version.fetch_add(1, AtomicOrdering::AcqRel);
    }

    fn sink(&self) -> Option<Arc<dyn RedoSink>> {
        self.sink.read().clone()
    }

    /// Attach a redo sink: all future mutations (and mutations of existing
    /// non-ephemeral tables) log through it. Called once, right after
    /// recovery has replayed the log into this catalog.
    pub fn attach_sink(&self, sink: Arc<dyn RedoSink>) {
        *self.sink.write() = Some(Arc::clone(&sink));
        for table in self.tables.read().values() {
            if !table.is_ephemeral() {
                table.set_sink(Some(Arc::clone(&sink)));
            }
        }
    }

    /// Create a table; errors if the name is taken.
    pub fn create_table(&self, name: &str, columns: Vec<Column>) -> Result<Arc<Table>> {
        self.create_table_impl(name, columns, false, false)
    }

    /// Create, replacing any existing table of the same name.
    pub fn create_or_replace_table(
        &self,
        name: &str,
        columns: Vec<Column>,
    ) -> Result<Arc<Table>> {
        self.create_table_impl(name, columns, true, false)
    }

    /// Create (replacing) an **ephemeral** table: a materialised
    /// intermediate that is excluded from the write-ahead log and from
    /// checkpoint snapshots, like a foreign table. Query-cache spools
    /// (REPLACEVARIABLE pairs tables) are derived state — rebuildable from
    /// the durable stores — so persisting them would only bloat the log.
    pub fn create_ephemeral_table(
        &self,
        name: &str,
        columns: Vec<Column>,
    ) -> Result<Arc<Table>> {
        self.create_table_impl(name, columns, true, true)
    }

    fn create_table_impl(
        &self,
        name: &str,
        columns: Vec<Column>,
        replace: bool,
        ephemeral: bool,
    ) -> Result<Arc<Table>> {
        let mut seen: Vec<&str> = Vec::new();
        for c in &columns {
            if seen.iter().any(|s| s.eq_ignore_ascii_case(&c.name)) {
                return Err(Error::catalog(format!(
                    "duplicate column `{}` in table `{name}`",
                    c.name
                )));
            }
            seen.push(&c.name);
        }
        let sink = self.sink();
        let table = {
            let _barrier = sink_guard(&sink);
            let mut tables = self.tables.write();
            let key = Self::key(name);
            if !replace && tables.contains_key(&key) {
                return Err(Error::catalog(format!("table `{name}` already exists")));
            }
            if let Some(s) = &sink {
                if !ephemeral {
                    s.log(&encode_rel_op(&RelOp::CreateTable {
                        name,
                        columns: &columns,
                        replace,
                    }))?;
                } else if let Some(prev) = tables.get(&key) {
                    // An ephemeral table may replace a durable one (explicit
                    // DDL reused the name); the displacement itself must be
                    // durable even though the new table is not.
                    if !prev.is_ephemeral() {
                        s.log(&encode_rel_op(&RelOp::DropTable { name }))?;
                    }
                }
            }
            if replace {
                tables.remove(&key);
            }
            let table = Arc::new(Table { ephemeral, ..Table::new(name, Schema::new(columns)) });
            if !ephemeral {
                table.set_sink(sink.clone());
            }
            tables.insert(key, Arc::clone(&table));
            drop(tables);
            self.bump_version();
            table
        };
        flush_sink(&sink)?;
        Ok(table)
    }

    pub fn drop_table(&self, name: &str) -> Result<()> {
        let sink = self.sink();
        {
            let _barrier = sink_guard(&sink);
            let mut tables = self.tables.write();
            let key = Self::key(name);
            let Some(table) = tables.get(&key) else {
                return Err(Error::NoSuchTable(name.to_string()));
            };
            if let Some(s) = &sink {
                if !table.is_ephemeral() {
                    s.log(&encode_rel_op(&RelOp::DropTable { name }))?;
                }
            }
            tables.remove(&key);
            drop(tables);
            self.bump_version();
        }
        flush_sink(&sink)
    }

    pub fn get_table(&self, name: &str) -> Result<Arc<Table>> {
        self.tables
            .read()
            .get(&Self::key(name))
            .cloned()
            .ok_or_else(|| Error::NoSuchTable(name.to_string()))
    }

    pub fn has_table(&self, name: &str) -> bool {
        self.tables.read().contains_key(&Self::key(name))
    }

    /// Sorted list of table names (lower-cased keys).
    pub fn table_names(&self) -> Vec<String> {
        self.tables.read().keys().cloned().collect()
    }

    /// All live tables (used by checkpoint pinning).
    pub(crate) fn tables(&self) -> Vec<Arc<Table>> {
        self.tables.read().values().cloned().collect()
    }

    /// Create a named index on `table_name(column_name)`. Index names are
    /// unique across the whole catalog so `DROP INDEX name` is unambiguous.
    pub fn create_index(
        &self,
        index_name: &str,
        table_name: &str,
        column_name: &str,
    ) -> Result<()> {
        if self.has_index(index_name) {
            return Err(Error::catalog(format!(
                "index `{index_name}` already exists"
            )));
        }
        self.get_table(table_name)?.create_index(index_name, column_name)?;
        self.bump_version();
        Ok(())
    }

    /// Drop an index by name, wherever it lives.
    ///
    /// The owning table is resolved *before* the drop so the barrier lock
    /// (taken inside [`Table::drop_index`]) is never requested while the
    /// catalog map is locked — that order would deadlock against a
    /// checkpoint pinning the catalog.
    pub fn drop_index(&self, index_name: &str) -> Result<()> {
        let owner = self
            .tables
            .read()
            .values()
            .find(|t| {
                t.index_names().iter().any(|(n, _)| n.eq_ignore_ascii_case(index_name))
            })
            .cloned();
        if let Some(table) = owner {
            if table.drop_index(index_name)? {
                self.bump_version();
                return Ok(());
            }
        }
        Err(Error::catalog(format!("index `{index_name}` does not exist")))
    }

    /// Whether any table carries an index with this name.
    pub fn has_index(&self, index_name: &str) -> bool {
        self.tables
            .read()
            .values()
            .any(|t| t.index_names().iter().any(|(n, _)| n.eq_ignore_ascii_case(index_name)))
    }

    /// Add read-only foreign tables, all or none: a name already taken
    /// fails the call before any table is added. Nothing is logged.
    pub(crate) fn add_foreign_tables(&self, new: Vec<Table>) -> Result<()> {
        let mut tables = self.tables.write();
        let mut keys: Vec<String> = Vec::with_capacity(new.len());
        for table in &new {
            let key = Self::key(&table.name);
            if tables.contains_key(&key) || keys.contains(&key) {
                return Err(Error::catalog(format!("table `{}` already exists", table.name)));
            }
            keys.push(key);
        }
        tables.extend(keys.into_iter().zip(new.into_iter().map(Arc::new)));
        drop(tables);
        self.bump_version();
        Ok(())
    }
}

/// Convenience to build a [`Row`] from anything convertible to [`Value`].
#[macro_export]
macro_rules! row {
    ($($v:expr),* $(,)?) => {
        vec![$($crate::value::Value::from($v)),*]
    };
}

/// A NULL literal usable inside [`row!`].
pub const NULL: Value = Value::Null;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::DataType;

    fn landfill_cols() -> Vec<Column> {
        vec![
            Column::new("name", DataType::Text),
            Column::new("city", DataType::Text),
            Column::new("tons", DataType::Float),
        ]
    }

    #[test]
    fn create_insert_scan() {
        let cat = Catalog::new();
        let t = cat.create_table("landfill", landfill_cols()).unwrap();
        t.insert(row!["Basse di Stura", "Torino", 1200.5]).unwrap();
        t.insert(vec![Value::from("Barricalla"), Value::from("Collegno"), Value::Null])
            .unwrap();
        assert_eq!(t.row_count(), 2);
        let rows = t.scan();
        assert_eq!(rows[0][1], Value::from("Torino"));
        assert!(rows[1][2].is_null());
    }

    #[test]
    fn arity_mismatch_rejected() {
        let cat = Catalog::new();
        let t = cat.create_table("landfill", landfill_cols()).unwrap();
        assert!(t.insert(row!["only-one"]).is_err());
        assert_eq!(t.row_count(), 0);
    }

    #[test]
    fn type_mismatch_rejected_and_int_widens() {
        let cat = Catalog::new();
        let t = cat.create_table("landfill", landfill_cols()).unwrap();
        assert!(t.insert(row![1, "Torino", 1.0]).is_err());
        // Int into Float column widens.
        t.insert(row!["a", "b", 7]).unwrap();
        assert!(matches!(t.scan()[0][2], Value::Float(f) if f == 7.0));
    }

    #[test]
    fn insert_many_is_atomic() {
        let cat = Catalog::new();
        let t = cat.create_table("landfill", landfill_cols()).unwrap();
        let res = t.insert_many(vec![row!["a", "b", 1.0], row!["bad"]]);
        assert!(res.is_err());
        assert_eq!(t.row_count(), 0);
    }

    #[test]
    fn duplicate_table_rejected_case_insensitively() {
        let cat = Catalog::new();
        cat.create_table("Landfill", landfill_cols()).unwrap();
        assert!(cat.create_table("LANDFILL", landfill_cols()).is_err());
        assert!(cat.has_table("landfill"));
    }

    #[test]
    fn duplicate_column_rejected() {
        let cat = Catalog::new();
        let cols = vec![
            Column::new("x", DataType::Int),
            Column::new("X", DataType::Text),
        ];
        assert!(cat.create_table("t", cols).is_err());
    }

    #[test]
    fn drop_and_missing() {
        let cat = Catalog::new();
        cat.create_table("t", landfill_cols()).unwrap();
        cat.drop_table("T").unwrap();
        assert!(cat.get_table("t").is_err());
        assert!(cat.drop_table("t").is_err());
    }

    #[test]
    fn delete_where_counts() {
        let cat = Catalog::new();
        let t = cat.create_table("t", landfill_cols()).unwrap();
        t.insert_many(vec![row!["a", "x", 1.0], row!["b", "x", 2.0], row!["c", "y", 3.0]])
            .unwrap();
        let n = t.delete_where(|r| r[1] == Value::from("x")).unwrap();
        assert_eq!(n, 2);
        assert_eq!(t.row_count(), 1);
    }

    #[test]
    fn create_or_replace_truncates() {
        let cat = Catalog::new();
        let t = cat.create_table("t", landfill_cols()).unwrap();
        t.insert(row!["a", "b", 1.0]).unwrap();
        let t2 = cat.create_or_replace_table("t", landfill_cols()).unwrap();
        assert_eq!(t2.row_count(), 0);
    }

    #[test]
    fn shared_catalog_clone_sees_updates() {
        let cat = Catalog::new();
        let cat2 = cat.clone();
        cat.create_table("t", landfill_cols()).unwrap();
        assert!(cat2.has_table("t"));
    }

    /// A source no test asks for rows.
    struct NoRows;

    impl crate::foreign::DataSource for NoRows {
        fn name(&self) -> &str {
            "src"
        }
        fn table_names(&self) -> Vec<String> {
            Vec::new()
        }
        fn table_schema(&self, table: &str) -> Result<Schema> {
            Err(Error::NoSuchTable(table.to_string()))
        }
        fn fetch_query(&self, _sql: &str) -> Result<crate::db::RowSet> {
            Err(Error::eval("no rows here"))
        }
    }

    #[test]
    fn registered_table_is_ephemeral() {
        let cat = Catalog::new();
        let foreign = Foreign { source: Arc::new(NoRows), table: "landfill".into() };
        let t = Table::new_foreign("foreign".into(), Schema::new(landfill_cols()), foreign);
        cat.add_foreign_tables(vec![t]).unwrap();
        let t = cat.get_table("foreign").unwrap();
        assert!(t.is_ephemeral());
        // Read-only: every write path refuses, before touching the heap.
        assert!(t.insert(row!["a", "b", 1.0]).is_err());
        assert!(t.delete_where(|_| true).is_err());
        assert!(t.truncate().is_err());
        assert!(cat.create_index("i", "foreign", "city").is_err());
    }

    // ---- snapshots ---------------------------------------------------------

    #[test]
    fn snapshot_pins_rows_across_every_mutation_kind() {
        let cat = Catalog::new();
        let t = cat.create_table("t", landfill_cols()).unwrap();
        t.insert_many(vec![row!["a", "x", 1.0], row!["b", "y", 2.0]]).unwrap();
        let s1 = t.snapshot();
        assert_eq!(s1.len(), 2);

        t.insert(row!["c", "z", 3.0]).unwrap();
        let s2 = t.snapshot();
        assert!(s2.generation() > s1.generation(), "writes bump the generation");
        assert_eq!(s1.len(), 2, "pinned snapshot frozen across INSERT");
        assert_eq!(s2.len(), 3);

        t.update_where(|r| {
            r[2] = Value::from(9.0);
            Ok(true)
        })
        .unwrap();
        assert_eq!(s2.rows()[0][2], Value::Float(1.0), "frozen across UPDATE");

        t.delete_where(|r| r[0] == Value::from("a")).unwrap();
        t.truncate().unwrap();
        assert_eq!(t.row_count(), 0);
        assert_eq!(s1.len(), 2, "frozen across DELETE + TRUNCATE");
        assert_eq!(s2.len(), 3);

        // Equal generations ⇒ identical rows (no write in between).
        let s3 = t.snapshot();
        let s4 = t.snapshot();
        assert_eq!(s3.generation(), s4.generation());
        assert_eq!(s3.rows(), s4.rows());
        assert!(s3.is_empty());
    }

    #[test]
    fn update_error_midway_still_dirties_indexes() {
        // An UPDATE whose closure errors after mutating earlier rows must
        // leave the index marked dirty, so no lookup serves stale keys.
        let (_cat, t) = indexed_table();
        let col = t.schema.resolve(None, "city").unwrap();
        let err = t.update_where(|r| {
            if r[0] == Value::from("a") {
                r[1] = Value::from("Moved");
                Ok(true)
            } else if r[0] == Value::from("b") {
                Err(Error::eval("boom"))
            } else {
                Ok(false)
            }
        });
        assert!(err.is_err());
        // Row "a" moved out of Torino; the index must reflect that.
        let rows = t.index_lookup_eq(col, &[Value::from("Torino")]).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0], Value::from("c"));
        let rows = t.index_lookup_eq(col, &[Value::from("Moved")]).unwrap();
        assert_eq!(rows.len(), 1);
    }

    // ---- secondary indexes ------------------------------------------------

    fn indexed_table() -> (Catalog, Arc<Table>) {
        let cat = Catalog::new();
        let t = cat.create_table("landfill", landfill_cols()).unwrap();
        t.insert_many(vec![
            row!["a", "Torino", 10.0],
            row!["b", "Milano", 20.0],
            row!["c", "Torino", 30.0],
            vec![Value::from("d"), Value::Null, Value::from(40.0)],
        ])
        .unwrap();
        cat.create_index("idx_city", "landfill", "city").unwrap();
        (cat, t)
    }

    #[test]
    fn index_eq_lookup_finds_matches_in_heap_order() {
        let (_cat, t) = indexed_table();
        let col = t.schema.resolve(None, "city").unwrap();
        let rows = t.index_lookup_eq(col, &[Value::from("Torino")]).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0][0], Value::from("a"));
        assert_eq!(rows[1][0], Value::from("c"));
    }

    #[test]
    fn index_eq_null_key_matches_nothing() {
        let (_cat, t) = indexed_table();
        let col = t.schema.resolve(None, "city").unwrap();
        let rows = t.index_lookup_eq(col, &[Value::Null]).unwrap();
        assert!(rows.is_empty());
    }

    #[test]
    fn index_eq_duplicate_keys_do_not_duplicate_rows() {
        let (_cat, t) = indexed_table();
        let col = t.schema.resolve(None, "city").unwrap();
        let key = Value::from("Torino");
        let rows = t.index_lookup_eq(col, &[key.clone(), key]).unwrap();
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn index_range_lookup() {
        let (cat, t) = indexed_table();
        cat.create_index("idx_tons", "landfill", "tons").unwrap();
        let col = t.schema.resolve(None, "tons").unwrap();
        let lo = Value::from(15.0);
        let hi = Value::from(35.0);
        let rows = t
            .index_lookup_range(col, Bound::Included(&lo), Bound::Excluded(&hi))
            .unwrap();
        assert_eq!(rows.len(), 2); // 20.0 and 30.0
    }

    #[test]
    fn unindexed_column_returns_none() {
        let (_cat, t) = indexed_table();
        let col = t.schema.resolve(None, "name").unwrap();
        assert!(t.index_lookup_eq(col, &[Value::from("a")]).is_none());
    }

    #[test]
    fn index_sees_appends_incrementally() {
        let (_cat, t) = indexed_table();
        t.insert(row!["e", "Torino", 50.0]).unwrap();
        let col = t.schema.resolve(None, "city").unwrap();
        let rows = t.index_lookup_eq(col, &[Value::from("Torino")]).unwrap();
        assert_eq!(rows.len(), 3);
    }

    #[test]
    fn index_rebuilds_after_delete_and_update() {
        let (_cat, t) = indexed_table();
        let col = t.schema.resolve(None, "city").unwrap();
        t.delete_where(|r| r[0] == Value::from("a")).unwrap();
        let rows = t.index_lookup_eq(col, &[Value::from("Torino")]).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0], Value::from("c"));

        t.update_where(|r| {
            if r[0] == Value::from("b") {
                r[1] = Value::from("Torino");
                Ok(true)
            } else {
                Ok(false)
            }
        })
        .unwrap();
        let rows = t.index_lookup_eq(col, &[Value::from("Torino")]).unwrap();
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn truncate_dirties_index() {
        let (_cat, t) = indexed_table();
        let col = t.schema.resolve(None, "city").unwrap();
        t.truncate().unwrap();
        let rows = t.index_lookup_eq(col, &[Value::from("Torino")]).unwrap();
        assert!(rows.is_empty());
    }

    #[test]
    fn nulls_never_enter_index() {
        let (_cat, t) = indexed_table();
        let col = t.schema.resolve(None, "city").unwrap();
        let rows = t
            .index_lookup_range(col, Bound::Unbounded, Bound::Unbounded)
            .unwrap();
        // Row "d" has a NULL city and must not appear in a full range scan.
        assert_eq!(rows.len(), 3);
    }

    #[test]
    fn duplicate_index_name_rejected_catalog_wide() {
        let (cat, _t) = indexed_table();
        cat.create_table("other", landfill_cols()).unwrap();
        let err = cat.create_index("IDX_CITY", "other", "city").unwrap_err();
        assert!(err.to_string().contains("already exists"), "{err}");
    }

    #[test]
    fn drop_index_by_name() {
        let (cat, t) = indexed_table();
        cat.drop_index("idx_city").unwrap();
        assert!(!cat.has_index("idx_city"));
        let col = t.schema.resolve(None, "city").unwrap();
        assert!(t.index_lookup_eq(col, &[Value::from("Torino")]).is_none());
        assert!(cat.drop_index("idx_city").is_err());
    }

    #[test]
    fn index_on_unknown_column_errors() {
        let cat = Catalog::new();
        cat.create_table("t", landfill_cols()).unwrap();
        assert!(cat.create_index("i", "t", "nope").is_err());
        assert!(cat.create_index("i", "missing", "city").is_err());
    }
}
