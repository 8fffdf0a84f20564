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
//! A catalog may carry an attached [`RedoLog`] (the engine was opened from
//! a data directory): every mutation then logs a redo record *before*
//! applying — under the log's barrier lock, so checkpoint pinning can
//! exclude in-flight mutations — and a failed log append fails the
//! statement without touching the heap. **Ephemeral** tables (the
//! foreign tables of [`crate::foreign`]) are excluded from both logging
//! and snapshots. A table built with [`Table::new`] that no catalog
//! holds (a query-scoped relation, see
//! [`Prepared::with_table`](crate::Prepared::with_table)) has a detached
//! log of its own. A detached log makes every hook a no-op: a purely
//! in-memory engine.

pub mod snapshot;
pub mod wal;

use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::Arc;

use crosse_wal::RedoLog;
use parking_lot::RwLock;

use crate::error::{Error, Result};
use crate::foreign::Foreign;
use crate::schema::{Column, Schema};
use crate::value::{Row, Value};

use wal::{encode_rel_op, RelOp};

/// A secondary index over one column of a [`Table`].
///
/// The index maps column values to row positions in the heap. Every write
/// keeps it exact under the locks the write already holds, in the same
/// step that changes the heap: an append adds the new positions, a
/// removal drops the removed ones and shifts each survivor down by the
/// number removed before it (as the heap's rows move), an overwrite moves
/// each changed row's position from its old key to its new one, and a
/// clear empties it. A lookup therefore only reads.
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
}

impl Index {
    fn build(name: String, column: usize, rows: &[Row]) -> Self {
        let idx = Index {
            name,
            column,
            entries: RwLock::new_labeled("table.index.entries", BTreeMap::new()),
        };
        idx.note_append(0, rows);
        idx
    }

    /// Record `rows` appended at heap positions `first..`.
    fn note_append(&self, first: usize, rows: &[Row]) {
        let mut entries = self.entries.write();
        for (pos, row) in (first..).zip(rows) {
            let v = &row[self.column];
            if !v.is_null() {
                entries.entry(v.clone()).or_default().push(pos);
            }
        }
    }

    /// Record the removal of the ascending heap positions `deleted`: their
    /// entries go, and every surviving position moves down by the number
    /// of deleted positions below it.
    fn note_delete(&self, deleted: &[usize]) {
        self.entries.write().retain(|_, positions| {
            positions.retain_mut(|p| match deleted.binary_search(p) {
                Ok(_) => false,
                Err(below) => {
                    *p -= below;
                    true
                }
            });
            !positions.is_empty()
        });
    }

    /// Record the overwrites `changes` (ascending positions) of `heap`'s
    /// rows, before the heap takes them: a row whose key changes moves
    /// from its old key to its new one. The positions leaving each key are
    /// gathered first and dropped in one pass over that key's list, so
    /// rewriting many rows of one key costs one pass, not one per row.
    fn note_overwrite(&self, heap: &[Row], changes: &[(usize, Row)]) {
        let mut entries = self.entries.write();
        let mut leaving: BTreeMap<&Value, Vec<usize>> = BTreeMap::new();
        for (pos, new) in changes {
            let (old, new) = (&heap[*pos][self.column], &new[self.column]);
            // The map's own order decides what is the same key.
            if old.cmp(new).is_eq() {
                continue;
            }
            if !old.is_null() {
                leaving.entry(old).or_default().push(*pos);
            }
            if !new.is_null() {
                entries.entry(new.clone()).or_default().push(*pos);
            }
        }
        for (key, gone) in leaving {
            if let Some(positions) = entries.get_mut(key) {
                positions.retain(|p| gone.binary_search(p).is_err());
                if positions.is_empty() {
                    entries.remove(key);
                }
            }
        }
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

/// What an index lookup found: the snapshot pinned while the index was
/// read, and the heap positions of the matching rows in it, in heap order.
/// The rows stay in the snapshot; `hits[i]` reads the `i`-th in place.
#[derive(Debug, Clone)]
pub struct IndexHits {
    pub snap: TableSnapshot,
    pub positions: Vec<usize>,
}

impl IndexHits {
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }
}

impl std::ops::Index<usize> for IndexHits {
    type Output = Row;

    fn index(&self, i: usize) -> &Row {
        &self.snap.rows()[self.positions[i]]
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
    /// Where mutations log; detached on purely in-memory tables.
    sink: RwLock<RedoLog>,
    /// Set on a foreign table: its rows live at a source, and the table
    /// itself is ephemeral (never logged or snapshotted), empty and
    /// read-only.
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
            sink: RwLock::new_labeled("table.sink", RedoLog::default()),
            foreign: None,
        }
    }

    /// A foreign table named `name` over `foreign` (see [`crate::foreign`]).
    pub(crate) fn new_foreign(name: String, schema: Schema, foreign: Foreign) -> Self {
        Table { foreign: Some(foreign), ..Table::new(name, schema) }
    }

    /// The log a mutation writes through (detached when the table takes
    /// no part in durability); an error on a read-only foreign table.
    fn write_sink(&self) -> Result<RedoLog> {
        if self.foreign.is_some() {
            return Err(Error::catalog(format!(
                "`{}` is a foreign table and is read-only",
                self.name
            )));
        }
        Ok(self.sink.read().clone())
    }

    pub(crate) fn set_sink(&self, sink: RedoLog) {
        *self.sink.write() = sink;
    }

    /// Whether the table is excluded from the write-ahead log and from
    /// snapshots: only a foreign table is.
    pub fn is_ephemeral(&self) -> bool {
        self.foreign.is_some()
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
        self.pin(&self.rows.read())
    }

    /// Pin `rows`, the heap under a held rows lock, as a snapshot.
    fn pin(&self, rows: &Arc<Vec<Row>>) -> TableSnapshot {
        TableSnapshot {
            rows: Arc::clone(rows),
            generation: self.generation.load(AtomicOrdering::Acquire),
        }
    }

    /// Insert many rows; fails atomically (no partial insert) on the first
    /// invalid row. One redo record covers the whole batch, so recovery
    /// replays it all-or-nothing too.
    pub fn insert_many(&self, rows: Vec<Row>) -> Result<usize> {
        let checked =
            rows.into_iter().map(|row| self.check_row(row)).collect::<Result<Vec<_>>>()?;
        let n = checked.len();
        let sink = self.write_sink()?;
        {
            let _barrier = sink.guard();
            let mut heap = self.rows.write();
            if !checked.is_empty() {
                sink.log(|| encode_rel_op(&RelOp::Insert { table: &self.name, rows: &checked }))?;
            }
            self.append(&mut heap, checked);
        }
        sink.flush()?;
        Ok(n)
    }

    /// Delete rows matching `pred`; returns the number removed. `pred`
    /// runs on the heap under the write lock, so the rows it picks are the
    /// rows removed, whatever other sessions write; if it fails on any row,
    /// the call returns its error before anything is logged or removed.
    /// The redo record carries the matched heap positions, so replay
    /// removes exactly the same rows without re-evaluating the predicate.
    pub fn delete_where(&self, mut pred: impl FnMut(&Row) -> Result<bool>) -> Result<usize> {
        let sink = self.write_sink()?;
        let removed = {
            let _barrier = sink.guard();
            let mut heap = self.rows.write();
            let mut positions: Vec<usize> = Vec::new();
            for (i, r) in heap.iter().enumerate() {
                if pred(r)? {
                    positions.push(i);
                }
            }
            if positions.is_empty() {
                return Ok(0);
            }
            sink.log(|| {
                encode_rel_op(&RelOp::Delete { table: &self.name, positions: &positions })
            })?;
            self.remove(&mut heap, &positions);
            positions.len()
        };
        sink.flush()?;
        Ok(removed)
    }

    /// Update rows: `f` reads each heap row in place and returns its new
    /// value, or `None` to leave it. Every new row is computed, on the heap
    /// under the write lock, before anything is logged or changed, so an
    /// error from `f` on any row returns before the table is touched: an
    /// UPDATE is all-or-nothing. The redo record carries the materialised
    /// `(position, new row)` pairs, so replay is deterministic.
    pub fn update_where(
        &self,
        mut f: impl FnMut(&Row) -> Result<Option<Row>>,
    ) -> Result<usize> {
        let sink = self.write_sink()?;
        let updated = {
            let _barrier = sink.guard();
            let mut heap = self.rows.write();
            let mut changes: Vec<(usize, Row)> = Vec::new();
            for (pos, row) in heap.iter().enumerate() {
                if let Some(new) = f(row)? {
                    changes.push((pos, new));
                }
            }
            if changes.is_empty() {
                return Ok(0);
            }
            sink.log(|| encode_rel_op(&RelOp::Update { table: &self.name, changes: &changes }))?;
            let n = changes.len();
            self.overwrite(&mut heap, changes);
            n
        };
        sink.flush()?;
        Ok(updated)
    }

    /// Remove all rows, keeping the schema; returns how many there were.
    /// Pinned snapshots keep the old rows.
    pub fn truncate(&self) -> Result<usize> {
        let sink = self.write_sink()?;
        let removed = {
            let _barrier = sink.guard();
            let mut heap = self.rows.write();
            sink.log(|| encode_rel_op(&RelOp::Truncate { table: &self.name }))?;
            self.clear(&mut heap)
        };
        sink.flush()?;
        Ok(removed)
    }

    // ---- mutation steps ---------------------------------------------------
    //
    // One step per kind of write. Each runs on `heap`, the heap under its
    // held write lock, bumps the generation and keeps every index exact.
    // A logged write runs its step after logging; redo replay and snapshot
    // restore run the same step with the record's contents.

    /// Append validated rows.
    fn append(&self, heap: &mut Arc<Vec<Row>>, rows: Vec<Row>) {
        let heap = Arc::make_mut(heap);
        for idx in self.indexes.read().iter() {
            idx.note_append(heap.len(), &rows);
        }
        heap.extend(rows);
        self.generation.fetch_add(1, AtomicOrdering::AcqRel);
    }

    /// Remove the rows at ascending heap `positions`.
    fn remove(&self, heap: &mut Arc<Vec<Row>>, positions: &[usize]) {
        let rows = Arc::make_mut(heap);
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
        for idx in self.indexes.read().iter() {
            idx.note_delete(positions);
        }
    }

    /// Overwrite rows at ascending heap positions with validated rows.
    fn overwrite(&self, heap: &mut Arc<Vec<Row>>, changes: Vec<(usize, Row)>) {
        for idx in self.indexes.read().iter() {
            idx.note_overwrite(heap, &changes);
        }
        let rows = Arc::make_mut(heap);
        for (pos, row) in changes {
            rows[pos] = row;
        }
        self.generation.fetch_add(1, AtomicOrdering::AcqRel);
    }

    /// Remove every row; returns how many there were. The heap is replaced
    /// rather than cleared through `make_mut`: dropping the reference is
    /// cheaper when a reader has the old heap pinned.
    fn clear(&self, heap: &mut Arc<Vec<Row>>) -> usize {
        let removed = heap.len();
        *heap = Arc::new(Vec::new());
        self.generation.fetch_add(1, AtomicOrdering::AcqRel);
        for idx in self.indexes.read().iter() {
            idx.entries.write().clear();
        }
        removed
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

    // ---- secondary indexes ------------------------------------------------

    /// Create a named index over `column_name`. Errors if the column is
    /// unknown or an index of that name already exists on this table.
    pub fn create_index(&self, index_name: &str, column_name: &str) -> Result<()> {
        let column = self.schema.resolve(None, column_name)?;
        let sink = self.write_sink()?;
        {
            let _barrier = sink.guard();
            let rows = self.rows.read();
            let mut indexes = self.indexes.write();
            if indexes.iter().any(|i| i.name.eq_ignore_ascii_case(index_name)) {
                return Err(Error::catalog(format!(
                    "index `{index_name}` already exists on table `{}`",
                    self.name
                )));
            }
            sink.log(|| {
                encode_rel_op(&RelOp::CreateIndex {
                    table: &self.name,
                    index: index_name,
                    column: column_name,
                })
            })?;
            indexes.push(Arc::new(Index::build(index_name.to_string(), column, &rows)));
        }
        Ok(sink.flush()?)
    }

    /// Drop an index by name; returns whether one was removed.
    pub fn drop_index(&self, index_name: &str) -> Result<bool> {
        let sink = self.write_sink()?;
        {
            let _barrier = sink.guard();
            let mut indexes = self.indexes.write();
            let Some(pos) =
                indexes.iter().position(|i| i.name.eq_ignore_ascii_case(index_name))
            else {
                return Ok(false);
            };
            sink.log(|| encode_rel_op(&RelOp::DropIndex { index: index_name }))?;
            indexes.remove(pos);
        }
        sink.flush()?;
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
    /// positions under the read lock and returns both: the caller reads
    /// the matching rows in place, off-lock — the same pin-once discipline
    /// as the scan path, so index results are point-in-time consistent.
    pub fn index_lookup_eq(&self, column: usize, keys: &[Value]) -> Option<IndexHits> {
        let idx = self.index_for(column)?;
        let rows = self.rows.read();
        // Entry positions are resolved while the rows read lock is held, so
        // they are guaranteed consistent with the heap we pin. Probes borrow
        // the caller's keys — no per-lookup clone.
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
        let snap = self.pin(&rows);
        drop(rows);
        // Dedupe positions in case the key list itself contains duplicates,
        // and restore heap order for deterministic output.
        positions.sort_unstable();
        positions.dedup();
        Some(IndexHits { snap, positions })
    }

    /// Range lookup through an index on `column` (NULL values are never in
    /// the index, so they never match a range — SQL comparison semantics).
    /// Returns `None` if no index covers the column.
    pub fn index_lookup_range(
        &self,
        column: usize,
        low: Bound<&Value>,
        high: Bound<&Value>,
    ) -> Option<IndexHits> {
        let idx = self.index_for(column)?;
        let rows = self.rows.read();
        let entries = idx.entries.read();
        // The bounds are borrowed as-is: `BTreeMap::range` accepts
        // `Bound<&Value>` directly, so range probes allocate nothing. It
        // panics on bounds that hold no key (low above high, or equal
        // bounds not both included), so those probe nothing.
        let mut positions: Vec<usize> = Vec::new();
        let holds_none = match (low, high) {
            (Bound::Included(l), Bound::Included(h)) => l > h,
            (Bound::Included(l) | Bound::Excluded(l), Bound::Included(h) | Bound::Excluded(h)) => {
                l >= h
            }
            _ => false,
        };
        if !holds_none {
            for (_, ps) in entries.range::<Value, _>((low, high)) {
                positions.extend_from_slice(ps);
            }
        }
        drop(entries);
        let snap = self.pin(&rows);
        drop(rows);
        positions.sort_unstable();
        Some(IndexHits { snap, positions })
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
    /// Redo log propagated to every (non-ephemeral) table; shared across
    /// catalog clones.
    sink: Arc<RwLock<RedoLog>>,
}

impl Default for Catalog {
    fn default() -> Self {
        Catalog {
            tables: Arc::new(RwLock::new_labeled("catalog.tables", BTreeMap::new())),
            version: Arc::new(std::sync::atomic::AtomicU64::new(0)),
            sink: Arc::new(RwLock::new_labeled("catalog.sink", RedoLog::default())),
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

    fn sink(&self) -> RedoLog {
        self.sink.read().clone()
    }

    /// Attach a redo log: all future mutations (and mutations of existing
    /// non-ephemeral tables) log through it. Called once, right after
    /// recovery has replayed the log into this catalog.
    pub fn attach_sink(&self, sink: RedoLog) {
        *self.sink.write() = sink.clone();
        for table in self.tables.read().values() {
            if !table.is_ephemeral() {
                table.set_sink(sink.clone());
            }
        }
    }

    /// Create a table; errors if the name is taken.
    pub fn create_table(&self, name: &str, columns: Vec<Column>) -> Result<Arc<Table>> {
        self.create_table_impl(name, columns, false)
    }

    /// Create, replacing any existing table of the same name.
    pub fn create_or_replace_table(
        &self,
        name: &str,
        columns: Vec<Column>,
    ) -> Result<Arc<Table>> {
        self.create_table_impl(name, columns, true)
    }

    fn create_table_impl(
        &self,
        name: &str,
        columns: Vec<Column>,
        replace: bool,
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
            let _barrier = sink.guard();
            let mut tables = self.tables.write();
            let key = Self::key(name);
            if !replace && tables.contains_key(&key) {
                return Err(Error::catalog(format!("table `{name}` already exists")));
            }
            sink.log(|| encode_rel_op(&RelOp::CreateTable { name, columns: &columns, replace }))?;
            let table = Arc::new(Table::new(name, Schema::new(columns)));
            table.set_sink(sink.clone());
            tables.insert(key, Arc::clone(&table));
            drop(tables);
            self.bump_version();
            table
        };
        sink.flush()?;
        Ok(table)
    }

    pub fn drop_table(&self, name: &str) -> Result<()> {
        let sink = self.sink();
        {
            let _barrier = sink.guard();
            let mut tables = self.tables.write();
            let key = Self::key(name);
            let Some(table) = tables.get(&key) else {
                return Err(Error::NoSuchTable(name.to_string()));
            };
            if !table.is_ephemeral() {
                sink.log(|| encode_rel_op(&RelOp::DropTable { name }))?;
            }
            tables.remove(&key);
            drop(tables);
            self.bump_version();
        }
        Ok(sink.flush()?)
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
        t.insert_many(vec![
            row!["Basse di Stura", "Torino", 1200.5],
            vec![Value::from("Barricalla"), Value::from("Collegno"), Value::Null],
        ])
        .unwrap();
        assert_eq!(t.row_count(), 2);
        let rows = t.snapshot().rows().to_vec();
        assert_eq!(rows[0][1], Value::from("Torino"));
        assert!(rows[1][2].is_null());
    }

    #[test]
    fn arity_mismatch_rejected() {
        let cat = Catalog::new();
        let t = cat.create_table("landfill", landfill_cols()).unwrap();
        assert!(t.insert_many(vec![row!["only-one"]]).is_err());
        assert_eq!(t.row_count(), 0);
    }

    #[test]
    fn type_mismatch_rejected_and_int_widens() {
        let cat = Catalog::new();
        let t = cat.create_table("landfill", landfill_cols()).unwrap();
        assert!(t.insert_many(vec![row![1, "Torino", 1.0]]).is_err());
        // Int into Float column widens.
        t.insert_many(vec![row!["a", "b", 7]]).unwrap();
        assert!(matches!(t.snapshot().rows()[0][2], Value::Float(f) if f == 7.0));
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
        let n = t.delete_where(|r| Ok(r[1] == Value::from("x"))).unwrap();
        assert_eq!(n, 2);
        assert_eq!(t.row_count(), 1);
    }

    #[test]
    fn create_or_replace_truncates() {
        let cat = Catalog::new();
        let t = cat.create_table("t", landfill_cols()).unwrap();
        t.insert_many(vec![row!["a", "b", 1.0]]).unwrap();
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
        assert!(t.insert_many(vec![row!["a", "b", 1.0]]).is_err());
        assert!(t.delete_where(|_| Ok(true)).is_err());
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

        t.insert_many(vec![row!["c", "z", 3.0]]).unwrap();
        let s2 = t.snapshot();
        assert!(s2.generation() > s1.generation(), "writes bump the generation");
        assert_eq!(s1.len(), 2, "pinned snapshot frozen across INSERT");
        assert_eq!(s2.len(), 3);

        t.update_where(|r| {
            let mut r = r.clone();
            r[2] = Value::from(9.0);
            Ok(Some(r))
        })
        .unwrap();
        assert_eq!(s2.rows()[0][2], Value::Float(1.0), "frozen across UPDATE");

        t.delete_where(|r| Ok(r[0] == Value::from("a"))).unwrap();
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
    fn update_error_midway_changes_nothing() {
        // An UPDATE whose closure errors after it has produced a new row
        // for an earlier one writes nothing: rows, generation and index
        // all stay as they were.
        let (_cat, t) = indexed_table();
        let col = t.schema.resolve(None, "city").unwrap();
        let before = t.snapshot();
        let err = t.update_where(|r| {
            if r[0] == Value::from("a") {
                let mut r = r.clone();
                r[1] = Value::from("Moved");
                Ok(Some(r))
            } else if r[0] == Value::from("b") {
                Err(Error::eval("boom"))
            } else {
                Ok(None)
            }
        });
        assert!(err.is_err());
        let after = t.snapshot();
        assert_eq!(after.generation(), before.generation(), "nothing was written");
        assert_eq!(after.rows(), before.rows());
        let rows = t.index_lookup_eq(col, &[Value::from("Torino")]).unwrap();
        assert_eq!(rows.len(), 2);
        assert!(t.index_lookup_eq(col, &[Value::from("Moved")]).unwrap().is_empty());
    }

    type Entries = BTreeMap<Value, Vec<usize>>;

    /// Every index entry of `t`, each position list sorted, beside the
    /// entries an index built afresh from the heap would hold.
    fn maintained_and_rebuilt(t: &Table) -> Vec<(Entries, Entries)> {
        let heap = t.snapshot();
        t.indexes
            .read()
            .iter()
            .map(|idx| {
                let mut kept = idx.entries.read().clone();
                kept.values_mut().for_each(|ps| ps.sort_unstable());
                let fresh = Index::build(idx.name.clone(), idx.column, heap.rows());
                let fresh = fresh.entries.read().clone();
                (kept, fresh)
            })
            .collect()
    }

    #[test]
    fn every_write_keeps_indexes_equal_to_a_rebuild() {
        let (cat, t) = indexed_table();
        cat.create_index("idx_tons", "landfill", "tons").unwrap();
        let check = |what: &str| {
            for (kept, fresh) in maintained_and_rebuilt(&t) {
                assert_eq!(kept, fresh, "after {what}");
            }
        };
        // Many rows onto one key, a key to NULL and NULL to a key, and a
        // row rewritten to its own key.
        t.update_where(|r| {
            let mut r = r.clone();
            r[1] = match r[0].lexical_form().as_str() {
                "a" => Value::Null,
                "d" => Value::from("Milano"),
                "c" => return Ok(Some(r)),
                _ => Value::from("Torino"),
            };
            r[2] = Value::from(1.0);
            Ok(Some(r))
        })
        .unwrap();
        check("UPDATE");
        t.insert_many(vec![row!["e", "Torino", 2.0], row!["f", "Genova", 1.0]]).unwrap();
        check("INSERT");
        t.delete_where(|r| Ok(r[1] == Value::from("Milano"))).unwrap();
        check("DELETE");
        assert_eq!(t.truncate().unwrap(), 5);
        check("TRUNCATE");
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
    fn index_range_with_no_keys_between_its_bounds_is_empty() {
        let (cat, t) = indexed_table();
        cat.create_index("idx_tons", "landfill", "tons").unwrap();
        let col = t.schema.resolve(None, "tons").unwrap();
        let (lo, hi) = (Value::from(35.0), Value::from(15.0));
        let at = Value::from(20.0);
        for (low, high) in [
            (Bound::Included(&lo), Bound::Included(&hi)),
            (Bound::Excluded(&lo), Bound::Excluded(&hi)),
            (Bound::Excluded(&at), Bound::Excluded(&at)),
            (Bound::Included(&at), Bound::Excluded(&at)),
            (Bound::Excluded(&at), Bound::Included(&at)),
        ] {
            assert!(t.index_lookup_range(col, low, high).unwrap().is_empty(), "{low:?}..{high:?}");
        }
        let rows = t.index_lookup_range(col, Bound::Included(&at), Bound::Included(&at)).unwrap();
        assert_eq!(rows.len(), 1);
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
        t.insert_many(vec![row!["e", "Torino", 50.0]]).unwrap();
        let col = t.schema.resolve(None, "city").unwrap();
        let rows = t.index_lookup_eq(col, &[Value::from("Torino")]).unwrap();
        assert_eq!(rows.len(), 3);
    }

    #[test]
    fn index_follows_delete_and_update() {
        let (_cat, t) = indexed_table();
        let col = t.schema.resolve(None, "city").unwrap();
        t.delete_where(|r| Ok(r[0] == Value::from("a"))).unwrap();
        let rows = t.index_lookup_eq(col, &[Value::from("Torino")]).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0], Value::from("c"));

        t.update_where(|r| {
            if r[0] == Value::from("b") {
                let mut r = r.clone();
                r[1] = Value::from("Torino");
                Ok(Some(r))
            } else {
                Ok(None)
            }
        })
        .unwrap();
        let rows = t.index_lookup_eq(col, &[Value::from("Torino")]).unwrap();
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn truncate_empties_index() {
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
