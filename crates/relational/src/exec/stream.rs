// srclint: allow(R002): the spool state machine guarantees an open (not done) spool still owns its source
//! Streaming (pull-based) plan execution with morsel-driven parallelism.
//!
//! `stream_plan` lowers a [`Plan`] into an iterator of rows. Pipelined
//! operators — scans, filters, projections, probe sides of joins, LIMIT,
//! UNION concatenation, DISTINCT — produce rows on demand, so a consumer
//! that stops early (a `LIMIT k`, a client that abandons its cursor)
//! stops the upstream work instead of truncating a fully materialised
//! result. Blocking operators (SORT, GROUP BY, the build side of a hash
//! join) still drain their input, exactly as a production Volcano engine
//! would.
//!
//! Base-table access pins a [`TableSnapshot`]
//! once per cursor: the scan streams from an immutable copy-on-write
//! heap, so a cursor opened before a concurrent `DELETE`/`INSERT`/
//! `TRUNCATE` sees exactly the rows of its snapshot — no skipped rows, no
//! double reads, and no lock held between batches.
//!
//! Rows are read in place, never copied to be looked at. A `Scan` or
//! `IndexScan` leaf under an optional `Filter` and `Project` is one
//! *fragment* (module `scan`), lowered to a single row step that
//! evaluates the predicate and the projection on the snapshot row
//! itself; the probe side of a hash join and the input of an aggregate
//! read the snapshot the same way, and so does a join's inner side (a
//! hash build, a nested loop's inner rows): it keeps the snapshot and
//! heap positions, and the one copy per build row is its key. A leaf
//! shared by common-subplan elimination (`Plan::Shared` over a bare scan)
//! is a fragment leaf too: its consumers walk one pin, not a spool. A
//! row's first allocation is therefore the output row: the projection, or
//! the clone of a row that survives an unprojected filter — and an
//! aggregate over a scan, a filter, or a column-only projection allocates
//! nothing per row at all.
//!
//! An operator that reads in place holds its snapshot until the cursor is
//! dropped; a writer meanwhile copies the heap on write instead of
//! mutating it in place.
//!
//! The worker pool (see `Database::set_exec_threads`) decides only how a
//! fragment is driven. With one thread, or a snapshot under
//! [`PARALLEL_MIN_ROWS`] rows, the step runs inline, one row per pull.
//! Otherwise it runs as **morsels**: one wave of `threads × SCAN_BATCH`
//! snapshot rows is partitioned across the pool and merged back in
//! snapshot order, so parallel execution is deterministic and `LIMIT k`
//! still stops the scan after at most one wave. Both drivers run the same
//! kernels and yield the same rows, and a row that fails yields, in both,
//! every row before it and then the error. The pinned snapshot is what
//! makes this safe — workers share borrowed slices without any locking.
//!
//! The executor *consumes* its plan (operators own their state), which is
//! why [`Plan`] is `Clone`: a cached prepared statement clones its plan
//! template per execution.
//!
//! Base-table rows are fetched in batches of [`SCAN_BATCH`] and counted in
//! a shared [`AtomicU64`], so callers can observe how much of the heap a
//! query actually touched — the `LIMIT` short-circuit is measurable, not
//! just asserted.

use std::borrow::Cow;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::Arc;

use crosse_exec::{CancelToken, WorkerPool};
use parking_lot::Mutex;

use crate::db::RowSet;
use crate::error::{Error, Result};
use crate::plan::{fill_slots, Plan, Slot, SortKey};
use crate::schema::Schema;
use crate::sql::ast::JoinKind;
use crate::storage::TableSnapshot;
use crate::value::{Row, Value};

use super::aggregate::aggregate_rows;
use super::expr::{BoundExpr, Pair, RowView};
use super::scan::{
    aggregate_fragment, drive, fragment, is_identity, open_leaf, positions, Fragment, MorselWork,
    Pin,
};
use super::fasthash::FastBuild;
use super::keys::{Key, KeyCoder};

/// A hash-join key: the values of the key expressions. The build table
/// owns its keys (`'static`); a probe's key holds the borrowed results of
/// evaluating its key expressions on the outer row. `HashMap` is covariant
/// in its key type, so the table of `JoinKey<'static>` is also a table of
/// `JoinKey<'probe>` and `get` takes the borrowed key as it is — probing
/// clones nothing. The executor's internal tables use the keyed-for-speed
/// [`FastBuild`] hasher — see `exec/fasthash.rs` for why HashDoS keying is
/// not needed here.
type JoinKey<'a> = Vec<Cow<'a, Value>>;
type JoinTable = HashMap<JoinKey<'static>, Vec<usize>, FastBuild>;

/// Shared hash-join builds of one execution, keyed by
/// `(spool id, key-expression fingerprint)`.
type BuildRegistry = HashMap<(usize, String), Arc<BuiltSide>>;

/// Snapshot rows per scan step: a scan charges its rows-scanned counter
/// and polls for cancellation once per batch. Also the morsel size for
/// parallel pipelines.
pub const SCAN_BATCH: usize = 1024;

/// Minimum snapshot size before a fragment runs as morsel waves instead
/// of inline — below this the per-wave thread spawn costs more than the
/// scan. It picks the driver only: both read the snapshot in place.
pub const PARALLEL_MIN_ROWS: usize = 4096;

pub(super) type BoxRowIter = Box<dyn Iterator<Item = Result<Row>> + Send>;

/// Shared execution state threaded through plan lowering: the scanned-rows
/// counter, the worker pool for morsel-parallel operators, and the
/// registries backing [`Plan::Shared`] nodes (one pin per shared bare
/// leaf, one spool per other shared subtree, per id per execution).
#[derive(Clone)]
pub(crate) struct ExecCtx {
    pub(super) scanned: Arc<AtomicU64>,
    pub(super) pool: Arc<WorkerPool>,
    spools: Arc<Mutex<HashMap<usize, Arc<Spool>>>>,
    /// The pins of shared bare `Scan`/`IndexScan` leaves, by spool id.
    leaves: Arc<Mutex<HashMap<usize, Arc<Pin>>>>,
    /// Hash-join build sides over shared spools, keyed by
    /// `(spool id, key-expression fingerprint)` — joins that hash the
    /// same spooled input on the same keys share one build.
    builds: Arc<Mutex<BuildRegistry>>,
    /// Cooperative cancellation handle, polled at batch boundaries (scan
    /// batches, morsel waves, dedup blocks, spool refills, join output
    /// blocks). Captured from the ambient thread-local token at context
    /// construction, so the token set by a serving layer reaches every
    /// operator without parameter threading.
    pub(super) cancel: CancelToken,
}

impl ExecCtx {
    /// A context on `threads` workers that polls the calling thread's
    /// ambient cancellation token.
    pub(crate) fn new(threads: usize) -> Self {
        ExecCtx {
            scanned: Arc::default(),
            pool: Arc::new(WorkerPool::new(threads)),
            spools: Arc::new(Mutex::new_labeled("exec.spools", HashMap::new())),
            leaves: Arc::new(Mutex::new_labeled("exec.leaves", HashMap::new())),
            builds: Arc::new(Mutex::new_labeled("exec.builds", HashMap::new())),
            cancel: CancelToken::current(),
        }
    }

    /// The one open-time step: resolve what `plan` reads from outside its
    /// rows. The slots of a [`Plan::Bind`] root are filled in order — a
    /// parameter from `params`, a subquery by running it once in this
    /// context, so its scans count toward this context's rows scanned —
    /// and put into the plan; then every foreign leaf is fetched, so a
    /// conjunct holding a slot's value is shipped with the value. A plan
    /// without a `Bind` root costs one walk that looks for foreign leaves.
    pub(crate) fn resolve(&self, plan: Plan, params: Vec<Value>) -> Result<Plan> {
        let Plan::Bind { input, slots } = plan else {
            return self.fill(plan, &[]);
        };
        let mut params = params.into_iter();
        let mut values: Vec<Vec<Value>> = Vec::with_capacity(slots.len());
        for slot in slots {
            let value = match slot {
                Slot::Param(name) => {
                    let unbound = || Error::plan(format!("unbound parameter `{name}`"));
                    vec![params.next().ok_or_else(unbound)?]
                }
                Slot::In(plan) => {
                    self.run(plan, &values)?.into_iter().map(|mut r| r.swap_remove(0)).collect()
                }
                Slot::Exists(plan) => vec![Value::Bool(!self.run(plan, &values)?.is_empty())],
                Slot::Scalar(plan) => match self.run(plan, &values)?.as_mut_slice() {
                    [] => vec![Value::Null],
                    [row] => vec![row.swap_remove(0)],
                    rows => {
                        let n = rows.len();
                        return Err(Error::plan(format!("scalar subquery returned {n} rows")));
                    }
                },
            };
            values.push(value);
        }
        self.fill(*input, &values)
    }

    /// The pin of shared leaf `id`: made by `pin` for its first consumer
    /// in this execution, joined by every later one. Pinning takes table
    /// locks, so it runs with the registry unlocked.
    pub(super) fn shared_leaf(&self, id: usize, pin: impl FnOnce() -> Pin) -> Arc<Pin> {
        if let Some(pinned) = self.leaves.lock().get(&id) {
            return Arc::clone(pinned);
        }
        let pinned = Arc::new(pin());
        Arc::clone(self.leaves.lock().entry(id).or_insert(pinned))
    }

    /// Run subquery `plan` to its end with the slots filled so far, on
    /// spools of its own (its spool ids are its own plan's).
    fn run(&self, plan: Plan, values: &[Vec<Value>]) -> Result<Vec<Row>> {
        let plan = self.fill(plan, values)?;
        let scanned = Arc::clone(&self.scanned);
        let ctx = ExecCtx { scanned, ..ExecCtx::new(self.pool.threads()) };
        stream_plan(plan, ctx)?.collect()
    }

    /// `plan` with the slot `values` put in and its foreign leaves fetched,
    /// their rows charged as scanned.
    fn fill(&self, plan: Plan, values: &[Vec<Value>]) -> Result<Plan> {
        let fetched = crate::foreign::fetch_leaves(&plan, values)?;
        if values.is_empty() && fetched.is_empty() {
            return Ok(plan);
        }
        let rows: usize = fetched.iter().map(Vec::len).sum();
        self.scanned.fetch_add(rows as u64, AtomicOrdering::Relaxed);
        Ok(fill_slots(plan, values, &mut fetched.into_iter(), &mut HashMap::new()))
    }
}

// ---- shared-subtree spools -------------------------------------------------

/// The once-per-execution materialisation behind a [`Plan::Shared`] node
/// over a subtree that does work (a filter, a projection, a join…). A
/// shared bare `Scan`/`IndexScan` has no spool: its consumers walk one
/// pin of its snapshot (`ExecCtx::shared_leaf`) and read rows in place.
///
/// The first consumer to be lowered opens the source pipeline (pinning
/// its base-table snapshots right then, so every consumer reads the same
/// point-in-time data even when members of a compound start at different
/// times); all consumers then pull through [`SpoolReader`]s that fill the
/// buffer incrementally, one [`SCAN_BATCH`] per refill. Filling is lazy —
/// a `LIMIT` that satisfies every consumer early leaves the tail of the
/// source unevaluated — and the source runs through the ordinary
/// `stream_plan` lowering, so a spooled `Filter(Scan)` fragment still
/// executes morsel-parallel on the context's worker pool.
struct Spool {
    state: Mutex<SpoolState>,
}

struct SpoolState {
    source: Option<BoxRowIter>,
    rows: Vec<Row>,
    /// A source error ends the spool; every reader replays it (after the
    /// rows buffered before it) exactly as a solo consumer would see it.
    error: Option<Error>,
    done: bool,
}

impl Spool {
    fn new(source: BoxRowIter) -> Self {
        Spool {
            state: Mutex::new_labeled("exec.spool.state", SpoolState {
                source: Some(source),
                rows: Vec::new(),
                error: None,
                done: false,
            }),
        }
    }
}

/// One consumer's cursor over a [`Spool`]: copies buffered rows out in
/// batches (one lock per [`SCAN_BATCH`], not per row) and advances the
/// shared materialisation when it reaches the frontier.
struct SpoolReader {
    spool: Arc<Spool>,
    /// Next spool-buffer position this reader has not yet copied.
    pos: usize,
    batch: std::vec::IntoIter<Row>,
    cancel: CancelToken,
    finished: bool,
}

impl SpoolReader {
    fn new(spool: Arc<Spool>, cancel: CancelToken) -> Self {
        SpoolReader { spool, pos: 0, batch: Vec::new().into_iter(), cancel, finished: false }
    }
}

impl Iterator for SpoolReader {
    type Item = Result<Row>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(row) = self.batch.next() {
                return Some(Ok(row));
            }
            if self.finished {
                return None;
            }
            // Refill boundary: poll before taking the spool lock, so a
            // cancelled consumer stops without advancing the shared
            // materialisation. Other readers of the spool are unaffected.
            if let Err(i) = self.cancel.check() {
                self.finished = true;
                return Some(Err(Error::Interrupted(i)));
            }
            let mut st = self.spool.state.lock();
            if self.pos < st.rows.len() {
                let hi = (self.pos + SCAN_BATCH).min(st.rows.len());
                let mut copied = Vec::with_capacity(hi - self.pos);
                copied.extend_from_slice(&st.rows[self.pos..hi]);
                self.batch = copied.into_iter();
                self.pos = hi;
                continue;
            }
            if st.done {
                self.finished = true;
                return st.error.clone().map(Err);
            }
            // At the frontier: advance the shared materialisation by one
            // batch. `done` above guarantees the source is still present.
            let mut source = st.source.take().expect("open spool has a source");
            for _ in 0..SCAN_BATCH {
                match source.next() {
                    Some(Ok(row)) => st.rows.push(row),
                    Some(Err(e)) => {
                        st.error = Some(e);
                        st.done = true;
                        break;
                    }
                    None => {
                        st.done = true;
                        break;
                    }
                }
            }
            if !st.done {
                st.source = Some(source);
            }
        }
    }
}

/// A streaming result cursor: the output schema plus a lazy row iterator.
///
/// `Rows` implements `Iterator<Item = Result<Row>>`; pull rows one at a
/// time, or use [`Rows::collect_rows`] to materialise the remainder into a
/// [`RowSet`] (the adapter that keeps pre-cursor call sites working).
pub struct Rows {
    schema: Schema,
    iter: BoxRowIter,
    scanned: Arc<AtomicU64>,
}

impl Rows {
    /// Lower a plan into a cursor executing with up to `threads` workers
    /// for morsel-parallel operators (1 = fully sequential). The plan is
    /// consumed; clone a cached template first. The cursor polls the
    /// ambient [`CancelToken`] installed on this thread, if any.
    ///
    /// Everything the plan reads from outside its rows — the values of
    /// `params`, its subqueries' results, its foreign leaves — is resolved
    /// here ([`ExecCtx::resolve`]), when the cursor opens and never at plan
    /// time, so a replayed template reads live; [`Rows::rows_scanned`]
    /// counts the subqueries' rows and the foreign rows fetched too.
    pub(crate) fn open(plan: Plan, threads: usize, params: Vec<Value>) -> Result<Rows> {
        let schema = plan.schema().clone();
        let ctx = ExecCtx::new(threads);
        let plan = ctx.resolve(plan, params)?;
        let scanned = Arc::clone(&ctx.scanned);
        let iter = stream_plan(plan, ctx)?;
        Ok(Rows { schema, iter, scanned })
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Base-table rows fetched so far. A `LIMIT k` pipeline over a large
    /// table stops within one scan wave of `k`, and this counter proves
    /// it (it is an atomic, so it stays accurate when morsels run on
    /// worker threads).
    pub fn rows_scanned(&self) -> u64 {
        self.scanned.load(AtomicOrdering::Relaxed)
    }

    /// Pull the next row (`None` when exhausted).
    pub fn next_row(&mut self) -> Option<Result<Row>> {
        self.iter.next()
    }

    /// Drain the cursor into a materialised row set.
    pub fn collect_rows(self) -> Result<RowSet> {
        let schema = self.schema;
        let rows: Vec<Row> = self.iter.collect::<Result<_>>()?;
        Ok(RowSet { schema, rows })
    }
}

impl Iterator for Rows {
    type Item = Result<Row>;

    fn next(&mut self) -> Option<Self::Item> {
        self.iter.next()
    }
}

impl std::fmt::Debug for Rows {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Rows")
            .field("schema", &self.schema)
            .field("rows_scanned", &self.rows_scanned())
            .finish_non_exhaustive()
    }
}

/// The input of a [`StepStream`], lent one row at a time: a scan lends
/// its snapshot's rows, any other operator the row it just produced.
pub(super) trait Outer: Send {
    fn next_outer(&mut self) -> Option<Result<&[Value]>>;
}

/// An operator's output as outer rows, each held while it is expanded.
struct Pulled {
    child: BoxRowIter,
    row: Row,
}

impl Pulled {
    fn new(child: BoxRowIter) -> Self {
        Pulled { child, row: Row::new() }
    }
}

impl Outer for Pulled {
    fn next_outer(&mut self) -> Option<Result<&[Value]>> {
        match self.child.next()? {
            Ok(row) => {
                self.row = row;
                Some(Ok(&self.row))
            }
            Err(e) => Some(Err(e)),
        }
    }
}

// ---- row steps ---------------------------------------------------------------

/// The row step of `[Filter] → [Project]`, the one kernel under the
/// `Filter`/`Project` operators and both drivers of a scan fragment.
pub(super) struct FilterProject {
    pub(super) predicate: Option<BoundExpr>,
    pub(super) exprs: Option<Vec<BoundExpr>>,
}

impl FilterProject {
    /// `None` when the predicate rejects `row`; otherwise the projected
    /// row, or without a projection `row` itself (cloned only if the
    /// caller could not give it away).
    pub(super) fn apply(&self, row: Cow<'_, [Value]>) -> Result<Option<Row>> {
        if let Some(p) = &self.predicate {
            if !p.eval_predicate(&*row)? {
                return Ok(None);
            }
        }
        Ok(Some(match &self.exprs {
            Some(exprs) => project_row(exprs, &*row)?,
            None => row.into_owned(),
        }))
    }

    /// Whether the step does anything but pass rows through.
    pub(super) fn does_work(&self) -> bool {
        self.predicate.is_some() || self.exprs.is_some()
    }

    /// Drive the step over an owning row stream.
    fn stream(self, mut child: BoxRowIter) -> BoxRowIter {
        Box::new(std::iter::from_fn(move || loop {
            match child.next()?.and_then(|row| self.apply(Cow::Owned(row))) {
                Ok(Some(row)) => return Some(Ok(row)),
                Ok(None) => continue,
                Err(e) => return Some(Err(e)),
            }
        }))
    }
}

fn project_row<R: RowView + ?Sized>(exprs: &[BoundExpr], row: &R) -> Result<Row> {
    let mut projected = Vec::with_capacity(exprs.len());
    for e in exprs {
        projected.push(e.eval(row)?);
    }
    Ok(projected)
}

/// What a join does with a candidate pair, shared by the hash probe and
/// the nested loop: the residual predicate and the fused projection are
/// evaluated on the [`Pair`] view, so only a surviving pair is
/// materialised — and, projected, never as the wide combined row.
struct JoinEmit {
    kind: JoinKind,
    right_width: usize,
    predicate: Option<BoundExpr>,
    /// Projection fused over the join (inner joins only).
    project: Option<Vec<BoundExpr>>,
}

impl JoinEmit {
    fn pair(&self, left: &[Value], right: &[Value], out: &mut Vec<Row>) -> Result<()> {
        let pair = Pair { left, right };
        if let Some(p) = &self.predicate {
            if !p.eval_predicate(&pair)? {
                return Ok(());
            }
        }
        out.push(match &self.project {
            Some(exprs) => project_row(exprs, &pair)?,
            None => [left, right].concat(),
        });
        Ok(())
    }

    /// Close the expansion of outer row `left`, whose output starts at
    /// `out[from]`: a LEFT join pads an outer row that matched nothing.
    fn end_outer(&self, left: &[Value], from: usize, out: &mut Vec<Row>) {
        if out.len() == from && self.kind == JoinKind::Left {
            let mut padded = Vec::with_capacity(left.len() + self.right_width);
            padded.extend_from_slice(left);
            padded.resize(left.len() + self.right_width, Value::Null);
            out.push(padded);
        }
    }
}

/// The inner rows a join reads once per outer row: collected rows it owns,
/// or the pinned heap of a scan fragment, read in place (see [`hold`]).
enum Held {
    Owned(Vec<Row>),
    Pinned(TableSnapshot),
}

impl Held {
    /// The row at `at`: an index into the owned rows, or a heap position.
    fn row(&self, at: usize) -> &[Value] {
        match self {
            Held::Owned(rows) => &rows[at],
            Held::Pinned(snap) => &snap.rows()[at],
        }
    }
}

/// Make a join's inner input readable in place for the life of the
/// cursor, calling `visit(at, row)` on each of its rows in order, where
/// `at` is what [`Held::row`] takes. A scan fragment with no computed
/// projection (a leaf, shared or not, under an optional filter) keeps its
/// pinned snapshot, and `at` is a heap position: no row is copied.
/// Anything else is collected into owned rows.
///
/// The trade-off is the one an in-place probe side makes: the cursor pins
/// the snapshot until it is dropped, so a concurrent writer copies the
/// heap on write meanwhile.
fn hold(
    plan: Plan,
    ctx: &ExecCtx,
    mut visit: impl FnMut(usize, &[Value]) -> Result<()>,
) -> Result<Held> {
    let rows: Vec<Row> = match fragment(plan) {
        Ok(Fragment { leaf, step: FilterProject { predicate, exprs: None } }) => {
            let heap = open_leaf(leaf, ctx);
            let snap = heap.snapshot().clone();
            for at in positions(heap, predicate, ctx) {
                let at = at?;
                visit(at, &snap.rows()[at])?;
            }
            return Ok(Held::Pinned(snap));
        }
        Ok(Fragment { leaf, step }) => {
            let rows = drive(open_leaf(leaf, ctx), MorselWork::FilterProject(step), ctx);
            rows.collect::<Result<_>>()?
        }
        Err(plan) => stream_plan(plan, ctx.clone())?.collect::<Result<_>>()?,
    };
    for (at, row) in rows.iter().enumerate() {
        visit(at, row)?;
    }
    Ok(Held::Owned(rows))
}

/// A hash-join build side: its rows, held as [`hold`] holds them, plus the
/// key table over them. Over a scan fragment the table maps each key to
/// heap positions in the pinned snapshot, so the only copy per build row
/// is its key. Ref-counted so two joins whose build inputs resolve to the
/// same shared spool (and use the same key expressions) build it once per
/// execution and probe one table.
pub(crate) struct BuiltSide {
    table: JoinTable,
    rows: Held,
}

impl BuiltSide {
    /// Hold `plan`'s rows and index them by `keys`. NULL keys never
    /// participate (SQL equi-join); keys are the evaluated values
    /// themselves — `Value`'s Eq/Hash carry grouping semantics. A row's
    /// key is evaluated into one reused buffer, which the table takes
    /// only for a key it has not seen.
    fn build(plan: Plan, keys: &[BoundExpr], ctx: &ExecCtx) -> Result<BuiltSide> {
        let mut table = JoinTable::default();
        let mut key: JoinKey<'static> = Vec::new();
        let rows = hold(plan, ctx, |at, row| {
            key.clear();
            for k in keys {
                let v = k.eval(row)?;
                if v.is_null() {
                    return Ok(());
                }
                key.push(Cow::Owned(v));
            }
            match table.get_mut(&key) {
                Some(positions) => positions.push(at),
                None => {
                    table.insert(std::mem::take(&mut key), vec![at]);
                }
            }
            Ok(())
        })?;
        Ok(BuiltSide { table, rows })
    }
}

/// The probe side of a hash join: the one probe loop, called per outer
/// row by the sequential [`JoinStream`] and per morsel row by the workers.
pub(super) struct HashProbe {
    built: Arc<BuiltSide>,
    left_keys: Vec<BoundExpr>,
    emit: JoinEmit,
}

impl HashProbe {
    /// Append the join output of outer row `left` to `out`.
    pub(super) fn expand(&self, left: &[Value], out: &mut Vec<Row>) -> Result<()> {
        let from = out.len();
        if let Some(matches) = self.matches(left)? {
            for &ri in matches {
                self.emit.pair(left, self.built.rows.row(ri), out)?;
            }
        }
        self.emit.end_outer(left, from, out);
        Ok(())
    }

    /// Build-row positions matching `left`'s key (none for a NULL key),
    /// as [`Held::row`] takes them.
    fn matches<'a>(&'a self, left: &'a [Value]) -> Result<Option<&'a Vec<usize>>> {
        // One key, the common case, is looked up as a one-element slice
        // (a key `Vec` hashes and compares as its slice): no buffer.
        if let [k] = self.left_keys.as_slice() {
            let v = k.eval_ref(left)?;
            let table = &self.built.table;
            return Ok(if v.is_null() { None } else { table.get(std::slice::from_ref(&v)) });
        }
        let mut key: JoinKey<'a> = Vec::with_capacity(self.left_keys.len());
        for k in &self.left_keys {
            let v = k.eval_ref(left)?;
            if v.is_null() {
                return Ok(None);
            }
            key.push(v);
        }
        Ok(self.built.table.get(&key))
    }
}

/// Lower a plan into a lazy row iterator, charging base-table fetches to
/// the context's scanned counter and driving scan fragments inline or on
/// the context's worker pool. Only [`Rows::open`] calls in from outside,
/// after it has fetched the plan's foreign leaves.
fn stream_plan(plan: Plan, ctx: ExecCtx) -> Result<BoxRowIter> {
    let plan = match fragment(plan) {
        Ok(Fragment { leaf, step }) => {
            return Ok(drive(open_leaf(leaf, &ctx), MorselWork::FilterProject(step), &ctx))
        }
        Err(plan) => plan,
    };
    match plan {
        Plan::Values { rows, .. } => Ok(Box::new(rows.into_iter().map(Ok))),
        Plan::Scan { .. } | Plan::IndexScan { .. } => {
            unreachable!("a scan leaf is a fragment")
        }
        Plan::ForeignScan { .. } => unreachable!("Rows::open fetches every foreign leaf"),
        Plan::Bind { .. } => unreachable!("Rows::open fills every slot"),
        Plan::Filter { input, predicate } => {
            let step = FilterProject { predicate: Some(predicate), exprs: None };
            Ok(step.stream(stream_plan(*input, ctx)?))
        }
        Plan::Project { input, exprs, .. } => {
            // Identity projection: the rows pass through unchanged (output
            // names live on the plan node's schema, not in the rows), so
            // skip the per-row rebuild entirely.
            if is_identity(&exprs, input.schema().len()) {
                return stream_plan(*input, ctx);
            }
            match *input {
                // Fuse the projection into an inner hash join below it:
                // each match is projected straight off the pair of rows —
                // the combined row is never built.
                Plan::HashJoin {
                    left,
                    right,
                    kind: JoinKind::Inner,
                    left_keys,
                    right_keys,
                    residual,
                    ..
                } => lower_hash_join(
                    *left,
                    *right,
                    JoinKind::Inner,
                    left_keys,
                    right_keys,
                    residual,
                    Some(exprs),
                    ctx,
                ),
                other => {
                    let step = FilterProject { predicate: None, exprs: Some(exprs) };
                    Ok(step.stream(stream_plan(other, ctx)?))
                }
            }
        }
        Plan::NestedLoopJoin { left, right, kind, predicate, .. } => {
            let emit =
                JoinEmit { kind, right_width: right.schema().len(), predicate, project: None };
            let mut inner = Vec::new();
            let held = hold(*right, &ctx, |at, _| {
                inner.push(at);
                Ok(())
            })?;
            let cancel = ctx.cancel.clone();
            let outer = Pulled::new(stream_plan(*left, ctx)?);
            Ok(Box::new(StepStream::new(outer, cancel, move |l, out| {
                let from = out.len();
                for &at in &inner {
                    emit.pair(l, held.row(at), out)?;
                }
                emit.end_outer(l, from, out);
                Ok(())
            })))
        }
        Plan::HashJoin { left, right, kind, left_keys, right_keys, residual, .. } => {
            lower_hash_join(*left, *right, kind, left_keys, right_keys, residual, None, ctx)
        }
        Plan::Aggregate { input, group, aggs, .. } => {
            let out = match fragment(*input) {
                Ok(f) => aggregate_fragment(f, &group, &aggs, &ctx)?,
                Err(input) => aggregate_rows(stream_plan(input, ctx)?, &group, &aggs)?,
            };
            Ok(Box::new(out.into_iter().map(Ok)))
        }
        Plan::Sort { input, keys } => {
            let child = stream_plan(*input, ctx)?;
            let out = sort_rows(child, &keys)?;
            Ok(Box::new(out.into_iter().map(Ok)))
        }
        Plan::Distinct { input } => {
            let cancel = ctx.cancel.clone();
            let width = input.schema().len();
            let child = stream_plan(*input, ctx)?;
            Ok(Box::new(DedupStream::new(child, width, cancel)))
        }
        Plan::Limit { input, limit, offset } => {
            let mut child = stream_plan(*input, ctx)?;
            let mut to_skip = offset as usize;
            let mut remaining = limit.map(|l| l as usize);
            Ok(Box::new(std::iter::from_fn(move || {
                if remaining == Some(0) {
                    // Short-circuit: never pulls the child again, so the
                    // upstream pipeline (and its base-table scan) stops.
                    return None;
                }
                loop {
                    match child.next()? {
                        Err(e) => return Some(Err(e)),
                        Ok(row) => {
                            if to_skip > 0 {
                                to_skip -= 1;
                                continue;
                            }
                            if let Some(r) = &mut remaining {
                                *r -= 1;
                            }
                            return Some(Ok(row));
                        }
                    }
                }
            })))
        }
        Plan::Union { inputs, all, schema } => {
            let width = schema.len();
            let cancel = ctx.cancel.clone();
            // Members start lazily: a LIMIT satisfied by the first member
            // never executes the later ones.
            let mut pending: VecDeque<Plan> = inputs.into_iter().collect();
            let mut current: Option<BoxRowIter> = None;
            let concat = Box::new(std::iter::from_fn(move || loop {
                let iter = match &mut current {
                    Some(it) => it,
                    None => {
                        let next_plan = pending.pop_front()?;
                        match stream_plan(next_plan, ctx.clone()) {
                            Ok(it) => current.insert(it),
                            Err(e) => return Some(Err(e)),
                        }
                    }
                };
                match iter.next() {
                    None => {
                        current = None;
                        continue;
                    }
                    Some(Err(e)) => return Some(Err(e)),
                    Some(Ok(row)) => {
                        if row.len() != width {
                            return Some(Err(Error::eval(
                                "UNION member produced a row of different width",
                            )));
                        }
                        return Some(Ok(row));
                    }
                }
            }));
            if all {
                Ok(concat)
            } else {
                Ok(Box::new(DedupStream::new(concat, width, cancel)))
            }
        }
        Plan::Shared { id, input } => {
            // A shared bare leaf never gets here: it is a fragment, read
            // through one pin (`ExecCtx::shared_leaf`). Any other shared
            // subtree is one spool per id per execution. Opening the
            // spool lowers the source pipeline immediately (pinning its
            // snapshots), so every consumer — even one lowered later, e.g.
            // a lazily-started UNION member — replays the same data.
            let existing = ctx.spools.lock().get(&id).cloned();
            let spool = match existing {
                Some(s) => s,
                None => {
                    let source = stream_plan((*input).clone(), ctx.clone())?;
                    let spool = Arc::new(Spool::new(source));
                    ctx.spools.lock().insert(id, Arc::clone(&spool));
                    spool
                }
            };
            Ok(Box::new(SpoolReader::new(spool, ctx.cancel.clone())))
        }
    }
}

/// Streaming duplicate elimination (DISTINCT, deduplicating UNION),
/// vectorised: rows are pulled from the child in [`SCAN_BATCH`] blocks
/// and their coded keys inserted into the seen-set with capacity reserved
/// per block, so a large dedup never pays per-row incremental rehash
/// growth. The set holds keys only; a row is either passed on or dropped,
/// never cloned. Still lazy at block granularity — a `LIMIT k` consumer
/// pulls at most one block beyond its k-th distinct row.
struct DedupStream {
    child: BoxRowIter,
    coder: KeyCoder,
    seen: HashSet<Key, FastBuild>,
    out: std::vec::IntoIter<Row>,
    pending_err: Option<Error>,
    cancel: CancelToken,
    done: bool,
}

impl DedupStream {
    fn new(child: BoxRowIter, width: usize, cancel: CancelToken) -> Self {
        DedupStream {
            child,
            coder: KeyCoder::new(width),
            seen: HashSet::default(),
            out: Vec::new().into_iter(),
            pending_err: None,
            cancel,
            done: false,
        }
    }
}

impl Iterator for DedupStream {
    type Item = Result<Row>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(row) = self.out.next() {
                return Some(Ok(row));
            }
            if let Some(e) = self.pending_err.take() {
                self.done = true;
                return Some(Err(e));
            }
            if self.done {
                return None;
            }
            // Block boundary: a dedup whose child yields mostly duplicates
            // can run long without producing output, so poll here too.
            if let Err(i) = self.cancel.check() {
                self.done = true;
                return Some(Err(Error::Interrupted(i)));
            }
            // Dedup one block: reserve set capacity for the whole block
            // up front, then insert as rows are pulled.
            self.seen.reserve(SCAN_BATCH);
            let mut fresh = Vec::new();
            for _ in 0..SCAN_BATCH {
                let next = self.child.next().map(|r| {
                    let row = r?;
                    let key = self.coder.key(row.iter().map(Ok))?;
                    Ok((key, row))
                });
                match next {
                    Some(Ok((key, row))) => {
                        if self.seen.insert(key) {
                            fresh.push(row);
                        }
                    }
                    Some(Err(e)) => {
                        // Yield the fresh rows gathered before the error,
                        // then surface it (sequential-order semantics).
                        self.pending_err = Some(e);
                        break;
                    }
                    None => {
                        self.done = true;
                        break;
                    }
                }
            }
            self.out = fresh.into_iter();
        }
    }
}

/// Lower a hash join (optionally with a projection fused over it).
///
/// The build side is drained and indexed once. When it is a scan fragment
/// with no computed projection, the key table maps heap positions of its
/// pinned snapshot and each match is read there in place; any other build
/// input is collected into owned rows (see [`hold`]). When the build side
/// is a shared node, the built table itself is registered in the
/// execution context keyed by `(spool id, key fingerprint)`, so a second
/// join over the same shared input with the same key expressions probes
/// the same ref-counted [`BuiltSide`] instead of rebuilding it. With
/// `project` (inner joins only), matches are projected straight off the
/// pair of rows — the wide combined row is never built.
#[allow(clippy::too_many_arguments)]
fn lower_hash_join(
    left: Plan,
    right: Plan,
    kind: JoinKind,
    left_keys: Vec<BoundExpr>,
    right_keys: Vec<BoundExpr>,
    residual: Option<BoundExpr>,
    project: Option<Vec<BoundExpr>>,
    ctx: ExecCtx,
) -> Result<BoxRowIter> {
    let emit = JoinEmit { kind, right_width: right.schema().len(), predicate: residual, project };
    let build_key = match &right {
        Plan::Shared { id, .. } => Some((*id, format!("{right_keys:?}"))),
        _ => None,
    };
    let cached = build_key
        .as_ref()
        .and_then(|k| ctx.builds.lock().get(k).cloned());
    let built: Arc<BuiltSide> = match cached {
        Some(b) => b,
        None => {
            let b = Arc::new(BuiltSide::build(right, &right_keys, &ctx)?);
            if let Some(k) = build_key {
                ctx.builds.lock().insert(k, Arc::clone(&b));
            }
            b
        }
    };
    let probe = HashProbe { built, left_keys, emit };
    // A probe side that is a (filtered) scan probes with its snapshot rows
    // in place — inline, or by workers over disjoint morsels.
    let left = match fragment(left) {
        Ok(Fragment { leaf, step: FilterProject { predicate, exprs: None } })
            if matches!(kind, JoinKind::Inner | JoinKind::Left) =>
        {
            let work = MorselWork::HashProbe { prefilter: predicate, probe };
            return Ok(drive(open_leaf(leaf, &ctx), work, &ctx));
        }
        Ok(Fragment { leaf, step }) => {
            drive(open_leaf(leaf, &ctx), MorselWork::FilterProject(step), &ctx)
        }
        Err(left) => stream_plan(left, ctx.clone())?,
    };
    let cancel = ctx.cancel.clone();
    Ok(Box::new(StepStream::new(Pulled::new(left), cancel, move |l, out| probe.expand(l, out))))
}

/// The inline driver: takes one outer row at a time and expands it into
/// zero or more output rows via `step` — a scan fragment's row step, or a
/// join's probe (which also pads an unmatched outer row of a LEFT join).
/// Lazy per outer row, so a `LIMIT k` consumer stops the input right after
/// its k-th row. Every row produced before a failing outer row is
/// yielded, none of that row's own output, and the error ends the stream.
pub(super) struct StepStream<S, F> {
    outer: S,
    step: F,
    /// Output of the current outer row; `pending[next..]` is still to be
    /// yielded. The buffer is reused across outer rows.
    pending: Vec<Row>,
    next: usize,
    cancel: CancelToken,
    /// Output rows yielded since the last cancel poll; a cartesian blow-up
    /// produces many rows per outer pull, so the scan-level checks alone
    /// would be too coarse here.
    since_check: usize,
    done: bool,
}

impl<S, F> StepStream<S, F>
where
    S: Outer,
    F: FnMut(&[Value], &mut Vec<Row>) -> Result<()>,
{
    pub(super) fn new(outer: S, cancel: CancelToken, step: F) -> Self {
        StepStream {
            outer,
            step,
            pending: Vec::new(),
            next: 0,
            cancel,
            since_check: 0,
            done: false,
        }
    }

    fn fail(&mut self, e: Error) -> Option<Result<Row>> {
        self.pending.clear();
        self.done = true;
        Some(Err(e))
    }
}

impl<S, F> Iterator for StepStream<S, F>
where
    S: Outer,
    F: FnMut(&[Value], &mut Vec<Row>) -> Result<()>,
{
    type Item = Result<Row>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(row) = self.pending.get_mut(self.next) {
                let row = std::mem::take(row);
                self.next += 1;
                self.since_check += 1;
                if self.since_check >= SCAN_BATCH {
                    self.since_check = 0;
                    if let Err(i) = self.cancel.check() {
                        return self.fail(Error::Interrupted(i));
                    }
                }
                return Some(Ok(row));
            }
            if self.done {
                return None;
            }
            self.pending.clear();
            self.next = 0;
            let outcome = match self.outer.next_outer() {
                None => {
                    self.done = true;
                    return None;
                }
                Some(Ok(row)) => (self.step)(row, &mut self.pending),
                Some(Err(e)) => Err(e),
            };
            if let Err(e) = outcome {
                return self.fail(e);
            }
        }
    }
}

/// Drain `child` and sort it (stable, total order, keys precomputed).
fn sort_rows(child: BoxRowIter, keys: &[SortKey]) -> Result<Vec<Row>> {
    let mut keyed: Vec<(Vec<Value>, Row)> = Vec::new();
    for row in child {
        let row = row?;
        let mut kv = Vec::with_capacity(keys.len());
        for k in keys {
            kv.push(k.expr.eval(&row)?);
        }
        keyed.push((kv, row));
    }
    keyed.sort_by(|(ka, _), (kb, _)| {
        for (i, key) in keys.iter().enumerate() {
            let ord = ka[i].total_cmp(&kb[i]);
            let ord = if key.ascending { ord } else { ord.reverse() };
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
    Ok(keyed.into_iter().map(|(_, r)| r).collect())
}
