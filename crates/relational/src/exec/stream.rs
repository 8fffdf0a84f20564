// srclint: allow(R002): the spool state machine guarantees an open (not done) spool still owns its source
//! Streaming (pull-based) plan execution with morsel-driven parallelism.
//!
//! [`stream_plan`] lowers a [`Plan`] into an iterator of rows. Pipelined
//! operators — scans, filters, projections, probe sides of joins, LIMIT,
//! UNION concatenation, DISTINCT — produce rows on demand, so a consumer
//! that stops early (a `LIMIT k`, a client that abandons its cursor)
//! stops the upstream work instead of truncating a fully materialised
//! result. Blocking operators (SORT, GROUP BY, the build side of a hash
//! join) still drain their input, exactly as a production Volcano engine
//! would.
//!
//! Base-table access pins a [`TableSnapshot`] once per cursor: the scan
//! streams from an immutable copy-on-write heap, so a cursor opened
//! before a concurrent `DELETE`/`INSERT`/`TRUNCATE` sees exactly the rows
//! of its snapshot — no skipped rows, no double reads, and no lock held
//! between batches.
//!
//! When the executor runs with a parallel [`WorkerPool`] (see
//! `Database::set_exec_threads`), scan→filter→project pipelines and the
//! probe side of hash joins are executed as **morsels**: one wave of
//! `threads × SCAN_BATCH` snapshot rows is partitioned across the pool
//! and merged back in snapshot order, so parallel execution is
//! deterministic and `LIMIT k` still stops the scan after at most one
//! wave. The pinned snapshot is what makes this safe — workers share
//! borrowed slices without any locking.
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
use crate::plan::{IndexLookup, Plan, SortKey};
use crate::schema::Schema;
use crate::sql::ast::JoinKind;
use crate::storage::{Table, TableSnapshot};
use crate::value::{Row, Value};

use super::aggregate::aggregate_rows;
use super::expr::{BoundExpr, Pair, RowView};
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

/// Rows copied out of a pinned snapshot per cursor step; also the morsel
/// size for parallel pipelines.
pub const SCAN_BATCH: usize = 1024;

/// Minimum snapshot size before a parallel pipeline spawns workers —
/// below this the per-wave thread spawn costs more than the scan.
pub const PARALLEL_MIN_ROWS: usize = 4096;

type BoxRowIter = Box<dyn Iterator<Item = Result<Row>> + Send>;

/// Shared execution state threaded through plan lowering: the scanned-rows
/// counter, the worker pool for morsel-parallel operators, and the spool
/// registry backing [`Plan::Shared`] nodes (one spool per shared-subtree
/// id per execution).
#[derive(Clone)]
pub struct ExecCtx {
    scanned: Arc<AtomicU64>,
    pool: Arc<WorkerPool>,
    spools: Arc<Mutex<HashMap<usize, Arc<Spool>>>>,
    /// Hash-join build sides over shared spools, keyed by
    /// `(spool id, key-expression fingerprint)` — joins that hash the
    /// same spooled input on the same keys share one build.
    builds: Arc<Mutex<BuildRegistry>>,
    /// Cooperative cancellation handle, polled at batch boundaries (scan
    /// batches, morsel waves, dedup blocks, spool refills, join output
    /// blocks). Captured from the ambient thread-local token at context
    /// construction, so the token set by a serving layer reaches every
    /// operator without parameter threading.
    cancel: CancelToken,
}

impl ExecCtx {
    pub fn new(threads: usize) -> Self {
        Self::with_cancel(threads, CancelToken::current())
    }

    /// A context with an explicit cancellation token (overrides the
    /// ambient one).
    pub fn with_cancel(threads: usize, cancel: CancelToken) -> Self {
        ExecCtx {
            scanned: Arc::new(AtomicU64::new(0)),
            pool: Arc::new(WorkerPool::new(threads)),
            spools: Arc::new(Mutex::new_labeled("exec.spools", HashMap::new())),
            builds: Arc::new(Mutex::new_labeled("exec.builds", HashMap::new())),
            cancel,
        }
    }
}

// ---- shared-subtree spools -------------------------------------------------

/// The once-per-execution materialisation behind a [`Plan::Shared`] node.
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
    /// Lower a plan into a sequential cursor. The plan is consumed; clone
    /// a cached template first.
    pub fn from_plan(plan: Plan) -> Result<Rows> {
        Self::from_plan_parallel(plan, 1)
    }

    /// Lower a plan into a cursor executing with up to `threads` workers
    /// for morsel-parallel operators (1 = fully sequential). Picks up the
    /// ambient [`CancelToken`] if one is installed on this thread.
    pub fn from_plan_parallel(plan: Plan, threads: usize) -> Result<Rows> {
        Self::lower(plan, ExecCtx::new(threads))
    }

    /// Lower a plan into a cursor that cooperatively honours `cancel`:
    /// once the token trips (or its deadline passes), the cursor yields
    /// `Error::Interrupted` at the next batch boundary instead of running
    /// to completion — [`Rows::rows_scanned`] then proves the scan stopped
    /// short.
    pub fn from_plan_with(plan: Plan, threads: usize, cancel: CancelToken) -> Result<Rows> {
        Self::lower(plan, ExecCtx::with_cancel(threads, cancel))
    }

    /// Open the cursor. Foreign leaves are fetched here, when the cursor
    /// opens and never at plan time, so a replayed template reads live.
    fn lower(plan: Plan, ctx: ExecCtx) -> Result<Rows> {
        let schema = plan.schema().clone();
        let (plan, fetched) = crate::foreign::fetch_leaves(plan)?;
        ctx.scanned.fetch_add(fetched as u64, AtomicOrdering::Relaxed);
        let scanned = Arc::clone(&ctx.scanned);
        let iter = stream_plan(plan, ctx)?;
        Ok(Rows { schema, iter, scanned })
    }

    /// Wrap an already-materialised result (used by layers that post-
    /// process rows eagerly but still expose the cursor API).
    pub fn from_rowset(rows: RowSet) -> Rows {
        let scanned = Arc::new(AtomicU64::new(rows.rows.len() as u64));
        Rows {
            schema: rows.schema,
            iter: Box::new(rows.rows.into_iter().map(Ok)),
            scanned,
        }
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

/// Incremental base-table scan over a snapshot pinned at cursor open: a
/// point-in-time view, streamed in [`SCAN_BATCH`] steps without holding
/// any lock.
struct TableCursor {
    snap: TableSnapshot,
    pos: usize,
    scanned: Arc<AtomicU64>,
    cancel: CancelToken,
    interrupted: bool,
}

impl TableCursor {
    fn new(table: &Table, scanned: Arc<AtomicU64>, cancel: CancelToken) -> Self {
        TableCursor { snap: table.snapshot(), pos: 0, scanned, cancel, interrupted: false }
    }
}

impl Iterator for TableCursor {
    type Item = Result<Row>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.interrupted || self.pos >= self.snap.len() {
            return None;
        }
        if self.pos.is_multiple_of(SCAN_BATCH) {
            // Batch boundary: poll the cancel token before charging the
            // next batch, so an interrupted scan leaves the fetched-rows
            // counter strictly short of the table.
            if let Err(i) = self.cancel.check() {
                self.interrupted = true;
                return Some(Err(Error::Interrupted(i)));
            }
            // Charge a whole batch as it starts (the pre-snapshot executor
            // copied out per batch; the counter's granularity is kept).
            let n = (self.snap.len() - self.pos).min(SCAN_BATCH);
            self.scanned.fetch_add(n as u64, AtomicOrdering::Relaxed);
        }
        let row = self.snap.rows()[self.pos].clone();
        self.pos += 1;
        Some(Ok(row))
    }
}

// ---- morsel-parallel pipelines ---------------------------------------------

/// The row step of `[Filter] → [Project]`, the one kernel under both the
/// sequential `Filter`/`Project` operators and the morsel workers.
struct FilterProject {
    predicate: Option<BoundExpr>,
    exprs: Option<Vec<BoundExpr>>,
}

impl FilterProject {
    /// `None` when the predicate rejects `row`; otherwise the projected
    /// row, or without a projection `row` itself (cloned only if the
    /// caller could not give it away).
    fn apply(&self, row: Cow<'_, [Value]>) -> Result<Option<Row>> {
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

/// A materialised hash-join build side: the right-hand rows plus the key
/// table over them. Ref-counted so two joins whose build inputs resolve
/// to the same shared spool (and use the same key expressions) build it
/// once per execution and probe one table.
pub(crate) struct BuiltSide {
    table: JoinTable,
    rows: Vec<Row>,
}

impl BuiltSide {
    /// Evaluate `keys` over `rows` and index them. NULL keys never
    /// participate (SQL equi-join); keys are the evaluated values
    /// themselves — `Value`'s Eq/Hash carry grouping semantics.
    fn build(rows: Vec<Row>, keys: &[BoundExpr]) -> Result<BuiltSide> {
        let mut table = JoinTable::default();
        table.reserve(rows.len());
        'rows: for (i, r) in rows.iter().enumerate() {
            let mut key = Vec::with_capacity(keys.len());
            for k in keys {
                let v = k.eval(r)?;
                if v.is_null() {
                    continue 'rows;
                }
                key.push(Cow::Owned(v));
            }
            table.entry(key).or_default().push(i);
        }
        Ok(BuiltSide { table, rows })
    }
}

/// The probe side of a hash join: the one probe loop, called per outer
/// row by the sequential [`JoinStream`] and per morsel row by the workers.
struct HashProbe {
    built: Arc<BuiltSide>,
    left_keys: Vec<BoundExpr>,
    emit: JoinEmit,
}

impl HashProbe {
    /// Append the join output of outer row `left` to `out`.
    fn expand(&self, left: &[Value], out: &mut Vec<Row>) -> Result<()> {
        let from = out.len();
        if let Some(matches) = self.matches(left)? {
            for &ri in matches {
                self.emit.pair(left, &self.built.rows[ri], out)?;
            }
        }
        self.emit.end_outer(left, from, out);
        Ok(())
    }

    /// Build-row positions matching `left`'s key (none for a NULL key).
    fn matches<'a>(&'a self, left: &'a [Value]) -> Result<Option<&'a Vec<usize>>> {
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

/// The per-morsel work of a parallelised pipeline fragment. Workers apply
/// it to disjoint slices of one pinned snapshot; the results are merged
/// back in snapshot order.
enum MorselWork {
    /// `Scan → [Filter] → [Project]` collapsed into one pass.
    FilterProject(FilterProject),
    /// The probe side of a hash join (optionally pre-filtered): each
    /// snapshot row probes the shared build table.
    HashProbe { prefilter: Option<BoundExpr>, probe: HashProbe },
}

impl MorselWork {
    fn apply(&self, morsel: &[Row]) -> Result<Vec<Row>> {
        let mut out = Vec::new();
        match self {
            MorselWork::FilterProject(step) => {
                for row in morsel {
                    out.extend(step.apply(Cow::Borrowed(row))?);
                }
            }
            MorselWork::HashProbe { prefilter, probe } => {
                for l in morsel {
                    if let Some(p) = prefilter {
                        if !p.eval_predicate(l)? {
                            continue;
                        }
                    }
                    probe.expand(l, &mut out)?;
                }
            }
        }
        Ok(out)
    }
}

/// Wave-based morsel scan: pulls `threads × SCAN_BATCH` snapshot rows per
/// wave, partitions them across the pool, and yields the merged results in
/// snapshot order. Lazy between waves, so `LIMIT k` consumers stop the
/// scan after the wave that satisfied them. Rows produced before a failing
/// morsel are still yielded (sequential-order error semantics); the error
/// then ends the stream.
struct MorselScan {
    snap: TableSnapshot,
    pos: usize,
    pool: Arc<WorkerPool>,
    work: Arc<MorselWork>,
    scanned: Arc<AtomicU64>,
    cancel: CancelToken,
    buf: std::vec::IntoIter<Row>,
    pending_err: Option<Error>,
    done: bool,
}

impl MorselScan {
    fn new(
        snap: TableSnapshot,
        pool: Arc<WorkerPool>,
        work: MorselWork,
        scanned: Arc<AtomicU64>,
        cancel: CancelToken,
    ) -> Self {
        MorselScan {
            snap,
            pos: 0,
            pool,
            work: Arc::new(work),
            scanned,
            cancel,
            buf: Vec::new().into_iter(),
            pending_err: None,
            done: false,
        }
    }
}

impl Iterator for MorselScan {
    type Item = Result<Row>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(row) = self.buf.next() {
                return Some(Ok(row));
            }
            if let Some(e) = self.pending_err.take() {
                self.done = true;
                return Some(Err(e));
            }
            if self.done || self.pos >= self.snap.len() {
                return None;
            }
            // Wave boundary: poll the cancel token before dispatching the
            // next `threads × SCAN_BATCH` rows to the pool.
            if let Err(i) = self.cancel.check() {
                self.done = true;
                return Some(Err(Error::Interrupted(i)));
            }
            let wave = self.pool.threads() * SCAN_BATCH;
            let hi = (self.pos + wave).min(self.snap.len());
            let slice = &self.snap.rows()[self.pos..hi];
            self.scanned.fetch_add(slice.len() as u64, AtomicOrdering::Relaxed);
            self.pos = hi;
            let work = Arc::clone(&self.work);
            let results: Vec<Result<Vec<Row>>> =
                self.pool.map_chunks(slice, SCAN_BATCH, |_, morsel| work.apply(morsel));
            let mut out: Vec<Row> = Vec::new();
            for r in results {
                match r {
                    Ok(mut rows) => out.append(&mut rows),
                    Err(e) => {
                        // Keep rows of in-order earlier morsels, then fail.
                        self.pending_err = Some(e);
                        break;
                    }
                }
            }
            self.buf = out.into_iter();
        }
    }
}

/// Try to lower `plan` as a morsel-parallel pipeline fragment. Returns the
/// plan unchanged when it is not a recognised fragment (or the pool is
/// sequential, or the table is too small to be worth partitioning).
// The "error" is the unconsumed plan handed back to the sequential path —
// its size is irrelevant (one move, never propagated).
#[allow(clippy::result_large_err)]
fn try_parallel(plan: Plan, ctx: &ExecCtx) -> std::result::Result<BoxRowIter, Plan> {
    if !ctx.pool.is_parallel() {
        return Err(plan);
    }
    // Decompose Scan / Filter(Scan) into (table, scan schema, prefilter);
    // the schema is kept so an undersized fragment reassembles exactly.
    type ScanParts = (Arc<Table>, Schema, Option<BoundExpr>);
    let scan_parts = |p: Plan| -> std::result::Result<ScanParts, Plan> {
        match p {
            Plan::Scan { table, schema } => Ok((table, schema, None)),
            Plan::Filter { input, predicate } => match *input {
                Plan::Scan { table, schema } => Ok((table, schema, Some(predicate))),
                other => Err(Plan::Filter { input: Box::new(other), predicate }),
            },
            other => Err(other),
        }
    };
    // Reassemble a decomposed fragment for the sequential path.
    let reassemble = |table: Arc<Table>, schema: Schema, prefilter: Option<BoundExpr>| {
        let scan = Plan::Scan { table, schema };
        match prefilter {
            Some(predicate) => Plan::Filter { input: Box::new(scan), predicate },
            None => scan,
        }
    };
    match plan {
        Plan::Project { input, exprs, schema } => match scan_parts(*input) {
            Ok((table, scan_schema, prefilter)) => {
                let snap = table.snapshot();
                if snap.len() < PARALLEL_MIN_ROWS {
                    return Err(Plan::Project {
                        input: Box::new(reassemble(table, scan_schema, prefilter)),
                        exprs,
                        schema,
                    });
                }
                Ok(Box::new(MorselScan::new(
                    snap,
                    Arc::clone(&ctx.pool),
                    MorselWork::FilterProject(FilterProject {
                        predicate: prefilter,
                        exprs: Some(exprs),
                    }),
                    Arc::clone(&ctx.scanned),
                    ctx.cancel.clone(),
                )))
            }
            Err(other) => Err(Plan::Project { input: Box::new(other), exprs, schema }),
        },
        other => match scan_parts(other) {
            // A bare Scan (no filter) gains nothing from workers — every
            // "morsel" would be a plain copy — so only filtered scans run
            // parallel here.
            Ok((table, scan_schema, Some(predicate))) => {
                let snap = table.snapshot();
                if snap.len() < PARALLEL_MIN_ROWS {
                    return Err(reassemble(table, scan_schema, Some(predicate)));
                }
                Ok(Box::new(MorselScan::new(
                    snap,
                    Arc::clone(&ctx.pool),
                    MorselWork::FilterProject(FilterProject {
                        predicate: Some(predicate),
                        exprs: None,
                    }),
                    Arc::clone(&ctx.scanned),
                    ctx.cancel.clone(),
                )))
            }
            Ok((table, scan_schema, None)) => Err(reassemble(table, scan_schema, None)),
            Err(other) => Err(other),
        },
    }
}

/// Lower a plan into a lazy row iterator, charging base-table fetches to
/// the context's scanned counter and running recognised pipeline fragments
/// on the context's worker pool. Only [`Rows::lower`] calls in from
/// outside, after it has fetched the plan's foreign leaves.
fn stream_plan(plan: Plan, ctx: ExecCtx) -> Result<BoxRowIter> {
    let plan = match try_parallel(plan, &ctx) {
        Ok(iter) => return Ok(iter),
        Err(plan) => plan,
    };
    match plan {
        Plan::Values { rows, .. } => Ok(Box::new(rows.into_iter().map(Ok))),
        Plan::Scan { table, .. } => Ok(Box::new(TableCursor::new(
            &table,
            Arc::clone(&ctx.scanned),
            ctx.cancel.clone(),
        ))),
        Plan::IndexScan { table, column, lookup, .. } => {
            let via_index = match &lookup {
                IndexLookup::Eq(keys) => table.index_lookup_eq(column, keys),
                IndexLookup::Range { low, high } => {
                    table.index_lookup_range(column, as_ref_bound(low), as_ref_bound(high))
                }
            };
            match via_index {
                Some(rows) => {
                    // The index already narrowed the fetch; charge only
                    // what it returned.
                    ctx.scanned.fetch_add(rows.len() as u64, AtomicOrdering::Relaxed);
                    Ok(Box::new(rows.into_iter().map(Ok)))
                }
                // Index dropped between planning and execution: degrade to
                // a filtered streaming scan with identical semantics.
                None => {
                    let cursor = TableCursor::new(
                        &table,
                        Arc::clone(&ctx.scanned),
                        ctx.cancel.clone(),
                    );
                    Ok(Box::new(cursor.filter(move |r| match r {
                        Ok(row) => lookup.matches(&row[column]),
                        Err(_) => true,
                    })))
                }
            }
        }
        Plan::ForeignScan { .. } => unreachable!("Rows::lower fetches every foreign leaf"),
        Plan::Filter { input, predicate } => {
            let step = FilterProject { predicate: Some(predicate), exprs: None };
            Ok(step.stream(stream_plan(*input, ctx)?))
        }
        Plan::Project { input, exprs, .. } => {
            // Identity projection: the rows pass through unchanged (output
            // names live on the plan node's schema, not in the rows), so
            // skip the per-row rebuild entirely.
            if exprs.len() == input.schema().len()
                && exprs
                    .iter()
                    .enumerate()
                    .all(|(i, e)| matches!(e, BoundExpr::Column(c) if *c == i))
            {
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
            let right_rows: Vec<Row> =
                stream_plan(*right, ctx.clone())?.collect::<Result<_>>()?;
            let cancel = ctx.cancel.clone();
            let left_iter = stream_plan(*left, ctx)?;
            Ok(Box::new(JoinStream::new(left_iter, cancel, move |l, out| {
                let from = out.len();
                for r in &right_rows {
                    emit.pair(l, r, out)?;
                }
                emit.end_outer(l, from, out);
                Ok(())
            })))
        }
        Plan::HashJoin { left, right, kind, left_keys, right_keys, residual, .. } => {
            lower_hash_join(*left, *right, kind, left_keys, right_keys, residual, None, ctx)
        }
        Plan::Aggregate { input, group, aggs, .. } => {
            let child = stream_plan(*input, ctx)?;
            let out = aggregate_rows(child, &group, &aggs)?;
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
            // One spool per shared-subtree id per execution. Opening the
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
/// The build side is materialised and indexed once; when it sits behind a
/// shared spool, the built table itself is registered in the execution
/// context keyed by `(spool id, key fingerprint)`, so a second join over
/// the same spooled input with the same key expressions probes the same
/// ref-counted [`BuiltSide`] instead of rebuilding it. With `project`
/// (inner joins only), matches are projected straight off the pair of
/// rows — the wide combined row is never built.
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
            let right_rows: Vec<Row> =
                stream_plan(right, ctx.clone())?.collect::<Result<_>>()?;
            let b = Arc::new(BuiltSide::build(right_rows, &right_keys)?);
            if let Some(k) = build_key {
                ctx.builds.lock().insert(k, Arc::clone(&b));
            }
            b
        }
    };
    let probe = HashProbe { built, left_keys, emit };
    // Partition-parallel probe: when the probe side is a (filtered) scan
    // of a big enough table, workers probe the shared build table over
    // disjoint snapshot morsels, in snapshot order.
    if ctx.pool.is_parallel() && matches!(kind, JoinKind::Inner | JoinKind::Left) {
        let probe_scan = match left {
            Plan::Scan { ref table, .. } => Some((Arc::clone(table), None)),
            Plan::Filter { ref input, ref predicate } => match **input {
                Plan::Scan { ref table, .. } => {
                    Some((Arc::clone(table), Some(predicate.clone())))
                }
                _ => None,
            },
            _ => None,
        };
        if let Some((probe_table, prefilter)) = probe_scan {
            let snap = probe_table.snapshot();
            if snap.len() >= PARALLEL_MIN_ROWS {
                return Ok(Box::new(MorselScan::new(
                    snap,
                    Arc::clone(&ctx.pool),
                    MorselWork::HashProbe { prefilter, probe },
                    Arc::clone(&ctx.scanned),
                    ctx.cancel.clone(),
                )));
            }
        }
    }
    let cancel = ctx.cancel.clone();
    let left_iter = stream_plan(left, ctx)?;
    Ok(Box::new(JoinStream::new(left_iter, cancel, move |l, out| probe.expand(l, out))))
}

/// Streams a join: pulls one outer row at a time and expands it into zero
/// or more output rows via `expand` (which also pads an unmatched outer
/// row of a LEFT join).
struct JoinStream<F> {
    left: BoxRowIter,
    expand: F,
    /// Output of the current outer row; `pending[next..]` is still to be
    /// yielded. The buffer is reused across outer rows.
    pending: Vec<Row>,
    next: usize,
    cancel: CancelToken,
    /// Output rows yielded since the last cancel poll; a cartesian blow-up
    /// produces many rows per outer pull, so the scan-level checks alone
    /// would be too coarse here.
    since_check: usize,
}

impl<F> JoinStream<F>
where
    F: FnMut(&[Value], &mut Vec<Row>) -> Result<()>,
{
    fn new(left: BoxRowIter, cancel: CancelToken, expand: F) -> Self {
        JoinStream { left, expand, pending: Vec::new(), next: 0, cancel, since_check: 0 }
    }
}

impl<F> Iterator for JoinStream<F>
where
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
                        self.pending.clear();
                        return Some(Err(Error::Interrupted(i)));
                    }
                }
                return Some(Ok(row));
            }
            self.pending.clear();
            self.next = 0;
            match self.left.next()? {
                Err(e) => return Some(Err(e)),
                Ok(l) => {
                    if let Err(e) = (self.expand)(&l, &mut self.pending) {
                        // Drop any partial expansion of the failed row: a
                        // consumer that keeps pulling past the error must
                        // not see its half-joined output.
                        self.pending.clear();
                        return Some(Err(e));
                    }
                }
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

fn as_ref_bound(b: &std::ops::Bound<Value>) -> std::ops::Bound<&Value> {
    match b {
        std::ops::Bound::Included(v) => std::ops::Bound::Included(v),
        std::ops::Bound::Excluded(v) => std::ops::Bound::Excluded(v),
        std::ops::Bound::Unbounded => std::ops::Bound::Unbounded,
    }
}
