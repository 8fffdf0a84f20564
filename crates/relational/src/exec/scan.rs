//! Scan fragments: a `Scan` or `IndexScan` leaf under an optional
//! `Filter` and `Project`, run as one row step straight off the leaf's
//! pinned snapshot (see the `stream` module for where this sits in the
//! executor).
//!
//! A leaf is pinned once per consumer, or once per execution when it sits
//! under a `Plan::Shared` node: every consumer of that spool id walks the
//! one `Pin` its first consumer made, and the pin charges each batch of
//! its walk to the rows-scanned counter once, whichever walker gets there
//! first.
//!
//! A fragment runs either inline, one row per pull (`drive` hands it to a
//! `StepStream`), or as morsel waves on the worker pool (`MorselScan`).
//! The pool's thread count and `PARALLEL_MIN_ROWS` choose between them
//! (`waves`); both run the same kernels (`MorselWork`) and yield the same
//! rows, errors included.

use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering as AtomicOrdering};
use std::sync::Arc;

use crosse_exec::{CancelToken, WorkerPool};

use crate::error::{Error, Result};
use crate::plan::{AggSpec, IndexLookup, Plan};
use crate::storage::{IndexHits, Table, TableSnapshot};
use crate::value::{Row, Value};

use super::aggregate::aggregate_rows;
use super::expr::{BoundExpr, RowView};
use super::stream::{
    BoxRowIter, ExecCtx, FilterProject, HashProbe, Outer, StepStream, PARALLEL_MIN_ROWS,
    SCAN_BATCH,
};

/// A scan leaf pinned for one execution: the snapshot it reads, which
/// heap positions it visits, and how far its walk has been charged to the
/// rows-scanned counter. Every consumer of a shared leaf walks the same
/// pin, so they all read one point-in-time snapshot.
pub(super) struct Pin {
    snap: TableSnapshot,
    /// The positions an index found, or `None` to visit every row.
    hits: Option<Vec<usize>>,
    /// The index fallback: visit every row, keep those whose `column`
    /// matches the lookup.
    keep: Option<(usize, IndexLookup)>,
    /// Walk positions charged so far. Whichever walker reaches a batch
    /// first charges it, so a shared leaf is charged once per execution
    /// however many consumers walk it.
    charged: AtomicUsize,
}

impl Pin {
    /// Charge the walk up to position `upto`, less what is charged already.
    fn charge(&self, upto: usize, scanned: &AtomicU64) {
        let before = self.charged.fetch_max(upto, AtomicOrdering::Relaxed);
        if upto > before {
            scanned.fetch_add((upto - before) as u64, AtomicOrdering::Relaxed);
        }
    }
}

/// Where one walker is in a [`Pin`]: the next position it visits, and the
/// bookkeeping at each [`SCAN_BATCH`] boundary (charge the batch to the
/// scanned-rows counter, poll the cancel token).
struct HeapWalk {
    /// Next entry of the pin's hits, or next heap position.
    next: usize,
    scanned: Arc<AtomicU64>,
    cancel: CancelToken,
    done: bool,
}

impl HeapWalk {
    /// The heap position of the next row to visit in `pin`. An
    /// interruption ends the walk.
    fn next(&mut self, pin: &Pin) -> Option<Result<usize>> {
        let rows = pin.snap.rows();
        let end = pin.hits.as_ref().map_or(rows.len(), Vec::len);
        loop {
            if self.done || self.next >= end {
                return None;
            }
            if self.next.is_multiple_of(SCAN_BATCH) {
                // Batch boundary: poll the cancel token before charging the
                // next batch, so an interrupted scan leaves the fetched-rows
                // counter strictly short of the table.
                if let Err(i) = self.cancel.check() {
                    self.done = true;
                    return Some(Err(Error::Interrupted(i)));
                }
                // A full scan charges a whole batch as it starts; index
                // hits were charged when the leaf opened.
                if pin.hits.is_none() {
                    pin.charge((self.next + SCAN_BATCH).min(end), &self.scanned);
                }
            }
            let at = pin.hits.as_ref().map_or(self.next, |h| h[self.next]);
            self.next += 1;
            match &pin.keep {
                Some((column, lookup)) if !lookup.matches(&rows[at][*column]) => continue,
                _ => return Some(Ok(at)),
            }
        }
    }
}

/// A scan leaf opened: its pin and this consumer's walk over it.
pub(super) struct Heap {
    pin: Arc<Pin>,
    walk: HeapWalk,
}

impl Heap {
    /// The snapshot the leaf reads.
    pub(super) fn snapshot(&self) -> &TableSnapshot {
        &self.pin.snap
    }
}

impl Outer for Heap {
    fn next_outer(&mut self) -> Option<Result<&[Value]>> {
        let at = self.walk.next(&self.pin)?;
        Some(at.map(|at| self.pin.snap.rows()[at].as_slice()))
    }
}

/// What a scan fragment does with each snapshot row, run inline by a
/// [`StepStream`] or per morsel by the workers of a [`MorselScan`].
pub(super) enum MorselWork {
    /// `[Filter] → [Project]` fused into one pass.
    FilterProject(FilterProject),
    /// The probe side of a hash join (optionally pre-filtered): each
    /// snapshot row probes the shared build table.
    HashProbe { prefilter: Option<BoundExpr>, probe: HashProbe },
}

impl MorselWork {
    /// Append the output of `row` to `out`. On an error `out` may hold
    /// part of the row's output; the caller drops it.
    fn apply_row(&self, row: &[Value], out: &mut Vec<Row>) -> Result<()> {
        match self {
            MorselWork::FilterProject(step) => out.extend(step.apply(Cow::Borrowed(row))?),
            MorselWork::HashProbe { prefilter, probe } => {
                if let Some(p) = prefilter {
                    if !p.eval_predicate(row)? {
                        return Ok(());
                    }
                }
                probe.expand(row, out)?;
            }
        }
        Ok(())
    }

    /// The output of one morsel: every row produced before the first
    /// failing row, and that row's error — what the inline driver yields
    /// over the same rows.
    fn apply(&self, morsel: &[Row]) -> (Vec<Row>, Option<Error>) {
        let mut out = Vec::new();
        for row in morsel {
            let from = out.len();
            if let Err(e) = self.apply_row(row, &mut out) {
                out.truncate(from);
                return (out, Some(e));
            }
        }
        (out, None)
    }

    fn does_work(&self) -> bool {
        match self {
            MorselWork::FilterProject(step) => step.does_work(),
            MorselWork::HashProbe { .. } => true,
        }
    }
}

/// Wave-based morsel scan: pulls `threads × SCAN_BATCH` snapshot rows per
/// wave, partitions them across the pool, and yields the merged results in
/// snapshot order. Lazy between waves, so `LIMIT k` consumers stop the
/// scan after the wave that satisfied them. Every row produced before a
/// failing row is still yielded — earlier morsels whole, the failing
/// morsel up to that row — and the error then ends the stream.
struct MorselScan<T> {
    pin: Arc<Pin>,
    pos: usize,
    pool: Arc<WorkerPool>,
    work: Box<Kernel<T>>,
    scanned: Arc<AtomicU64>,
    cancel: CancelToken,
    buf: std::vec::IntoIter<T>,
    pending_err: Option<Error>,
    done: bool,
}

/// What the workers of a [`MorselScan`] compute: the output of one morsel
/// of snapshot rows, the first at heap position `base`, and the error of
/// the first row that failed.
type Kernel<T> = dyn Fn(usize, &[Row]) -> (Vec<T>, Option<Error>) + Send + Sync;

impl<T> MorselScan<T> {
    fn new(pin: Arc<Pin>, work: Box<Kernel<T>>, ctx: &ExecCtx) -> Self {
        MorselScan {
            pin,
            pos: 0,
            pool: Arc::clone(&ctx.pool),
            work,
            scanned: Arc::clone(&ctx.scanned),
            cancel: ctx.cancel.clone(),
            buf: Vec::new().into_iter(),
            pending_err: None,
            done: false,
        }
    }
}

impl<T: Send> Iterator for MorselScan<T> {
    type Item = Result<T>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(row) = self.buf.next() {
                return Some(Ok(row));
            }
            if let Some(e) = self.pending_err.take() {
                self.done = true;
                return Some(Err(e));
            }
            let len = self.pin.snap.len();
            if self.done || self.pos >= len {
                return None;
            }
            // Wave boundary: poll the cancel token before dispatching the
            // next `threads × SCAN_BATCH` rows to the pool.
            if let Err(i) = self.cancel.check() {
                self.done = true;
                return Some(Err(Error::Interrupted(i)));
            }
            let wave = self.pool.threads() * SCAN_BATCH;
            let hi = (self.pos + wave).min(len);
            let (lo, slice) = (self.pos, &self.pin.snap.rows()[self.pos..hi]);
            self.pin.charge(hi, &self.scanned);
            self.pos = hi;
            let work = &self.work;
            let results = self
                .pool
                .map_chunks(slice, SCAN_BATCH, |i, morsel| work(lo + i * SCAN_BATCH, morsel));
            let mut out = Vec::new();
            for (mut rows, err) in results {
                out.append(&mut rows);
                if err.is_some() {
                    self.pending_err = err;
                    break;
                }
            }
            self.buf = out.into_iter();
        }
    }
}

/// A scan leaf: a whole table, or the rows an index lookup selects, read
/// by one consumer or, behind a [`Plan::Shared`] node, by all consumers
/// of spool `id` through one pin.
pub(super) enum Leaf {
    Scan(Arc<Table>),
    Index { table: Arc<Table>, column: usize, lookup: IndexLookup },
    Shared { id: usize, leaf: Box<Leaf> },
}

/// `Scan | IndexScan` under an optional `Filter` and an optional
/// `Project`, fused into one row step over the leaf's pinned snapshot.
pub(super) struct Fragment {
    pub(super) leaf: Leaf,
    pub(super) step: FilterProject,
}

/// Recognise `plan` as a [`Fragment`], or hand it back as it was.
// The "error" is the unconsumed plan handed back to the caller — its size
// is irrelevant (one move, never propagated).
#[allow(clippy::result_large_err)]
pub(super) fn fragment(plan: Plan) -> std::result::Result<Fragment, Plan> {
    fn leaf(plan: Plan) -> std::result::Result<Leaf, Plan> {
        match plan {
            Plan::Scan { table, .. } => Ok(Leaf::Scan(table)),
            Plan::IndexScan { table, column, lookup, .. } => {
                Ok(Leaf::Index { table, column, lookup })
            }
            // A shared bare leaf is a pin, not a spool: the plan under it
            // is shared, so its table and lookup are copied out.
            Plan::Shared { id, input } => {
                let leaf = match &*input {
                    Plan::Scan { table, .. } => Leaf::Scan(Arc::clone(table)),
                    Plan::IndexScan { table, column, lookup, .. } => Leaf::Index {
                        table: Arc::clone(table),
                        column: *column,
                        lookup: lookup.clone(),
                    },
                    _ => return Err(Plan::Shared { id, input }),
                };
                Ok(Leaf::Shared { id, leaf: Box::new(leaf) })
            }
            other => Err(other),
        }
    }
    fn filtered(plan: Plan) -> std::result::Result<(Leaf, Option<BoundExpr>), Plan> {
        match plan {
            Plan::Filter { input, predicate } => match leaf(*input) {
                Ok(l) => Ok((l, Some(predicate))),
                Err(input) => Err(Plan::Filter { input: Box::new(input), predicate }),
            },
            other => Ok((leaf(other)?, None)),
        }
    }
    match plan {
        Plan::Project { input, exprs, schema } => {
            let width = input.schema().len();
            match filtered(*input) {
                Ok((leaf, predicate)) => {
                    // An identity projection only renames (output names
                    // live on the plan node's schema, not in the rows).
                    let exprs = (!is_identity(&exprs, width)).then_some(exprs);
                    Ok(Fragment { leaf, step: FilterProject { predicate, exprs } })
                }
                Err(input) => Err(Plan::Project { input: Box::new(input), exprs, schema }),
            }
        }
        other => {
            let (leaf, predicate) = filtered(other)?;
            Ok(Fragment { leaf, step: FilterProject { predicate, exprs: None } })
        }
    }
}

/// `exprs` picks every input column of a `width`-wide row, in order.
pub(super) fn is_identity(exprs: &[BoundExpr], width: usize) -> bool {
    exprs.len() == width
        && exprs
            .iter()
            .enumerate()
            .all(|(i, e)| matches!(e, BoundExpr::Column(c) if *c == i))
}

/// Open a leaf for one consumer: pin its snapshot, or, for a shared leaf,
/// join the pin its first consumer made in this execution. An index scan
/// charges its hits here — the index already narrowed the fetch; a full
/// scan charges per batch as it walks.
pub(super) fn open_leaf(leaf: Leaf, ctx: &ExecCtx) -> Heap {
    let pin = match leaf {
        Leaf::Shared { id, leaf } => ctx.shared_leaf(id, || pin(*leaf)),
        leaf => Arc::new(pin(leaf)),
    };
    if let Some(hits) = &pin.hits {
        pin.charge(hits.len(), &ctx.scanned);
    }
    let scanned = Arc::clone(&ctx.scanned);
    Heap { pin, walk: HeapWalk { next: 0, scanned, cancel: ctx.cancel.clone(), done: false } }
}

/// Pin the snapshot a leaf reads and, for an index scan, the positions
/// its lookup finds in it.
fn pin(leaf: Leaf) -> Pin {
    let (mut hits, mut keep) = (None, None);
    let snap = match leaf {
        Leaf::Scan(table) => table.snapshot(),
        Leaf::Shared { leaf, .. } => return pin(*leaf),
        Leaf::Index { table, column, lookup } => {
            let found = match &lookup {
                IndexLookup::Eq(keys) => table.index_lookup_eq(column, keys),
                IndexLookup::Range { low, high } => {
                    table.index_lookup_range(column, as_ref_bound(low), as_ref_bound(high))
                }
                IndexLookup::AtOpen(_) => unreachable!("a cursor's open builds every lookup"),
            };
            match found {
                Some(IndexHits { snap, positions }) => {
                    hits = Some(positions);
                    snap
                }
                // Index dropped between planning and execution: visit every
                // row and keep the ones the lookup matches — the same rows.
                None => {
                    keep = Some((column, lookup));
                    table.snapshot()
                }
            }
        }
    };
    Pin { snap, hits, keep, charged: AtomicUsize::new(0) }
}

/// Whether `heap` runs as morsel waves: a step that does work, over a
/// whole snapshot of at least [`PARALLEL_MIN_ROWS`] rows, with a parallel
/// pool. Anything else steps inline.
fn waves(heap: &Heap, does_work: bool, ctx: &ExecCtx) -> bool {
    does_work
        && ctx.pool.is_parallel()
        && heap.pin.hits.is_none()
        && heap.pin.keep.is_none()
        && heap.pin.snap.len() >= PARALLEL_MIN_ROWS
}

/// Run `work` over the rows of an opened leaf, inline or in waves.
pub(super) fn drive(heap: Heap, work: MorselWork, ctx: &ExecCtx) -> BoxRowIter {
    if waves(&heap, work.does_work(), ctx) {
        let kernel: Box<Kernel<Row>> = Box::new(move |_, morsel| work.apply(morsel));
        return Box::new(MorselScan::new(heap.pin, kernel, ctx));
    }
    Box::new(StepStream::new(heap, ctx.cancel.clone(), move |row, out| work.apply_row(row, out)))
}

/// The heap positions of the rows of an opened leaf that `predicate`
/// keeps, in heap order: selected by morsel waves when the predicate is
/// worth splitting (see `waves`), walked inline otherwise. The caller
/// reads the rows in place in [`Heap::snapshot`].
pub(super) fn positions(
    heap: Heap,
    predicate: Option<BoundExpr>,
    ctx: &ExecCtx,
) -> Box<dyn Iterator<Item = Result<usize>> + Send> {
    let in_waves = waves(&heap, predicate.is_some(), ctx);
    let Heap { pin, mut walk } = heap;
    match predicate {
        Some(predicate) if in_waves => {
            let kernel: Box<Kernel<usize>> =
                Box::new(move |base, morsel| kept(&predicate, base, morsel));
            Box::new(MorselScan::new(pin, kernel, ctx))
        }
        predicate => Box::new(std::iter::from_fn(move || loop {
            let at = match walk.next(&pin)? {
                Ok(at) => at,
                Err(e) => return Some(Err(e)),
            };
            let row = pin.snap.rows()[at].as_slice();
            match predicate.as_ref().map_or(Ok(true), |p| p.eval_predicate(row)) {
                Ok(true) => return Some(Ok(at)),
                Ok(false) => {}
                Err(e) => return Some(Err(e)),
            }
        })),
    }
}

/// Aggregate a fragment, reading its input in place. A column-only
/// projection (what projection pruning leaves under an aggregate) only
/// renames columns, so group keys and arguments come straight off the
/// snapshot row of each position the predicate keeps (see [`positions`]).
/// A computed projection feeds the aggregate its output rows instead.
pub(super) fn aggregate_fragment(
    f: Fragment,
    group: &[BoundExpr],
    aggs: &[AggSpec],
    ctx: &ExecCtx,
) -> Result<Vec<Row>> {
    let Fragment { leaf, step } = f;
    let heap = open_leaf(leaf, ctx);
    let picked = match &step.exprs {
        None => Some(None),
        Some(exprs) => exprs
            .iter()
            .map(|e| match e {
                BoundExpr::Column(c) => Some(*c),
                _ => None,
            })
            .collect::<Option<Vec<usize>>>()
            .map(Some),
    };
    let Some(cols) = picked else {
        return aggregate_rows(drive(heap, MorselWork::FilterProject(step), ctx), group, aggs);
    };
    let cols = cols.as_deref();
    let snap = heap.snapshot().clone();
    let rows = positions(heap, step.predicate, ctx);
    aggregate_rows(rows.map(|at| Ok(Picked { row: &snap.rows()[at?], cols })), group, aggs)
}

/// The heap positions of the rows of `morsel` (the first at `base`) that
/// `predicate` keeps, up to the first row it fails on, and that error.
fn kept(predicate: &BoundExpr, base: usize, morsel: &[Row]) -> (Vec<usize>, Option<Error>) {
    let mut out = Vec::new();
    for (i, row) in morsel.iter().enumerate() {
        match predicate.eval_predicate(row.as_slice()) {
            Ok(true) => out.push(base + i),
            Ok(false) => {}
            Err(e) => return (out, Some(e)),
        }
    }
    (out, None)
}

/// A snapshot row seen through a column-only projection.
struct Picked<'a> {
    row: &'a [Value],
    cols: Option<&'a [usize]>,
}

impl RowView for Picked<'_> {
    #[inline]
    fn col(&self, i: usize) -> &Value {
        match self.cols {
            Some(cols) => &self.row[cols[i]],
            None => &self.row[i],
        }
    }
}

fn as_ref_bound(b: &std::ops::Bound<Value>) -> std::ops::Bound<&Value> {
    match b {
        std::ops::Bound::Included(v) => std::ops::Bound::Included(v),
        std::ops::Bound::Excluded(v) => std::ops::Bound::Excluded(v),
        std::ops::Bound::Unbounded => std::ops::Bound::Unbounded,
    }
}
