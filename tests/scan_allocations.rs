//! Scans read rows in place: with one worker thread, a statement whose
//! output does not grow with the table allocates the same number of times
//! over 10 000 rows as over 20 000 — no row is copied just to be looked
//! at, filtered out, counted or grouped.
//!
//! Allocations are counted per thread by a counting global allocator, so
//! tests running in parallel in this binary do not disturb each other.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use crosse::prelude::*;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the slot is gone while the thread tears down.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the caller's guarantees to this allocator are exactly `System`'s
// preconditions; counting touches only a thread-local `Cell` and never
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: forwarded as received (see the impl).
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: forwarded as received (see the impl).
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: forwarded as received; `ptr` came from this allocator,
        // hence from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `n` rows of `(k, g, v, bucket)`: `g` cycles through 7 groups, every
/// `v` is non-negative, and each `bucket` holds exactly 5 rows.
fn table(n: i64) -> Database {
    let db = Database::new();
    db.execute("CREATE TABLE t (k INT, g INT, v FLOAT, bucket INT)").unwrap();
    let rows = (0..n)
        .map(|i| vec![Value::Int(i), Value::Int(i % 7), Value::Float(i as f64), Value::Int(i / 5)])
        .collect();
    db.catalog().get_table("t").unwrap().insert_many(rows).unwrap();
    db.execute("CREATE INDEX t_bucket ON t (bucket)").unwrap();
    db.set_exec_threads(1);
    db
}

/// Allocations made on this thread by one run of `sql`, after a first run
/// has warmed the plan cache and the index; also the result's row count.
fn allocations(db: &Database, sql: &str) -> (u64, usize) {
    db.query(sql).unwrap();
    let before = ALLOCATIONS.with(Cell::get);
    let rows = db.query(sql).unwrap().rows.len();
    (ALLOCATIONS.with(Cell::get) - before, rows)
}

#[test]
fn allocations_do_not_grow_with_scanned_rows() {
    let small = table(10_000);
    let large = table(20_000);
    let plan = small.query("EXPLAIN SELECT k FROM t WHERE bucket = 42").unwrap();
    assert!(
        plan.rows.iter().any(|r| r[0].lexical_form().contains("IndexScan")),
        "the bucket lookup must go through the index"
    );
    for (sql, out_rows) in [
        ("SELECT COUNT(*) FROM t", 1),
        ("SELECT g, SUM(v) FROM t GROUP BY g", 7),
        ("SELECT k FROM t WHERE v < 0.0", 0),
        ("SELECT k FROM t WHERE bucket = 42", 5),
    ] {
        let (at_small, rows_small) = allocations(&small, sql);
        let (at_large, rows_large) = allocations(&large, sql);
        assert_eq!((rows_small, rows_large), (out_rows, out_rows), "`{sql}`");
        assert_eq!(
            at_small, at_large,
            "`{sql}` allocated {at_small} times over 10 000 rows, {at_large} over 20 000"
        );
    }
}

/// A hash join's build side over a scan keys heap positions of the pinned
/// snapshot, and a self-join that common-subplan elimination shares reads
/// both sides off one pin: neither copies a row per build or shared row.
/// Each build table below has 7 keys and neither statement returns a row,
/// so going from 10 000 to 20 000 rows may add only what the 7 position
/// lists take to grow: the assertion allows 32 allocations, where one
/// copy per row would add 10 000.
#[test]
fn join_builds_and_shared_scans_do_not_copy_rows() {
    let (small, large) = (table(10_000), table(20_000));
    for db in [&small, &large] {
        db.execute_script("CREATE TABLE p (a INT); INSERT INTO p VALUES (100);").unwrap();
    }
    let explain = |sql: &str| -> String {
        let plan = small.query(&format!("EXPLAIN {sql}")).unwrap();
        plan.rows.iter().map(|r| r[0].lexical_form().to_string() + "\n").collect()
    };
    let build_over_scan = "SELECT p.a FROM p, t WHERE p.a = t.g";
    let text = explain(build_over_scan);
    let (probe, build) = (text.find("SeqScan: p").unwrap(), text.find("SeqScan: t").unwrap());
    assert!(text.contains("HashJoin") && probe < build, "the build side scans `t`:\n{text}");
    let shared_self_join = "SELECT a.k FROM t a, t b WHERE a.k = b.g + 1000000";
    let text = explain(shared_self_join);
    assert!(text.contains("Shared spool #0 (reused)"), "both sides share one scan:\n{text}");
    for sql in [build_over_scan, shared_self_join] {
        let (at_small, rows_small) = allocations(&small, sql);
        let (at_large, rows_large) = allocations(&large, sql);
        assert_eq!((rows_small, rows_large), (0, 0), "`{sql}`");
        assert!(
            at_large <= at_small + 32,
            "`{sql}` allocated {at_small} times over 10 000 rows, {at_large} over 20 000"
        );
    }
}
