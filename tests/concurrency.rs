// srclint: allow(R001): the lock_tracking test serializer deliberately uses
// std::sync::Mutex so it stays invisible to the acquisition-order graph it
// is testing.
//! Concurrency: the platform is shared mutable state behind locks; these
//! tests exercise parallel readers/writers across every layer.
//!
//! `cargo xtask stress` re-runs this suite with elevated iteration counts
//! (`CROSSE_STRESS_ITERS` multiplier) and worker-thread budgets
//! (`CROSSE_EXEC_THREADS` ∈ {1, 4, 8}).

use std::sync::Arc;
use std::thread;

use crosse::core::platform::CrossePlatform;
use crosse::prelude::*;
use crosse::rdf::TripleStore;

/// Iteration count scaled by the `CROSSE_STRESS_ITERS` multiplier (1 when
/// unset — the default quick run).
fn stress_iters(base: usize) -> usize {
    std::env::var("CROSSE_STRESS_ITERS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .map_or(base, |m| base * m.max(1))
}

/// Worker-thread budget for the morsel-parallel tests: the
/// `CROSSE_EXEC_THREADS` override, or `default`.
fn stress_threads(default: usize) -> usize {
    std::env::var("CROSSE_EXEC_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(default)
        .max(1)
}

#[test]
fn parallel_triple_store_writers_land_all_triples() {
    let store = TripleStore::new();
    let mut handles = Vec::new();
    for w in 0..8 {
        let store = store.clone();
        handles.push(thread::spawn(move || {
            for i in 0..200 {
                store.insert(
                    &format!("g{w}"),
                    &Triple::new(
                        Term::iri(format!("s{w}_{i}")),
                        Term::iri("p"),
                        Term::lit(i.to_string()),
                    ),
                ).unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(store.len(), 8 * 200);
    // Dictionary stayed consistent: every term resolves.
    for w in 0..8 {
        assert_eq!(store.graph_len(&format!("g{w}")), 200);
    }
}

#[test]
fn readers_run_during_writes() {
    let store = TripleStore::new();
    store.insert("kb", &Triple::new(Term::iri("a"), Term::iri("p"), Term::lit("0"))).unwrap();
    let writer = {
        let store = store.clone();
        thread::spawn(move || {
            for i in 0..500 {
                store.insert(
                    "kb",
                    &Triple::new(Term::iri(format!("s{i}")), Term::iri("p"), Term::lit("x")),
                ).unwrap();
            }
        })
    };
    let reader = {
        let store = store.clone();
        thread::spawn(move || {
            let mut last = 0;
            for _ in 0..200 {
                let sols = crosse::rdf::sparql::eval::query(
                    &store,
                    &["kb"],
                    "SELECT ?s WHERE { ?s <p> ?o }",
                )
                .unwrap();
                assert!(sols.len() >= last, "monotone growth under inserts");
                last = sols.len();
            }
        })
    };
    writer.join().unwrap();
    reader.join().unwrap();
}

#[test]
fn parallel_sql_writers_on_distinct_tables() {
    let db = Database::new();
    let mut handles = Vec::new();
    for w in 0..6 {
        let db = db.clone();
        handles.push(thread::spawn(move || {
            db.execute(&format!("CREATE TABLE t{w} (x INT)")).unwrap();
            for i in 0..100 {
                db.execute(&format!("INSERT INTO t{w} VALUES ({i})")).unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    for w in 0..6 {
        let rs = db.query(&format!("SELECT COUNT(*) FROM t{w}")).unwrap();
        assert_eq!(rs.rows[0][0], Value::Int(100));
    }
}

#[test]
fn parallel_inserts_into_one_table_lose_nothing() {
    let db = Database::new();
    db.execute("CREATE TABLE shared (who INT, n INT)").unwrap();
    let mut handles = Vec::new();
    for w in 0..4i64 {
        let db = db.clone();
        handles.push(thread::spawn(move || {
            for i in 0..250 {
                db.execute(&format!("INSERT INTO shared VALUES ({w}, {i})")).unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let rs = db.query("SELECT COUNT(*) FROM shared").unwrap();
    assert_eq!(rs.rows[0][0], Value::Int(1000));
}

/// Two sessions delete from disjoint id ranges of one indexed table while
/// a third inserts into it: each DELETE picks its rows on the heap it
/// removes them from, so the survivors are exactly the rows nobody
/// deleted, and the index agrees with them.
#[test]
fn concurrent_deletes_remove_exactly_their_rows() {
    let db = Database::new();
    db.execute_script("CREATE TABLE ids (id INT); CREATE INDEX ids_id ON ids (id);").unwrap();
    let n = stress_iters(300) as i64;
    let rows = (0..2 * n).map(|i| vec![Value::Int(i)]).collect();
    db.catalog().get_table("ids").unwrap().insert_many(rows).unwrap();
    // Session 0 deletes the even ids below `n`, session 1 the odd ids
    // from `n` up, one statement each; session 2 appends ids from 10n.
    let mut handles = Vec::new();
    for session in 0..3i64 {
        let db = db.clone();
        handles.push(thread::spawn(move || {
            for i in 0..n / 2 {
                let sql = match session {
                    0 => format!("DELETE FROM ids WHERE id = {}", 2 * i),
                    1 => format!("DELETE FROM ids WHERE id = {}", n + 2 * i + 1),
                    _ => format!("INSERT INTO ids VALUES ({})", 10 * n + i),
                };
                db.execute(&sql).unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let survivor = |id: i64| if id < n { id % 2 == 1 } else { id >= 10 * n || (id - n) % 2 == 0 };
    let want: Vec<i64> =
        (0..2 * n).chain(10 * n..10 * n + n / 2).filter(|&id| survivor(id)).collect();
    let ids = |sql: &str| -> Vec<i64> {
        let rows = db.query(sql).unwrap().rows;
        rows.iter().map(|r| if let Value::Int(i) = r[0] { i } else { panic!("{r:?}") }).collect()
    };
    assert_eq!(ids("SELECT id FROM ids ORDER BY id"), want);
    let indexed = format!("SELECT id FROM ids WHERE id < {} ORDER BY id", 2 * n);
    let below: Vec<i64> = want.iter().copied().filter(|&id| id < 2 * n).collect();
    assert_eq!(ids(&indexed), below, "the index agrees with the heap");
}

#[test]
fn concurrent_annotation_and_import() {
    let db = Database::new();
    db.execute("CREATE TABLE elem_contained (elem_name TEXT)").unwrap();
    db.execute("INSERT INTO elem_contained VALUES ('Hg'), ('Pb')").unwrap();
    let platform = Arc::new(CrossePlatform::new(db, KnowledgeBase::new()));
    for u in 0..4 {
        platform.register_user(&format!("user{u}")).unwrap();
    }
    let mut handles = Vec::new();
    for u in 0..4 {
        let platform = Arc::clone(&platform);
        handles.push(thread::spawn(move || {
            let me = format!("user{u}");
            for i in 0..50 {
                platform
                    .independent_annotation(
                        &me,
                        Term::iri(format!("c{u}_{i}")),
                        Term::iri("p"),
                        Term::lit("v"),
                    )
                    .unwrap();
                // Occasionally adopt whatever peers have published.
                if i % 10 == 0 {
                    for info in platform.browse_peer_statements(&me).into_iter().take(3)
                    {
                        platform.import_statement(&me, info.id).unwrap();
                    }
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let kb = platform.knowledge_base();
    // All 200 distinct statements exist and every user holds at least
    // their own 50.
    assert_eq!(kb.public_statements().len(), 200);
    for u in 0..4 {
        assert!(kb.personal_size(&format!("user{u}")) >= 50);
    }
}

#[test]
fn concurrent_sesql_execution_with_kb_updates() {
    let engine = Arc::new(
        crosse::smartground::standard_engine(
            &SmartGroundConfig::tiny(),
            "director",
        )
        .unwrap(),
    );
    let writer = {
        let engine = Arc::clone(&engine);
        thread::spawn(move || {
            let kb = engine.knowledge_base();
            for i in 0..100 {
                kb.assert_statement(
                    "director",
                    &Triple::new(
                        Term::iri(format!("Extra{i}")),
                        Term::iri("dangerLevel"),
                        Term::lit("2"),
                    ),
                )
                .unwrap();
            }
        })
    };
    let mut readers = Vec::new();
    for _ in 0..4 {
        let engine = Arc::clone(&engine);
        readers.push(thread::spawn(move || {
            for _ in 0..20 {
                let r = engine
                    .execute(
                        "director",
                        "SELECT elem_name FROM elem_contained \
                         ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)",
                    )
                    .unwrap();
                assert!(r.rows.len() >= r.report.base_rows);
            }
        }));
    }
    writer.join().unwrap();
    for r in readers {
        r.join().unwrap();
    }
}

#[test]
fn concurrent_replace_variable_queries_do_not_collide() {
    // REPLACEVARIABLE builds a KB-pairs table that the leg cache shares
    // across executions; parallel executions must not corrupt each other,
    // and none may put a table into (or take one out of) the catalog.
    let engine = Arc::new(
        crosse::smartground::standard_engine(&SmartGroundConfig::tiny(), "director")
            .unwrap(),
    );
    let catalog = || {
        let c = engine.database().catalog();
        (c.version(), c.table_names())
    };
    let before = catalog();
    let sesql = "SELECT e1.landfill_name AS l1, e2.landfill_name AS l2 \
                 FROM elem_contained AS e1, elem_contained AS e2 \
                 WHERE e1.landfill_name <> e2.landfill_name AND \
                       ${ e1.elem_name = e2.elem_name :cond1} \
                 ENRICH REPLACEVARIABLE(cond1, e2.elem_name, oreAssemblage)";
    let expected = engine.execute("director", sesql).unwrap().rows.len();
    let mut handles = Vec::new();
    for _ in 0..6 {
        let engine = Arc::clone(&engine);
        handles.push(thread::spawn(move || {
            for _ in 0..5 {
                let r = engine.execute("director", sesql).unwrap();
                assert_eq!(r.rows.len(), expected);
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(catalog(), before, "no table ever appears");
    engine.clear_cache();
    assert_eq!(engine.execute("director", sesql).unwrap().rows.len(), expected);
    assert_eq!(catalog(), before);
}

#[test]
fn replace_variable_readers_keep_their_pairs_table_under_cache_churn() {
    // A reader pins the pairs table it joins against, so nothing a writer
    // does to the cache entry — clearing it, invalidating it through the
    // KB version, evicting it by shrinking the cache to nothing — can take
    // the table away mid-query: every answer is the uncontended one, no
    // execution fails with `NoSuchTable`, and no table ever appears in the
    // catalog.
    use std::sync::atomic::{AtomicBool, Ordering};
    let engine = Arc::new(
        crosse::smartground::standard_engine(&SmartGroundConfig::tiny(), "director")
            .unwrap(),
    );
    let catalog = |engine: &crosse::core::sqm::SesqlEngine| {
        let c = engine.database().catalog();
        (c.version(), c.table_names())
    };
    let before = catalog(&engine);
    let sesql = "SELECT e1.landfill_name AS l1, e2.landfill_name AS l2 \
                 FROM elem_contained AS e1, elem_contained AS e2 \
                 WHERE e1.landfill_name <> e2.landfill_name AND \
                       ${ e1.elem_name = e2.elem_name :cond1} \
                 ENRICH REPLACEVARIABLE(cond1, e2.elem_name, oreAssemblage)";
    let answer = |engine: &crosse::core::sqm::SesqlEngine| {
        let mut rows = engine.execute("director", sesql).unwrap().rows.rows;
        rows.sort_by(|a, b| a.partial_cmp(b).unwrap());
        rows
    };
    let expected = answer(&engine);
    assert!(!expected.is_empty());

    const READERS: usize = 4;
    let start = Arc::new(std::sync::Barrier::new(READERS + 1));
    let done = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..READERS)
        .map(|_| {
            let (engine, start, done) =
                (Arc::clone(&engine), Arc::clone(&start), Arc::clone(&done));
            let expected = expected.clone();
            thread::spawn(move || {
                start.wait();
                let mut runs = 0;
                while runs < 10 || !done.load(Ordering::SeqCst) {
                    assert_eq!(answer(&engine), expected);
                    runs += 1;
                }
            })
        })
        .collect();
    start.wait();
    for i in 0..stress_iters(90) {
        match i % 3 {
            0 => engine.clear_cache(),
            // A statement no leg of this query reads: it moves the KB
            // version (every cached leg and pairs entry goes stale)
            // without moving the answer.
            1 => {
                engine
                    .knowledge_base()
                    .assert_statement(
                        "director",
                        &Triple::new(
                            Term::iri(format!("Note{i}")),
                            Term::iri("comment"),
                            Term::lit("x"),
                        ),
                    )
                    .unwrap();
            }
            _ => engine.set_cache_capacity(if i % 2 == 0 { 0 } else { 256 }),
        }
    }
    done.store(true, Ordering::SeqCst);
    for r in readers {
        r.join().unwrap();
    }
    engine.clear_cache();
    assert_eq!(catalog(&engine), before, "no table ever appears");
}

#[test]
fn indexed_queries_stay_consistent_under_concurrent_dml() {
    // Writers churn the table (insert + delete, which dirties the index
    // and forces lazy rebuilds) while readers run indexed point queries.
    // Every observed result must be internally consistent: all returned
    // rows actually carry the queried key.
    let db = Database::new();
    db.execute("CREATE TABLE t (k TEXT, v INT)").unwrap();
    db.execute("CREATE INDEX ik ON t (k)").unwrap();
    for i in 0..200 {
        db.execute(&format!("INSERT INTO t VALUES ('k{}', {i})", i % 10))
            .unwrap();
    }
    let db = Arc::new(db);
    let mut handles = Vec::new();
    for w in 0..2 {
        let db = Arc::clone(&db);
        handles.push(thread::spawn(move || {
            for i in 0..150 {
                db.execute(&format!("INSERT INTO t VALUES ('k{}', {})", i % 10, 1000 + w))
                    .unwrap();
                if i % 7 == 0 {
                    db.execute(&format!("DELETE FROM t WHERE v = {}", i * 3 % 200))
                        .unwrap();
                }
            }
        }));
    }
    for _ in 0..4 {
        let db = Arc::clone(&db);
        handles.push(thread::spawn(move || {
            for i in 0..200 {
                let key = format!("k{}", i % 10);
                let rs = db
                    .query(&format!("SELECT k, v FROM t WHERE k = '{key}'"))
                    .unwrap();
                for row in &rs.rows {
                    assert_eq!(row[0].lexical_form(), key);
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    // After the dust settles the index agrees with a sequential scan.
    let with_index = db.query("SELECT COUNT(*) FROM t WHERE k = 'k3'").unwrap();
    db.execute("DROP INDEX ik").unwrap();
    let without = db.query("SELECT COUNT(*) FROM t WHERE k = 'k3'").unwrap();
    assert_eq!(with_index.rows, without.rows);
}

#[test]
fn sparql_leg_cache_safe_under_concurrent_annotation() {
    // Readers enrich repeatedly (hitting and repopulating the cache) while
    // a writer annotates; every result must reflect *some* consistent KB
    // state — in particular, cached results must never contain an element
    // the KB has never described.
    let platform = CrossePlatform::from_engine(
        crosse::smartground::standard_engine(
            &crosse::smartground::SmartGroundConfig::tiny(),
            "director",
        )
        .unwrap(),
    );
    let platform = Arc::new(platform);
    let sesql = "SELECT elem_name FROM elem_contained \
                 ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)";
    let writer = {
        let p = Arc::clone(&platform);
        thread::spawn(move || {
            for i in 0..100 {
                p.independent_annotation(
                    "director",
                    Term::iri(format!("Syn{i}")),
                    Term::iri("dangerLevel"),
                    Term::lit("9"),
                )
                .unwrap();
            }
        })
    };
    let mut readers = Vec::new();
    for _ in 0..3 {
        let p = Arc::clone(&platform);
        readers.push(thread::spawn(move || {
            let mut hits = 0u32;
            for _ in 0..100 {
                let r = p.query("director", sesql).unwrap();
                if r.report.sparql_runs[0].cached {
                    hits += 1;
                }
                // Synthetic subjects never occur in the relational table,
                // so the enrichment may add values only for real elements.
                for row in &r.rows.rows {
                    assert!(!row[0].lexical_form().starts_with("Syn"));
                }
            }
            hits
        }));
    }
    writer.join().unwrap();
    for r in readers {
        r.join().unwrap();
    }
}

// ---- snapshot isolation of streaming cursors --------------------------------
//
// Regression tests for the PR-2 batch-boundary anomaly: a cursor's scan
// loop re-took the table lock per batch, so DML landing between batches
// could make one query skip rows (DELETE/TRUNCATE compacting the heap) or
// observe phantoms (INSERT appending behind the scan position). A cursor
// now pins a copy-on-write snapshot at open and must see exactly the rows
// of that snapshot.

use crosse::relational::exec::stream::SCAN_BATCH;

fn int_table(db: &Database, n: usize) {
    db.execute("CREATE TABLE snap_t (x INT)").unwrap();
    let t = db.catalog().get_table("snap_t").unwrap();
    t.insert_many((0..n as i64).map(|i| vec![Value::Int(i)]).collect())
        .unwrap();
}

/// Drain a cursor, returning (row count, sum of column 0).
fn drain_ints(cur: &mut crosse::relational::Rows) -> (usize, i64) {
    let (mut n, mut sum) = (0usize, 0i64);
    while let Some(r) = cur.next_row() {
        match r.unwrap()[0] {
            Value::Int(x) => {
                n += 1;
                sum += x;
            }
            ref other => panic!("expected Int, got {other:?}"),
        }
    }
    (n, sum)
}

#[test]
fn cursor_opened_before_truncate_sees_its_full_snapshot() {
    let db = Database::new();
    let n = 3 * SCAN_BATCH + 37;
    int_table(&db, n);
    let mut cur = db.query_cursor("SELECT x FROM snap_t").unwrap();
    // Pull one row (the cursor is mid-scan), then truncate the table.
    assert!(cur.next_row().is_some());
    db.execute("DELETE FROM snap_t").unwrap();
    assert_eq!(db.query("SELECT COUNT(*) FROM snap_t").unwrap().rows[0][0], Value::Int(0));
    // The cursor must still produce every remaining snapshot row — the
    // pre-snapshot executor returned nothing past the first batch.
    let (rest, _) = drain_ints(&mut cur);
    assert_eq!(rest, n - 1, "cursor lost rows to a concurrent TRUNCATE");
}

#[test]
fn cursor_opened_before_delete_neither_skips_nor_double_reads() {
    let db = Database::new();
    let n = 3 * SCAN_BATCH;
    int_table(&db, n);
    let mut cur = db.query_cursor("SELECT x FROM snap_t").unwrap();
    assert!(cur.next_row().is_some()); // x = 0
    // Deleting the first half compacts the heap under a positional scan:
    // the old executor skipped the rows that shifted below the scan point.
    db.execute(&format!("DELETE FROM snap_t WHERE x < {}", n / 2)).unwrap();
    let (rest, sum) = drain_ints(&mut cur);
    assert_eq!(rest, n - 1, "snapshot must be unaffected by the DELETE");
    let expected: i64 = (1..n as i64).sum();
    assert_eq!(sum, expected, "every snapshot row exactly once");
}

#[test]
fn cursor_opened_before_insert_sees_no_phantoms() {
    let db = Database::new();
    let n = 2 * SCAN_BATCH + 11;
    int_table(&db, n);
    let mut cur = db.query_cursor("SELECT x FROM snap_t").unwrap();
    assert!(cur.next_row().is_some());
    // Appends land behind the scan position: the old executor returned
    // them as phantom rows of a query that started before they existed.
    let t = db.catalog().get_table("snap_t").unwrap();
    t.insert_many((0..2 * SCAN_BATCH as i64).map(|i| vec![Value::Int(1_000_000 + i)]).collect())
        .unwrap();
    let (rest, sum) = drain_ints(&mut cur);
    assert_eq!(rest, n - 1, "phantom rows leaked into an open cursor");
    assert_eq!(sum, (1..n as i64).sum::<i64>());
}

#[test]
fn cursor_snapshot_isolated_under_writer_churn() {
    // End-to-end variant: a writer thread churns the table while cursors
    // stream; every cursor must return exactly the generation it pinned.
    let db = Database::new();
    let n = 3 * SCAN_BATCH;
    int_table(&db, n);
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let writer = {
        let db = db.clone();
        let stop = Arc::clone(&stop);
        thread::spawn(move || {
            let mut i = 0i64;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                db.execute(&format!("INSERT INTO snap_t VALUES ({})", 2_000_000 + i))
                    .unwrap();
                if i % 3 == 0 {
                    db.execute(&format!("DELETE FROM snap_t WHERE x = {}", 2_000_000 + i))
                        .unwrap();
                }
                i += 1;
            }
        })
    };
    for _ in 0..stress_iters(20) {
        let mut cur = db.query_cursor("SELECT x FROM snap_t").unwrap();
        let mut seen = std::collections::HashSet::new();
        let mut count = 0usize;
        while let Some(r) = cur.next_row() {
            let Value::Int(x) = r.unwrap()[0] else { panic!("expected Int") };
            assert!(seen.insert(x), "row {x} double-read within one cursor");
            count += 1;
        }
        // The snapshot held at least the original rows (the writer only
        // adds/removes its own sentinel values above 2_000_000).
        assert!(count >= n, "cursor saw {count} rows, snapshot had >= {n}");
        assert!((0..n as i64).all(|i| seen.contains(&i)), "original row skipped");
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    writer.join().unwrap();
}

// ---- morsel-driven parallel execution ---------------------------------------

#[test]
fn parallel_execution_matches_sequential() {
    let db = Database::new();
    db.execute("CREATE TABLE big (k INT, grp TEXT, v FLOAT)").unwrap();
    let t = db.catalog().get_table("big").unwrap();
    let rows: Vec<Vec<Value>> = (0..20_000i64)
        .map(|i| {
            vec![
                Value::Int(i),
                Value::from(format!("g{}", i % 7)),
                Value::Float((i % 100) as f64 / 3.0),
            ]
        })
        .collect();
    t.insert_many(rows).unwrap();
    db.execute("CREATE TABLE dim (grp TEXT, label TEXT)").unwrap();
    for g in 0..5 {
        db.execute(&format!("INSERT INTO dim VALUES ('g{g}', 'label{g}')")).unwrap();
    }
    let queries = [
        // scan → filter → project pipeline
        "SELECT k, v FROM big WHERE v > 20.0 AND k < 15000 ORDER BY k",
        // aggregation over a parallel filter
        "SELECT grp, COUNT(*), SUM(v) FROM big WHERE k >= 100 GROUP BY grp ORDER BY grp",
        // hash join: parallel probe side (big) against the dim build side
        "SELECT d.label, COUNT(*) FROM big b JOIN dim d ON b.grp = d.grp \
         WHERE b.v < 30.0 GROUP BY d.label ORDER BY d.label",
        // LEFT join padding must survive partition-parallel probing
        "SELECT COUNT(*) FROM big b LEFT JOIN dim d ON b.grp = d.grp WHERE d.label IS NULL",
        // aggregate reading an unfiltered scan
        "SELECT grp, COUNT(*), SUM(v), MIN(k), MAX(k) FROM big GROUP BY grp",
        // a bare scan, in heap order
        "SELECT * FROM big",
        // LEFT join whose probe side is a filtered scan, in probe order
        "SELECT b.k, d.label FROM big b LEFT JOIN dim d ON b.grp = d.grp WHERE b.v < 10.0",
    ];
    let check = |q: &str| {
        db.set_exec_threads(1);
        let sequential = db.query(q).unwrap();
        db.set_exec_threads(stress_threads(4));
        let parallel = db.query(q).unwrap();
        assert_eq!(sequential.rows, parallel.rows, "parallel != sequential for `{q}`");
    };
    for q in queries {
        check(q);
    }
    // Index scans with a projection, last: the indexes would turn the
    // range filters above into index scans.
    db.execute("CREATE INDEX big_grp ON big (grp)").unwrap();
    db.execute("CREATE INDEX big_k ON big (k)").unwrap();
    for q in [
        "SELECT k, v FROM big WHERE grp = 'g3'",
        "SELECT k, grp FROM big WHERE k BETWEEN 5000 AND 12000",
    ] {
        let plan = db.query(&format!("EXPLAIN {q}")).unwrap();
        let plan: Vec<String> = plan.rows.iter().map(|r| r[0].lexical_form()).collect();
        assert!(plan.iter().any(|l| l.contains("IndexScan")), "`{q}` uses no index: {plan:?}");
        check(q);
    }
}

#[test]
fn failing_row_yields_the_same_rows_before_it_at_every_thread_count() {
    // Row x = 5000 divides by zero. Every row before it must come out
    // first, whether the scan steps inline or in morsel waves — a wave
    // must not drop the rows its failing morsel produced before the error.
    let db = Database::new();
    int_table(&db, 8 * SCAN_BATCH);
    let drain = |threads: usize| {
        db.set_exec_threads(threads);
        let mut cur = db.query_cursor("SELECT 100 / (x - 5000) FROM snap_t").unwrap();
        let mut n = 0usize;
        loop {
            match cur.next_row() {
                Some(Ok(_)) => n += 1,
                Some(Err(e)) => return (n, e.to_string()),
                None => panic!("no error after {n} rows"),
            }
        }
    };
    let sequential = drain(1);
    assert_eq!(sequential.0, 5000, "{sequential:?}");
    assert_eq!(drain(stress_threads(4)), sequential);
}

#[test]
fn parallel_limit_still_short_circuits_scan() {
    let db = Database::new();
    int_table(&db, 50_000);
    db.set_exec_threads(stress_threads(4));
    let threads = db.exec_threads();
    let p = db.prepare("SELECT x FROM snap_t WHERE x >= 0 LIMIT 5").unwrap();
    let mut cur = p.execute(&Params::new()).unwrap();
    let mut n = 0;
    while let Some(r) = cur.next_row() {
        r.unwrap();
        n += 1;
    }
    assert_eq!(n, 5);
    // One wave is `threads × SCAN_BATCH` rows; LIMIT must stop within a
    // couple of waves, far below the 50k-row table.
    let cap = (2 * threads as u64 + 1) * SCAN_BATCH as u64;
    assert!(
        cur.rows_scanned() <= cap,
        "LIMIT 5 scanned {} rows with {} threads (cap {})",
        cur.rows_scanned(),
        threads,
        cap
    );
}

#[test]
fn parallel_scans_stay_consistent_under_concurrent_dml() {
    // Writers churn a big table while readers run morsel-parallel filtered
    // scans; every result must be internally consistent (pinned snapshot):
    // all returned rows satisfy the predicate and no row appears twice.
    let db = Database::new();
    db.execute("CREATE TABLE churn (k INT, tag TEXT)").unwrap();
    let t = db.catalog().get_table("churn").unwrap();
    t.insert_many(
        (0..12_000i64)
            .map(|i| vec![Value::Int(i), Value::from(if i % 2 == 0 { "even" } else { "odd" })])
            .collect(),
    )
    .unwrap();
    db.set_exec_threads(stress_threads(4));
    let db = Arc::new(db);
    let mut handles = Vec::new();
    for w in 0..2i64 {
        let db = Arc::clone(&db);
        handles.push(thread::spawn(move || {
            for i in 0..stress_iters(60) as i64 {
                db.execute(&format!(
                    "INSERT INTO churn VALUES ({}, 'extra')",
                    100_000 + w * 1_000_000 + i
                ))
                .unwrap();
                if i % 5 == 0 {
                    db.execute(&format!(
                        "DELETE FROM churn WHERE k = {}",
                        100_000 + w * 1_000_000 + i - 3
                    ))
                    .unwrap();
                }
            }
        }));
    }
    for _ in 0..3 {
        let db = Arc::clone(&db);
        handles.push(thread::spawn(move || {
            for _ in 0..stress_iters(30) {
                let rs = db
                    .query("SELECT k, tag FROM churn WHERE tag = 'even'")
                    .unwrap();
                let mut seen = std::collections::HashSet::new();
                for row in &rs.rows {
                    assert_eq!(row[1], Value::from("even"));
                    let Value::Int(k) = row[0] else { panic!("expected Int") };
                    assert!(seen.insert(k), "row {k} returned twice in one scan");
                }
                assert_eq!(rs.rows.len(), 6_000, "all 6000 even rows, exactly");
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
}

#[test]
fn parallel_session_queries_under_kb_writer() {
    // The full stack with a worker pool: SESQL enrichment + SPARQL legs on
    // a multi-threaded engine while the KB takes writes.
    let engine = crosse::smartground::standard_engine(&SmartGroundConfig::tiny(), "director")
        .unwrap();
    engine.set_exec_threads(stress_threads(4));
    let engine = Arc::new(engine);
    let writer = {
        let engine = Arc::clone(&engine);
        thread::spawn(move || {
            let kb = engine.knowledge_base();
            for i in 0..stress_iters(50) {
                kb.assert_statement(
                    "director",
                    &Triple::new(
                        Term::iri(format!("ParExtra{i}")),
                        Term::iri("dangerLevel"),
                        Term::lit("3"),
                    ),
                )
                .unwrap();
            }
        })
    };
    let mut readers = Vec::new();
    for _ in 0..3 {
        let engine = Arc::clone(&engine);
        readers.push(thread::spawn(move || {
            for _ in 0..stress_iters(15) {
                let r = engine
                    .execute(
                        "director",
                        "SELECT elem_name FROM elem_contained \
                         ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)",
                    )
                    .unwrap();
                assert!(r.rows.len() >= r.report.base_rows);
            }
        }));
    }
    writer.join().unwrap();
    for r in readers {
        r.join().unwrap();
    }
}

/// Lock-order and blocking-region analysis: these tests drive the
/// parking_lot shim's acquisition tracker, so they exist only in debug
/// builds (the tracker compiles out of release — `cargo xtask stress`
/// runs its release rounds without them and a dedicated debug round with
/// `CROSSE_LOCK_TRACK=1` for the gate below).
#[cfg(debug_assertions)]
mod lock_tracking {
    use super::*;
    use parking_lot::tracking::{self, Violation};
    use parking_lot::Mutex;

    /// Tracking state (the enabled flag, the order graph, the violation
    /// list) is process-global; tests that flip or assert on it take this
    /// serializer. Deliberately a raw std mutex: the serializer itself
    /// must not join the acquisition graph under test.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());
        SERIAL.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Does this violation involve any sabotage-labelled site (injected
    /// by the tests below) — as opposed to real engine locks?
    fn is_sabotage(v: &Violation) -> bool {
        match v {
            Violation::Order(o) => {
                o.held.starts_with("sabotage.")
                    || o.acquiring.starts_with("sabotage.")
                    || o.cycle.iter().any(|s| s.starts_with("sabotage."))
            }
            Violation::HeldAcrossBlocking { region, locks } => {
                region.starts_with("sabotage.")
                    || locks.iter().any(|l| l.starts_with("sabotage."))
            }
        }
    }

    /// Sabotage: thread 1 acquires A then B, thread 2 acquires B then A.
    /// No real deadlock occurs (the threads are sequenced), but the
    /// acquisition-order graph must report the inversion.
    #[test]
    fn sabotage_inversion_two_threads_is_detected() {
        let _s = serial();
        tracking::set_enabled(true);
        let a = Arc::new(Mutex::new_labeled("sabotage.inv_a", 0u32));
        let b = Arc::new(Mutex::new_labeled("sabotage.inv_b", 0u32));

        let (t1_done_tx, t1_done_rx) = std::sync::mpsc::channel::<()>();
        let t1 = {
            let (a, b) = (Arc::clone(&a), Arc::clone(&b));
            thread::spawn(move || {
                let ga = a.lock();
                let gb = b.lock(); // establishes the edge inv_a -> inv_b
                drop((ga, gb));
                t1_done_tx.send(()).unwrap();
            })
        };
        t1_done_rx.recv().unwrap();
        let t2 = {
            let (a, b) = (Arc::clone(&a), Arc::clone(&b));
            thread::spawn(move || {
                let gb = b.lock();
                let ga = a.lock(); // closes the cycle: inv_b -> inv_a
                drop((gb, ga));
            })
        };
        t1.join().unwrap();
        t2.join().unwrap();

        let hit = tracking::violations().into_iter().any(|v| match v {
            Violation::Order(o) => {
                (o.held == "sabotage.inv_b" && o.acquiring == "sabotage.inv_a")
                    || (o.held == "sabotage.inv_a" && o.acquiring == "sabotage.inv_b")
            }
            _ => false,
        });
        assert!(hit, "the A->B / B->A inversion went undetected");
    }

    /// Sabotage: enter a blocking region while holding an unexpected
    /// lock — the declared-IO analysis must flag the held lock.
    #[test]
    fn sabotage_lock_held_across_blocking_region_is_detected() {
        let _s = serial();
        tracking::set_enabled(true);
        let m = Mutex::new_labeled("sabotage.io_holder", ());
        let g = m.lock();
        let region = tracking::blocking_region("sabotage.fake_fsync");
        drop(region);
        drop(g);

        let hit = tracking::violations().into_iter().any(|v| {
            matches!(
                v,
                Violation::HeldAcrossBlocking { region, ref locks }
                    if region == "sabotage.fake_fsync"
                        && locks.contains(&"sabotage.io_holder")
            )
        });
        assert!(hit, "lock held across a blocking region went undetected");
    }

    /// Sabotage against the *real* WAL: a caller-held lock across a
    /// durable write must be flagged when the append fsyncs — the
    /// `wal.fsync` region only expects the WAL's own appender/barrier.
    #[test]
    fn sabotage_lock_held_across_real_wal_fsync_is_detected() {
        let _s = serial();
        tracking::set_enabled(true);
        let dir = std::env::temp_dir().join(format!(
            "crosse-locktrack-fsync-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let engine = SesqlEngine::open_with(
            &dir,
            crosse::core::WalOptions { sync: crosse::core::SyncPolicy::Always },
        )
        .unwrap();
        let db = engine.database();
        db.execute("CREATE TABLE t (n INT)").unwrap();

        let m = Mutex::new_labeled("sabotage.wal_holder", ());
        let g = m.lock();
        db.execute("INSERT INTO t VALUES (1)").unwrap();
        drop(g);
        drop(engine);
        let _ = std::fs::remove_dir_all(&dir);

        let hit = tracking::violations().into_iter().any(|v| {
            matches!(
                v,
                Violation::HeldAcrossBlocking { region, ref locks }
                    if region == "wal.fsync" && locks.contains(&"sabotage.wal_holder")
            )
        });
        assert!(hit, "a lock held across a real WAL fsync went undetected");
    }

    /// The regression gate `cargo xtask stress` runs in its debug round:
    /// after a mixed engine workload (relational DML + enrichment +
    /// durable writes + parallel scans), the tracker must have recorded
    /// no violation among *real* engine locks. Sabotage-labelled
    /// violations injected by the tests above are filtered out.
    #[test]
    fn lock_order_gate_engine_workload_runs_clean() {
        let _s = serial();
        tracking::set_enabled(true);

        // Durable leg: WAL + checkpoint rotation under group commit.
        let dir = std::env::temp_dir().join(format!(
            "crosse-locktrack-gate-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let engine = SesqlEngine::open_with(
                &dir,
                crosse::core::WalOptions { sync: crosse::core::SyncPolicy::EveryN(4) },
            )
            .unwrap();
            let db = engine.database();
            db.execute("CREATE TABLE gate (n INT, s TEXT)").unwrap();
            for i in 0..stress_iters(40) {
                db.execute(&format!("INSERT INTO gate VALUES ({i}, 'v{i}')")).unwrap();
            }
            engine.checkpoint().unwrap();
            assert_eq!(db.query("SELECT COUNT(*) AS c FROM gate").unwrap().len(), 1);
        }
        let _ = std::fs::remove_dir_all(&dir);

        // Enrichment leg: SESQL across the relational + RDF substrates,
        // concurrent readers against a KB writer.
        let engine = standard_engine(&SmartGroundConfig::tiny(), "director").unwrap();
        engine.set_exec_threads(stress_threads(4));
        let engine = Arc::new(engine);
        let writer = {
            let engine = Arc::clone(&engine);
            thread::spawn(move || {
                let kb = engine.knowledge_base();
                for i in 0..stress_iters(10) {
                    kb.assert_statement(
                        "director",
                        &Triple::new(
                            Term::iri(format!("GateExtra{i}")),
                            Term::iri("dangerLevel"),
                            Term::lit("2"),
                        ),
                    )
                    .unwrap();
                }
            })
        };
        let mut readers = Vec::new();
        for _ in 0..2 {
            let engine = Arc::clone(&engine);
            readers.push(thread::spawn(move || {
                for _ in 0..stress_iters(5) {
                    engine
                        .execute(
                            "director",
                            "SELECT elem_name FROM elem_contained \
                             ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)",
                        )
                        .unwrap();
                }
            }));
        }
        writer.join().unwrap();
        for r in readers {
            r.join().unwrap();
        }

        let real: Vec<String> = tracking::violations()
            .iter()
            .filter(|v| !is_sabotage(v))
            .map(|v| v.to_string())
            .collect();
        assert!(
            real.is_empty(),
            "engine workload produced lock-order/blocking violations:\n{}",
            real.join("\n")
        );

        // The workload above must also have fed the per-site counters —
        // `\lock-stats` has something to show.
        let stats = tracking::stats();
        assert!(
            stats.iter().any(|s| s.site == "table.rows" && s.acquisitions > 0),
            "lock stats recorded no table.rows acquisitions: {stats:?}"
        );
    }
}

/// Tracking must be semantics-neutral: the same workload produces the
/// same rows whether the acquisition tracker is on or off. (Debug builds
/// only — in release the tracker does not exist to toggle.)
#[cfg(debug_assertions)]
mod tracking_neutrality {
    use crosse::relational::Database;
    use proptest::prelude::*;

    fn run_workload(values: &[i64], tracked: bool) -> Vec<String> {
        parking_lot::tracking::set_enabled(tracked);
        let db = Database::new();
        db.execute("CREATE TABLE t (n INT)").unwrap();
        for v in values {
            db.execute(&format!("INSERT INTO t VALUES ({v})")).unwrap();
        }
        let mut out = Vec::new();
        for sql in [
            "SELECT n FROM t ORDER BY n",
            "SELECT COUNT(*) AS c, SUM(n) AS s FROM t",
            "SELECT DISTINCT n FROM t ORDER BY n DESC LIMIT 5",
        ] {
            for row in db.query(sql).unwrap().rows.iter() {
                out.push(format!("{row:?}"));
            }
        }
        out
    }

    proptest! {
        #[test]
        fn tracked_equals_untracked(values in proptest::collection::vec(-50i64..50, 0..20)) {
            let untracked = run_workload(&values, false);
            let tracked = run_workload(&values, true);
            parking_lot::tracking::set_enabled(true);
            prop_assert_eq!(tracked, untracked);
        }
    }
}
