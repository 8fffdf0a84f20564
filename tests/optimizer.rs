//! The plan-rewrite optimizer layer: pass toggles, limit pushdown
//! semantics (asserted through the scanned-rows counter), shared-subplan
//! spooling, and property tests that every pass subset is result-
//! equivalent to the unoptimized plan.

use proptest::prelude::*;

use crosse::relational::{Database, OptimizerConfig, Row, Value};

/// Two small tables with duplicate rows, NULL join keys, both zeros in
/// the FLOAT column, and integral floats that an INT key can match.
/// `t1.a` (INT), `t1.c` (FLOAT) and `t2.e` (TEXT, with NULLs) are indexed,
/// so the optimized side of every comparison answers a sargable conjunct
/// with an index scan and the unoptimized side with a filtered scan.
fn db_two_tables() -> Database {
    let db = Database::new();
    db.execute_script(
        "CREATE TABLE t1 (a INT, b TEXT, c FLOAT);
         CREATE TABLE t2 (d INT, e TEXT);
         CREATE INDEX t1_a ON t1 (a);
         CREATE INDEX t1_c ON t1 (c);
         CREATE INDEX t2_e ON t2 (e);",
    )
    .unwrap();
    let t1 = db.catalog().get_table("t1").unwrap();
    let t2 = db.catalog().get_table("t2").unwrap();
    let tags = ["x", "y", "z", "x", "w"];
    let mut rows = Vec::new();
    for i in 0i64..200 {
        let c = (i % 7) as f64 * 1.5;
        let row = vec![
            if i % 17 == 16 { Value::Null } else { Value::Int(i % 23) },
            if i % 11 == 0 { Value::Null } else { Value::from(tags[(i % 5) as usize]) },
            Value::Float(if c == 0.0 && i % 2 == 1 { -0.0 } else { c }),
        ];
        if i % 10 == 0 {
            rows.push(row.clone());
        }
        rows.push(row);
    }
    t1.insert_many(rows).unwrap();
    let mut rows = Vec::new();
    for i in 0i64..120 {
        let row = vec![
            if i % 29 == 28 { Value::Null } else { Value::Int(i % 19) },
            if i % 13 == 0 { Value::Null } else { Value::from(tags[(i % 4) as usize]) },
        ];
        if i % 8 == 0 {
            rows.push(row.clone());
        }
        rows.push(row);
    }
    t2.insert_many(rows).unwrap();
    db
}

/// Run `sql` under `cfg` and return the result rows.
fn run_with(db: &Database, cfg: OptimizerConfig, sql: &str) -> Vec<Row> {
    db.set_optimizer_config(cfg);
    let out = db.query(sql).unwrap_or_else(|e| panic!("{sql}: {e}")).rows;
    db.set_optimizer_config(OptimizerConfig::default());
    out
}

fn explain(db: &Database, sql: &str) -> String {
    let rs = db.query(&format!("EXPLAIN {sql}")).unwrap();
    rs.rows
        .iter()
        .map(|r| r[0].lexical_form())
        .collect::<Vec<_>>()
        .join("\n")
}

// ---- limit pushdown --------------------------------------------------------

#[test]
fn limit_sinks_below_project_and_into_union_all_members() {
    let db = db_two_tables();
    let text = explain(
        &db,
        "SELECT a FROM t1 UNION ALL SELECT d FROM t2 LIMIT 3 OFFSET 2",
    );
    // Pass fired and the member caps sit below the member projections.
    assert!(text.contains("limit-pushdown"), "{text}");
    let union_at = text.find("UnionAll").expect("union in plan");
    let inner_limit = text[union_at..].find("Limit: limit=Some(5)");
    assert!(
        inner_limit.is_some(),
        "members should be capped at limit+offset:\n{text}"
    );
}

#[test]
fn limit_over_projected_union_stops_member_scans_early() {
    let db = Database::new();
    db.execute_script("CREATE TABLE big1 (x INT); CREATE TABLE big2 (y INT);").unwrap();
    for name in ["big1", "big2"] {
        let t = db.catalog().get_table(name).unwrap();
        t.insert_many((0..50_000).map(|i| vec![Value::Int(i)]).collect())
            .unwrap();
    }
    let mut cur = db
        .query_cursor("SELECT x + 1 FROM big1 UNION ALL SELECT y + 1 FROM big2 LIMIT 5")
        .unwrap();
    let mut n = 0;
    while let Some(r) = cur.next_row() {
        r.unwrap();
        n += 1;
    }
    assert_eq!(n, 5);
    let scanned = cur.rows_scanned();
    assert!(
        scanned < 5_000,
        "LIMIT 5 over two projected 50k members scanned {scanned} rows"
    );
}

#[test]
fn limit_offset_over_union_all_matches_unoptimized() {
    let db = db_two_tables();
    let sql = "SELECT b FROM t1 UNION ALL SELECT e FROM t2 LIMIT 7 OFFSET 5";
    let optimized = run_with(&db, OptimizerConfig::default(), sql);
    let plain = run_with(&db, OptimizerConfig::none(), sql);
    assert_eq!(optimized, plain);
}

// ---- shared subplans -------------------------------------------------------

#[test]
fn self_join_scans_base_table_once_through_spool() {
    let db = Database::new();
    db.execute("CREATE TABLE big (x INT, t TEXT)").unwrap();
    let t = db.catalog().get_table("big").unwrap();
    t.insert_many(
        (0..10_000)
            .map(|i| vec![Value::Int(i % 97), Value::from("k")])
            .collect(),
    )
    .unwrap();
    // Both union members scan `big` twice each; the spool makes the heap
    // fetch happen once, and the scanned counter proves it.
    let sql = "SELECT e1.x FROM big e1, big e2 WHERE e1.x = e2.x AND e1.t <> e2.t \
               UNION ALL SELECT e1.x FROM big e1, big e2 WHERE e1.x = e2.x AND e1.t <> e2.t";
    let text = explain(&db, sql);
    assert!(text.contains("Shared spool #"), "{text}");
    assert!(text.contains("-- cse:"), "{text}");

    let mut cur = db.query_cursor(sql).unwrap();
    while let Some(r) = cur.next_row() {
        r.unwrap();
    }
    assert_eq!(
        cur.rows_scanned(),
        10_000,
        "four structurally-equal scans must fetch the heap exactly once"
    );
}

/// Every consumer of one shared leaf reads one snapshot: a write that
/// lands after the cursor opens, before its second UNION member starts,
/// is seen by neither member, and the shared leaf is charged once.
#[test]
fn shared_leaf_gives_every_consumer_one_snapshot() {
    let leaves = [
        ("SeqScan", "", 60),
        ("IndexScan", " AND x.b = 1 AND y.b = 1", 12),
    ];
    for (leaf, narrow, scanned) in leaves {
        let db = Database::new();
        db.execute_script("CREATE TABLE t (k INT, b INT); CREATE INDEX t_b ON t (b);").unwrap();
        let rows = (0..60).map(|i| vec![Value::Int(i), Value::Int(i % 5)]).collect();
        db.catalog().get_table("t").unwrap().insert_many(rows).unwrap();
        let sql = format!(
            "SELECT x.k, y.k FROM t x, t y WHERE x.k = y.k{narrow} \
             UNION ALL SELECT x.k, y.k FROM t x, t y WHERE x.k = y.b{narrow}"
        );
        let text = explain(&db, &sql);
        assert!(text.contains("Shared spool #0\n")
            && text.matches("Shared spool #0 (reused)").count() == 3
            && text.contains(leaf), "{text}");
        let before = sorted(db.query(&sql).unwrap().rows);

        let mut cur = db.query_cursor(&sql).unwrap();
        let mut got = vec![cur.next_row().unwrap().unwrap()];
        // Rows the second member would join, and a row both would have.
        db.execute("INSERT INTO t VALUES (1, 1), (2, 1), (3, 1), (61, 1)").unwrap();
        db.execute("DELETE FROM t WHERE k = 6 OR k = 1").unwrap();
        while let Some(row) = cur.next_row() {
            got.push(row.unwrap());
        }
        assert_eq!(sorted(got), before, "{leaf}: a consumer saw a later write");
        assert_eq!(cur.rows_scanned(), scanned, "{leaf}: the shared leaf is charged once");
    }
}

#[test]
fn shared_spool_results_match_unshared() {
    let db = db_two_tables();
    let sql = "SELECT b FROM t1 WHERE a > 5 UNION SELECT b FROM t1 WHERE a > 5";
    let optimized = run_with(&db, OptimizerConfig::default(), sql);
    let plain = run_with(&db, OptimizerConfig::none(), sql);
    assert_eq!(optimized, plain);
}

#[test]
fn optimizer_config_toggles_are_independent() {
    let db = db_two_tables();
    let sql = "SELECT a FROM t1 UNION ALL SELECT d FROM t2 LIMIT 3";
    // CSE off, limit on: no spool note, limit note present.
    db.set_optimizer_config(OptimizerConfig {
        shared_subplans: false,
        ..OptimizerConfig::default()
    });
    let text = explain(&db, "SELECT x.b FROM t1 x, t1 y WHERE x.a = y.a");
    assert!(!text.contains("Shared spool"), "{text}");
    // Dedup pushdown off, everything else on: the statement it would
    // rewrite keeps its DISTINCT on top and gets no note.
    let distinct = "SELECT DISTINCT t1.a, t2.e FROM t1, t2 WHERE t1.a = t2.d";
    db.set_optimizer_config(OptimizerConfig {
        dedup_pushdown: false,
        ..OptimizerConfig::default()
    });
    let text = explain(&db, distinct);
    assert!(!text.contains("dedup_pushdown"), "{text}");
    assert!(text.starts_with("Distinct"), "{text}");
    db.set_optimizer_config(OptimizerConfig::none());
    let text = explain(&db, sql);
    assert!(!text.contains("--"), "no pass may fire when disabled:\n{text}");
    db.set_optimizer_config(OptimizerConfig::default());
    let text = explain(&db, distinct);
    assert!(text.contains("-- dedup_pushdown:"), "{text}");
}

// ---- dedup pushdown ----------------------------------------------------------

#[test]
fn dedup_pushdown_fires_on_covered_joins_and_respects_its_guards() {
    let db = db_two_tables();
    let fires = [
        "SELECT DISTINCT t1.a, t2.e FROM t1, t2 WHERE t1.a = t2.d",
        "SELECT DISTINCT t1.c, t2.e FROM t1, t2 WHERE t1.c = t2.d",
        "SELECT t1.a, t2.e FROM t1, t2 WHERE t1.a = t2.d \
         UNION SELECT t1.a, x.b FROM t1, t1 x WHERE t1.a = x.a",
    ];
    for sql in fires {
        let text = explain(&db, sql);
        assert!(text.contains("-- dedup_pushdown:"), "{sql}:\n{text}");
        assert!(text.starts_with("Project"), "no dedup above the join:\n{text}");
    }
    let refused = [
        // t1.a is a key equated with t2.d, and neither is projected.
        "SELECT DISTINCT t1.b, t2.e FROM t1 JOIN t2 ON t1.a = t2.d",
        // Only one join input is filtered.
        "SELECT DISTINCT t1.a, t2.e FROM t1, t2 WHERE t1.a = t2.d AND t1.a > 5",
        "SELECT t1.a, t2.e FROM t1, t2 WHERE t1.a = t2.d AND t1.a > 5 \
         UNION SELECT t1.a, x.b FROM t1, t1 x WHERE t1.a = x.a AND t1.a > 5",
        // Beneath a LIMIT.
        "SELECT DISTINCT t1.a, t2.e FROM t1, t2 WHERE t1.a = t2.d LIMIT 4",
    ];
    for sql in refused {
        let text = explain(&db, sql);
        assert!(!text.contains("dedup_pushdown"), "{sql}:\n{text}");
    }
}

// ---- access paths and subqueries -------------------------------------------

/// Access-path choice is a pass of its own: the unoptimized plan scans
/// every table and ships nothing, so the oracle above checks the index
/// scans and the shipped conjuncts the default passes pick.
#[test]
fn access_paths_are_chosen_only_by_filter_pushdown() {
    use crosse::relational::foreign::LocalSource;
    let db = db_two_tables();
    let source = Database::new();
    source
        .execute_script("CREATE TABLE s (k INT, v TEXT); INSERT INTO s VALUES (1, 'x'), (2, 'y');")
        .unwrap();
    db.register_source(std::sync::Arc::new(LocalSource::new("src", source))).unwrap();
    let statements = [
        "SELECT b FROM t1 WHERE a = 3",
        "SELECT d FROM t2 WHERE 'x' <= e AND d > 2",
        "SELECT t1.b, t2.d FROM t1, t2 WHERE t1.a = t2.d AND t1.c BETWEEN 1 AND 3",
        "SELECT t1.b, s.v FROM t1 JOIN src__s s ON t1.a = s.k WHERE s.v = 'x' AND t1.a IN (1, 2)",
    ];
    for (cfg, chosen) in [(OptimizerConfig::none(), false), (OptimizerConfig::default(), true)] {
        db.set_optimizer_config(cfg);
        for sql in statements {
            let text = explain(&db, sql);
            assert_eq!(text.contains("IndexScan"), chosen, "{sql}:\n{text}");
        }
        let text = explain(&db, statements[3]);
        assert_eq!(
            text.contains("(remote: SELECT * FROM s WHERE (v = 'x'))"),
            chosen,
            "{text}"
        );
        assert_eq!(text.contains("(remote: SELECT * FROM s)"), !chosen, "{text}");
    }
    db.set_optimizer_config(OptimizerConfig::default());
}

#[test]
fn reversed_between_on_an_indexed_column_matches_nothing() {
    // An index range probe panics on a range that ends before it starts.
    let db = db_two_tables();
    for cfg in [OptimizerConfig::none(), OptimizerConfig::default()] {
        assert!(run_with(&db, cfg, "SELECT a FROM t1 WHERE c BETWEEN 5 AND 2").is_empty());
    }
    assert!(explain(&db, "SELECT a FROM t1 WHERE c BETWEEN 5 AND 2").contains("(eq, 0 key(s))"));
}

/// A subquery runs while its statement is planned, through the passes and
/// the validator the statement itself gets: a limit pushdown sabotaged
/// inside the subquery of a SELECT or a DELETE is caught and named.
#[test]
fn subquery_bodies_run_the_configured_passes() {
    use crosse::relational::opt::Sabotage;
    let db = db_two_tables();
    let sql = "SELECT a FROM t1 WHERE b IN (SELECT e FROM t2 UNION ALL SELECT b FROM t1 LIMIT 3)";
    let want = run_with(&db, OptimizerConfig::none(), sql);
    assert_eq!(sorted(run_with(&db, OptimizerConfig::default(), sql)), sorted(want));
    db.set_optimizer_config(OptimizerConfig {
        validate: true,
        sabotage: Sabotage::WidenLimit,
        ..OptimizerConfig::default()
    });
    for statement in [sql, "DELETE FROM t2 WHERE e IN (SELECT b FROM t1 LIMIT 2)"] {
        let err = db.execute(statement).unwrap_err();
        assert!(err.to_string().contains("limit_pushdown"), "{statement}: {err}");
    }
    db.set_optimizer_config(OptimizerConfig::default());
}

// ---- equivalence property tests --------------------------------------------

/// Every subset of passes worth distinguishing, all with the plan-
/// invariant validator explicitly on: every property-test query also
/// asserts that no pass trips a structural invariant.
fn configs() -> Vec<OptimizerConfig> {
    vec![
        OptimizerConfig { validate: true, ..OptimizerConfig::none() },
        OptimizerConfig { filter_pushdown: true, validate: true, ..OptimizerConfig::none() },
        OptimizerConfig { prune_projections: true, validate: true, ..OptimizerConfig::none() },
        OptimizerConfig { dedup_pushdown: true, validate: true, ..OptimizerConfig::none() },
        OptimizerConfig { limit_pushdown: true, validate: true, ..OptimizerConfig::none() },
        OptimizerConfig { shared_subplans: true, validate: true, ..OptimizerConfig::none() },
        OptimizerConfig { validate: true, ..OptimizerConfig::default() },
    ]
}

// ---- plan-invariant validator ----------------------------------------------

/// Injected-bug tests: a deliberately broken pass (via the test-only
/// sabotage hook) must be caught by the validator, with the error naming
/// the offending pass.
#[test]
fn validator_catches_sabotaged_limit_pushdown() {
    use crosse::relational::opt::Sabotage;
    let db = db_two_tables();
    db.set_optimizer_config(OptimizerConfig {
        validate: true,
        sabotage: Sabotage::WidenLimit,
        ..OptimizerConfig::default()
    });
    let err = db.query("SELECT a FROM t1 LIMIT 2").unwrap_err();
    assert!(
        err.to_string().contains("limit_pushdown"),
        "error should name the broken pass: {err}"
    );
    db.set_optimizer_config(OptimizerConfig::default());
}

#[test]
fn validator_catches_sabotaged_projection_pruning() {
    use crosse::relational::opt::Sabotage;
    let db = db_two_tables();
    db.set_optimizer_config(OptimizerConfig {
        validate: true,
        sabotage: Sabotage::DropProjectColumn,
        ..OptimizerConfig::default()
    });
    let err = db.query("SELECT a, b FROM t1 WHERE a > 3").unwrap_err();
    assert!(
        err.to_string().contains("prune_projections"),
        "error should name the broken pass: {err}"
    );
    db.set_optimizer_config(OptimizerConfig::default());
}

#[test]
fn validator_catches_sabotaged_dedup_pushdown() {
    use crosse::relational::opt::Sabotage;
    let db = db_two_tables();
    db.set_optimizer_config(OptimizerConfig {
        validate: true,
        sabotage: Sabotage::DropDistinct,
        ..OptimizerConfig::default()
    });
    let err = db.query("SELECT DISTINCT b, a FROM t1").unwrap_err();
    assert!(
        err.to_string().contains("dedup_pushdown"),
        "error should name the broken pass: {err}"
    );
    db.set_optimizer_config(OptimizerConfig::default());
}

/// With validation off the sabotaged pass slips through and corrupts the
/// result — proof the injected bug is real (and that release builds,
/// where `validate` defaults off, rely on the debug gate having run).
#[test]
fn sabotage_is_a_real_bug_without_validation() {
    use crosse::relational::opt::Sabotage;
    let db = db_two_tables();
    db.set_optimizer_config(OptimizerConfig {
        validate: false,
        sabotage: Sabotage::WidenLimit,
        ..OptimizerConfig::default()
    });
    let rows = db.query("SELECT a FROM t1 LIMIT 2").unwrap().rows;
    assert_eq!(rows.len(), 3, "WidenLimit should leak one extra row");
    db.set_optimizer_config(OptimizerConfig::default());
}

/// A comparison operator, and the one that means the same with its
/// operands swapped.
fn arb_cmp() -> impl Strategy<Value = (&'static str, &'static str)> {
    prop_oneof![
        Just(("=", "=")),
        Just(("<", ">")),
        Just(("<=", ">=")),
        Just((">", "<")),
        Just((">=", "<=")),
    ]
}

/// A conjunct an index on `t1.a` or `t1.c` can answer: a comparison with
/// the literal on either side, IN, BETWEEN, a NULL literal, an INT literal
/// against the FLOAT column (whose zeros are both signs), or IN over a
/// subquery, which is planned into a literal list.
fn arb_sargable_t1() -> impl Strategy<Value = String> {
    prop_oneof![
        (prop_oneof![Just("a"), Just("c")], arb_cmp(), -1i64..25, any::<bool>()).prop_map(
            |(col, (op, flipped), n, swap)| {
                if swap {
                    format!("{n} {flipped} {col}")
                } else {
                    format!("{col} {op} {n}")
                }
            }
        ),
        (0i64..25, 0i64..25).prop_map(|(x, y)| format!("a IN ({x}, {y}, NULL)")),
        (0i64..10, 0i64..10).prop_map(|(x, y)| format!("c BETWEEN {x} AND {y}.5")),
        (prop_oneof![Just("a"), Just("c")], arb_cmp())
            .prop_map(|(col, (op, _))| format!("{col} {op} NULL")),
        (0i64..10).prop_map(|n| format!("c IN ({n}, 1.5, -0.0)")),
        "[wxyz]".prop_map(|s| format!("a IN (SELECT d FROM t2 WHERE e = '{s}')")),
    ]
}

/// A conjunct an index on the TEXT column `t2.e`, which holds NULLs, can
/// answer.
fn arb_sargable_t2() -> impl Strategy<Value = String> {
    prop_oneof![
        (arb_cmp(), "[wxyz]", any::<bool>()).prop_map(|((op, flipped), s, swap)| {
            if swap {
                format!("'{s}' {flipped} e")
            } else {
                format!("e {op} '{s}'")
            }
        }),
        ("[wxyz]", "[wxyz]").prop_map(|(x, y)| format!("e IN ('{x}', NULL, '{y}')")),
        ("[wx]", "[yz]").prop_map(|(x, y)| format!("e BETWEEN '{x}' AND '{y}'")),
        Just("e = NULL".to_string()),
    ]
}

/// A generated SELECT core over t1/t2 that is type-correct by
/// construction (comparisons stay within one column's type, or compare
/// an INT literal with the FLOAT column).
fn arb_core() -> impl Strategy<Value = String> {
    let filter = prop_oneof![
        Just(String::new()),
        (0i64..25).prop_map(|n| format!(" WHERE a > {n}")),
        "[wxyz]".prop_map(|s| format!(" WHERE b = '{s}'")),
        (0i64..25, "[wxyz]").prop_map(|(n, s)| format!(" WHERE a < {n} AND b <> '{s}'")),
        (0i64..10).prop_map(|n| format!(" WHERE c >= {n}.0 OR b IS NULL")),
        arb_sargable_t1().prop_map(|c| format!(" WHERE {c}")),
        (arb_sargable_t1(), arb_sargable_t1()).prop_map(|(x, y)| format!(" WHERE {x} AND {y}")),
        (arb_sargable_t1(), "[wxyz]").prop_map(|(c, s)| format!(" WHERE b <> '{s}' AND {c}")),
    ];
    // Single-table shapes take the random filter; join shapes carry
    // their own complete WHERE (extra unqualified conjuncts would be
    // ambiguous across the join).
    prop_oneof![
        (
            prop_oneof![
                Just("SELECT a, b FROM t1"),
                Just("SELECT b, a + 1 FROM t1"),
                Just("SELECT DISTINCT b, a FROM t1"),
            ],
            filter,
        )
            .prop_map(|(shape, filter)| format!("{shape}{filter}")),
        arb_sargable_t2().prop_map(|c| format!("SELECT d, e FROM t2 WHERE {c}")),
        (arb_sargable_t1(), arb_sargable_t2()).prop_map(|(x, y)| {
            // Both columns of a conjunct come from one table, so the
            // unqualified names bind against the join unambiguously.
            format!("SELECT t1.a, t2.e FROM t1 LEFT JOIN t2 ON t1.a = t2.d WHERE {x} AND {y}")
        }),
        prop_oneof![
            Just("SELECT t1.a, t2.e FROM t1, t2 WHERE t1.a = t2.d".to_string()),
            // Dedup pushdown fires on these two (the second on an INT key
            // matching a FLOAT), refuses the next two: an uncovered key,
            // and a filter on one join input only.
            Just("SELECT DISTINCT t1.a, t2.e FROM t1, t2 WHERE t1.a = t2.d".to_string()),
            Just("SELECT DISTINCT t1.c, t2.e FROM t1, t2 WHERE t1.c = t2.d".to_string()),
            Just("SELECT DISTINCT t1.b, t2.e FROM t1 JOIN t2 ON t1.a = t2.d".to_string()),
            Just(
                "SELECT DISTINCT t1.a, t2.e FROM t1, t2 WHERE t1.a = t2.d AND t1.a > 5"
                    .to_string()
            ),
            Just(
                "SELECT t1.b, t2.e FROM t1 JOIN t2 ON t1.b = t2.e WHERE t1.a > 3"
                    .to_string()
            ),
            Just(
                "SELECT x.a, y.b FROM t1 x, t1 y WHERE x.a = y.a AND x.c > y.c"
                    .to_string()
            ),
        ],
    ]
}

/// Optional ORDER BY / LIMIT / OFFSET suffix.
fn arb_tail() -> impl Strategy<Value = String> {
    prop_oneof![
        Just(String::new()),
        Just(" ORDER BY 1".to_string()),
        (1u64..8).prop_map(|k| format!(" LIMIT {k}")),
        (1u64..8, 0u64..4).prop_map(|(k, o)| format!(" ORDER BY 1, 2 LIMIT {k} OFFSET {o}")),
    ]
}

/// A two-column core suitable as a UNION member.
fn arb_member() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("SELECT a, b FROM t1".to_string()),
        Just("SELECT d, e FROM t2".to_string()),
        Just("SELECT a, b FROM t1 WHERE a > 7".to_string()),
        Just("SELECT t1.a, t2.e FROM t1, t2 WHERE t1.a = t2.d".to_string()),
        // Joins sharing t1 on one key, with the line above: a UNION of two
        // of them factors over t1. The filtered pair shares a filtered t1,
        // which the guard refuses.
        Just("SELECT t1.a, x.b FROM t1, t1 x WHERE t1.a = x.a".to_string()),
        Just("SELECT t1.a, t2.e FROM t1, t2 WHERE t1.a = t2.d AND t1.a > 5".to_string()),
        Just("SELECT t1.a, x.b FROM t1, t1 x WHERE t1.a = x.a AND t1.a > 5".to_string()),
    ]
}

/// A full statement: one core, optionally UNION/UNION ALL another core of
/// the same arity, optionally ORDER BY / LIMIT.
fn arb_query() -> impl Strategy<Value = String> {
    prop_oneof![
        (arb_core(), arb_tail()).prop_map(|(core, tail)| format!("{core}{tail}")),
        (
            arb_member(),
            prop_oneof![Just("UNION"), Just("UNION ALL")],
            arb_member(),
            arb_tail(),
        )
            .prop_map(|(a, u, b, tail)| format!("{a} {u} {b}{tail}")),
    ]
}

/// `rows` as a sorted multiset.
fn sorted(mut rows: Vec<Row>) -> Vec<Row> {
    rows.sort();
    rows
}

proptest! {
    /// Optimized execution returns the unoptimized plan's rows, for every
    /// pass subset — the passes are pure plan rewrites. Dedup pushdown
    /// reorders rows whose order SQL leaves undefined, so a statement
    /// without an ORDER BY over every output column (every generated
    /// statement has two) is compared as a multiset; the rest row for row.
    #[test]
    fn optimized_equals_unoptimized(sql in arb_query()) {
        let db = db_two_tables();
        let fully_ordered = sql.contains(" ORDER BY 1, 2");
        let baseline = run_with(&db, OptimizerConfig::none(), &sql);
        for cfg in configs() {
            let got = run_with(&db, cfg, &sql);
            if fully_ordered {
                prop_assert_eq!(&got, &baseline, "config {:?} diverged on {}", cfg, sql);
            } else {
                prop_assert_eq!(
                    sorted(got),
                    sorted(baseline.clone()),
                    "config {:?} diverged on {}",
                    cfg,
                    sql
                );
            }
        }
    }
}

#[test]
fn prepared_explain_shows_optimized_plan() {
    let db = db_two_tables();
    let p = db.prepare("SELECT a FROM t1 ORDER BY a LIMIT 2").unwrap();
    let text = p.explain().unwrap();
    assert!(text.contains("SeqScan: t1"), "{text}");
    // A parameterised statement explains too: its parameter is a slot of
    // a Bind root, filled when a cursor opens.
    let p = db.prepare("SELECT a FROM t1 WHERE b = $tag").unwrap();
    let text = p.explain().unwrap();
    assert!(text.starts_with("Bind: $1 = $tag\n"), "{text}");
    assert!(text.contains("Filter") || text.contains("SeqScan"), "{text}");
}
