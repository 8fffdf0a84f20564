//! The statement cache: one LRU keyed by (language, shape), where a
//! shape's comparison literals are hidden slots. Every text of a shape
//! must read back as its own parse, answer as its own parse does, warn
//! as linting its text warns, and show no slot a user could bind.

use std::sync::Arc;

use crosse::prelude::*;
use crosse::relational::sql::ast::{Select, Statement as SqlStatement};
use crosse::relational::sql::parser::parse_statement;
use crosse::relational::Row;

fn parse(sql: &str) -> Select {
    match parse_statement(sql).unwrap() {
        SqlStatement::Select(s) => *s,
        other => panic!("not a SELECT: {other:?}"),
    }
}

/// A result as a comparable value: sorted rows, or the error's text.
fn answer(rows: Result<RowSet, impl ToString>) -> Result<Vec<Row>, String> {
    rows.map(|r| {
        let mut rows = r.rows;
        rows.sort();
        rows
    })
    .map_err(|e| e.to_string())
}

#[test]
fn paper_examples_read_back_as_written_through_the_cache() {
    let engine = standard_engine(&SmartGroundConfig::tiny(), "director").unwrap();
    let db = engine.database();
    let before = engine.prepared_cache_stats();
    let landfills = ["LF00000", "LF00001", "LF00007", "LF00003"];
    for landfill in landfills {
        for q in crosse::smartground::paper_examples(landfill) {
            let p = engine.prepare(&q.sesql).unwrap();
            assert_eq!(p.query(), &parse_sesql(&q.sesql).unwrap(), "{}", q.sesql);
            assert_eq!(p.text(), q.sesql);
            let sql = db.prepare(&q.baseline_sql).unwrap();
            assert_eq!(*sql.select(), parse(&q.baseline_sql), "{}", q.baseline_sql);
        }
    }
    // One miss per shape — six SESQL ones and one per distinct SQL
    // baseline — at the first landfill; every later landfill hits.
    let stats = engine.prepared_cache_stats();
    let distinct_sql: std::collections::HashSet<String> = crosse::smartground::paper_examples("x")
        .into_iter()
        .map(|q| q.baseline_sql)
        .collect();
    let shapes = 6 + distinct_sql.len() as u64;
    assert_eq!(stats.misses - before.misses, shapes, "{stats:?}");
    assert_eq!(
        stats.hits - before.hits,
        12 * landfills.len() as u64 - shapes,
        "{stats:?}"
    );
    assert_eq!(stats.evictions, 0);
}

/// The SESQL lint fixtures of `lint_golden.rs`.
const LINT_FIXTURES: &[&str] = &[
    "SELECT name FROM landfill WHERE 1 = 2",
    "SELECT name FROM landfill WHERE city = 'Torino' AND city = 'Lyon'",
    "SELECT name FROM landfill WHERE city = 'Torino'",
    "SELECT name FROM landfill WHERE 1 = 1",
    "SELECT name FROM landfill WHERE city = city",
    "SELECT name FROM landfill WHERE city <> name",
    "SELECT name FROM landfill, elem_contained",
    "SELECT name FROM landfill, elem_contained WHERE name = landfill_name",
    "SELECT name FROM landfill WHERE city = 3",
    "SELECT DISTINCT city FROM landfill GROUP BY city",
    "SELECT city FROM landfill GROUP BY city",
    "SELECT elem_name FROM elem_contained WHERE ${amount > 10:cond1} \
     ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)",
    "SELECT elem_name FROM elem_contained WHERE ${amount > 10:cond1} \
     ENRICH REPLACEVARIABLE(cond1, elem_name, oreAssemblage)",
    "SELECT elem_name FROM elem_contained ENRICH SCHEMAEXTENSION(elem_name, noSuchProperty)",
    "SELECT elem_name FROM elem_contained WHERE ${elem_name = X:c1} \
     ENRICH REPLACECONSTANT(c1, X, dangerQuery)",
];

#[test]
fn lint_fixtures_read_back_and_warn_at_prepare_as_lint_does() {
    let engine = standard_engine(&SmartGroundConfig::tiny(), "director").unwrap();
    let session = Session::new(&engine, "director").unwrap();
    let codes = |d: &[Diagnostic]| d.iter().map(|d| d.code).collect::<Vec<_>>();
    for text in LINT_FIXTURES {
        let p = engine.prepare(text).unwrap();
        assert_eq!(p.query(), &parse_sesql(text).unwrap(), "{text}");
        // Prepare runs the rules that need no user context (E003 does)
        // and allows parameters (L006 is about binding them).
        let mut linted = codes(&session.lint(Lang::Sesql, text).unwrap());
        linted.retain(|c| !["E003", "L006"].contains(c));
        assert_eq!(codes(p.warnings()), linted, "{text}");
        // As SQL, where it is SQL: the relational rules alone.
        if let Ok(sql) = engine.database().prepare(text) {
            linted.retain(|c| c.starts_with('L'));
            assert_eq!(codes(sql.warnings()), linted, "{text}");
        }
    }
    // The one message that changes: L004's lifted literal shows as its
    // slot, since a shape is linted once for every literal it stands for.
    let p = engine
        .prepare("SELECT name FROM landfill WHERE city = 3")
        .unwrap();
    assert!(
        p.warnings()[0].message.contains("`(city = ?INTEGER)`"),
        "{:?}",
        p.warnings()
    );
}

/// The indexed corpus of `explain_golden.rs` plus comparisons whose
/// literal and column types differ, over indexed and plain columns.
const CORPUS: &[&str] = &[
    "SELECT name FROM landfill WHERE city = 'Torino'",
    "SELECT name FROM landfill WHERE city IN ('Torino', 'Lyon')",
    "SELECT name FROM landfill WHERE tons BETWEEN 10.5 AND 20.5",
    "SELECT name FROM landfill WHERE tons >= 100.5",
    "SELECT name FROM landfill WHERE 100.5 < tons",
    "SELECT name FROM landfill WHERE city = NULL",
    "SELECT name FROM landfill WHERE tons = 100",
    "SELECT name FROM landfill WHERE name LIKE 'a%' AND city = 'Torino'",
    "SELECT l.name, e.elem_name FROM landfill l, elem_contained e \
     WHERE l.name = e.landfill_name AND e.landfill_name = 'a'",
    "SELECT l.name, e.elem_name FROM landfill l \
     LEFT JOIN elem_contained e ON l.name = e.landfill_name WHERE l.city = 'Torino'",
    "SELECT l.name, e.elem_name FROM landfill l \
     LEFT JOIN elem_contained e ON l.name = e.landfill_name WHERE e.landfill_name = 'a'",
    "SELECT name FROM landfill WHERE city IN (SELECT city FROM landfill WHERE tons > 50.5)",
    "SELECT name FROM landfill WHERE EXISTS (SELECT elem_name FROM elem_contained)",
    "SELECT name FROM landfill WHERE tons >= (SELECT MAX(amount) FROM elem_contained)",
    "SELECT name FROM landfill WHERE city = 3",
    "SELECT name FROM landfill WHERE name = 3 AND tons > 1",
    "SELECT k FROM w WHERE k = 'abc'",
    "SELECT k FROM w WHERE k = '2'",
    "SELECT k FROM w WHERE k = 2.0",
    "SELECT k FROM w WHERE k >= -1 AND s <> 'x'",
    "SELECT k FROM w WHERE s = 3",
    "SELECT s FROM w WHERE -1 < k ORDER BY s LIMIT 2",
];

#[test]
fn cached_texts_explain_and_answer_as_their_own_parse_under_dml() {
    let db = Database::new();
    db.execute_script(
        "CREATE TABLE landfill (name TEXT, city TEXT, tons FLOAT);
         INSERT INTO landfill VALUES ('a', 'Torino', 12.5), ('b', 'Lyon', 100.0),
           ('c', 'Collegno', 250.0);
         CREATE INDEX idx_city ON landfill (city);
         CREATE INDEX idx_tons ON landfill (tons);
         CREATE TABLE elem_contained (elem_name TEXT, landfill_name TEXT, amount FLOAT);
         INSERT INTO elem_contained VALUES ('Hg', 'a', 12.5), ('Pb', 'a', 30.0),
           ('As', 'b', 5.2);
         CREATE INDEX idx_landfill_name ON elem_contained (landfill_name);
         CREATE TABLE w (k INT, s TEXT);
         CREATE INDEX wk ON w (k);",
    )
    .unwrap();
    let held: Vec<_> = CORPUS
        .iter()
        .map(|sql| (sql, db.prepare(sql).unwrap()))
        .collect();
    for (sql, p) in &held {
        assert_eq!(*p.select(), parse(sql), "{sql}");
        assert!(p.param_slots().is_empty(), "{sql}");
        // EXPLAIN shows the statement as written.
        let explain = db.query(&format!("EXPLAIN {sql}")).unwrap();
        let lines: Vec<String> = explain
            .rows
            .iter()
            .map(|r| r[0].lexical_form())
            .filter(|l| !l.starts_with("-- lint:"))
            .collect();
        assert_eq!(p.explain().unwrap().trim_end(), lines.join("\n"), "{sql}");
    }
    let steps = [
        "INSERT INTO w VALUES (1, 'x'), (2, 'y'), (NULL, 'z')",
        "INSERT INTO landfill VALUES ('d', 'Torino', 100.0)",
        "DELETE FROM w WHERE k = 1",
        "INSERT INTO w VALUES (-1, '3')",
        "DELETE FROM landfill WHERE city = 'Lyon'",
    ];
    // Ad-hoc text of a cached shape is a hit: nothing below parses or
    // plans a statement again (DML leaves every entry valid).
    let misses = db.prepare_cache_stats().misses;
    for (step, dml) in steps.iter().enumerate() {
        for (sql, p) in &held {
            let want = answer(db.compile(Arc::new(parse(sql))).query(&Params::new()));
            assert_eq!(
                answer(p.query(&Params::new())),
                want,
                "step {step}, held: {sql}"
            );
            assert_eq!(answer(db.query(sql)), want, "step {step}, ad hoc: {sql}");
        }
        db.execute(dml).unwrap();
    }
    assert_eq!(db.prepare_cache_stats().misses, misses);
}

#[test]
fn lifted_literals_are_no_parameters() {
    let engine = standard_engine(&SmartGroundConfig::tiny(), "director").unwrap();
    let session = Session::new(&engine, "director").unwrap();
    let literal = "SELECT elem_name FROM elem_contained WHERE landfill_name = 'LF00000'";
    let mixed =
        "SELECT elem_name FROM elem_contained WHERE landfill_name = 'LF00000' AND amount > $a";
    assert!(engine
        .database()
        .prepare(literal)
        .unwrap()
        .param_slots()
        .is_empty());
    assert!(engine.prepare(literal).unwrap().param_slots().is_empty());
    assert!(!engine.prepare(literal).unwrap().query().has_params());
    for lang in [Lang::Sql, Lang::Sesql] {
        assert!(
            session
                .prepare(lang, literal)
                .unwrap()
                .param_slots()
                .is_empty(),
            "{lang:?}"
        );
        let slots = session.prepare(lang, mixed).unwrap().param_slots();
        assert_eq!(slots.len(), 1, "{lang:?}");
        assert_eq!(slots[0].name.as_deref(), Some("a"));
    }
    // The lifted literal and the parameter both reach the statement.
    let all = session.prepare(Lang::Sesql, mixed).unwrap();
    let n = |p: &Statement, a: f64| {
        p.execute(&Params::new().set("a", a))
            .unwrap()
            .collect_rows()
            .unwrap()
            .len()
    };
    let direct = |a: f64| {
        let text = mixed.replace("$a", &format!("{a:?}"));
        engine.database().query(&text).unwrap().len()
    };
    assert_eq!(n(&all, 0.0), direct(0.0));
    assert_eq!(n(&all, 1e9), 0);
}
