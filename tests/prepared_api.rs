//! End-to-end coverage of the prepare → bind → cursor lifecycle across
//! SESQL, SQL and SPARQL (the PR's acceptance criteria):
//!
//! * prepare + execute round-trips with bound parameters in all three
//!   languages;
//! * executing a cached `Prepared` skips parsing (cache-hit stats);
//! * `LIMIT k` over a large table provably stops scanning early.

use crosse::prelude::*;
use crosse::relational::DataType;

fn engine() -> SesqlEngine {
    let db = Database::new();
    db.execute_script(
        "CREATE TABLE landfill (name TEXT, city TEXT, tons FLOAT);
         INSERT INTO landfill VALUES
           ('Basse di Stura', 'Torino', 1200.0),
           ('Barricalla', 'Collegno', 800.5),
           ('Gerbido', 'Torino', 450.0);
         CREATE TABLE elem_contained (elem_name TEXT, landfill_name TEXT, amount FLOAT);
         INSERT INTO elem_contained VALUES
           ('Hg', 'Basse di Stura', 12.5), ('Pb', 'Basse di Stura', 30.0),
           ('Cu', 'Gerbido', 100.0), ('Hg', 'Gerbido', 3.5);",
    )
    .unwrap();
    let kb = KnowledgeBase::new();
    kb.register_user("director");
    for (s, o) in [("Hg", "5"), ("Pb", "4"), ("Cu", "1")] {
        kb.assert_statement(
            "director",
            &Triple::new(Term::iri(s), Term::iri("dangerLevel"), Term::lit(o)),
        )
        .unwrap();
    }
    SesqlEngine::new(db, kb)
}

// ---- round-trips in all three languages ------------------------------------

#[test]
fn sesql_prepare_execute_round_trip() {
    let e = engine();
    let session = Session::new(&e, "director").unwrap();
    let p = session
        .prepare(
            "SELECT elem_name FROM elem_contained WHERE landfill_name = $lf \
             ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)",
        )
        .unwrap();
    let r1 = session.execute(&p, &Params::new().set("lf", "Gerbido")).unwrap();
    assert_eq!(r1.rows.len(), 2);
    let r2 = session
        .execute(&p, &Params::new().set("lf", "Basse di Stura"))
        .unwrap();
    assert_eq!(r2.rows.len(), 2);
    assert_ne!(r1.rows.rows, r2.rows.rows, "bindings change results");
}

#[test]
fn sql_prepare_execute_round_trip() {
    let e = engine();
    let session = Session::new(&e, "director").unwrap();
    let p = session
        .prepare_sql("SELECT name FROM landfill WHERE city = $c AND tons > ? ORDER BY name")
        .unwrap();
    let rs = session
        .execute_sql(&p, &Params::new().set("c", "Torino").push(500))
        .unwrap()
        .collect_rows()
        .unwrap();
    assert_eq!(rs.len(), 1);
    assert_eq!(rs.rows[0][0], Value::from("Basse di Stura"));
}

#[test]
fn sparql_prepare_execute_round_trip() {
    let e = engine();
    let session = Session::new(&e, "director").unwrap();
    let p = session
        .prepare_sparql("SELECT ?o WHERE { $elem <dangerLevel> ?o }")
        .unwrap();
    let mut cur = session
        .execute_sparql(&p, &SparqlParams::new().set("elem", Term::iri("Pb")))
        .unwrap();
    let row = cur.next_row().unwrap().unwrap();
    assert_eq!(row[0], Value::Int(4));
    assert!(cur.next_row().is_none());
}

// ---- cached Prepared skips parsing -----------------------------------------

#[test]
fn cached_prepare_skips_parsing() {
    let e = engine();
    let q = "SELECT elem_name FROM elem_contained WHERE landfill_name = $lf";
    let before = e.prepared_cache_stats();
    let _p1 = e.prepare(q).unwrap();
    // Different whitespace, same normalized text → cache hit, no parse.
    let _p2 = e.prepare("SELECT elem_name  FROM elem_contained\n WHERE landfill_name = $lf").unwrap();
    let _p3 = e.prepare(q).unwrap();
    let stats = e.prepared_cache_stats();
    assert_eq!(stats.misses - before.misses, 1, "{stats:?}");
    assert_eq!(stats.hits - before.hits, 2, "{stats:?}");

    // Same at the relational layer.
    let db = e.database();
    let before = db.prepare_cache_stats();
    db.prepare("SELECT name FROM landfill WHERE city = $c").unwrap();
    db.prepare("select name from landfill where city = $c").unwrap();
    let stats = db.prepare_cache_stats();
    assert_eq!(stats.misses - before.misses, 1, "{stats:?}");
    assert_eq!(stats.hits - before.hits, 1, "{stats:?}");
}

#[test]
fn caches_are_bounded_and_count_evictions() {
    let e = engine();
    e.set_cache_capacity(4);
    for i in 0..16 {
        e.prepare(&format!("SELECT elem_name FROM elem_contained LIMIT {i}"))
            .unwrap();
    }
    let stats = e.prepared_cache_stats();
    assert!(stats.evictions >= 12, "{stats:?}");
}

// ---- LIMIT short-circuits the scan -----------------------------------------

#[test]
fn limit_stops_scanning_early_sql_cursor() {
    let db = Database::new();
    db.execute("CREATE TABLE big (id INT, tag TEXT)").unwrap();
    let t = db.catalog().get_table("big").unwrap();
    let rows: Vec<Vec<Value>> = (0..100_000)
        .map(|i| vec![Value::Int(i), Value::from("x")])
        .collect();
    t.insert_many(rows).unwrap();

    let p = db.prepare("SELECT id FROM big WHERE tag = $t LIMIT 7").unwrap();
    let mut cur = p.execute(&Params::new().set("t", "x")).unwrap();
    let mut n = 0;
    while let Some(r) = crosse::relational::Rows::next_row(&mut cur) {
        r.unwrap();
        n += 1;
    }
    assert_eq!(n, 7);
    let scanned = cur.rows_scanned();
    assert!(
        scanned < 10_000,
        "LIMIT 7 over 100k rows fetched {scanned} — no short-circuit"
    );

    // The filter → limit pipeline also stops once satisfied.
    let p = db.prepare("SELECT id FROM big WHERE id >= $lo LIMIT 3").unwrap();
    let rs = p.query(&Params::new().set("lo", 10)).unwrap();
    assert_eq!(rs.len(), 3);
}

#[test]
fn full_scan_still_sees_everything() {
    // The batched scan must not lose rows when fully drained.
    let db = Database::new();
    db.execute("CREATE TABLE big (id INT)").unwrap();
    let t = db.catalog().get_table("big").unwrap();
    t.insert_many((0..10_000).map(|i| vec![Value::Int(i)]).collect())
        .unwrap();
    let p = db.prepare("SELECT COUNT(*) FROM big").unwrap();
    let rs = p.query(&Params::new()).unwrap();
    assert_eq!(rs.rows[0][0], Value::Int(10_000));
}

// ---- type mismatches --------------------------------------------------------

#[test]
fn type_mismatch_errors_across_layers() {
    let e = engine();
    // SQL: FLOAT slot rejects text.
    let p = e.database().prepare("SELECT name FROM landfill WHERE tons > $t").unwrap();
    assert_eq!(p.param_slots()[0].expected, Some(DataType::Float));
    let err = p.query(&Params::new().set("t", "heavy")).unwrap_err();
    assert!(err.to_string().contains("expects FLOAT"), "{err}");

    // SESQL inherits the same typed slots.
    let session = Session::new(&e, "director").unwrap();
    let p = session
        .prepare("SELECT elem_name FROM elem_contained WHERE amount > $min")
        .unwrap();
    assert_eq!(p.param_slots()[0].expected, Some(DataType::Float));
    let err = session
        .execute(&p, &Params::new().set("min", "lots"))
        .unwrap_err();
    assert!(err.to_string().contains("expects FLOAT"), "{err}");
}

#[test]
fn missing_and_excess_bindings_error() {
    let e = engine();
    let session = Session::new(&e, "director").unwrap();
    let p = session
        .prepare("SELECT elem_name FROM elem_contained WHERE landfill_name = $lf")
        .unwrap();
    assert!(session.execute(&p, &Params::new()).is_err());
    let p = session
        .prepare("SELECT elem_name FROM elem_contained WHERE landfill_name = ?")
        .unwrap();
    let err = session
        .execute(&p, &Params::new().push("a").push("b"))
        .unwrap_err();
    assert!(err.to_string().contains("positional"), "{err}");
}

#[test]
fn unbound_parameter_is_one_error_from_both_entry_points() {
    // Ad-hoc text with a placeholder and nothing bound: the same mistake,
    // so the same typed SQM error, whichever way the query comes in.
    let e = engine();
    let text = "SELECT elem_name FROM elem_contained WHERE landfill_name = $lf \
                ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)";
    let ad_hoc = e.execute("director", text).unwrap_err();
    let cursor = e
        .prepare(text)
        .unwrap()
        .execute_cursor("director", &Params::new())
        .err()
        .expect("unbound parameter must not execute");
    assert!(matches!(ad_hoc, crosse::core::Error::Sqm(_)), "{ad_hoc}");
    assert!(ad_hoc.to_string().contains("unbound parameters"), "{ad_hoc}");
    assert_eq!(ad_hoc, cursor);
    // Un-enriched text takes the streaming arm and gets the same answer.
    let plain = "SELECT elem_name FROM elem_contained WHERE landfill_name = $lf";
    assert_eq!(e.execute("director", plain).unwrap_err(), ad_hoc);
}

// ---- collect adapters keep the legacy shapes --------------------------------

#[test]
fn collect_adapters_match_legacy_apis() {
    let e = engine();
    let session = Session::new(&e, "director").unwrap();

    let text = "SELECT elem_name FROM elem_contained WHERE landfill_name = 'Gerbido' \
                ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)";
    let p = session.prepare(text).unwrap();
    let via_cursor = session
        .execute_cursor(&p, &Params::new())
        .unwrap()
        .collect()
        .unwrap();
    let legacy = e.execute("director", text).unwrap();
    assert_eq!(via_cursor.rows.rows, legacy.rows.rows);
    assert_eq!(
        via_cursor.rows.schema.columns.last().unwrap().name,
        "dangerLevel"
    );
}

#[test]
fn platform_logs_prepared_queries() {
    let e = engine();
    let platform = CrossePlatform::from_engine(e);
    let p = platform
        .engine()
        .prepare(
            "SELECT elem_name FROM elem_contained WHERE landfill_name = $lf \
             ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)",
        )
        .unwrap();
    platform
        .query_prepared("director", &p, &Params::new().set("lf", "Gerbido"))
        .unwrap();
    platform
        .query_prepared("director", &p, &Params::new().set("lf", "Basse di Stura"))
        .unwrap();
    let log = platform.query_log();
    assert_eq!(log.len(), 2);
    assert!(log[0].concepts.iter().any(|c| c == "dangerLevel"));
    let profile = platform.user_profile("director");
    assert_eq!(profile["dangerLevel"], 2, "prepared reuse builds the profile");
}

// ---- DDL-version invalidation across a live Prepared handle -----------------

#[test]
fn live_prepared_handle_revalidates_after_drop_and_recreate() {
    // Hold one Prepared across DROP TABLE + re-CREATE with a *different*
    // column type: every later execution must bind against fresh slot
    // types (or fail with a clean typed error) — never serve stale-plan
    // results or reject bindings with the stale inference.
    let db = Database::new();
    db.execute_script(
        "CREATE TABLE scores (v FLOAT);
         INSERT INTO scores VALUES (1.5), (2.5);",
    )
    .unwrap();
    let p = db.prepare("SELECT v FROM scores WHERE v > $p ORDER BY v").unwrap();
    assert_eq!(p.param_slots()[0].expected, Some(DataType::Float));
    assert_eq!(p.query(&Params::new().set("p", 2)).unwrap().len(), 1);
    // A text binding is rejected against the FLOAT inference.
    assert!(p.query(&Params::new().set("p", "a")).is_err());

    // Re-type the column while the handle stays live.
    db.execute_script(
        "DROP TABLE scores;
         CREATE TABLE scores (v TEXT);
         INSERT INTO scores VALUES ('a'), ('b'), ('c');",
    )
    .unwrap();
    // The stale FLOAT slot would reject 'a'; re-validation must accept it
    // and evaluate against the new TEXT column.
    let rs = p.query(&Params::new().set("p", "a")).unwrap();
    assert_eq!(rs.len(), 2, "{rs:?}"); // 'b', 'c' > 'a'
    assert_eq!(rs.rows[0][0], Value::from("b"));
    // And a numeric binding now coerces to TEXT comparison (clean typed
    // behaviour, not a stale-plan result).
    let rs = p.query(&Params::new().set("p", "z")).unwrap();
    assert!(rs.is_empty());
}

#[test]
fn live_parameterless_prepared_replans_after_recreate() {
    let db = Database::new();
    db.execute_script(
        "CREATE TABLE snap (v INT);
         INSERT INTO snap VALUES (1), (2), (3);",
    )
    .unwrap();
    let p = db.prepare("SELECT v FROM snap ORDER BY v").unwrap();
    assert_eq!(p.query(&Params::new()).unwrap().len(), 3);
    db.execute_script(
        "DROP TABLE snap;
         CREATE TABLE snap (v TEXT);
         INSERT INTO snap VALUES ('x');",
    )
    .unwrap();
    // The cached plan template is version-tagged: execution re-plans and
    // returns the new table's rows, never the dropped heap.
    let rs = p.query(&Params::new()).unwrap();
    assert_eq!(rs.len(), 1);
    assert_eq!(rs.rows[0][0], Value::from("x"));
}

#[test]
fn live_prepared_handle_errors_cleanly_when_table_vanishes() {
    let db = Database::new();
    db.execute("CREATE TABLE gone (v INT)").unwrap();
    let p = db.prepare("SELECT v FROM gone WHERE v = $p").unwrap();
    db.execute("DROP TABLE gone").unwrap();
    let err = p.query(&Params::new().set("p", 1)).unwrap_err();
    assert!(err.to_string().contains("does not exist"), "{err}");
}

#[test]
fn live_sesql_prepared_handle_revalidates_after_ddl() {
    // Same DDL-survival contract at the SESQL layer: a live PreparedSesql
    // must re-infer slot types against the live catalog.
    let e = engine();
    let db = e.database().clone();
    db.execute_script(
        "CREATE TABLE readings (site TEXT, v FLOAT);
         INSERT INTO readings VALUES ('s1', 1.5), ('s2', 2.5);",
    )
    .unwrap();
    let p = e.prepare("SELECT site FROM readings WHERE v > $p ORDER BY site").unwrap();
    assert_eq!(p.param_slots()[0].expected, Some(DataType::Float));
    assert!(p.execute("director", &Params::new().set("p", "a")).is_err());

    db.execute_script(
        "DROP TABLE readings;
         CREATE TABLE readings (site TEXT, v TEXT);
         INSERT INTO readings VALUES ('s1', 'a'), ('s2', 'b');",
    )
    .unwrap();
    // Stale FLOAT inference would reject the text binding; the live
    // handle must bind it against the re-created TEXT column.
    let r = p.execute("director", &Params::new().set("p", "a")).unwrap();
    assert_eq!(r.rows.len(), 1);
    assert_eq!(r.rows.rows[0][0], Value::from("s2"));
}

// ---- one compiled SELECT behind every entry point ----------------------------

/// Drain a relational cursor: its rows and how many base-table rows it
/// fetched to produce them.
fn drain(cur: crosse::relational::Rows) -> (Vec<Vec<Value>>, u64) {
    let mut cur = cur;
    let mut rows = Vec::new();
    while let Some(r) = crosse::relational::Rows::next_row(&mut cur) {
        rows.push(r.unwrap());
    }
    (rows, cur.rows_scanned())
}

#[test]
fn every_way_of_running_a_select_agrees_across_ddl() {
    // (statement, the column it is enriched on, a sink its rows fit in)
    let cases = [
        (
            "SELECT elem_name, landfill_name FROM elem_contained \
             WHERE landfill_name = 'Gerbido' ORDER BY elem_name",
            "elem_name",
            "(a TEXT, b TEXT)",
        ),
        (
            "SELECT e.elem_name, l.city FROM landfill l \
             JOIN elem_contained e ON l.name = e.landfill_name ORDER BY l.city, e.elem_name",
            "e.elem_name",
            "(a TEXT, b TEXT)",
        ),
        (
            "SELECT elem_name, COUNT(*) AS n FROM elem_contained \
             GROUP BY elem_name ORDER BY elem_name",
            "elem_name",
            "(a TEXT, b INT)",
        ),
    ];
    // What happens to the schema between rounds of executions; the
    // handles below are prepared once and held across all of it.
    let ddl = [
        "",
        "CREATE INDEX idx_lf ON elem_contained (landfill_name)",
        "DROP TABLE elem_contained;
         CREATE TABLE elem_contained (elem_name TEXT, landfill_name TEXT, amount FLOAT);
         INSERT INTO elem_contained VALUES
           ('Pb', 'Gerbido', 1.0), ('As', 'Gerbido', 2.0), ('Hg', 'Barricalla', 3.0)",
    ];
    let e = engine();
    let db = e.database();
    let none = Params::new();
    let held: Vec<_> = cases
        .iter()
        .map(|(sql, attr, _)| {
            let enriched = format!("{sql} ENRICH SCHEMAEXTENSION({attr}, dangerLevel)");
            (db.prepare(sql).unwrap(), e.prepare(sql).unwrap(), e.prepare(&enriched).unwrap())
        })
        .collect();
    for script in ddl {
        db.execute_script(script).unwrap();
        for ((sql, _, sink), (held_sql, held_sesql, held_enriched)) in cases.iter().zip(&held) {
            let reference = db.query(sql).unwrap().rows;
            assert!(!reference.is_empty(), "{sql}");

            // The three cursors: ad hoc, a fresh prepare, the held handle.
            let ad_hoc = drain(db.query_cursor(sql).unwrap());
            assert_eq!(ad_hoc.0, reference, "query_cursor: {sql}");
            assert_eq!(drain(db.prepare(sql).unwrap().execute(&none).unwrap()), ad_hoc, "{sql}");
            assert_eq!(drain(held_sql.execute(&none).unwrap()), ad_hoc, "held: {sql}");

            // SESQL, un-enriched: the same cursor behind `EnrichedRows`.
            let mut cur = held_sesql.execute_cursor("director", &none).unwrap();
            assert_eq!(cur.collect_rows().unwrap().rows, reference, "sesql: {sql}");
            assert_eq!(cur.rows_scanned(), Some(ad_hoc.1), "sesql: {sql}");

            // SESQL, enriched: the pipeline's SQL leg.
            let r = held_enriched.execute("director", &none).unwrap();
            assert_eq!(r.report.base_rows, reference.len(), "leg: {sql}");
            let base: Vec<Vec<Value>> = r.rows.rows.iter().map(|row| row[..2].to_vec()).collect();
            assert_eq!(base, reference, "leg: {sql}");

            // INSERT … SELECT.
            db.execute(&format!("CREATE OR REPLACE TABLE sink {sink}")).unwrap();
            db.execute(&format!("INSERT INTO sink {sql}")).unwrap();
            assert_eq!(db.query("SELECT a, b FROM sink").unwrap().rows, reference, "{sql}");
        }
    }
}
