//! Golden `EXPLAIN` snapshots for the paper's Ex. 4.1–4.6 enrichment
//! plans, pinning the optimized plan shapes — pass annotations, pushed
//! filters, and (for Ex. 4.6) the shared spool that de-duplicates the
//! include_self compound's base-table work.
//!
//! Snapshots live in `tests/snapshots/explain_ex4_*.snap`. To regenerate
//! after an intentional planner/optimizer change:
//!
//! ```text
//! CROSSE_UPDATE_SNAPSHOTS=1 cargo test --test explain_golden
//! cargo xtask explain-snapshots   # regenerates, then diffs via git
//! ```

use crosse::prelude::*;

fn iri(s: &str) -> Term {
    Term::iri(s)
}
fn lit(s: &str) -> Term {
    Term::lit(s)
}

/// The running example of `enrichment_golden.rs` (Fig. 3 + the
/// director's ontology) — the fixture must stay deterministic, since the
/// snapshots embed row counts.
fn engine() -> SesqlEngine {
    let db = Database::new();
    db.execute_script(
        "CREATE TABLE landfill (name TEXT, city TEXT);
         INSERT INTO landfill VALUES
           ('a', 'Torino'), ('b', 'Lyon'), ('c', 'Collegno');
         CREATE TABLE elem_contained (elem_name TEXT, landfill_name TEXT, amount FLOAT);
         INSERT INTO elem_contained VALUES
           ('Hg', 'a', 12.5), ('Pb', 'a', 30.0), ('Cu', 'a', 100.0),
           ('As', 'b', 5.2), ('Hg', 'c', 3.5), ('Sn', 'c', 7.0);",
    )
    .unwrap();
    let kb = KnowledgeBase::new();
    kb.register_user("director");
    for (s, p, o) in [
        ("Hg", "dangerLevel", "5"),
        ("Pb", "dangerLevel", "4"),
        ("As", "dangerLevel", "5"),
        ("Cu", "dangerLevel", "1"),
    ] {
        kb.assert_statement("director", &Triple::new(iri(s), iri(p), lit(o))).unwrap();
    }
    for s in ["Hg", "Pb", "As"] {
        kb.assert_statement("director", &Triple::new(iri(s), iri("isA"), iri("HazardousWaste")))
            .unwrap();
    }
    for (s, o) in [("Torino", "Italy"), ("Collegno", "Italy"), ("Lyon", "France")] {
        kb.assert_statement("director", &Triple::new(iri(s), iri("inCountry"), iri(o)))
            .unwrap();
    }
    for (s, o) in [("Hg", "As"), ("Hg", "Sb"), ("Sn", "Cu")] {
        kb.assert_statement("director", &Triple::new(iri(s), iri("oreAssemblage"), iri(o)))
            .unwrap();
    }
    let engine = SesqlEngine::new(db, kb);
    engine
        .stored_queries()
        .register("dangerQuery", "SELECT ?e WHERE { ?e <dangerLevel> ?d . FILTER(?d >= 4) }")
        .unwrap();
    engine
}

fn check(name: &str, sesql: &str) {
    snapshot(name, &engine().explain("director", sesql).unwrap());
}

fn snapshot(name: &str, got: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/snapshots")
        .join(format!("{name}.snap"));
    if std::env::var_os("CROSSE_UPDATE_SNAPSHOTS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing snapshot {} ({e}) — regenerate with \
             CROSSE_UPDATE_SNAPSHOTS=1 cargo test --test explain_golden"
        , path.display())
    });
    assert_eq!(
        got, want,
        "EXPLAIN for {name} diverged from its committed snapshot; if the \
         plan change is intentional, regenerate with \
         CROSSE_UPDATE_SNAPSHOTS=1 cargo test --test explain_golden"
    );
}

#[test]
fn explain_ex4_1_schema_extension() {
    check(
        "explain_ex4_1",
        "SELECT elem_name, landfill_name FROM elem_contained \
         WHERE landfill_name = 'a' \
         ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)",
    );
}

#[test]
fn explain_ex4_2_schema_replacement() {
    check(
        "explain_ex4_2",
        "SELECT name, city FROM landfill ENRICH SCHEMAREPLACEMENT(city, inCountry)",
    );
}

#[test]
fn explain_ex4_3_bool_schema_extension() {
    check(
        "explain_ex4_3",
        "SELECT elem_name FROM elem_contained WHERE landfill_name = 'a' \
         ENRICH BOOLSCHEMAEXTENSION(elem_name, isA, HazardousWaste)",
    );
}

#[test]
fn explain_ex4_4_bool_schema_replacement() {
    check(
        "explain_ex4_4",
        "SELECT name, city FROM landfill \
         ENRICH BOOLSCHEMAREPLACEMENT(city, inCountry, Italy)",
    );
}

#[test]
fn explain_ex4_5_replace_constant() {
    check(
        "explain_ex4_5",
        "SELECT landfill_name, elem_name FROM elem_contained \
         WHERE ${elem_name = HazardousWaste:cond1} \
         ENRICH REPLACECONSTANT(cond1, HazardousWaste, dangerQuery)",
    );
}

#[test]
fn explain_ex4_6_replace_variable_shares_q1_through_spool() {
    let name = "explain_ex4_6";
    let sesql = "SELECT e1.landfill_name AS l1, e2.landfill_name AS l2, e1.elem_name \
                 FROM elem_contained AS e1, elem_contained AS e2 \
                 WHERE e1.landfill_name <> e2.landfill_name AND \
                       ${ e1.elem_name = e2.elem_name :cond1} \
                 ENRICH REPLACEVARIABLE(cond1, e2.elem_name, oreAssemblage)";
    check(name, sesql);
    // Beyond the snapshot: the structural acceptance criterion — the
    // rewritten compound shares Q1's scan subtree through one spool.
    let text = engine().explain("director", sesql).unwrap();
    let rewritten = text.split("rewritten plan").nth(1).expect("compound section");
    assert!(rewritten.contains("Shared spool #0"), "{text}");
    assert!(rewritten.contains("Shared spool #0 (reused)"), "{text}");
    assert!(rewritten.contains("Union: 2 inputs"), "{text}");
}

#[test]
fn explain_federated_pushdown() {
    // Two statements over foreign tables: a WHERE shipped to its source,
    // and a LEFT join whose nullable-side foreign leaf ships a plain
    // `SELECT *` while the preserved side ships its conjunct.
    let national = Database::new();
    national
        .execute_script(
            "CREATE TABLE landfill (name TEXT, city TEXT);
             INSERT INTO landfill VALUES ('a', 'Torino'), ('b', 'Lyon');",
        )
        .unwrap();
    let eu = Database::new();
    eu.execute_script(
        "CREATE TABLE waste_stats (country TEXT, tons FLOAT);
         INSERT INTO waste_stats VALUES ('Italy', 29000.0), ('France', 34000.0);",
    )
    .unwrap();
    let mediator = Database::new();
    mediator.register_source(std::sync::Arc::new(LocalSource::new("it", national))).unwrap();
    mediator.register_source(std::sync::Arc::new(LocalSource::new("eu", eu))).unwrap();
    let mut got = String::new();
    for sql in [
        "SELECT name FROM it__landfill WHERE city = 'Torino' AND name LIKE 'a%'",
        "SELECT l.name, w.tons FROM it__landfill l \
         LEFT JOIN eu__waste_stats w ON l.city = w.country \
         WHERE l.city = 'Torino' AND (w.tons > 30000 OR w.tons IS NULL)",
    ] {
        got.push_str(&format!("EXPLAIN {sql}\n"));
        for row in mediator.query(&format!("EXPLAIN {sql}")).unwrap().rows {
            got.push_str(&format!("{}\n", row[0].lexical_form()));
        }
    }
    snapshot("explain_federated", &got);
}
