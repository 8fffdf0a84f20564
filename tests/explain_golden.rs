//! Golden `EXPLAIN` snapshots for the paper's Ex. 4.1–4.6 enrichment
//! plans, pinning the optimized plan shapes — pass annotations, pushed
//! filters, and (for Ex. 4.6) the include_self compound deduplicated
//! below its join, with the shared spool that reads the base table once.
//!
//! Snapshots live in `tests/snapshots/explain_ex4_*.snap`. To regenerate
//! after an intentional planner/optimizer change:
//!
//! ```text
//! CROSSE_UPDATE_SNAPSHOTS=1 cargo test --test explain_golden
//! cargo xtask explain-snapshots   # regenerates, then diffs via git
//! ```

use crosse::prelude::*;
use crosse::relational::OptimizerConfig;

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
    kb.register_user("director").unwrap();
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

const EX4_6: &str = "SELECT e1.landfill_name AS l1, e2.landfill_name AS l2, e1.elem_name \
                     FROM elem_contained AS e1, elem_contained AS e2 \
                     WHERE e1.landfill_name <> e2.landfill_name AND \
                           ${ e1.elem_name = e2.elem_name :cond1} \
                     ENRICH REPLACEVARIABLE(cond1, e2.elem_name, oreAssemblage)";

/// The part of an Ex. 4.6 `EXPLAIN` after the REPLACEVARIABLE rewrite.
fn rewritten_section(text: &str) -> &str {
    text.split("rewritten plan").nth(1).expect("compound section")
}

#[test]
fn explain_ex4_6_replace_variable_shares_q1_through_spool() {
    check("explain_ex4_6", EX4_6);
    // Beyond the snapshot: the structural acceptance criteria. The
    // compound is deduplicated below its join — `E ⋈ Y`, each input a
    // DISTINCT, Y a UNION ALL over the common input's other side — with no
    // output-sized DISTINCT or deduplicating UNION above the join, and the
    // base table is still read once through a spool.
    let text = engine().explain("director", EX4_6).unwrap();
    let rewritten = rewritten_section(&text);
    assert!(rewritten.contains("-- dedup_pushdown:"), "{text}");
    let top: Vec<&str> = rewritten.lines().skip(1).take(4).map(str::trim).collect();
    assert_eq!(
        top,
        ["Project: 3 column(s)", "HashJoin (Inner, 1 key(s), residual)", "Distinct", "Shared spool #0"],
        "{text}"
    );
    assert!(rewritten.contains("UnionAll: 2 inputs"), "{text}");
    assert!(!rewritten.contains("Union: "), "{text}");
    assert!(rewritten.contains("Shared spool #0 (reused)"), "{text}");
}

/// Ex. 4.6 restricted to one landfill, as the benchmark's `ex4.6r`
/// statements are: the common input is filtered and the other side is
/// not, so deduplicating below the join would build the other side in
/// full. The guard keeps the plan exactly as it is without the pass.
#[test]
fn explain_ex4_6_restricted_keeps_its_plan() {
    let sesql = EX4_6.replace(
        "WHERE e1.landfill_name <> e2.landfill_name AND",
        "WHERE e1.landfill_name <> e2.landfill_name AND e1.landfill_name = 'a' AND",
    );
    let engine = engine();
    let with_pass = engine.explain("director", &sesql).unwrap();
    engine.database().set_optimizer_config(OptimizerConfig {
        dedup_pushdown: false,
        ..OptimizerConfig::default()
    });
    let without_pass = engine.explain("director", &sesql).unwrap();
    assert!(!with_pass.contains("dedup_pushdown"), "{with_pass}");
    assert_eq!(with_pass, without_pass);
    assert!(rewritten_section(&with_pass).contains("Union: 2 inputs"), "{with_pass}");
}

/// Without include_self the rewrite is Q2 alone under DISTINCT; the pass
/// moves that DISTINCT below the join (read as `e1 ⋈ (pairs ⋈ e2)`).
#[test]
fn explain_ex4_6_without_include_self_deduplicates_below_the_join() {
    let engine = engine().with_options(EnrichOptions {
        include_self: false,
        ..EnrichOptions::default()
    });
    let text = engine.explain("director", EX4_6).unwrap();
    let rewritten = rewritten_section(&text);
    assert!(rewritten.contains("-- dedup_pushdown: 1 DISTINCT(s) moved below a join"), "{text}");
    let plan: Vec<&str> = rewritten.lines().skip(1).map(str::trim).collect();
    assert_eq!(plan[..3], ["Project: 3 column(s)", "HashJoin (Inner, 1 key(s), residual)", "Distinct"]);
    assert_eq!(plan.iter().filter(|l| **l == "Distinct").count(), 2, "{text}");
}

#[test]
fn explain_federated_pushdown() {
    // Three statements over foreign tables: a WHERE shipped to its source,
    // a LEFT join whose nullable-side foreign leaf ships a plain
    // `SELECT *` while the preserved side ships its conjunct, and a
    // subquery over a foreign table, which ships its own conjunct, while
    // the outer conjunct ships the subquery's rows when a cursor opens.
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
        "SELECT name FROM it__landfill \
         WHERE city IN (SELECT country FROM eu__waste_stats WHERE tons > 30000)",
    ] {
        got.push_str(&format!("EXPLAIN {sql}\n"));
        for row in mediator.query(&format!("EXPLAIN {sql}")).unwrap().rows {
            got.push_str(&format!("{}\n", row[0].lexical_form()));
        }
    }
    snapshot("explain_federated", &got);
}

#[test]
fn explain_indexed_access_paths() {
    // Which conjunct becomes an index scan: every sargable shape, an INT
    // key on a FLOAT column, the two sides of a LEFT join (the preserved
    // side takes its index, the padded side keeps its filter above the
    // join), and comparands that are slots — parameters and subquery
    // results, whose keys the cursor's open builds.
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
         CREATE INDEX idx_landfill_name ON elem_contained (landfill_name);",
    )
    .unwrap();
    let mut got = String::new();
    for sql in [
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
        "SELECT name FROM landfill WHERE city = $c",
        "SELECT name FROM landfill WHERE tons = $t",
        "SELECT name FROM landfill WHERE city IN (SELECT city FROM landfill WHERE tons > 50.5)",
        "SELECT name FROM landfill WHERE EXISTS (SELECT elem_name FROM elem_contained)",
        "SELECT name FROM landfill WHERE tons >= (SELECT MAX(amount) FROM elem_contained)",
    ] {
        got.push_str(&format!("EXPLAIN {sql}\n"));
        for row in db.query(&format!("EXPLAIN {sql}")).unwrap().rows {
            got.push_str(&format!("{}\n", row[0].lexical_form()));
        }
    }
    snapshot("explain_indexed", &got);
}
