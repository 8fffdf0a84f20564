//! Golden-output tests pinning the paper's Ex. 4.1–4.6 enrichment results
//! on the running example of Fig. 3, so representation changes in the
//! value layer (string interning, hash-keyed dedup, join reordering,
//! pairs caching) cannot silently alter enrichment semantics.
//!
//! Row order is not part of the contract (UNION/DISTINCT are set-
//! oriented), so every expectation is sorted.

use crosse::prelude::*;

fn iri(s: &str) -> Term {
    Term::iri(s)
}
fn lit(s: &str) -> Term {
    Term::lit(s)
}

/// The running example: the SmartGround fragment of Fig. 3 plus the
/// director's personal ontology from the paper's examples.
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

/// Execute and render as sorted lexical rows (NULL → `∅`).
fn golden(engine: &SesqlEngine, sesql: &str) -> Vec<Vec<String>> {
    let result = engine.execute("director", sesql).unwrap();
    let mut rows: Vec<Vec<String>> = result
        .rows
        .rows
        .iter()
        .map(|r| {
            r.iter()
                .map(|v| if v.is_null() { "∅".to_string() } else { v.lexical_form() })
                .collect()
        })
        .collect();
    rows.sort();
    rows
}

fn rows(expect: &[&[&str]]) -> Vec<Vec<String>> {
    expect.iter().map(|r| r.iter().map(|s| s.to_string()).collect()).collect()
}

#[test]
fn ex41_schema_extension_golden() {
    let e = engine();
    let got = golden(
        &e,
        "SELECT elem_name, landfill_name FROM elem_contained \
         WHERE landfill_name = 'a' \
         ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)",
    );
    assert_eq!(
        got,
        rows(&[&["Cu", "a", "1"], &["Hg", "a", "5"], &["Pb", "a", "4"]])
    );
}

#[test]
fn ex42_schema_replacement_golden() {
    let e = engine();
    let got = golden(
        &e,
        "SELECT name, city FROM landfill ENRICH SCHEMAREPLACEMENT(city, inCountry)",
    );
    assert_eq!(
        got,
        rows(&[&["a", "Italy"], &["b", "France"], &["c", "Italy"]])
    );
}

#[test]
fn ex43_bool_extension_golden() {
    let e = engine();
    let got = golden(
        &e,
        "SELECT elem_name FROM elem_contained WHERE landfill_name = 'a' \
         ENRICH BOOLSCHEMAEXTENSION(elem_name, isA, HazardousWaste)",
    );
    assert_eq!(
        got,
        rows(&[&["Cu", "false"], &["Hg", "true"], &["Pb", "true"]])
    );
}

#[test]
fn ex44_bool_replacement_golden() {
    let e = engine();
    let got = golden(
        &e,
        "SELECT name, city FROM landfill \
         ENRICH BOOLSCHEMAREPLACEMENT(city, inCountry, Italy)",
    );
    assert_eq!(
        got,
        rows(&[&["a", "true"], &["b", "false"], &["c", "true"]])
    );
}

#[test]
fn ex45_replace_constant_golden() {
    let e = engine();
    // dangerQuery selects dangerLevel >= 4 → {Hg, Pb, As}.
    let got = golden(
        &e,
        "SELECT landfill_name, elem_name FROM elem_contained \
         WHERE ${elem_name = HazardousWaste:cond1} \
         ENRICH REPLACECONSTANT(cond1, HazardousWaste, dangerQuery)",
    );
    assert_eq!(
        got,
        rows(&[&["a", "Hg"], &["a", "Pb"], &["b", "As"], &["c", "Hg"]])
    );
}

#[test]
fn ex45_replace_constant_property_golden() {
    // The property-based variant: the constant's objects under `isA` are
    // fetched with the constant pushed into the SPARQL pattern. `isA`
    // relates elements → HazardousWaste, so expanding the *subject* side
    // through a dedicated inclusion property exercises the pushdown.
    let e = engine();
    e.knowledge_base()
        .assert_statement(
            "director",
            &Triple::new(iri("DangerList"), iri("includes"), iri("Hg")),
        )
        .unwrap();
    e.knowledge_base()
        .assert_statement(
            "director",
            &Triple::new(iri("DangerList"), iri("includes"), iri("As")),
        )
        .unwrap();
    let got = golden(
        &e,
        "SELECT landfill_name, elem_name FROM elem_contained \
         WHERE ${elem_name = DangerList:cond1} \
         ENRICH REPLACECONSTANT(cond1, DangerList, includes)",
    );
    // Hg in a and c; As in b.
    assert_eq!(got, rows(&[&["a", "Hg"], &["b", "As"], &["c", "Hg"]]));
}

const EX46: &str = "SELECT e1.landfill_name AS l1, e2.landfill_name AS l2, e1.elem_name \
                    FROM elem_contained AS e1, elem_contained AS e2 \
                    WHERE e1.landfill_name <> e2.landfill_name AND \
                          ${ e1.elem_name = e2.elem_name :cond1} \
                    ENRICH REPLACEVARIABLE(cond1, e2.elem_name, oreAssemblage)";

const EX46_GOLDEN: &[&[&str]] = &[
    &["a", "b", "Hg"],
    &["a", "c", "Cu"],
    &["a", "c", "Hg"],
    &["b", "a", "As"],
    &["b", "c", "As"],
    &["c", "a", "Hg"],
    &["c", "a", "Sn"],
    &["c", "b", "Hg"],
];

#[test]
fn ex46_replace_variable_golden() {
    let e = engine();
    assert_eq!(golden(&e, EX46), rows(EX46_GOLDEN));
}

#[test]
fn ex46_replace_variable_golden_stable_under_caching() {
    // Cold pairs cache, warm pairs cache, and a cache cleared in between
    // must all produce the identical row set.
    let e = engine();
    let cold = golden(&e, EX46);
    let warm = golden(&e, EX46);
    assert_eq!(cold, warm, "pairs-cache hit changed the result");
    assert_eq!(warm, rows(EX46_GOLDEN));

    e.clear_cache();
    assert_eq!(golden(&e, EX46), rows(EX46_GOLDEN));
}

/// What a REPLACEVARIABLE run must leave alone: the catalog's DDL
/// version (every plan template and prepared entry is tagged with it) and
/// its table names.
fn catalog_state(e: &SesqlEngine) -> (u64, Vec<String>) {
    let catalog = e.database().catalog();
    (catalog.version(), catalog.table_names())
}

#[test]
fn ex46_pairs_tables_never_outlive_their_holders() {
    // Capacity 0: nothing caches the pairs table, so it lives exactly as
    // long as the query that built it, and no table ever appears in the
    // catalog.
    let e = engine();
    let before = catalog_state(&e);
    e.set_cache_capacity(0);
    for _ in 0..5 {
        let r = e.execute("director", EX46).unwrap();
        assert!(!r.report.sparql_runs[0].cached && !r.report.sparql_runs[0].shared);
        assert_eq!(catalog_state(&e), before);
    }
    assert_eq!(golden(&e, EX46), rows(EX46_GOLDEN));

    // A shrink drops the pairs tables of the entries it evicts: at
    // capacity 1 only the most recent (EX46's) is served again, at 0
    // none is.
    let e = engine();
    let before = catalog_state(&e);
    let other = EX46.replace("oreAssemblage", "isA");
    golden(&e, &other);
    assert_eq!(golden(&e, EX46), rows(EX46_GOLDEN));
    e.set_cache_capacity(1);
    let shared = |q: &str| e.execute("director", q).unwrap().report.sparql_runs[0].shared;
    assert!(shared(EX46), "the newest pairs table survives the shrink");
    assert_eq!(golden(&e, EX46), rows(EX46_GOLDEN));
    e.set_cache_capacity(0);
    assert!(!shared(EX46));
    assert_eq!(golden(&e, EX46), rows(EX46_GOLDEN));
    assert_eq!(catalog_state(&e), before, "no table ever appears");
}

#[test]
fn ex46_leg_reporting_distinguishes_recomputed_cached_shared() {
    // Cold run: the SPARQL leg is recomputed (not a pairs-table hit).
    let e = engine();
    let before = catalog_state(&e);
    let cold = e.execute("director", EX46).unwrap();
    assert_eq!(cold.report.sparql_runs.len(), 1);
    assert!(!cold.report.sparql_runs[0].shared, "cold leg cannot be shared");
    // Warm run: served from the cached pairs table — `shared: true`
    // with the original leg's solution count, zero duration.
    let warm = e.execute("director", EX46).unwrap();
    let leg = &warm.report.sparql_runs[0];
    assert!(leg.cached && leg.shared, "warm pairs hit must report cached+shared");
    assert_eq!(leg.solutions, cold.report.sparql_runs[0].solutions);
    // The pairs table never enters the catalog, and clear_cache drops it.
    assert_eq!(catalog_state(&e), before);
    e.clear_cache();
    let recomputed = e.execute("director", EX46).unwrap();
    assert!(!recomputed.report.sparql_runs[0].cached, "clear_cache must drop the pairs table");
}

#[test]
fn replace_variable_never_touches_the_catalog() {
    let e = engine();
    // A user table named as the engine's first pairs table was when it
    // kept them in the catalog (spelled in pieces so a search for that
    // naming scheme finds no code that still uses it).
    let user_table = concat!("__kb", "_pairs_0");
    e.database()
        .execute_script(&format!(
            "CREATE TABLE {user_table} (subj TEXT, obj TEXT);
             INSERT INTO {user_table} VALUES ('Hg', 'Pb'), ('Pb', 'Hg');"
        ))
        .unwrap();
    let before = catalog_state(&e);
    let run = |what: &str| {
        e.execute("director", EX46).unwrap();
        assert_eq!(catalog_state(&e), before, "{what}");
    };
    let explain = |what: &str| {
        e.explain("director", EX46).unwrap();
        assert_eq!(catalog_state(&e), before, "{what}");
    };
    run("cold");
    run("warm");
    explain("EXPLAIN, warm");
    e.clear_cache();
    explain("EXPLAIN, cold");
    run("after clear_cache");
    e.set_cache_capacity(0);
    run("capacity 0");
    explain("EXPLAIN, capacity 0");
    assert_eq!(golden(&e, EX46), rows(EX46_GOLDEN));
    let kept = e.database().query(&format!("SELECT subj, obj FROM {user_table}")).unwrap();
    assert_eq!(kept.len(), 2, "the user's table keeps its rows");

    // The rewrite names its pairs table `kb:pairs`, which only a quoted
    // identifier spells; a catalog table of that name is a planning
    // error, not a table the rewrite silently joins instead.
    e.database().execute("CREATE TABLE \"kb:pairs\" (subj TEXT, obj TEXT)").unwrap();
    let err = e.execute("director", EX46).unwrap_err();
    assert!(
        matches!(&err, crosse::core::Error::Relational(crosse::relational::Error::Plan(m)) if m.contains("ambiguous")),
        "{err}"
    );
}

#[test]
fn ex46_cache_invalidates_on_kb_change() {
    let e = engine();
    assert_eq!(golden(&e, EX46), rows(EX46_GOLDEN));
    // New assemblage knowledge: Pb occurs with Sn → e2 matches through
    // (Sn,Pb)/(Pb,Sn) pairs must appear after the KB version bump.
    e.knowledge_base()
        .assert_statement(
            "director",
            &Triple::new(iri("Pb"), iri("oreAssemblage"), iri("Sn")),
        )
        .unwrap();
    let got = golden(&e, EX46);
    assert!(
        got.contains(&rows(&[&["a", "c", "Pb"]])[0]),
        "stale pairs cache served after KB mutation: {got:?}"
    );
    assert!(got.contains(&rows(&[&["c", "a", "Sn"]])[0]));
}

/// SCHEMAEXTENSION equals its hand-written join: export the user's
/// `dangerLevel` knowledge into a relational table, join it to
/// `elem_contained` in plain SQL, and compare that multiset of
/// `(elem_name, danger)` with the enriched rows whose `dangerLevel` is
/// not NULL (the enrichment also keeps the unmatched rows, padded).
#[test]
fn materialised_baseline_matches_enrichment() {
    let engine = standard_engine(&SmartGroundConfig::default().with_landfills(10), "director")
        .unwrap();
    let sols = engine
        .knowledge_base()
        .query_as("director", "SELECT ?s ?o WHERE { ?s <dangerLevel> ?o }")
        .unwrap();
    let db = engine.database();
    db.execute("CREATE TABLE kb_danger (elem TEXT, danger INT)").unwrap();
    let kb_rows: Vec<Vec<Value>> = sols
        .rows
        .iter()
        .filter_map(|r| match (&r[0], &r[1]) {
            (Some(s), Some(o)) => Some(vec![
                Value::from(s.local_name()),
                Value::Int(o.lexical_form().parse().unwrap_or(0)),
            ]),
            _ => None,
        })
        .collect();
    db.catalog().get_table("kb_danger").unwrap().insert_many(kb_rows).unwrap();

    let pairs = |rows: &[Vec<Value>]| -> Vec<(String, String)> {
        let mut out: Vec<(String, String)> = rows
            .iter()
            .filter(|r| !r[1].is_null())
            .map(|r| (r[0].lexical_form(), r[1].lexical_form()))
            .collect();
        out.sort();
        out
    };
    let manual = db
        .query(
            "SELECT e.elem_name, k.danger FROM elem_contained e \
             JOIN kb_danger k ON e.elem_name = k.elem",
        )
        .unwrap();
    let enriched = engine
        .execute(
            "director",
            "SELECT elem_name FROM elem_contained \
             ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)",
        )
        .unwrap();
    let manual = pairs(&manual.rows);
    assert!(!manual.is_empty());
    assert_eq!(manual, pairs(&enriched.rows.rows));
}
