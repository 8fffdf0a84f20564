//! End-to-end integration tests: the full CroSSE stack, cross-crate.

use crosse::core::platform::CrossePlatform;
use crosse::prelude::*;
use crosse::smartground::{
    danger_level, landfill_name, paper_examples, standard_engine, SmartGroundConfig,
};

fn tiny_engine() -> SesqlEngine {
    standard_engine(&SmartGroundConfig::tiny(), "director").unwrap()
}

#[test]
fn all_paper_examples_run_end_to_end() {
    let engine = tiny_engine();
    for q in paper_examples(&landfill_name(0)) {
        let r = engine
            .execute("director", &q.sesql)
            .unwrap_or_else(|e| panic!("{} failed: {e}", q.name));
        assert!(
            r.report.total() > std::time::Duration::ZERO,
            "{}: pipeline must be timed",
            q.name
        );
    }
}

#[test]
fn schema_extension_agrees_with_manual_join() {
    // The enrichment must compute exactly what a manual KB-to-SQL join
    // would: for each contained element of LF00000, its danger level.
    let engine = tiny_engine();
    let target = landfill_name(0);
    let r = engine
        .execute(
            "director",
            &format!(
                "SELECT elem_name FROM elem_contained WHERE landfill_name = '{target}' \
                 ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)"
            ),
        )
        .unwrap();
    assert!(!r.rows.is_empty());
    for row in &r.rows.rows {
        let elem = row[0].lexical_form();
        let expected = danger_level(&elem);
        assert_eq!(
            row[1],
            Value::Int(expected),
            "danger level of {elem} must match the ontology source"
        );
    }
}

#[test]
fn bool_extension_matches_threshold_rule() {
    let engine = tiny_engine();
    let target = landfill_name(1);
    let r = engine
        .execute(
            "director",
            &format!(
                "SELECT elem_name FROM elem_contained WHERE landfill_name = '{target}' \
                 ENRICH BOOLSCHEMAEXTENSION(elem_name, isA, HazardousWaste)"
            ),
        )
        .unwrap();
    for row in &r.rows.rows {
        let elem = row[0].lexical_form();
        let expected = danger_level(&elem) >= crosse::smartground::ontogen::HAZARD_THRESHOLD;
        assert_eq!(row[1], Value::Bool(expected), "hazard flag of {elem}");
    }
}

#[test]
fn replace_constant_equals_manual_filter() {
    // ex4.5 must equal: SELECT landfill_name FROM elem_contained WHERE
    // elem_name IN (dangerous elements).
    let engine = tiny_engine();
    let r = engine
        .execute(
            "director",
            "SELECT landfill_name FROM elem_contained \
             WHERE ${elem_name = HazardousWaste:cond1} \
             ENRICH REPLACECONSTANT(cond1, HazardousWaste, dangerQuery)",
        )
        .unwrap();
    let dangerous: Vec<String> = crosse::smartground::schema::ELEMENTS
        .iter()
        .filter(|(s, _, _)| danger_level(s) >= 4)
        .map(|(s, _, _)| format!("'{s}'"))
        .collect();
    let manual = engine
        .database()
        .query(&format!(
            "SELECT landfill_name FROM elem_contained WHERE elem_name IN ({})",
            dangerous.join(", ")
        ))
        .unwrap();
    let mut a: Vec<String> = r.rows.rows.iter().map(|x| x[0].lexical_form()).collect();
    let mut b: Vec<String> = manual.rows.iter().map(|x| x[0].lexical_form()).collect();
    a.sort();
    b.sort();
    assert_eq!(a, b);
}

#[test]
fn replace_variable_supersets_baseline() {
    // With include_self (default), ex4.6 must contain every row of the
    // plain common-element self-join.
    let engine = tiny_engine();
    let q = paper_examples(&landfill_name(0))
        .into_iter()
        .find(|q| q.name == "ex4.6-replace-variable")
        .unwrap();
    let enriched = engine.execute("director", &q.sesql).unwrap();
    let baseline = engine.database().query(&q.baseline_sql).unwrap();
    let enriched_set: std::collections::HashSet<Vec<String>> = enriched
        .rows
        .rows
        .iter()
        .map(|r| r.iter().map(|v| v.lexical_form()).collect())
        .collect();
    for row in &baseline.rows {
        let key: Vec<String> = row.iter().map(|v| v.lexical_form()).collect();
        assert!(
            enriched_set.contains(&key),
            "baseline row {key:?} missing from the enriched result"
        );
    }
}

#[test]
fn contexts_isolate_users_end_to_end() {
    let engine = tiny_engine();
    let kb = engine.knowledge_base();
    kb.register_user("skeptic"); // no knowledge at all
    let sesql = format!(
        "SELECT elem_name FROM elem_contained WHERE landfill_name = '{}' \
         ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)",
        landfill_name(0)
    );
    let skeptic = engine.execute("skeptic", &sesql).unwrap();
    assert!(
        skeptic.rows.rows.iter().all(|r| r[1].is_null()),
        "user without knowledge gets NULL enrichments"
    );
}

#[test]
fn belief_import_changes_query_results() {
    let engine = tiny_engine();
    let kb = engine.knowledge_base();
    kb.register_user("apprentice");
    let sesql = format!(
        "SELECT elem_name FROM elem_contained WHERE landfill_name = '{}' \
         ENRICH BOOLSCHEMAEXTENSION(elem_name, isA, HazardousWaste)",
        landfill_name(0)
    );
    let before = engine.execute("apprentice", &sesql).unwrap();
    assert!(before.rows.rows.iter().all(|r| r[1] == Value::Bool(false)));

    // Adopt every isA statement from the director.
    for info in kb.public_statements() {
        if info.triple.predicate == Term::iri("isA") {
            kb.accept_statement("apprentice", info.id).unwrap();
        }
    }
    let after = engine.execute("apprentice", &sesql).unwrap();
    assert_eq!(
        before.rows.rows.len(),
        after.rows.rows.len(),
        "bool extension never changes cardinality"
    );
    let flips = after
        .rows
        .rows
        .iter()
        .filter(|r| r[1] == Value::Bool(true))
        .count();
    let expected = after
        .rows
        .rows
        .iter()
        .filter(|r| danger_level(&r[0].lexical_form()) >= 4)
        .count();
    assert_eq!(flips, expected, "adopted knowledge now flags hazards");
}

#[test]
fn rdfs_inference_feeds_enrichment() {
    // Classes inferred by the reasoner are visible to SESQL through the
    // inferred graph: HeavyMetal ⊑ Metal means rdf:type edges for Metal.
    let db = Database::new();
    db.execute_script(
        "CREATE TABLE elem_contained (elem_name TEXT, landfill_name TEXT);
         INSERT INTO elem_contained VALUES ('Hg','a'), ('Fe','a');",
    )
    .unwrap();
    let kb = KnowledgeBase::new();
    kb.register_user("u");
    kb.load_common(&[
        Triple::new(
            Term::iri("HeavyMetal"),
            crosse::rdf::schema::rdfs_subclass_of(),
            Term::iri("Pollutant"),
        ),
        Triple::new(
            Term::iri("Hg"),
            crosse::rdf::schema::rdf_type(),
            Term::iri("HeavyMetal"),
        ),
    ]);
    kb.materialize_inferences();
    let engine = SesqlEngine::new(db, kb);
    let r = engine
        .execute(
            "u",
            "SELECT elem_name FROM elem_contained \
             ENRICH BOOLSCHEMAEXTENSION(elem_name, type, Pollutant)",
        )
        .unwrap();
    let by_elem: std::collections::HashMap<String, &Value> = r
        .rows
        .rows
        .iter()
        .map(|row| (row[0].lexical_form(), &row[1]))
        .collect();
    assert_eq!(by_elem["Hg"], &Value::Bool(true), "inferred type reached SESQL");
    assert_eq!(by_elem["Fe"], &Value::Bool(false));
}

#[test]
fn federation_feeds_sesql() {
    use std::sync::Arc;
    let remote = Database::new();
    remote
        .execute_script(
            "CREATE TABLE landfill (name TEXT, city TEXT);
             INSERT INTO landfill VALUES ('x','Torino'), ('y','Lyon');",
        )
        .unwrap();
    let fed = Database::new();
    fed.register_source(Arc::new(RemoteSource::new(
        "nat",
        remote,
        LatencyModel::instant(),
    )))
    .unwrap();
    let kb = KnowledgeBase::new();
    kb.register_user("u");
    kb.assert_statement(
        "u",
        &Triple::new(Term::iri("Torino"), Term::iri("inCountry"), Term::iri("Italy")),
    )
    .unwrap();
    let engine = SesqlEngine::new(fed, kb);
    let r = engine
        .execute(
            "u",
            "SELECT name, city FROM nat__landfill \
             ENRICH SCHEMAREPLACEMENT(city, inCountry)",
        )
        .unwrap();
    let by_name: std::collections::HashMap<String, String> = r
        .rows
        .rows
        .iter()
        .map(|row| (row[0].lexical_form(), row[1].lexical_form()))
        .collect();
    assert_eq!(by_name["x"], "Italy");
    assert_eq!(by_name["y"], "", "unknown city → NULL");
}

#[test]
fn platform_full_session() {
    // A realistic session: register, annotate, import, query, recommend.
    let db = crosse::smartground::generate(&SmartGroundConfig::tiny()).unwrap();
    let platform = CrossePlatform::new(db, KnowledgeBase::new());
    platform.register_user("anna").unwrap();
    platform.register_user("ben").unwrap();

    let id = platform
        .integrated_annotation(
            "anna",
            "elem_contained",
            "elem_name",
            "Hg",
            "dangerLevel",
            Term::lit("5"),
        )
        .or_else(|_| {
            // Hg may not be in the tiny sample; fall back to any element.
            let rs = platform
                .database()
                .query("SELECT elem_name FROM elem_contained LIMIT 1")
                .unwrap();
            let elem = rs.rows[0][0].lexical_form();
            platform.integrated_annotation(
                "anna",
                "elem_contained",
                "elem_name",
                &elem,
                "dangerLevel",
                Term::lit("5"),
            )
        })
        .unwrap();

    platform.import_statement("ben", id).unwrap();
    let r = platform
        .query(
            "ben",
            "SELECT elem_name FROM elem_contained \
             ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)",
        )
        .unwrap();
    assert!(r.rows.rows.iter().any(|row| !row[1].is_null()));

    let peers = crosse::core::recommend::recommend_peers(&platform, "ben", 3);
    assert_eq!(peers[0].item, "anna");
    assert_eq!(platform.query_log().len(), 1);
}

#[test]
fn multi_enrichment_pipeline_report_is_complete() {
    let engine = tiny_engine();
    let r = engine
        .execute(
            "director",
            &format!(
                "SELECT elem_name, landfill_name FROM elem_contained \
                 WHERE landfill_name = '{}' \
                 ENRICH SCHEMAEXTENSION(elem_name, dangerLevel) \
                        BOOLSCHEMAEXTENSION(elem_name, isA, HazardousWaste) \
                        SCHEMAREPLACEMENT(landfill_name, inCountry)",
                landfill_name(2)
            ),
        )
        .unwrap();
    assert_eq!(r.report.sparql_runs.len(), 3, "one SPARQL leg per clause");
    // Output: elem_name, inCountry (replacement), dangerLevel, HazardousWaste.
    let names: Vec<String> = r.rows.schema.columns.iter().map(|c| c.name.clone()).collect();
    assert_eq!(names, vec!["elem_name", "inCountry", "dangerLevel", "HazardousWaste"]);
}

#[test]
fn concurrent_queries_share_one_engine() {
    let engine = std::sync::Arc::new(tiny_engine());
    let mut handles = Vec::new();
    for i in 0..8 {
        let engine = std::sync::Arc::clone(&engine);
        handles.push(std::thread::spawn(move || {
            let target = landfill_name(i % 10);
            let r = engine
                .execute(
                    "director",
                    &format!(
                        "SELECT elem_name FROM elem_contained \
                         WHERE landfill_name = '{target}' \
                         ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)"
                    ),
                )
                .unwrap();
            r.rows.len()
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
}
