//! Cross-crate integration tests for the second-wave features
//! (DESIGN.md §5c): secondary indexes under SESQL, aggregate stored
//! queries, federation pushdown feeding an engine, and the SPARQL-leg
//! cache observed through the platform.

use std::sync::Arc;
use std::time::Duration;

use crosse::federation::{LatencyModel, RemoteSource};
use crosse::prelude::*;
use crosse::smartground::{landfill_name, standard_engine, SmartGroundConfig};

fn engine() -> SesqlEngine {
    standard_engine(&SmartGroundConfig::tiny(), "director").unwrap()
}

#[test]
fn replace_constant_runs_on_indexed_attr_with_same_result() {
    // REPLACECONSTANT rewrites the tagged condition into `elem_name IN
    // (...)` — exactly the shape a secondary index accelerates. The result
    // must be identical with and without the index.
    let sesql = "SELECT landfill_name FROM elem_contained \
                 WHERE ${elem_name = HazardousWaste:cond1} \
                 ENRICH REPLACECONSTANT(cond1, HazardousWaste, dangerQuery)";
    let plain = engine().execute("director", sesql).unwrap();
    let indexed_engine = engine();
    indexed_engine
        .database()
        .execute("CREATE INDEX idx_elem ON elem_contained (elem_name)")
        .unwrap();
    let indexed = indexed_engine.execute("director", sesql).unwrap();
    assert_eq!(plain.rows.rows, indexed.rows.rows);
    assert!(!plain.rows.rows.is_empty(), "fixture has hazardous elements");
}

#[test]
fn aggregate_stored_query_drives_replace_constant() {
    // A stored query using SPARQL 1.1 aggregates: elements that carry at
    // least two statements in the director's context (dangerLevel + isA
    // for the hazardous ones).
    let e = engine();
    e.stored_queries()
        .register(
            "wellDescribed",
            "SELECT ?e (COUNT(?p) AS ?n) WHERE { ?e ?p ?o } \
             GROUP BY ?e HAVING(?n >= 2)",
        )
        .unwrap();
    let r = e
        .execute(
            "director",
            "SELECT elem_name FROM elem_contained \
             WHERE ${elem_name = Interesting:c1} \
             ENRICH REPLACECONSTANT(c1, Interesting, wellDescribed)",
        )
        .unwrap();
    assert!(!r.rows.rows.is_empty(), "hazardous elements have ≥2 statements");
    // Every returned element must indeed have ≥2 statements about it.
    let kb = e.knowledge_base();
    let graphs = kb.context_graphs("director");
    let refs: Vec<&str> = graphs.iter().map(String::as_str).collect();
    for row in &r.rows.rows {
        let elem = row[0].lexical_form();
        let sols = crosse::rdf::sparql::eval::query(
            kb.store(),
            &refs,
            &format!("SELECT ?p ?o WHERE {{ <{elem}> ?p ?o }}"),
        )
        .unwrap();
        assert!(sols.len() >= 2, "{elem} has only {} statement(s)", sols.len());
    }
}

#[test]
fn property_path_stored_query_expands_hierarchy() {
    // A stored query with a sequence/alternative path works end to end:
    // everything reachable from Hg through symmetric assemblage edges.
    let e = engine();
    e.stored_queries()
        .register(
            "hgCluster",
            "SELECT ?x WHERE { <Hg> (<oreAssemblage>|^<oreAssemblage>)+ ?x }",
        )
        .unwrap();
    let r = e
        .execute(
            "director",
            "SELECT elem_name, landfill_name FROM elem_contained \
             WHERE ${elem_name = Cluster:c1} \
             ENRICH REPLACECONSTANT(c1, Cluster, hgCluster)",
        )
        .unwrap();
    // Whatever matched must be in Hg's assemblage cluster (As or Sb or Hg
    // itself via a cycle); the fixture stores As in some landfill.
    for row in &r.rows.rows {
        let elem = row[0].lexical_form();
        assert!(
            ["Hg", "As", "Sb"].contains(&elem.as_str()),
            "unexpected cluster member {elem}"
        );
    }
}

#[test]
fn pushdown_federation_feeds_a_sesql_engine() {
    // A mediator over a remote SmartGround databank, and a SESQL engine on
    // the mediator: the enrichment runs on the foreign table directly, and
    // its SQL leg ships the WHERE to the source, so only matching rows
    // cross the network.
    let source_engine = engine();
    let remote = RemoteSource::new(
        "eu",
        source_engine.database().clone(),
        LatencyModel {
            per_request: Duration::from_micros(50),
            per_row: Duration::from_micros(1),
            realtime: false,
        },
    );
    let mediator = Database::new();
    mediator.register_source(Arc::new(remote.clone())).unwrap();
    let target = landfill_name(0);
    let matching = source_engine
        .database()
        .query(&format!(
            "SELECT elem_name FROM elem_contained WHERE landfill_name = '{target}'"
        ))
        .unwrap();
    assert!(!matching.is_empty());

    let kb = source_engine.knowledge_base().clone();
    let mediated = SesqlEngine::new(mediator, kb);
    let r = mediated
        .execute(
            "director",
            &format!(
                "SELECT elem_name FROM eu__elem_contained WHERE landfill_name = '{target}' \
                 ENRICH BOOLSCHEMAEXTENSION(elem_name, isA, HazardousWaste)"
            ),
        )
        .unwrap();
    assert_eq!(r.rows.len(), matching.len());
    assert_eq!(remote.stats().rows_transferred, matching.len() as u64);
    assert_eq!(remote.stats().requests, 1);
}

#[test]
fn cache_behaviour_visible_through_platform() {
    use crosse::core::platform::CrossePlatform;
    let p = CrossePlatform::from_engine(engine());
    let sesql = "SELECT elem_name FROM elem_contained \
                 ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)";
    let r1 = p.query("director", sesql).unwrap();
    let r2 = p.query("director", sesql).unwrap();
    assert!(!r1.report.sparql_runs[0].cached);
    assert!(r2.report.sparql_runs[0].cached);
    // An annotation through the platform invalidates the cache.
    p.independent_annotation(
        "director",
        Term::iri("Xx"),
        Term::iri("note"),
        Term::lit("y"),
    )
    .unwrap();
    let r3 = p.query("director", sesql).unwrap();
    assert!(!r3.report.sparql_runs[0].cached);
}

#[test]
fn sql_subqueries_work_on_the_smartground_schema() {
    let e = engine();
    let db = e.database();
    // Landfills that contain at least one element analysed at a
    // concentration above the overall average.
    let rs = db
        .query(
            "SELECT DISTINCT name FROM landfill WHERE name IN \
             (SELECT landfill_name FROM analysis WHERE concentration > \
               (SELECT AVG(concentration) FROM analysis)) ORDER BY name",
        )
        .unwrap();
    let total = db.query("SELECT COUNT(DISTINCT name) FROM landfill").unwrap();
    let Value::Int(n_landfills) = total.rows[0][0] else { panic!() };
    assert!(rs.len() as i64 <= n_landfills);
    assert!(!rs.rows.is_empty(), "someone is above average");
}
