//! Shared fixtures for the CroSSE benchmark harness.
//!
//! One experiment per paper figure (see DESIGN.md §4): every Criterion
//! bench in `benches/` and every table printed by the `experiments` binary
//! builds its inputs through these constructors, so both report on
//! identical workloads.

#![forbid(unsafe_code)]

use crosse_core::platform::CrossePlatform;
use crosse_core::sqm::SesqlEngine;
use crosse_rdf::provenance::KnowledgeBase;
use crosse_rdf::store::{Triple, TripleStore};
use crosse_rdf::term::Term;
use crosse_smartground::{
    director_ontology, generate, random_kb, standard_engine, SmartGroundConfig,
};

/// The SESQL corpus used for parser throughput (E1): the paper's examples
/// plus progressively longer synthetic queries.
pub fn parser_corpus() -> Vec<(String, String)> {
    let mut corpus: Vec<(String, String)> = crosse_smartground::paper_examples("LF00000")
        .into_iter()
        .map(|q| (q.name.to_string(), q.sesql))
        .collect();
    for n in [4usize, 16, 64] {
        let mut sql = String::from("SELECT c0");
        for i in 1..n {
            sql.push_str(&format!(", c{i}"));
        }
        sql.push_str(" FROM t WHERE c0 = 'x'");
        sql.push_str(" ENRICH");
        for i in 0..n.min(16) {
            sql.push_str(&format!(" SCHEMAEXTENSION(c{i}, p{i})"));
        }
        corpus.push((format!("synthetic-{n}cols"), sql));
    }
    // Extended-SQL interaction: subqueries and CASE inside the SQL part
    // must survive the ENRICH split and the ${cond:id} scanner.
    corpus.push((
        "subquery+case".to_string(),
        "SELECT elem_name, CASE WHEN amount > 10 THEN 'major' ELSE 'trace' END \
         FROM elem_contained \
         WHERE landfill_name IN (SELECT name FROM landfill WHERE tons > 1000) \
         ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)"
            .to_string(),
    ));
    corpus
}

/// Standard engine at a given databank scale (E2, E3).
pub fn engine_at_scale(landfills: usize) -> SesqlEngine {
    let config = SmartGroundConfig::default().with_landfills(landfills);
    standard_engine(&config, "director").expect("fixture generation")
}

/// Engine whose user also has `extra_kb` synthetic triples (E2's KB sweep).
pub fn engine_with_kb(landfills: usize, extra_kb: usize) -> SesqlEngine {
    let engine = engine_at_scale(landfills);
    if extra_kb > 0 {
        // Load directly into the user's graph: benchmark setup does not
        // need per-statement reification overhead.
        let graph = crosse_rdf::provenance::user_graph("director");
        let triples = random_kb(extra_kb, extra_kb / 10 + 1, 20, 99).expect("fixture kb");
        engine.knowledge_base().store().insert_all(&graph, triples.iter());
    }
    engine
}

/// A triple store pre-loaded with `n` triples in one graph (E4).
pub fn store_with_triples(n: usize) -> TripleStore {
    let store = TripleStore::new();
    let triples = random_kb(n, n / 20 + 1, 16, 7).expect("fixture kb");
    store.insert_all("kb", triples.iter());
    store
}

/// A store holding one fixed `total`-triple dataset distributed round-robin
/// over `users` graphs (E4 isolation: same data, varying graph count).
pub fn store_with_users(users: usize, total: usize) -> TripleStore {
    let store = TripleStore::new();
    let triples = random_kb(total, total / 10 + 1, 8, 7).expect("fixture kb");
    for (i, t) in triples.iter().enumerate() {
        store.insert(&format!("user{}", i % users.max(1)), t);
    }
    store
}

/// A crowdsourcing community: `users` members; user 0 seeds `statements`
/// statements (E6).
pub fn community(users: usize, statements: usize) -> CrossePlatform {
    let db = generate(&SmartGroundConfig::tiny()).expect("fixture generation");
    let platform = CrossePlatform::new(db, KnowledgeBase::new());
    for u in 0..users {
        platform.register_user(&format!("user{u}")).expect("register");
    }
    let kb = platform.knowledge_base();
    for t in random_kb(statements, statements / 5 + 1, 10, 3).expect("fixture kb") {
        kb.assert_statement("user0", &t).expect("assert");
    }
    platform
}

/// A community where knowledge is spread with controlled overlap (E8):
/// each user holds `per_user` statements drawn from a shared pool.
pub fn overlapping_community(users: usize, per_user: usize) -> CrossePlatform {
    let db = generate(&SmartGroundConfig::tiny()).expect("fixture generation");
    let platform = CrossePlatform::new(db, KnowledgeBase::new());
    let kb = platform.knowledge_base();
    let pool = random_kb(per_user * 4, per_user, 6, 11).expect("fixture kb");
    for u in 0..users {
        let name = format!("user{u}");
        platform.register_user(&name).expect("register");
        for k in 0..per_user {
            // Deterministic, overlapping slices of the pool.
            let idx = (u * per_user / 2 + k) % pool.len();
            kb.assert_statement(&name, &pool[idx]).expect("assert");
        }
    }
    platform
}

/// The manual-materialisation baseline for E7: export the user's
/// `dangerLevel` knowledge into a relational table so plain SQL can join
/// against it.
pub fn materialise_kb_to_table(engine: &SesqlEngine, user: &str, table: &str) {
    let kb = engine.knowledge_base();
    let sols = kb
        .query_as(user, "SELECT ?s ?o WHERE { ?s <dangerLevel> ?o }")
        .expect("kb query");
    let db = engine.database();
    let _ = db.catalog().drop_table(table);
    db.execute(&format!("CREATE TABLE {table} (elem TEXT, danger INT)"))
        .expect("create");
    let t = db.catalog().get_table(table).expect("table");
    let rows: Vec<Vec<crosse_relational::Value>> = sols
        .rows
        .iter()
        .filter_map(|r| match (&r[0], &r[1]) {
            (Some(s), Some(o)) => Some(vec![
                crosse_relational::Value::from(s.local_name()),
                crosse_relational::Value::Int(o.lexical_form().parse().unwrap_or(0)),
            ]),
            _ => None,
        })
        .collect();
    t.insert_many(rows).expect("insert");
}

/// Bloat the user's KB with `n` extra `dangerLevel` statements for
/// synthetic (non-databank) subjects. Both E7 regimes must process these:
/// SESQL's SPARQL leg fetches all `dangerLevel` pairs, and the manual
/// baseline exports them all into its relational KB table — but only the
/// manual baseline pays the relational write for them on every refresh.
pub fn bloat_danger_kb(engine: &SesqlEngine, user: &str, n: usize) {
    let graph = crosse_rdf::provenance::user_graph(user);
    let triples: Vec<Triple> = (0..n)
        .map(|i| {
            Triple::new(
                Term::iri(format!("SynthElem{i}")),
                Term::iri("dangerLevel"),
                Term::lit(((i % 5) + 1).to_string()),
            )
        })
        .collect();
    engine.knowledge_base().store().insert_all(&graph, triples.iter());
}

/// Simulate KB churn: flip one element's danger level (E7).
pub fn churn_kb(engine: &SesqlEngine, user: &str, round: u64) {
    let kb = engine.knowledge_base();
    let elem = crosse_smartground::schema::ELEMENTS
        [(round as usize) % crosse_smartground::schema::ELEMENTS.len()]
    .0;
    kb.assert_statement(
        user,
        &Triple::new(
            Term::iri(elem),
            Term::iri("dangerLevel"),
            Term::lit(((round % 5) + 1).to_string()),
        ),
    )
    .expect("assert");
}

/// A knowledge base with the director ontology for `user` (E6 helper).
pub fn director_kb(user: &str) -> KnowledgeBase {
    let kb = KnowledgeBase::new();
    kb.register_user(user);
    director_ontology(&kb, user).expect("ontology");
    kb
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_build() {
        assert!(parser_corpus().len() >= 9);
        let e = engine_at_scale(10);
        assert!(e.database().catalog().has_table("landfill"));
        let e = engine_with_kb(10, 100);
        assert!(e.knowledge_base().store().len() > 100);
        assert_eq!(store_with_triples(500).len(), 500);
        assert_eq!(store_with_users(3, 50).graph_names().len(), 3);
        let c = community(3, 20);
        assert_eq!(c.users().len(), 3);
        let oc = overlapping_community(4, 10);
        assert_eq!(oc.users().len(), 4);
    }

    #[test]
    fn materialised_baseline_matches_enrichment() {
        let engine = engine_at_scale(10);
        materialise_kb_to_table(&engine, "director", "kb_danger");
        let manual = engine
            .database()
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
        // Every manual row must appear in the enriched result (which also
        // keeps unmatched rows with NULL).
        assert!(manual.len() <= enriched.rows.len());
        assert!(!manual.is_empty());
    }

    #[test]
    fn churn_changes_kb() {
        let engine = engine_at_scale(5);
        let before = engine.knowledge_base().store().len();
        churn_kb(&engine, "director", 999);
        assert!(engine.knowledge_base().store().len() >= before);
    }
}
