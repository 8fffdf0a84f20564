//! Analyst workbench: the "v2" engine features working together —
//! secondary indexes, subqueries and CASE in plain SQL, SPARQL 1.1
//! aggregates / property paths on the knowledge base, federation with
//! filter pushdown, and the SPARQL-leg cache under repeated exploration.
//!
//! ```sh
//! cargo run --example analyst_workbench
//! ```

use std::sync::Arc;
use std::time::Duration;

use crosse::core::session::Session;
use crosse::federation::{LatencyModel, RemoteSource};
use crosse::rdf::sparql::eval::EvalOptions;
use crosse::rdf::sparql::SparqlParams;
use crosse::rdf::term::Term;
use crosse::relational::{Database, Params};
use crosse::smartground::{standard_engine, SmartGroundConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A mid-size databank with the director's ontology pre-loaded.
    let engine = standard_engine(
        &SmartGroundConfig::default().with_landfills(100).with_seed(7),
        "director",
    )?;
    let db = engine.database();

    // ---- 1. Secondary indexes ------------------------------------------------
    db.execute("CREATE INDEX idx_elem ON elem_contained (elem_name)")?;
    db.execute("CREATE INDEX idx_lf ON elem_contained (landfill_name)")?;
    let plan = db.query(
        "EXPLAIN SELECT landfill_name FROM elem_contained WHERE elem_name = 'Hg'",
    )?;
    println!("== Indexed plan for the mercury lookup ==");
    for row in &plan.rows {
        println!("  {}", row[0].lexical_form());
    }

    // ---- 2. Subqueries + CASE, prepared once ----------------------------------
    // Landfills holding any element above a caller-chosen amount floor,
    // bucketed by size: the floor is a `$param`, so re-running the
    // analysis with a different threshold skips parse + plan.
    let session = Session::new(&engine, "director")?;
    let deposits = session.prepare_sql(
        "SELECT name, CASE WHEN tons > 500000 THEN 'large' \
                           WHEN tons > 100000 THEN 'medium' \
                           ELSE 'small' END AS size \
         FROM landfill \
         WHERE name IN (SELECT landfill_name FROM elem_contained \
                        WHERE amount > (SELECT AVG(amount) FROM elem_contained)) \
           AND tons > $floor \
         ORDER BY name LIMIT 8",
    )?;
    let rs = deposits.query(&Params::new().set("floor", 0))?;
    println!("\n== Landfills with above-average element deposits ==\n{rs}");
    let big = deposits.query(&Params::new().set("floor", 100_000))?;
    println!("  (re-executed with $floor = 100k: {} row(s), no re-parse)", big.len());

    // ---- 3. SPARQL 1.1 on the knowledge base ----------------------------------
    let kb = engine.knowledge_base();
    let graphs = kb.context_graphs("director");
    let refs: Vec<&str> = graphs.iter().map(String::as_str).collect();
    let sols = crosse::rdf::sparql::prepare(
        "SELECT ?d (COUNT(?e) AS ?n) WHERE { ?e <dangerLevel> ?d } \
         GROUP BY ?d HAVING(?n >= 1) ORDER BY DESC(?d)",
    )?
    .execute(kb.store(), &refs, &SparqlParams::new(), &EvalOptions::default())?;
    println!("== Elements per danger level (SPARQL GROUP BY) ==");
    for row in &sols.rows {
        let d = row[0].as_ref().map(|t| t.lexical_form().to_string()).unwrap_or_default();
        let n = row[1].as_ref().map(|t| t.lexical_form().to_string()).unwrap_or_default();
        println!("  level {d}: {n} element(s)");
    }

    // Property path with a parameterised seed element: one prepared
    // query answers "what co-occurs with X?" for any X.
    let cluster_of = session.prepare_sparql(
        "SELECT ?x WHERE { $seed (<oreAssemblage>|^<oreAssemblage>)+ ?x } ORDER BY ?x",
    )?;
    for seed in ["Hg", "Pb"] {
        let sols = cluster_of.execute(
            kb.store(),
            &refs,
            &SparqlParams::new().set("seed", Term::iri(seed)),
            &EvalOptions::default(),
        )?;
        let cluster: Vec<String> = sols
            .rows
            .iter()
            .filter_map(|r| r[0].as_ref().map(|t| t.lexical_form().to_string()))
            .collect();
        println!("\n== {seed}'s (symmetric, transitive) ore-assemblage cluster ==");
        println!("  {}", cluster.join(", "));
    }

    // ---- 4. Exploration with the caches ---------------------------------------
    let explore = session.prepare(
        "SELECT elem_name, landfill_name FROM elem_contained \
         WHERE landfill_name = $lf \
         ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)",
    )?;
    let first = session.execute(&explore, &Params::new().set("lf", "LF00000"))?;
    let second = session.execute(&explore, &Params::new().set("lf", "LF00001"))?;
    println!("\n== Caches across repeated exploration (one prepared handle) ==");
    println!(
        "  first run : sparql leg {:?} (cached: {})",
        first.report.sparql_exec, first.report.sparql_runs[0].cached
    );
    println!(
        "  second run: sparql leg {:?} (cached: {})",
        second.report.sparql_exec, second.report.sparql_runs[0].cached
    );
    let stats = engine.cache_stats();
    println!(
        "  solution cache: {} hit(s), {} miss(es), {} eviction(s)",
        stats.hits, stats.misses, stats.evictions
    );
    let pstats = engine.prepared_cache_stats();
    println!(
        "  prepared cache: {} hit(s), {} miss(es)",
        pstats.hits, pstats.misses
    );

    // ---- 5. Federation with filter pushdown ------------------------------------
    // The same databank as a remote source of a mediator: its tables are
    // foreign tables there, read live, with WHERE conjuncts shipped to it.
    let remote = RemoteSource::new(
        "eu",
        engine.database().clone(),
        LatencyModel {
            per_request: Duration::from_micros(300),
            per_row: Duration::from_micros(3),
            realtime: true,
        },
    );
    let mediator = Database::new();
    mediator.register_source(Arc::new(remote.clone()))?;
    let by_landfill = mediator.prepare(
        "SELECT elem_name, amount FROM eu__elem_contained WHERE landfill_name = $lf",
    )?;
    let lf = Params::new().set("lf", "LF00001");
    let before = remote.stats().rows_transferred;
    let pushed = by_landfill.query(&lf)?;
    let moved = remote.stats().rows_transferred - before;
    // A local snapshot is CREATE TABLE + INSERT … SELECT; it ships nothing
    // when queried.
    mediator.execute_script(
        "CREATE TABLE elem_copy (elem_name TEXT, landfill_name TEXT, amount FLOAT);
         INSERT INTO elem_copy SELECT * FROM eu__elem_contained;",
    )?;
    let snapshot = mediator
        .query("SELECT elem_name, amount FROM elem_copy WHERE landfill_name = 'LF00001'")?;
    println!("\n== Federation: filter pushdown vs a local snapshot ==");
    println!("  result rows          : {}", pushed.len());
    print!("  plan:\n{}", by_landfill.explain_with(&lf)?);
    println!("  rows over the network: {moved} (the snapshot copied the whole table)");
    assert_eq!(pushed.rows, snapshot.rows, "pushdown must not change results");
    assert_eq!(moved, pushed.len() as u64, "only the matching rows crossed the network");

    Ok(())
}
