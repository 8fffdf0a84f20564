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

use crosse::core::{Lang, Session};
use crosse::relational::foreign::{LatencyModel, RemoteSource};
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
    let deposits = session.prepare(
        Lang::Sql,
        "SELECT name, CASE WHEN tons > 500000 THEN 'large' \
                           WHEN tons > 100000 THEN 'medium' \
                           ELSE 'small' END AS size \
         FROM landfill \
         WHERE name IN (SELECT landfill_name FROM elem_contained \
                        WHERE amount > (SELECT AVG(amount) FROM elem_contained)) \
           AND tons > $floor \
         ORDER BY name LIMIT 8",
    )?;
    let rs = deposits.execute(&Params::new().set("floor", 0))?.collect_rows()?;
    println!("\n== Landfills with above-average element deposits ==\n{rs}");
    let big = deposits.execute(&Params::new().set("floor", 100_000))?.collect_rows()?;
    println!("  (re-executed with $floor = 100k: {} row(s), no re-parse)", big.len());

    // ---- 3. SPARQL 1.1 on the knowledge base ----------------------------------
    let levels = session
        .prepare(
            Lang::Sparql,
            "SELECT ?d (COUNT(?e) AS ?n) WHERE { ?e <dangerLevel> ?d } \
             GROUP BY ?d HAVING(?n >= 1) ORDER BY DESC(?d)",
        )?
        .execute(&Params::new())?
        .collect_rows()?;
    println!("== Elements per danger level (SPARQL GROUP BY) ==");
    for row in &levels.rows {
        println!("  level {}: {} element(s)", row[0].lexical_form(), row[1].lexical_form());
    }

    // Property path with a parameterised seed element: one prepared
    // query answers "what co-occurs with X?" for any X.
    let cluster_of = session.prepare(
        Lang::Sparql,
        "SELECT ?x WHERE { $seed (<oreAssemblage>|^<oreAssemblage>)+ ?x } ORDER BY ?x",
    )?;
    for seed in ["Hg", "Pb"] {
        // A string written `<…>` binds an IRI.
        let sols = cluster_of
            .execute(&Params::new().set("seed", format!("<{seed}>")))?
            .collect_rows()?;
        let cluster: Vec<String> = sols.rows.iter().map(|r| r[0].lexical_form()).collect();
        println!("\n== {seed}'s (symmetric, transitive) ore-assemblage cluster ==");
        println!("  {}", cluster.join(", "));
    }

    // ---- 4. Exploration with the caches ---------------------------------------
    let explore = session.prepare(
        Lang::Sesql,
        "SELECT elem_name, landfill_name FROM elem_contained \
         WHERE landfill_name = $lf \
         ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)",
    )?;
    // The pipeline report of one execution.
    let report = |lf: &str| -> crosse::core::Result<_> {
        let rows = explore.execute(&Params::new().set("lf", lf))?;
        Ok(rows.report().cloned().unwrap_or_default())
    };
    let (first, second) = (report("LF00000")?, report("LF00001")?);
    println!("\n== Caches across repeated exploration (one prepared handle) ==");
    println!(
        "  first run : sparql leg {:?} (cached: {})",
        first.sparql_exec, first.sparql_runs[0].cached
    );
    println!(
        "  second run: sparql leg {:?} (cached: {})",
        second.sparql_exec, second.sparql_runs[0].cached
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
    print!("  plan:\n{}", by_landfill.explain()?);
    println!("  rows over the network: {moved} (the snapshot copied the whole table)");
    assert_eq!(pushed.rows, snapshot.rows, "pushdown must not change results");
    assert_eq!(moved, pushed.len() as u64, "only the matching rows crossed the network");

    Ok(())
}
