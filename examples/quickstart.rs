//! Quickstart: build a databank, add personal knowledge, then run the
//! paper's Example 4.1 through the prepare-once / execute-many lifecycle.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use crosse::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. The relational databank (the SmartGround "main platform").
    let db = Database::new();
    db.execute_script(
        "CREATE TABLE elem_contained (elem_name TEXT, landfill_name TEXT, amount FLOAT);
         INSERT INTO elem_contained VALUES
           ('Hg', 'a', 12.5),
           ('Pb', 'a', 30.0),
           ('Cu', 'a', 100.0),
           ('As', 'b', 5.2);",
    )?;

    // 2. The user's personal contextual knowledge (the "semantic
    //    platform"): RDF statements about danger levels.
    let kb = KnowledgeBase::new();
    kb.register_user("director")?;
    for (elem, level) in [("Hg", "5"), ("Pb", "4"), ("Cu", "1")] {
        kb.assert_statement(
            "director",
            &Triple::new(Term::iri(elem), Term::iri("dangerLevel"), Term::lit(level)),
        )?;
    }

    // 3. SESQL through a session: prepare the parameterised query once,
    //    execute it for as many bindings as needed — repeated traffic
    //    never re-parses (paper Example 4.1, per landfill).
    let engine = SesqlEngine::new(db, kb);
    let session = Session::new(&engine, "director")?;
    let by_landfill = session.prepare(
        Lang::Sesql,
        "SELECT elem_name, landfill_name \
         FROM elem_contained \
         WHERE landfill_name = $lf \
         ENRICH \
         SCHEMAEXTENSION( elem_name, dangerLevel)",
    )?;

    let mut cursor = by_landfill.execute(&Params::new().set("lf", "a"))?;
    println!("Enriched result (Example 4.1, landfill a):");
    println!("{}", cursor.collect_rows()?);

    // Execute-many: same compiled handle, different binding.
    let other = by_landfill.execute(&Params::new().set("lf", "b"))?.collect_rows()?;
    println!("Same prepared query for landfill b ({} row(s)).", other.len());

    println!("Pipeline (Fig. 6 stages):");
    let r = cursor.report().ok_or("an enriched cursor carries its report")?;
    println!("  SQP parse     : {:?}", r.parse);
    println!("  SQL leg       : {:?} ({} rows)", r.sql_exec, r.base_rows);
    println!("  SPARQL leg(s) : {:?}", r.sparql_exec);
    for run in &r.sparql_runs {
        println!("    {} -> {} solutions", run.purpose, run.solutions);
        println!("    generated: {}", run.sparql);
    }
    println!("  enrichment    : {:?} ({} rows)", r.join, r.result_rows);
    Ok(())
}
