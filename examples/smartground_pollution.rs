//! The SmartGround pollution scenario: all six paper examples (4.1–4.6)
//! running against a generated landfill databank with the lab director's
//! ontology.
//!
//! ```sh
//! cargo run --example smartground_pollution
//! ```

use crosse::prelude::*;
use crosse::smartground::{landfill_name, paper_examples};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A mid-sized synthetic databank: 60 landfills, the full element
    // inventory, labs and analyses.
    let config = SmartGroundConfig {
        landfills: 60,
        elements_per_landfill: 5,
        labs: 4,
        analyses_per_landfill: 3,
        seed: 2018,
    };
    let engine = standard_engine(&config, "director")?;

    println!("=== SmartGround databank ===");
    for table in crosse::smartground::schema::TABLES {
        let n = engine
            .database()
            .query(&format!("SELECT COUNT(*) FROM {table}"))?;
        println!("  {table:<15} {} rows", n.rows[0][0]);
    }
    println!(
        "  director KB     {} triples\n",
        engine.knowledge_base().personal_size("director")
    );

    let target = landfill_name(0);
    for q in paper_examples(&target) {
        println!("=== {} ===", q.name);
        println!("SESQL: {}\n", q.sesql.split_whitespace().collect::<Vec<_>>().join(" "));
        let result = engine.execute("director", &q.sesql)?;
        // Show at most 8 rows to keep the tour readable.
        let mut preview = result.rows.clone();
        preview.rows.truncate(8);
        println!("{}", preview);
        println!(
            "({} rows total, pipeline {:?}: sql {:?}, sparql {:?}, join {:?})\n",
            result.rows.len(),
            result.report.total(),
            result.report.sql_exec,
            result.report.sparql_exec,
            result.report.join,
        );
    }

    // A decision-maker question from the paper's introduction: "Is there an
    // advantage of acquiring a given material from a specific landfill?"
    // The element and amount floor are parameters, so the same prepared
    // handle serves any material the decision maker asks about.
    println!("=== copper-rich landfills, hazard-annotated ===");
    let session = Session::new(&engine, "director")?;
    let acquire = session.prepare(
        Lang::Sesql,
        "SELECT landfill_name, elem_name, amount FROM elem_contained \
         WHERE elem_name = $elem AND amount > $floor \
         ENRICH SCHEMAEXTENSION(elem_name, dangerLevel) \
                BOOLSCHEMAEXTENSION(elem_name, isA, HazardousWaste)",
    )?;
    let bind = |elem: &str| Params::new().set("elem", elem).set("floor", 1000);
    println!("{}", acquire.execute(&bind("Cu"))?.collect_rows()?);
    let zinc = acquire.execute(&bind("Zn"))?.collect_rows()?;
    println!("(same handle for zinc: {} row(s))", zinc.len());
    Ok(())
}
