//! Data-tooling tour: CSV ingestion, EXPLAIN plans, UNION queries, result
//! previews, and exporting a user's knowledge as N-Triples / Graphviz DOT.
//!
//! ```sh
//! cargo run --example data_tooling
//! ```

use crosse::core::explore;
use crosse::prelude::*;
use crosse::rdf::export::{to_dot, to_ntriples};
use crosse::relational::csv::{export_csv, import_csv};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Flat-file ingestion: a national agency delivers landfill data as
    //    CSV (the paper's "national agencies, public bodies data bases").
    let db = Database::new();
    db.execute(
        "CREATE TABLE landfill (name TEXT, city TEXT, tons FLOAT, kind TEXT)",
    )?;
    let delivery = "\
name,city,tons,kind
Basse di Stura,Torino,1200.5,municipal
Barricalla,Collegno,800.0,industrial
\"Miniera di Funtana Raminosa\",Cagliari,15000.0,mining
Gerbido,Torino,450.0,municipal";
    let table = db.catalog().get_table("landfill")?;
    let n = import_csv(&table, delivery, true)?;
    println!("imported {n} rows from the agency CSV\n");

    // 2. EXPLAIN: inspect how the engine plans a query (pushdown + hash
    //    join visible).
    db.execute(
        "CREATE TABLE elem_contained (elem_name TEXT, landfill_name TEXT, amount FLOAT)",
    )?;
    db.execute(
        "INSERT INTO elem_contained VALUES
           ('Hg','Basse di Stura',12.5), ('Cu','Miniera di Funtana Raminosa',4000.0),
           ('Pb','Gerbido',20.0)",
    )?;
    let plan = db.query(
        "EXPLAIN SELECT l.name, e.elem_name FROM landfill l, elem_contained e \
         WHERE l.name = e.landfill_name AND l.tons > 500",
    )?;
    println!("EXPLAIN output:");
    for row in &plan.rows {
        println!("  {}", row[0].lexical_form());
    }

    // 3. UNION: one report combining mining sites and mercury sites.
    let rs = db.query(
        "SELECT name FROM landfill WHERE kind = 'mining' \
         UNION \
         SELECT landfill_name FROM elem_contained WHERE elem_name = 'Hg' \
         ORDER BY name",
    )?;
    println!("\nmining ∪ mercury sites:\n{rs}");

    // 4. Result preview (Sec. I-B(c) summaries), via the prepared-cursor
    //    path: the cursor streams and `collect_rows` materialises only
    //    what the preview needs.
    let all = db.prepare("SELECT * FROM landfill")?
        .execute(&Params::new())?
        .collect_rows()?;
    println!("preview of the landfill table:\n{}", explore::preview_text(&all));

    // 5. Concept highlighting in free text.
    let note = "The mercury levels near the Torino municipal landfill \
                exceeded the 2017 threshold; lead was within limits.";
    println!(
        "highlighted note:\n  {}\n",
        explore::highlight(note, &["mercury", "lead", "Torino"])
    );

    // 6. Knowledge export: the director's KB as N-Triples and DOT.
    let kb = KnowledgeBase::new();
    kb.register_user("director")?;
    for (s, p, o) in [
        ("Hg", "dangerLevel", "5"),
        ("Pb", "dangerLevel", "4"),
    ] {
        kb.assert_statement(
            "director",
            &Triple::new(Term::iri(s), Term::iri(p), Term::lit(o)),
        )?;
    }
    kb.assert_statement(
        "director",
        &Triple::new(Term::iri("Hg"), Term::iri("isA"), Term::iri("HazardousWaste")),
    )?;
    let graph = crosse::rdf::provenance::user_graph("director");
    let triples = kb.store().graph_triples(&graph);
    println!("director's KB as N-Triples:\n{}", to_ntriples(&triples));
    println!("as Graphviz DOT (pipe into `dot -Tsvg`):\n{}", to_dot("director", &triples));

    // 7. Round-trip: export a query result as CSV.
    let csv = export_csv(&rs);
    println!("UNION result as CSV:\n{csv}");
    Ok(())
}
