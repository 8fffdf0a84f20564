//! CroSSE beyond SmartGround: the paper's conclusion plans to "package the
//! semantic enrichment and query modules as a general purpose product, to
//! be used in other domains". This example re-targets the engine at a
//! bibliography databank — no landfills anywhere — to show the modules are
//! domain-agnostic.
//!
//! ```sh
//! cargo run --example bibliography_domain
//! ```

use crosse::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ---- the shared factual databank: publications --------------------------
    let db = Database::new();
    db.execute_script(
        "CREATE TABLE paper (title TEXT, venue TEXT, year INT);
         INSERT INTO paper VALUES
           ('Mediators in the architecture of future information systems', 'Computer', 1992),
           ('The TSIMMIS approach to mediation', 'JIIS', 1997),
           ('Ontology-based data access', 'EDBT', 2013),
           ('Collaborative data sharing with Orchestra', 'SIGMOD', 2006),
           ('A social platform for scientific knowledge', 'MEDES', 2016);
         CREATE TABLE cites (citing TEXT, cited TEXT);
         INSERT INTO cites VALUES
           ('The TSIMMIS approach to mediation',
            'Mediators in the architecture of future information systems'),
           ('Ontology-based data access',
            'Mediators in the architecture of future information systems'),
           ('Collaborative data sharing with Orchestra',
            'The TSIMMIS approach to mediation');",
    )?;

    // ---- two researchers with different reading contexts ---------------------
    // The same venues mean different things to a database theorist and to
    // an e-government practitioner (the paper's Sec. I-B(a) scenario,
    // transplanted).
    let kb = KnowledgeBase::new();
    kb.register_user("theorist")?;
    kb.register_user("practitioner")?;
    for (venue, field) in [
        ("Computer", "SystemsVision"),
        ("JIIS", "DataIntegration"),
        ("EDBT", "DataIntegration"),
        ("SIGMOD", "DataIntegration"),
    ] {
        kb.assert_statement(
            "theorist",
            &Triple::new(Term::iri(venue), Term::iri("fieldOf"), Term::iri(field)),
        )?;
    }
    for (venue, field) in [
        ("MEDES", "ParticipatoryGov"),
        ("EDBT", "Infrastructure"),
        ("SIGMOD", "Infrastructure"),
    ] {
        kb.assert_statement(
            "practitioner",
            &Triple::new(Term::iri(venue), Term::iri("fieldOf"), Term::iri(field)),
        )?;
    }

    let engine = SesqlEngine::new(db, kb);

    // ---- the same *prepared* SESQL query, two personal contexts --------------
    // Compile once; the shared handle executes in each user's own
    // knowledge context.
    let by_field = engine.prepare(
        "SELECT title, venue FROM paper \
         ENRICH SCHEMAREPLACEMENT(venue, fieldOf)",
    )?;
    for user in ["theorist", "practitioner"] {
        let r = by_field.execute(user, &Params::new())?;
        println!("== {user}'s view (venue replaced by their own field taxonomy) ==");
        println!("{}", r.rows);
    }

    // ---- stored SPARQL query: venues the theorist considers core --------------
    engine.stored_queries().register(
        "coreVenues",
        "SELECT ?v WHERE { ?v <fieldOf> <DataIntegration> }",
    )?;
    // The year floor is a parameter: the same prepared handle answers
    // the question for any cut-off without re-parsing.
    let core_since = engine.prepare(
        "SELECT title, year FROM paper \
         WHERE ${venue = Core:c1} AND year >= $since \
         ENRICH REPLACECONSTANT(c1, Core, coreVenues)",
    )?;
    let r = core_since.execute("theorist", &Params::new().set("since", 1995))?;
    println!("== theorist: post-1995 papers in their core venues ==");
    println!("{}", r.rows);

    // ---- plain-SQL power features still apply in the new domain ---------------
    let db = engine.database();
    db.execute("CREATE INDEX idx_citing ON cites (citing)")?;
    let rs = db.query(
        "SELECT title, CASE WHEN title IN (SELECT cited FROM cites) \
                            THEN 'cited' ELSE 'leaf' END AS status \
         FROM paper ORDER BY title",
    )?;
    println!("== citation status (subquery + CASE over the indexed graph) ==");
    println!("{rs}");

    Ok(())
}
