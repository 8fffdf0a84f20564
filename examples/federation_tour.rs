//! Federation tour (paper Fig. 1): the SmartGround databank integrates a
//! national source and a remote EU statistics source over a simulated
//! `postgres_fdw` link, and SESQL queries run over the federated surface.
//!
//! ```sh
//! cargo run --example federation_tour
//! ```

use std::sync::Arc;
use std::time::Duration;

use crosse::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // National databank (local, colocated with the mediator).
    let national = Database::new();
    national.execute_script(
        "CREATE TABLE landfill (name TEXT, city TEXT, tons FLOAT);
         INSERT INTO landfill VALUES
           ('Basse di Stura', 'Torino', 1200.0),
           ('Barricalla', 'Collegno', 800.5),
           ('Gerbido', 'Torino', 450.0);",
    )?;

    // EU statistics databank behind a 2 ms round-trip link.
    let eu = Database::new();
    eu.execute_script(
        "CREATE TABLE waste_stats (country TEXT, year INT, kilotons FLOAT);
         INSERT INTO waste_stats VALUES
           ('Italy', 2016, 29524.0), ('Italy', 2017, 29991.5),
           ('France', 2016, 34200.0), ('Germany', 2016, 51010.0);",
    )?;

    // The mediator: one Database whose catalog gains each source's tables
    // as read-only foreign tables (`<source>__<table>`).
    let it = LocalSource::new("it", national);
    let eu = RemoteSource::new("eu", eu, LatencyModel::with_rtt(Duration::from_millis(2)));
    let mediator = Database::new();
    let mut foreign = mediator.register_source(Arc::new(it.clone()))?;
    foreign.extend(mediator.register_source(Arc::new(eu.clone()))?);
    println!("foreign tables: {foreign:?}\n");

    // A prepared query joining both sources: country and year bind per
    // execution, every execution reads both sources live, and the WHERE
    // conjuncts on the EU table travel to the EU source.
    let totals = mediator.prepare(
        "SELECT l.name, l.city, w.kilotons \
         FROM it__landfill l, eu__waste_stats w \
         WHERE w.country = $country AND w.year = $year \
         ORDER BY l.name",
    )?;
    let italy_2017 = Params::new().set("country", "Italy").set("year", 2017);
    let rs = totals.query(&italy_2017)?;
    println!("landfills with the 2017 national total:\n{rs}");
    let rs16 = totals.query(&Params::new().set("country", "Italy").set("year", 2016))?;
    println!("(same handle, 2016 binding: {} row(s))\n", rs16.len());
    println!("plan, with the SQL each source receives:\n{}", totals.explain()?);

    let t0 = std::time::Instant::now();
    mediator.query("SELECT COUNT(*) FROM eu__waste_stats")?;
    println!("federated query took {:?} (includes simulated RTT)", t0.elapsed());

    for (name, stats) in [("it", it.stats()), ("eu", eu.stats())] {
        println!(
            "source {name:<4} requests={} rows={} simulated-network={:?}",
            stats.requests,
            stats.rows_transferred,
            stats.simulated_network()
        );
    }

    // SESQL on top of the federated surface: the mediator is a regular
    // Database, so the engine plugs straight in (and its SQL leg gets the
    // same pushdown).
    let kb = KnowledgeBase::new();
    kb.register_user("analyst")?;
    for (city, country) in [("Torino", "Italy"), ("Collegno", "Italy")] {
        kb.assert_statement(
            "analyst",
            &Triple::new(Term::iri(city), Term::iri("inCountry"), Term::iri(country)),
        )?;
    }
    let engine = SesqlEngine::new(mediator, kb);
    let session = Session::new(&engine, "analyst")?;
    let enrich = session.prepare(
        Lang::Sesql,
        "SELECT name, city FROM it__landfill \
         ENRICH SCHEMAREPLACEMENT(city, inCountry)",
    )?;
    let result = enrich.execute(&Params::new())?.collect_rows()?;
    println!("\nSESQL over the federation (Example 4.2 shape):\n{result}");
    Ok(())
}
