//! The experiment runner: regenerates every experiment table (E1–E10) of
//! EXPERIMENTS.md in one run.
//!
//! ```sh
//! cargo run --release -p crosse-bench --bin experiments          # all
//! cargo run --release -p crosse-bench --bin experiments -- e2 e7 # subset
//! ```

use std::time::{Duration, Instant};

use crosse_bench::*;
use crosse_core::parse_sesql;
use crosse_core::recommend::{recommend_peers, recommend_statements};
use crosse_rdf::sparql::eval::query as sparql_query;
use crosse_rdf::store::{Triple, TripleStore};
use crosse_rdf::term::Term;
use crosse_smartground::{landfill_name, paper_examples, random_kb};

/// Median wall time of `runs` executions of `f`.
fn median_time<T>(runs: usize, mut f: impl FnMut() -> T) -> Duration {
    let mut samples: Vec<Duration> = (0..runs)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(f());
            t0.elapsed()
        })
        .collect();
    samples.sort();
    samples[samples.len() / 2]
}

fn fmt(d: Duration) -> String {
    if d >= Duration::from_millis(10) {
        format!("{:.2} ms", d.as_secs_f64() * 1e3)
    } else if d >= Duration::from_micros(10) {
        format!("{:.1} µs", d.as_secs_f64() * 1e6)
    } else {
        format!("{} ns", d.as_nanos())
    }
}

fn header(id: &str, title: &str) {
    println!("\n================================================================");
    println!("{id}: {title}");
    println!("================================================================");
}

fn e1() {
    header("E1", "SESQL parser conformance + throughput (paper Fig. 5)");
    println!("{:<22} {:>10} {:>12}", "query", "bytes", "parse time");
    for (name, sesql) in parser_corpus() {
        let t = median_time(50, || parse_sesql(&sesql).unwrap());
        println!("{:<22} {:>10} {:>12}", name, sesql.len(), fmt(t));
    }
}

fn e2() {
    header("E2", "Fig. 6 pipeline stage breakdown");
    let sesql = "SELECT elem_name, landfill_name FROM elem_contained \
                 ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)";
    println!(
        "{:>9} {:>9} | {:>10} {:>10} {:>10} {:>10} {:>10} | {:>10} {:>7}",
        "rows", "kb", "parse", "sql", "sparql", "join", "final", "total", "out"
    );
    for (landfills, kb) in [
        (50usize, 1_000usize),
        (200, 1_000),
        (800, 1_000),
        (200, 10_000),
        (200, 50_000),
    ] {
        let engine = engine_with_kb(landfills, kb);
        // median-of-3 full reports: rerun and keep the middle by total.
        let mut reports: Vec<_> = (0..3)
            .map(|_| engine.execute("director", sesql).unwrap().report)
            .collect();
        reports.sort_by_key(|r| r.total());
        let r = &reports[1];
        println!(
            "{:>9} {:>9} | {:>10} {:>10} {:>10} {:>10} {:>10} | {:>10} {:>7}",
            r.base_rows,
            kb,
            fmt(r.parse),
            fmt(r.sql_exec),
            fmt(r.sparql_exec),
            fmt(r.join),
            fmt(r.final_sql),
            fmt(r.total()),
            r.result_rows,
        );
    }
}

fn e3() -> Vec<(String, Duration, Duration, usize)> {
    header("E3", "Per-operator enrichment cost vs plain-SQL baseline (Ex. 4.1–4.6)");
    let engine = engine_at_scale(100);
    println!(
        "{:<26} {:>12} {:>12} {:>9} {:>7}",
        "operator", "sesql", "baseline", "overhead", "rows"
    );
    let mut records: Vec<(String, Duration, Duration, usize)> = Vec::new();
    for q in paper_examples(&landfill_name(0)) {
        let ts = median_time(5, || engine.execute("director", &q.sesql).unwrap());
        let tb = median_time(5, || engine.database().query(&q.baseline_sql).unwrap());
        let rows = engine.execute("director", &q.sesql).unwrap().rows.len();
        println!(
            "{:<26} {:>12} {:>12} {:>8.1}x {:>7}",
            q.name,
            fmt(ts),
            fmt(tb),
            ts.as_secs_f64() / tb.as_secs_f64().max(1e-9),
            rows,
        );
        records.push((q.name.to_string(), ts, tb, rows));
    }
    // Prepared-vs-reparse: the same parameterised enrichment shape
    // executed through the prepare/bind lifecycle ("sesql" column) vs by
    // formatting + re-parsing the text per request ("baseline" column).
    {
        use crosse_relational::Params;
        let shape = "SELECT elem_name, landfill_name FROM elem_contained \
                     WHERE landfill_name = $lf \
                     ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)";
        let prepared = engine.prepare(shape).unwrap();
        let lf = landfill_name(0);
        let tp = median_time(5, || {
            prepared
                .execute("director", &Params::new().set("lf", lf.as_str()))
                .unwrap()
        });
        let tr = median_time(5, || {
            let text = shape.replace("$lf", &format!("'{lf}'"));
            engine.execute("director", &text).unwrap()
        });
        let rows = prepared
            .execute("director", &Params::new().set("lf", lf.as_str()))
            .unwrap()
            .rows
            .len();
        println!(
            "{:<26} {:>12} {:>12} {:>8.2}x {:>7}   (prepared vs re-parsed text)",
            "prepared-vs-reparse",
            fmt(tp),
            fmt(tr),
            tp.as_secs_f64() / tr.as_secs_f64().max(1e-9),
            rows,
        );
        records.push(("prepared-vs-reparse".to_string(), tp, tr, rows));
    }
    records
}

fn e4() {
    header("E4", "Triple store scaling (paper Fig. 4 substrate)");
    println!("{:<28} {:>10} {:>14}", "workload", "size", "median time");
    for n in [1_000usize, 10_000, 100_000] {
        let triples = random_kb(n, n / 20 + 1, 16, 7).expect("fixture kb");
        let t = median_time(3, || {
            let store = TripleStore::new();
            store.insert_all("kb", triples.iter())
        });
        println!("{:<28} {:>10} {:>14}   ({:.0} triples/s)", "bulk insert", n, fmt(t),
            n as f64 / t.as_secs_f64());
    }
    let sparql = "SELECT ?s ?o WHERE { ?s <prop0> ?o . ?s <prop1> ?v }";
    for n in [1_000usize, 10_000, 100_000] {
        let store = store_with_triples(n);
        let t = median_time(5, || sparql_query(&store, &["kb"], sparql).unwrap());
        println!("{:<28} {:>10} {:>14}", "2-pattern BGP join", n, fmt(t));
    }
    for users in [1usize, 10, 100] {
        let store = store_with_users(users, 10_000);
        let graphs: Vec<String> = (0..users).map(|u| format!("user{u}")).collect();
        let refs: Vec<&str> = graphs.iter().map(String::as_str).collect();
        let t = median_time(5, || {
            sparql_query(&store, &refs, "SELECT ?s ?o WHERE { ?s <prop0> ?o }").unwrap()
        });
        println!(
            "{:<28} {:>10} {:>14}",
            "10k triples over N graphs", users, fmt(t)
        );
    }
}

fn e6() {
    header("E6", "Crowdsourcing throughput (paper Fig. 2 / Sec. III)");
    println!("{:<26} {:>10} {:>14}", "operation", "kb size", "median time");
    for existing in [100usize, 1_000, 5_000] {
        let platform = community(5, existing);
        let kb = platform.knowledge_base().clone();
        let mut i = 0u64;
        let t = median_time(50, || {
            i += 1;
            kb.assert_statement(
                "user1",
                &Triple::new(
                    Term::iri(format!("fresh{i}")),
                    Term::iri("p"),
                    Term::lit(i.to_string()),
                ),
            )
            .unwrap()
        });
        println!("{:<26} {:>10} {:>14}", "assert statement", existing, fmt(t));
    }
    for statements in [100usize, 1_000, 5_000] {
        let platform = community(10, statements);
        let t = median_time(5, || platform.browse_peer_statements("user1").len());
        println!("{:<26} {:>10} {:>14}", "browse public statements", statements, fmt(t));
        let ids = platform.knowledge_base().statements_by("user0");
        let mut k = 0usize;
        let t = median_time(20, || {
            let id = ids[k % ids.len()];
            k += 1;
            platform.import_statement("user2", id).unwrap()
        });
        println!("{:<26} {:>10} {:>14}", "import (accept) belief", statements, fmt(t));
    }
}

fn e7() {
    header("E7", "SESQL vs manual materialisation under KB churn (Sec. I-B)");
    // A selective analyst query: enrich the contents of one landfill.
    let sesql_q = format!(
        "SELECT elem_name, landfill_name FROM elem_contained \
         WHERE landfill_name = '{}' \
         ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)",
        landfill_name(50)
    );
    let manual_q = format!(
        "SELECT e.elem_name, e.landfill_name, k.danger \
         FROM elem_contained e \
         LEFT JOIN kb_danger k ON e.elem_name = k.elem \
         WHERE e.landfill_name = '{}'",
        landfill_name(50)
    );
    println!(
        "{:<10} {:>14} {:>14} {:>14} {:>12}",
        "kb size", "sesql", "manual-cached", "manual-remat", "crossover p"
    );
    for kb_bloat in [0usize, 2_000, 10_000, 50_000] {
        let engine = engine_at_scale(200);
        bloat_danger_kb(&engine, "director", kb_bloat);
        materialise_kb_to_table(&engine, "director", "kb_danger");

        let t_sesql = median_time(5, || engine.execute("director", &sesql_q).unwrap());
        let t_cached = median_time(5, || engine.database().query(&manual_q).unwrap());
        let mut round = 0u64;
        let t_remat = median_time(5, || {
            round += 1;
            churn_kb(&engine, "director", round);
            materialise_kb_to_table(&engine, "director", "kb_danger");
            engine.database().query(&manual_q).unwrap()
        });
        // crossover churn rate: cached + p·(remat − cached) = sesql
        let denom = t_remat.as_secs_f64() - t_cached.as_secs_f64();
        let p_star = if denom > 0.0 {
            (t_sesql.as_secs_f64() - t_cached.as_secs_f64()) / denom
        } else {
            f64::INFINITY
        };
        println!(
            "{:<10} {:>14} {:>14} {:>14} {:>12}",
            kb_bloat + 38,
            fmt(t_sesql),
            fmt(t_cached),
            fmt(t_remat),
            if (0.0..=1.0).contains(&p_star) {
                format!("{p_star:.2}")
            } else if p_star > 1.0 {
                "> 1 (manual)".to_string()
            } else {
                "0 (sesql)".to_string()
            },
        );
    }
    println!();
    println!("crossover p = churn rate above which SESQL's always-fresh context");
    println!("beats manual export-and-join; below it the cached manual join wins");
    println!("at the price of stale knowledge.");
}

fn e8() {
    header("E8", "Peer services cost vs community size (Sec. I-B)");
    println!("{:<26} {:>8} {:>14}", "service", "users", "median time");
    for users in [10usize, 50, 200, 500] {
        let platform = overlapping_community(users, 20);
        let t = median_time(3, || recommend_peers(&platform, "user0", 10));
        println!("{:<26} {:>8} {:>14}", "peer discovery", users, fmt(t));
        let t = median_time(3, || recommend_statements(&platform, "user0", 10));
        println!("{:<26} {:>8} {:>14}", "statement recommendation", users, fmt(t));
    }
    // Recommendation quality on the overlap model: the most similar peer
    // shares half their statements with user0 by construction.
    let platform = overlapping_community(20, 20);
    let peers = recommend_peers(&platform, "user0", 3);
    println!("\ntop peers of user0 (overlap model): ");
    for p in &peers {
        println!("  {:<8} score {:.3}", p.item, p.score);
    }
}

fn e9() {
    header("E9", "Design-choice ablations (DESIGN.md §4)");
    use crosse_core::sqm::{EnrichOptions, MultiValuePolicy};
    use crosse_rdf::reasoner::{instances_of, materialize_rdfs};
    use crosse_rdf::schema as rdfschema;

    // Join strategy.
    let engine = engine_at_scale(300);
    let db = engine.database().clone();
    let hash = "SELECT COUNT(*) FROM elem_contained e JOIN landfill l \
                ON e.landfill_name = l.name";
    let nested = "SELECT COUNT(*) FROM elem_contained e JOIN landfill l \
                  ON e.landfill_name <= l.name AND e.landfill_name >= l.name";
    assert_eq!(db.query(hash).unwrap().rows, db.query(nested).unwrap().rows);
    let th = median_time(5, || db.query(hash).unwrap());
    let tn = median_time(5, || db.query(nested).unwrap());
    println!("{:<36} {:>14}", "equi-join as hash join", fmt(th));
    println!(
        "{:<36} {:>14}   ({:.0}x slower)",
        "same query as nested loop",
        fmt(tn),
        tn.as_secs_f64() / th.as_secs_f64()
    );

    // Multi-value policy.
    let sesql = "SELECT elem_name FROM elem_contained \
                 ENRICH SCHEMAEXTENSION(elem_name, oreAssemblage)";
    for (name, policy) in [
        ("multi policy: row-per-match", MultiValuePolicy::RowPerMatch),
        ("multi policy: first-match", MultiValuePolicy::FirstMatch),
        ("multi policy: concatenate", MultiValuePolicy::Concatenate),
    ] {
        let e = engine_at_scale(200)
            .with_options(EnrichOptions { multi: policy, ..EnrichOptions::default() });
        let r = e.execute("director", sesql).unwrap();
        let t = median_time(5, || e.execute("director", sesql).unwrap());
        println!("{:<36} {:>14}   ({} rows)", name, fmt(t), r.rows.len());
    }

    // Provenance overhead.
    let triples = random_kb(500, 100, 10, 5).expect("fixture kb");
    let t_raw = median_time(5, || {
        let store = TripleStore::new();
        store.insert_all("u", triples.iter())
    });
    let t_reified = median_time(5, || {
        let kb = crosse_rdf::provenance::KnowledgeBase::new();
        kb.register_user("u");
        for t in &triples {
            kb.assert_statement("u", t).unwrap();
        }
    });
    println!("{:<36} {:>14}", "500 raw triple inserts", fmt(t_raw));
    println!(
        "{:<36} {:>14}   ({:.0}x, buys provenance)",
        "500 reified assert_statement",
        fmt(t_reified),
        t_reified.as_secs_f64() / t_raw.as_secs_f64()
    );

    // Inference strategy.
    let mk = || {
        let store = TripleStore::new();
        for i in 1..10 {
            store.insert(
                "kb",
                &Triple::new(
                    Term::iri(format!("C{i}")),
                    rdfschema::rdfs_subclass_of(),
                    Term::iri(format!("C{}", i - 1)),
                ),
            );
        }
        for j in 0..200 {
            store.insert(
                "kb",
                &Triple::new(
                    Term::iri(format!("x{j}")),
                    rdfschema::rdf_type(),
                    Term::iri("C9"),
                ),
            );
        }
        store
    };
    let root = Term::iri("C0");
    let store = mk();
    let t_walk = median_time(5, || instances_of(&store, &["kb"], &root));
    let t_mat = median_time(3, || {
        let s = mk();
        materialize_rdfs(&s, &["kb"], "inf");
        instances_of(&s, &["kb", "inf"], &root)
    });
    let warm = mk();
    materialize_rdfs(&warm, &["kb"], "inf");
    let t_lookup = median_time(5, || instances_of(&warm, &["kb", "inf"], &root));
    println!("{:<36} {:>14}", "rdfs: query-time subclass walk", fmt(t_walk));
    println!("{:<36} {:>14}", "rdfs: materialise + lookup (cold)", fmt(t_mat));
    println!("{:<36} {:>14}", "rdfs: lookup after materialise", fmt(t_lookup));
}

fn e9b() {
    header("E9b", "SPARQL-leg cache ablations");

    // SPARQL-leg cache: same enrichment re-run over an unchanged KB.
    let sesql = "SELECT elem_name FROM elem_contained \
                 ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)";
    for (name, use_cache) in [("sparql cache on", true), ("sparql cache off", false)] {
        let e = engine_at_scale(200);
        if !use_cache {
            e.set_cache_capacity(0);
        }
        e.execute("director", sesql).unwrap(); // warm
        let t = median_time(9, || e.execute("director", sesql).unwrap());
        println!("{:<36} {:>14}", name, fmt(t));
    }
    let e = engine_at_scale(200);
    let mut i = 0u64;
    let t = median_time(9, || {
        i += 1;
        e.knowledge_base()
            .assert_statement(
                "director",
                &Triple::new(Term::iri(format!("n{i}")), Term::iri("c"), Term::lit("x")),
            )
            .unwrap();
        e.execute("director", sesql).unwrap()
    });
    println!("{:<36} {:>14}   (cache never valid)", "cache on, KB churn each query", fmt(t));
}

fn e10() {
    header("E10", "Secondary-index ablation (seq scan vs index scan)");
    use crosse_relational::Database;
    let build = |rows: usize, with_index: bool| {
        let db = Database::new();
        db.execute("CREATE TABLE samples (id INT, site TEXT, metal TEXT, ppm FLOAT)")
            .unwrap();
        let metals = ["Hg", "Pb", "As", "Cd", "Cu", "Zn", "Ni", "Cr"];
        let mut values = Vec::with_capacity(rows);
        for i in 0..rows {
            values.push(format!(
                "({i}, 'site{:03}', '{}', {:.2})",
                i % 97,
                metals[i % metals.len()],
                (i % 5000) as f64 / 10.0
            ));
        }
        for chunk in values.chunks(500) {
            db.execute(&format!("INSERT INTO samples VALUES {}", chunk.join(", ")))
                .unwrap();
        }
        if with_index {
            db.execute("CREATE INDEX im ON samples (metal)").unwrap();
            db.execute("CREATE INDEX ip ON samples (ppm)").unwrap();
        }
        db
    };
    let queries = [
        ("point lookup", "SELECT COUNT(*) FROM samples WHERE metal = 'Hg'"),
        ("IN-list", "SELECT COUNT(*) FROM samples WHERE metal IN ('Hg','Pb','Cd')"),
        ("range", "SELECT COUNT(*) FROM samples WHERE ppm BETWEEN 10.0 AND 12.0"),
    ];
    println!(
        "{:<12} {:<14} {:>12} {:>12} {:>8}",
        "rows", "query", "seq scan", "index scan", "speedup"
    );
    for rows in [1_000usize, 10_000, 50_000] {
        let seq = build(rows, false);
        let idx = build(rows, true);
        for (name, sql) in queries {
            assert_eq!(seq.query(sql).unwrap().rows, idx.query(sql).unwrap().rows);
            let ts = median_time(5, || seq.query(sql).unwrap());
            let ti = median_time(5, || idx.query(sql).unwrap());
            println!(
                "{:<12} {:<14} {:>12} {:>12} {:>7.1}x",
                rows,
                name,
                fmt(ts),
                fmt(ti),
                ts.as_secs_f64() / ti.as_secs_f64()
            );
        }
    }
    // Maintenance cost.
    let t_bare = median_time(3, || build(5_000, false));
    let t_idx = median_time(3, || build(5_000, true));
    println!(
        "\nbulk load 5k rows: {} bare, {} with two indexes ({:.0}% overhead)",
        fmt(t_bare),
        fmt(t_idx),
        (t_idx.as_secs_f64() / t_bare.as_secs_f64() - 1.0) * 100.0
    );
}

/// One e12 measurement: ex4.6 at one databank scale.
struct E12Run {
    scale: usize,
    rows: usize,
    sesql_s: f64,
    baseline_s: f64,
    cold_cache_s: f64,
}

/// E12: the REPLACEVARIABLE enrichment path across result scales (~1k /
/// ~16k / ~64k output rows) — warm pairs cache, plain-SQL self-join
/// baseline, and a cold-cache column isolating the SPARQL-leg + pairs-
/// table rebuild cost.
fn e12() -> Vec<E12Run> {
    header("E12", "REPLACEVARIABLE enrichment scaling (Ex. 4.6 across scales)");
    let q = paper_examples(&landfill_name(0))
        .into_iter()
        .find(|q| q.name == "ex4.6-replace-variable")
        .expect("ex4.6 in the paper workload");
    println!(
        "{:<8} {:>8} {:>12} {:>12} {:>12} {:>9}",
        "scale", "rows", "sesql", "cold-cache", "baseline", "overhead"
    );
    let mut runs = Vec::new();
    for scale in [25usize, 100, 200] {
        let engine = engine_at_scale(scale);
        let rows = engine.execute("director", &q.sesql).unwrap().rows.len();
        let ts = median_time(5, || engine.execute("director", &q.sesql).unwrap());
        let tc = median_time(3, || {
            engine.clear_cache();
            engine.execute("director", &q.sesql).unwrap()
        });
        let tb = median_time(5, || engine.database().query(&q.baseline_sql).unwrap());
        println!(
            "{:<8} {:>8} {:>12} {:>12} {:>12} {:>8.1}x",
            scale,
            rows,
            fmt(ts),
            fmt(tc),
            fmt(tb),
            ts.as_secs_f64() / tb.as_secs_f64().max(1e-9),
        );
        runs.push(E12Run {
            scale,
            rows,
            sesql_s: ts.as_secs_f64(),
            baseline_s: tb.as_secs_f64(),
            cold_cache_s: tc.as_secs_f64(),
        });
    }
    runs
}

/// One e11 measurement: the scan-heavy workload at a fixed worker-thread
/// budget.
struct E11Run {
    worker_threads: usize,
    qps: f64,
    p50_ms: f64,
    p95_ms: f64,
    p99_ms: f64,
    queries: usize,
}

/// E11: query throughput under concurrent clients, worker threads 1 vs 4.
///
/// N client threads replay a scan-heavy SQL mix over the smartground
/// databank (filter+project, grouped aggregate, hash join — the morsel-
/// parallel shapes) while the engine's worker budget is switched between
/// 1 and 4. Reports QPS and p50/p95/p99 latency per budget. The recorded
/// `host_cores` matters: on a single-core host the 4-thread run measures
/// scheduling overhead, not parallel speedup.
fn e11() -> (usize, usize, Vec<E11Run>) {
    header(
        "E11",
        "Concurrent-client throughput, 1 vs 4 worker threads (snapshot scans + morsels)",
    );
    const CLIENT_THREADS: usize = 4;
    const ITERS_PER_CLIENT: usize = 12;
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let engine = engine_at_scale(3_000);
    let db = engine.database().clone();
    let mix = [
        "SELECT elem_name, amount FROM elem_contained WHERE amount > 2500.0",
        "SELECT landfill_name, COUNT(*), SUM(amount) FROM elem_contained \
         WHERE amount > 100.0 GROUP BY landfill_name",
        "SELECT e.elem_name, l.city FROM elem_contained e \
         JOIN landfill l ON e.landfill_name = l.name WHERE e.amount > 3000.0",
    ];
    let total_rows = db.query("SELECT COUNT(*) FROM elem_contained").unwrap().rows[0][0]
        .lexical_form();
    println!(
        "workload: {} elem_contained rows, {CLIENT_THREADS} client thread(s), \
         {host_cores} host core(s)",
        total_rows
    );
    println!(
        "{:>14} {:>10} {:>10} {:>10} {:>10} {:>9}",
        "worker threads", "qps", "p50", "p95", "p99", "queries"
    );
    let mut runs = Vec::new();
    for worker_threads in [1usize, 4] {
        engine.set_exec_threads(worker_threads);
        // Warm up once per budget (plan cache, allocator).
        for q in &mix {
            db.query(q).unwrap();
        }
        let t0 = Instant::now();
        let mut latencies: Vec<Duration> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CLIENT_THREADS)
                .map(|_| {
                    let db = db.clone();
                    scope.spawn(move || {
                        let mut lat = Vec::with_capacity(ITERS_PER_CLIENT * mix.len());
                        for _ in 0..ITERS_PER_CLIENT {
                            for q in &mix {
                                let t = Instant::now();
                                std::hint::black_box(db.query(q).unwrap());
                                lat.push(t.elapsed());
                            }
                        }
                        lat
                    })
                })
                .collect();
            handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
        });
        let wall = t0.elapsed();
        latencies.sort();
        let pct = |p: f64| -> f64 {
            let idx = ((latencies.len() as f64 - 1.0) * p).round() as usize;
            latencies[idx].as_secs_f64() * 1e3
        };
        let run = E11Run {
            worker_threads,
            qps: latencies.len() as f64 / wall.as_secs_f64(),
            p50_ms: pct(0.50),
            p95_ms: pct(0.95),
            p99_ms: pct(0.99),
            queries: latencies.len(),
        };
        println!(
            "{:>14} {:>10.1} {:>9.2}ms {:>9.2}ms {:>9.2}ms {:>9}",
            run.worker_threads, run.qps, run.p50_ms, run.p95_ms, run.p99_ms, run.queries
        );
        runs.push(run);
    }
    engine.set_exec_threads(1);
    if let [one, four] = runs.as_slice() {
        println!("qps speedup 4 vs 1 worker thread: {:.2}x", four.qps / one.qps);
    }
    (CLIENT_THREADS, host_cores, runs)
}

/// One e14 measurement: the e11 query mix replayed over the wire by a
/// fixed number of closed-loop TCP clients.
struct E14Run {
    clients: usize,
    qps: f64,
    p50_ms: f64,
    p95_ms: f64,
    p99_ms: f64,
    queries: usize,
}

/// The e14 overload probe: the same mix fired by more clients than the
/// admission gate will seat, counting typed `BUSY` sheds.
struct E14Overload {
    clients: usize,
    max_active: usize,
    queue_depth: usize,
    done: u64,
    shed: u64,
    shed_rate: f64,
}

/// E14: the network front-end under closed-loop TCP clients.
///
/// The same scan-heavy mix as e11, but spoken over CROSNET1 to an
/// in-process `crosse-server` — so e11 vs e14 at the same client count
/// brackets the protocol + admission-gate overhead. A second phase
/// shrinks the gate below the client count and measures the typed-BUSY
/// shed rate (overload must degrade by shedding, not by queue collapse).
fn e14() -> (Vec<E14Run>, E14Overload) {
    use crosse_server::{ErrorCode, Lang, QueryOutcome, Server, ServerConfig};

    header("E14", "Over-the-wire throughput: closed-loop TCP clients vs the admission gate");
    const ITERS_PER_CLIENT: usize = 12;
    let engine = engine_at_scale(3_000);
    let mix = [
        "SELECT elem_name, amount FROM elem_contained WHERE amount > 2500.0",
        "SELECT landfill_name, COUNT(*), SUM(amount) FROM elem_contained \
         WHERE amount > 100.0 GROUP BY landfill_name",
        "SELECT e.elem_name, l.city FROM elem_contained e \
         JOIN landfill l ON e.landfill_name = l.name WHERE e.amount > 3000.0",
    ];

    // Closed-loop phase: the gate is wide enough that nothing sheds and
    // every latency sample is service time + protocol, not queueing.
    let config = ServerConfig { max_active: 8, queue_depth: 64, ..ServerConfig::default() };
    let mut handle = Server::start(engine.clone(), config).expect("start e14 server");
    let addr = handle.addr().to_string();
    println!(
        "workload: e11 query mix over CROSNET1, {ITERS_PER_CLIENT} iterations per client, \
         server at {addr}"
    );
    println!(
        "{:>8} {:>10} {:>10} {:>10} {:>10} {:>9}",
        "clients", "qps", "p50", "p95", "p99", "queries"
    );
    let mut runs = Vec::new();
    for clients in [1usize, 2, 4, 8] {
        let t0 = Instant::now();
        let mut latencies: Vec<Duration> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|_| {
                    let addr = addr.clone();
                    scope.spawn(move || {
                        let mut c =
                            crosse_server::Client::connect(&addr).expect("e14 client connect");
                        c.hello("director").expect("e14 hello");
                        let mut lat = Vec::with_capacity(ITERS_PER_CLIENT * mix.len());
                        for _ in 0..ITERS_PER_CLIENT {
                            for q in &mix {
                                let t = Instant::now();
                                let r = c.query(Lang::Sql, q, 0).expect("e14 query");
                                assert!(
                                    r.error().is_none(),
                                    "e14 query failed: {:?}",
                                    r.outcome
                                );
                                lat.push(t.elapsed());
                            }
                        }
                        lat
                    })
                })
                .collect();
            handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
        });
        let wall = t0.elapsed();
        latencies.sort();
        let pct = |p: f64| -> f64 {
            let idx = ((latencies.len() as f64 - 1.0) * p).round() as usize;
            latencies[idx].as_secs_f64() * 1e3
        };
        let run = E14Run {
            clients,
            qps: latencies.len() as f64 / wall.as_secs_f64(),
            p50_ms: pct(0.50),
            p95_ms: pct(0.95),
            p99_ms: pct(0.99),
            queries: latencies.len(),
        };
        println!(
            "{:>8} {:>10.1} {:>9.2}ms {:>9.2}ms {:>9.2}ms {:>9}",
            run.clients, run.qps, run.p50_ms, run.p95_ms, run.p99_ms, run.queries
        );
        runs.push(run);
    }
    handle.shutdown();

    // Overload phase: 8 clients against a 1-seat gate with a 2-deep
    // queue. Every outcome must be Done or typed BUSY; the shed rate is
    // the robustness headline (sheds are cheap, queue collapse is not).
    let (max_active, queue_depth, clients) = (1usize, 2usize, 8usize);
    let config = ServerConfig { max_active, queue_depth, ..ServerConfig::default() };
    let mut handle = Server::start(engine, config).expect("start e14 overload server");
    let addr = handle.addr().to_string();
    let (done, shed) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let addr = addr.clone();
                scope.spawn(move || {
                    let mut c =
                        crosse_server::Client::connect(&addr).expect("e14 overload connect");
                    c.hello("director").expect("e14 overload hello");
                    let (mut done, mut shed) = (0u64, 0u64);
                    for _ in 0..ITERS_PER_CLIENT {
                        for q in &mix {
                            let r = c.query(Lang::Sql, q, 0).expect("e14 overload query");
                            match r.outcome {
                                QueryOutcome::Done { .. } => done += 1,
                                QueryOutcome::Error { code: ErrorCode::Busy, .. } => shed += 1,
                                other => panic!("e14 overload: unexpected outcome {other:?}"),
                            }
                        }
                    }
                    (done, shed)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .fold((0u64, 0u64), |(d, s), (dd, ss)| (d + dd, s + ss))
    });
    handle.shutdown();
    let overload = E14Overload {
        clients,
        max_active,
        queue_depth,
        done,
        shed,
        shed_rate: shed as f64 / (done + shed).max(1) as f64,
    };
    println!(
        "overload: {clients} clients vs max_active={max_active}/queue={queue_depth}: \
         {done} done, {shed} shed typed-BUSY ({:.0}% shed rate)",
        overload.shed_rate * 100.0
    );
    (runs, overload)
}

struct E13Run {
    mode: &'static str,
    batches: usize,
    batches_per_s: f64,
}

/// E13: durability cost — write throughput of the same batch workload
/// with the WAL off (pure in-memory engine) vs on, across sync policies.
///
/// Each batch is one multi-row INSERT (one redo record) plus one KB
/// assertion, mirroring the crash-recovery harness. `every_n:256` is the
/// group-commit default the CLI ships with; the target is that it costs
/// no more than ~10% throughput against the in-memory baseline.
fn e13() -> Vec<E13Run> {
    use crosse_core::sqm::SesqlEngine;
    use crosse_core::{SyncPolicy, WalOptions};
    use crosse_rdf::provenance::KnowledgeBase;
    use crosse_relational::Database;

    header("E13", "Durability cost: batch write throughput, WAL off vs sync policies");
    // Bulk-load shape: fsync latency is milliseconds on ordinary disks, so
    // group commit can only amortise it against batches with real compute.
    // 512-row inserts put one fsync behind ~32 batches (2 records each).
    const BATCHES: usize = 100;
    const ROWS_PER_BATCH: usize = 512;

    let workload = |engine: &SesqlEngine| -> Duration {
        let db = engine.database();
        let kb = engine.knowledge_base();
        db.execute("CREATE TABLE wal_bench (batch INT, item INT)").unwrap();
        kb.register_user("bench");
        // One untimed batch to warm the plan cache and interner.
        let batch = |b: usize| {
            let values: Vec<String> =
                (0..ROWS_PER_BATCH).map(|i| format!("({b}, {i})")).collect();
            db.execute(&format!("INSERT INTO wal_bench VALUES {}", values.join(", ")))
                .unwrap();
            kb.assert_statement(
                "bench",
                &Triple::new(
                    Term::iri(format!("bench:batch{b}")),
                    Term::iri("bench:completed"),
                    Term::lit(b.to_string()),
                ),
            )
            .unwrap();
            // The read-back every ingest pipeline does (validation /
            // rolling aggregate): pure compute, no redo — the part of a
            // mixed workload the WAL must not tax.
            let floor = b.saturating_sub(8);
            db.query(&format!(
                "SELECT COUNT(*) AS n, SUM(item) AS s FROM wal_bench WHERE batch >= {floor}"
            ))
            .unwrap();
        };
        batch(999_999);
        let t0 = Instant::now();
        for b in 0..BATCHES {
            batch(b);
        }
        t0.elapsed()
    };

    println!(
        "workload: {BATCHES} batches of one {ROWS_PER_BATCH}-row INSERT + one KB assert \
         + one aggregate read-back"
    );
    println!("{:<14} {:>12} {:>12}", "mode", "elapsed", "batches/s");
    let mut runs = Vec::new();
    let modes: [(&'static str, Option<SyncPolicy>); 4] = [
        ("wal-off", None),
        ("sync:off", Some(SyncPolicy::Off)),
        ("every_n:256", Some(SyncPolicy::EveryN(256))),
        ("always", Some(SyncPolicy::Always)),
    ];
    // Median of 5 fresh runs per mode, rounds interleaved across modes so
    // disk/host load drift taxes every mode equally.
    const ROUNDS: usize = 5;
    let mut samples: Vec<Vec<Duration>> = vec![Vec::new(); modes.len()];
    for _ in 0..ROUNDS {
        for (i, (mode, policy)) in modes.iter().enumerate() {
            let dir = std::env::temp_dir().join(format!(
                "crosse-e13-{}-{}",
                std::process::id(),
                mode.replace(':', "-")
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let elapsed = match policy {
                None => workload(&SesqlEngine::new(Database::new(), KnowledgeBase::new())),
                Some(sync) => {
                    let engine = SesqlEngine::open_with(&dir, WalOptions { sync: *sync }).unwrap();
                    let e = workload(&engine);
                    drop(engine);
                    e
                }
            };
            let _ = std::fs::remove_dir_all(&dir);
            samples[i].push(elapsed);
        }
    }
    for (i, (mode, _)) in modes.iter().enumerate() {
        samples[i].sort();
        let elapsed = samples[i][ROUNDS / 2];
        let run = E13Run {
            mode,
            batches: BATCHES,
            batches_per_s: BATCHES as f64 / elapsed.as_secs_f64(),
        };
        println!("{:<14} {:>12} {:>12.0}", run.mode, fmt(elapsed), run.batches_per_s);
        runs.push(run);
    }
    if let (Some(off), Some(group)) = (
        runs.iter().find(|r| r.mode == "wal-off"),
        runs.iter().find(|r| r.mode == "every_n:256"),
    ) {
        println!(
            "every_n:256 throughput cost vs wal-off: {:.1}%",
            (1.0 - group.batches_per_s / off.batches_per_s) * 100.0
        );
    }
    runs
}

/// Write the JSON baseline: the e3 table plus (when run) the e11
/// concurrency record. Hand-rolled JSON — the workspace has no serde and
/// the schema is flat.
fn write_baseline_json(
    path: &str,
    e3_records: &[(String, Duration, Duration, usize)],
    e11_data: Option<&(usize, usize, Vec<E11Run>)>,
    e12_data: Option<&[E12Run]>,
    e13_data: Option<&[E13Run]>,
    e14_data: Option<&(Vec<E14Run>, E14Overload)>,
) {
    let mut out = String::from(
        "{\n  \"experiment\": \"e3\",\n  \"unit\": \"seconds\",\n  \"results\": [\n",
    );
    for (i, (name, ts, tb, rows)) in e3_records.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"sesql_median_s\": {:.9}, \"baseline_median_s\": {:.9}, \"rows\": {}}}{}\n",
            name.replace('"', "\\\""),
            ts.as_secs_f64(),
            tb.as_secs_f64(),
            rows,
            if i + 1 < e3_records.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]");
    if let Some((clients, cores, runs)) = e11_data {
        out.push_str(",\n  \"e11_throughput\": {\n");
        out.push_str(
            "    \"workload\": \"smartground scan-heavy (filter/aggregate/join over elem_contained)\",\n",
        );
        out.push_str(&format!("    \"client_threads\": {clients},\n"));
        out.push_str(&format!("    \"host_cores\": {cores},\n"));
        out.push_str("    \"runs\": [\n");
        for (i, r) in runs.iter().enumerate() {
            out.push_str(&format!(
                "      {{\"worker_threads\": {}, \"qps\": {:.1}, \"p50_ms\": {:.3}, \"p95_ms\": {:.3}, \"p99_ms\": {:.3}, \"queries\": {}}}{}\n",
                r.worker_threads,
                r.qps,
                r.p50_ms,
                r.p95_ms,
                r.p99_ms,
                r.queries,
                if i + 1 < runs.len() { "," } else { "" },
            ));
        }
        out.push_str("    ]");
        if let [one, four] = runs.as_slice() {
            out.push_str(&format!(
                ",\n    \"qps_speedup_4v1\": {:.3}\n",
                four.qps / one.qps
            ));
        } else {
            out.push('\n');
        }
        out.push_str("  }");
        if e12_data.is_none() && e13_data.is_none() && e14_data.is_none() {
            out.push('\n');
        }
    }
    if let Some(runs) = e12_data {
        out.push_str(",\n  \"e12_enrich\": [\n");
        for (i, r) in runs.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"scale\": {}, \"rows\": {}, \"sesql_median_s\": {:.9}, \"cold_cache_median_s\": {:.9}, \"baseline_median_s\": {:.9}}}{}\n",
                r.scale,
                r.rows,
                r.sesql_s,
                r.cold_cache_s,
                r.baseline_s,
                if i + 1 < runs.len() { "," } else { "" },
            ));
        }
        out.push_str("  ]");
        if e13_data.is_none() && e14_data.is_none() {
            out.push('\n');
        }
    }
    if let Some(runs) = e13_data {
        out.push_str(",\n  \"e13_durability\": {\n");
        out.push_str(
            "    \"workload\": \"mixed batches: one 512-row INSERT + one KB assert + one aggregate read-back\",\n",
        );
        if let Some(r) = runs.first() {
            out.push_str(&format!("    \"batches\": {},\n", r.batches));
        }
        out.push_str("    \"runs\": [\n");
        for (i, r) in runs.iter().enumerate() {
            out.push_str(&format!(
                "      {{\"mode\": \"{}\", \"batches_per_s\": {:.1}}}{}\n",
                r.mode,
                r.batches_per_s,
                if i + 1 < runs.len() { "," } else { "" },
            ));
        }
        out.push_str("    ]");
        let off = runs.iter().find(|r| r.mode == "wal-off");
        let group = runs.iter().find(|r| r.mode == "every_n:256");
        if let (Some(off), Some(group)) = (off, group) {
            out.push_str(&format!(
                ",\n    \"every_n_cost_pct\": {:.1}\n",
                (1.0 - group.batches_per_s / off.batches_per_s) * 100.0
            ));
        } else {
            out.push('\n');
        }
        out.push_str("  }");
        if e14_data.is_none() {
            out.push('\n');
        }
    }
    if let Some((runs, overload)) = e14_data {
        out.push_str(",\n  \"e14_server\": {\n");
        out.push_str(
            "    \"workload\": \"e11 query mix over CROSNET1, closed-loop TCP clients\",\n",
        );
        out.push_str("    \"runs\": [\n");
        for (i, r) in runs.iter().enumerate() {
            out.push_str(&format!(
                "      {{\"clients\": {}, \"qps\": {:.1}, \"p50_ms\": {:.3}, \"p95_ms\": {:.3}, \"p99_ms\": {:.3}, \"queries\": {}}}{}\n",
                r.clients,
                r.qps,
                r.p50_ms,
                r.p95_ms,
                r.p99_ms,
                r.queries,
                if i + 1 < runs.len() { "," } else { "" },
            ));
        }
        out.push_str("    ],\n");
        out.push_str(&format!(
            "    \"overload\": {{\"clients\": {}, \"max_active\": {}, \"queue_depth\": {}, \"done\": {}, \"shed\": {}, \"shed_rate\": {:.3}}}\n",
            overload.clients,
            overload.max_active,
            overload.queue_depth,
            overload.done,
            overload.shed,
            overload.shed_rate,
        ));
        out.push_str("  }\n");
    }
    if e11_data.is_none() && e12_data.is_none() && e13_data.is_none() && e14_data.is_none() {
        out.push('\n');
    }
    out.push_str("}\n");
    match std::fs::write(path, out) {
        Ok(()) => println!("\nbaseline written to {path}"),
        Err(e) => eprintln!("\nfailed to write {path}: {e}"),
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // `--json <path>`: also write the E3 table as a JSON baseline.
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .map(|i| {
            let mut tail = args.split_off(i);
            tail.remove(0); // "--json"
            if tail.is_empty() {
                eprintln!("--json requires a path argument");
                std::process::exit(2);
            }
            let path = tail.remove(0);
            args.extend(tail);
            path
        });
    let want = |id: &str| args.is_empty() || args.iter().any(|a| a.eq_ignore_ascii_case(id));
    let t0 = Instant::now();
    if want("e1") {
        e1();
    }
    if want("e2") {
        e2();
    }
    let mut e3_records: Vec<(String, Duration, Duration, usize)> = Vec::new();
    let mut e11_data: Option<(usize, usize, Vec<E11Run>)> = None;
    if want("e3") {
        e3_records = e3();
    }
    if want("e4") {
        e4();
    }
    if want("e6") {
        e6();
    }
    if want("e7") {
        e7();
    }
    if want("e8") {
        e8();
    }
    if want("e9") {
        e9();
    }
    if want("e9b") {
        e9b();
    }
    if want("e10") {
        e10();
    }
    if want("e11") {
        e11_data = Some(e11());
    }
    let mut e12_data: Option<Vec<E12Run>> = None;
    if want("e12") {
        e12_data = Some(e12());
    }
    let mut e13_data: Option<Vec<E13Run>> = None;
    if want("e13") {
        e13_data = Some(e13());
    }
    let mut e14_data: Option<(Vec<E14Run>, E14Overload)> = None;
    if want("e14") {
        e14_data = Some(e14());
    }
    if let Some(path) = json_path.as_deref() {
        if e3_records.is_empty() {
            // Never clobber the checked-in baseline with an empty results
            // array: --json requires the e3 experiment in the selection.
            eprintln!(
                "--json skipped: run e3 (e.g. `experiments e3 e11 e12 e13 e14 --json {path}`)"
            );
        } else {
            write_baseline_json(
                path,
                &e3_records,
                e11_data.as_ref(),
                e12_data.as_deref(),
                e13_data.as_deref(),
                e14_data.as_ref(),
            );
        }
    }
    println!("\nall requested experiments done in {:?}", t0.elapsed());
}
