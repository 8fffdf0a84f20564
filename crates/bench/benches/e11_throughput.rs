//! E11: snapshot scans + morsel-driven parallelism.
//!
//! Micro-benchmarks for the copy-on-write snapshot read path and the
//! worker-pool executor:
//!
//! * scan→filter→project and hash-join-probe pipelines at worker-thread
//!   budgets 1 vs 4 (the `--threads` knob);
//! * snapshot pinning cost (cursor open) and writer copy-on-write cost
//!   while a reader holds a pinned snapshot;
//! * the SPARQL probe batch at thread budgets 1 vs 4.
//!
//! The wall-clock e11 table (QPS + latency percentiles under concurrent
//! clients) lives in the `experiments` binary; this bench pins the
//! operator-level costs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use crosse_rdf::sparql::eval::EvalOptions;
use crosse_rdf::sparql::{prepare, SparqlParams};
use crosse_rdf::store::{Triple, TripleStore};
use crosse_rdf::term::Term;
use crosse_relational::db::Database;
use crosse_relational::Value;

fn scan_db(rows: usize) -> Database {
    let db = Database::new();
    db.execute("CREATE TABLE wide (k INT, grp TEXT, v FLOAT)").unwrap();
    let t = db.catalog().get_table("wide").unwrap();
    t.insert_many(
        (0..rows as i64)
            .map(|i| {
                vec![
                    Value::Int(i),
                    Value::from(format!("g{}", i % 13)),
                    Value::Float((i % 10_000) as f64 / 7.0),
                ]
            })
            .collect(),
    )
    .unwrap();
    db.execute("CREATE TABLE dim (grp TEXT, label TEXT)").unwrap();
    for g in 0..13 {
        db.execute(&format!("INSERT INTO dim VALUES ('g{g}', 'label{g}')")).unwrap();
    }
    db
}

fn bench_parallel_pipelines(c: &mut Criterion) {
    let db = scan_db(40_000);
    let mut group = c.benchmark_group("e11_pipeline");
    for threads in [1usize, 4] {
        db.set_exec_threads(threads);
        group.bench_with_input(
            BenchmarkId::new("filter_project", threads),
            &threads,
            |b, _| {
                b.iter(|| {
                    black_box(
                        db.query("SELECT k, v FROM wide WHERE v > 700.0").unwrap().len(),
                    )
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("hash_join_probe", threads),
            &threads,
            |b, _| {
                b.iter(|| {
                    black_box(
                        db.query(
                            "SELECT w.k, d.label FROM wide w \
                             JOIN dim d ON w.grp = d.grp WHERE w.v > 1000.0",
                        )
                        .unwrap()
                        .len(),
                    )
                })
            },
        );
    }
    db.set_exec_threads(1);
    group.finish();
}

fn bench_snapshot_costs(c: &mut Criterion) {
    let db = scan_db(40_000);
    let table = db.catalog().get_table("wide").unwrap();
    let mut group = c.benchmark_group("e11_snapshot");
    // Pinning a snapshot is an Arc clone under a read lock.
    group.bench_function("pin_snapshot", |b| {
        b.iter(|| black_box(table.snapshot().len()))
    });
    // Writer throughput with no pinned reader: make_mut mutates in place.
    group.bench_function("insert_unpinned", |b| {
        b.iter(|| table.insert(vec![Value::Int(-1), Value::from("gx"), Value::Float(0.0)]))
    });
    // Writer throughput while a reader pins the heap: every wave of
    // inserts pays one copy-on-write of the whole vector.
    group.bench_function("insert_while_pinned", |b| {
        b.iter(|| {
            let pin = table.snapshot();
            table
                .insert(vec![Value::Int(-2), Value::from("gy"), Value::Float(0.0)])
                .unwrap();
            black_box(pin.len())
        })
    });
    group.finish();
}

fn bench_sparql_probe(c: &mut Criterion) {
    let store = TripleStore::new();
    for i in 0..80 {
        for j in 0..40 {
            store.insert(
                "kb",
                &Triple::new(
                    Term::iri(format!("hub{i}")),
                    Term::iri("linksTo"),
                    Term::iri(format!("leaf{i}_{j}")),
                ),
            ).unwrap();
            store.insert(
                "kb",
                &Triple::new(
                    Term::iri(format!("leaf{i}_{j}")),
                    Term::iri("weight"),
                    Term::lit(((i + j) % 23).to_string()),
                ),
            ).unwrap();
        }
    }
    let q = prepare(
        "SELECT ?hub ?leaf ?w WHERE { ?hub <linksTo> ?leaf . ?leaf <weight> ?w }",
    )
    .unwrap();
    let mut group = c.benchmark_group("e11_sparql_probe");
    for threads in [1usize, 4] {
        group.bench_with_input(BenchmarkId::new("two_hop_star", threads), &threads, |b, &t| {
            let opts = EvalOptions { threads: t };
            let params = SparqlParams::new();
            b.iter(|| black_box(q.execute(&store, &["kb"], &params, &opts).unwrap().len()))
        });
    }
    group.finish();
}

criterion_group!(
    e11,
    bench_parallel_pipelines,
    bench_snapshot_costs,
    bench_sparql_probe
);
criterion_main!(e11);
