//! E9: ablations of the design choices DESIGN.md calls out.
//!
//! * hash join vs nested-loop join (the equi-join lowering);
//! * multi-value enrichment policies (RowPerMatch / FirstMatch / Concatenate);
//! * reified provenance inserts vs raw triple inserts;
//! * RDFS materialisation vs query-time subclass walking;
//! * prepared (prepare-once, bind per execution) vs re-parsed query text.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use crosse_bench::engine_at_scale;
use crosse_core::sqm::{EnrichOptions, MultiValuePolicy};
use crosse_rdf::provenance::KnowledgeBase;
use crosse_rdf::reasoner::{instances_of, materialize_rdfs};
use crosse_rdf::schema as rdfschema;
use crosse_rdf::store::{Triple, TripleStore};
use crosse_rdf::term::Term;
use crosse_smartground::random_kb;

/// Prepared-vs-reparse ablation: the same parameterised SESQL shape
/// executed many times — once through the prepare/bind lifecycle (parse
/// amortised away), once by formatting and re-parsing the text per
/// request (the pre-cursor API's cost model). SQL-only and enriched
/// variants.
fn bench_prepared_vs_reparse(c: &mut Criterion) {
    use crosse_relational::Params;
    let mut group = c.benchmark_group("e9_prepared");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(200));
    group.measurement_time(std::time::Duration::from_millis(800));
    let engine = engine_at_scale(300);

    let shape = "SELECT elem_name, landfill_name FROM elem_contained \
                 WHERE landfill_name = $lf \
                 ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)";
    let prepared = engine.prepare(shape).unwrap();
    let lf = crosse_smartground::landfill_name(0);
    // Both paths agree before we time them.
    assert_eq!(
        prepared
            .execute("director", &Params::new().set("lf", lf.as_str()))
            .unwrap()
            .rows
            .rows,
        engine
            .execute(
                "director",
                &shape.replace("$lf", &format!("'{lf}'")),
            )
            .unwrap()
            .rows
            .rows,
    );
    group.bench_function("sesql_prepared", |b| {
        b.iter(|| {
            black_box(
                prepared
                    .execute("director", &Params::new().set("lf", lf.as_str()))
                    .unwrap(),
            )
        })
    });
    group.bench_function("sesql_reparse", |b| {
        b.iter(|| {
            let text = shape.replace("$lf", &format!("'{lf}'"));
            black_box(engine.execute("director", &text).unwrap())
        })
    });

    let db = engine.database();
    let sql_prepared = db
        .prepare("SELECT COUNT(*) FROM elem_contained WHERE landfill_name = $lf")
        .unwrap();
    group.bench_function("sql_prepared", |b| {
        b.iter(|| {
            black_box(
                sql_prepared
                    .query(&Params::new().set("lf", lf.as_str()))
                    .unwrap(),
            )
        })
    });
    group.bench_function("sql_reparse", |b| {
        b.iter(|| {
            let text = format!(
                "SELECT COUNT(*) FROM elem_contained WHERE landfill_name = '{lf}'"
            );
            black_box(db.query(&text).unwrap())
        })
    });
    group.finish();
}

fn bench_join_strategy(c: &mut Criterion) {
    let mut group = c.benchmark_group("e9_join");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(200));
    group.measurement_time(std::time::Duration::from_millis(800));
    let engine = engine_at_scale(300);
    let db = engine.database();
    // Identical semantics, different plans: `=` lowers to a hash join;
    // `<= AND >=` is not decomposable and stays a nested loop.
    let hash = "SELECT COUNT(*) FROM elem_contained e JOIN landfill l \
                ON e.landfill_name = l.name";
    let nested = "SELECT COUNT(*) FROM elem_contained e JOIN landfill l \
                  ON e.landfill_name <= l.name AND e.landfill_name >= l.name";
    assert_eq!(
        db.query(hash).unwrap().rows,
        db.query(nested).unwrap().rows,
        "ablation variants must agree"
    );
    group.bench_function("hash_join", |b| b.iter(|| black_box(db.query(hash).unwrap())));
    group.bench_function("nested_loop", |b| {
        b.iter(|| black_box(db.query(nested).unwrap()))
    });
    group.finish();
}

fn bench_multi_policy(c: &mut Criterion) {
    let mut group = c.benchmark_group("e9_multi_policy");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(200));
    group.measurement_time(std::time::Duration::from_millis(800));
    let sesql = "SELECT elem_name FROM elem_contained \
                 ENRICH SCHEMAEXTENSION(elem_name, oreAssemblage)";
    for (name, policy) in [
        ("row_per_match", MultiValuePolicy::RowPerMatch),
        ("first_match", MultiValuePolicy::FirstMatch),
        ("concatenate", MultiValuePolicy::Concatenate),
    ] {
        let engine = engine_at_scale(200).with_options(EnrichOptions {
            multi: policy,
            ..EnrichOptions::default()
        });
        group.bench_with_input(BenchmarkId::from_parameter(name), &engine, |b, e| {
            b.iter(|| black_box(e.execute("director", sesql).unwrap()))
        });
    }
    group.finish();
}

fn bench_provenance_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("e9_provenance");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(200));
    group.measurement_time(std::time::Duration::from_millis(800));
    let triples = random_kb(500, 100, 10, 5).expect("fixture kb");
    group.bench_function("raw_store_insert", |b| {
        b.iter(|| {
            let store = TripleStore::new();
            black_box(store.insert_all("u", triples.iter()))
        })
    });
    group.bench_function("reified_assert", |b| {
        b.iter(|| {
            let kb = KnowledgeBase::new();
            kb.register_user("u").unwrap();
            for t in &triples {
                black_box(kb.assert_statement("u", t).unwrap());
            }
        })
    });
    group.finish();
}

fn hierarchy_store(classes: usize, instances: usize) -> TripleStore {
    let store = TripleStore::new();
    for i in 1..classes {
        store.insert(
            "kb",
            &Triple::new(
                Term::iri(format!("C{i}")),
                rdfschema::rdfs_subclass_of(),
                Term::iri(format!("C{}", i - 1)),
            ),
        ).unwrap();
    }
    for j in 0..instances {
        store.insert(
            "kb",
            &Triple::new(
                Term::iri(format!("x{j}")),
                rdfschema::rdf_type(),
                Term::iri(format!("C{}", classes - 1)),
            ),
        ).unwrap();
    }
    store
}

/// A store of `entities` subjects, each carrying all of `props` literal
/// attributes plus a `link` edge to another entity — the BGP-join ablation
/// workload. The star query over it makes every pattern after the first a
/// bound-subject probe, which is exactly the per-row hot loop of
/// `eval_bgp`.
fn bgp_store(entities: usize, props: usize) -> TripleStore {
    let store = TripleStore::new();
    for e in 0..entities {
        for p in 0..props {
            store.insert(
                "kb",
                &Triple::new(
                    Term::iri(format!("ent{e}")),
                    Term::iri(format!("attr{p}")),
                    Term::lit(format!("v{}", (e * 31 + p * 7) % 50)),
                ),
            ).unwrap();
        }
        store.insert(
            "kb",
            &Triple::new(
                Term::iri(format!("ent{e}")),
                Term::iri("link"),
                Term::iri(format!("ent{}", (e * 7 + 1) % entities)),
            ),
        ).unwrap();
    }
    store
}

/// The 64-pattern star query: one seed pattern plus 63 bound-subject
/// probes per surviving row.
fn star_query(patterns: usize) -> String {
    let mut q = String::from("SELECT ?s WHERE { ");
    for p in 0..patterns {
        q.push_str(&format!("?s <attr{p}> ?o{p} . "));
    }
    q.push('}');
    q
}

fn bench_bgp_join(c: &mut Criterion) {
    use crosse_rdf::sparql::eval::query as sparql_query;
    let mut group = c.benchmark_group("e9_bgp");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(200));
    group.measurement_time(std::time::Duration::from_millis(800));

    let store = bgp_store(500, 64);
    let star64 = star_query(64);
    assert_eq!(
        sparql_query(&store, &["kb"], &star64).unwrap().len(),
        500,
        "every entity satisfies the 64-pattern star"
    );
    group.bench_function("star64", |b| {
        b.iter(|| black_box(sparql_query(&store, &["kb"], &star64).unwrap()))
    });

    let star8 = star_query(8);
    group.bench_function("star8", |b| {
        b.iter(|| black_box(sparql_query(&store, &["kb"], &star8).unwrap()))
    });

    // Chain over link edges: object-subject joins with unbound-object
    // probes, then one attribute lookup per endpoint.
    let chain = "SELECT ?a ?d WHERE { ?a <link> ?b . ?b <link> ?c . \
                 ?c <link> ?d . ?d <attr0> ?v }";
    group.bench_function("chain4", |b| {
        b.iter(|| black_box(sparql_query(&store, &["kb"], chain).unwrap()))
    });
    group.finish();
}

/// RDFS materialisation over `random_kb` plus a schema layer: a
/// subproperty chain feeding rdfs7 and domain/range typing feeding
/// rdfs2/3, so derived facts scale with the instance count.
fn rdfs_workload(n: usize) -> TripleStore {
    let store = TripleStore::new();
    let triples = random_kb(n, n / 20 + 1, 16, 42).expect("fixture kb");
    store.insert_all("kb", triples.iter()).unwrap();
    for i in 0..8 {
        store.insert(
            "kb",
            &Triple::new(
                Term::iri(format!("prop{i}")),
                rdfschema::rdfs_subproperty_of(),
                Term::iri(format!("prop{}", i + 8)),
            ),
        ).unwrap();
    }
    for i in 0..4 {
        store.insert(
            "kb",
            &Triple::new(
                Term::iri(format!("prop{i}")),
                rdfschema::rdfs_domain(),
                Term::iri(format!("Class{i}")),
            ),
        ).unwrap();
        store.insert(
            "kb",
            &Triple::new(
                Term::iri(format!("Class{i}")),
                rdfschema::rdfs_subclass_of(),
                Term::iri(format!("Class{}", i + 4)),
            ),
        ).unwrap();
    }
    store
}

fn bench_rdfs_materialise(c: &mut Criterion) {
    let mut group = c.benchmark_group("e9_rdfs_materialise");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(200));
    group.measurement_time(std::time::Duration::from_millis(800));
    {
        // Workload sanity: the closure derives facts, and re-running over
        // source + inferences reaches a fixpoint.
        let fresh = rdfs_workload(1_000);
        let added = materialize_rdfs(&fresh, &["kb"], "inf").unwrap();
        assert!(added > 0, "rdfs workload must derive new facts, got {added}");
        assert_eq!(
            materialize_rdfs(&fresh, &["kb", "inf"], "inf").unwrap(),
            0,
            "closure must be a fixpoint"
        );
    }
    for n in [1_000usize, 5_000, 20_000] {
        let store = rdfs_workload(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &store, |b, s| {
            b.iter(|| black_box(materialize_rdfs(s, &["kb"], "inf")))
        });
    }
    group.finish();
}

fn bench_inference_strategy(c: &mut Criterion) {
    let mut group = c.benchmark_group("e9_inference");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(200));
    group.measurement_time(std::time::Duration::from_millis(800));
    let store = hierarchy_store(10, 200);
    let root = Term::iri("C0");
    group.bench_function("query_time_walk", |b| {
        b.iter(|| black_box(instances_of(&store, &["kb"], &root)))
    });
    group.bench_function("materialise_then_lookup", |b| {
        b.iter(|| {
            let s = hierarchy_store(10, 200);
            materialize_rdfs(&s, &["kb"], "inf").unwrap();
            black_box(instances_of(&s, &["kb", "inf"], &root))
        })
    });
    // Amortised: materialise once, look up repeatedly.
    let store2 = hierarchy_store(10, 200);
    materialize_rdfs(&store2, &["kb"], "inf").unwrap();
    group.bench_function("lookup_after_materialise", |b| {
        b.iter(|| black_box(instances_of(&store2, &["kb", "inf"], &root)))
    });
    group.finish();
}

/// SPARQL-leg cache ablation: the same enrichment re-executed over an
/// unchanged knowledge base (exploratory-querying pattern) with the
/// version-checked cache on vs off, plus the churn case where every query
/// is preceded by an annotation (cache always invalid → pure overhead).
fn bench_sparql_leg_cache(c: &mut Criterion) {
    use crosse_rdf::store::Triple;
    let mut group = c.benchmark_group("e9_sparql_cache");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(200));
    group.measurement_time(std::time::Duration::from_millis(800));
    let sesql = "SELECT elem_name FROM elem_contained \
                 ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)";
    for (name, use_cache) in [("cached", true), ("uncached", false)] {
        let engine = engine_at_scale(200);
        if !use_cache {
            engine.set_cache_capacity(0);
        }
        engine.execute("director", sesql).unwrap(); // warm
        group.bench_function(name, |b| {
            b.iter(|| black_box(engine.execute("director", sesql).unwrap()))
        });
    }
    // Churn: an annotation lands before every query, so the cache never
    // serves and only costs the version check + insert.
    let engine = engine_at_scale(200);
    let mut i = 0u64;
    group.bench_function("cached_under_churn", |b| {
        b.iter(|| {
            i += 1;
            engine
                .knowledge_base()
                .assert_statement(
                    "director",
                    &Triple::new(
                        Term::iri(format!("note{i}")),
                        Term::iri("comment"),
                        Term::lit("x"),
                    ),
                )
                .unwrap();
            black_box(engine.execute("director", sesql).unwrap())
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_prepared_vs_reparse,
    bench_join_strategy,
    bench_multi_policy,
    bench_provenance_overhead,
    bench_bgp_join,
    bench_rdfs_materialise,
    bench_inference_strategy,
    bench_sparql_leg_cache
);
criterion_main!(benches);
