//! E2 (paper Fig. 6): end-to-end SESQL pipeline latency across databank
//! and knowledge-base scales. The per-stage breakdown (SQP, SQL leg,
//! SPARQL leg, enrichment pass) is printed by the `experiments` binary;
//! Criterion measures the end-to-end figure.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use crosse_bench::engine_with_kb;

fn bench_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("e2_pipeline");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(200));
    group.measurement_time(std::time::Duration::from_millis(800));

    let sesql = "SELECT elem_name, landfill_name FROM elem_contained \
                 ENRICH SCHEMAEXTENSION(elem_name, dangerLevel)";

    for landfills in [50usize, 200, 800] {
        let engine = engine_with_kb(landfills, 1_000);
        group.bench_with_input(
            BenchmarkId::new("rows", landfills * 6),
            &engine,
            |b, e| b.iter(|| black_box(e.execute("director", sesql).unwrap())),
        );
    }
    for kb in [1_000usize, 10_000, 50_000] {
        let engine = engine_with_kb(100, kb);
        group.bench_with_input(BenchmarkId::new("kb_triples", kb), &engine, |b, e| {
            b.iter(|| black_box(e.execute("director", sesql).unwrap()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_pipeline);
criterion_main!(benches);
