//! Criterion bench for experiment e11_relational_micro (the table in README.md, "Experiments").

use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;

fn quick(c: &mut Criterion) -> criterion::BenchmarkGroup<'_, criterion::measurement::WallTime> {
    let mut g = c.benchmark_group("e11_relational_micro");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    g
}
use codb_relational::{parse_query, tup, Instance, RelationSchema, ValueType};

/// E11: relational-engine micro-benchmarks.
fn bench(c: &mut Criterion) {
    let mut g = quick(c);
    let mut inst = Instance::new();
    inst.add_relation(RelationSchema::with_types("a", &[ValueType::Int, ValueType::Int]));
    inst.add_relation(RelationSchema::with_types("b", &[ValueType::Int, ValueType::Int]));
    for k in 0..5_000i64 {
        inst.insert("a", tup![k, k + 1]).unwrap();
        inst.insert("b", tup![k + 1, k + 2]).unwrap();
    }
    let join = parse_query("ans(X, Z) :- a(X, Y), b(Y, Z).").unwrap();
    g.bench_function("hash_join_5k", |b| {
        b.iter(|| codb_relational::answer_query(&join, &inst).unwrap())
    });
    let filter = parse_query("ans(X) :- a(X, Y), Y > 2500.").unwrap();
    g.bench_function("filter_scan_5k", |b| {
        b.iter(|| codb_relational::answer_query(&filter, &inst).unwrap())
    });
    let rule = codb_relational::parse_rule("t(X, E) <- a(X, Y).").unwrap();
    g.bench_function("glav_fire_5k", |b| b.iter(|| rule.fire(&inst).unwrap()));
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
