//! Criterion bench for experiment e1_update_scaling (the table in README.md, "Experiments").

use codb_bench::experiments::run_update;
use codb_workload::{DataDist, RuleStyle, Scenario, Topology};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

fn scenario(topology: Topology, tuples: usize, style: RuleStyle) -> Scenario {
    Scenario {
        topology,
        tuples_per_node: tuples,
        rule_style: style,
        dist: DataDist::Uniform { domain: 1 << 40 },
        seed: 0xC0DB,
    }
}

fn quick(c: &mut Criterion) -> criterion::BenchmarkGroup<'_, criterion::measurement::WallTime> {
    let mut g = c.benchmark_group("e1_update_scaling");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    g
}

/// E1: global update host cost vs chain length.
fn bench(c: &mut Criterion) {
    let mut g = quick(c);
    for n in [2usize, 4, 8, 16] {
        let s = scenario(Topology::Chain(n), 100, RuleStyle::CopyGav);
        g.bench_with_input(BenchmarkId::from_parameter(n), &s, |b, s| b.iter(|| run_update(s)));
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
