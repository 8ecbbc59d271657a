//! Criterion bench for experiment e8_datasize (the table in README.md, "Experiments").

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
    let mut g = c.benchmark_group("e8_datasize");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    g
}

/// E8: update cost vs tuples per node (chain-8).
fn bench(c: &mut Criterion) {
    let mut g = quick(c);
    for tuples in [100usize, 500, 2000] {
        let s = scenario(Topology::Chain(8), tuples, RuleStyle::CopyGav);
        g.throughput(criterion::Throughput::Elements(tuples as u64));
        g.bench_with_input(BenchmarkId::from_parameter(tuples), &s, |b, s| {
            b.iter(|| run_update(s))
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
