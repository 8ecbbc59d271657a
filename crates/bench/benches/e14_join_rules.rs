//! Criterion bench for experiment e14_join_rules (the table in README.md, "Experiments").

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
    let mut g = c.benchmark_group("e14_join_rules");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    g
}
use codb_bench::experiments::run_update;

/// E14: join-body rules vs copy rules.
fn bench(c: &mut Criterion) {
    let mut g = quick(c);
    for (name, style) in
        [("copy", RuleStyle::CopyGav), ("join16", RuleStyle::JoinGav { join_domain: 16 })]
    {
        let s = scenario(Topology::Chain(6), 200, style);
        g.bench_with_input(BenchmarkId::from_parameter(name), &s, |b, s| b.iter(|| run_update(s)));
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
