//! Criterion bench for experiment e9_glav_vs_gav (the table in README.md, "Experiments").

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
    let mut g = c.benchmark_group("e9_glav_vs_gav");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    g
}

/// E9: rule-style ablation (GAV copy / GAV filter / GLAV with nulls).
fn bench(c: &mut Criterion) {
    let mut g = quick(c);
    for (name, style) in [
        ("copy_gav", RuleStyle::CopyGav),
        ("filter_gav", RuleStyle::FilterGav { threshold: 1 << 39 }),
        ("project_glav", RuleStyle::ProjectGlav),
    ] {
        let s = scenario(Topology::Chain(8), 500, style);
        g.bench_with_input(BenchmarkId::from_parameter(name), &s, |b, s| b.iter(|| run_update(s)));
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
