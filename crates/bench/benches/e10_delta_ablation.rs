//! Criterion bench for experiment e10_delta_ablation (the table in README.md, "Experiments").

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
    let mut g = c.benchmark_group("e10_delta_ablation");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    g
}
use codb_bench::experiments::{chase_naive, chase_seminaive};

/// E10: naive vs semi-naive chase.
fn bench(c: &mut Criterion) {
    let mut g = quick(c);
    for topo in [Topology::Ring(4), Topology::Ring(8)] {
        let s = scenario(topo, 200, RuleStyle::CopyGav);
        let config = s.build_config();
        g.bench_with_input(BenchmarkId::new("naive", topo), &config, |b, c| {
            b.iter(|| chase_naive(c))
        });
        g.bench_with_input(BenchmarkId::new("seminaive", topo), &config, |b, c| {
            b.iter(|| chase_seminaive(c))
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
