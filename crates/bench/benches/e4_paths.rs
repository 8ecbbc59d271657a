//! Criterion bench for experiment e4_paths (the table in README.md, "Experiments").

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
    let mut g = c.benchmark_group("e4_paths");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    g
}

/// E4: propagation-path measurement across deep topologies.
fn bench(c: &mut Criterion) {
    let mut g = quick(c);
    for topo in [Topology::Chain(16), Topology::Ring(8), Topology::Grid { w: 4, h: 4 }] {
        let s = scenario(topo, 50, RuleStyle::CopyGav);
        g.bench_with_input(BenchmarkId::from_parameter(topo), &s, |b, s| {
            b.iter(|| {
                let (o, _, _) = run_update(s);
                o.summary.longest_path
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
