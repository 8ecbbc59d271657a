//! Criterion bench for experiment e13_scoped (the table in README.md, "Experiments").

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
    let mut g = c.benchmark_group("e13_scoped");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    g
}
use codb_core::CoDbNetwork;
use codb_net::SimConfig;

/// E13: scoped (query-dependent) vs global updates on a star.
fn bench(c: &mut Criterion) {
    let mut g = quick(c);
    for leaves in [4usize, 8] {
        let s = scenario(Topology::Star { leaves }, 200, RuleStyle::CopyGav);
        g.bench_with_input(BenchmarkId::new("global", leaves), &s, |b, s| {
            b.iter(|| {
                let mut net = CoDbNetwork::build(s.build_config(), SimConfig::default()).unwrap();
                net.run_update(s.sink())
            })
        });
        g.bench_with_input(BenchmarkId::new("scoped_all", leaves), &s, |b, s| {
            b.iter(|| {
                let mut net = CoDbNetwork::build(s.build_config(), SimConfig::default()).unwrap();
                net.run_scoped_update(s.sink(), vec![Scenario::relation_of(0)])
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
