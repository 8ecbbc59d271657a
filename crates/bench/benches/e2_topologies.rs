//! Criterion bench for experiment e2_topologies (the table in README.md, "Experiments").

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
    let mut g = c.benchmark_group("e2_topologies");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    g
}

/// E2: update cost across topology families (~9 nodes).
fn bench(c: &mut Criterion) {
    let mut g = quick(c);
    for topo in [
        Topology::Chain(9),
        Topology::Ring(9),
        Topology::Star { leaves: 8 },
        Topology::Tree { height: 2 },
        Topology::Grid { w: 3, h: 3 },
        Topology::RandomDag { n: 9, p_percent: 25, seed: 5 },
    ] {
        let s = scenario(topo, 100, RuleStyle::CopyGav);
        g.bench_with_input(BenchmarkId::from_parameter(topo), &s, |b, s| b.iter(|| run_update(s)));
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
