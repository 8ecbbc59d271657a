//! Criterion bench for experiment e7_dynamic (the table in README.md, "Experiments").

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
    let mut g = c.benchmark_group("e7_dynamic");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    g
}
use codb_core::CoDbNetwork;
use codb_net::SimConfig;

/// E7: super-peer rules re-broadcast (reconfiguration) cost.
fn bench(c: &mut Criterion) {
    let mut g = quick(c);
    for n in [4usize, 8, 16] {
        let s = scenario(Topology::Chain(n), 50, RuleStyle::CopyGav);
        g.bench_with_input(BenchmarkId::from_parameter(n), &s, |b, s| {
            b.iter(|| {
                let mut config = s.build_config();
                config.version = 1;
                let mut net =
                    CoDbNetwork::build_with_superpeer(config.clone(), SimConfig::default())
                        .unwrap();
                let mut v2 = config;
                v2.version = 2;
                net.broadcast_rules(v2).unwrap()
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
