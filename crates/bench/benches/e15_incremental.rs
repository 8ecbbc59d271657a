//! Criterion bench for experiment e15_incremental (the table in README.md, "Experiments").

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
    let mut g = c.benchmark_group("e15_incremental");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    g
}
use codb_core::{CoDbNetwork, NodeSettings};
use codb_net::SimConfig;

/// E15: second-update cost, incremental vs full re-send.
fn bench(c: &mut Criterion) {
    let mut g = quick(c);
    for (name, incremental) in [("incremental", true), ("resend", false)] {
        let s = scenario(Topology::Chain(8), 200, RuleStyle::CopyGav);
        g.bench_with_input(BenchmarkId::from_parameter(name), &s, |b, s| {
            b.iter(|| {
                let settings =
                    NodeSettings { incremental_updates: incremental, ..Default::default() };
                let mut net = CoDbNetwork::build_with(
                    s.build_config(),
                    SimConfig::default(),
                    settings,
                    false,
                )
                .unwrap();
                net.run_update(s.sink());
                net.run_update(s.sink())
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
