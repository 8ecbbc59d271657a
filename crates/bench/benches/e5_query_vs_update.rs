//! Criterion bench for experiment e5_query_vs_update (the table in README.md, "Experiments").

use codb_workload::{DataDist, RuleStyle, Scenario, Topology};
use criterion::{criterion_group, criterion_main, Criterion};
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
    let mut g = c.benchmark_group("e5_query_vs_update");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    g
}
use codb_core::CoDbNetwork;
use codb_net::SimConfig;

/// E5: query-time answering vs update+local query, chain-8.
fn bench(c: &mut Criterion) {
    let mut g = quick(c);
    let s = scenario(Topology::Chain(8), 100, RuleStyle::CopyGav);
    g.bench_function("query_time_fetch", |b| {
        b.iter(|| {
            let mut net = CoDbNetwork::build(s.build_config(), SimConfig::default()).unwrap();
            net.run_query(s.sink(), s.sink_query(), true)
        })
    });
    g.bench_function("update_then_local_query", |b| {
        b.iter(|| {
            let mut net = CoDbNetwork::build(s.build_config(), SimConfig::default()).unwrap();
            net.run_update(s.sink());
            net.run_query(s.sink(), s.sink_query(), false)
        })
    });
    g.bench_function("local_query_after_update", |b| {
        let mut net = CoDbNetwork::build(s.build_config(), SimConfig::default()).unwrap();
        net.run_update(s.sink());
        b.iter(|| net.run_query(s.sink(), s.sink_query(), false))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
