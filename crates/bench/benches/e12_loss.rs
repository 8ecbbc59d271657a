//! Criterion bench for experiment e12_loss (the table in README.md, "Experiments").

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
    let mut g = c.benchmark_group("e12_loss");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    g
}
use codb_core::{CoDbNetwork, NodeSettings};
use codb_net::{PipeConfig, SimConfig, SimTime};

/// E12: update under message loss with retransmission.
fn bench(c: &mut Criterion) {
    let mut g = quick(c);
    for loss_pct in [0u32, 10, 20] {
        let s = scenario(Topology::Chain(6), 100, RuleStyle::CopyGav);
        g.bench_with_input(BenchmarkId::from_parameter(loss_pct), &s, |b, s| {
            b.iter(|| {
                let pipe = PipeConfig::lan().with_loss(loss_pct as f64 / 100.0);
                let sim = SimConfig { seed: 99, default_pipe: pipe, max_events: 10_000_000 };
                let settings = NodeSettings {
                    retransmit_after: SimTime::from_millis(20),
                    pipe,
                    ..Default::default()
                };
                let mut net =
                    CoDbNetwork::build_with(s.build_config(), sim, settings, false).unwrap();
                net.run_update(s.sink())
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
