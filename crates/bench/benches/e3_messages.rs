//! Criterion bench for experiment e3_messages (the table in README.md, "Experiments").

use codb_bench::experiments::run_update;
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
    let mut g = c.benchmark_group("e3_messages");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    g
}

/// E3: the per-rule statistics pipeline (run + aggregate report).
fn bench(c: &mut Criterion) {
    let mut g = quick(c);
    let s = scenario(Topology::Chain(8), 200, RuleStyle::CopyGav);
    g.bench_function("chain8_run_and_aggregate", |b| {
        b.iter(|| {
            let (o, _, net) = run_update(&s);
            let report = net.network_report();
            report.summarise(o.update).unwrap()
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
