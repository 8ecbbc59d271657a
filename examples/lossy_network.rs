//! Updates over unreliable pipes: the simulator drops a fraction of all
//! messages; the nodes' ARQ layer (per-message acks + retransmission +
//! duplicate suppression) still drives the global update to the exact
//! fixpoint — JXTA's reliable pipes, rebuilt.
//!
//! Run with: `cargo run --example lossy_network`

use codb::prelude::*;

fn main() {
    let scenario = Scenario {
        topology: Topology::Grid { w: 3, h: 2 },
        tuples_per_node: 100,
        rule_style: RuleStyle::CopyGav,
        dist: DataDist::Uniform { domain: 1 << 40 },
        seed: 1,
    };

    // Reference run on perfect pipes.
    let mut clean = CoDbNetwork::build(scenario.build_config(), SimConfig::default()).unwrap();
    let reference = clean.run_update(scenario.sink());

    println!(
        "{:>7} | {:>11} {:>9} {:>12} {:>9} | {:>8}",
        "loss %", "sim time", "msgs", "retransmits", "dropped", "fixpoint"
    );
    println!("{}", "-".repeat(70));

    for loss in [0.0, 0.05, 0.10, 0.20, 0.30] {
        let pipe = PipeConfig::lan().with_loss(loss);
        let sim = SimConfig { seed: 7, max_events: 10_000_000 };
        let settings =
            NodeSettings { retransmit_after: SimTime::from_millis(25), pipe, ..Default::default() };
        let mut net =
            CoDbNetwork::build_with(scenario.build_config(), sim, settings, false).unwrap();
        let outcome = net.run_update(scenario.sink());

        let retransmits: u64 = net
            .network_report()
            .nodes
            .values()
            .map(|n| n.messages_sent.get("retransmit").copied().unwrap_or(0))
            .sum();

        // The fixpoint must match the clean run exactly (GAV rules: ground
        // data, so plain equality per node).
        let same = scenario
            .build_config()
            .node_ids()
            .iter()
            .all(|&id| net.node(id).ldb() == clean.node(id).ldb());

        println!(
            "{:>7.0} | {:>11} {:>9} {:>12} {:>9} | {:>8}",
            loss * 100.0,
            outcome.duration.to_string(),
            outcome.messages,
            retransmits,
            net.sim().stats().dropped,
            if same { "exact" } else { "DIVERGED" }
        );
        assert!(same, "loss must never change the result");
        assert_eq!(outcome.summary.tuples_added, reference.summary.tuples_added);
    }

    println!(
        "\nEvery row reaches the identical fixpoint; only time and message\n\
         counts degrade — the cost of reliability under loss."
    );
}
