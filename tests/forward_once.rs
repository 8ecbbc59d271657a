//! Forward once per closed upstream.
//!
//! A link no cycle of the link graph reaches is *held*: an update only
//! materialises what arrives for it, and when the paper's close rule closes
//! it the link fires once and ships its firings and its close in one
//! `UpdateData`. So an acyclic network sends at most one data message per
//! link where the paper's eager forwarding sends one per upstream wave —
//! and the fixpoint is the chase's all the same.

use codb::core::link_graph_is_cyclic;
use codb::prelude::*;
use codb::relational::isomorphic;
use codb::workload::oracle::chase_naive;

/// Every node's LDB is the centralised chase's fixpoint of `config`.
fn at_the_fixpoint(net: &CoDbNetwork, config: &NetworkConfig, case: &str) {
    let oracle = chase_naive(config).instances;
    for id in config.node_ids() {
        assert!(isomorphic(net.node(id).ldb(), &oracle[&id]), "{case}: node {id} diverged");
    }
}

/// Chain(n), updated from its sink: each of the n − 1 links ships once,
/// where forwarding every wave at once ships n(n − 1)/2.
#[test]
fn a_chain_ships_one_data_message_per_link() {
    for n in 2..=16 {
        let s = Scenario { tuples_per_node: 20, ..Scenario::quick(Topology::Chain(n)) };
        let config = s.build_config();
        let mut net = CoDbNetwork::build(config.clone(), SimConfig::default()).unwrap();
        let o = net.run_update(s.sink());
        assert_eq!(o.summary.data_messages, n as u64 - 1, "Chain({n})");
        assert_eq!(o.summary.closed_early, n as u64, "Chain({n}): every node closes by the rule");
        at_the_fixpoint(&net, &config, &format!("Chain({n})"));
    }
}

/// `update_wide`'s shape — a scale-free graph of 120 nodes, two tuples a
/// node, copy rules — is acyclic: a cold update sends at most one data
/// message per link, and every link that has anything to ship ships it.
#[test]
fn the_wide_update_sends_at_most_one_data_message_per_link() {
    let s = Scenario {
        topology: Topology::ScaleFree { n: 120, m: 2, seed: 0xC0DB },
        tuples_per_node: 2,
        rule_style: RuleStyle::CopyGav,
        dist: DataDist::Uniform { domain: 1 << 40 },
        seed: 1,
    };
    let config = s.build_config();
    assert!(!link_graph_is_cyclic(&config.rules));
    let mut net = CoDbNetwork::build(config.clone(), SimConfig::default()).unwrap();
    let o = net.run_update(s.sink());
    let links = config.rules.len() as u64;
    assert_eq!(links, 237);
    assert!(o.summary.data_messages <= links, "{} data messages", o.summary.data_messages);
    for (rule, traffic) in &o.summary.per_rule {
        assert_eq!(traffic.messages, 1, "{rule}");
    }
    at_the_fixpoint(&net, &config, "update_wide");
}
