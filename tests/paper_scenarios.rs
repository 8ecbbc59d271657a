//! Scenario tests tracking the paper's narrative claims one by one —
//! each test cites the claim it pins down.

use codb::prelude::*;
use codb::relational::{homomorphic, isomorphic};

fn build(src: &str) -> CoDbNetwork {
    CoDbNetwork::build(NetworkConfig::parse(src).unwrap(), SimConfig::default()).unwrap()
}

/// "A network of databases, possibly with different schemas, are
/// interconnected by means of GLAV coordination rules, which are
/// inclusions of conjunctive queries, with possibly existential variables
/// in the head."
#[test]
fn heterogeneous_schemas_with_existential_glav() {
    let mut net = build(
        r#"
        node store
        node catalog
        schema store: sale(str, int)
        schema catalog: product(str, int, int)
        data store: sale("mug", 8). sale("pen", 2).
        % catalog's product(name, price, supplier_id): supplier unknown.
        rule cat @ store -> catalog: product(N, P, S) <- sale(N, P).
        "#,
    );
    let catalog = net.node_id("catalog").unwrap();
    net.run_update(catalog);
    let product = net.node(catalog).ldb().get("product").unwrap();
    assert_eq!(product.len(), 2);
    for t in product.iter() {
        assert!(!t[0].is_null() && !t[1].is_null());
        assert!(t[2].is_null(), "supplier is an invented unknown");
    }
}

/// "Each node can be queried in its schema for data, which the node can
/// fetch from its neighbours, if a coordination rule is involved."
#[test]
fn node_queried_in_its_own_schema_fetches_from_neighbours() {
    let mut net = build(
        r#"
        node warehouse
        node shop
        schema warehouse: stock(str, int)
        schema shop: available(str)
        data warehouse: stock("mug", 3). stock("pen", 0).
        rule av @ warehouse -> shop: available(N) <- stock(N, Q), Q > 0.
        "#,
    );
    let shop = net.node_id("shop").unwrap();
    // The shop's schema knows nothing about quantities; its query is in
    // its own vocabulary.
    let q = net.run_query_text(shop, "ans(N) :- available(N).", true).unwrap();
    assert_eq!(q.result.answers, vec![codb::relational::tup!["mug"]]);
    // Nothing was materialised by the query.
    assert!(net.node(shop).ldb().get("available").unwrap().is_empty());
}

/// "Note that rules can be cyclic, i.e., a fix-point computation may be
/// needed among the nodes in order to get all the data that is needed to
/// answer a query."
#[test]
fn cyclic_fixpoint_needed_for_full_answer() {
    // a <-> b exchange: querying a *after the update* sees b's data and
    // vice versa; a 3-cycle requires two propagation rounds of the cycle.
    let mut net = build(
        r#"
        node a
        node b
        node c
        schema a: r(int)
        schema b: r(int)
        schema c: r(int)
        data a: r(1).
        rule ab @ a -> b: r(X) <- r(X).
        rule bc @ b -> c: r(X) <- r(X).
        rule ca @ c -> a: r(X) <- r(X).
        "#,
    );
    let c = net.node_id("c").unwrap();
    net.run_update(c);
    // Data seeded only at a; it must traverse a→b→c.
    assert_eq!(net.node(c).ldb().get("r").unwrap().len(), 1);
    let a = net.node_id("a").unwrap();
    assert_eq!(net.node(a).ldb().get("r").unwrap().len(), 1);
}

/// "a 'batch' update algorithm will be such that all the nodes
/// consistently and optimally propagate all the relevant data to their
/// neighbours, allowing for subsequent local queries to be answered
/// locally within a node, without fetching data from other nodes at
/// query time."
#[test]
fn after_batch_update_queries_are_local_everywhere() {
    let scenario = Scenario {
        topology: Topology::Grid { w: 3, h: 2 },
        tuples_per_node: 20,
        rule_style: RuleStyle::CopyGav,
        dist: DataDist::Uniform { domain: 1 << 40 },
        seed: 4,
    };
    let mut net = CoDbNetwork::build(scenario.build_config(), SimConfig::default()).unwrap();
    net.run_update(scenario.sink());
    // Every node answers its own relation locally with zero traffic.
    for i in 0..scenario.topology.node_count() {
        let id = codb::core::NodeId(i as u64);
        let rel = Scenario::relation_of(i);
        let q = net.run_query_text(id, &format!("ans(X, Y) :- {rel}(X, Y)."), false).unwrap();
        assert_eq!(q.messages, 0, "node {i} answers locally");
        assert!(!q.result.answers.is_empty());
    }
}

/// "local inconsistency does not propagate" — a node whose data
/// contradicts another's (same key, different values) simply contributes
/// both tuples under set semantics; nothing downstream breaks.
#[test]
fn conflicting_sources_coexist_without_breaking_anyone() {
    let mut net = build(
        r#"
        node src1
        node src2
        node sink
        schema src1: fact(str, int)
        schema src2: fact(str, int)
        schema sink: fact(str, int)
        data src1: fact("pi", 3).
        data src2: fact("pi", 4).
        rule a @ src1 -> sink: fact(N, V) <- fact(N, V).
        rule b @ src2 -> sink: fact(N, V) <- fact(N, V).
        "#,
    );
    let sink = net.node_id("sink").unwrap();
    let outcome = net.run_update(sink);
    assert_eq!(outcome.summary.tuples_added, 2);
    let q = net.run_query_text(sink, r#"ans(V) :- fact("pi", V)."#, false).unwrap();
    assert_eq!(q.result.answers.len(), 2, "both claims coexist");
}

/// Two independent runs of the same update produce isomorphic databases
/// (identical up to marked-null renaming) — the well-definedness of the
/// materialised state.
#[test]
fn independent_runs_are_null_isomorphic() {
    let scenario = Scenario {
        topology: Topology::Chain(4),
        tuples_per_node: 12,
        rule_style: RuleStyle::ProjectGlav,
        dist: DataDist::Uniform { domain: 1 << 40 },
        seed: 99,
    };
    let run = |latency: u64| {
        let pipe = PipeConfig::lan().with_latency(SimTime::from_millis(latency));
        let sim = SimConfig { seed: latency, max_events: 0 };
        let settings = codb::core::NodeSettings { pipe, ..Default::default() };
        let mut net =
            CoDbNetwork::build_with(scenario.build_config(), sim, settings, false).unwrap();
        net.run_update(scenario.sink());
        net.node(scenario.sink()).ldb().clone()
    };
    let a = run(1);
    let b = run(9);
    assert!(isomorphic(&a, &b), "fixpoints differ only in null labels");
    assert!(homomorphic(&a, &b) && homomorphic(&b, &a));
}

/// The super-peer's aggregated report contains what the demo displays:
/// total execution time, per-rule messages/volumes and the longest
/// propagation path.
#[test]
fn superpeer_report_has_the_demo_fields() {
    let scenario = Scenario {
        topology: Topology::Tree { height: 2 },
        tuples_per_node: 10,
        rule_style: RuleStyle::CopyGav,
        dist: DataDist::Uniform { domain: 1 << 40 },
        seed: 8,
    };
    let mut net =
        CoDbNetwork::build_with_superpeer(scenario.build_config(), SimConfig::default()).unwrap();
    let outcome = net.run_update(codb::core::NodeId(0));
    let report = net.collect_stats();
    let summary = report.summarise(outcome.update).unwrap();
    assert!(summary.total_time > SimTime::ZERO, "total execution time of an update");
    assert!(!summary.per_rule.is_empty(), "messages per coordination rule");
    assert!(summary.per_rule.values().all(|t| t.bytes > 0), "volume per message");
    assert_eq!(summary.longest_path, 2, "longest update propagation path");
    // And it serialises — the "final statistical report".
    let js = serde_json::to_string(&summary).unwrap();
    assert!(js.contains("longest_path"));
}
