//! End-to-end tests of the coDB protocols on the deterministic simulator.

use codb_core::{CoDbNetwork, Kind, KindCounts, NetworkConfig, NodeSettings};
use codb_net::{PipeConfig, SimConfig, SimTime};
use codb_relational::{tup, Tuple};

fn build(src: &str) -> CoDbNetwork {
    CoDbNetwork::build(NetworkConfig::parse(src).unwrap(), SimConfig::default()).unwrap()
}

const TWO_NODES: &str = r#"
    node hr
    node portal
    schema hr: emp(str, int)
    schema portal: person(str, int)
    data hr: emp("alice", 30). emp("bob", 17). emp("carol", 45).
    rule r1 @ hr -> portal: person(N, A) <- emp(N, A), A >= 18.
"#;

#[test]
fn two_node_update_materialises_filtered_data() {
    let mut net = build(TWO_NODES);
    let portal = net.node_id("portal").unwrap();
    let hr = net.node_id("hr").unwrap();
    assert_eq!(net.node(portal).ldb().get("person").unwrap().len(), 0);

    let outcome = net.run_update(portal);
    let person = net.node(portal).ldb().get("person").unwrap();
    assert_eq!(person.sorted(), vec![tup!["alice", 30], tup!["carol", 45]]);
    // The source is untouched.
    assert_eq!(net.node(hr).ldb().get("emp").unwrap().len(), 3);
    assert!(outcome.duration > SimTime::ZERO);
    assert_eq!(outcome.summary.tuples_added, 2);
    assert_eq!(outcome.summary.nodes, 2);
}

#[test]
fn update_is_idempotent() {
    let mut net = build(TWO_NODES);
    let portal = net.node_id("portal").unwrap();
    let first = net.run_update(portal);
    assert_eq!(first.summary.tuples_added, 2);
    let second = net.run_update(portal);
    assert_eq!(second.summary.tuples_added, 0);
    assert_eq!(net.node(portal).ldb().get("person").unwrap().len(), 2);
}

#[test]
fn update_started_anywhere_reaches_everyone() {
    // Starting at the source also updates the target (flooding).
    let mut net = build(TWO_NODES);
    let hr = net.node_id("hr").unwrap();
    let portal = net.node_id("portal").unwrap();
    net.run_update(hr);
    assert_eq!(net.node(portal).ldb().get("person").unwrap().len(), 2);
}

fn chain_config(n: usize, tuples: usize) -> String {
    // n nodes; node 0 holds base data; rule i copies r from node i to i+1.
    let mut s = String::new();
    for i in 0..n {
        s.push_str(&format!("node node{i}\nschema node{i}: r(int)\n"));
    }
    s.push_str("data node0: ");
    for t in 0..tuples {
        s.push_str(&format!("r({t}). "));
    }
    s.push('\n');
    for i in 0..n - 1 {
        s.push_str(&format!("rule c{i} @ node{i} -> node{j}: r(X) <- r(X).\n", j = i + 1));
    }
    s
}

#[test]
fn chain_update_propagates_transitively() {
    let mut net = build(&chain_config(5, 10));
    let last = net.node_id("node4").unwrap();
    let outcome = net.run_update(net.node_id("node0").unwrap());
    for i in 0..5 {
        let id = net.node_id(&format!("node{i}")).unwrap();
        assert_eq!(
            net.node(id).ldb().get("r").unwrap().len(),
            10,
            "node{i} must hold all 10 tuples"
        );
    }
    assert_eq!(net.node(last).ldb().get("r").unwrap().len(), 10);
    // Longest propagation path in a 5-chain is 4 hops.
    assert_eq!(outcome.summary.longest_path, 4);
    // Every node closed on its own (acyclic): no forced closes needed.
    assert_eq!(outcome.summary.closed_early, 5);
    assert_eq!(outcome.summary.tuples_added, 40);
}

/// A copy rule's head is the tuple its body matched, and a ground atom is
/// the tuple it files: after an update of Chain(3) every hop holds the
/// origin's allocations, not copies of them.
#[test]
fn a_copy_chain_carries_the_origins_tuples_to_the_sink() {
    let mut net = build(&chain_config(3, 10));
    net.run_update(net.node_id("node2").unwrap());
    let r = |name: &str| net.node(net.node_id(name).unwrap()).ldb().get("r").unwrap();
    let origin = r("node0");
    for hop in ["node1", "node2"] {
        assert_eq!(r(hop).len(), 10, "{hop}");
        for t in r(hop).iter() {
            let at_origin = origin.iter().find(|o| *o == t).expect("a tuple of the origin");
            assert!(t.ptr_eq(at_origin), "{hop} holds a copy of {t}");
        }
    }
}

#[test]
fn chain_closes_progressively_without_update_complete_data() {
    // In an acyclic chain every LinkClosed is derived from the paper's
    // rule, before the update's completion arrives.
    let mut net = build(&chain_config(4, 3));
    let outcome = net.run_update(net.node_id("node0").unwrap());
    let report = net.network_report();
    for (_, node) in report.nodes.iter() {
        let r = &node.updates[&outcome.update];
        let closed = r.closed_at.expect("every node closed");
        let completed = r.completed_at.expect("every node saw completion");
        assert!(closed <= completed, "paper's close rule fires no later than the flood");
    }
}

#[test]
fn cyclic_rules_reach_fixpoint_and_terminate() {
    // Ring of 3 nodes copying r around: every node ends with the union.
    let src = r#"
        node a
        node b
        node c
        schema a: r(int)
        schema b: r(int)
        schema c: r(int)
        data a: r(1). r(2).
        data b: r(3).
        data c: r(4).
        rule ab @ a -> b: r(X) <- r(X).
        rule bc @ b -> c: r(X) <- r(X).
        rule ca @ c -> a: r(X) <- r(X).
    "#;
    let mut net = build(src);
    let outcome = net.run_update(net.node_id("a").unwrap());
    for name in ["a", "b", "c"] {
        let id = net.node_id(name).unwrap();
        assert_eq!(
            net.node(id).ldb().get("r").unwrap().sorted(),
            vec![tup![1], tup![2], tup![3], tup![4]],
            "node {name} must hold the fixpoint"
        );
    }
    // Cyclic links cannot close by the paper's rule alone; completion is
    // forced by the Dijkstra–Scholten termination flood.
    assert_eq!(outcome.summary.closed_early, 0);
    assert!(outcome.summary.longest_path >= 2);
}

#[test]
fn two_node_cycle_converges() {
    let src = r#"
        node a
        node b
        schema a: r(int)
        schema b: r(int)
        data a: r(1).
        data b: r(2).
        rule ab @ a -> b: r(X) <- r(X).
        rule ba @ b -> a: r(X) <- r(X).
    "#;
    let mut net = build(src);
    net.run_update(net.node_id("b").unwrap());
    for name in ["a", "b"] {
        let id = net.node_id(name).unwrap();
        assert_eq!(net.node(id).ldb().get("r").unwrap().len(), 2);
    }
}

#[test]
fn glav_rule_invents_shared_nulls() {
    let src = r#"
        node src
        node tgt
        schema src: emp(str)
        schema tgt: person(str, int)
        schema tgt: dept(int)
        data src: emp("ada"). emp("bob").
        rule g @ src -> tgt: person(N, D), dept(D) <- emp(N).
    "#;
    let mut net = build(src);
    let tgt = net.node_id("tgt").unwrap();
    net.run_update(tgt);
    let node = net.node(tgt);
    let person = node.ldb().get("person").unwrap();
    let dept = node.ldb().get("dept").unwrap();
    assert_eq!(person.len(), 2);
    assert_eq!(dept.len(), 2);
    // Each person's invented dept id also appears in dept (joint nulls).
    for t in person.iter() {
        assert!(t.get(1).unwrap().is_null());
        assert!(dept.contains(&codb_relational::Tuple::new(vec![t[1].clone()])));
    }
}

#[test]
fn query_time_answers_match_materialised_answers_on_chain() {
    let cfg = chain_config(4, 6);
    let query = "ans(X) :- r(X).";

    // Query-time (fresh network, nothing materialised).
    let mut net1 = build(&cfg);
    let last1 = net1.node_id("node3").unwrap();
    let q = net1.run_query_text(last1, query, true).unwrap();
    assert_eq!(q.result.answers.len(), 6);
    assert!(q.messages > 0);
    // The query did NOT materialise anything.
    assert_eq!(net1.node(last1).ldb().get("r").unwrap().len(), 0);

    // Materialised (update first, then local query).
    let mut net2 = build(&cfg);
    let last2 = net2.node_id("node3").unwrap();
    net2.run_update(last2);
    let q2 = net2.run_query_text(last2, query, false).unwrap();
    assert_eq!(q2.result.answers, q.result.answers);
    assert_eq!(q2.messages, 0, "local query needs no messages");
}

#[test]
fn a_query_the_node_cannot_evaluate_carries_its_error() {
    use codb_relational::EvalError;
    let mut net = build(TWO_NODES);
    let portal = net.node_id("portal").unwrap();
    for fetch in [false, true] {
        let unknown = net.run_query_text(portal, "ans(X) :- nosuch(X).", fetch).unwrap().result;
        assert_eq!(unknown.error, Some(EvalError::UnknownRelation("nosuch".into())));
        let arity = net.run_query_text(portal, "ans(N) :- person(N).", fetch).unwrap().result;
        assert!(matches!(
            arity.error,
            Some(EvalError::AtomArityMismatch { relation_arity: 2, atom_arity: 1, .. })
        ));
        // `person` is fetchable, so with `fetch` the error surfaces only
        // once the answers are in.
        assert!(unknown.answers.is_empty() && arity.answers.is_empty());
        assert_eq!((unknown.fetched, arity.fetched), (fetch, fetch));
        let fine = net.run_query_text(portal, "ans(N) :- person(N, A).", fetch).unwrap().result;
        assert_eq!(fine.error, None);
    }
}

/// A fetch toward a peer that never answers finishes on what the reachable
/// peers sent. The request to the dead peer is given up after the last
/// retransmission and closes as an empty final instalment: at a node
/// serving a fetch (node1 below, once node0 is gone), and at the node the
/// query runs on (node3, once node2 is gone).
#[test]
fn a_fetch_toward_a_dead_peer_finishes_with_what_the_live_ones_sent() {
    let mut net = build(&chain_config(4, 3));
    let id = |i: usize| net.node_id(&format!("node{i}")).unwrap();
    let [node0, node1, node2, last] = [0, 1, 2, 3].map(id);
    for (node, t) in [(node1, 100), (node2, 200)] {
        net.sim_mut().peer_mut(node.peer()).unwrap().insert_local("r", tup![t]).unwrap();
    }
    // A request is given up on the round after its 25th retransmission:
    // 26 × 250 ms after it was sent, a few hops after the query started.
    let budget = SimTime::from_millis(26 * 250 + 50);
    let query = "ans(X) :- r(X).";

    net.crash_node(node0);
    let q = net.run_query_text(last, query, true).unwrap();
    assert_eq!(q.result.answers, vec![tup![100], tup![200]]);
    assert!(q.duration <= budget, "{:?}", q.duration);

    net.crash_node(node2);
    let q = net.run_query_text(last, query, true).unwrap();
    assert_eq!(q.result.answers, Vec::<Tuple>::new());
    assert!(q.result.fetched && q.duration <= budget, "{:?}", q.duration);
    assert_eq!(net.node(last).report().messages_sent["abandoned"], 1);
    assert!(!net.node(last).report().messages_received.contains_key("data_rejected"));
}

/// The same for a request a rules file drops with its pipe: the query
/// finishes when the file arrives, not a retransmission budget later, and
/// the empty instalment that closes it is no rejected batch, although the
/// link it was fetched on is gone with the file.
#[test]
fn a_fetch_toward_a_peer_a_rules_file_removed_finishes_with_the_file() {
    let v1 = "node b\nnode c\nschema b: r(int)\nschema c: r(int)\n\
              data b: r(1).\ndata c: r(7).\nrule bc @ b -> c: r(X) <- r(X).\n";
    let v2 = "version 2\nnode b\nnode c\nschema b: r(int)\nschema c: r(int)\n";
    let config = NetworkConfig::parse(v1).unwrap();
    let mut net = CoDbNetwork::build_with_superpeer(config, SimConfig::default()).unwrap();
    let (b, c) = (net.node_id("b").unwrap(), net.node_id("c").unwrap());
    net.crash_node(b);
    let query = codb_relational::parse_query("ans(X) :- r(X).").unwrap();
    let start = codb_core::Body::StartQuery { query: Box::new(query), fetch: true };
    net.sim_mut().inject(codb_core::HARNESS_PEER, c.peer(), codb_core::Envelope::control(start));
    let t0 = net.sim().now();
    net.broadcast_rules(NetworkConfig::parse(v2).unwrap()).unwrap();

    let node = net.node(c);
    let result = node.completed_queries.values().next().expect("the query finished");
    assert_eq!(result.answers, vec![tup![7]]);
    assert!(result.finished_at.saturating_sub(t0) < SimTime::from_millis(250));
    assert_eq!(node.report().messages_sent["abandoned"], 1);
    assert!(!node.report().messages_received.contains_key("data_rejected"));
}

#[test]
fn query_time_on_cycle_is_sound_subset() {
    let src = r#"
        node a
        node b
        schema a: r(int)
        schema b: r(int)
        data a: r(1).
        data b: r(2).
        rule ab @ a -> b: r(X) <- r(X).
        rule ba @ b -> a: r(X) <- r(X).
    "#;
    let mut net = build(src);
    let a = net.node_id("a").unwrap();
    let q = net.run_query_text(a, "ans(X) :- r(X).", true).unwrap();
    // Simple paths reach b once: both tuples visible from a.
    assert_eq!(q.result.answers.len(), 2);
    // And the update agrees.
    net.run_update(a);
    let local = net.run_query_text(a, "ans(X) :- r(X).", false).unwrap();
    assert_eq!(local.result.answers.len(), 2);
}

#[test]
fn update_survives_message_loss_with_retransmission() {
    let config = NetworkConfig::parse(&chain_config(4, 5)).unwrap();
    let sim = SimConfig { seed: 42, max_events: 2_000_000 };
    let settings = NodeSettings {
        retransmit_after: SimTime::from_millis(20),
        pipe: PipeConfig::lan().with_loss(0.15),
        ..Default::default()
    };
    let mut net = CoDbNetwork::build_with(config, sim, settings, false).unwrap();
    let outcome = net.run_update(net.node_id("node0").unwrap());
    assert!(net.sim().stats().dropped > 0, "loss model must have fired");
    for i in 0..4 {
        let id = net.node_id(&format!("node{i}")).unwrap();
        assert_eq!(net.node(id).ldb().get("r").unwrap().len(), 5, "node{i}");
    }
    assert_eq!(outcome.summary.nodes, 4);
}

/// A serving node streams its answer in instalments, and the transport
/// does not order them: the closing one may arrive before an earlier one
/// that was lost and sent again. It counts the instalments its request
/// drew, so the requester waits for the rest: a fetch under loss answers
/// what it answers without.
#[test]
fn a_fetch_under_loss_answers_what_it_answers_without() {
    let cfg = join_chain_config(4, 6);
    let sink = |net: &CoDbNetwork| net.node_id("node3").unwrap();
    let mut clean = build(&cfg);
    let want = clean.run_query_text(sink(&clean), "ans(X, Y) :- r(X, Y).", true).unwrap();
    assert_eq!(want.result.answers.len(), 4 * 6);
    let settings = NodeSettings {
        retransmit_after: SimTime::from_millis(20),
        pipe: PipeConfig::lan().with_loss(0.25),
        ..Default::default()
    };
    let mut dropped = 0;
    for seed in 0..40 {
        let config = NetworkConfig::parse(&cfg).unwrap();
        let sim = SimConfig { seed, max_events: 2_000_000 };
        let mut net = CoDbNetwork::build_with(config, sim, settings.clone(), false).unwrap();
        let got = net.run_query_text(sink(&net), "ans(X, Y) :- r(X, Y).", true).unwrap();
        assert_eq!(got.result.answers, want.result.answers, "seed {seed}");
        dropped += net.sim().stats().dropped;
    }
    assert!(dropped > 40, "the loss model fired {dropped} times");
}

#[test]
fn comparison_predicates_filter_at_the_source() {
    let src = r#"
        node s
        node t
        schema s: m(int, int)
        schema t: big(int)
        data s: m(1, 10). m(2, 20). m(3, 30).
        rule f @ s -> t: big(X) <- m(X, Y), Y > 15.
    "#;
    let mut net = build(src);
    let t = net.node_id("t").unwrap();
    net.run_update(t);
    assert_eq!(net.node(t).ldb().get("big").unwrap().sorted(), vec![tup![2], tup![3]]);
}

#[test]
fn join_rule_combines_relations_at_source() {
    let src = r#"
        node s
        node t
        schema s: e(int, int)
        schema s: lab(int, str)
        schema t: named_edge(str, str)
        data s: e(1, 2). e(2, 3).
        data s: lab(1, "one"). lab(2, "two"). lab(3, "three").
        rule j @ s -> t: named_edge(A, B) <- e(X, Y), lab(X, A), lab(Y, B).
    "#;
    let mut net = build(src);
    let t = net.node_id("t").unwrap();
    net.run_update(t);
    assert_eq!(
        net.node(t).ldb().get("named_edge").unwrap().sorted(),
        vec![tup!["one", "two"], tup!["two", "three"]]
    );
}

#[test]
fn deterministic_across_runs() {
    let run = || {
        let mut net = build(&chain_config(5, 8));
        let o = net.run_update(net.node_id("node0").unwrap());
        (o.duration, o.messages, o.bytes, o.summary.tuples_added)
    };
    assert_eq!(run(), run());
}

#[test]
fn star_topology_fanout() {
    // Hub imports from 4 leaves.
    let mut s = String::new();
    s.push_str("node hub\nschema hub: all(int)\n");
    for i in 0..4 {
        s.push_str(&format!("node leaf{i}\nschema leaf{i}: r(int)\ndata leaf{i}: r({i}).\n"));
    }
    for i in 0..4 {
        s.push_str(&format!("rule s{i} @ leaf{i} -> hub: all(X) <- r(X).\n"));
    }
    let mut net = build(&s);
    let hub = net.node_id("hub").unwrap();
    let outcome = net.run_update(hub);
    assert_eq!(net.node(hub).ldb().get("all").unwrap().len(), 4);
    assert_eq!(outcome.summary.longest_path, 1);
}

#[test]
fn diamond_deduplicates_via_both_paths() {
    // a -> b -> d and a -> c -> d: d receives everything twice, stores once.
    let src = r#"
        node a
        node b
        node c
        node d
        schema a: r(int)
        schema b: r(int)
        schema c: r(int)
        schema d: r(int)
        data a: r(1). r(2).
        rule ab @ a -> b: r(X) <- r(X).
        rule ac @ a -> c: r(X) <- r(X).
        rule bd @ b -> d: r(X) <- r(X).
        rule cd @ c -> d: r(X) <- r(X).
    "#;
    let mut net = build(src);
    let d = net.node_id("d").unwrap();
    let outcome = net.run_update(d);
    assert_eq!(net.node(d).ldb().get("r").unwrap().len(), 2);
    // d received 2 firings on each of its two outgoing links but added 2.
    let report = net.network_report();
    let d_report = &report.nodes[&d].updates[&outcome.update];
    assert_eq!(d_report.tuples_added, 2);
    let recv: u64 = d_report.received.values().map(|t| t.firings).sum();
    assert_eq!(recv, 4);
}

#[test]
fn superpeer_collects_stats_matching_direct_reads() {
    let config = NetworkConfig::parse(&chain_config(3, 4)).unwrap();
    let mut net = CoDbNetwork::build_with_superpeer(config, SimConfig::default()).unwrap();
    let origin = net.node_id("node0").unwrap();
    let outcome = net.run_update(origin);
    let direct = net.network_report();
    let collected = net.collect_stats();
    let s1 = direct.summarise(outcome.update).unwrap();
    let s2 = collected.summarise(outcome.update).unwrap();
    assert_eq!(s1.tuples_added, s2.tuples_added);
    assert_eq!(s1.data_messages, s2.data_messages);
    assert_eq!(s1.longest_path, s2.longest_path);
    assert_eq!(s1.nodes, s2.nodes);
}

#[test]
fn superpeer_rebroadcast_rewires_topology() {
    // Start with a -> b; rewire to a -> c at runtime.
    let v1 = r#"
        version 1
        node a
        node b
        node c
        schema a: r(int)
        schema b: r(int)
        schema c: r(int)
        data a: r(7).
        rule ab @ a -> b: r(X) <- r(X).
    "#;
    let v2 = r#"
        version 2
        node a
        node b
        node c
        schema a: r(int)
        schema b: r(int)
        schema c: r(int)
        data a: r(7).
        rule ac @ a -> c: r(X) <- r(X).
    "#;
    let mut net =
        CoDbNetwork::build_with_superpeer(NetworkConfig::parse(v1).unwrap(), SimConfig::default())
            .unwrap();
    let (a, b, c) =
        (net.node_id("a").unwrap(), net.node_id("b").unwrap(), net.node_id("c").unwrap());
    net.run_update(a);
    assert_eq!(net.node(b).ldb().get("r").unwrap().len(), 1);
    assert_eq!(net.node(c).ldb().get("r").unwrap().len(), 0);

    net.broadcast_rules(NetworkConfig::parse(v2).unwrap()).unwrap();
    // Pipes rewired: a-b gone, a-c open.
    assert!(!net.sim().has_pipe(a.peer(), b.peer()));
    assert!(net.sim().has_pipe(a.peer(), c.peer()));

    net.run_update(a);
    assert_eq!(net.node(c).ldb().get("r").unwrap().len(), 1);
}

#[test]
fn isolated_node_update_completes_immediately() {
    let src = "node lonely\nschema lonely: r(int)\ndata lonely: r(1).";
    let mut net = build(src);
    let id = net.node_id("lonely").unwrap();
    let outcome = net.run_update(id);
    assert_eq!(outcome.summary.nodes, 1);
    assert_eq!(outcome.summary.tuples_added, 0);
}

#[test]
fn mediator_node_relays_without_local_data() {
    // mid has schema but no data: pure mediator between src and dst.
    let src = r#"
        node src
        node mid
        node dst
        schema src: r(int)
        schema mid: r(int)
        schema dst: r(int)
        data src: r(1). r(2). r(3).
        rule sm @ src -> mid: r(X) <- r(X).
        rule md @ mid -> dst: r(X) <- r(X).
    "#;
    let mut net = build(src);
    let dst = net.node_id("dst").unwrap();
    net.run_update(dst);
    assert_eq!(net.node(dst).ldb().get("r").unwrap().len(), 3);
}

// ---------------------------------------------------------------------
// Query-dependent (scoped) updates — the paper's "query-dependent update
// requests" (§2).
// ---------------------------------------------------------------------

const FORKED: &str = r#"
    node left
    node right
    node hub
    schema left: l(int)
    schema right: r(int)
    schema hub: l_data(int)
    schema hub: r_data(int)
    data left: l(1). l(2).
    data right: r(3). r(4). r(5).
    rule from_l @ left -> hub: l_data(X) <- l(X).
    rule from_r @ right -> hub: r_data(X) <- r(X).
"#;

#[test]
fn scoped_update_materialises_only_the_demanded_branch() {
    let mut net = build(FORKED);
    let hub = net.node_id("hub").unwrap();
    let outcome = net.run_scoped_update(hub, vec!["l_data".to_owned()]);
    let node = net.node(hub);
    assert_eq!(node.ldb().get("l_data").unwrap().len(), 2, "demanded branch");
    assert_eq!(node.ldb().get("r_data").unwrap().len(), 0, "undemanded branch untouched");
    // Fewer messages than a full update would need (no flood, no right
    // branch).
    assert!(outcome.summary.tuples_added == 2);
    let full = {
        let mut net2 = build(FORKED);
        net2.run_update(hub)
    };
    assert!(
        outcome.messages < full.messages,
        "scoped {} !< full {}",
        outcome.messages,
        full.messages
    );
}

#[test]
fn scoped_update_follows_transitive_demand() {
    // chain: node0 -> node1 -> node2; demand at node2 pulls through node1.
    let mut net = build(&chain_config(3, 4));
    let last = net.node_id("node2").unwrap();
    let outcome = net.run_scoped_update(last, vec!["r".to_owned()]);
    assert_eq!(net.node(last).ldb().get("r").unwrap().len(), 4);
    // Intermediate node also materialised (it is on the demand path).
    let mid = net.node_id("node1").unwrap();
    assert_eq!(net.node(mid).ldb().get("r").unwrap().len(), 4);
    assert_eq!(outcome.summary.longest_path, 2);
}

#[test]
fn scoped_update_on_cycle_terminates() {
    let src = r#"
        node a
        node b
        schema a: r(int)
        schema b: r(int)
        data a: r(1).
        data b: r(2).
        rule ab @ a -> b: r(X) <- r(X).
        rule ba @ b -> a: r(X) <- r(X).
    "#;
    let mut net = build(src);
    let a = net.node_id("a").unwrap();
    net.run_scoped_update(a, vec!["r".to_owned()]);
    assert_eq!(net.node(a).ldb().get("r").unwrap().len(), 2);
    // b also reaches the fixpoint: the cycle demands b's r, which demands
    // a's r back.
    let b = net.node_id("b").unwrap();
    assert_eq!(net.node(b).ldb().get("r").unwrap().len(), 2);
}

#[test]
fn scoped_update_with_unknown_relation_is_a_noop() {
    let mut net = build(FORKED);
    let hub = net.node_id("hub").unwrap();
    let outcome = net.run_scoped_update(hub, vec!["nonexistent".to_owned()]);
    assert_eq!(outcome.summary.tuples_added, 0);
    // Nothing: no demands and no data, so nobody engaged to hear of the
    // completion either.
    assert_eq!(outcome.messages, 0);
}

#[test]
fn scoped_then_local_query_answers_the_scoping_query() {
    let mut net = build(&chain_config(4, 6));
    let last = net.node_id("node3").unwrap();
    net.run_scoped_update(last, vec!["r".to_owned()]);
    let q = net.run_query_text(last, "ans(X) :- r(X).", false).unwrap();
    assert_eq!(q.result.answers.len(), 6);
    assert_eq!(q.messages, 0);
}

// ---------------------------------------------------------------------
// Concurrency: multiple updates and queries in flight simultaneously.
// ---------------------------------------------------------------------

#[test]
fn two_concurrent_updates_from_different_origins_both_complete() {
    let mut net = build(&chain_config(5, 8));
    let n0 = net.node_id("node0").unwrap();
    let n4 = net.node_id("node4").unwrap();
    // Inject both before running: they interleave in the event queue.
    net.sim_mut().inject(
        codb_core::HARNESS_PEER,
        n0.peer(),
        codb_core::Envelope::control(codb_core::Body::StartUpdate),
    );
    net.sim_mut().inject(
        codb_core::HARNESS_PEER,
        n4.peer(),
        codb_core::Envelope::control(codb_core::Body::StartUpdate),
    );
    net.sim_mut().run_until_quiescent();
    let report = net.network_report();
    let ids = report.update_ids();
    assert_eq!(ids.len(), 2, "two distinct update ids");
    for id in ids {
        let s = report.summarise(id).unwrap();
        assert_eq!(s.nodes, 5, "update {id} reached everyone");
    }
    // Data converged exactly once despite double delivery.
    for i in 0..5 {
        let node = net.node_id(&format!("node{i}")).unwrap();
        assert_eq!(net.node(node).ldb().get("r").unwrap().len(), 8);
    }
}

#[test]
fn concurrent_queries_get_distinct_answers() {
    let mut net = build(&chain_config(3, 5));
    let last = net.node_id("node2").unwrap();
    let q1 = codb_relational::parse_query("ans(X) :- r(X).").unwrap();
    let q2 = codb_relational::parse_query("ans(X) :- r(X), X >= 2.").unwrap();
    net.sim_mut().inject(
        codb_core::HARNESS_PEER,
        last.peer(),
        codb_core::Envelope::control(codb_core::Body::StartQuery {
            query: Box::new(q1),
            fetch: true,
        }),
    );
    net.sim_mut().inject(
        codb_core::HARNESS_PEER,
        last.peer(),
        codb_core::Envelope::control(codb_core::Body::StartQuery {
            query: Box::new(q2),
            fetch: true,
        }),
    );
    net.sim_mut().run_until_quiescent();
    let results = &net.node(last).completed_queries;
    assert_eq!(results.len(), 2);
    let mut sizes: Vec<usize> = results.values().map(|r| r.answers.len()).collect();
    sizes.sort();
    assert_eq!(sizes, vec![3, 5]); // {2,3,4} and {0..5}
}

#[test]
fn update_during_query_does_not_corrupt_either() {
    let mut net = build(&chain_config(3, 5));
    let last = net.node_id("node2").unwrap();
    let q = codb_relational::parse_query("ans(X) :- r(X).").unwrap();
    net.sim_mut().inject(
        codb_core::HARNESS_PEER,
        last.peer(),
        codb_core::Envelope::control(codb_core::Body::StartQuery {
            query: Box::new(q),
            fetch: true,
        }),
    );
    net.sim_mut().inject(
        codb_core::HARNESS_PEER,
        last.peer(),
        codb_core::Envelope::control(codb_core::Body::StartUpdate),
    );
    net.sim_mut().run_until_quiescent();
    // The query answered (overlay isolated from the concurrent
    // materialisation — possibly observing it, never corrupting it).
    let results = &net.node(last).completed_queries;
    assert_eq!(results.len(), 1);
    let answers = results.values().next().unwrap().answers.len();
    assert!(answers == 5 || answers == 0 || answers > 0, "query completed");
    // The update fully materialised.
    assert_eq!(net.node(last).ldb().get("r").unwrap().len(), 5);
}

#[test]
fn topology_discovery_finds_non_acquaintances() {
    // Two disjoint two-node networks in one simulator: nodes discover each
    // other through the advertisement board even without pipes or rules.
    let src = r#"
        node a
        node b
        node c
        node d
        schema a: r(int)
        schema b: r(int)
        schema c: s(int)
        schema d: s(int)
        rule ab @ a -> b: r(X) <- r(X).
        rule cd @ c -> d: s(X) <- s(X).
    "#;
    let mut net = build(src);
    let a = net.node_id("a").unwrap();
    net.run_control(a, codb_core::Body::TriggerDiscovery);
    let discovered = &net.node(a).discovered;
    // a discovers b (acquaintance) AND c, d (not acquaintances).
    assert!(discovered.contains(&net.node_id("c").unwrap()));
    assert!(discovered.contains(&net.node_id("d").unwrap()));
    assert!(!discovered.contains(&a), "a does not list itself");
}

// ---------------------------------------------------------------------
// Partition and healing.
// ---------------------------------------------------------------------

#[test]
fn partition_heals_and_next_update_converges() {
    let mut net = build(&chain_config(4, 6));
    let n0 = net.node_id("node0").unwrap();
    let n1 = net.node_id("node1").unwrap();
    let n3 = net.node_id("node3").unwrap();

    // Partition the chain between node1 and node2 before any update.
    let n2 = net.node_id("node2").unwrap();
    net.sim_mut().close_pipe(n1.peer(), n2.peer());

    // An update started at node3 cannot reach across the cut; the run
    // still quiesces (bounded retransmission gives up on the dead pipe).
    net.sim_mut().inject(
        codb_core::HARNESS_PEER,
        n3.peer(),
        codb_core::Envelope::control(codb_core::Body::StartUpdate),
    );
    let mut guard = 0;
    while net.sim_mut().step() {
        guard += 1;
        assert!(guard < 2_000_000, "must quiesce under partition");
    }
    assert_eq!(net.node(n3).ldb().get("r").unwrap().len(), 0, "cut blocks data");

    // Heal the partition and run a fresh update: full convergence.
    net.sim_mut().open_pipe(n1.peer(), n2.peer(), PipeConfig::lan());
    net.run_update(n3);
    assert_eq!(net.node(n3).ldb().get("r").unwrap().len(), 6);
    assert_eq!(net.node(n0).ldb().get("r").unwrap().len(), 6);
}

#[test]
fn node_snapshot_restores_materialised_state() {
    let mut net = build(TWO_NODES);
    let portal = net.node_id("portal").unwrap();
    net.run_update(portal);
    let bytes = net.node(portal).snapshot().to_binary_bytes();

    // Fresh network: portal empty; restore the snapshot.
    let mut net2 = build(TWO_NODES);
    let portal2 = net2.node_id("portal").unwrap();
    assert!(net2.node(portal2).ldb().get("person").unwrap().is_empty());
    let snap = codb_relational::Snapshot::from_binary_bytes(&bytes).unwrap();
    net2.sim_mut().peer_mut(portal2.peer()).unwrap().restore(snap);
    let q = net2.run_query_text(portal2, "ans(N) :- person(N, A).", false).unwrap();
    assert_eq!(q.result.answers.len(), 2);
}

// ---------------------------------------------------------------------
// Repeated updates: sent caches across updates and GLAV re-run semantics.
// ---------------------------------------------------------------------

#[test]
fn repeated_glav_update_does_not_duplicate_nulls() {
    // Without cross-update template dedup, every re-run would invent fresh
    // nulls for the same existential facts and balloon the target.
    let src = r#"
        node s
        node t
        schema s: emp(str)
        schema t: person(str, int)
        data s: emp("ada"). emp("bob").
        rule g @ s -> t: person(N, F) <- emp(N).
    "#;
    let mut net = build(src);
    let t = net.node_id("t").unwrap();
    net.run_update(t);
    assert_eq!(net.node(t).ldb().get("person").unwrap().len(), 2);
    let second = net.run_update(t);
    assert_eq!(second.summary.tuples_added, 0, "re-run must not re-invent nulls");
    assert_eq!(net.node(t).ldb().get("person").unwrap().len(), 2);
}

#[test]
fn incremental_updates_skip_already_sent_data() {
    let mut net = build(&chain_config(3, 10));
    let last = net.node_id("node2").unwrap();
    let first = net.run_update(last);
    assert!(first.summary.data_messages > 0);
    // Second update: sender-side caches persist → no data moves at all.
    let second = net.run_update(last);
    assert_eq!(second.summary.data_messages, 0, "nothing new to ship");
    assert_eq!(second.summary.tuples_added, 0);
}

#[test]
fn incremental_update_ships_only_new_tuples() {
    let mut net = build(&chain_config(3, 10));
    let last = net.node_id("node2").unwrap();
    net.run_update(last);
    // The user inserts two new tuples at the head of the chain.
    let n0 = net.node_id("node0").unwrap();
    let node0 = net.sim_mut().peer_mut(n0.peer()).unwrap();
    node0.insert_local("r", codb_relational::tup![100]).unwrap();
    node0.insert_local("r", codb_relational::tup![101]).unwrap();
    let second = net.run_update(last);
    assert_eq!(second.summary.tuples_added, 4, "2 new tuples × 2 downstream nodes");
    assert_eq!(net.node(last).ldb().get("r").unwrap().len(), 12);
    // Data messages carried only the delta.
    assert_eq!(second.summary.firings, 4);
}

#[test]
fn everything_resent_after_a_rules_file_adds_nothing() {
    let config = codb_core::NetworkConfig::parse(&chain_config(3, 10)).unwrap();
    let mut net = CoDbNetwork::build_with_superpeer(config.clone(), SimConfig::default()).unwrap();
    let last = net.node_id("node2").unwrap();
    let first = net.run_update(last);
    // The same file again: every node drops its firing caches with the old
    // book, so everything is re-sent…
    net.broadcast_rules(config).unwrap();
    let second = net.run_update(last);
    assert_eq!(second.summary.data_messages, first.summary.data_messages);
    assert_eq!(second.summary.firings, first.summary.firings);
    // …but the receiving LDB keeps the data exact.
    assert_eq!(second.summary.tuples_added, 0);
    assert_eq!(net.node(last).ldb().get("r").unwrap().len(), 10);
}

#[test]
fn stale_query_rule_gets_empty_answer_not_a_hang() {
    // Query launched against a rule that the source no longer knows (the
    // super-peer rewired mid-flight): the source answers empty so the
    // querying node can finish.
    let v1 = r#"
        version 1
        node a
        node b
        schema a: r(int)
        schema b: r(int)
        data a: r(1).
        rule ab @ a -> b: r(X) <- r(X).
    "#;
    let v2 = r#"
        version 2
        node a
        node b
        schema a: r(int)
        schema b: r(int)
        data a: r(1).
    "#;
    let mut net =
        CoDbNetwork::build_with_superpeer(NetworkConfig::parse(v1).unwrap(), SimConfig::default())
            .unwrap();
    let b = net.node_id("b").unwrap();
    // Rewire away the rule *at the source only* by broadcasting v2... the
    // broadcast reaches everyone, so to create staleness we inject the
    // query while the new rules file is still being distributed: inject
    // both and let the event order interleave.
    let sp = net.superpeer().unwrap();
    net.sim_mut().inject(
        codb_core::HARNESS_PEER,
        sp.peer(),
        codb_core::Envelope::control(codb_core::Body::BroadcastRules),
    );
    // Replace superpeer config first so the broadcast carries v2.
    net.broadcast_rules(NetworkConfig::parse(v2).unwrap()).unwrap();
    let q = net.run_query_text(b, "ans(X) :- r(X).", true).unwrap();
    // The rule is gone: nothing to fetch, query answers from local (empty).
    assert_eq!(q.result.answers.len(), 0);
}

#[test]
fn update_report_duration_fields_are_consistent() {
    let mut net = build(&chain_config(4, 5));
    let outcome = net.run_update(net.node_id("node0").unwrap());
    let report = net.network_report();
    for node in report.nodes.values() {
        let r = &node.updates[&outcome.update];
        let d = r.duration().expect("closed nodes have durations");
        assert!(d <= outcome.summary.total_time);
        assert!(r.started_at >= outcome.summary.started_at);
    }
    assert_kinds_match_the_ledger(&net);
}

/// The kinds a node counts that are not an envelope it handed to a pipe
/// (`abandoned`, `barrier_parked`) or that recount one it received
/// (`data_rejected`, `ingest_rejected`).
const NOT_ENVELOPES: [Kind; 4] =
    [Kind::Abandoned, Kind::BarrierParked, Kind::DataRejected, Kind::IngestRejected];

/// The kinds only the harness sends: each was injected, no node counts it sent.
const INJECTED: [Kind; 7] = [
    Kind::StartUpdate,
    Kind::StartScopedUpdate,
    Kind::StartQuery,
    Kind::CollectStats,
    Kind::BroadcastRules,
    Kind::TriggerDiscovery,
    Kind::IngestLocal,
];

/// The nodes' statistics modules against the simulator's ledger: the
/// envelopes the nodes count sent, plus the harness's injections, are
/// the network's `sent`, and the envelopes they count received are its
/// `delivered`. A send path no kind counts breaks the first.
fn assert_kinds_match_the_ledger(net: &CoDbNetwork) {
    let envelopes = |counts: &KindCounts| -> u64 {
        Kind::ALL.iter().filter(|k| !NOT_ENVELOPES.contains(k)).map(|&k| counts.of(k)).sum()
    };
    let (mut sent, mut received) = (0, 0);
    for (_, node) in net.sim().peers() {
        let r = node.report();
        sent += envelopes(&r.messages_sent);
        sent += INJECTED.iter().map(|&k| r.messages_received.of(k)).sum::<u64>();
        received += envelopes(&r.messages_received);
    }
    let ledger = net.sim().stats();
    assert_eq!(sent, ledger.sent, "kinds sent + injections vs the ledger's sent: {ledger:?}");
    assert_eq!(received, ledger.delivered, "kinds received vs the ledger's delivered: {ledger:?}");
}

#[test]
fn kind_counts_match_the_ledger_under_loss() {
    let sim = SimConfig { seed: 11, ..Default::default() };
    let settings = NodeSettings { pipe: PipeConfig::lan().with_loss(0.08), ..Default::default() };
    let config = NetworkConfig::parse(&chain_config(6, 20)).unwrap();
    let mut net = CoDbNetwork::build_with(config, sim, settings, false).unwrap();
    let first = net.node_id("node0").unwrap();
    let last = net.node_id("node5").unwrap();
    net.run_update(first);
    net.run_query_text(last, "ans(X) :- r(X).", true).unwrap();
    let ledger = net.sim().stats();
    assert!(ledger.dropped > 0, "8% loss drops something: {ledger:?}");
    assert_kinds_match_the_ledger(&net);
}

#[test]
fn streaming_queries_deliver_first_answers_before_completion() {
    // On a chain, the immediate local instalment of the first hop arrives
    // well before deep data has travelled the whole chain.
    let mut net = build(&chain_config(6, 4));
    // Seed data at EVERY node so the first instalment is non-empty.
    for i in 1..6 {
        let id = net.node_id(&format!("node{i}")).unwrap();
        let node = net.sim_mut().peer_mut(id.peer()).unwrap();
        for t in 0..4 {
            node.insert_local("r", codb_relational::tup![1000 + i as i64 * 10 + t]).unwrap();
        }
    }
    let last = net.node_id("node5").unwrap();
    let q = net.run_query_text(last, "ans(X) :- r(X).", true).unwrap();
    assert_eq!(q.result.answers.len(), 24);
    let rep = &net.node(last).report().queries[&q.query];
    let first = rep.first_answer_at.expect("streamed");
    let done = rep.finished_at.expect("finished");
    assert!(first < done, "first instalment ({first:?}) must precede completion ({done:?})");
    // Multiple instalments arrived on the single link.
    assert!(rep.answers_received > 1, "got {}", rep.answers_received);
}

const MAX_HOPS: u64 = 8;

/// `a` and `b` copying `r` to each other through rules with head `head`,
/// under a `MAX_HOPS` valve.
fn hop_pair(head: &str, sim: SimConfig) -> CoDbNetwork {
    let src = format!(
        "node a\nnode b\nschema a: r(int, int)\nschema b: r(int, int)\n\
         data a: r(1, 2).\n\
         rule ab @ a -> b: {head} <- r(X, Y).\n\
         rule ba @ b -> a: {head} <- r(X, Y).\n"
    );
    let settings = NodeSettings { max_hops: MAX_HOPS, ..Default::default() };
    CoDbNetwork::build_with(NetworkConfig::parse(&src).unwrap(), sim, settings, false).unwrap()
}

/// The `r` tuples `a` and `b` hold between them.
fn pair_tuples(net: &CoDbNetwork) -> usize {
    ["a", "b"].iter().map(|n| net.node(net.node_id(n).unwrap()).ldb().get("r").unwrap().len()).sum()
}

/// The chase-depth valve. `ab` and `ba` each push the second column
/// forward and invent the next (`Z` existential), so the rules are not
/// weakly acyclic: every pass around the cycle mints a template no node
/// has seen and the chase has no fixpoint. `max_hops` must cut it.
#[test]
fn max_hops_truncates_a_chase_that_is_not_weakly_acyclic() {
    let mut runaway = hop_pair("r(Y, Z)", SimConfig::default());
    let outcome = runaway.run_update(runaway.node_id("a").unwrap());
    assert!(runaway.sim().is_quiescent(), "a truncated update still terminates");
    assert!(outcome.summary.truncated, "the valve must report that it cut the chase");
    assert_eq!(outcome.summary.longest_path, MAX_HOPS);
    // The seed tuple, then one new tuple per hop until the cap.
    assert_eq!(pair_tuples(&runaway), 1 + MAX_HOPS as usize);

    // The same cycle keeping the first column: the invented column is
    // never carried into a head, so the rules are weakly acyclic and
    // template dedup ends the chase on its own.
    let mut bounded = hop_pair("r(X, Z)", SimConfig::default());
    let outcome = bounded.run_update(bounded.node_id("a").unwrap());
    assert!(!outcome.summary.truncated);
    assert!(outcome.summary.longest_path < MAX_HOPS);
}

/// The valve cuts a rejoin repair's cascade as it cuts update data. After
/// the truncated update `a` holds the frontier tuple the valve stopped, so
/// its whole-view repair toward a restarted `b` carries a template `b` has
/// never seen, and the cascade that starts is the same runaway chase.
#[test]
fn max_hops_truncates_a_rejoin_repair_cascade() {
    let tmp = codb_store::ScratchDir::new("core-repair-valve");
    let mut net = hop_pair("r(Y, Z)", SimConfig { max_events: 50_000, ..Default::default() });
    net.open_persistence_all(tmp.path(), codb_store::SyncPolicy::Always).unwrap();
    let (a, b) = (net.node_id("a").unwrap(), net.node_id("b").unwrap());
    assert!(net.run_update(a).summary.truncated);
    assert_eq!(pair_tuples(&net), 1 + MAX_HOPS as usize);

    net.crash_node(b);
    let dir = CoDbNetwork::node_data_dir(tmp.path(), "b");
    net.restart_node_from_disk(b, &dir, codb_store::SyncPolicy::Always).unwrap();
    assert!(net.sim().is_quiescent(), "the repair cascade ran into the event cap");
    // The frontier template, then one new tuple per repair hop until the valve.
    assert_eq!(pair_tuples(&net), 1 + 2 * MAX_HOPS as usize);
}

// ---------------------------------------------------------------------
// Query-time serving on the shapes a chain never exercises. Each case
// pins the fetch's traffic — messages, bytes, and `query_answer`s sent per
// node — to what "fire the whole view, drop what was sent" shipped before
// serving went semi-naive: same instalments, same payload. (Message and
// byte totals were re-read once since, when acks began to ride: a first
// answer carries the ack of its request, so each served request costs one
// envelope fewer, and every sequenced envelope tells its window base; and
// again when answers began to carry tags: every final answer and every
// opening one names its whole answer in 16 bytes, on a cold fetch as on
// any other; and again when a server stopped streaming its rest and sent
// it in one final instalment once every nested whole answer was in: a
// non-leaf server sends two instalments, both tagged, and no mid-stream
// one.)
// ---------------------------------------------------------------------

/// `(messages, bytes, query_answer messages sent by each of names)`.
type Traffic = (u64, u64, Vec<u64>);

/// The network's traffic so far.
fn answer_traffic(net: &CoDbNetwork, names: &[&str]) -> Traffic {
    let sent = |name: &&str| {
        let id = net.node_id(name).unwrap();
        net.node(id).report().messages_sent.get("query_answer").copied().unwrap_or(0)
    };
    let stats = net.sim().stats();
    (stats.sent, stats.bytes_sent, names.iter().map(sent).collect())
}

/// Runs `query` at `at` fetched on a fresh network and locally on a
/// materialised one; returns both answer sets and the fetch's traffic.
fn fetched_and_materialised(
    cfg: &str,
    at: &str,
    query: &str,
    names: &[&str],
) -> (Vec<Tuple>, Vec<Tuple>, Traffic) {
    let mut fresh = build(cfg);
    let node = fresh.node_id(at).unwrap();
    let fetched = fresh.run_query_text(node, query, true).unwrap();
    let (_, _, answers_sent) = answer_traffic(&fresh, names);
    let mut materialised = build(cfg);
    materialised.run_update(node);
    let local = materialised.run_query_text(node, query, false).unwrap();
    (fetched.result.answers, local.result.answers, (fetched.messages, fetched.bytes, answers_sent))
}

#[test]
fn diamond_serving_joins_two_nested_links_into_one_body() {
    // q <- s <- {l, r} <- base: s's body joins what its two nested links
    // deliver, so every instalment from either side meets the other's.
    let mut cfg = String::from(
        "node q\nnode s\nnode l\nnode r\nnode base\n\
         schema q: t(int, int)\nschema s: a(int, int)\nschema s: b(int, int)\n\
         schema l: e(int, int)\nschema r: e(int, int)\nschema base: e(int, int)\n\
         rule bl @ base -> l: e(X, Y) <- e(X, Y).\n\
         rule br @ base -> r: e(X, Y) <- e(X, Y).\n\
         rule ls @ l -> s: a(X, Y) <- e(X, Y).\n\
         rule rs @ r -> s: b(X, Y) <- e(X, Y).\n\
         rule sq @ s -> q: t(X, Z) <- a(X, Y), b(Y, Z).\n",
    );
    cfg.push_str("data base: ");
    for i in 0..12 {
        cfg.push_str(&format!("e({i}, {}). ", (i * 5 + 1) % 12));
    }
    cfg.push_str("\ndata l: e(100, 0). e(3, 100).\ndata r: e(100, 7). e(7, 100).\n");
    cfg.push_str("data s: a(200, 201). b(201, 202).\n");
    let (fetched, local, traffic) =
        fetched_and_materialised(&cfg, "q", "ans(X, Z) :- t(X, Z).", &["s", "l", "r", "base"]);
    assert_eq!(fetched, local);
    assert_eq!(fetched.len(), 16);
    // s sent 4 instalments while it streamed: its local part, one per
    // nested instalment that derived something new, and its final one.
    assert_eq!(
        traffic,
        (21, 2684, vec![2, 2, 2, 2]),
        "eight tags of 16: five final, three opening"
    );
}

#[test]
fn self_join_body_fed_by_two_links() {
    // Both nested links write `e`, which s's body reads twice: a path may
    // take its first edge from one link and its second from the other.
    let cfg = r#"
        node q
        node s
        node l
        node r
        schema q: p(int, int)
        schema s: e(int, int)
        schema l: e(int, int)
        schema r: e(int, int)
        data s: e(1, 2).
        data l: e(2, 3). e(3, 4). e(9, 1).
        data r: e(4, 5). e(2, 6). e(3, 4).
        rule ls @ l -> s: e(X, Y) <- e(X, Y).
        rule rs @ r -> s: e(X, Y) <- e(X, Y).
        rule sq @ s -> q: p(X, Z) <- e(X, Y), e(Y, Z).
    "#;
    let (fetched, local, traffic) =
        fetched_and_materialised(cfg, "q", "ans(X, Z) :- p(X, Z).", &["s", "l", "r"]);
    assert_eq!(fetched, local);
    assert_eq!(fetched, vec![tup![1, 3], tup![1, 6], tup![2, 4], tup![3, 5], tup![9, 2]]);
    // s sent 3 while it streamed: a mid-stream instalment for the first
    // nested answer in, beside its local part and its final one.
    assert_eq!(traffic, (11, 961, vec![2, 1, 1]), "four tags of 16: three final, one opening");
}

#[test]
fn ring_fetch_is_cut_at_simple_paths() {
    // Four nodes copying r clockwise: the fetch from a walks d, c, b and
    // stops where the path would revisit a.
    let cfg = r#"
        node a
        node b
        node c
        node d
        schema a: r(int)
        schema b: r(int)
        schema c: r(int)
        schema d: r(int)
        data a: r(1). r(2).
        data b: r(3). r(1).
        data c: r(4).
        data d: r(5). r(4).
        rule ab @ a -> b: r(X) <- r(X).
        rule bc @ b -> c: r(X) <- r(X).
        rule cd @ c -> d: r(X) <- r(X).
        rule da @ d -> a: r(X) <- r(X).
    "#;
    let mut net = build(cfg);
    let a = net.node_id("a").unwrap();
    let q = net.run_query_text(a, "ans(X) :- r(X).", true).unwrap();
    assert_eq!(q.result.answers, vec![tup![1], tup![2], tup![3], tup![4], tup![5]]);
    let (_, _, answers_sent) = answer_traffic(&net, &["b", "c", "d"]);
    assert_eq!((q.messages, q.bytes, answers_sent), (13, 963, vec![1, 2, 2]), "+5 tags of 16");
}

#[test]
fn existential_nested_link_streams_templates_once() {
    // l -> s invents a department per employee and writes it to both
    // relations s's body joins, so one instalment's delta spans two body
    // relations. The nulls are s's overlay's, invented per instalment.
    let cfg = r#"
        node q
        node s
        node l
        schema q: works(str, str)
        schema s: in_dept(str, str)
        schema s: dept(str)
        schema l: emp(str)
        data l: emp("ada"). emp("bob"). emp("cy").
        data s: in_dept("dan", "ops"). dept("ops"). in_dept("eve", "lab").
        rule ls @ l -> s: in_dept(N, D), dept(D) <- emp(N).
        rule sq @ s -> q: works(N, D) <- in_dept(N, D), dept(D).
    "#;
    let (fetched, local, traffic) =
        fetched_and_materialised(cfg, "q", "ans(N, D) :- works(N, D).", &["s", "l"]);
    let names = |answers: &[Tuple]| -> Vec<_> {
        answers.iter().map(|t| (t[0].clone(), t[1].is_null())).collect()
    };
    assert_eq!(names(&fetched), names(&local));
    assert_eq!(fetched.len(), 4);
    assert_eq!(fetched.iter().filter(|t| t.has_null()).count(), 3);
    assert_eq!(traffic, (8, 743, vec![2, 1]), "three tags of 16: two final, one opening");
}

#[test]
fn rejected_instalment_mid_stream_ships_nothing_and_the_stream_goes_on() {
    // q <- s <- l. While s is serving q and waiting for l, an instalment
    // that is not an instance of `ls`'s head reaches s: it is dropped
    // whole, s ships nothing for it, and l's real answer still flows.
    let cfg = r#"
        node q
        node s
        node l
        schema q: r(int)
        schema s: r(int)
        schema l: r(int)
        data s: r(1).
        data l: r(2). r(3).
        rule ls @ l -> s: r(X) <- r(X).
        rule sq @ s -> q: r(X) <- r(X).
    "#;
    use codb_core::{Body, Envelope, ReqId};
    use codb_relational::{parse_query, RuleFiring, TField, Value};
    let mut net = build(cfg);
    let [q, s, l] = ["q", "s", "l"].map(|n| net.node_id(n).unwrap());
    let query = parse_query("ans(X) :- r(X).").unwrap();
    let start = Body::StartQuery { query: Box::new(query), fetch: true };
    net.sim_mut().inject(codb_core::HARNESS_PEER, q.peer(), Envelope::control(start));
    while !net.node(s).report().messages_sent.contains_key("query_request") {
        assert!(net.sim_mut().step(), "quiescent before s asked l");
    }
    // s's second id: the first named its answer's tag (`Tag`).
    let nested = ReqId { node: s, epoch: 0, seq: 1 };
    let bad = RuleFiring::new([("r", vec![TField::Const(Value::str("x"))])]);
    let forged = Body::QueryAnswer { req: nested, firings: vec![bad], closed: None, tag: None };
    net.sim_mut().inject(l.peer(), s.peer(), Envelope::control(forged));
    net.sim_mut().run_until_quiescent();

    assert_eq!(net.node(s).report().messages_received["data_rejected"], 1);
    let result = net.node(q).completed_queries.values().next().expect("the query finished");
    assert_eq!(result.answers, vec![tup![1], tup![2], tup![3]]);
    assert_eq!(answer_traffic(&net, &["s", "l"]), (10, 655, vec![2, 1]), "+3 tags of 16");
}

// ---------------------------------------------------------------------
// The read path keeps what it builds: join indexes live on the LDB's
// relations, overlays borrow them, and a result leaves with its driver.
// The pins are on structure — what is built, what is kept — not on time.
// ---------------------------------------------------------------------

/// `n` nodes in a chain, each with `r(key, join key)` and `s(join key,
/// join key)`; rule `i` joins the two at node `i` into `r` at node `i+1`.
fn join_chain_config(n: usize, tuples: usize) -> String {
    let mut s = String::new();
    for i in 0..n {
        s.push_str(&format!(
            "node node{i}\nschema node{i}: r(int, int)\nschema node{i}: s(int, int)\n"
        ));
        s.push_str(&format!("data node{i}: "));
        for t in 0..tuples {
            s.push_str(&format!("r({}, {}). ", i * 1000 + t, t % 4));
        }
        for k in 0..4 {
            s.push_str(&format!("s({k}, {}). ", (k + 1) % 4));
        }
        s.push('\n');
    }
    for i in 0..n - 1 {
        let j = i + 1;
        s.push_str(&format!("rule j{i} @ node{i} -> node{j}: r(X, Z) <- r(X, Y), s(Y, Z).\n"));
    }
    s
}

/// Every `(node, relation, column)` of the chain, and whether it is indexed.
fn indexed_columns(net: &CoDbNetwork, n: usize) -> Vec<(usize, &'static str, usize, bool)> {
    let mut columns = Vec::new();
    for i in 0..n {
        let ldb = net.node(net.node_id(&format!("node{i}")).unwrap()).ldb();
        for (rel, col) in [("r", 0), ("r", 1), ("s", 0), ("s", 1)] {
            columns.push((i, rel, col, ldb.get(rel).unwrap().is_indexed(col)));
        }
    }
    columns
}

#[test]
fn a_warm_fetch_builds_no_index_and_leaves_the_ldbs_indexes_alone() {
    use codb_relational::{index_builds, Value};
    let mut net = build(&join_chain_config(3, 20));
    let [mid, sink] = ["node1", "node2"].map(|n| net.node_id(n).unwrap());
    let query = "ans(X, Y) :- r(X, Y).";

    let built = index_builds();
    let cold = net.run_query_text(sink, query, true).unwrap().result.answers;
    assert_eq!(cold.len(), 60);
    assert!(index_builds() > built, "the serving nodes joined");
    // node1 served through an overlay: a clone of its LDB's relations that
    // node0's answer was then written into. What the overlay built while
    // it was still the LDB's twin is the LDB's to keep.
    let warm_columns = indexed_columns(&net, 3);
    let at_mid = |rel| warm_columns.iter().any(|&(i, r, _, indexed)| i == 1 && r == rel && indexed);
    assert!(at_mid("r") && at_mid("s"), "{warm_columns:?}");
    let key = Value::Int(2);
    let bucket = |net: &CoDbNetwork| {
        let r = net.node(mid).ldb().get("r").unwrap();
        let col = (0..2).find(|col| r.is_indexed(*col)).unwrap();
        r.matching(col, &key).as_ptr()
    };
    let (built, held) = (index_builds(), bucket(&net));

    for _ in 0..3 {
        assert_eq!(net.run_query_text(sink, query, true).unwrap().result.answers, cold);
    }
    assert_eq!(index_builds(), built, "a warm fetch finds every index it probes");
    assert_eq!(indexed_columns(&net, 3), warm_columns);
    assert_eq!(bucket(&net), held, "the LDB's index is the one it had");
    assert_eq!(net.node(mid).ldb().get("r").unwrap().len(), 20, "nothing was materialised");
}

#[test]
fn an_ingest_between_two_local_joins_keeps_the_index_up() {
    use codb_relational::index_builds;
    let mut net = build(&join_chain_config(3, 20));
    let sink = net.node_id("node2").unwrap();
    net.run_update(sink);
    let join = "ans(X, Z) :- r(X, Y), s(Y, Z).";
    let before = net.run_query_text(sink, join, false).unwrap().result.answers;
    assert_eq!(before.len(), 60);

    let built = index_builds();
    net.run_control(
        sink,
        codb_core::Body::IngestLocal { relation: "r".into(), tuple: tup![7777, 3] },
    );
    let after = net.run_query_text(sink, join, false).unwrap().result.answers;
    assert_eq!(after.len(), 61);
    assert!(after.contains(&tup![7777, 0]));
    assert_eq!(index_builds(), built, "maintained in place, not rebuilt");
}

#[test]
fn a_result_leaves_the_node_with_the_driver_that_ran_the_query() {
    let mut net = build(&chain_config(3, 4));
    let last = net.node_id("node2").unwrap();
    for i in 0..1000 {
        let outcome = net.run_query_text(last, "ans(X) :- r(X).", i % 100 == 0).unwrap();
        assert_eq!(outcome.result.answers.len(), if i % 100 == 0 { 4 } else { 0 });
    }
    for name in ["node0", "node1", "node2"] {
        assert!(net.node(net.node_id(name).unwrap()).completed_queries.is_empty());
    }
}

// ---------------------------------------------------------------------
// A served link keeps its last whole fire under the versions of the
// relations it read. A repeated fetch over unchanged data fires nothing
// again; over data that grew — an insert at the server, an update that
// grows it — the view is refreshed from the relations' logs and nothing
// fires whole; a rules file that gives the link's name another body, or a
// restart from disk, makes the link fire anew.
// ---------------------------------------------------------------------

const JOIN_FETCH: &str = "ans(X, Y) :- r(X, Y).";

/// The fetch of `JOIN_FETCH` at `at`, and how many whole views the
/// network fired for it.
fn fetch_counting(net: &mut CoDbNetwork, at: &str) -> (codb_core::QueryOutcome, u64) {
    let at = net.node_id(at).unwrap();
    let before = codb_core::whole_fires();
    let outcome = net.run_query_text(at, JOIN_FETCH, true).unwrap();
    (outcome, codb_core::whole_fires() - before)
}

/// The answers of that fetch.
fn fetched(net: &mut CoDbNetwork, at: &str) -> (Vec<Tuple>, u64) {
    let (outcome, fired) = fetch_counting(net, at);
    (outcome.result.answers, fired)
}

/// How many links the fetch `outcome` ran at `at` found unchanged.
fn unchanged(net: &CoDbNetwork, at: &str, outcome: &codb_core::QueryOutcome) -> u64 {
    net.node(net.node_id(at).unwrap()).report().queries[&outcome.query].unchanged
}

/// `query_answer`s `at` has sent so far.
fn answers_sent(net: &CoDbNetwork, at: &str) -> u64 {
    answer_traffic(net, &[at]).2[0]
}

/// How long after it was posed the fetch `outcome` ran at `at` heard its
/// first answer.
fn first_answer_after(net: &CoDbNetwork, at: &str, outcome: &codb_core::QueryOutcome) -> SimTime {
    let report = &net.node(net.node_id(at).unwrap()).report().queries[&outcome.query];
    report.first_answer_at.expect("an answer came").saturating_sub(report.started_at)
}

#[test]
fn a_repeated_fetch_on_an_unchanged_network_fires_no_whole_view() {
    let mut net = build(&join_chain_config(8, 30));
    let (cold, fired) = fetch_counting(&mut net, "node7");
    assert_eq!(cold.result.answers.len(), 8 * 30);
    assert_eq!(fired, 7, "each of the seven links, once");
    // 63 and 19 504 while servers streamed: a server sent what each nested
    // instalment added on as an instalment of its own, so every upstream
    // node's local part took an envelope of its own on every hop. Now each
    // non-leaf server sends two, as on the warm fetch below.
    assert_eq!((cold.messages, cold.bytes), (33, 18_184));
    assert_eq!(unchanged(&net, "node7", &cold), 0);
    for _ in 0..3 {
        let (warm, fired) = fetch_counting(&mut net, "node7");
        assert_eq!(fired, 0, "every serving node found its view kept");
        assert_eq!(warm.result.answers, cold.result.answers);
        // Seven requests down; from each of the six non-leaf servers a tag
        // at once and a tag once its nested answer stood, from the leaf one
        // tag; and their acks: no firing crosses a link.
        assert_eq!((warm.messages, warm.bytes), (33, 2_336));
        assert_eq!(
            first_answer_after(&net, "node7", &warm),
            first_answer_after(&net, "node7", &cold)
        );
        assert_eq!(unchanged(&net, "node7", &warm), 1, "node6's answer stood");
    }
}

/// On Chain(n) a cold fetch sends exactly the envelopes a warm one does:
/// every non-leaf server answers in two instalments — its local part at
/// once, its rest once its nested whole answer is in — and the leaf in
/// one, however much the answers weigh.
#[test]
fn a_cold_fetch_sends_the_envelopes_a_warm_one_sends() {
    for n in [2, 4, 8, 16] {
        let mut net = build(&join_chain_config(n, 5));
        let (origin, servers) = (format!("node{}", n - 1), 0..n - 1);
        let sent = |net: &CoDbNetwork| -> Vec<u64> {
            servers.clone().map(|i| answers_sent(net, &format!("node{i}"))).collect()
        };
        let (cold, _) = fetch_counting(&mut net, &origin);
        let cold_sent = sent(&net);
        let mut want = vec![2; n - 1];
        want[0] = 1;
        assert_eq!(cold_sent, want, "Chain({n}): node0 is the leaf");
        let (warm, fired) = fetch_counting(&mut net, &origin);
        assert_eq!(fired, 0, "Chain({n})");
        assert_eq!(warm.result.answers, cold.result.answers, "Chain({n})");
        let warm_sent: Vec<u64> = sent(&net).iter().zip(&cold_sent).map(|(a, b)| a - b).collect();
        assert_eq!(warm_sent, want, "Chain({n})");
        assert_eq!(cold.messages, warm.messages, "Chain({n})");
        assert_eq!(cold.messages, 5 * n as u64 - 7, "Chain({n})");
    }
}

/// After an insert at node0 of a chain of three, node1's own data did not
/// change: it answers its local part at once by its tag alone, as early as
/// on the cold fetch, and then the rest, built from its kept view and
/// node0's new answer — so node0's link is the one whose view changes.
#[test]
fn after_an_insert_upstream_a_server_answers_its_local_part_at_once_and_fires_nothing() {
    let mut net = build(&join_chain_config(3, 20));
    let (cold, _) = fetch_counting(&mut net, "node2");
    let mut answers = cold.result.answers.clone();
    let node0 = net.node_id("node0").unwrap();
    net.run_control(
        node0,
        codb_core::Body::IngestLocal { relation: "r".into(), tuple: tup![7777, 3] },
    );
    let sent = answers_sent(&net, "node1");
    let (outcome, fired) = fetch_counting(&mut net, "node2");
    assert_eq!(fired, 0, "node0's view is refreshed from its log, not fired whole");
    assert_eq!(answers_sent(&net, "node1") - sent, 2, "node1: its tag at once, then the rest");
    assert_eq!(
        first_answer_after(&net, "node2", &outcome),
        first_answer_after(&net, "node2", &cold)
    );
    assert_eq!(unchanged(&net, "node2", &outcome), 0);
    answers.push(tup![7777, 1]);
    answers.sort();
    assert_eq!(outcome.result.answers, answers);
}

/// The diamond q <- s <- {l, r} <- base, with s queried itself between two
/// fetches at q, after an insert at base. s's own query fetches l and r
/// afresh, so what s fetched last is newer than what its kept answer to q
/// was computed from. q's next request finds s standing by that answer:
/// s names the newer tags and hears "unchanged" about them, and the kept
/// answer stands only where every nested whole carries the tag it
/// recorded — so s sees the tags differ and rebuilds. Standing on
/// "unchanged" alone, it would hand q the answer from before the insert.
#[test]
fn a_server_whose_own_query_fetched_newer_nested_answers_rebuilds_its_kept_one() {
    let base = "node q\nnode s\nnode l\nnode r\nnode base\n\
         schema q: t(int, int)\nschema s: a(int, int)\nschema s: b(int, int)\n\
         schema l: e(int, int)\nschema r: e(int, int)\nschema base: e(int, int)\n\
         rule bl @ base -> l: e(X, Y) <- e(X, Y).\n\
         rule br @ base -> r: e(X, Y) <- e(X, Y).\n\
         rule ls @ l -> s: a(X, Y) <- e(X, Y).\n\
         rule rs @ r -> s: b(X, Y) <- e(X, Y).\n\
         rule sq @ s -> q: t(X, Z) <- a(X, Y), b(Y, Z).\n\
         data base: e(1, 2). e(2, 3). e(5, 6).\n";
    let query = "ans(X, Z) :- t(X, Z).";
    let mut net = build(base);
    let [q, s, base_node] = ["q", "s", "base"].map(|n| net.node_id(n).unwrap());
    let before = net.run_query_text(q, query, true).unwrap().result.answers;
    assert_eq!(before, vec![tup![1, 3]]);
    net.run_control(
        base_node,
        codb_core::Body::IngestLocal { relation: "e".into(), tuple: tup![6, 7] },
    );
    // Over both links s fetches for q.
    let at_s = net.run_query_text(s, "ans(X, Z) :- a(X, Y), b(Y, Z).", true).unwrap();
    assert_eq!(at_s.result.answers, vec![tup![1, 3], tup![5, 7]], "s fetched the insert itself");
    let after = net.run_query_text(q, query, true).unwrap().result.answers;
    let mut cold = build(&format!("{base}data base: e(6, 7).\n"));
    let want = cold.run_query_text(q, query, true).unwrap().result.answers;
    assert_eq!(want, vec![tup![1, 3], tup![5, 7]]);
    assert_eq!(after, want, "q got s's answer from before the insert");
}

/// A warm fetch after the peer upstream of a serving node died, and stays
/// dead: the request to it is given up and closes untagged, so the serving
/// node's kept answer cannot stand — the answer is what the live peers hold.
#[test]
fn a_warm_fetch_after_the_upstream_peer_died_answers_what_the_live_peers_hold() {
    let mut net = build(&chain_config(3, 3));
    let [node0, node1, last] = [0, 1, 2].map(|i| net.node_id(&format!("node{i}")).unwrap());
    net.sim_mut().peer_mut(node1.peer()).unwrap().insert_local("r", tup![100]).unwrap();
    let query = "ans(X) :- r(X).";
    for _ in 0..2 {
        let warm = net.run_query_text(last, query, true).unwrap().result.answers;
        assert_eq!(warm, vec![tup![0], tup![1], tup![2], tup![100]]);
    }
    net.crash_node(node0);
    let q = net.run_query_text(last, query, true).unwrap();
    assert_eq!(q.result.answers, vec![tup![100]]);
    assert_eq!(net.node(last).report().queries[&q.query].unchanged, 0);
    let again = net.run_query_text(last, query, true).unwrap().result.answers;
    assert_eq!(again, vec![tup![100]], "nor the kept answer on the next fetch");
}

/// A server restarted from disk is a new incarnation: every tag it mints
/// differs from every tag its dead incarnation handed out, so nothing the
/// requester holds from before reads as unchanged.
#[test]
fn a_server_restarted_from_disk_never_mints_a_tag_its_dead_incarnation_minted() {
    use codb_store::{ScratchDir, SyncPolicy};
    let tmp = ScratchDir::new("core-fetch-tags");
    let mut net = build(&join_chain_config(3, 20));
    net.open_persistence_all(tmp.path(), SyncPolicy::Always).unwrap();
    let [mid, sink] = ["node1", "node2"].map(|n| net.node_id(n).unwrap());
    let mut seen = std::collections::BTreeSet::new();
    // The dead incarnation hands out a few tags: each insert at node1
    // makes it answer anew.
    for k in 0..3 {
        net.run_control(
            mid,
            codb_core::Body::IngestLocal { relation: "r".into(), tuple: tup![9000 + k, 0] },
        );
        fetched(&mut net, "node2");
        assert!(seen.insert(net.node(sink).fetched_tag("j1").expect("a tagged answer")));
    }
    let (before, _) = fetched(&mut net, "node2");
    assert!(net.crash_node(mid));
    let dir = CoDbNetwork::node_data_dir(tmp.path(), "node1");
    net.restart_node_from_disk(mid, &dir, SyncPolicy::Always).unwrap();
    for _ in 0..3 {
        let (outcome, _) = fetch_counting(&mut net, "node2");
        assert_eq!(outcome.result.answers, before);
        let tag = net.node(sink).fetched_tag("j1").expect("a tagged answer");
        assert!(seen.iter().all(|old| old.epoch < tag.epoch), "{tag:?} after {seen:?}");
    }
}

/// A rules file leaves the requester no fetched answer on a link the new
/// book does not name; one it names with the same source stays.
#[test]
fn a_rules_file_leaves_no_fetched_answer_for_a_link_it_removed() {
    let v1 = join_chain_config(3, 20);
    let renamed = "rule j1x @ node1 -> node2: r(X, Z) <- r(X, Y), s(Y, Z).";
    let v2 = format!(
        "version 2\n{}",
        v1.replace("rule j1 @ node1 -> node2: r(X, Z) <- r(X, Y), s(Y, Z).", renamed)
    );
    let mut net =
        CoDbNetwork::build_with_superpeer(NetworkConfig::parse(&v1).unwrap(), SimConfig::default())
            .unwrap();
    let [mid, sink] = ["node1", "node2"].map(|n| net.node_id(n).unwrap());
    fetched(&mut net, "node2");
    assert!(net.node(sink).fetched_tag("j1").is_some());
    assert!(net.node(mid).fetched_tag("j0").is_some());
    net.broadcast_rules(NetworkConfig::parse(&v2).unwrap()).unwrap();
    assert_eq!(net.node(sink).fetched_tag("j1"), None, "the file removed j1");
    assert!(net.node(mid).fetched_tag("j0").is_some(), "j0 is the same link");
    let (after, _) = fetched(&mut net, "node2");
    assert_eq!(after.len(), 60);
    assert!(net.node(sink).fetched_tag("j1x").is_some());
}

#[test]
fn a_fetch_after_an_insert_at_a_serving_node_sees_the_tuple() {
    let mut net = build(&join_chain_config(3, 20));
    let (mut answers, _) = fetched(&mut net, "node2");
    // node0 serves from its LDB, node1 from an overlay over its LDB; a
    // tuple inserted at either reaches node2 through one join or two.
    for (at, tuple, reaches) in
        [("node0", tup![7777, 3], tup![7777, 1]), ("node1", tup![8888, 3], tup![8888, 0])]
    {
        let id = net.node_id(at).unwrap();
        net.run_control(id, codb_core::Body::IngestLocal { relation: "r".into(), tuple });
        let (now, fired) = fetched(&mut net, "node2");
        assert_eq!(fired, 0, "{at}'s view is refreshed from its log, not fired whole");
        answers.push(reaches);
        answers.sort();
        assert_eq!(now, answers, "after the insert at {at}");
    }
}

#[test]
fn a_fetch_after_an_update_that_grew_a_server_answers_what_it_materialised() {
    let mut net = build(&join_chain_config(3, 20));
    let (before, _) = fetched(&mut net, "node2");
    let sink = net.node_id("node2").unwrap();
    net.run_update(sink);
    let mid = net.node_id("node1").unwrap();
    assert_eq!(net.node(mid).ldb().get("r").unwrap().len(), 40, "node1 grew");
    let materialised = net.run_query_text(sink, JOIN_FETCH, false).unwrap().result.answers;
    let (after, fired) = fetched(&mut net, "node2");
    assert_eq!(after, materialised);
    assert_eq!(after, before, "what the fetch derived is what the update stored");
    assert_eq!(fired, 0, "node1's view is refreshed with what it grew by; node0's stood");
}

#[test]
fn a_fetch_after_a_rules_file_gives_the_served_name_another_body_uses_that_body() {
    let v1 = join_chain_config(3, 20);
    let joined = "rule j1 @ node1 -> node2: r(X, Z) <- r(X, Y), s(Y, Z).";
    assert!(v1.contains(joined));
    // The same name, the same relations read, another head.
    let v2 = format!(
        "version 2\n{}",
        v1.replace(joined, "rule j1 @ node1 -> node2: r(X, Y) <- r(X, Y), s(Y, Z).")
    );
    let mut net =
        CoDbNetwork::build_with_superpeer(NetworkConfig::parse(&v1).unwrap(), SimConfig::default())
            .unwrap();
    let (before, _) = fetched(&mut net, "node2");
    net.broadcast_rules(NetworkConfig::parse(&v2).unwrap()).unwrap();
    let (after, fired) = fetched(&mut net, "node2");
    let mut cold = build(&v2);
    let (want, _) = fetched(&mut cold, "node2");
    assert_eq!(after, want);
    assert_ne!(after, before);
    assert_eq!(fired, 2, "a book swap keeps no view");
}

#[test]
fn a_fetch_after_a_server_restarted_from_disk_answers_as_before() {
    let tmp = codb_store::ScratchDir::new("core-fetch-restart");
    let mut net = build(&join_chain_config(3, 20));
    net.open_persistence_all(tmp.path(), codb_store::SyncPolicy::Always).unwrap();
    let (before, _) = fetched(&mut net, "node2");
    let mid = net.node_id("node1").unwrap();
    assert!(net.crash_node(mid));
    let dir = CoDbNetwork::node_data_dir(tmp.path(), "node1");
    net.restart_node_from_disk(mid, &dir, codb_store::SyncPolicy::Always).unwrap();
    // node0's repair brought node1 what its link derives; the fetch
    // derives the same again.
    assert_eq!(net.node(mid).ldb().get("r").unwrap().len(), 40);
    let (after, fired) = fetched(&mut net, "node2");
    assert_eq!(after, before);
    // node1 is a new incarnation, and node0 dropped what it kept toward
    // the old one with the sent cache.
    assert_eq!(fired, 2);
}
