//! A rules file arriving while a global update is in flight.
//!
//! A node numbers its links per rule book and keeps an update's per-link
//! state by those numbers, so the moment the super-peer's file swaps the
//! book is the moment a stale number could index the wrong link. The file
//! here removes one link, renames another and adds a third, at *every*
//! point of an update's life; whatever the interleaving, the update must
//! still complete at every node with its Dijkstra–Scholten credits
//! returned, and the next update over the new rules must reach the
//! fixpoint the centralised chase computes.
//!
//! A second file removes an *acquaintance*: the one rule between two nodes
//! goes, so their pipe closes under whatever was in flight on it. Messages
//! toward the departed peer can never be answered and the engagement
//! credit it holds can never come back; both are written off at the close,
//! or the update would wait for them forever.

use codb::core::{Body, Envelope, UpdateId, HARNESS_PEER};
use codb::prelude::*;
use codb::trace::{TraceEvent, Tracer};
use codb::workload::oracle::chase_naive;

/// `gone` and `keep` share the pipe a–b, so removing `gone` closes no
/// pipe. What `gone` may or may not have carried before the swap (`ua`) is
/// data `b` holds anyway, so the fixpoint does not depend on when the file
/// lands.
const V1: &str = r#"
    node a
    node b
    node c
    schema a: ta(int)
    schema a: ua(int)
    schema b: tb(int)
    schema b: ub(int)
    schema c: tc(int)
    schema c: uc(int)
    data a: ta(1). ta(2). ta(3). ta(4). ua(10). ua(11).
    data b: tb(5). ub(10). ub(11). ub(12).
    data c: tc(6).
    rule gone @ a -> b: ub(X) <- ua(X).
    rule keep @ a -> b: tb(X) <- ta(X).
    rule old @ b -> c: tc(X) <- tb(X).
"#;

/// `keep` moves from link 1 to link 0 at `b`; `old` returns as `new`;
/// `third` is new.
const V2: &str = r#"
    version 2
    node a
    node b
    node c
    schema a: ta(int)
    schema a: ua(int)
    schema b: tb(int)
    schema b: ub(int)
    schema c: tc(int)
    schema c: uc(int)
    data a: ta(1). ta(2). ta(3). ta(4). ua(10). ua(11).
    data b: tb(5). ub(10). ub(11). ub(12).
    data c: tc(6).
    rule keep @ a -> b: tb(X) <- ta(X).
    rule new @ b -> c: tc(X) <- tb(X).
    rule third @ b -> c: uc(X) <- ub(X).
"#;

/// Starts an update at every node in turn and lets `v2` land after every
/// event of its life. Whatever the interleaving: the network goes quiet,
/// the update is complete at every node with no credit owed, and the next
/// update over `v2` reaches the centralised chase's fixpoint. `witness`
/// sees each run just after the file was applied: the network, the events
/// recorded, the update.
fn after_every_event_of_an_update(
    v1: &NetworkConfig,
    v2: &NetworkConfig,
    mut witness: impl FnMut(&CoDbNetwork, &[(u64, TraceEvent)], UpdateId),
) {
    let oracle = chase_naive(v2);
    let nodes = v1.node_ids();
    for origin in nodes.clone() {
        // One run per event of the update's life the file can land after.
        for head_start in 0.. {
            let mut net =
                CoDbNetwork::build_with_superpeer(v1.clone(), SimConfig::default()).unwrap();
            let (tracer, recorded) = Tracer::ring(usize::MAX);
            net.attach_tracer(&tracer);
            let update = UpdateId { origin, epoch: 0, seq: 0 };
            net.sim_mut().inject(HARNESS_PEER, origin.peer(), Envelope::control(Body::StartUpdate));
            let ran = (0..head_start).take_while(|_| net.sim_mut().step()).count();
            net.broadcast_rules(v2.clone()).unwrap();
            let case = format!("update from {origin}, file after {ran} events");

            assert!(net.sim().is_quiescent(), "{case}");
            for &id in &nodes {
                let st =
                    net.node(id).update_state(update).unwrap_or_else(|| panic!("{case}: {id}"));
                assert!(st.complete, "{case}: {id} never saw the update complete: {st:?}");
                // (The initiator stays engaged: it is the tree's root.)
                let idle = st.deficit == 0 && (st.initiator || !st.engaged);
                assert!(idle, "{case}: {id} is owed a credit: {st:?}");
            }
            witness(&net, &recorded.lock().unwrap().events(), update);

            let outcome = net.run_update(origin);
            assert_eq!(outcome.summary.nodes, nodes.len() as u64, "{case}");
            for &id in &nodes {
                assert_eq!(net.node(id).ldb(), &oracle.instances[&id], "{case}: node {id}");
                let st = net.node(id).update_state(outcome.update).unwrap();
                assert!(st.complete && st.deficit == 0, "{case}: {id} in the next update: {st:?}");
            }
            if ran < head_start {
                break; // the update had finished before the file was sent
            }
        }
    }
}

#[test]
fn a_rules_file_at_any_point_of_an_update_leaves_it_complete_and_the_next_one_exact() {
    let v1 = NetworkConfig::parse(V1).unwrap();
    let v2 = NetworkConfig::parse(V2).unwrap();
    let mut stale_data_seen = false;
    after_every_event_of_an_update(&v1, &v2, |net, events, update| {
        // Data on the vanished link that arrived after the swap: the
        // statistics module counted it, and nothing applied it.
        let b = net.node_id("b").unwrap();
        let gone = events.iter().find_map(|(_, ev)| match ev {
            TraceEvent::Intern { id, text } if text == "gone" => Some(*id),
            _ => None,
        });
        let applied = events.iter().any(|(_, ev)| {
            matches!(ev, TraceEvent::UpdateApply { peer, rule, .. } if *peer == b.0 && Some(*rule) == gone)
        });
        let arrived = net.node(b).report().updates[&update].received.contains_key("gone");
        stale_data_seen |= arrived && !applied;
    });
    assert!(stale_data_seen, "no interleaving delivered data for a link the file had removed");
}

/// A square with a diagonal: `ac` is the only rule between `a` and `c`, so
/// removing it closes their pipe, and the network stays connected through
/// `b`. `d` hangs off `c`, so that `c` — engaged under `a` when the update
/// starts there — holds `a`'s credit while it waits for `d`. What `ac`
/// carries (`ua`) is data `c` holds anyway.
const WITH_DIAGONAL: &str = r#"
    node a
    node b
    node c
    node d
    schema a: ta(int)
    schema a: ua(int)
    schema b: tb(int)
    schema c: tc(int)
    schema c: uc(int)
    schema d: td(int)
    data a: ta(1). ta(2). ta(3). ua(10). ua(11).
    data b: tb(5).
    data c: tc(6). uc(10). uc(11). uc(12).
    data d: td(7).
    rule ab @ a -> b: tb(X) <- ta(X).
    rule bc @ b -> c: tc(X) <- tb(X).
    rule cd @ c -> d: td(X) <- tc(X).
    rule ac @ a -> c: uc(X) <- ua(X).
"#;

#[test]
fn a_rules_file_that_removes_an_acquaintance_settles_its_credits_at_the_pipe_close() {
    let v1 = NetworkConfig::parse(WITH_DIAGONAL).unwrap();
    let without = WITH_DIAGONAL.replace("rule ac @ a -> c: uc(X) <- ua(X).", "");
    let v2 = NetworkConfig::parse(&format!("version 2\n{without}")).unwrap();
    let (a, c) = (v1.node_ids()[0], v1.node_ids()[2]);
    let mut messages_written_off = false;
    after_every_event_of_an_update(&v1, &v2, |net, _, _| {
        assert!(!net.sim().has_pipe(a.peer(), c.peer()));
        for id in v1.node_ids() {
            // Nobody waited for anybody: what could not be answered was
            // let go of when the pipe closed, not retransmitted into it —
            // and a node engaged under the peer that left disengaged
            // without a `DsAck` that could only have been retransmitted.
            let sent = &net.node(id).report().messages_sent;
            assert_eq!(sent.get("retransmit"), None, "{id}");
            messages_written_off |= sent.get("abandoned").is_some();
        }
    });
    assert!(messages_written_off, "no interleaving closed the pipe under an unanswered message");
}
