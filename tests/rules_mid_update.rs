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

use codb::core::update::UpdateState;
use codb::core::{Body, Envelope, UpdateId, HARNESS_PEER};
use codb::prelude::*;
use codb::trace::{TraceEvent, Tracer};
use codb::workload::oracle::{chase_naive, Chase as Oracle};

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
/// update over `v2` reaches the centralised chase's fixpoint. (A file
/// that lands after 0 events finds `b`'s links held for a close `a` will
/// send under the old book: unless the file releases them, the initiator
/// never completes.) `witness`
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
            let case = format!("update from {origin}, file after {ran} events");
            file_lands(&mut net, v2, update, &case);
            witness(&net, &recorded.lock().unwrap().events(), update);
            next_update_is_exact(&mut net, &oracle, origin, &case);
            if ran < head_start {
                break; // the update had finished before the file was sent
            }
        }
    }
}

/// Broadcasts `v2` now, wherever `update` is in its life: the network
/// goes quiet with the update complete at every node and no credit owed.
fn file_lands(net: &mut CoDbNetwork, v2: &NetworkConfig, update: UpdateId, case: &str) {
    net.broadcast_rules(v2.clone()).unwrap();
    assert!(net.sim().is_quiescent(), "{case}");
    for id in v2.node_ids() {
        let st = net.node(id).update_state(update).unwrap_or_else(|| panic!("{case}: {id}"));
        assert!(st.complete, "{case}: {id} never saw the update complete: {st:?}");
        // (The initiator stays engaged: it is the tree's root.)
        assert!(st.is_settled(), "{case}: {id} is owed a credit: {st:?}");
    }
}

/// The next update from `origin` reaches every node and the fixpoint.
fn next_update_is_exact(net: &mut CoDbNetwork, oracle: &Oracle, origin: NodeId, case: &str) {
    let outcome = net.run_update(origin);
    assert_eq!(outcome.summary.nodes, oracle.instances.len() as u64, "{case}");
    for (&id, instance) in &oracle.instances {
        assert_eq!(net.node(id).ldb(), instance, "{case}: node {id}");
        let st = net.node(id).update_state(outcome.update).unwrap();
        assert!(st.is_settled(), "{case}: {id} in the next update: {st:?}");
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

/// [`WITH_DIAGONAL`], and the file that removes `ac`.
fn diagonal_files() -> (NetworkConfig, NetworkConfig) {
    let v1 = NetworkConfig::parse(WITH_DIAGONAL).unwrap();
    let without = WITH_DIAGONAL.replace("rule ac @ a -> c: uc(X) <- ua(X).", "");
    (v1, NetworkConfig::parse(&format!("version 2\n{without}")).unwrap())
}

/// Nobody waited for anybody: what could not be answered was let go of
/// when the pipe closed, not retransmitted into it — and a node engaged
/// under the peer that left disengaged without a `DsAck` that could only
/// have been retransmitted, nor was told of the completion through the
/// closed pipe. Returns whether any message was written off.
fn nothing_retransmitted(net: &CoDbNetwork, v1: &NetworkConfig) -> bool {
    let (a, c) = (v1.node_ids()[0], v1.node_ids()[2]);
    assert!(!net.sim().has_pipe(a.peer(), c.peer()));
    let mut written_off = false;
    for id in v1.node_ids() {
        let sent = &net.node(id).report().messages_sent;
        assert_eq!(sent.get("retransmit"), None, "{id}");
        written_off |= sent.get("abandoned").is_some();
    }
    written_off
}

#[test]
fn a_rules_file_that_removes_an_acquaintance_settles_its_credits_at_the_pipe_close() {
    let (v1, v2) = diagonal_files();
    let mut messages_written_off = false;
    after_every_event_of_an_update(&v1, &v2, |net, _, _| {
        messages_written_off |= nothing_retransmitted(net, &v1);
    });
    assert!(messages_written_off, "no interleaving closed the pipe under an unanswered message");
}

/// Starts an update at `origin` over [`WITH_DIAGONAL`] and steps it until
/// `moment` holds of the states of `a` and `c`; then the file removing `ac`
/// lands, and the update must still complete everywhere, without anything
/// retransmitted into the closed pipe — one of the two has lost its place
/// in the completion tree and must be adopted.
fn diagonal_file_lands_when(
    origin: NodeId,
    moment: impl Fn(Option<&UpdateState>, Option<&UpdateState>) -> bool,
) {
    let (v1, v2) = diagonal_files();
    let (a, c) = (v1.node_ids()[0], v1.node_ids()[2]);
    let mut net = CoDbNetwork::build_with_superpeer(v1.clone(), SimConfig::default()).unwrap();
    let update = UpdateId { origin, epoch: 0, seq: 0 };
    net.sim_mut().inject(HARNESS_PEER, origin.peer(), Envelope::control(Body::StartUpdate));
    while !moment(net.node(a).update_state(update), net.node(c).update_state(update)) {
        assert!(net.sim_mut().step(), "the update ended before the moment came");
    }
    file_lands(&mut net, &v2, update, "the file");
    nothing_retransmitted(&net, &v1);
    next_update_is_exact(&mut net, &chase_naive(&v2), origin, "the next update");
}

/// Adoption, first interleaving: the update starts at `a`, and the file
/// lands while `c` is engaged under `a`. `a` writes the engagement credit
/// off; `c` disengages later with nobody to tell, so no parent records it.
#[test]
fn adoption_when_the_node_was_engaged_under_the_peer_that_left() {
    let a = NodeId(0);
    diagonal_file_lands_when(a, |_, c| c.is_some_and(|c| c.engaged && c.parent == Some(a)));
}

/// Adoption, second interleaving: the update starts at `d`, `a` engages
/// under `c` and disengages, and its `DsAck` is in flight when the file
/// lands. It makes `a` a child of `c` only, across the pipe the file
/// closes: `c` can never pass it the completion.
#[test]
fn adoption_when_the_disengagement_was_in_flight_as_the_pipe_closed() {
    let (a, c, d) = (NodeId(0), NodeId(2), NodeId(3));
    let engaged_under_c = std::cell::Cell::new(false);
    diagonal_file_lands_when(d, |a_state, c_state| {
        let Some(st) = a_state else { return false };
        engaged_under_c.set(engaged_under_c.get() || st.parent == Some(c));
        let recorded = c_state.is_some_and(|c| c.children.contains(&a));
        engaged_under_c.get() && !st.engaged && !recorded
    });
}

/// Adoption, third case: `c` takes the file before the data `a` sent it
/// with the update request arrives — in flight, it still arrives over the
/// closed pipe. `c` engages under no one (nothing could tell `a` of a
/// disengagement), so it is outside every tree unless it asks to be
/// adopted.
#[test]
fn adoption_when_the_update_arrives_from_a_peer_that_already_left() {
    let (v1, v2) = diagonal_files();
    let (a, c) = (v1.node_ids()[0], v1.node_ids()[2]);
    let mut net = CoDbNetwork::build_with_superpeer(v1.clone(), SimConfig::default()).unwrap();
    let update = UpdateId { origin: a, epoch: 0, seq: 0 };
    net.sim_mut().inject(HARNESS_PEER, a.peer(), Envelope::control(Body::StartUpdate));
    let file = Body::RulesFile { config: Box::new(v2.clone()) };
    net.sim_mut().inject(HARNESS_PEER, c.peer(), Envelope::control(file));
    net.sim_mut().step();
    net.sim_mut().step();
    assert!(!net.sim().has_pipe(a.peer(), c.peer()), "c took the file first");
    assert!(net.node(c).update_state(update).is_none(), "a's data is still in flight");
    file_lands(&mut net, &v2, update, "the file");
    let st = net.node(c).update_state(update).unwrap();
    assert!(st.adopted && st.parent.is_none(), "{st:?}");
    next_update_is_exact(&mut net, &chase_naive(&v2), a, "the next update");
}
