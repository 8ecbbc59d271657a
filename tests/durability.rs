//! System-level durability tests: the acceptance scenario for the
//! `codb-store` subsystem — a node killed mid-update, reopened from its
//! data directory, recovers snapshot + WAL state exactly and reconverges
//! to the network fixpoint of a never-crashed control network.

use codb::core::NodeId;
use codb::prelude::*;
use codb::relational::tup;
use codb::store::ScratchDir;

/// The headline acceptance scenario: kill a chain node mid-flood, recover
/// from disk, verify exact (instance + null factory) equality with the
/// control at every node — the victim included — after reconvergence.
#[test]
fn crashed_node_recovers_exactly_and_reconverges() {
    let tmp = ScratchDir::new("durability-accept");
    let scenario = Scenario { tuples_per_node: 30, ..Scenario::quick(Topology::Chain(5)) };
    let plan = FaultPlan::single_crash(scenario, NodeId(2), None, scenario.sink());
    let report = run_fault_plan(&plan, tmp.path()).unwrap();
    assert_eq!(report.crashed_in_flight, [true], "kill must land mid-update: {report:?}");
    assert_eq!(report.nodes_equal, report.nodes, "whole-network fixpoint: {report:?}");
    assert_eq!(report.factories_equal, report.nodes, "null-factory equality: {report:?}");
    assert!(report.converged, "oracle fixpoint: {report:?}");
    let restart = report.restarts[0];
    assert_eq!(restart.node, NodeId(2), "{report:?}");
    assert!(
        restart.tuples_final >= restart.tuples_at_recovery,
        "reconvergence only adds: {report:?}"
    );
}

/// The crash-rejoin acceptance scenario (ISSUE 3): the update *initiator*
/// crashes mid-own-update, recovers, runs the rejoin handshake (its
/// neighbours drop the sent caches they keep toward it), and initiates the
/// reconvergence update itself — its persisted counters resume the id
/// space, its new epoch keys the id, and the network still reaches the
/// control fixpoint.
#[test]
fn recovered_initiator_rejoins_first_class() {
    let tmp = ScratchDir::new("durability-rejoin");
    let scenario = Scenario { tuples_per_node: 25, ..Scenario::quick(Topology::Chain(4)) };
    let victim = scenario.sink();
    let plan = FaultPlan::single_crash(scenario, victim, None, victim);
    let report = run_fault_plan(&plan, tmp.path()).unwrap();
    assert_eq!(report.crashed_in_flight, [true], "{report:?}");
    assert_eq!(
        report.rejoin_messages, 1,
        "the chain end announces to its one neighbour: {report:?}"
    );
    let recovered_update = report.updates[1].update.expect("the second round ran");
    assert_eq!(recovered_update.origin, victim, "{report:?}");
    assert_eq!(recovered_update.epoch, report.restarts[0].recovery.epoch, "{report:?}");
    assert!(recovered_update.seq >= 1, "counters resumed: {report:?}");
    assert_eq!(report.nodes_equal, report.nodes, "{report:?}");
    assert_eq!(report.factories_equal, report.nodes, "{report:?}");
}

/// Seeded fault-injection schedules reconverge: the system-level pin of
/// the `codb_workload::faultplan` property (a fixed seed here; the full
/// property test lives in the workload crate, `PROPTEST_CASES`-scalable).
#[test]
fn seeded_fault_schedule_reconverges_to_control() {
    let tmp = ScratchDir::new("durability-faultplan");
    let scenario = Scenario { tuples_per_node: 10, ..Scenario::quick(Topology::Ring(4)) };
    let plan = codb::workload::FaultPlan::generate(scenario, 2);
    assert!(plan.crash_count() > 0, "seed 2 schedules at least one crash: {plan:?}");
    let report = codb::workload::run_fault_plan(&plan, tmp.path()).unwrap();
    assert!(report.converged, "replay with seed {}: {report:?}", report.seed);
}

/// Recovery through `open_persistence_all` on an *already-started*
/// network (no restart, so no `on_start`) must still run the rejoin
/// handshake: the announcement goes out lazily on the node's next
/// activity, neighbors drop their incremental sent-caches toward it, and
/// the data the recovered node rolled back past is re-sent. Without the
/// lazy announce, hr's sent-cache would suppress "alice" forever.
#[test]
fn live_open_recovery_still_triggers_rejoin_invalidation() {
    let tmp = ScratchDir::new("durability-liveopen");
    let config_text = r#"
        node hr
        node portal
        schema hr: emp(str, int)
        schema portal: person(str, int)
        data hr: emp("alice", 30).
        rule adults @ hr -> portal: person(N, A) <- emp(N, A), A >= 18.
    "#;
    let config = NetworkConfig::parse(config_text).unwrap();

    // Life 1: persist the *seed* state only (no update), tear down.
    {
        let mut net = CoDbNetwork::build(config.clone(), SimConfig::default()).unwrap();
        net.open_persistence_all(tmp.path(), SyncPolicy::Always).unwrap();
    }

    // Life 2: run an update first — hr's incremental sent-cache toward
    // portal now holds alice — then open persistence on the live
    // network, rolling portal back to the empty seed state.
    let mut net = CoDbNetwork::build(config, SimConfig::default()).unwrap();
    let portal = net.node_id("portal").unwrap();
    net.run_update(portal);
    assert_eq!(net.node(portal).ldb().tuple_count(), 1, "alice materialised");
    let recovered = net.open_persistence_all(tmp.path(), SyncPolicy::Always).unwrap();
    assert_eq!(recovered.len(), 2, "{recovered:?}");
    assert_eq!(net.node(portal).ldb().tuple_count(), 0, "rolled back to seed state");
    assert!(net.node(portal).rejoin_pending(), "handshake owed");

    // The first update races the lazy announcement (its quiescent drain
    // completes the handshake); the second re-sends what the caches had
    // been suppressing.
    net.run_update(portal);
    assert!(!net.node(portal).rejoin_pending(), "announced on first activity");
    net.run_update(portal);
    assert_eq!(net.node(portal).ldb().tuple_count(), 1, "alice re-materialised after rejoin");
}

/// GLAV rules invent marked nulls whose labels depend on apply order; a
/// recovered node must reach an isomorphic fixpoint with equal factory
/// counters (no null is ever minted twice for the same template).
#[test]
fn glav_crash_recovery_is_isomorphic_with_equal_factories() {
    let tmp = ScratchDir::new("durability-glav");
    let scenario = Scenario {
        rule_style: RuleStyle::ProjectGlav,
        tuples_per_node: 15,
        ..Scenario::quick(Topology::Chain(4))
    };
    let plan = FaultPlan::single_crash(scenario, NodeId(1), None, scenario.sink());
    let report = run_fault_plan(&plan, tmp.path()).unwrap();
    assert_eq!(report.nodes_isomorphic, report.nodes, "{report:?}");
    assert_eq!(report.factories_equal, report.nodes, "{report:?}");
}

/// Persistence survives a full process-style lifecycle driven through the
/// library API: update, checkpoint, "exit" (drop the network), rebuild
/// from config, recover from disk — the materialised state is back
/// without re-running the update.
#[test]
fn state_survives_network_teardown_and_rebuild() {
    let tmp = ScratchDir::new("durability-teardown");
    let config_text = r#"
        node hr
        node portal
        schema hr: emp(str, int)
        schema portal: person(str, int)
        data hr: emp("alice", 30). emp("bob", 17).
        rule adults @ hr -> portal: person(N, A) <- emp(N, A), A >= 18.
    "#;
    let config = NetworkConfig::parse(config_text).unwrap();

    // First life: materialise, checkpoint, tear down.
    let (portal_tuples, portal_id) = {
        let mut net = CoDbNetwork::build(config.clone(), SimConfig::default()).unwrap();
        net.open_persistence_all(tmp.path(), SyncPolicy::Always).unwrap();
        let portal = net.node_id("portal").unwrap();
        net.run_update(portal);
        assert!(net.checkpoint_node(portal).unwrap());
        (net.node(portal).ldb().tuple_count(), portal)
    };
    assert_eq!(portal_tuples, 1, "alice materialised at portal");

    // Second life: the seed config alone would leave portal empty; the
    // store brings the materialised tuple back.
    let mut net = CoDbNetwork::build(config, SimConfig::default()).unwrap();
    assert_eq!(net.node(portal_id).ldb().tuple_count(), 0);
    let recovered = net.open_persistence_all(tmp.path(), SyncPolicy::Always).unwrap();
    assert!(recovered.contains(&"portal".to_owned()), "{recovered:?}");
    assert_eq!(net.node(portal_id).ldb().tuple_count(), 1);
    let q = net.run_query_text(portal_id, "ans(N) :- person(N, A).", false).unwrap();
    assert_eq!(q.result.answers.len(), 1);
}

/// Local inserts are WAL-logged too: a write between checkpoints survives
/// a crash (WAL replay), not just a checkpoint.
#[test]
fn local_insert_survives_via_wal_replay_alone() {
    let tmp = ScratchDir::new("durability-local");
    let config_text = r#"
        node solo
        schema solo: r(int, int)
        data solo: r(1, 2).
    "#;
    let config = NetworkConfig::parse(config_text).unwrap();
    let solo = {
        let mut net = CoDbNetwork::build(config.clone(), SimConfig::default()).unwrap();
        net.open_persistence_all(tmp.path(), SyncPolicy::Always).unwrap();
        let solo = net.node_id("solo").unwrap();
        // No checkpoint after this insert: only the WAL has it.
        net.sim_mut()
            .peer_mut(solo.peer())
            .unwrap()
            .insert_local("r", codb::relational::Tuple::new(vec![Value::Int(7), Value::Int(8)]))
            .unwrap();
        solo
    };
    let mut net = CoDbNetwork::build(config, SimConfig::default()).unwrap();
    net.open_persistence_all(tmp.path(), SyncPolicy::Always).unwrap();
    assert_eq!(net.node(solo).ldb().tuple_count(), 2, "seed + WAL-replayed insert");
}

/// The group-commit acceptance scenario (ISSUE 5): an 8-node single-host
/// network persists through **one shared fsync scheduler**, the host
/// dies mid-update with every store's unsynced WAL tail destroyed (the
/// crash lands between batch formation and drain), and after the
/// restarts no acked record is lost and the network reconverges to the
/// never-crashed control. The fewer-fsyncs half of the claim is
/// asserted by experiment E18 (`exp e18`).
#[test]
fn host_crash_under_shared_group_commit_loses_no_acked_record() {
    let tmp = ScratchDir::new("durability-groupcommit");
    let scenario = Scenario { tuples_per_node: 12, ..Scenario::quick(Topology::Chain(8)) };
    let plan = FaultPlan::host_crash_group_commit(scenario, 5);
    assert!(
        matches!(plan.sync, SyncPolicy::GroupCommit { max_batch: 8, max_records: 64 }),
        "{plan:?}"
    );
    assert!(plan.lose_unsynced_tail, "the crash must destroy unsynced tails");
    let report = run_fault_plan(&plan, tmp.path()).unwrap();
    assert_eq!(report.crashes, 1, "the host crash landed: {report:?}");
    assert!(report.acked_records_preserved, "replay with seed {}: {report:?}", report.seed);
    assert!(report.converged, "replay with seed {}: {report:?}", report.seed);
    // Every node restarted and announced itself to each neighbour: the
    // two chain ends to one, the six between to two.
    assert_eq!(report.rejoin_messages, 2 + 6 * 2, "restarts ran the handshake: {report:?}");
}

/// The shared scheduler is one object across the network: opening
/// persistence under a group-commit policy exposes it, and appends from
/// different nodes coalesce into common drains.
#[test]
fn open_persistence_all_shares_one_scheduler() {
    let tmp = ScratchDir::new("durability-sched");
    let scenario = Scenario { tuples_per_node: 5, ..Scenario::quick(Topology::Chain(8)) };
    let mut net = CoDbNetwork::build(scenario.build_config(), SimConfig::default()).unwrap();
    assert!(net.fsync_scheduler().is_none(), "no scheduler before a group-commit open");
    net.open_persistence_all(
        tmp.path(),
        SyncPolicy::GroupCommit { max_batch: 64, max_records: 16 },
    )
    .unwrap();
    let sched = net.fsync_scheduler().expect("group-commit open built the shared scheduler");
    assert_eq!(sched.stats().registered, 8, "every node's WAL registered");
    net.run_update(scenario.sink());
    let stats = net.fsync_scheduler().unwrap().stats();
    assert!(stats.appends > 0, "the update's WAL traffic went through the scheduler: {stats:?}");

    // A later open asking for *different* group-commit thresholds must
    // be refused, not silently handed the existing scheduler's (larger
    // or smaller) ack window.
    let err = net
        .open_node_persistence(
            NodeId(0),
            &tmp.path().join("n0-again"),
            SyncPolicy::GroupCommit { max_batch: 64, max_records: 8 },
        )
        .unwrap_err();
    assert!(matches!(err, StoreError::SchedulerMismatch { .. }), "{err}");
    assert!(err.to_string().contains("group:8,64"), "{err}");
}

/// A WAL reaches the OS once per file per drain, not once per append: a
/// round shaped like the `durable_ingest` benchmark's (Chain(12) on the
/// worker pool, `group:96,12`, 100 inserts at every node, an update from
/// the sink, then a flush) makes exactly one `write` before each fsync,
/// and dropping the flushed nodes writes nothing more.
#[test]
fn a_durable_round_writes_each_file_once_per_fsync() {
    use codb::core::ParallelCoDbNet;
    use codb::net::RuntimeConfig;
    use std::time::Duration;

    let tmp = ScratchDir::new("durability-writes");
    let scenario = Scenario { tuples_per_node: 5, ..Scenario::quick(Topology::Chain(12)) };
    let (net, _) = ParallelCoDbNet::build_persistent(
        scenario.build_config(),
        RuntimeConfig { workers: 2, ..RuntimeConfig::default() },
        NodeSettings { retransmit_after: SimTime::from_millis(20), ..NodeSettings::default() },
        tmp.path(),
        SyncPolicy::GroupCommit { max_batch: 12, max_records: 96 },
        Codec::Binary,
    )
    .unwrap();
    let sched = net.fsync_scheduler().expect("group commit shares one scheduler").clone();
    let before = sched.stats();
    for node in 0..12 {
        for k in 0..100 {
            let tuple = Tuple::new(vec![Value::Int((1 << 50) + node * 100 + k), Value::Int(k)]);
            let relation = Scenario::relation_of(node as usize);
            net.control(NodeId(node as u64), Body::IngestLocal { relation, tuple });
        }
    }
    net.control(scenario.sink(), Body::StartUpdate);
    assert!(net.await_quiescence(Duration::from_millis(5), Duration::from_secs(60)));
    sched.flush_all();
    let after = sched.stats();
    let (appends, writes, fsyncs) = (
        after.appends - before.appends,
        after.writes - before.writes,
        after.fsyncs - before.fsyncs,
    );
    assert!(appends >= 1_200, "every insert was logged: {after:?}");
    assert_eq!(writes, fsyncs, "one write before each fsync: {after:?}");
    assert!(writes * 10 < appends, "writes follow the drains, not the appends: {after:?}");
    drop(net.shutdown());
    assert_eq!(sched.stats().writes, after.writes, "a flushed store leaves nothing to write");
}

/// A node that was never persisted cannot be restarted from an empty
/// directory — the error is typed, not a silent empty rejoin.
#[test]
fn restart_from_empty_dir_is_refused() {
    let tmp = ScratchDir::new("durability-empty");
    let scenario = Scenario { tuples_per_node: 5, ..Scenario::quick(Topology::Chain(2)) };
    let mut net = CoDbNetwork::build(scenario.build_config(), SimConfig::default()).unwrap();
    net.crash_node(NodeId(0));
    let err = net
        .restart_node_from_disk(NodeId(0), &tmp.path().join("node0"), SyncPolicy::Always)
        .unwrap_err();
    assert!(matches!(err, StoreError::NoState { .. }), "{err}");
}

/// Restarting a node that is still alive is refused before its store is
/// opened: a second open would bump the directory's epoch and put a
/// second writer on the live node's WAL, and `add_peer` would then
/// silently replace the live peer.
#[test]
fn restarting_a_live_node_is_refused_before_its_store_is_opened() {
    let tmp = ScratchDir::new("durability-live-restart");
    let scenario = Scenario { tuples_per_node: 5, ..Scenario::quick(Topology::Chain(2)) };
    let mut net = CoDbNetwork::build(scenario.build_config(), SimConfig::default()).unwrap();
    net.open_persistence_all(tmp.path(), SyncPolicy::Always).unwrap();
    let dir = CoDbNetwork::node_data_dir(tmp.path(), "node0");

    let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        net.restart_node_from_disk_live(NodeId(0), &dir, SyncPolicy::Always)
    }));
    assert!(refused.is_err(), "a live node must not be restarted over");
    assert_eq!(net.node(NodeId(0)).epoch(), 0, "the live incarnation is untouched");
    net.run_update(scenario.sink());

    // Once it has crashed the restart goes through — as incarnation 1,
    // so the refused call never opened the store.
    assert!(net.crash_node(NodeId(0)));
    let stats = net.restart_node_from_disk(NodeId(0), &dir, SyncPolicy::Always).unwrap();
    assert_eq!(stats.epoch, 1, "{stats:?}");
}

/// A chain that copies `ta` at `a` into `tb` at `b` and on into `tc` at
/// `c`.
const COPY_CHAIN: &str = r#"
    node a
    node b
    node c
    schema a: ta(int)
    schema b: tb(int)
    schema c: tc(int)
    data a: ta(1). ta(2). ta(3).
    rule ab @ a -> b: tb(X) <- ta(X).
    rule bc @ b -> c: tc(X) <- tb(X).
"#;

/// Firings every node re-sent as rejoin repair.
fn repair_firings(net: &CoDbNetwork) -> u64 {
    let config = net.config().clone();
    config.nodes.iter().map(|nc| net.node(nc.id).report().repair_firings).sum()
}

/// Every node shut down cleanly and rebuilt from its store: each reports
/// the durable mark of every link into it, each mark is trusted, and the
/// handshake re-sends nothing; the next update evaluates only its delta.
/// Twice over: the batches after the first restart carry marks anchored
/// on the reported ones, so the marks kept then are of the incarnations
/// the second restart follows, and trusted again.
#[test]
fn a_clean_restart_of_every_node_re_sends_nothing() {
    let tmp = ScratchDir::new("durability-clean-marks");
    let config = NetworkConfig::parse(COPY_CHAIN).unwrap();
    {
        let mut net = CoDbNetwork::build(config.clone(), SimConfig::default()).unwrap();
        net.open_persistence_all(tmp.path(), SyncPolicy::Always).unwrap();
        let c = net.node_id("c").unwrap();
        net.run_update(c);
        assert_eq!(net.node(c).ldb().tuple_count(), 3);
    }
    for (restart, k) in [(1, 4), (2, 5)] {
        let mut net = CoDbNetwork::build(config.clone(), SimConfig::default()).unwrap();
        let recovered = net.open_persistence_all(tmp.path(), SyncPolicy::Always).unwrap();
        assert_eq!(recovered.len(), 3, "{recovered:?}");
        let [a, b, c] = ["a", "b", "c"].map(|name| net.node_id(name).unwrap());
        // Persistence opened on a live network: each node announces itself
        // on its next event.
        for id in [a, b, c] {
            net.run_control(id, Body::TriggerDiscovery);
        }
        assert!([a, b, c].iter().all(|id| !net.node(*id).rejoin_pending()), "handshakes ran");
        assert_eq!(repair_firings(&net), 0, "restart {restart} re-sent firings");
        let sent = |id: NodeId| net.node(id).report().messages_sent.get("rejoin_repair").copied();
        assert!([a, b, c].iter().all(|id| sent(*id).is_none()));
        net.run_control(a, Body::IngestLocal { relation: "ta".to_owned(), tuple: tup![k] });
        let outcome = net.run_update(c);
        // `ta(k)` crossed two links, one firing each: the whole log of a
        // link re-fired from scratch would read twice the tuples.
        assert_eq!(outcome.summary.evaluated, 2, "restart {restart}: {:?}", outcome.summary);
        assert_eq!(net.node(c).ldb().tuple_count(), 3 + restart);
    }
}

/// A kill that loses `b`'s records past its durable watermark: `b`
/// reports the mark of its last durable batch on `ab`, and `a` repairs
/// exactly what lies past it — the two tuples the lost records held, not
/// `a`'s whole relation — after which the network reconverges to the
/// oracle's fixpoint.
#[test]
fn a_kill_re_sends_only_the_tail_that_was_not_durable() {
    use codb::workload::oracle::chase_naive;

    let tmp = ScratchDir::new("durability-kill-marks");
    let mut config = NetworkConfig::parse(COPY_CHAIN).unwrap();
    let mut net = CoDbNetwork::build(config.clone(), SimConfig::default()).unwrap();
    net.open_persistence_all(tmp.path(), SyncPolicy::Never).unwrap();
    let [a, b, c] = ["a", "b", "c"].map(|name| net.node_id(name).unwrap());
    net.run_update(c);
    // Everything so far durable, the marks in the rotated WAL's head.
    assert!(net.checkpoint_node(b).unwrap());
    for k in [10, 11] {
        net.run_control(a, Body::IngestLocal { relation: "ta".to_owned(), tuple: tup![k] });
        config.nodes[0].data.push(("ta".to_owned(), tup![k]));
    }
    net.run_update(c);
    let store = net.node(b).store().unwrap();
    let (wal, durable) = (store.wal_path().to_owned(), store.durable_wal_len());
    net.crash_node(b);
    let file = std::fs::OpenOptions::new().write(true).open(&wal).unwrap();
    file.set_len(durable).unwrap();
    drop(file);
    let dir = CoDbNetwork::node_data_dir(tmp.path(), "b");
    let stats = net.restart_node_from_disk(b, &dir, SyncPolicy::Never).unwrap();
    // The head's two checkpoints, and nothing of the round after it.
    assert_eq!(stats.wal_records_replayed, 2, "the unsynced round was lost: {stats:?}");
    assert_eq!(net.node(a).report().repair_firings, 2, "a re-sent the lost tail only");
    assert_eq!(net.node(b).ldb().tuple_count(), 5, "the repair brought it back");
    net.run_update(c);
    let oracle = chase_naive(&config).instances;
    for id in [a, b, c] {
        assert_eq!(net.node(id).ldb(), &oracle[&id], "node {id}");
    }
}

/// The crash-prefix property the marks rest on: after a kill, and after a
/// power cut that leaves a WAL only its durable prefix, every relation a
/// node recovers files its tuples in the order it did before, as a prefix
/// of that order (the whole of it after a clean stop).
#[test]
fn a_recovered_relation_is_a_prefix_of_the_log_before_the_crash() {
    use codb::relational::{Instance, Tuple};

    let filed = |ldb: &Instance| -> Vec<(String, Vec<Tuple>)> {
        let logs = ldb.relations().map(|r| (r.name().to_owned(), r.iter().cloned().collect()));
        logs.collect()
    };
    let is_prefix = |after: &[(String, Vec<Tuple>)], before: &[(String, Vec<Tuple>)]| {
        after.len() == before.len()
            && after.iter().zip(before).all(|((n, a), (m, b))| n == m && b.starts_with(a))
    };
    for power_cut in [false, true] {
        let tmp = ScratchDir::new("durability-prefix");
        let scenario = Scenario { tuples_per_node: 20, ..Scenario::quick(Topology::Chain(4)) };
        let config = scenario.build_config();
        let mut net = CoDbNetwork::build(config.clone(), SimConfig::default()).unwrap();
        let policy = SyncPolicy::EveryN(7);
        net.open_persistence_all(tmp.path(), policy).unwrap();
        net.run_update(scenario.sink());
        let victim = NodeId(1);
        net.checkpoint_node(victim).unwrap();
        for k in 0..9 {
            let relation = Scenario::relation_of(1);
            let tuple = tup![(1 << 45) + k, k];
            net.run_control(victim, Body::IngestLocal { relation, tuple });
        }
        net.run_update(scenario.sink());
        let before = filed(net.node(victim).ldb());
        let store = net.node(victim).store().unwrap();
        let (wal, durable) = (store.wal_path().to_owned(), store.durable_wal_len());
        net.crash_node(victim);
        if power_cut {
            let file = std::fs::OpenOptions::new().write(true).open(&wal).unwrap();
            file.set_len(durable).unwrap();
        }
        let name = &config.nodes[1].name;
        let dir = CoDbNetwork::node_data_dir(tmp.path(), name);
        net.restart_node_from_disk(victim, &dir, policy).unwrap();
        let after = filed(net.node(victim).ldb());
        assert!(is_prefix(&after, &before), "power cut {power_cut}: {after:?} vs {before:?}");
        let lost = |logs: &[(String, Vec<Tuple>)]| logs.iter().map(|(_, l)| l.len()).sum::<usize>();
        if power_cut {
            assert!(lost(&after) < lost(&before), "the cut lost the unsynced tail");
        } else {
            assert_eq!(after, before, "a kill keeps every written record");
        }
    }
}

/// Two batches on one link arrive out of order — the first lost and sent
/// again after the second — and a power cut keeps the second's record but
/// not the first's. The second batch started past the mark its target
/// kept, so it moved none: the target reports the mark before both, the
/// source repairs from there, and the target reconverges to the oracle.
/// (Had the second batch's end been kept, the source would trust it and
/// the first batch's tuple would be lost for good.)
#[test]
fn a_batch_that_overtook_a_lost_one_moves_no_durable_mark() {
    use codb::core::{Envelope, HARNESS_PEER};
    use codb::net::{Command, Context, Peer, PeerId};
    use codb::workload::oracle::chase_naive;
    use std::collections::VecDeque;

    /// Delivers `env` from `from` to `node`; returns what it sent.
    fn deliver(node: &mut CoDbNode, from: PeerId, env: Envelope) -> Vec<(PeerId, Envelope)> {
        let mut cmds = VecDeque::new();
        let mut ctx = Context::new(node.id.peer(), SimTime::ZERO, &[], &mut cmds);
        node.on_message(&mut ctx, from, env);
        sends(cmds)
    }
    fn sends(cmds: VecDeque<Command<Envelope>>) -> Vec<(PeerId, Envelope)> {
        let sends = cmds.into_iter().filter_map(|c| match c {
            Command::Send { to, msg } => Some((to, msg)),
            _ => None,
        });
        sends.collect()
    }
    let tmp = ScratchDir::new("durability-overtaken-batch");
    let mut config = NetworkConfig::parse(
        "node a\nnode b\nschema a: ta(int)\nschema b: tb(int)\ndata a: ta(1). ta(2).\n\
         rule ab @ a -> b: tb(X) <- ta(X).",
    )
    .unwrap();
    let build = |nc: &NodeConfig| {
        let (schema, data) = (nc.schema.clone(), nc.data.clone());
        CoDbNode::new(nc.id, &nc.name, schema, data, &config.rules, NodeSettings::default())
    };
    let (mut src, mut tgt) = (build(&config.nodes[0]), build(&config.nodes[1]));
    let policy = SyncPolicy::EveryN(2);
    tgt.open_persistence(tmp.path(), policy).unwrap();

    // Three updates at `a`, each shipping one batch on `ab`: the log so
    // far (positions 0..2), then 2..3 and 3..4.
    let mut batches = Vec::new();
    for k in [None, Some(3), Some(4)] {
        if let Some(k) = k {
            let ingest = Body::IngestLocal { relation: "ta".to_owned(), tuple: tup![k] };
            deliver(&mut src, HARNESS_PEER, Envelope::control(ingest));
            config.nodes[0].data.push(("ta".to_owned(), tup![k]));
        }
        let out = deliver(&mut src, HARNESS_PEER, Envelope::control(Body::StartUpdate));
        let data = out.into_iter().filter(|(_, env)| matches!(env.body, Body::UpdateData { .. }));
        batches.extend(data.map(|(_, env)| env));
    }
    let spans: Vec<_> = batches
        .iter()
        .map(|env| match env.body {
            Body::UpdateData { mark, .. } => mark.map(|m| (m.from(), m.to())),
            _ => unreachable!(),
        })
        .collect();
    assert_eq!(spans, [Some((0, 2)), Some((2, 3)), Some((3, 4))]);

    // The second batch is lost and sent again after the third: the third's
    // record is the second since the head, so the fsync covers it, and
    // the second's record is left unsynced.
    let (a, [first, second, third]) = (src.id.peer(), <[Envelope; 3]>::try_from(batches).unwrap());
    for env in [first, third, second] {
        deliver(&mut tgt, a, env);
    }
    assert_eq!(tgt.ldb().tuple_count(), 4);
    let store = tgt.store().unwrap();
    let (wal, durable) = (store.wal_path().to_owned(), store.durable_wal_len());
    drop(tgt);
    let file = std::fs::OpenOptions::new().write(true).open(&wal).unwrap();
    assert!(file.metadata().unwrap().len() > durable, "the last record was not durable");
    file.set_len(durable).unwrap();
    drop(file);

    // The power cut kept `tb(4)` but not `tb(3)`; the mark kept is the
    // first batch's end.
    let mut tgt = build(&config.nodes[1]);
    tgt.open_persistence(tmp.path(), policy).unwrap();
    assert_eq!(tgt.ldb().tuple_count(), 3);
    let marks: Vec<_> = tgt.store().unwrap().marks().values().map(|m| m.position).collect();
    assert_eq!(marks, [2], "the overtaking batch moved no mark");
    let mut cmds = VecDeque::new();
    tgt.on_start(&mut Context::new(tgt.id.peer(), SimTime::ZERO, &[], &mut cmds));
    let b = tgt.id.peer();
    for (_, rejoin) in sends(cmds).into_iter().filter(|(to, _)| *to == a) {
        for (_, repair) in deliver(&mut src, b, rejoin).into_iter().filter(|(to, _)| *to == b) {
            deliver(&mut tgt, a, repair);
        }
    }
    assert_eq!(src.report().repair_firings, 2, "repaired past the first batch");
    let oracle = chase_naive(&config).instances;
    assert_eq!(tgt.ldb(), &oracle[&tgt.id]);
}
