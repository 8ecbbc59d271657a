//! System-level durability tests: the acceptance scenario for the
//! `codb-store` subsystem — a node killed mid-update, reopened from its
//! data directory, recovers snapshot + WAL state exactly and reconverges
//! to the network fixpoint of a never-crashed control network.

use codb::core::NodeId;
use codb::prelude::*;
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
        net.open_persistence_all(tmp.path(), SyncPolicy::Always, Codec::Binary).unwrap();
    }

    // Life 2: run an update first — hr's incremental sent-cache toward
    // portal now holds alice — then open persistence on the live
    // network, rolling portal back to the empty seed state.
    let mut net = CoDbNetwork::build(config, SimConfig::default()).unwrap();
    let portal = net.node_id("portal").unwrap();
    net.run_update(portal);
    assert_eq!(net.node(portal).ldb().tuple_count(), 1, "alice materialised");
    let recovered =
        net.open_persistence_all(tmp.path(), SyncPolicy::Always, Codec::Binary).unwrap();
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
        net.open_persistence_all(tmp.path(), SyncPolicy::Always, Codec::Binary).unwrap();
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
    let recovered =
        net.open_persistence_all(tmp.path(), SyncPolicy::Always, Codec::Binary).unwrap();
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
        net.open_persistence_all(tmp.path(), SyncPolicy::Always, Codec::Binary).unwrap();
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
    net.open_persistence_all(tmp.path(), SyncPolicy::Always, Codec::Binary).unwrap();
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
        Codec::Binary,
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
            Codec::Binary,
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
        .restart_node_from_disk(
            NodeId(0),
            &tmp.path().join("node0"),
            SyncPolicy::Always,
            Codec::Binary,
        )
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
    net.open_persistence_all(tmp.path(), SyncPolicy::Always, Codec::Binary).unwrap();
    let dir = CoDbNetwork::node_data_dir(tmp.path(), "node0");

    let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        net.restart_node_from_disk_live(NodeId(0), &dir, SyncPolicy::Always, Codec::Binary)
    }));
    assert!(refused.is_err(), "a live node must not be restarted over");
    assert_eq!(net.node(NodeId(0)).epoch(), 0, "the live incarnation is untouched");
    net.run_update(scenario.sink());

    // Once it has crashed the restart goes through — as incarnation 1,
    // so the refused call never opened the store.
    assert!(net.crash_node(NodeId(0)));
    let stats =
        net.restart_node_from_disk(NodeId(0), &dir, SyncPolicy::Always, Codec::Binary).unwrap();
    assert_eq!(stats.epoch, 1, "{stats:?}");
}
