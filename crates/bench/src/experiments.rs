//! The experiment suite (README.md, "Experiments"): one function per
//! experiment id, listed in [`EXPERIMENTS`], each regenerating one
//! table/figure of the reconstructed evaluation.
//!
//! Every function returns a [`Table`] whose rows are the series the demo
//! paper's statistics module would report: total update execution time
//! (simulated), message counts and volumes per coordination rule, longest
//! update propagation path, and the query-time vs materialised trade-off.
//! Every cell is a function of the experiment's seeds — no host clock is
//! read here, so `exp all --json` is byte-identical from run to run and is
//! committed as `docs/EXPERIMENTS.json`. Host time is `benchmark/`'s job.

use crate::table::Table;
use codb_core::{CoDbNetwork, NodeSettings, UpdateOutcome};
use codb_net::{PipeConfig, SimConfig, SimTime};
use codb_relational::{Instance, NullFactory, RuleFiring};
use codb_workload::oracle::{chase_naive, chase_seminaive};
use codb_workload::{DataDist, RuleStyle, Scenario, Topology};

/// Builds and runs one update for `scenario`; returns the outcome and the
/// network (for further inspection).
fn run_update(scenario: &Scenario) -> (UpdateOutcome, CoDbNetwork) {
    let mut net =
        CoDbNetwork::build(scenario.build_config(), SimConfig::default()).expect("valid scenario");
    let outcome = net.run_update(scenario.sink());
    (outcome, net)
}

fn scenario(topology: Topology, tuples: usize) -> Scenario {
    Scenario {
        topology,
        tuples_per_node: tuples,
        rule_style: RuleStyle::CopyGav,
        dist: DataDist::Uniform { domain: 1 << 40 },
        seed: 0xC0DB,
    }
}

/// E1 — global update total execution time vs network size (chain).
fn e1() -> Table {
    let mut t = Table::new(
        "E1 — update time vs network size (chain, 200 tuples/node)",
        &["n", "sim total", "data msgs", "paper data msgs", "data bytes", "tuples added"],
    );
    for n in [2usize, 4, 8, 16, 32, 48] {
        let s = scenario(Topology::Chain(n), 200);
        let (o, _) = run_update(&s);
        t.row(vec![
            n.to_string(),
            o.summary.total_time.to_string(),
            o.summary.data_messages.to_string(),
            // The paper forwards every wave at once: node k's wave crosses
            // the n − 1 − k links below it.
            (n * (n - 1) / 2).to_string(),
            o.summary.data_bytes.to_string(),
            o.summary.tuples_added.to_string(),
        ]);
    }
    t
}

/// E2 — update time vs topology shape (≈15-node networks).
fn e2() -> Table {
    let mut t = Table::new(
        "E2 — update time vs topology (~15 nodes, 100 tuples/node)",
        &["topology", "nodes", "sim total", "data msgs", "longest path", "closed early"],
    );
    for topo in [
        Topology::Chain(15),
        Topology::Ring(15),
        Topology::Star { leaves: 14 },
        Topology::Tree { height: 3 },
        Topology::Grid { w: 5, h: 3 },
        Topology::RandomDag { n: 15, p_percent: 20, seed: 5 },
    ] {
        let s = scenario(topo, 100);
        let (o, _) = run_update(&s);
        t.row(vec![
            topo.to_string(),
            topo.node_count().to_string(),
            o.summary.total_time.to_string(),
            o.summary.data_messages.to_string(),
            o.summary.longest_path.to_string(),
            o.summary.closed_early.to_string(),
        ]);
    }
    t
}

/// E3 — query-result messages per coordination rule + volume per message
/// (the statistics module's headline numbers).
fn e3() -> Table {
    let mut t = Table::new(
        "E3 — per-rule data messages and volumes (chain-8, 500 tuples/node)",
        &["rule", "messages", "firings", "bytes", "bytes/msg"],
    );
    let s = scenario(Topology::Chain(8), 500);
    let (o, _) = run_update(&s);
    for (rule, traffic) in &o.summary.per_rule {
        t.row(vec![
            rule.clone(),
            traffic.messages.to_string(),
            traffic.firings.to_string(),
            traffic.bytes.to_string(),
            (traffic.bytes / traffic.messages.max(1)).to_string(),
        ]);
    }
    t
}

/// E4 — longest update propagation path vs topology and size.
fn e4() -> Table {
    let mut t = Table::new(
        "E4 — longest update propagation path (50 tuples/node)",
        &["topology", "predicted depth", "measured longest path"],
    );
    for topo in [
        Topology::Chain(4),
        Topology::Chain(8),
        Topology::Chain(16),
        Topology::Ring(4),
        Topology::Ring(8),
        Topology::Tree { height: 2 },
        Topology::Tree { height: 3 },
        Topology::Grid { w: 4, h: 4 },
        Topology::Star { leaves: 8 },
    ] {
        let s = scenario(topo, 50);
        let (o, _) = run_update(&s);
        t.row(vec![
            topo.to_string(),
            topo.depth_to_sink().to_string(),
            o.summary.longest_path.to_string(),
        ]);
    }
    t
}

/// E5 — query-time answering vs global update + local query (the paper's
/// motivation for batch updates). The "refetch" columns are the same fetch
/// again on the unchanged network: the whole views it fires — none, since
/// every serving link kept its view — its messages and bytes — one request
/// down each link and one tag back up, since every serving link kept its
/// answer — the links the sink found unchanged, and whether its answer was
/// the one the sink kept: every link came back unchanged over the same
/// query, rules and local data, so nothing was assembled (`QueryReport`).
/// The "after insert" columns are one more fetch, after a tuple is inserted at
/// the chain's far end: every server between it and the sink kept its own
/// data, and still answers its local part at once, and the far end
/// refreshes its kept view from its relation's log — it fires no whole
/// view either.
fn e5() -> Table {
    let mut t = Table::new(
        "E5 — query-time vs materialised (chain, 200 tuples/node)",
        &[
            "n",
            "qtime first ans",
            "qtime sim",
            "qtime msgs",
            "update sim",
            "update msgs",
            "local sim",
            "amortise@",
            "refetch fires",
            "refetch msgs",
            "refetch bytes",
            "refetch unchanged",
            "refetch kept",
            "after insert first ans",
            "after insert sim",
            "after insert msgs",
            "after insert fires",
        ],
    );
    for n in [2usize, 4, 8, 16] {
        let s = scenario(Topology::Chain(n), 200);
        let mut fetch_net = CoDbNetwork::build(s.build_config(), SimConfig::default()).unwrap();
        let q = fetch_net.run_query(s.sink(), s.sink_query(), true);

        let mut mat_net = CoDbNetwork::build(s.build_config(), SimConfig::default()).unwrap();
        let o = mat_net.run_update(s.sink());
        let local = mat_net.run_query(s.sink(), s.sink_query(), false);
        assert_eq!(q.result.answers.len(), local.result.answers.len());

        let amortise = o.summary.total_time.as_nanos().div_ceil(q.duration.as_nanos().max(1));
        let first_answer = |net: &CoDbNetwork, query| {
            let report = &net.node(s.sink()).report().queries[&query];
            let first = report.first_answer_at.map(|t| t.saturating_sub(report.started_at));
            first.map_or_else(|| "-".into(), |t| t.to_string())
        };
        let first = first_answer(&fetch_net, q.query);
        let fired = codb_core::whole_fires();
        let again = fetch_net.run_query(s.sink(), s.sink_query(), true);
        assert_eq!(again.result.answers, q.result.answers);
        let refetch_fires = codb_core::whole_fires() - fired;
        let refetch = &fetch_net.node(s.sink()).report().queries[&again.query];
        let (unchanged, kept) = (refetch.unchanged, u8::from(refetch.kept));
        let (relation, tuple) = (Scenario::relation_of(0), codb_relational::tup![-1, -1]);
        fetch_net
            .run_control(codb_core::NodeId(0), codb_core::Body::IngestLocal { relation, tuple });
        let fired = codb_core::whole_fires();
        let after = fetch_net.run_query(s.sink(), s.sink_query(), true);
        assert_eq!(after.result.answers.len(), q.result.answers.len() + 1);
        let after_fires = codb_core::whole_fires() - fired;
        t.row(vec![
            n.to_string(),
            first,
            q.duration.to_string(),
            q.messages.to_string(),
            o.summary.total_time.to_string(),
            o.messages.to_string(),
            local.duration.to_string(),
            amortise.to_string(),
            refetch_fires.to_string(),
            again.messages.to_string(),
            again.bytes.to_string(),
            unchanged.to_string(),
            kept.to_string(),
            first_answer(&fetch_net, after.query),
            after.duration.to_string(),
            after.messages.to_string(),
            after_fires.to_string(),
        ]);
    }
    t
}

/// E6 — cyclic coordination rules: fixpoint depth and cost vs cycle length.
fn e6() -> Table {
    let mut t = Table::new(
        "E6 — cyclic rules (ring, 50 tuples/node): fixpoint cost vs cycle length",
        &["n", "sim total", "data msgs", "longest path", "tuples/node at fixpoint"],
    );
    for n in [2usize, 4, 8, 16, 24] {
        let s = scenario(Topology::Ring(n), 50);
        let (o, net) = run_update(&s);
        let per_node = net
            .node(s.sink())
            .ldb()
            .get(&Scenario::relation_of(s.sink().0 as usize))
            .unwrap()
            .len();
        t.row(vec![
            n.to_string(),
            o.summary.total_time.to_string(),
            o.summary.data_messages.to_string(),
            o.summary.longest_path.to_string(),
            per_node.to_string(),
        ]);
    }
    t
}

/// E7 — dynamic networks: super-peer re-broadcast mid-update; the update
/// still terminates and a follow-up on the new topology works.
fn e7() -> Table {
    let mut t = Table::new(
        "E7 — dynamic reconfiguration (chain-8, 200 tuples/node)",
        &["churn events", "first update nodes", "rewire sim", "second update sim", "second nodes"],
    );
    for churn in [0usize, 1, 2] {
        let s = scenario(Topology::Chain(8), 200);
        let mut config = s.build_config();
        config.version = 1;
        let mut net =
            CoDbNetwork::build_with_superpeer(config.clone(), SimConfig::default()).unwrap();
        net.sim_mut().inject(
            codb_core::HARNESS_PEER,
            s.sink().peer(),
            codb_core::Envelope::control(codb_core::Body::StartUpdate),
        );
        // Let the update run a little, then re-broadcast `churn` times.
        let mut rewire_time = SimTime::ZERO;
        for c in 0..churn {
            for _ in 0..30 {
                net.sim_mut().step();
            }
            let mut v = config.clone();
            v.version = 2 + c as u64;
            rewire_time = net.broadcast_rules(v).unwrap();
        }
        net.sim_mut().run_until_quiescent();
        let first = net.network_report();
        let first_update = first.update_ids()[0];
        let first_nodes = first.summarise(first_update).unwrap().nodes;

        let o2 = net.run_update(s.sink());
        t.row(vec![
            churn.to_string(),
            first_nodes.to_string(),
            rewire_time.to_string(),
            o2.summary.total_time.to_string(),
            o2.summary.nodes.to_string(),
        ]);
    }
    t
}

/// E8 — scaling the local data volume per node.
fn e8() -> Table {
    let mut t = Table::new(
        "E8 — update cost vs data volume (chain-8)",
        &["tuples/node", "sim total", "data msgs", "data bytes"],
    );
    for tuples in [100usize, 500, 2_000, 10_000] {
        let s = scenario(Topology::Chain(8), tuples);
        let (o, _) = run_update(&s);
        t.row(vec![
            tuples.to_string(),
            o.summary.total_time.to_string(),
            o.summary.data_messages.to_string(),
            o.summary.data_bytes.to_string(),
        ]);
    }
    t
}

/// E9 — ablation: GAV copy vs GAV filter vs proper GLAV (existential head
/// variables → marked nulls).
fn e9() -> Table {
    let mut t = Table::new(
        "E9 — rule-style ablation (chain-8, 1000 tuples/node)",
        &["style", "tuples added", "data bytes", "nulls at sink"],
    );
    for (name, style) in [
        ("copy-GAV", RuleStyle::CopyGav),
        ("filter-GAV (50%)", RuleStyle::FilterGav { threshold: 1 << 39 }),
        ("project-GLAV", RuleStyle::ProjectGlav),
    ] {
        let s = Scenario { rule_style: style, ..scenario(Topology::Chain(8), 1000) };
        let (o, net) = run_update(&s);
        let sink_rel = Scenario::relation_of(s.topology.sink());
        let nulls = net
            .node(s.sink())
            .ldb()
            .get(&sink_rel)
            .unwrap()
            .iter()
            .filter(|t| t.has_null())
            .count();
        t.row(vec![
            name.to_string(),
            o.summary.tuples_added.to_string(),
            o.summary.data_bytes.to_string(),
            nulls.to_string(),
        ]);
    }
    t
}

// ---------------------------------------------------------------------
// E10 — delta-propagation ablation: centralized chase, naive full
// re-evaluation per round vs semi-naive delta evaluation.
// ---------------------------------------------------------------------

/// E10 — semi-naive delta propagation vs naive re-evaluation.
fn e10() -> Table {
    let mut t = Table::new(
        "E10 — delta ablation: naive vs semi-naive chase (500 tuples/node)",
        &["topology", "naive derivations", "semi-naive derivations", "ratio"],
    );
    for topo in
        [Topology::Chain(8), Topology::Ring(4), Topology::Ring(8), Topology::Grid { w: 3, h: 3 }]
    {
        let s = scenario(topo, 500);
        let config = s.build_config();
        let nd = chase_naive(&config).derivations;
        let sd = chase_seminaive(&config).derivations;
        t.row(vec![
            topo.to_string(),
            nd.to_string(),
            sd.to_string(),
            format!("{:.2}x", nd as f64 / sd.max(1) as f64),
        ]);
    }
    t
}

/// E12 — failure injection: message loss with ARQ retransmission.
fn e12() -> Table {
    let mut t = Table::new(
        "E12 — update under message loss (chain-6, 200 tuples/node)",
        &["loss %", "sim total", "protocol msgs", "retransmits", "dropped", "tuples added"],
    );
    for loss in [0.0f64, 0.05, 0.10, 0.20] {
        let s = scenario(Topology::Chain(6), 200);
        let pipe = PipeConfig::lan().with_loss(loss);
        let sim = SimConfig { seed: 99, max_events: 10_000_000 };
        let settings =
            NodeSettings { retransmit_after: SimTime::from_millis(20), pipe, ..Default::default() };
        let mut net = CoDbNetwork::build_with(s.build_config(), sim, settings, false).unwrap();
        let o = net.run_update(s.sink());
        let retransmits: u64 = net
            .network_report()
            .nodes
            .values()
            .map(|n| n.messages_sent.get("retransmit").copied().unwrap_or(0))
            .sum();
        t.row(vec![
            format!("{:.0}", loss * 100.0),
            o.summary.total_time.to_string(),
            o.messages.to_string(),
            retransmits.to_string(),
            net.sim().stats().dropped.to_string(),
            o.summary.tuples_added.to_string(),
        ]);
    }
    t
}

/// E13 — query-dependent (scoped) updates vs global updates: a star where
/// the query touches one branch.
fn e13() -> Table {
    let mut t = Table::new(
        "E13 — scoped (query-dependent) vs global update (star, 500 tuples/node)",
        &["leaves", "global msgs", "global bytes", "scoped msgs", "scoped bytes", "msg ratio"],
    );
    for leaves in [2usize, 4, 8, 16] {
        let s = scenario(Topology::Star { leaves }, 500);
        // Global update.
        let mut g_net = CoDbNetwork::build(s.build_config(), SimConfig::default()).unwrap();
        let g = g_net.run_update(s.sink());
        // Scoped update demanding a single leaf's relation... the hub's own
        // relation r0 is fed by every leaf, so to scope to one branch we
        // demand a config where only leaf 1's rule feeds a dedicated hub
        // relation. Build it by hand from the star config.
        let mut config = s.build_config();
        // Give the hub one extra relation per leaf and retarget each rule.
        use codb_relational::{RelationSchema, ValueType};
        for (i, rule) in config.rules.iter_mut().enumerate() {
            let rel = format!("branch{i}");
            config.nodes[0]
                .schema
                .add(RelationSchema::with_types(&rel, &[ValueType::Int, ValueType::Int]));
            for atom in &mut rule.rule.head {
                atom.relation = rel.clone();
            }
        }
        config.validate().unwrap();
        let mut s_net = CoDbNetwork::build(config, SimConfig::default()).unwrap();
        let sc = s_net.run_scoped_update(s.sink(), vec!["branch0".to_owned()]);
        t.row(vec![
            leaves.to_string(),
            g.messages.to_string(),
            g.bytes.to_string(),
            sc.messages.to_string(),
            sc.bytes.to_string(),
            format!("{:.1}x", g.messages as f64 / sc.messages.max(1) as f64),
        ]);
    }
    t
}

/// E14 — join-body rules (full conjunctive-query bodies) vs copy rules.
fn e14() -> Table {
    let mut t = Table::new(
        "E14 — join-body rules vs copy rules (chain-6, 500 tuples/node)",
        &["style", "sim total", "data msgs", "tuples added"],
    );
    for (name, style) in [
        ("copy", RuleStyle::CopyGav),
        ("join (domain 16)", RuleStyle::JoinGav { join_domain: 16 }),
        ("join (domain 256)", RuleStyle::JoinGav { join_domain: 256 }),
    ] {
        let s = Scenario { rule_style: style, ..scenario(Topology::Chain(6), 500) };
        let (o, _) = run_update(&s);
        t.row(vec![
            name.to_string(),
            o.summary.total_time.to_string(),
            o.summary.data_messages.to_string(),
            o.summary.tuples_added.to_string(),
        ]);
    }
    t
}

/// E15 — repeated updates on one network: the sent caches outlive the
/// update, so a repeat ships, and evaluates, only what changed since the
/// last one. "evaluated" is what the update's rule bodies produced before
/// the sent-side filter: the cold update fires every link whole, a repeat
/// with nothing new fires nothing (every link is caught up), and one tuple
/// inserted at the head of the chain costs one firing a hop.
fn e15() -> Table {
    let mut t = Table::new(
        "E15 — repeated updates: what a warm update ships (chain-8, 500 tuples/node)",
        &["update", "msgs", "data msgs", "bytes", "tuples", "evaluated"],
    );
    let s = scenario(Topology::Chain(8), 500);
    let mut net = CoDbNetwork::build(s.build_config(), SimConfig::default()).unwrap();
    for (name, insert) in [
        ("cold", false),
        ("repeat, nothing new", false),
        ("repeat after one insert at the head", true),
    ] {
        if insert {
            let relation = Scenario::relation_of(0);
            let tuple = codb_relational::tup![-1, -1];
            net.run_control(codb_core::NodeId(0), codb_core::Body::IngestLocal { relation, tuple });
        }
        let o = net.run_update(s.sink());
        t.row(vec![
            name.to_string(),
            o.messages.to_string(),
            o.summary.data_messages.to_string(),
            o.bytes.to_string(),
            o.summary.tuples_added.to_string(),
            o.summary.evaluated.to_string(),
        ]);
    }
    t
}

/// E16 — bandwidth-constrained pipes: with finite bandwidth, simulated
/// update time scales with the data volume (complements E8, where
/// infinite-bandwidth pipes made time volume-independent).
fn e16() -> Table {
    let mut t = Table::new(
        "E16 — update time under 1 MB/s pipes (chain-8)",
        &["tuples/node", "sim total", "data bytes", "sim ms per MB"],
    );
    for tuples in [100usize, 500, 2_000] {
        let s = scenario(Topology::Chain(8), tuples);
        let pipe = PipeConfig::lan().with_bandwidth(1_000_000);
        let settings = NodeSettings { pipe, ..Default::default() };
        let sim = SimConfig { seed: 1, max_events: 0 };
        let mut net = CoDbNetwork::build_with(s.build_config(), sim, settings, false).unwrap();
        let o = net.run_update(s.sink());
        let mb = o.summary.data_bytes as f64 / 1e6;
        t.row(vec![
            tuples.to_string(),
            o.summary.total_time.to_string(),
            o.summary.data_bytes.to_string(),
            format!("{:.1}", o.summary.total_time.as_secs_f64() * 1e3 / mb.max(1e-9)),
        ]);
    }
    t
}

/// E17 — durable-store recovery: WAL replay cost vs checkpoint (snapshot)
/// interval, plus the **rejoin cost** of bringing the recovered node back
/// as a first-class peer. The first half is synthetic: a node applies
/// 1000 firing batches through a [`codb_store::Store`]; the table reports
/// the on-disk footprint (snapshot + WAL bytes of the surviving
/// generation) and the records recovery replays — whatever the last
/// checkpoint did not compact — and recovery must reproduce the live
/// state exactly (asserted — an end-to-end format check; how fast it
/// loads is `store.open_ms_p50` in `benchmark/`). The rejoin half
/// composes durability with sent caches that outlive the update (E15): a
/// chain-4 network crashes a node mid-update (checkpointing it at a
/// cadence matching the row), restarts it from disk, has the *recovered
/// node* initiate the reconvergence update, and reports the rejoin cost
/// in messages — the `Rejoin` announcements (their acks are plain
/// transport acks) plus the one-off full re-send overhead relative to a
/// never-crashed control — next to the **barrier cost**: the messages
/// survivors parked behind the rejoin barrier and released at the
/// handshake plus the `RejoinRepair` re-sends that close the
/// forwarded-but-unsynced window.
fn e17() -> Table {
    use codb_relational::glav::TField;
    use codb_relational::{RelationSchema, Snapshot, Value, ValueType};
    use codb_store::{
        apply_arrived, Codec, ProtocolCounters, RecvCaches, ScratchDir, Store, SyncPolicy,
        WalRecord,
    };
    use codb_workload::{run_fault_plan, FaultPlan};

    let mut t = Table::new(
        "E17 — recovery: WAL replay vs checkpoint interval (1000 batches, 4 firings each) + \
         rejoin cost (chain-4, recovered node initiates)",
        &[
            "checkpoint every (batches)",
            "generations",
            "wal records",
            "snap bytes",
            "wal bytes",
            "tuples",
            "victim ckpt (events)",
            "rejoin cost (msgs)",
            "barrier cost (msgs)",
        ],
    );
    const BATCHES: u64 = 1000;
    const PER_BATCH: i64 = 4;
    for interval in [0u64, 250, 50, 10] {
        let dir = ScratchDir::new("e17");
        let mut inst = Instance::new();
        inst.add_relation(RelationSchema::with_types("r", &[ValueType::Int, ValueType::Int]));
        let mut nulls = NullFactory::new(7);
        let mut recv = RecvCaches::new();
        let mut store = Store::create(
            dir.path(),
            &Snapshot::capture(&inst, &nulls),
            &recv,
            &ProtocolCounters::default(),
            SyncPolicy::Never,
            Codec::Binary,
        )
        .unwrap();
        for b in 0..BATCHES {
            let mut firings: Vec<RuleFiring> = (0..PER_BATCH)
                .map(|k| {
                    RuleFiring::new([(
                        "r",
                        vec![TField::Const(Value::Int(b as i64 * PER_BATCH + k)), TField::Fresh(0)],
                    )])
                })
                .collect();
            apply_arrived(&mut inst, &mut nulls, &mut recv, "e", &mut firings).unwrap();
            store.append(&WalRecord::Applied { rule: "e".to_owned(), firings }).unwrap();
            if interval > 0 && (b + 1) % interval == 0 {
                store
                    .checkpoint(
                        &Snapshot::capture(&inst, &nulls),
                        &recv,
                        &ProtocolCounters::default(),
                    )
                    .unwrap();
            }
        }
        store.sync().unwrap();
        let generations = store.generation() + 1;
        let wal_records = store.wal_records();
        drop(store);
        // On-disk footprint of the surviving generation, straight from the
        // filesystem.
        let (snap_bytes, wal_bytes) = dir_footprint(dir.path());

        let (_reopened, rec) = Store::open(dir.path(), SyncPolicy::Never, Codec::Binary).unwrap();
        assert_eq!(rec.instance, inst, "recovery must reproduce the live state");
        assert_eq!(rec.nulls.invented(), nulls.invented());

        // Rejoin cost at an analogous checkpoint cadence. The units
        // differ deliberately and each gets its own column: the
        // synthetic half checkpoints per *applied batch*, the crash
        // half per *simulator event* of the doomed update (scaled down
        // so every non-`never` row checkpoints at least once before
        // the kill).
        let victim_ckpt = (interval > 0).then_some((interval / 10).max(2));
        let crash_dir = ScratchDir::new("e17-rejoin");
        let s = codb_workload::Scenario {
            tuples_per_node: 20,
            ..codb_workload::Scenario::quick(codb_workload::Topology::Chain(4))
        };
        let victim = codb_core::NodeId(1);
        let plan = FaultPlan::single_crash(s, victim, victim_ckpt, victim);
        let report = run_fault_plan(&plan, crash_dir.path()).unwrap();
        assert!(report.converged, "E17 rejoin run must reconverge: {report:?}");

        t.row(vec![
            if interval == 0 { "never".to_owned() } else { interval.to_string() },
            generations.to_string(),
            wal_records.to_string(),
            snap_bytes.to_string(),
            wal_bytes.to_string(),
            rec.instance.tuple_count().to_string(),
            victim_ckpt.map_or("never".to_owned(), |e| e.to_string()),
            report.rejoin_cost_messages().to_string(),
            report.barrier_cost_messages().to_string(),
        ]);
    }
    t
}

/// One E18 measurement: a many-node single-host ingest driven through a
/// [`CoDbNetwork`] whose nodes persist under `policy`, with `total`
/// local inserts distributed per `workload`. Returns
/// `(wal_records, fsyncs, acked)`.
fn e18_run(
    nodes: usize,
    workload: E18Workload,
    policy: codb_store::SyncPolicy,
    total: u64,
) -> (u64, u64, u64) {
    use codb_core::NodeId;
    use codb_store::ScratchDir;
    use codb_workload::Topology;

    let dir = ScratchDir::new("e18");
    let s = Scenario { tuples_per_node: 1, ..Scenario::quick(Topology::Chain(nodes)) };
    let mut net = CoDbNetwork::build(s.build_config(), SimConfig::default()).unwrap();
    net.open_persistence_all(dir.path(), policy).unwrap();

    for k in 0..total {
        // The write target: round-robin spreads every consecutive record
        // to a different store (the scheduler's worst case — drains find
        // every store dirty); bursts keep consecutive records on one
        // store (the realistic update-wave shape group commit coalesces).
        let target = match workload {
            E18Workload::RoundRobin => k % nodes as u64,
            E18Workload::Bursty { burst } => (k / burst).wrapping_mul(7) % nodes as u64,
        };
        let rel = Scenario::relation_of(target as usize);
        net.sim_mut()
            .peer_mut(NodeId(target).peer())
            .expect("node alive")
            .insert_local(&rel, codb_relational::tup![k as i64, target as i64])
            .expect("schema accepts (int, int)");
    }

    let ids: Vec<NodeId> = (0..nodes as u64).map(NodeId).collect();
    let records: u64 = ids.iter().map(|&id| net.node(id).store().unwrap().wal_records()).sum();
    let acked: u64 =
        ids.iter().map(|&id| net.node(id).store().unwrap().durable_wal_records()).sum();
    // Fsyncs on the WAL append path: each store's WAL counts its own,
    // whether its private scheduler or a shared drain did them.
    let fsyncs: u64 = ids.iter().map(|&id| net.node(id).store().unwrap().wal_fsyncs()).sum();
    (records, fsyncs, acked)
}

/// How E18 distributes its inserts across the host's stores.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum E18Workload {
    /// Every consecutive record hits a different store.
    RoundRobin,
    /// `burst` consecutive records per store before moving on.
    Bursty {
        /// Records per burst.
        burst: u64,
    },
}

impl std::fmt::Display for E18Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            E18Workload::RoundRobin => write!(f, "round-robin"),
            E18Workload::Bursty { burst } => write!(f, "bursty({burst})"),
        }
    }
}

/// E18 — shared group commit vs per-node fsync policies on a many-node
/// single-host ingest. All policies obey the same **ack rule** (a record
/// is durable only once an fsync covers it — `docs/DURABILITY.md`):
/// `everyN:1` acks each record before the append returns, and the shared
/// scheduler defers acks within a bounded host-wide window
/// (`max_records = 8 × nodes`) while coalescing each drain into one
/// fsync per dirty store. The table shows the scheduler beating the
/// per-record-ack baseline by ~an order of magnitude everywhere, and
/// beating per-node `everyN:8` (whose host-wide window is the same
/// `8 × nodes` records) whenever writes arrive in bursts — the
/// update-wave shape — while matching it in the adversarial perfectly
/// interleaved case. The no-acked-loss half of the story is proved by
/// the host-crash faultplan (`codb_workload::faultplan`), smoke-run
/// here: the host dies mid-update, every unsynced WAL tail is
/// destroyed, and every acked record must recover.
fn e18() -> Table {
    use codb_store::SyncPolicy;

    let mut t = Table::new(
        "E18 — shared group-commit fsync scheduler vs per-node policies (single host, 1920 \
         inserts; group window = 8×nodes records)",
        &["workload", "nodes", "policy", "wal records", "fsyncs", "records/fsync", "acked at end"],
    );
    const TOTAL: u64 = 1920;
    const BURST: u64 = 32;
    for workload in [E18Workload::Bursty { burst: BURST }, E18Workload::RoundRobin] {
        for nodes in [8usize, 16] {
            let group_policy =
                SyncPolicy::GroupCommit { max_batch: 64, max_records: 8 * nodes as u64 };
            let policies = [
                ("everyN:1 (per-record ack)", SyncPolicy::EveryN(1)),
                ("everyN:8 (per-node)", SyncPolicy::EveryN(8)),
                ("group (shared)", group_policy),
            ];
            let mut fsyncs_by_policy = Vec::new();
            for (label, policy) in policies {
                let (records, fsyncs, acked) = e18_run(nodes, workload, policy, TOTAL);
                fsyncs_by_policy.push(fsyncs);
                t.row(vec![
                    workload.to_string(),
                    nodes.to_string(),
                    label.to_string(),
                    records.to_string(),
                    fsyncs.to_string(),
                    format!("{:.1}", records as f64 / fsyncs.max(1) as f64),
                    acked.to_string(),
                ]);
            }
            // The acceptance bar, enforced on every run of this table.
            let (every1, every8, group) =
                (fsyncs_by_policy[0], fsyncs_by_policy[1], fsyncs_by_policy[2]);
            assert!(
                group < every1,
                "group commit must beat per-record-ack everyN:1 ({workload}, {nodes} nodes): \
                 {group} vs {every1}"
            );
            assert!(
                group <= every8,
                "group commit must never lose to everyN:8 at an equal host-wide window \
                 ({workload}, {nodes} nodes): {group} vs {every8}"
            );
            if matches!(workload, E18Workload::Bursty { .. }) {
                assert!(
                    group < every8,
                    "bursty writes must coalesce ({nodes} nodes): {group} vs {every8}"
                );
            }
        }
    }

    // The durability half: a seeded host crash mid-update under the
    // shared scheduler, with every unsynced WAL tail destroyed — no
    // acked record may be lost, and the network must reconverge.
    let crash_dir = codb_store::ScratchDir::new("e18-crash");
    let s = Scenario { tuples_per_node: 12, ..Scenario::quick(codb_workload::Topology::Chain(8)) };
    let plan = codb_workload::FaultPlan::host_crash_group_commit(s, 0xE18);
    let report = codb_workload::run_fault_plan(&plan, crash_dir.path()).unwrap();
    assert!(report.acked_records_preserved, "E18 host-crash check: {report:?}");
    assert!(report.converged, "E18 host-crash check: {report:?}");
    t.row(vec![
        "host-crash faultplan".into(),
        "8".into(),
        "group (shared)".into(),
        format!("{} acked checked", report.acked_records_checked),
        "-".into(),
        "-".into(),
        "all preserved".into(),
    ]);
    t
}

/// Total bytes of `.snap` and `.wal` files in a store directory.
fn dir_footprint(dir: &std::path::Path) -> (u64, u64) {
    let (mut snap, mut wal) = (0u64, 0u64);
    for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Ok(meta) = entry.metadata() else { continue };
        if name.ends_with(".snap") {
            snap += meta.len();
        } else if name.ends_with(".wal") {
            wal += meta.len();
        }
    }
    (snap, wal)
}

/// One registered experiment: its id and the function that runs it.
pub type Experiment = (&'static str, fn() -> Table);

/// Every experiment by id, in the order `exp all` prints them. Ids are
/// stable: E11 and E20 are retired (their host-time columns are
/// `benchmark/` metrics now), and so is E19 (it timed the simulator on a
/// flood protocol that is not coDB; `net.us_per_event` times the loop on
/// every workload), not renumbered.
pub const EXPERIMENTS: &[Experiment] = &[
    ("e1", e1),
    ("e2", e2),
    ("e3", e3),
    ("e4", e4),
    ("e5", e5),
    ("e6", e6),
    ("e7", e7),
    ("e8", e8),
    ("e9", e9),
    ("e10", e10),
    ("e12", e12),
    ("e13", e13),
    ("e14", e14),
    ("e15", e15),
    ("e16", e16),
    ("e17", e17),
    ("e18", e18),
];

/// All experiments, in registry order.
pub fn all() -> Vec<Table> {
    EXPERIMENTS.iter().map(|(_, run)| run()).collect()
}

/// Runs one experiment by its [`EXPERIMENTS`] id.
pub fn by_id(id: &str) -> Option<Table> {
    EXPERIMENTS.iter().find(|(known, _)| *known == id).map(|(_, run)| run())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ids as the README's Experiments table lists them (`| E7 | … |`).
    fn readme_ids() -> Vec<String> {
        let readme = include_str!("../../../README.md");
        let section = readme.split("\n## Experiments").nth(1).expect("README has the section");
        let section = section.split("\n## ").next().unwrap();
        section
            .lines()
            .filter_map(|l| l.strip_prefix("| E")?.split_once(" |"))
            .map(|(n, _)| format!("e{n}"))
            .collect()
    }

    #[test]
    fn by_id_covers_all_ids() {
        let registered: Vec<&str> = EXPERIMENTS.iter().map(|(id, _)| *id).collect();
        // Every table's title opens with its id, so the titles say what ran.
        let ran: Vec<String> = all()
            .iter()
            .map(|t| t.title.split(' ').next().unwrap_or_default().to_lowercase())
            .collect();
        assert_eq!(ran, registered, "`exp all` runs exactly the registry, in order");
        assert_eq!(readme_ids(), registered, "README's Experiments table is the registry");
        for retired in ["e11", "e19", "e20", "e19-quick", "e20-quick", "e21"] {
            assert!(by_id(retired).is_none(), "{retired} is not an experiment");
        }
    }

    #[test]
    fn small_experiment_renders() {
        let t = by_id("e4").expect("e4 is registered");
        let s = t.render();
        assert!(s.contains("chain-4"));
        assert!(s.contains("measured"));
    }
}
