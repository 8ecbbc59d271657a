//! What an update start fires.
//!
//! The sent caches outlive the update, so a link whose *mark* answers —
//! the versions of its relations its cache covers — fires, at the start of
//! an update, only over what those relations gained since; every other
//! link fires over the whole LDB, as the paper has it.
//! The first half pins the structure — how many firings an update
//! *evaluates* to ship what it ships — on the simulator, on the worker
//! pool across a rebuild from disk, and for a restarted sender. The second
//! half is the equivalence: random programs of local inserts, global and
//! scoped updates, crashes with restarts and rules files, on small
//! topologies with the chase valve sometimes set low enough to trip, must
//! leave every LDB at the fixpoint of the centralised chase — which is
//! what goes wrong the day a link's mark covers what its cache does not
//! hold — and,
//! after every step, every update over at every node that heard of it,
//! and a fetch at every node answered twice alike, the second time from
//! the views and answers the serving links kept, each view checked against
//! a fresh fire and each answer against a network that kept nothing (and,
//! on an acyclic program, against the fixpoint's certain answers). A
//! last property runs inserts and updates over projection-free rules,
//! whose links keep only their marks: each ships every firing of its view
//! exactly once.

use codb::core::{
    rule_graph_is_cyclic, whole_fires, Body, Envelope, Kind, KindCounts, ParallelCoDbNet, Tag,
    HARNESS_PEER,
};
use codb::net::RuntimeConfig;
use codb::prelude::*;
use codb::relational::{isomorphic, tup};
use codb::store::ScratchDir;
use codb::workload::oracle::chase_naive;
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::time::Duration;

fn copy_chain(nodes: usize, tuples_per_node: usize) -> Scenario {
    Scenario {
        topology: Topology::Chain(nodes),
        tuples_per_node,
        rule_style: RuleStyle::CopyGav,
        dist: DataDist::Uniform { domain: 1 << 40 },
        seed: 23,
    }
}

fn ingest(net: &mut CoDbNetwork, node: usize, tuple: Tuple) {
    let relation = Scenario::relation_of(node);
    net.run_control(NodeId(node as u64), Body::IngestLocal { relation, tuple });
}

/// One tuple inserted at the head of a warm chain costs one firing a hop,
/// whatever the chain stores; nothing inserted costs nothing.
#[test]
fn an_update_evaluates_what_changed_not_what_is_stored() {
    let s = copy_chain(6, 1_000);
    let mut net = CoDbNetwork::build(s.build_config(), SimConfig::default()).unwrap();
    let cold = net.run_update(s.sink());
    assert_eq!(cold.summary.evaluated, 1_000 * (1 + 2 + 3 + 4 + 5), "every link, whole");

    let new = tup![-1, -1];
    ingest(&mut net, 0, new.clone());
    let warm = net.run_update(s.sink());
    assert_eq!(warm.summary.evaluated, 5, "one firing a hop");
    assert_eq!((warm.summary.data_messages, warm.summary.tuples_added), (5, 5));
    assert!(net.node(s.sink()).ldb().get("r5").unwrap().contains(&new));

    let idle = net.run_update(s.sink());
    assert_eq!((idle.summary.evaluated, idle.summary.data_messages), (0, 0));
    assert_eq!(idle.summary.nodes, 6, "the update itself still ran everywhere");
}

/// The log is the relation itself, so it has no bound to outgrow: a node
/// that more than doubled its data since the last start still fires only
/// what is new, and nothing whole.
#[test]
fn a_log_longer_than_the_data_before_it_is_still_fired_as_a_delta() {
    let s = copy_chain(3, 10);
    let mut net = CoDbNetwork::build(s.build_config(), SimConfig::default()).unwrap();
    net.run_update(s.sink());
    for k in 0..11 {
        ingest(&mut net, 0, tup![-1 - k, 0]);
    }
    let before = whole_fires();
    let o = net.run_update(s.sink());
    assert_eq!(whole_fires() - before, 0);
    // Node 0 fired its 11 new tuples; node 1 the 11 that reached it.
    assert_eq!(o.summary.evaluated, 11 + 11);
    assert_eq!(o.summary.tuples_added, 22);
    assert_eq!(net.node(s.sink()).ldb().get("r2").unwrap().len(), 30 + 11);
}

/// A copy chain hashes a tuple once, where the tuple is stored first: a
/// cold update down Chain(16) ships every tuple to the sink, each hop
/// filing and re-firing it under the hash its source relation filed it
/// under, and a warm one ships a new tuple the same way.
#[test]
fn a_copy_chain_update_takes_no_content_hash_after_the_build() {
    use codb::relational::content_hashes;
    let s = copy_chain(16, 150);
    let mut net = CoDbNetwork::build(s.build_config(), SimConfig::default()).unwrap();
    let before = content_hashes();
    let cold = net.run_update(s.sink());
    assert_eq!(content_hashes(), before, "a cold update hashed");
    assert_eq!(cold.summary.tuples_added, 150 * (1..16).sum::<u64>());

    ingest(&mut net, 0, tup![-1, -1]);
    let before = content_hashes();
    let warm = net.run_update(s.sink());
    assert_eq!(content_hashes(), before, "a warm update hashed");
    assert_eq!(warm.summary.tuples_added, 15);
}

fn pool_settings() -> NodeSettings {
    NodeSettings { retransmit_after: SimTime::from_millis(20), ..NodeSettings::default() }
}

/// Ingests `per_node` fresh tuples at every node of `net`, runs a global
/// update from the sink and waits for it. Returns what was ingested.
fn pool_round(
    net: &ParallelCoDbNet,
    s: &Scenario,
    round: i64,
    per_node: i64,
) -> Vec<(NodeId, String, Tuple)> {
    let mut ingested = Vec::new();
    for node in 0..s.topology.node_count() {
        for k in 0..per_node {
            let tuple = tup![-(round * 1_000 + node as i64 * 100 + k) - 1, k];
            let relation = Scenario::relation_of(node);
            net.ingest(NodeId(node as u64), &relation, tuple.clone());
            ingested.push((NodeId(node as u64), relation, tuple));
        }
    }
    assert!(net.await_quiescence(Duration::from_millis(20), Duration::from_secs(60)));
    net.start_update(s.sink());
    assert!(net.await_quiescence(Duration::from_millis(20), Duration::from_secs(60)));
    ingested
}

/// The worker pool, persistent: two rounds, shutdown, a rebuild from disk
/// (every node rejoins, reporting the durable mark of each link into it),
/// one more round. Every neighbour trusts the marks it made in the
/// incarnation before: the handshake re-sends nothing and leaves the links
/// marked where they stood, so the round after a recovery evaluates its
/// delta like any other.
#[test]
fn a_round_after_a_rebuild_from_disk_evaluates_its_delta() {
    const PER_NODE: i64 = 4;
    let s = copy_chain(5, 30);
    let mut config = s.build_config();
    let tmp = ScratchDir::new("update-start-pool");
    let build = |config: &NetworkConfig| {
        ParallelCoDbNet::build_persistent(
            config.clone(),
            RuntimeConfig { workers: 2, ..RuntimeConfig::default() },
            pool_settings(),
            tmp.path(),
            SyncPolicy::GroupCommit { max_batch: 8, max_records: 64 },
            Codec::Binary,
        )
        .unwrap()
    };
    let latest = |node: &CoDbNode| {
        let (_, report) = node.report().updates.iter().next_back().expect("an update ran");
        report.clone()
    };

    let (net, recovered) = build(&config);
    assert!(recovered.iter().all(|(_, stats)| stats.is_none()));
    let mut ingested = pool_round(&net, &s, 0, PER_NODE);
    ingested.extend(pool_round(&net, &s, 1, PER_NODE));
    if let Some(sched) = net.fsync_scheduler() {
        sched.flush_all();
    }
    for (id, node) in net.shutdown() {
        // The second round, warm: each node evaluated what it ingested and
        // what reached it, not the 30 × (position + 1) it stores.
        let report = latest(&node);
        assert_eq!(report.evaluated, link_out(&s, id) * (PER_NODE as u64 + report.tuples_added));
    }

    let (net, recovered) = build(&config);
    assert!(recovered.iter().all(|(_, stats)| stats.is_some()));
    ingested.extend(pool_round(&net, &s, 2, PER_NODE));
    for (id, relation, tuple) in ingested {
        config.nodes[id.0 as usize].data.push((relation, tuple));
    }
    let oracle = chase_naive(&config).instances;
    for (id, node) in net.shutdown() {
        assert_eq!(node.persist_error(), None);
        assert_eq!(node.ldb(), &oracle[&id], "node {id}");
        assert_eq!(node.report().repair_firings, 0, "node {id} re-sent firings");
        assert_eq!(node.report().messages_sent.get("rejoin_repair"), None, "node {id}");
        let report = latest(&node);
        let delta = PER_NODE as u64 + report.tuples_added;
        assert_eq!(
            report.evaluated,
            link_out(&s, id) * delta,
            "node {id} evaluated {} for a delta of {delta}",
            report.evaluated
        );
    }
}

/// How many links node `id` of the chain is the source of.
fn link_out(s: &Scenario, id: NodeId) -> u64 {
    u64::from(id != s.sink())
}

/// A sender that restarted has lost its sent caches with everything else:
/// its own links fire whole once — the receiver, which did not restart,
/// suppresses all of it — and are caught up from there. The link *toward*
/// it was repaired by its neighbour and never fires whole again.
#[test]
fn a_restarted_sender_fires_whole_once_then_deltas() {
    let s = copy_chain(3, 20);
    let tmp = ScratchDir::new("update-start-sender");
    let mut net = CoDbNetwork::build(s.build_config(), SimConfig::default()).unwrap();
    net.open_persistence_all(tmp.path(), SyncPolicy::Always).unwrap();
    net.run_update(s.sink());
    let ldbs: Vec<Instance> = (0..3).map(|i| net.node(NodeId(i)).ldb().clone()).collect();

    let mid = NodeId(1);
    assert!(net.crash_node(mid));
    let dir = CoDbNetwork::node_data_dir(tmp.path(), "node1");
    net.restart_node_from_disk(mid, &dir, SyncPolicy::Always).unwrap();

    let evaluated_at = |net: &CoDbNetwork, o: &UpdateOutcome, node: u64| {
        net.node(NodeId(node)).report().updates[&o.update].evaluated
    };
    let once = net.run_update(s.sink());
    assert_eq!(evaluated_at(&net, &once, 0), 0, "repaired toward the restarted node");
    assert_eq!(evaluated_at(&net, &once, 1), 40, "the restarted sender, whole");
    assert_eq!(once.summary.tuples_added, 0);

    ingest(&mut net, 0, tup![-1, -1]);
    let then = net.run_update(s.sink());
    assert_eq!((evaluated_at(&net, &then, 0), evaluated_at(&net, &then, 1)), (1, 1));
    assert_eq!(then.summary.tuples_added, 2);
    for (i, before) in ldbs.iter().enumerate() {
        let now = net.node(NodeId(i as u64)).ldb().tuple_count();
        assert_eq!(now, before.tuple_count() + 1, "node {i}: nothing lost, nothing doubled");
    }
}

/// A node restarted from disk opens its pipe to the super-peer again, so a
/// rules file broadcast after the restart reaches it: it takes the new book,
/// and data on the link the file renamed gets through it.
#[test]
fn a_node_restarted_from_disk_hears_the_next_rules_file() {
    let s = copy_chain(3, 5);
    let tmp = ScratchDir::new("update-start-rules-after-restart");
    let mut config = s.build_config();
    let mut net = CoDbNetwork::build_with_superpeer(config.clone(), SimConfig::default()).unwrap();
    net.open_persistence_all(tmp.path(), SyncPolicy::Always).unwrap();
    net.run_update(s.sink());

    let mid = NodeId(1);
    assert!(net.crash_node(mid));
    let dir = CoDbNetwork::node_data_dir(tmp.path(), "node1");
    net.restart_node_from_disk(mid, &dir, SyncPolicy::Always).unwrap();

    let out_of_mid = config.rules.iter_mut().find(|r| r.source == mid).unwrap();
    out_of_mid.rule.name = format!("{}x", out_of_mid.name());
    let renamed = out_of_mid.name().to_owned();
    config.version += 1;
    net.broadcast_rules(config.clone()).unwrap();
    assert!(net.node(mid).rule_book().incoming_named(&renamed).is_some(), "the old book stayed");

    ingest(&mut net, 0, tup![-1, -1]);
    config.nodes[0].data.push((Scenario::relation_of(0), tup![-1, -1]));
    net.run_update(s.sink());
    let oracle = chase_naive(&config).instances;
    for id in config.node_ids() {
        assert_eq!(net.node(id).ldb(), &oracle[&id], "node {id}");
    }
}

// ---------------------------------------------------------------------
// Equivalence under everything the harness can do
// ---------------------------------------------------------------------

/// splitmix64: the whole program is a function of one printed seed.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<T: Copy>(&mut self, of: &[T]) -> T {
        of[self.below(of.len())]
    }
}

/// The network under test beside the facts the oracle chases: seed data
/// and local inserts, and — where rules change — the fixpoint under the
/// rules that went.
struct Program {
    net: CoDbNetwork,
    /// The current rules over `facts`: what `chase_naive` is run on.
    config: NetworkConfig,
    /// A rule a rules file removed, to be added back by a later one.
    shelved: Option<CoordinationRule>,
    tmp: ScratchDir,
    seed: u64,
    log: Vec<String>,
}

impl Program {
    fn nodes(&self) -> usize {
        self.config.nodes.len()
    }

    fn fail(&self, what: String) -> String {
        format!("seed {:#x}: {what}\nprogram:\n  {}", self.seed, self.log.join("\n  "))
    }

    /// Every LDB against the chase of the current rules over the facts.
    fn check(&self, when: &str) -> Result<(), String> {
        let oracle = chase_naive(&self.config).instances;
        for id in self.config.node_ids() {
            if !isomorphic(self.net.node(id).ldb(), &oracle[&id]) {
                return Err(self.fail(format!(
                    "{when}: node {id} is not at the fixpoint\n   has: {:?}\n wants: {:?}",
                    self.net.node(id).ldb(),
                    oracle[&id]
                )));
            }
        }
        Ok(())
    }

    /// Every update every node has heard of is over there: complete, with
    /// every credit back and nobody engaged but the initiators.
    fn settled(&self, when: &str) -> Result<(), String> {
        for id in self.config.node_ids() {
            if let Some(st) = self.net.node(id).update_states().find(|st| !st.is_settled()) {
                return Err(self.fail(format!("{when}: node {id} is not done: {st:?}")));
            }
        }
        Ok(())
    }

    /// A fetch at every node, then the same fetch again. Unless the first
    /// moved data, the second finds every serving link's answer (or view)
    /// kept and fires no whole view (a debug build fires each kept view
    /// it hands out afresh to compare), and both answer the same; where,
    /// besides, every link the origin fetched answered the first under a
    /// tag, the second is the answer the origin kept. Every
    /// certain answer is in the chase's fixpoint: query-time answering is
    /// sound. And each answers what a network that kept nothing answers —
    /// the one check a stale kept answer cannot pass, since on a monotone
    /// network a stale answer is still sound. (A fetch moves data where it
    /// is the first traffic a node hears from a peer that restarted: the
    /// node repairs the links toward it at once. The first is then held
    /// to nothing but soundness.) Where the node-level rule graph is
    /// acyclic, a fetch is also complete: it answers, as a set, the
    /// null-free tuples of the fixpoint's relation at the origin.
    fn fetch(&mut self, when: &str) -> Result<(), String> {
        let oracle = chase_naive(&self.config).instances;
        let acyclic = !rule_graph_is_cyclic(&self.config.rules);
        for id in self.config.node_ids() {
            let relation = Scenario::relation_of(id.0 as usize);
            let query = format!("ans(X, Y) :- {relation}(X, Y).");
            let tuples = self.net.total_tuples();
            let cold = self.cold_fetch(id, &query);
            let first = self.net.run_query_text(id, &query, true).unwrap().result.certain();
            let moved = self.net.total_tuples() != tuples;
            let cold = if moved { self.cold_fetch(id, &query) } else { cold };
            let tagged = self.fetched_links(id, &relation).all(|tag| tag.is_some());
            let before = whole_fires();
            let outcome = self.net.run_query_text(id, &query, true).unwrap();
            let fired = whole_fires() - before;
            let kept = self.net.node(id).report().queries[&outcome.query].kept;
            let again = outcome.result.certain();
            let fixpoint = oracle[&id].get(&relation).unwrap();
            let sound = first.iter().chain(&again).all(|t| fixpoint.contains(t));
            let certain: BTreeSet<&Tuple> = fixpoint.iter().filter(|t| !t.has_null()).collect();
            let complete = |answers: &[Tuple]| answers.iter().collect::<BTreeSet<_>>() == certain;
            let incomplete = acyclic && (!complete(&again) || (!moved && !complete(&first)));
            let stale = !moved && (fired != 0 || first != cold || (tagged && !kept));
            if !sound || incomplete || again != cold || stale {
                return Err(self.fail(format!(
                    "{when}: a fetch at node {id} fired {fired} whole views again (acyclic: \
                     {acyclic}, kept: {kept}, tagged: {tagged})\n first: {first:?}\n again: \
                     {again:?}\n  cold: {cold:?}\n fixpoint: {fixpoint:?}"
                )));
            }
        }
        Ok(())
    }

    /// The tag of the last whole answer node `id` fetched on each link a
    /// query of `relation` there fetches.
    fn fetched_links<'a>(
        &'a self,
        id: NodeId,
        relation: &'a str,
    ) -> impl Iterator<Item = Option<Tag>> + 'a {
        let node = self.net.node(id);
        let book = node.rule_book();
        let links = book.outgoing().iter().map(|&link| book.link(link));
        let fetched = links.filter(move |l| {
            l.source != id && l.rule.head_names().iter().any(|h| **h == *relation)
        });
        fetched.map(move |l| node.fetched_tag(&l.name))
    }

    /// The certain answers of `query` fetched at `id` on a network that kept
    /// nothing: the current rules over every node's LDB as it stands, built
    /// afresh.
    fn cold_fetch(&self, id: NodeId, query: &str) -> Vec<Tuple> {
        let mut cold = CoDbNetwork::build(self.config.clone(), SimConfig::default()).unwrap();
        for node in self.config.node_ids() {
            let snapshot = self.net.node(node).snapshot();
            cold.sim_mut().peer_mut(node.peer()).unwrap().restore(snapshot);
        }
        cold.run_query_text(id, query, true).unwrap().result.certain()
    }

    /// A global update from `origin`, checked when it reached every node
    /// and ran its course. Returns whether the valve cut it short.
    fn update(&mut self, origin: NodeId) -> Result<bool, String> {
        let o = self.net.run_update(origin);
        self.log.push(format!(
            "update from {origin}: {} nodes, evaluated {}, added {}, truncated {}",
            o.summary.nodes, o.summary.evaluated, o.summary.tuples_added, o.summary.truncated
        ));
        if !o.summary.truncated && o.summary.nodes == self.nodes() as u64 {
            self.check(&format!("after {}", o.update))?;
        }
        Ok(o.summary.truncated)
    }

    /// Updates from every node in turn — a rules file may have cut the
    /// network in two — until a whole pass runs its course: under a low
    /// valve each update moves the data the last one left behind a few
    /// hops further. Then the network is at the fixpoint, or never will be.
    fn converge(&mut self) -> Result<(), String> {
        for _ in 0..60 {
            let mut cut_short = false;
            for origin in self.config.node_ids() {
                cut_short |= self.update(origin)?;
            }
            if !cut_short {
                return self.check("after an update from every node");
            }
        }
        Err(self.fail("sixty passes and the valve still trips".to_owned()))
    }

    fn insert(&mut self, g: &mut Gen) {
        let node = g.below(self.nodes());
        let relations: Vec<String> =
            self.config.nodes[node].schema.relations().map(|r| r.name.clone()).collect();
        let relation = relations[g.below(relations.len())].clone();
        // Small domains: new tuples join with, and sometimes repeat, old ones.
        let tuple = tup![g.below(12) as i64, g.below(4) as i64];
        self.log.push(format!("insert {relation}{tuple} at node {node}"));
        self.net.run_control(
            NodeId(node as u64),
            Body::IngestLocal { relation: relation.clone(), tuple: tuple.clone() },
        );
        self.config.nodes[node].data.push((relation, tuple));
    }

    /// The nodes' statistics modules against the simulator's ledger, as
    /// `assert_kinds_match_the_ledger` (`crates/core/tests/end_to_end.rs`)
    /// checks them: the envelopes counted sent plus the harness's
    /// injections are the network's `sent`, those counted received its
    /// `delivered`.
    fn ledger(&self) -> Result<(), String> {
        let not_envelopes =
            [Kind::Abandoned, Kind::BarrierParked, Kind::DataRejected, Kind::IngestRejected];
        let injected = [
            Kind::StartUpdate,
            Kind::StartScopedUpdate,
            Kind::StartQuery,
            Kind::CollectStats,
            Kind::BroadcastRules,
            Kind::TriggerDiscovery,
            Kind::IngestLocal,
        ];
        let envelopes = |counts: &KindCounts| -> u64 {
            Kind::ALL.iter().filter(|k| !not_envelopes.contains(k)).map(|&k| counts.of(k)).sum()
        };
        let (mut sent, mut received) = (0, 0);
        for (_, node) in self.net.sim().peers() {
            let r = node.report();
            sent += envelopes(&r.messages_sent);
            sent += injected.iter().map(|&k| r.messages_received.of(k)).sum::<u64>();
            received += envelopes(&r.messages_received);
        }
        let ledger = self.net.sim().stats();
        if (sent, received) != (ledger.sent, ledger.delivered) {
            let what = format!("kinds count {sent} sent, {received} received; ledger {ledger:?}");
            return Err(self.fail(what));
        }
        Ok(())
    }

    fn scoped(&mut self, g: &mut Gen) {
        let node = g.below(self.nodes());
        let o = self.net.run_scoped_update(NodeId(node as u64), vec![Scenario::relation_of(node)]);
        self.log.push(format!("scoped update at node {node}: added {}", o.summary.tuples_added));
    }

    /// A global update with `victim` killed `after` events into it, the
    /// rest drained, and the victim restarted from disk into the idle
    /// network (its rejoin, the barrier release and the repair run here).
    fn crash(&mut self, g: &mut Gen) -> Result<(), String> {
        let (origin, victim) = (g.below(self.nodes()), g.below(self.nodes()));
        let after = g.below(40);
        self.log
            .push(format!("update from node {origin}, node {victim} dies after {after} events"));
        let start = Envelope::control(Body::StartUpdate);
        self.net.sim_mut().inject(HARNESS_PEER, NodeId(origin as u64).peer(), start);
        let _ = (0..after).take_while(|_| self.net.sim_mut().step()).count();
        assert!(self.net.crash_node(NodeId(victim as u64)));
        self.net.sim_mut().run_until_quiescent();
        let dir = CoDbNetwork::node_data_dir(self.tmp.path(), &self.config.nodes[victim].name);
        self.net
            .restart_node_from_disk(NodeId(victim as u64), &dir, SyncPolicy::Always)
            .map_err(|e| self.fail(format!("restart of node {victim}: {e}")))?;
        Ok(())
    }

    /// A rules file that removes, renames or adds back one link. The
    /// network is first brought to the fixpoint of the rules that go, and
    /// that fixpoint becomes the facts: what a removed rule derived stays.
    fn rules_file(&mut self, g: &mut Gen) -> Result<(), String> {
        self.converge()?;
        for (id, instance) in chase_naive(&self.config).instances {
            let facts = instance.relations().flat_map(|rel| {
                rel.iter().map(|t| (rel.name().to_owned(), t.clone())).collect::<Vec<_>>()
            });
            self.config.nodes[id.0 as usize].data = facts.collect();
        }
        let rules = &mut self.config.rules;
        match (g.below(3), self.shelved.take()) {
            (0, Some(rule)) => {
                self.log.push(format!("rules file: {} is back", rule.name()));
                rules.push(rule);
            }
            (1, shelved) if rules.len() > 1 => {
                let gone = rules.remove(g.below(rules.len()));
                self.log.push(format!("rules file: {} goes", gone.name()));
                self.shelved = shelved.or(Some(gone));
            }
            (_, shelved) => {
                self.shelved = shelved;
                let at = g.below(rules.len());
                let renamed = format!("{}x", rules[at].name());
                self.log.push(format!("rules file: {} becomes {renamed}", rules[at].name()));
                rules[at].rule.name = renamed;
            }
        }
        self.config.version += 1;
        self.net.broadcast_rules(self.config.clone()).map_err(|e| self.fail(e.to_string()))?;
        Ok(())
    }
}

/// Runs the program `seed` names; `Err` says what diverged and how to
/// replay it.
fn run_program(seed: u64) -> Result<(), String> {
    let mut g = Gen(seed);
    // Three kinds of program, all of which crash nodes. Existential heads
    // go without rules files: a rules file empties the receive caches,
    // after which a template is instantiated again, on purpose.
    let kind = g.below(3);
    let (existential, rules_files) = (kind == 0, kind == 2);
    let (topology, rule_style) = if existential {
        let topology = match g.below(3) {
            0 => Topology::Ring(3 + g.below(3)),
            1 => Topology::Chain(3 + g.below(3)),
            _ => Topology::Grid { w: 2, h: 2 },
        };
        (topology, RuleStyle::ProjectGlav)
    } else {
        let topology = match g.below(6) {
            0 => Topology::Ring(3 + g.below(2)),
            1 => Topology::Chain(3 + g.below(3)),
            2 => Topology::Star { leaves: 2 + g.below(3) },
            3 => Topology::Tree { height: 1 + g.below(2) },
            4 => Topology::Grid { w: 2 + g.below(2), h: 2 },
            _ => Topology::RandomDag { n: 4 + g.below(3), p_percent: 50, seed: g.next() },
        };
        let style = g.pick(&[
            RuleStyle::CopyGav,
            RuleStyle::FilterGav { threshold: 1 },
            RuleStyle::JoinGav { join_domain: 4 },
        ]);
        (topology, style)
    };
    let scenario = Scenario {
        topology,
        tuples_per_node: 1 + g.below(4),
        rule_style,
        dist: DataDist::Uniform { domain: 12 },
        seed: g.next(),
    };
    // One time in three the valve is low enough to trip.
    let max_hops = if g.below(3) == 0 { 1 + g.below(2) as u64 } else { 100_000 };
    // Where no rules file goes out, half the programs also lose one message
    // in twelve.
    let loss = if !rules_files && g.below(2) == 0 { 0.08 } else { 0.0 };
    let pipe = PipeConfig::lan().with_loss(loss);
    let settings = NodeSettings { max_hops, pipe, ..NodeSettings::default() };
    let sim = SimConfig { seed, max_events: 0 };
    let config = scenario.build_config();
    let tmp = ScratchDir::new("update-start-program");
    let mut net = CoDbNetwork::build_with(config.clone(), sim, settings, true).unwrap();
    net.open_persistence_all(tmp.path(), SyncPolicy::Always).unwrap();
    let log = vec![format!("{topology} {rule_style:?}, max_hops {max_hops}, loss {loss}")];
    let mut p = Program { net, config, shelved: None, tmp, seed, log };

    for _ in 0..6 + g.below(9) {
        match g.below(10) {
            0..=2 => p.insert(&mut g),
            3..=5 => {
                p.update(NodeId(g.below(p.nodes()) as u64))?;
            }
            6 => p.scoped(&mut g),
            7 => p.crash(&mut g)?,
            8..=9 if rules_files => p.rules_file(&mut g)?,
            _ => p.insert(&mut g),
        }
        let step = p.log.last().cloned().unwrap_or_default();
        p.settled(&format!("after {step}"))?;
        p.fetch(&format!("after {step}"))?;
    }
    p.converge()?;
    p.settled("at the end")?;
    p.fetch("at the end")
}

/// Runs a program of local inserts and global updates from random nodes
/// over projection-free rules — no loss, crash, valve or scoped update —
/// to the fixpoint. `Err` where a link shipped other than each firing of
/// its whole view exactly once: such a link keeps no sent set, only its
/// mark, so what it shipped over every update must count the distinct
/// firings of its whole view at the end.
fn run_projection_free_program(seed: u64) -> Result<(), String> {
    let mut g = Gen(seed);
    let topology = match g.below(6) {
        0 => Topology::Ring(3 + g.below(2)),
        1 => Topology::Chain(3 + g.below(3)),
        2 => Topology::Star { leaves: 2 + g.below(3) },
        3 => Topology::Tree { height: 1 + g.below(2) },
        4 => Topology::Grid { w: 2 + g.below(2), h: 2 },
        _ => Topology::RandomDag { n: 4 + g.below(3), p_percent: 50, seed: g.next() },
    };
    let rule_style = g.pick(&[RuleStyle::CopyGav, RuleStyle::FilterGav { threshold: 1 }]);
    let scenario = Scenario {
        topology,
        tuples_per_node: 1 + g.below(4),
        rule_style,
        dist: DataDist::Uniform { domain: 12 },
        seed: g.next(),
    };
    let config = scenario.build_config();
    assert!(config.rules.iter().all(|rule| rule.rule.is_projection_free()));
    let sim = SimConfig { seed, max_events: 0 };
    let net = CoDbNetwork::build_with(config.clone(), sim, NodeSettings::default(), true).unwrap();
    let tmp = ScratchDir::new("update-start-projection-free");
    let log = vec![format!("{topology} {rule_style:?}, no loss")];
    let mut p = Program { net, config, shelved: None, tmp, seed, log };
    for _ in 0..4 + g.below(9) {
        if g.below(2) == 0 {
            p.insert(&mut g);
        } else {
            p.update(NodeId(g.below(p.nodes()) as u64))?;
        }
    }
    p.converge()?;
    for rule in &p.config.rules {
        let source = p.net.node(rule.source);
        let updates = source.report().updates.values();
        let shipped: u64 = updates.filter_map(|u| u.sent.get(rule.name())).map(|t| t.firings).sum();
        let view = rule.rule.fire(source.ldb()).unwrap().len() as u64;
        if shipped != view {
            let what =
                format!("link {} shipped {shipped} firings of a view of {view}", rule.name());
            return Err(p.fail(what));
        }
    }
    p.ledger()
}

/// Case count honouring `PROPTEST_CASES`, as `tests/invariants.rs` does.
fn cases(default: u32) -> u32 {
    std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: crate::cases(96), ..ProptestConfig::default() })]

    /// After every global update that ran its course, every LDB is the
    /// chase's fixpoint up to null renaming.
    #[test]
    fn every_update_reaches_the_fixpoint_whatever_came_before(seed in any::<u64>()) {
        run_program(seed).map_err(TestCaseError::fail)?;
    }

    /// A projection-free link's mark is its whole record: over repeated
    /// updates it ships each distinct firing of its view exactly once.
    #[test]
    fn a_projection_free_link_ships_each_firing_of_its_view_once(seed in any::<u64>()) {
        run_projection_free_program(seed).map_err(TestCaseError::fail)?;
    }
}

/// The programs that caught a deleted mark-clear when this file was
/// written, kept whatever the random draw above becomes: the first two
/// fail if the hop-limit valve moves the marks past what it stopped, the
/// other three if a link a scoped update passes over moves its mark. (The
/// one mark taken back, for firings dropped on a closed link, no harness
/// run reaches; it and the rejoin invalidation are pinned by hand in
/// `codb-core`'s own tests.) The first also fails, against the network
/// that kept nothing, where a server stands by its kept answer because
/// every nested whole came back unchanged, without comparing their tags
/// to the ones that answer recorded: after an insert at node 0, node 1's
/// own query refreshes what it fetched, node 1's next request names the
/// newer tag and hears "unchanged", and node 2's fetch through node 1
/// gets node 1's answer from before the insert. The third also hangs an
/// update (node 2 dies after 7 events, and its neighbours hold links for
/// closes its new incarnation will not send) unless hearing that
/// incarnation, or the adoption requests that follow it, releases them.
/// The last three hang a restarted node that holds for a close its dead
/// incarnation was sent: one in an update its upstream started (which
/// `adopt_all` does not reach), two in an update already over, whose
/// request comes again because only its ack was lost.
#[test]
fn the_programs_that_caught_each_deleted_clear_still_pass() {
    for seed in [
        0xe095_91e0_dbe8_d555,
        0xc34d_0bff_9015_0280,
        0x88b8_94e1_401e_d25b,
        0x5d3e_47ec_ad6e_f3d4,
        0xb1f6_240d_0f58_8371,
        0x1367_1a14_1437_aab9,
        0xeb19_8798_202f_0f68,
        0xfa8a_4da7_7ec4_afd1,
    ] {
        run_program(seed).unwrap_or_else(|e| panic!("{e}"));
    }
}
