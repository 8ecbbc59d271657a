//! The simulation harness: builds a coDB network from a configuration,
//! injects user actions (the demo UI's buttons), runs the simulator to
//! quiescence and extracts results and reports.

use crate::config::{ConfigError, NetworkConfig};
use crate::ids::{NodeId, QueryId, UpdateId};
use crate::messages::{Body, Envelope};
use crate::node::{CoDbNode, NodeSettings};
use crate::query::QueryResult;
use crate::rules::AcyclicLinks;
use crate::stats::{NetworkReport, UpdateSummary};
use codb_net::{PeerId, SimBuilder, SimConfig, SimNet, SimTime};
use codb_relational::{parse_query, ConjunctiveQuery};

/// Peer id used by the harness when injecting control messages.
pub const HARNESS_PEER: PeerId = PeerId(u64::MAX);

/// Outcome of one global update run.
#[derive(Clone, Debug)]
pub struct UpdateOutcome {
    /// The update's id.
    pub update: UpdateId,
    /// Simulated time from injection to network quiescence.
    pub duration: SimTime,
    /// Protocol messages sent during the run (all kinds, acks included).
    pub messages: u64,
    /// Payload bytes sent during the run.
    pub bytes: u64,
    /// Aggregated per-node statistics for this update.
    pub summary: UpdateSummary,
}

/// Outcome of one query run.
#[derive(Clone, Debug)]
pub struct QueryOutcome {
    /// The query's id.
    pub query: QueryId,
    /// The result as delivered to the user.
    pub result: QueryResult,
    /// Simulated time from injection to network quiescence.
    pub duration: SimTime,
    /// Protocol messages sent during the run.
    pub messages: u64,
    /// Payload bytes sent during the run.
    pub bytes: u64,
}

/// A built coDB network running on the deterministic simulator.
pub struct CoDbNetwork {
    sim: SimNet<Envelope, CoDbNode>,
    config: NetworkConfig,
    superpeer: Option<NodeId>,
    settings: NodeSettings,
    /// The shared group-commit fsync scheduler, created lazily the first
    /// time persistence is opened under a
    /// [`codb_store::SyncPolicy::GroupCommit`] policy. One scheduler
    /// serves every node's store on this (single-host) network, and node
    /// restarts rejoin it.
    fsync_sched: Option<codb_store::FsyncScheduler>,
}

impl CoDbNetwork {
    /// Builds the network from `config` (one peer per declared node, pipes
    /// opened per coordination rule) and runs the start events.
    pub fn build(config: NetworkConfig, sim_config: SimConfig) -> Result<Self, ConfigError> {
        Self::build_with(config, sim_config, NodeSettings::default(), false)
    }

    /// [`CoDbNetwork::build`] plus a super-peer holding the configuration
    /// (one extra peer with pipes to every node).
    pub fn build_with_superpeer(
        config: NetworkConfig,
        sim_config: SimConfig,
    ) -> Result<Self, ConfigError> {
        Self::build_with(config, sim_config, NodeSettings::default(), true)
    }

    /// Fully parameterised build.
    pub fn build_with(
        config: NetworkConfig,
        sim_config: SimConfig,
        settings: NodeSettings,
        with_superpeer: bool,
    ) -> Result<Self, ConfigError> {
        config.validate()?;
        // Nodes open their own pipes (one per coordination-rule
        // acquaintance) from `on_start`, so the builder only needs the
        // peer population; pipes still follow `Topology::edges()` via the
        // rules the scenario generator derived from it.
        let acyclic = AcyclicLinks::of(&config.rules);
        let mut nodes: std::collections::HashMap<PeerId, CoDbNode> = config
            .nodes
            .iter()
            .map(|nc| {
                let node = CoDbNode::from_config(nc, &config.rules, &acyclic, settings.clone());
                (nc.id.peer(), node)
            })
            .collect();
        let superpeer = with_superpeer.then(|| {
            let id = NodeId(config.nodes.iter().map(|n| n.id.0 + 1).max().unwrap_or(0));
            let node = CoDbNode::new(
                id,
                "super-peer",
                codb_relational::DatabaseSchema::new(),
                Vec::new(),
                &[],
                settings.clone(),
            )
            .with_superpeer_config(config.clone());
            nodes.insert(id.peer(), node);
            id
        });
        // Spawn in declaration order (super-peer last) — the same event
        // sequence the old hand-rolled add_peer loop produced.
        let sim = SimBuilder::new(sim_config)
            .peers(config.nodes.iter().map(|nc| nc.id.peer()).chain(superpeer.map(|id| id.peer())))
            .spawn(|id| nodes.remove(&id).expect("every registered peer has a node"));
        let mut net = CoDbNetwork { sim, config, superpeer, settings, fsync_sched: None };
        net.sim.run_until_quiescent(); // process start events (pipes, adverts)
        Ok(net)
    }

    /// Attaches a flight-recorder handle to the whole stack: the
    /// simulator (net events), every node (protocol events, including
    /// already-open stores) and the shared group-commit scheduler (fsync
    /// drains). Nodes restarted or persisted later inherit it.
    pub fn attach_tracer(&mut self, tracer: &codb_trace::Tracer) {
        self.sim.attach_tracer(tracer.clone());
        for id in self.sim.peer_ids() {
            if let Some(node) = self.sim.peer_mut(id) {
                node.attach_tracer(tracer);
            }
        }
        if let Some(sched) = &self.fsync_sched {
            sched.attach_tracer(tracer.clone());
        }
    }

    /// The underlying simulator (for failure injection and inspection).
    pub fn sim(&self) -> &SimNet<Envelope, CoDbNode> {
        &self.sim
    }

    /// Mutable simulator access.
    pub fn sim_mut(&mut self) -> &mut SimNet<Envelope, CoDbNode> {
        &mut self.sim
    }

    /// The configuration the network was built from.
    pub fn config(&self) -> &NetworkConfig {
        &self.config
    }

    /// The super-peer's id, if one was created.
    pub fn superpeer(&self) -> Option<NodeId> {
        self.superpeer
    }

    /// Borrow a node.
    pub fn node(&self, id: NodeId) -> &CoDbNode {
        self.sim.peer(id.peer()).expect("node exists")
    }

    /// Resolve a node by configuration name.
    pub fn node_id(&self, name: &str) -> Option<NodeId> {
        self.config.node_by_name(name).map(|n| n.id)
    }

    /// Injects a control message and runs the network to quiescence.
    pub fn run_control(&mut self, to: NodeId, body: Body) -> SimTime {
        let t0 = self.sim.now();
        self.sim.inject(HARNESS_PEER, to.peer(), Envelope::control(body));
        self.sim.run_until_quiescent();
        self.sim.now().saturating_sub(t0)
    }

    /// Starts a global update at `origin` and runs to quiescence.
    pub fn run_update(&mut self, origin: NodeId) -> UpdateOutcome {
        self.run_update_with(origin, Body::StartUpdate)
    }

    /// Starts a query-dependent (scoped) update at `origin`: only data
    /// feeding `relations` is materialised. Returns the outcome.
    pub fn run_scoped_update(&mut self, origin: NodeId, relations: Vec<String>) -> UpdateOutcome {
        self.run_update_with(origin, Body::StartScopedUpdate { relations })
    }

    /// Injects `start` (one of the two update-starting bodies) at `origin`
    /// and measures the update it mints.
    fn run_update_with(&mut self, origin: NodeId, start: Body) -> UpdateOutcome {
        let node = self.node(origin);
        let update = UpdateId { origin, epoch: node.epoch(), seq: node.update_state_seq() };
        let before = self.sim.stats();
        self.run_control(origin, start);
        let after = self.sim.stats();
        // What `network_report().summarise(update)` answers, summed over
        // the nodes' reports where they lie.
        let reports = self.sim.peers().map(|(_, node)| node.report());
        let summary = UpdateSummary::of(update, reports.filter(|r| Some(r.node) != self.superpeer))
            .expect("update ran on at least the origin");
        UpdateOutcome {
            update,
            // Message-driven duration (first start to last close), so idle
            // retransmission timers waiting out their deadline after the
            // work is done don't inflate the measurement.
            duration: summary.total_time,
            // Exclude the injected control message itself.
            messages: after.sent - before.sent - 1,
            bytes: after.bytes_sent - before.bytes_sent,
            summary,
        }
    }

    /// Runs a query at `node`; `fetch` selects query-time network
    /// answering vs. a purely local answer.
    pub fn run_query(
        &mut self,
        node: NodeId,
        query: ConjunctiveQuery,
        fetch: bool,
    ) -> QueryOutcome {
        let n = self.node(node);
        let query_id = QueryId { origin: node, epoch: n.epoch(), seq: n.query_seq() };
        let before = self.sim.stats();
        let t0 = self.sim.now();
        self.run_control(node, Body::StartQuery { query: Box::new(query), fetch });
        let after = self.sim.stats();
        let result = self
            .sim
            .peer_mut(node.peer())
            .expect("node exists")
            .completed_queries
            .remove(&query_id)
            .expect("query completed at quiescence");
        QueryOutcome {
            query: query_id,
            // Time until the answer was assembled (not until the last idle
            // retransmission timer drained).
            duration: result.finished_at.saturating_sub(t0),
            result,
            // Exclude the injected control message itself.
            messages: after.sent - before.sent - 1,
            bytes: after.bytes_sent - before.bytes_sent,
        }
    }

    /// [`CoDbNetwork::run_query`] from query text.
    pub fn run_query_text(
        &mut self,
        node: NodeId,
        query: &str,
        fetch: bool,
    ) -> Result<QueryOutcome, codb_relational::ParseError> {
        Ok(self.run_query(node, parse_query(query)?, fetch))
    }

    /// Super-peer: re-broadcast a (new) configuration, reconfiguring every
    /// node's rules and pipes at runtime.
    pub fn broadcast_rules(&mut self, config: NetworkConfig) -> Result<SimTime, ConfigError> {
        config.validate()?;
        let sp = self.superpeer.expect("network built with a super-peer");
        self.config = config.clone();
        self.sim.peer_mut(sp.peer()).expect("super-peer exists").set_superpeer_config(config);
        Ok(self.run_control(sp, Body::BroadcastRules))
    }

    /// Super-peer: collect statistics from every node over the network and
    /// return the aggregated report.
    pub fn collect_stats(&mut self) -> NetworkReport {
        let sp = self.superpeer.expect("network built with a super-peer");
        self.run_control(sp, Body::CollectStats);
        self.node(sp).collected.clone()
    }

    /// Harness shortcut: assemble the network report by reading every
    /// node's statistics module directly (no messages). The super-peer path
    /// ([`CoDbNetwork::collect_stats`]) is validated against this in tests.
    pub fn network_report(&self) -> NetworkReport {
        let mut report = NetworkReport::default();
        for (_, node) in self.sim.peers() {
            if Some(node.id) == self.superpeer {
                continue;
            }
            let mut r = node.report().clone();
            r.ldb_tuples = node.ldb().tuple_count() as u64;
            report.ingest(r);
        }
        report
    }

    /// Total tuples across all node LDBs.
    pub fn total_tuples(&self) -> usize {
        self.sim.peers().map(|(_, n)| n.ldb().tuple_count()).sum()
    }

    // ---- durability (codb-store) ----

    /// The per-node store directory under a data-dir root: one
    /// subdirectory per node, keyed by the configuration name.
    pub fn node_data_dir(root: &std::path::Path, name: &str) -> std::path::PathBuf {
        root.join(name)
    }

    /// Opens persistence for one node under `dir` (exact directory, not a
    /// root): recovers existing on-disk state or initialises a fresh store
    /// from the node's current state. Returns `Some(stats)` on recovery,
    /// `None` for a fresh store.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not alive (same contract as [`CoDbNetwork::node`];
    /// a crashed node must be restarted via
    /// [`CoDbNetwork::restart_node_from_disk`], not re-attached).
    pub fn open_node_persistence(
        &mut self,
        id: NodeId,
        dir: &std::path::Path,
        policy: codb_store::SyncPolicy,
    ) -> Result<Option<codb_store::RecoveryStats>, codb_store::StoreError> {
        let sched = self.scheduler_for(policy)?;
        self.sim.peer_mut(id.peer()).expect("node exists").open_persistence_with(
            dir,
            policy,
            codb_store::Codec::Binary,
            sched.as_ref(),
        )
    }

    /// The network's shared scheduler for `policy`: lazily created on the
    /// first group-commit open so every node (and every later restart)
    /// joins the same batching point; `None` for per-store policies. A
    /// later group-commit open asking for *different* thresholds is a
    /// typed [`codb_store::StoreError::SchedulerMismatch`] — silently
    /// joining the existing scheduler would hand the store a durability
    /// ack window it never agreed to.
    fn scheduler_for(
        &mut self,
        policy: codb_store::SyncPolicy,
    ) -> Result<Option<codb_store::FsyncScheduler>, codb_store::StoreError> {
        let codb_store::SyncPolicy::GroupCommit { max_batch, max_records } = policy else {
            return Ok(None);
        };
        match &self.fsync_sched {
            Some(sched) if sched.max_batch() == max_batch && sched.max_records() == max_records => {
                Ok(Some(sched.clone()))
            }
            // A scheduler no store ever joined (e.g. the open that
            // created it failed) pins nothing: replace it freely.
            Some(sched) if sched.stats().registered > 0 => {
                Err(codb_store::StoreError::SchedulerMismatch {
                    existing: codb_store::SyncPolicy::GroupCommit {
                        max_batch: sched.max_batch(),
                        max_records: sched.max_records(),
                    }
                    .to_string(),
                    requested: policy.to_string(),
                })
            }
            _ => {
                let sched = codb_store::FsyncScheduler::for_policy(policy);
                self.fsync_sched = sched.clone();
                Ok(sched)
            }
        }
    }

    /// The shared group-commit fsync scheduler, if persistence was opened
    /// under [`codb_store::SyncPolicy::GroupCommit`] — the E18 hook for
    /// reading drain/fsync counters and for explicit end-of-round
    /// flushes ([`codb_store::FsyncScheduler::flush_all`]).
    pub fn fsync_scheduler(&self) -> Option<&codb_store::FsyncScheduler> {
        self.fsync_sched.as_ref()
    }

    /// Opens persistence for every configured node under
    /// `root/<node-name>`. Returns the names of nodes whose state was
    /// recovered from disk (the rest were freshly initialised).
    ///
    /// Under [`codb_store::SyncPolicy::GroupCommit`] this constructs
    /// **one** [`codb_store::FsyncScheduler`] shared by all nodes (see
    /// [`CoDbNetwork::fsync_scheduler`]): the whole single-host
    /// deployment batches its WAL fsyncs through a single host-wide
    /// policy instead of paying one independent fsync stream per store.
    pub fn open_persistence_all(
        &mut self,
        root: &std::path::Path,
        policy: codb_store::SyncPolicy,
    ) -> Result<Vec<String>, codb_store::StoreError> {
        let nodes: Vec<(NodeId, String)> =
            self.config.nodes.iter().map(|n| (n.id, n.name.clone())).collect();
        let mut recovered = Vec::new();
        for (id, name) in nodes {
            if self.open_node_persistence(id, &Self::node_data_dir(root, &name), policy)?.is_some()
            {
                recovered.push(name);
            }
        }
        Ok(recovered)
    }

    /// Checkpoints one node's store (snapshot + WAL rotation/compaction).
    /// Returns `false` when the node has no store attached.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not alive (same contract as [`CoDbNetwork::node`]).
    pub fn checkpoint_node(&mut self, id: NodeId) -> Result<bool, codb_store::StoreError> {
        self.sim.peer_mut(id.peer()).expect("node exists").checkpoint()
    }

    /// Kills a node: its in-memory state (including protocol caches and
    /// any attached store handle) is dropped, its pipes close, in-flight
    /// messages to it are discarded. Durable state stays on disk. Returns
    /// `false` when the node was not present.
    pub fn crash_node(&mut self, id: NodeId) -> bool {
        self.sim.remove_peer(id.peer()).is_some()
    }

    /// Restarts a crashed (or departed) node from its data directory: the
    /// node is rebuilt from the configuration, its state recovered from
    /// disk (snapshot + WAL replay, including the protocol counters;
    /// recovery replaces the configured seed data), and re-added to the
    /// network. Start events run before this returns — pipe opening,
    /// advertisement, and the crash rejoin handshake ([`crate::rejoin`]):
    /// the node announces its new incarnation epoch and every neighbor
    /// invalidates the sent caches pointed at it. A restarted
    /// node is a first-class peer again — it may initiate updates and
    /// queries (its persisted counters resume the id space, and
    /// `(epoch, seq)`-keyed ids cannot collide with the dead
    /// incarnation's even if the counters were lost). Returns the
    /// recovery summary (generation, WAL records replayed, torn-tail
    /// flag, epoch).
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a configured node, or if it is alive: a
    /// second store on a live node's directory would be a second WAL
    /// writer. [`CoDbNetwork::crash_node`] it first (a live node
    /// re-attaches through [`CoDbNetwork::open_node_persistence`]).
    pub fn restart_node_from_disk(
        &mut self,
        id: NodeId,
        dir: &std::path::Path,
        policy: codb_store::SyncPolicy,
    ) -> Result<codb_store::RecoveryStats, codb_store::StoreError> {
        let stats = self.restart_node_from_disk_live(id, dir, policy)?;
        self.sim.run_until_quiescent();
        Ok(stats)
    }

    /// [`CoDbNetwork::restart_node_from_disk`] without the trailing drain:
    /// the restarted node is re-added and its start events (pipe opening,
    /// the `Rejoin` announcement) are *scheduled* but not run to
    /// quiescence. This is the fault-injection hook for restarting a node
    /// **mid-round**, so its rejoin handshake — and the barrier release +
    /// repair it triggers at every neighbor — interleaves with live
    /// update traffic instead of running in a conveniently idle network.
    ///
    /// # Panics
    ///
    /// As [`CoDbNetwork::restart_node_from_disk`]: `id` must be a
    /// configured node that is not alive.
    pub fn restart_node_from_disk_live(
        &mut self,
        id: NodeId,
        dir: &std::path::Path,
        policy: codb_store::SyncPolicy,
    ) -> Result<codb_store::RecoveryStats, codb_store::StoreError> {
        let nc = self
            .config
            .nodes
            .iter()
            .find(|n| n.id == id)
            .unwrap_or_else(|| panic!("node {id:?} not in configuration"));
        // Before the store is touched: opening it bumps the epoch file
        // and starts a second writer on the live node's WAL.
        assert!(
            self.sim.peer(id.peer()).is_none(),
            "node {id:?} is alive; crash it before restarting it from disk"
        );
        if !codb_store::Store::exists(dir) {
            // An empty data dir means there is nothing to restart from;
            // refuse rather than silently rejoin with an empty database.
            return Err(codb_store::StoreError::NoState { dir: dir.to_owned() });
        }
        let rules = &self.config.rules;
        let mut node =
            CoDbNode::from_config(nc, rules, &AcyclicLinks::of(rules), self.settings.clone());
        // The new incarnation keeps recording into the same trace (rejoin
        // steps are exactly what a postmortem wants to see).
        if self.sim.tracer().is_enabled() {
            node.attach_tracer(&self.sim.tracer().clone());
        }
        // A restart rejoins the network's shared fsync scheduler (if the
        // policy batches group-wide), so a recovered node's appends
        // coalesce with its peers' again.
        let sched = self.scheduler_for(policy)?;
        let stats = node
            .open_persistence_with(dir, policy, codb_store::Codec::Binary, sched.as_ref())?
            .expect("Store::exists checked above, so open_persistence recovers");
        self.sim.add_peer(id.peer(), node);
        Ok(stats)
    }
}

impl CoDbNode {
    /// Next update sequence number (harness peek).
    pub(crate) fn update_state_seq(&self) -> u64 {
        self.next_update_seq
    }

    /// Next query sequence number (harness peek).
    pub(crate) fn query_seq(&self) -> u64 {
        self.next_query_seq
    }

    /// Replaces the super-peer configuration (harness only).
    pub(crate) fn set_superpeer_config(&mut self, config: NetworkConfig) {
        self.superpeer_config = Some(config);
    }
}
