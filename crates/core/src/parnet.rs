//! The production network on the sharded threaded runtime.
//!
//! [`ParallelCoDbNet`] is the threaded sibling of [`CoDbNetwork`]: the same
//! [`CoDbNode`] state machines, built from the same [`NetworkConfig`], but
//! scheduled by [`codb_net::ParallelNet`] — N worker threads multiplexing
//! the node population over bounded mailboxes — instead of the
//! discrete-event simulator. Nothing in the node is runtime-specific
//! (`Peer<Envelope>` is the whole contract), so a scenario can be validated
//! under the simulator and then driven at wall-clock speed here, or vice
//! versa, and the fixpoints must agree (pinned by the `system` tests).
//!
//! Ingest flows through the message plane: [`ParallelCoDbNet::ingest`]
//! injects [`Body::IngestLocal`] from [`HARNESS_PEER`] rather than touching
//! the node directly, because under this runtime the workers own the node
//! state — there is no `&mut` access from the harness thread while the
//! pool is live. The same body works under the simulator, which keeps
//! workload drivers runtime-agnostic.
//!
//! Durability mirrors [`CoDbNetwork`]: persistence is opened *before* the
//! node is handed to the pool, and under
//! [`codb_store::SyncPolicy::GroupCommit`] every store joins **one** shared
//! [`codb_store::FsyncScheduler`] so the whole single-host deployment
//! batches its WAL fsyncs through a single host-wide policy.

use crate::config::{ConfigError, NetworkConfig};
use crate::ids::NodeId;
use crate::messages::{Body, Envelope};
use crate::network::{CoDbNetwork, HARNESS_PEER};
use crate::node::{CoDbNode, NodeSettings};
use crate::rules::AcyclicLinks;
use codb_net::{ParallelNet, RuntimeConfig};
use std::collections::BTreeMap;
use std::time::Duration;

/// Errors from building a [`ParallelCoDbNet`].
#[derive(Debug)]
pub enum ParNetError {
    /// The [`NetworkConfig`] failed validation.
    Config(ConfigError),
    /// Opening a node's persistent store failed.
    Store(codb_store::StoreError),
}

impl std::fmt::Display for ParNetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParNetError::Config(e) => write!(f, "invalid network config: {e}"),
            ParNetError::Store(e) => write!(f, "store error: {e}"),
        }
    }
}

impl std::error::Error for ParNetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ParNetError::Config(e) => Some(e),
            ParNetError::Store(e) => Some(e),
        }
    }
}

impl From<ConfigError> for ParNetError {
    fn from(e: ConfigError) -> Self {
        ParNetError::Config(e)
    }
}

impl From<codb_store::StoreError> for ParNetError {
    fn from(e: codb_store::StoreError) -> Self {
        ParNetError::Store(e)
    }
}

/// Per-node recovery outcome from [`ParallelCoDbNet::build_persistent`],
/// in configuration order: `Some(stats)` = recovered from disk, `None` =
/// fresh store.
pub type RecoveryOutcomes = Vec<(NodeId, Option<codb_store::RecoveryStats>)>;

/// A coDB network running on the sharded worker pool: the threaded
/// counterpart of [`CoDbNetwork`]. See the [module docs](self) for how the
/// two relate.
pub struct ParallelCoDbNet {
    net: ParallelNet<Envelope, CoDbNode>,
    config: NetworkConfig,
    fsync_sched: Option<codb_store::FsyncScheduler>,
}

impl ParallelCoDbNet {
    /// Builds the network with default node settings. Every configured
    /// node is registered before any `on_start` runs (batch registration),
    /// so start-time traffic cannot race peer registration order.
    pub fn build(config: NetworkConfig, rt: RuntimeConfig) -> Result<Self, ParNetError> {
        Self::build_with(config, rt, NodeSettings::default())
    }

    /// [`ParallelCoDbNet::build`] with explicit [`NodeSettings`].
    pub fn build_with(
        config: NetworkConfig,
        rt: RuntimeConfig,
        settings: NodeSettings,
    ) -> Result<Self, ParNetError> {
        Self::build_nodes(config, rt, settings, None, |_| Ok(()))
    }

    /// Builds the network with persistence opened for every node under
    /// `root/<node-name>` *before* the node joins the pool: existing
    /// on-disk state is recovered (the node then announces rejoin from
    /// `on_start` — safe because registration is batched), fresh state is
    /// initialised from the configured seed data.
    ///
    /// Returns the per-node recovery stats in configuration order
    /// (`Some` = recovered from disk, `None` = fresh store). Under
    /// [`codb_store::SyncPolicy::GroupCommit`] all stores share one
    /// [`codb_store::FsyncScheduler`], reachable via
    /// [`ParallelCoDbNet::fsync_scheduler`].
    pub fn build_persistent(
        config: NetworkConfig,
        rt: RuntimeConfig,
        settings: NodeSettings,
        root: &std::path::Path,
        policy: codb_store::SyncPolicy,
        codec: codb_store::Codec,
    ) -> Result<(Self, RecoveryOutcomes), ParNetError> {
        let sched = codb_store::FsyncScheduler::for_policy(policy);
        let mut recovered = Vec::with_capacity(config.nodes.len());
        let parnet = Self::build_nodes(config, rt, settings, sched.clone(), |node| {
            let dir = CoDbNetwork::node_data_dir(root, &node.name);
            let stats = node.open_persistence_with(&dir, policy, codec, sched.as_ref())?;
            recovered.push((node.id, stats));
            Ok(())
        })?;
        Ok((parnet, recovered))
    }

    /// The one builder: validates, makes every configured node, lets
    /// `prepare` finish each before any joins the pool, registers them in
    /// one batch and lets the start events (pipe opens, adverts) settle,
    /// mirroring the simulator builder's `run_until_quiescent`.
    fn build_nodes(
        config: NetworkConfig,
        rt: RuntimeConfig,
        settings: NodeSettings,
        fsync_sched: Option<codb_store::FsyncScheduler>,
        mut prepare: impl FnMut(&mut CoDbNode) -> Result<(), ParNetError>,
    ) -> Result<Self, ParNetError> {
        config.validate()?;
        let mut nodes = Vec::with_capacity(config.nodes.len());
        let acyclic = AcyclicLinks::of(&config.rules);
        for nc in &config.nodes {
            let mut node = CoDbNode::from_config(nc, &config.rules, &acyclic, settings.clone());
            prepare(&mut node)?;
            nodes.push((nc.id.peer(), node));
        }
        let mut net = ParallelNet::with_config(rt);
        net.add_peers(nodes);
        let parnet = ParallelCoDbNet { net, config, fsync_sched };
        parnet.await_quiescence(Duration::from_millis(20), Duration::from_secs(30));
        Ok(parnet)
    }

    /// The network configuration this net was built from.
    pub fn config(&self) -> &NetworkConfig {
        &self.config
    }

    /// Number of worker threads in the pool.
    pub fn worker_count(&self) -> usize {
        self.net.worker_count()
    }

    /// Injects a harness control message to `to` (from [`HARNESS_PEER`]).
    /// Blocks under backpressure if the target's mailbox is full.
    pub fn control(&self, to: NodeId, body: Body) {
        self.net.inject(HARNESS_PEER, to.peer(), Envelope::control(body));
    }

    /// Ingests one tuple at `node` through the message plane
    /// ([`Body::IngestLocal`]): the insert is applied, WAL-logged when
    /// persistent, and becomes visible to the next update round. A
    /// schema-rejected tuple is counted in the node's report
    /// (`ingest_rejected`), not panicked on.
    pub fn ingest(&self, node: NodeId, relation: &str, tuple: codb_relational::Tuple) {
        self.control(node, Body::IngestLocal { relation: relation.to_string(), tuple });
    }

    /// Triggers an update round originating at `origin`. Use
    /// [`ParallelCoDbNet::await_quiescence`] to wait for the fixpoint.
    pub fn start_update(&self, origin: NodeId) {
        self.control(origin, Body::StartUpdate);
    }

    /// Blocks until the network has been idle (zero in-flight work) for a
    /// full `settle` window, or `deadline` elapses. Returns `true` on
    /// quiescence.
    pub fn await_quiescence(&self, settle: Duration, deadline: Duration) -> bool {
        self.net.await_quiescence(settle, deadline)
    }

    /// Total messages delivered to nodes since construction.
    pub fn delivered(&self) -> u64 {
        self.net.delivered()
    }

    /// Messages that could not be delivered (no pipe, or a peer the pool
    /// never registered). A healthy steady-state network reports zero.
    pub fn undeliverable(&self) -> u64 {
        self.net.undeliverable()
    }

    /// The deepest any node's mailbox has been — bounded by the
    /// configured [`RuntimeConfig::mailbox_depth`].
    pub fn max_mailbox_depth(&self) -> usize {
        self.net.max_mailbox_depth()
    }

    /// The shared group-commit fsync scheduler, if built via
    /// [`ParallelCoDbNet::build_persistent`] under
    /// [`codb_store::SyncPolicy::GroupCommit`].
    pub fn fsync_scheduler(&self) -> Option<&codb_store::FsyncScheduler> {
        self.fsync_sched.as_ref()
    }

    /// Stops the pool and returns every node's final state, keyed by
    /// [`NodeId`]. Outstanding mail is **not** drained — call
    /// [`ParallelCoDbNet::await_quiescence`] first for a graceful stop;
    /// skipping it models a host crash (exactly what the durability
    /// harness wants: only fsynced WAL survives).
    pub fn shutdown(self) -> BTreeMap<NodeId, CoDbNode> {
        self.net.shutdown().into_iter().map(|(pid, node)| (NodeId::from(pid), node)).collect()
    }
}
