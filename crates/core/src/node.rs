//! The coDB node: Local Database + Database Schema + P2P layer.
//!
//! One [`CoDbNode`] is the paper's Figure-1 stack: the LDB/Wrapper role is
//! played by a [`codb_relational::Instance`], the Database Manager by the
//! dispatch in this module plus the update ([`crate::update`]) and query
//! ([`crate::query`]) engines, and the JXTA layer by whichever
//! `codb-net` runtime hosts the node. The "UI" is the public API invoked
//! by harness-injected control messages.

use crate::config::NetworkConfig;
use crate::ids::{NodeId, QueryId, ReqId, RuleName, UpdateId};
use crate::messages::{Body, Envelope};
use crate::query::{KeptFetch, QueryExec, QueryResult, Serving, Whole};
use crate::rejoin::Continuity;
use crate::reliable::{Answer, Owed, Receipt, Reliable};
use crate::rules::{AcyclicLinks, CoordinationRule, RuleBook};
use crate::stats::{Kind, NetworkReport, NodeReport};
use crate::update::{Batch, SentCache, UpdateState};
use codb_net::{Context, Peer, PeerId, PipeConfig, SimTime};
use codb_relational::{ConjunctiveQuery, DatabaseSchema, Instance, NullFactory, Tuple};
use codb_trace::Tracer;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Tunables of one node.
#[derive(Clone, Debug)]
pub struct NodeSettings {
    /// ARQ retransmission interval.
    pub retransmit_after: SimTime,
    /// Chase-depth safety valve: update data or rejoin repair whose
    /// propagation path would exceed this many hops is not propagated
    /// further (guards against non-weakly-acyclic rule sets whose chase
    /// diverges; see "Termination" in [`crate::update`]).
    pub max_hops: u64,
    /// Pipe parameters used when this node opens pipes to acquaintances.
    pub pipe: PipeConfig,
}

impl Default for NodeSettings {
    fn default() -> Self {
        NodeSettings {
            retransmit_after: SimTime::from_millis(250),
            max_hops: 100_000,
            pipe: PipeConfig::lan(),
        }
    }
}

/// Timer id used by the retransmission loop.
pub(crate) const TIMER_RETRANSMIT: u64 = 1;

/// A coDB database peer.
pub struct CoDbNode {
    /// This node's identity.
    pub id: NodeId,
    /// Human-readable name (from the configuration file).
    pub name: String,
    pub(crate) ldb: Instance,
    pub(crate) schema: DatabaseSchema,
    pub(crate) nulls: NullFactory,
    /// Shared so a handler can hold the book while it changes the node; a
    /// rules file replaces the handle ([`CoDbNode::install_book`]).
    pub(crate) book: Arc<RuleBook>,
    pub(crate) settings: NodeSettings,
    pub(crate) config_version: u64,
    pub(crate) reliable: Reliable,
    pub(crate) retransmit_armed: bool,
    // ---- update engine ----
    pub(crate) updates: BTreeMap<UpdateId, UpdateState>,
    pub(crate) next_update_seq: u64,
    /// What the sender side remembers per link of `book` (indexed by
    /// [`crate::rules::LinkId`]): the firings already shipped, and how far
    /// into the LDB's relations they cover.
    pub(crate) sent_cache: Vec<SentCache>,
    /// Receiver-side per-link template caches (always cross-update).
    pub(crate) recv_cache: codb_store::RecvCaches,
    // ---- query engine ----
    pub(crate) next_query_seq: u64,
    pub(crate) next_req_seq: u64,
    pub(crate) queries: BTreeMap<QueryId, QueryExec>,
    pub(crate) serving: BTreeMap<ReqId, Serving>,
    /// Each fetch request in flight: who it was issued for, the link it
    /// fetches, and how many of its instalments have arrived.
    pub(crate) nested_parent: BTreeMap<ReqId, crate::query::Nested>,
    /// The last whole answer fetched on each outgoing link, by name: what
    /// the next request on the link names by its tag.
    pub(crate) fetched: BTreeMap<RuleName, Whole>,
    /// The last answer a fetch here assembled, with what it was computed
    /// from: a fetch over the same key stands by it (`crate::query`,
    /// "Where a fetch's answer lives at its origin").
    pub(crate) kept_fetch: Option<Arc<KeptFetch>>,
    /// Finished query results. A result waits here until the driver takes
    /// it: [`CoDbNetwork::run_query`](crate::CoDbNetwork::run_query)
    /// removes the one it ran; a harness that injects `StartQuery` itself
    /// reads (or removes) its own.
    pub completed_queries: BTreeMap<QueryId, QueryResult>,
    /// Peers discovered on the advertisement board (Figure 3 of the
    /// paper: "which other nodes (not acquaintances) it has discovered").
    pub discovered: std::collections::BTreeSet<NodeId>,
    // ---- crash rejoin (see crate::rejoin) ----
    /// Set when this node recovered from disk and has not yet announced
    /// its new incarnation; cleared once the `Rejoin` round is posted.
    pub(crate) pending_rejoin: bool,
    /// How far this node's relation logs continue those of its earlier
    /// incarnations: what a position a peer reports back is checked
    /// against before a repair starts from it.
    pub(crate) continuity: Continuity,
    // ---- statistics module ----
    pub(crate) report: NodeReport,
    // ---- super-peer role ----
    pub(crate) superpeer_config: Option<NetworkConfig>,
    /// Statistics collected from the network (super-peer only).
    pub collected: NetworkReport,
    // ---- durability (codb-store) ----
    /// Attached store; when present, every applied update delta and local
    /// insert is WAL-logged so the node can crash and rejoin.
    pub(crate) persist: Option<codb_store::Store>,
    /// First storage error, latched; the store detaches on error so a
    /// diverged log never keeps growing silently.
    pub(crate) persist_error: Option<String>,
    /// Flight-recorder handle (disabled by default): update applies, rule
    /// firings, DS credit movements and rejoin steps emit typed events.
    pub(crate) tracer: Tracer,
}

impl CoDbNode {
    /// Creates a node with the given shared schema, seed data and the rules
    /// it participates in.
    pub fn new(
        id: NodeId,
        name: impl Into<String>,
        schema: DatabaseSchema,
        data: Vec<(String, Tuple)>,
        rules: &[CoordinationRule],
        settings: NodeSettings,
    ) -> Self {
        Self::with_book(id, name, schema, data, RuleBook::for_node(id, rules), settings)
    }

    /// [`CoDbNode::new`] over a book its caller built.
    fn with_book(
        id: NodeId,
        name: impl Into<String>,
        schema: DatabaseSchema,
        data: Vec<(String, Tuple)>,
        book: RuleBook,
        settings: NodeSettings,
    ) -> Self {
        let mut ldb = Instance::with_schema(&schema);
        for (rel, tuple) in data {
            ldb.insert(&rel, tuple).expect("seed data validated by config");
        }
        CoDbNode {
            id,
            name: name.into(),
            ldb,
            schema,
            nulls: NullFactory::new(id.0),
            sent_cache: vec![SentCache::default(); book.len()],
            book: Arc::new(book),
            settings,
            config_version: 0,
            reliable: Reliable::new(),
            retransmit_armed: false,
            updates: BTreeMap::new(),
            next_update_seq: 0,
            recv_cache: BTreeMap::new(),
            next_query_seq: 0,
            next_req_seq: 0,
            queries: BTreeMap::new(),
            serving: BTreeMap::new(),
            nested_parent: BTreeMap::new(),
            fetched: BTreeMap::new(),
            kept_fetch: None,
            completed_queries: BTreeMap::new(),
            discovered: std::collections::BTreeSet::new(),
            pending_rejoin: false,
            continuity: Continuity::default(),
            report: NodeReport::new(id),
            superpeer_config: None,
            collected: NetworkReport::default(),
            persist: None,
            persist_error: None,
            tracer: Tracer::disabled(),
        }
    }

    /// The node `nc` declares: its id, name, schema and seed data, with the
    /// rules of `rules` it participates in, whose link graph `acyclic`
    /// peeled. (A restart from disk builds the node the same way; recovery
    /// then replaces the seeded LDB.)
    pub(crate) fn from_config(
        nc: &crate::config::NodeConfig,
        rules: &[CoordinationRule],
        acyclic: &AcyclicLinks,
        settings: NodeSettings,
    ) -> Self {
        let book = RuleBook::for_node_in(nc.id, rules, acyclic);
        Self::with_book(nc.id, &nc.name, nc.schema.clone(), nc.data.clone(), book, settings)
    }

    /// Attaches a flight-recorder handle to this node (and to its store,
    /// if one is already open). Events carry the node id; string fields
    /// (rule names, store paths) go through the tracer's intern table.
    pub fn attach_tracer(&mut self, tracer: &Tracer) {
        if let Some(store) = &mut self.persist {
            store.attach_tracer(tracer);
        }
        self.tracer = tracer.clone();
    }

    /// Marks this node as the super-peer holding `config`.
    pub fn with_superpeer_config(mut self, config: NetworkConfig) -> Self {
        self.superpeer_config = Some(config);
        self
    }

    /// The Local Database.
    pub fn ldb(&self) -> &Instance {
        &self.ldb
    }

    /// The shared Database Schema.
    pub fn schema(&self) -> &DatabaseSchema {
        &self.schema
    }

    /// This node's rule book (links).
    pub fn rule_book(&self) -> &RuleBook {
        &self.book
    }

    /// The statistics module's current report ("each node maintains a
    /// global update processing report and makes it available for the user
    /// on request").
    pub fn report(&self) -> &NodeReport {
        &self.report
    }

    /// Answers a query purely from the LDB, without touching the network —
    /// what a local query costs *after* a global update has materialised
    /// everything.
    pub fn local_answer(
        &self,
        query: &ConjunctiveQuery,
    ) -> Result<Vec<Tuple>, codb_relational::eval::EvalError> {
        codb_relational::answer_query(query, &self.ldb)
    }

    /// The update state for `update`, if this node has seen it.
    pub fn update_state(&self, update: UpdateId) -> Option<&UpdateState> {
        self.updates.get(&update)
    }

    /// Every update this node holds a state for, in id order.
    pub fn update_states(&self) -> impl Iterator<Item = &UpdateState> {
        self.updates.values()
    }

    /// Captures a durable snapshot of the LDB plus the null factory (see
    /// [`codb_relational::Snapshot`]).
    pub fn snapshot(&self) -> codb_relational::Snapshot {
        codb_relational::Snapshot::capture(&self.ldb, &self.nulls)
    }

    /// Marked nulls this node's factory has invented so far (a cheap read
    /// — comparing factory counters does not require capturing a
    /// snapshot).
    pub fn nulls_invented(&self) -> u64 {
        self.nulls.invented()
    }

    /// Restores a snapshot, replacing the LDB and null-factory state.
    /// Does **not** write an attached store; use
    /// [`CoDbNode::open_persistence`] for disk-backed recovery. The
    /// restored relations are of new lineages, so no link's mark answers
    /// for them: the next update start fires every link whole
    /// ([`crate::update`], "What changed since"), and no mark a peer
    /// reports from before the restore is trusted ([`crate::rejoin`]).
    pub fn restore(&mut self, snapshot: codb_relational::Snapshot) {
        self.ldb = snapshot.instance;
        self.nulls = snapshot.nulls;
        self.break_continuity();
    }

    /// Opens durable persistence rooted at `dir`: recovers existing state
    /// (latest valid snapshot + WAL-tail replay, including the
    /// receiver-side dedup caches and the protocol counters) when the
    /// directory holds a store, otherwise initialises a fresh store from
    /// the node's current state. From then on every applied update delta,
    /// local insert and id-counter bump is WAL-logged. Returns
    /// `Some(stats)` when state was recovered from disk, `None` when a
    /// fresh store was initialised.
    ///
    /// The store writes binary; an existing store recovers whatever
    /// encodings its files carry (each file's format byte wins), and a
    /// legacy JSON one is converted to binary as it opens.
    ///
    /// A recovery marks the node rejoin-pending: the `Rejoin`
    /// announcement ([`crate::rejoin`]) is posted on the node's next
    /// start — or, when persistence is opened on an already-started
    /// network, on its next event of any kind. A neighbour drops its sent
    /// caches toward this node on the first envelope of the new epoch it
    /// hears, the announcement or anything sent before it, and repairs
    /// those links on the announcement, from the marks it reports
    /// ([`crate::rejoin`]).
    pub fn open_persistence(
        &mut self,
        dir: &std::path::Path,
        policy: codb_store::SyncPolicy,
    ) -> Result<Option<codb_store::RecoveryStats>, codb_store::StoreError> {
        self.open_persistence_with(dir, policy, codb_store::Codec::Binary, None)
    }

    /// [`CoDbNode::open_persistence`] with an optional shared group-commit
    /// scheduler: under [`codb_store::SyncPolicy::GroupCommit`] the
    /// node's WAL joins `group`, coalescing its fsyncs with every other
    /// store registered there (the many-node single-host amortisation;
    /// `CoDbNetwork::open_persistence_all` shares one scheduler across
    /// all nodes this way). Ignored for per-store policies.
    ///
    /// `codec` must be [`codb_store::Codec::Binary`]
    /// ([`codb_store::Codec::writable`]); the argument stays only while
    /// `benchmark/` passes it, and goes when the benchmark next changes
    /// (ROADMAP item 6).
    pub fn open_persistence_with(
        &mut self,
        dir: &std::path::Path,
        policy: codb_store::SyncPolicy,
        codec: codb_store::Codec,
        group: Option<&codb_store::FsyncScheduler>,
    ) -> Result<Option<codb_store::RecoveryStats>, codb_store::StoreError> {
        codec.writable()?;
        if codb_store::Store::exists(dir) {
            let (store, recovered) = codb_store::Store::open_with(dir, policy, group)?;
            let stats = recovered.stats();
            self.ldb = recovered.instance;
            self.nulls = recovered.nulls;
            self.recv_cache = recovered.recv_cache;
            self.continuity = Continuity::recovered(&self.ldb);
            // Resume (not restart) the protocol id space: the persisted
            // counters pick up where the dead incarnation stopped, so a
            // recovered node can initiate updates and queries again.
            self.next_update_seq = recovered.counters.update_seq;
            self.next_query_seq = recovered.counters.query_seq;
            self.next_req_seq = recovered.counters.req_seq;
            // New incarnation: stamp a higher epoch on outgoing envelopes
            // so peers reset their per-sender duplicate state (this node's
            // transport sequence numbers start over), and announce the
            // incarnation to acquaintances on start (crate::rejoin).
            self.reliable.set_epoch(recovered.epoch);
            self.pending_rejoin = true;
            self.adopt_store(store);
            Ok(Some(stats))
        } else {
            let store = codb_store::Store::create_with(
                dir,
                &self.snapshot(),
                &self.recv_cache,
                &self.counters(),
                policy,
                group,
            )?;
            self.adopt_store(store);
            Ok(None)
        }
    }

    /// Installs a freshly opened store, inheriting this node's tracer so a
    /// recorder attached before `open_persistence` still sees WAL events.
    fn adopt_store(&mut self, mut store: codb_store::Store) {
        if self.tracer.is_enabled() {
            store.attach_tracer(&self.tracer);
        }
        self.persist = Some(store);
    }

    /// The attached store, if any.
    pub fn store(&self) -> Option<&codb_store::Store> {
        self.persist.as_ref()
    }

    /// The first storage error, if logging ever failed (the store detaches
    /// itself at that point).
    pub fn persist_error(&self) -> Option<&str> {
        self.persist_error.as_deref()
    }

    /// Checkpoint: snapshots the current state to disk and rotates /
    /// compacts the WAL. Returns `false` when no store is attached.
    pub fn checkpoint(&mut self) -> Result<bool, codb_store::StoreError> {
        let snap = self.snapshot();
        let counters = self.counters();
        match &mut self.persist {
            Some(store) => {
                store.checkpoint(&snap, &self.recv_cache, &counters)?;
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// This node's incarnation epoch, as stamped on its envelopes and
    /// minted into its update/query ids (0 until a store recovery bumps
    /// it).
    pub fn epoch(&self) -> u64 {
        self.reliable.epoch()
    }

    /// The protocol counters as a durable record (each field is the next
    /// value to hand out).
    pub(crate) fn counters(&self) -> codb_store::ProtocolCounters {
        codb_store::ProtocolCounters {
            update_seq: self.next_update_seq,
            query_seq: self.next_query_seq,
            req_seq: self.next_req_seq,
        }
    }

    /// WAL-logs the current protocol counters (called after every id
    /// mint, so a recovered node resumes its id space; cheap — id mints
    /// are rare next to data traffic).
    pub(crate) fn log_counters(&mut self) {
        if self.persist.is_some() {
            let record = codb_store::WalRecord::Counters { counters: self.counters() };
            self.log_wal(record);
        }
    }

    /// WAL-logs `record`, latching the first storage error and detaching
    /// the store (a log that missed a record must not keep growing).
    pub(crate) fn log_wal(&mut self, record: codb_store::WalRecord) {
        if let Some(store) = &mut self.persist {
            if let Err(e) = store.append(&record) {
                self.persist_error = Some(e.to_string());
                self.persist = None;
            }
        }
    }

    /// Local write (the demo UI's data entry): inserts one tuple into the
    /// LDB. The data propagates on the next global update, which finds it
    /// in the relation's log.
    pub fn insert_local(
        &mut self,
        relation: &str,
        tuple: Tuple,
    ) -> Result<bool, codb_relational::SchemaError> {
        let record = self.persist.is_some().then(|| codb_store::WalRecord::LocalInsert {
            relation: relation.to_owned(),
            tuple: tuple.clone(),
        });
        let added = self.ldb.insert(relation, tuple)?;
        if added {
            if let Some(record) = record {
                self.log_wal(record);
            }
        }
        Ok(added)
    }

    // ---- plumbing shared by the engines ----

    /// Sends `body` to `to` reliably: assigns a transport seq, records the
    /// message for retransmission, bumps Dijkstra–Scholten deficit when
    /// applicable, counts statistics, arms the retransmit timer. If this
    /// callback owes `to` an ack, the envelope takes it along. A peer
    /// behind the rejoin barrier still gets new sends — they double as
    /// liveness probes (a healed partition has no handshake to wait for)
    /// and park alongside the held backlog only if they, too, exhaust
    /// their retransmission budget.
    pub(crate) fn post(&mut self, ctx: &mut Context<Envelope>, to: NodeId, body: Body) {
        if body.is_ds_counted() {
            if let Some(u) = body.update_id() {
                self.update_entry(u).deficit += 1;
            }
        }
        self.report.count_sent(body.kind());
        let env = self.reliable.wrap(to, body);
        ctx.send(to.peer(), env);
        self.arm_retransmit(ctx);
    }

    /// Lifts the rejoin barrier toward `peer` (any message from it proves
    /// the peer is reachable again): re-sends every parked message in seq
    /// order under the original seqs and re-arms retransmission. No-op
    /// unless the peer was barred.
    pub(crate) fn release_barrier(&mut self, ctx: &mut Context<Envelope>, peer: NodeId) {
        if !self.reliable.is_barred(peer) {
            return;
        }
        let released = self.reliable.release_peer(peer);
        let count = released.len() as u64;
        for (to, env) in released {
            self.report.count_sent(Kind::BarrierReleased);
            ctx.send(to.peer(), env);
        }
        self.tracer.emit_with(|| codb_trace::TraceEvent::BarrierRelease {
            peer: self.id.0,
            toward: peer.0,
            released: count,
        });
        self.arm_retransmit(ctx);
    }

    /// Sends the owed ack alone, as a bare [`Body::Ack`]: nothing that left
    /// for its sender during the callback could take it along.
    fn post_ack(&mut self, ctx: &mut Context<Envelope>, owed: Owed) {
        self.report.count_sent(Kind::Ack);
        ctx.send(owed.to.peer(), self.reliable.bare_ack(owed));
    }

    /// Answers a DS message from `to` that did not engage this node:
    /// returns its credit in an unsequenced `DsAck` carrying the message's
    /// `owed` ack, so that the one envelope retires the message and pays
    /// its credit ([`crate::reliable`], the reply rule).
    pub(crate) fn post_credit_reply(
        &mut self,
        ctx: &mut Context<Envelope>,
        to: NodeId,
        update: UpdateId,
        owed: Option<Owed>,
    ) {
        self.tracer.emit_with(|| codb_trace::TraceEvent::DsAck {
            peer: self.id.0,
            to: to.0,
            credits: 1,
        });
        self.report.count_sent(Kind::DsAck);
        let reply = self.reliable.credit_reply(owed, Body::DsAck { update, credits: 1 });
        ctx.send(to.peer(), reply);
    }

    /// Settles a message that will never be answered: abandoned after its
    /// last retransmission, or addressed to a peer that left. A DS message
    /// surrenders its credit, so this node can still disengage
    /// ("Termination" in [`crate::update`]); a fetch request closes as an
    /// empty final instalment, so its query, or the request it serves,
    /// finishes on what reachable peers sent.
    pub(crate) fn give_up(&mut self, ctx: &mut Context<Envelope>, to: NodeId, body: Body) {
        self.report.count_sent(Kind::Abandoned);
        if let Body::QueryRequest { req, .. } = body {
            // A count every arrival meets: what came is all there is, and
            // no tag, so it never reads as the answer the request named.
            self.handle_query_answer(ctx, to, req, vec![], Some(0), None);
        } else if let Some(update) = body.update_id().filter(|_| body.is_ds_counted()) {
            self.handle_ds_ack(ctx, update, 1);
        }
    }

    pub(crate) fn arm_retransmit(&mut self, ctx: &mut Context<Envelope>) {
        // Parked (barrier-held) messages must not keep the timer alive:
        // they wait for the peer's next incarnation, not the clock.
        if !self.retransmit_armed && self.reliable.has_retransmittable() {
            self.retransmit_armed = true;
            ctx.set_timer(self.settings.retransmit_after, TIMER_RETRANSMIT);
        }
    }

    /// Opens pipes to all acquaintances (the paper's topology discovery:
    /// pipes are created per coordination rule, and several rules w.r.t.
    /// the same node share one pipe).
    fn open_acquaintance_pipes(&mut self, ctx: &mut Context<Envelope>) {
        for acq in self.book.acquaintances() {
            ctx.open_pipe(acq.peer(), self.settings.pipe);
        }
    }
}

impl Peer<Envelope> for CoDbNode {
    fn on_start(&mut self, ctx: &mut Context<Envelope>) {
        ctx.advertise(codb_net::Advertisement::peer(self.id.peer(), "codb-node"));
        if self.superpeer_config.is_some() {
            ctx.advertise(codb_net::Advertisement::service(self.id.peer(), "super-peer"));
            // The super-peer keeps a pipe to every declared node so it can
            // broadcast rule files and collect statistics.
            let ids: Vec<NodeId> =
                self.superpeer_config.as_ref().map(|c| c.node_ids()).unwrap_or_default();
            for id in ids {
                if id != self.id {
                    ctx.open_pipe(id.peer(), self.settings.pipe);
                }
            }
        } else {
            // A node restarted into a running network lost that pipe when
            // it went down: it opens it again from its side, toward the
            // super-peer it finds on the board. (A fresh build starts the
            // super-peer last, so nothing is advertised yet and no pipe
            // the super-peer opened is ever reopened here.)
            let superpeers: Vec<PeerId> = ctx
                .discover()
                .iter()
                .filter(|ad| ad.kind == codb_net::AdKind::Service && ad.name == "super-peer")
                .map(|ad| ad.peer)
                .collect();
            for peer in superpeers {
                ctx.open_pipe(peer, self.settings.pipe);
            }
        }
        self.open_acquaintance_pipes(ctx);
        // A recovered node's first act is to announce its new incarnation
        // so neighbors drop the sent-caches pointed at its dead life.
        self.announce_rejoin(ctx);
    }

    fn on_message(&mut self, ctx: &mut Context<Envelope>, from: PeerId, env: Envelope) {
        // A node recovered *after* its start event (persistence opened on
        // a live network) still owes the handshake: announce on its next
        // activity of any kind. No-op when nothing is pending.
        self.announce_rejoin(ctx);
        let from = NodeId::from(from);
        self.report.count_received(env.body.kind());

        // Any envelope from a barred peer proves it is reachable again
        // (typically its new incarnation's `Rejoin`): release the parked
        // traffic before dispatching, so held data and handshake messages
        // flow the moment the peer is back.
        self.release_barrier(ctx, from);

        self.receive(ctx, from, env);
        // The ack of a sequenced envelope rides the first sequenced
        // envelope the handler posted to its sender, or the reply that
        // returns its credit; one still owed now leaves alone.
        if let Some(owed) = self.reliable.take_owed() {
            self.post_ack(ctx, owed);
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<Envelope>, timer: u64) {
        self.announce_rejoin(ctx);
        if timer == TIMER_RETRANSMIT {
            self.retransmit_armed = false;
            let round = self.reliable.retransmission_round();
            for (to, env) in round.resend {
                self.report.count_sent(Kind::Retransmit);
                ctx.send(to.peer(), env);
            }
            for (peer, held) in round.barred {
                // The peer is presumed crashed mid-handshake: its update
                // data and handshake traffic just parked behind the rejoin
                // barrier. The DS deficit for parked messages is *held*,
                // not surrendered — the update resumes (and completes)
                // when the peer's new incarnation releases the barrier.
                for _ in 0..held {
                    self.report.count_sent(Kind::BarrierParked);
                }
                self.tracer.emit_with(|| codb_trace::TraceEvent::BarrierHold {
                    peer: self.id.0,
                    toward: peer.0,
                    held,
                });
            }
            // Non-barrier traffic toward the presumed-dead peer is dropped
            // for good.
            for (to, body) in round.abandoned {
                self.give_up(ctx, to, body);
            }
            self.arm_retransmit(ctx);
        }
    }
}

impl CoDbNode {
    /// The transport half of [`Peer::on_message`]: retires what the
    /// envelope acknowledges, runs it past the sender's window, and hands a
    /// first delivery to [`CoDbNode::dispatch`].
    fn receive(&mut self, ctx: &mut Context<Envelope>, from: NodeId, env: Envelope) {
        // A peer's new incarnation, heard on whatever it sent first. This
        // comes before anything below can return early.
        if let Some(dead) = self.reliable.heard(from, env.epoch) {
            self.handle_new_incarnation(ctx, from, dead, &env.body);
        }
        // An unsequenced `DsAck` that carries an ack is the reply returning
        // the credit of the message it acknowledges.
        let credit_reply = env.seq.is_none() && matches!(env.body, Body::DsAck { .. });
        if let Some(ack) = env.ack {
            let retired = self.reliable.on_ack(from, ack);
            if matches!(retired, Some(Body::Rejoin { .. })) {
                self.trace_rejoin_acked(from);
            }
            // What answers a message counts once: a second copy of a reply,
            // or one echoing a dead incarnation's epoch, retires nothing
            // and changes nothing.
            if retired.is_none() && env.seq.is_none() {
                return;
            }
            // A DS message answered by anything but its credit engaged the
            // peer, which holds the credit until it disengages.
            let engaged = retired.filter(|sent| sent.is_ds_counted() && !credit_reply);
            if let Some(update) = engaged.and_then(|sent| sent.update_id()) {
                self.reliable.peer_engaged(from, update);
            }
        }
        if let Some(seq) = env.seq {
            match self.reliable.receive(from, env.epoch, seq, env.base) {
                Receipt::First => {}
                // Answered again as it was answered first: with its credit,
                // or (at the end of the callback) with a plain ack.
                Receipt::Duplicate(Answer::Credit) => {
                    if let Some(update) = env.body.update_id() {
                        let owed = self.reliable.take_owed();
                        self.post_credit_reply(ctx, from, update, owed);
                    }
                    return;
                }
                Receipt::Duplicate(Answer::Ack) | Receipt::Dropped => return,
            }
        }
        self.dispatch(ctx, from, env);
    }

    /// Hands a message that is due processing to its engine.
    fn dispatch(&mut self, ctx: &mut Context<Envelope>, from: NodeId, env: Envelope) {
        match env.body {
            // All header.
            Body::Ack => {}
            // ---- update protocol (crate::update) ----
            Body::UpdateRequest { .. }
            | Body::DemandLink { .. }
            | Body::UpdateData { .. }
            | Body::LinkClosed { .. } => self.dispatch_ds(ctx, from, env.epoch, env.body),
            Body::DsAck { update, credits } if env.seq.is_some() => {
                self.handle_disengagement(ctx, from, update, credits)
            }
            Body::DsAck { update, credits } => self.handle_ds_ack(ctx, update, credits),
            Body::UpdateComplete { update } => self.handle_update_complete(ctx, Some(from), update),
            // ---- crash rejoin (crate::rejoin) ----
            // (The new incarnation's epoch was acted on when it was heard.)
            Body::Rejoin { marks } => self.handle_rejoin(ctx, from, marks),
            Body::RejoinRepair { rule, firings, hops, mark } => {
                let mark = mark.map(|mark| mark.of_epoch(env.epoch));
                self.handle_rejoin_repair(ctx, rule, Batch { firings, hops, mark })
            }
            // ---- query protocol (crate::query) ----
            Body::QueryRequest { req, rule, path, known } => {
                self.handle_query_request(ctx, from, req, rule, path, known)
            }
            Body::QueryAnswer { req, firings, closed, tag } => {
                self.handle_query_answer(ctx, from, req, firings, closed, tag)
            }
            // ---- super-peer / admin (crate::superpeer) ----
            Body::RulesFile { config } => self.handle_rules_file(ctx, *config),
            Body::StatsRequest => self.handle_stats_request(ctx, from),
            Body::StatsReport { report } => self.collected.ingest(*report),
            // ---- harness control ----
            Body::StartUpdate => self.start_update(ctx),
            Body::StartScopedUpdate { relations } => self.start_scoped_update(ctx, relations),
            Body::StartQuery { query, fetch } => self.start_query(ctx, *query, fetch),
            Body::CollectStats => self.handle_collect_stats(ctx),
            Body::BroadcastRules => self.handle_broadcast_rules(ctx),
            Body::TriggerDiscovery => {
                for ad in ctx.discover() {
                    self.discovered.insert(NodeId::from(ad.peer));
                }
                self.discovered.remove(&self.id);
            }
            Body::IngestLocal { relation, tuple } => {
                // Schema violations are the harness's bug, not a protocol
                // condition; surface them in the per-kind stats.
                if self.insert_local(&relation, tuple).is_err() {
                    self.report.count_received(Kind::IngestRejected);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    //! A few nodes and the wire between them, driven by hand: the wire
    //! loses, duplicates, reorders and replays what they send, and the
    //! Dijkstra–Scholten accounts must come out exact all the same.

    use super::*;
    use crate::config::NetworkConfig;
    use crate::messages::CarriedAck;
    use codb_net::Command;
    use codb_trace::TraceEvent;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::collections::VecDeque;

    /// Copy rules both ways, so data and credits flow both ways and either
    /// node can start an update.
    const PAIR: &str = r#"
        node s
        node r
        schema s: ts(int)
        schema r: tr(int)
        data s: ts(1). ts(2).
        data r: tr(3).
        rule sr @ s -> r: tr(X) <- ts(X).
        rule rs @ r -> s: ts(X) <- tr(X).
    "#;

    /// The same, down a chain of three: an update from either end engages
    /// the middle under it and the far end under the middle, so the
    /// completion has a tree to go down.
    const TRIO: &str = r#"
        node s
        node m
        node r
        schema s: ts(int)
        schema m: tm(int)
        schema r: tr(int)
        data s: ts(1). ts(2).
        data m: tm(4).
        data r: tr(3).
        rule sm @ s -> m: tm(X) <- ts(X).
        rule ms @ m -> s: ts(X) <- tm(X).
        rule mr @ m -> r: tr(X) <- tm(X).
        rule rm @ r -> m: tm(X) <- tr(X).
    "#;

    struct Wire {
        nodes: Vec<CoDbNode>,
        /// In flight: source and destination (indices into `nodes`) and
        /// envelope.
        wire: Vec<(usize, usize, Envelope)>,
        /// Everything any node ever sent: any of it may come again.
        archive: Vec<(usize, usize, Envelope)>,
        /// Whose retransmission timer is set.
        armed: Vec<bool>,
        commands: VecDeque<Command<Envelope>>,
        /// How each node first answered each `(sender, seq, epoch)`: `true`
        /// with the credit, `false` with a plain ack.
        answered: Vec<BTreeMap<(usize, u64, u64), bool>>,
    }

    /// What a reply that retires nothing must leave alone.
    fn accounts(node: &CoDbNode) -> Vec<(UpdateId, u64, bool, bool)> {
        node.updates.values().map(|st| (st.update, st.deficit, st.engaged, st.complete)).collect()
    }

    impl Wire {
        fn new(config: &str) -> Wire {
            let config = NetworkConfig::parse(config).unwrap();
            let nodes: Vec<CoDbNode> = config
                .nodes
                .iter()
                .map(|nc| {
                    let acyclic = AcyclicLinks::of(&config.rules);
                    let mut node =
                        CoDbNode::from_config(nc, &config.rules, &acyclic, NodeSettings::default());
                    // An incarnation with a past, so that a stale epoch
                    // exists; and a wire this bad is no reason to presume
                    // anyone dead.
                    node.reliable.set_epoch(1);
                    node.reliable.max_attempts = u32::MAX;
                    node
                })
                .collect();
            let n = nodes.len();
            Wire {
                nodes,
                wire: Vec::new(),
                archive: Vec::new(),
                armed: vec![false; n],
                commands: VecDeque::new(),
                answered: vec![BTreeMap::new(); n],
            }
        }

        fn index(&self, peer: PeerId) -> usize {
            self.nodes.iter().position(|n| n.id.peer() == peer).expect("a node of the wire")
        }

        /// Runs one callback of node `at` and puts what it sent on the wire.
        fn callback(&mut self, at: usize, run: impl FnOnce(&mut CoDbNode, &mut Context<Envelope>)) {
            let node = &mut self.nodes[at];
            let mut ctx = Context::new(node.id.peer(), SimTime::ZERO, &[], &mut self.commands);
            run(node, &mut ctx);
            for command in std::mem::take(&mut self.commands) {
                match command {
                    Command::Send { to, msg } => {
                        let to = self.index(to);
                        if let Some(ack) = msg.ack {
                            // A message once answered by a plain ack — the
                            // one that engaged this node — never draws the
                            // credit, whatever the node has become since.
                            let credit =
                                msg.seq.is_none() && matches!(msg.body, Body::DsAck { .. });
                            let first =
                                self.answered[at].entry((to, ack.seq, ack.epoch)).or_insert(credit);
                            assert!(
                                *first || !credit,
                                "a credit for a message that engaged: {msg:?}"
                            );
                        }
                        self.wire.push((at, to, msg.clone()));
                        self.archive.push((at, to, msg));
                    }
                    Command::SetTimer { .. } => self.armed[at] = true,
                    _ => {}
                }
            }
        }

        fn control(&mut self, at: usize, body: Body) {
            self.callback(at, |node, ctx| {
                node.on_message(ctx, crate::HARNESS_PEER, Envelope::control(body))
            });
        }

        fn deliver(&mut self, from: usize, to: usize, env: Envelope) {
            let from_id = self.nodes[from].id;
            let node = &self.nodes[to];
            // A reply (or a bare ack) whose ack retires nothing changes
            // nothing and draws nothing.
            let retires = |ack: CarriedAck| {
                let pending = node.reliable.pending();
                ack.epoch == node.epoch()
                    && pending.iter().any(|(peer, e)| *peer == from_id && e.seq == Some(ack.seq))
            };
            let inert = env.seq.is_none() && env.ack.is_some_and(|ack| !retires(ack));
            let before = inert.then(|| (accounts(node), self.wire.len()));
            self.callback(to, |node, ctx| node.on_message(ctx, from_id.peer(), env));
            if let Some(before) = before {
                assert_eq!((accounts(&self.nodes[to]), self.wire.len()), before);
            }
        }

        /// Whether `env`, on its way from `from` to `to`, carries the plain
        /// ack of a DS message of `to`'s: the ack of an engaging message.
        fn carries_an_engaging_ack(&self, from: usize, to: usize, env: &Envelope) -> bool {
            let Some(ack) = env.ack else { return false };
            let plain = self.answered[from].get(&(to, ack.seq, ack.epoch)) == Some(&false);
            plain
                && self.archive.iter().any(|(src, dst, sent)| {
                    (*src, *dst) == (to, from)
                        && (sent.seq, sent.epoch) == (Some(ack.seq), ack.epoch)
                        && sent.body.is_ds_counted()
                })
        }

        fn fire_timer(&mut self, at: usize) {
            if std::mem::take(&mut self.armed[at]) {
                self.callback(at, |node, ctx| node.on_timer(ctx, TIMER_RETRANSMIT));
            }
        }

        /// A wire that has stopped misbehaving: everything in flight
        /// arrives, and what was lost is retransmitted until nothing is
        /// outstanding.
        fn settle(&mut self) {
            for _ in 0..10_000 {
                for (from, to, env) in std::mem::take(&mut self.wire) {
                    self.deliver(from, to, env);
                }
                if self.wire.is_empty() {
                    if self.nodes.iter().all(|n| !n.reliable.has_outstanding()) {
                        return;
                    }
                    for at in 0..self.nodes.len() {
                        self.fire_timer(at);
                    }
                }
            }
            panic!("the wire never went quiet");
        }
    }

    /// Updates started at random nodes of `config` over a wire that loses,
    /// duplicates, reorders and replays — from live and from dead
    /// incarnations — and then settles. Every update is over at every
    /// node, and every credit came back exactly once. Returns whether an
    /// engaging message's ack was lost on the way.
    fn misbehave(config: &str, seed: u64) -> bool {
        let mut rng = SmallRng::seed_from_u64(0xC4ED_1700 + seed);
        let mut w = Wire::new(config);
        let n = w.nodes.len();
        let (tracer, recorded) = Tracer::ring(usize::MAX);
        for node in &mut w.nodes {
            node.attach_tracer(&tracer);
        }
        // Once over a clean wire: each has heard the others' epoch, so from
        // here on a dead incarnation's envelopes look stale.
        w.control(0, Body::StartUpdate);
        w.settle();
        let (mut started, mut engaging_ack_lost) = (0, false);
        for step in 0..600 {
            let pick = |rng: &mut SmallRng, len: usize| (len > 0).then(|| rng.gen_range(0..len));
            match rng.gen_range(0..100) {
                // Out of order: any message in flight may be next.
                0..=44 => {
                    if let Some(i) = pick(&mut rng, w.wire.len()) {
                        let (from, to, env) = w.wire.swap_remove(i);
                        w.deliver(from, to, env);
                    }
                }
                // Twice: it arrives, and stays in flight.
                45..=54 => {
                    if let Some(i) = pick(&mut rng, w.wire.len()) {
                        let (from, to, env) = w.wire[i].clone();
                        w.deliver(from, to, env);
                    }
                }
                // Lost.
                55..=64 => {
                    if let Some(i) = pick(&mut rng, w.wire.len()) {
                        let (from, to, env) = w.wire.swap_remove(i);
                        engaging_ack_lost |= w.carries_an_engaging_ack(from, to, &env);
                    }
                }
                65..=74 => w.fire_timer(rng.gen_range(0..n)),
                // Again, long after: a message, an ack, a reply.
                75..=84 => {
                    if let Some(i) = pick(&mut rng, w.archive.len()) {
                        let (from, to, env) = w.archive[i].clone();
                        w.deliver(from, to, env);
                    }
                }
                // The same from a dead incarnation: the message stamped
                // with its epoch, the reply echoing it.
                85..=89 => {
                    if let Some(i) = pick(&mut rng, w.archive.len()) {
                        let (from, to, mut env) = w.archive[i].clone();
                        env.epoch = 0;
                        if let Some(ack) = &mut env.ack {
                            ack.epoch = 0;
                        }
                        w.deliver(from, to, env);
                    }
                }
                _ if started < 6 => {
                    started += 1;
                    let at = rng.gen_range(0..n);
                    let relation = w.nodes[at].schema.relations().next().unwrap().name.clone();
                    let tuple = codb_relational::tup![100 + step];
                    w.control(at, Body::IngestLocal { relation, tuple });
                    w.control(at, Body::StartUpdate);
                }
                _ => {}
            }
        }
        w.settle();

        let events = recorded.lock().unwrap().events();
        for node in &w.nodes {
            for st in node.updates.values() {
                assert!(st.is_settled(), "seed {seed}: {st:?}");
            }
            // One credit event per DS message this node ever posted — none
            // missing, and none that the saturating deficit hid.
            let sent = &node.report().messages_sent;
            let posted: u64 = [Kind::UpdateRequest, Kind::UpdateData, Kind::LinkClosed]
                .iter()
                .map(|kind| sent.of(*kind))
                .sum();
            let credited = events.iter().filter(
                |(_, ev)| matches!(ev, TraceEvent::DsCredit { peer, .. } if *peer == node.id.0),
            );
            assert_eq!(credited.count() as u64, posted, "seed {seed}: node {}", node.id);
            assert!(posted > 0 && started > 0, "seed {seed}");
        }
        let tuples = w.nodes[0].ldb().tuple_count();
        assert!(w.nodes.iter().all(|node| node.ldb().tuple_count() == tuples), "seed {seed}");
        engaging_ack_lost
    }

    #[test]
    fn every_credit_returns_exactly_once_whatever_the_wire_does() {
        for seed in 0..200 {
            misbehave(PAIR, seed);
        }
    }

    /// The completion goes down the tree, and a child is recorded when its
    /// disengagement arrives — not when the ack of the message that engaged
    /// it does, which the wire may lose (the message is then retransmitted,
    /// and answered again by an ack, long after). Every node completes
    /// either way.
    #[test]
    fn a_lost_engaging_ack_still_leaves_every_node_complete() {
        let mut lost = 0;
        for seed in 0..100 {
            lost += usize::from(misbehave(TRIO, seed));
        }
        assert!(lost >= 50, "the wire lost an engaging ack in {lost} runs of 100");
    }
}
