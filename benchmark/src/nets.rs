//! The two simulator harnesses a workload can run on.
//!
//! End-to-end numbers come from the product's own [`CoDbNetwork`]. The
//! per-layer numbers come from [`TracedNet`]: the same nodes, wrapped in
//! [`TimedPeer`] and spawned through `SimBuilder` exactly as
//! `CoDbNetwork::build_with` spawns them, with the repo's `Tracer` attached.
//! [`SimHarness`] is the narrow interface the workloads drive, so one loop
//! serves both.

use crate::sink::{Counting, Totals};
use crate::timed::{Span, SpanClock, TimedPeer};
use codb_core::{
    Body, CoDbNetwork, CoDbNode, Envelope, NetworkConfig, NetworkReport, NodeId, NodeSettings,
    UpdateSummary, HARNESS_PEER,
};
use codb_net::{PeerId, SimBuilder, SimConfig, SimNet};
use codb_relational::{ConjunctiveQuery, Instance, Tuple};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Instant;

/// What one global update reported.
pub struct UpdateObs {
    /// Protocol messages sent, the injected control message excluded.
    pub messages: u64,
    /// The statistics module's aggregate for the update.
    pub summary: UpdateSummary,
}

/// What one query returned.
pub struct QueryObs {
    /// The answer set, sorted.
    pub answers: Vec<Tuple>,
    /// Protocol messages sent, the injected control message excluded.
    pub messages: u64,
}

/// The operations a simulator workload needs.
pub trait SimHarness {
    /// Starts a global update at `origin` and runs it to quiescence.
    fn update(&mut self, origin: NodeId) -> UpdateObs;
    /// Runs `query` at `node` to quiescence; `fetch` asks the network.
    fn query(&mut self, node: NodeId, query: ConjunctiveQuery, fetch: bool) -> QueryObs;
    /// Inserts one tuple at `node` through the message plane.
    fn ingest(&mut self, node: NodeId, relation: &str, tuple: Tuple);
    /// Every live node.
    fn nodes(&self) -> Vec<&CoDbNode>;

    /// Every node's local database, by node.
    fn ldbs(&self) -> BTreeMap<NodeId, &Instance> {
        self.nodes().into_iter().map(|n| (n.id, n.ldb())).collect()
    }

    /// `(bytes, tuples)`: every node's state in the binary snapshot
    /// encoding the store writes, and the tuples it holds.
    fn stored_size(&self) -> (u64, u64) {
        self.nodes().iter().fold((0, 0), |(bytes, tuples), n| {
            (
                bytes + n.snapshot().to_binary_bytes().len() as u64,
                tuples + n.ldb().tuple_count() as u64,
            )
        })
    }
}

impl SimHarness for CoDbNetwork {
    fn update(&mut self, origin: NodeId) -> UpdateObs {
        let outcome = self.run_update(origin);
        UpdateObs { messages: outcome.messages, summary: outcome.summary }
    }

    fn query(&mut self, node: NodeId, query: ConjunctiveQuery, fetch: bool) -> QueryObs {
        let outcome = self.run_query(node, query, fetch);
        QueryObs { answers: outcome.result.answers, messages: outcome.messages }
    }

    fn ingest(&mut self, node: NodeId, relation: &str, tuple: Tuple) {
        self.run_control(node, Body::IngestLocal { relation: relation.to_owned(), tuple });
    }

    fn nodes(&self) -> Vec<&CoDbNode> {
        self.sim().peers().map(|(_, n)| n).collect()
    }
}

/// What kind of harness operation a record describes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    /// A global update.
    Update,
    /// A query answered from the network.
    QueryFetch,
    /// A query answered from the local database.
    QueryLocal,
    /// A local insert.
    Ingest,
    /// One durable round on the worker pool.
    Round,
    /// A rebuild of the pool from disk.
    Recovery,
}

/// One traced harness operation.
#[derive(Clone, Copy, Debug)]
pub struct OpRecord {
    /// The id its spans carry.
    pub op: u64,
    /// What it was.
    pub kind: OpKind,
    /// Host time the harness waited for the runtime (event loop, or the
    /// pool until quiescent).
    pub wall_ns: u64,
    /// Simulator events processed (0 on the pool).
    pub events: u64,
    /// Messages the runtime accepted for sending or delivered.
    pub sent: u64,
    /// Sends that found no pipe or peer.
    pub undeliverable: u64,
    /// What the tracer recorded meanwhile.
    pub traced: Totals,
}

/// Everything a traced run recorded.
#[derive(Default)]
pub struct TraceLog {
    /// One span per node callback.
    pub spans: Vec<Span>,
    /// One record per harness operation.
    pub ops: Vec<OpRecord>,
}

impl TraceLog {
    /// Appends another log.
    pub fn absorb(&mut self, other: TraceLog) {
        self.spans.extend(other.spans);
        self.ops.extend(other.ops);
    }
}

/// `CoDbNetwork`'s simulator side, rebuilt around wrapped nodes.
pub struct TracedNet {
    sim: SimNet<Envelope, TimedPeer<CoDbNode>>,
    clock: Arc<SpanClock>,
    counting: Counting,
    ops: Vec<OpRecord>,
}

impl TracedNet {
    /// Builds the network as `CoDbNetwork::build` does — one node per
    /// declared node, spawned in declaration order, start events run — and
    /// then attaches the tracer to the simulator and every node as
    /// `CoDbNetwork::attach_tracer` does.
    pub fn build(config: &NetworkConfig, clock: &Arc<SpanClock>, counting: &Counting) -> Self {
        config.validate().expect("generated configs are valid");
        let mut nodes: HashMap<PeerId, CoDbNode> = config
            .nodes
            .iter()
            .map(|nc| {
                let node = CoDbNode::new(
                    nc.id,
                    &nc.name,
                    nc.schema.clone(),
                    nc.data.clone(),
                    &config.rules,
                    NodeSettings::default(),
                );
                (nc.id.peer(), node)
            })
            .collect();
        let mut sim = SimBuilder::new(SimConfig::default())
            .peers(config.nodes.iter().map(|nc| nc.id.peer()))
            .spawn(|id| {
                let node = nodes.remove(&id).expect("every registered peer has a node");
                TimedPeer::new(id, node, clock.clone())
            });
        sim.run_until_quiescent();
        sim.attach_tracer(counting.tracer.clone());
        for id in sim.peer_ids() {
            if let Some(peer) = sim.peer_mut(id) {
                peer.inner_mut().attach_tracer(&counting.tracer);
            }
        }
        TracedNet { sim, clock: clock.clone(), counting: counting.clone(), ops: Vec::new() }
    }

    /// Injects `body` at `to`, runs to quiescence, records the operation.
    /// Returns the messages sent, the injected one excluded.
    fn control(&mut self, kind: OpKind, to: NodeId, body: Body) -> u64 {
        let op = self.clock.next_op();
        let before = self.sim.stats();
        let (events0, traced0) = (self.sim.events_processed(), self.counting.totals());
        self.sim.inject(HARNESS_PEER, to.peer(), Envelope::control(body));
        let t0 = Instant::now();
        self.sim.run_until_quiescent();
        let wall_ns = t0.elapsed().as_nanos() as u64;
        let after = self.sim.stats();
        let sent = after.sent - before.sent - 1;
        self.ops.push(OpRecord {
            op,
            kind,
            wall_ns,
            events: self.sim.events_processed() - events0,
            sent,
            undeliverable: after.undeliverable - before.undeliverable,
            traced: self.counting.totals().since(&traced0),
        });
        sent
    }

    /// Ends the run: the spans of every node plus the operation records.
    pub fn finish(mut self) -> TraceLog {
        let mut spans = Vec::new();
        for id in self.sim.peer_ids() {
            if let Some(peer) = self.sim.peer_mut(id) {
                spans.extend(peer.take_spans());
            }
        }
        TraceLog { spans, ops: self.ops }
    }
}

impl SimHarness for TracedNet {
    fn update(&mut self, origin: NodeId) -> UpdateObs {
        let messages = self.control(OpKind::Update, origin, Body::StartUpdate);
        let mut report = NetworkReport::default();
        for node in self.nodes() {
            report.ingest(node.report().clone());
        }
        // A traced network runs one update at most; the id is the largest.
        let update = *report.update_ids().last().expect("the update ran at its origin");
        UpdateObs { messages, summary: report.summarise(update).expect("update id was reported") }
    }

    fn query(&mut self, node: NodeId, query: ConjunctiveQuery, fetch: bool) -> QueryObs {
        let kind = if fetch { OpKind::QueryFetch } else { OpKind::QueryLocal };
        let messages = self.control(kind, node, Body::StartQuery { query: Box::new(query), fetch });
        let origin = self.sim.peer(node.peer()).expect("query node exists").inner();
        // Query ids order by (origin, epoch, seq): the last is the newest.
        let result = origin.completed_queries.values().next_back().expect("query completed");
        QueryObs { answers: result.answers.clone(), messages }
    }

    fn ingest(&mut self, node: NodeId, relation: &str, tuple: Tuple) {
        self.control(
            OpKind::Ingest,
            node,
            Body::IngestLocal { relation: relation.to_owned(), tuple },
        );
    }

    fn nodes(&self) -> Vec<&CoDbNode> {
        self.sim.peers().map(|(_, p)| p.inner()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::from_log;
    use crate::metrics::Outcome;
    use codb_workload::{DataDist, RuleStyle, Scenario, Topology};

    fn scenario() -> Scenario {
        Scenario {
            topology: Topology::Ring(4),
            tuples_per_node: 20,
            rule_style: RuleStyle::CopyGav,
            dist: DataDist::Uniform { domain: 1 << 40 },
            seed: 9,
        }
    }

    fn traced(config: &NetworkConfig) -> TracedNet {
        TracedNet::build(config, &SpanClock::new(), &Counting::new())
    }

    #[test]
    fn a_wrapped_run_reports_the_counters_of_an_unwrapped_run() {
        let s = scenario();
        let config = s.build_config();
        let mut plain = CoDbNetwork::build(config.clone(), SimConfig::default()).unwrap();
        let mut wrapped = traced(&config);

        let (a, b) = (
            plain.query(s.sink(), s.sink_query(), true),
            wrapped.query(s.sink(), s.sink_query(), true),
        );
        assert_eq!((a.messages, &a.answers), (b.messages, &b.answers));
        assert!(a.messages > 0 && !a.answers.is_empty());

        let (a, b) = (plain.update(s.sink()), wrapped.update(s.sink()));
        assert_eq!(a.messages, b.messages);
        assert_eq!(a.summary, b.summary);
        assert_eq!(a.summary.tuples_added, 4 * 3 * 20);

        let tuple = Tuple::new(vec![(1i64 << 50).into(), 1i64.into()]);
        plain.ingest(s.sink(), "r0", tuple.clone());
        wrapped.ingest(s.sink(), "r0", tuple);
        let (a, b) = (
            plain.query(s.sink(), s.sink_query(), false),
            wrapped.query(s.sink(), s.sink_query(), false),
        );
        assert_eq!((a.messages, &a.answers), (b.messages, &b.answers));
        assert_eq!(a.answers.len(), 4 * 20 + 1);

        assert_eq!(plain.ldbs(), wrapped.ldbs());
        assert_eq!(plain.stored_size(), wrapped.stored_size());
        assert_eq!(plain.sim().events_processed(), wrapped.sim.events_processed());
        assert_eq!(plain.sim().stats(), wrapped.sim.stats());
    }

    #[test]
    fn spans_account_for_the_time_inside_the_event_loop() {
        let s = scenario();
        let mut net = traced(&s.build_config());
        let (outside_ms, _) = crate::run::timed_ms(|| net.update(s.sink()));
        let log = net.finish();
        let [op] = log.ops[..] else { panic!("one operation ran") };
        assert_eq!(op.kind, OpKind::Update);
        let mine: Vec<_> = log.spans.iter().filter(|s| s.op == op.op).collect();
        // One callback per simulator event, and none of them outside the loop.
        assert_eq!(mine.len() as u64, op.events);
        let inside: u64 = mine.iter().map(|s| s.nanos()).sum();
        assert!(inside <= op.wall_ns, "callbacks {inside} ns exceed the loop's {} ns", op.wall_ns);
        assert!(op.wall_ns as f64 / 1e6 <= outside_ms);
        // Construction callbacks carry operation 0.
        assert_eq!(log.spans.iter().filter(|s| s.op == 0).count(), 4);

        let mut out = Outcome::default();
        assert_eq!(from_log(&mut out, &log, OpKind::Update), 1);
        let wall_ms = op.wall_ns as f64 / 1e6;
        let sum = out.get("net.loop_self_ms") + out.get("core.callback_ms");
        assert!((sum - wall_ms).abs() <= 0.01 * wall_ms, "{sum} vs {wall_ms}");
        assert!(out.get("net.loop_self_ms") >= 0.0);
        assert_eq!(out.get("core.callbacks"), op.events as f64);
        assert_eq!(out.get("net.sent"), op.sent as f64);
        assert_eq!(out.get("store.wal_appends"), 0.0);
    }
}
