//! The per-node statistics module and the super-peer's aggregated report.
//!
//! Paper §4: "each node has an additional statistical module. This module
//! accumulates various information about global updates such as: total
//! execution time of an update, number of query result messages received
//! per coordination rule and the volume of the data in each message,
//! longest update propagation path, and so on. … a super-peer … collects,
//! at any given time, statistical information from all nodes … aggregates
//! them and creates a final statistical report."

use crate::ids::{NodeId, QueryId, UpdateId};
use codb_net::SimTime;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::ops::Index;

/// Serializes maps with non-string keys as sequences of pairs so the
/// reports stay JSON-compatible (JSON object keys must be strings).
/// Written against the vendored serde shim's value-tree API.
mod pairs {
    use serde::de::{Deserialize, Error};
    use serde::ser::Serialize;
    use serde::Value;
    use std::collections::BTreeMap;

    pub fn to_value<K, V>(map: &BTreeMap<K, V>) -> Value
    where
        K: Serialize,
        V: Serialize,
    {
        Value::Array(
            map.iter().map(|(k, v)| Value::Array(vec![k.to_value(), v.to_value()])).collect(),
        )
    }

    pub fn from_value<K, V>(v: &Value) -> Result<BTreeMap<K, V>, Error>
    where
        K: Deserialize + Ord,
        V: Deserialize,
    {
        let pairs: Vec<(K, V)> = Deserialize::from_value(v)?;
        Ok(pairs.into_iter().collect())
    }
}

/// The value `map` holds under `name`, made on first touch — the only
/// time the name is copied. For the maps that stay keyed by rule name
/// because a report, a snapshot or a WAL record shows them that way.
pub(crate) fn by_name<'a, V: Default>(map: &'a mut BTreeMap<String, V>, name: &str) -> &'a mut V {
    if !map.contains_key(name) {
        map.insert(name.to_owned(), V::default());
    }
    map.get_mut(name).expect("present or just inserted")
}

/// Message/volume counters for one coordination rule (one direction).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RuleTraffic {
    /// Data messages.
    pub messages: u64,
    /// Rule firings carried.
    pub firings: u64,
    /// Payload bytes carried.
    pub bytes: u64,
}

impl RuleTraffic {
    /// Adds one message carrying `firings` firings of `bytes` bytes.
    pub fn record(&mut self, firings: u64, bytes: u64) {
        self.messages += 1;
        self.firings += firings;
        self.bytes += bytes;
    }
}

/// One node's view of one global update — the paper's "global update
/// processing report … includes information about starting and finishing
/// times of an update, volume of data transferred, which acquaintances
/// have been queried and to which nodes query results have been sent".
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct UpdateReport {
    /// The update.
    pub update: UpdateId,
    /// When this node first learnt about the update.
    pub started_at: SimTime,
    /// When all of this node's outgoing links closed (node state
    /// "closed"), if reached.
    pub closed_at: Option<SimTime>,
    /// When the node saw the global `UpdateComplete`, if any.
    pub completed_at: Option<SimTime>,
    /// Data received per outgoing link.
    pub received: BTreeMap<String, RuleTraffic>,
    /// Data sent per incoming link.
    pub sent: BTreeMap<String, RuleTraffic>,
    /// Firings this node's rule bodies produced for the update, before the
    /// sent-side dedup threw away those already shipped: what the update
    /// *evaluated* to send what `sent` counts.
    pub evaluated: u64,
    /// Tuples actually added to the LDB by this update.
    pub tuples_added: u64,
    /// Longest update-propagation path observed (hops of the deepest
    /// `UpdateData` received).
    pub longest_path: u64,
    /// `UpdateRequest` messages received (including duplicates).
    pub requests_received: u64,
    /// True when the chase-depth safety valve dropped data (non-weakly-
    /// acyclic rule sets; see [`crate::NodeSettings::max_hops`]).
    pub truncated: bool,
}

impl UpdateReport {
    /// A fresh report for an update first seen at `started_at`.
    pub fn new(update: UpdateId, started_at: SimTime) -> Self {
        UpdateReport {
            update,
            started_at,
            closed_at: None,
            completed_at: None,
            received: BTreeMap::new(),
            sent: BTreeMap::new(),
            evaluated: 0,
            tuples_added: 0,
            longest_path: 0,
            requests_received: 0,
            truncated: false,
        }
    }

    /// Node-local duration from start to close (or completion).
    pub fn duration(&self) -> Option<SimTime> {
        self.closed_at.or(self.completed_at).map(|t| t.saturating_sub(self.started_at))
    }
}

/// One node's view of one query execution.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct QueryReport {
    /// The query.
    pub query: QueryId,
    /// When the user posed it.
    pub started_at: SimTime,
    /// When the answer was assembled.
    pub finished_at: Option<SimTime>,
    /// When the first (streaming) answer instalment arrived.
    pub first_answer_at: Option<SimTime>,
    /// Fetch requests sent.
    pub requests_sent: u64,
    /// Answers received.
    pub answers_received: u64,
    /// Firing payload bytes received.
    pub bytes_received: u64,
    /// Links whose whole answer came back *unchanged*: each instalment
    /// carried the tag of the answer this node held for the link, and no
    /// firing (`crate::query`, "Where a whole answer lives").
    pub unchanged: u64,
    /// The answer was the one the node kept: every link came back
    /// unchanged over the same query, book and local data
    /// (`crate::query`, "Where a fetch's answer lives at its origin").
    pub kept: bool,
    /// Number of answer tuples.
    pub answers: u64,
}

impl QueryReport {
    /// A fresh report.
    pub fn new(query: QueryId, started_at: SimTime) -> Self {
        QueryReport {
            query,
            started_at,
            finished_at: None,
            first_answer_at: None,
            requests_sent: 0,
            answers_received: 0,
            bytes_received: 0,
            unchanged: 0,
            kept: false,
            answers: 0,
        }
    }

    /// Wall (simulated) time from request to answer.
    pub fn duration(&self) -> Option<SimTime> {
        self.finished_at.map(|t| t.saturating_sub(self.started_at))
    }
}

/// Declares [`Kind`] with each variant's report name beside it, so a
/// variant cannot exist without a name, and [`Kind::ALL`] cannot miss one.
macro_rules! kinds {
    ($($(#[$doc:meta])* $variant:ident => $name:literal,)+) => {
        /// What the per-kind counters of a [`NodeReport`] count: one kind
        /// per [`crate::messages::Body`] variant, plus the transport and
        /// receive-path events a node counts beside them. Inside the node
        /// a kind is an array index; it becomes its name where a report is
        /// read or serialised.
        #[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub enum Kind {
            $($(#[$doc])* $variant,)+
        }

        impl Kind {
            /// Every kind, in declaration order.
            pub const ALL: [Kind; [$(Kind::$variant),+].len()] = [$(Kind::$variant),+];

            /// The name reports and their JSON carry.
            pub const fn name(self) -> &'static str {
                match self {
                    $(Kind::$variant => $name,)+
                }
            }
        }
    };
}

kinds! {
    /// A transport acknowledgement.
    Ack => "ack",
    /// A flooded update request.
    UpdateRequest => "update_request",
    /// A scoped update's demand for one link.
    DemandLink => "demand_link",
    /// A batch of rule firings on a link.
    UpdateData => "update_data",
    /// A link's close notification.
    LinkClosed => "link_closed",
    /// A Dijkstra–Scholten credit return.
    DsAck => "ds_ack",
    /// The completion, sent down the engagement tree.
    UpdateComplete => "update_complete",
    /// A restarted node's announcement.
    Rejoin => "rejoin",
    /// Repair data pushed at barrier release.
    RejoinRepair => "rejoin_repair",
    /// A query-time fetch request.
    QueryRequest => "query_request",
    /// An instalment of a fetch's answer.
    QueryAnswer => "query_answer",
    /// A super-peer's rules file.
    RulesFile => "rules_file",
    /// A super-peer's request for statistics.
    StatsRequest => "stats_request",
    /// A node's statistics report.
    StatsReport => "stats_report",
    /// Harness control: start a global update.
    StartUpdate => "start_update",
    /// Harness control: start a scoped update.
    StartScopedUpdate => "start_scoped_update",
    /// Harness control: run a query.
    StartQuery => "start_query",
    /// Harness control: collect statistics.
    CollectStats => "collect_stats",
    /// Harness control: broadcast the rules file.
    BroadcastRules => "broadcast_rules",
    /// Harness control: refresh the discovery view.
    TriggerDiscovery => "trigger_discovery",
    /// Harness control: insert one local tuple.
    IngestLocal => "ingest_local",
    /// Sent: a message resent under its original seq.
    Retransmit => "retransmit",
    /// Sent: a message parked behind the rejoin barrier.
    BarrierParked => "barrier_parked",
    /// Sent: a parked message released when its peer was heard from.
    BarrierReleased => "barrier_released",
    /// Sent: a message given up on — after the last retransmission, or
    /// because its destination left the network.
    Abandoned => "abandoned",
    /// Received: a batch that was not an instance of its rule's head.
    DataRejected => "data_rejected",
    /// Received: a local insert the schema refused.
    IngestRejected => "ingest_rejected",
}

impl Kind {
    /// The kind `name` names, if any.
    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// One counter per [`Kind`]. Read like the name-keyed map it serialises
/// as: a kind never counted is absent, not zero.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct KindCounts([u64; Kind::ALL.len()]);

impl KindCounts {
    /// Adds one to `kind`'s counter.
    pub fn bump(&mut self, kind: Kind) {
        self.0[kind as usize] += 1;
    }

    /// `kind`'s counter.
    pub fn of(&self, kind: Kind) -> u64 {
        self.0[kind as usize]
    }

    /// The counter `name` names, if that kind was ever counted.
    pub fn get(&self, name: &str) -> Option<&u64> {
        Kind::from_name(name).map(|k| &self.0[k as usize]).filter(|n| **n > 0)
    }

    /// True iff the kind `name` names was ever counted.
    pub fn contains_key(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// `(name, count)` of every kind counted.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        Kind::ALL.into_iter().map(|k| (k.name(), self.of(k))).filter(|(_, n)| *n > 0)
    }

    /// The count of every kind counted.
    pub fn values(&self) -> impl Iterator<Item = u64> + '_ {
        self.0.iter().copied().filter(|n| *n > 0)
    }
}

impl Index<&str> for KindCounts {
    type Output = u64;

    /// # Panics
    ///
    /// As the map did, when the kind was never counted.
    fn index(&self, name: &str) -> &u64 {
        self.get(name).unwrap_or_else(|| panic!("no message of kind {name:?} was counted"))
    }
}

/// The JSON of the `BTreeMap<String, u64>` these counters were.
impl Serialize for KindCounts {
    fn to_value(&self) -> serde::Value {
        self.iter().map(|(name, n)| (name.to_owned(), n)).collect::<BTreeMap<_, _>>().to_value()
    }
}

impl Deserialize for KindCounts {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let mut counts = KindCounts::default();
        for (name, n) in BTreeMap::<String, u64>::from_value(v)? {
            let kind = Kind::from_name(&name)
                .ok_or_else(|| serde::Error::custom(format!("unknown message kind `{name}`")))?;
            counts.0[kind as usize] = n;
        }
        Ok(counts)
    }
}

/// Everything one node's statistics module has accumulated; the payload of
/// a `StatsReport` message.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct NodeReport {
    /// Reporting node.
    pub node: NodeId,
    /// Per-update reports.
    #[serde(with = "pairs")]
    pub updates: BTreeMap<UpdateId, UpdateReport>,
    /// Per-query reports (queries posed at this node).
    #[serde(with = "pairs")]
    pub queries: BTreeMap<QueryId, QueryReport>,
    /// All protocol messages sent, by kind.
    pub messages_sent: KindCounts,
    /// All protocol messages received, by kind.
    pub messages_received: KindCounts,
    /// Total LDB tuples at report time.
    pub ldb_tuples: u64,
    /// Firings this node re-sent as rejoin repair ([`Body::RejoinRepair`]
    /// batches, cascade hops included).
    ///
    /// [`Body::RejoinRepair`]: crate::Body::RejoinRepair
    pub repair_firings: u64,
}

impl NodeReport {
    /// Creates an empty report for `node`.
    pub fn new(node: NodeId) -> Self {
        NodeReport { node, ..Default::default() }
    }

    /// Counts a sent message of `kind`.
    pub fn count_sent(&mut self, kind: Kind) {
        self.messages_sent.bump(kind);
    }

    /// Counts a received message of `kind`.
    pub fn count_received(&mut self, kind: Kind) {
        self.messages_received.bump(kind);
    }

    /// The report for `update`, created at `now` on first touch.
    pub fn update_mut(&mut self, update: UpdateId, now: SimTime) -> &mut UpdateReport {
        self.updates.entry(update).or_insert_with(|| UpdateReport::new(update, now))
    }
}

/// Network-wide aggregation of one update — the super-peer's "final
/// statistical report" rows.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct UpdateSummary {
    /// Nodes that participated.
    pub nodes: u64,
    /// Nodes that reached the closed state on their own (before the
    /// update's completion reached them).
    pub closed_early: u64,
    /// Earliest start across nodes.
    pub started_at: SimTime,
    /// Latest close/completion across nodes.
    pub finished_at: SimTime,
    /// `finished_at - started_at`: the paper's "total execution time of an
    /// update".
    pub total_time: SimTime,
    /// Total data messages.
    pub data_messages: u64,
    /// Total firings moved.
    pub firings: u64,
    /// Total data bytes moved.
    pub data_bytes: u64,
    /// Total firings evaluated network-wide, before sent-side dedup
    /// ([`UpdateReport::evaluated`]).
    pub evaluated: u64,
    /// Total tuples materialised network-wide.
    pub tuples_added: u64,
    /// Longest update propagation path anywhere.
    pub longest_path: u64,
    /// Per-rule traffic, aggregated over receivers.
    pub per_rule: BTreeMap<String, RuleTraffic>,
    /// True if any node hit the chase safety valve.
    pub truncated: bool,
}

/// The super-peer's aggregated view over all collected node reports.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct NetworkReport {
    /// Raw node reports, by node.
    #[serde(with = "pairs")]
    pub nodes: BTreeMap<NodeId, NodeReport>,
}

impl NetworkReport {
    /// Ingests one node report (latest wins).
    pub fn ingest(&mut self, report: NodeReport) {
        self.nodes.insert(report.node, report);
    }

    /// Update ids seen anywhere.
    pub fn update_ids(&self) -> Vec<UpdateId> {
        let mut ids: Vec<UpdateId> =
            self.nodes.values().flat_map(|n| n.updates.keys().copied()).collect();
        ids.sort();
        ids.dedup();
        ids
    }

    /// Aggregates one update across all reporting nodes.
    pub fn summarise(&self, update: UpdateId) -> Option<UpdateSummary> {
        UpdateSummary::of(update, self.nodes.values())
    }
}

impl UpdateSummary {
    /// Aggregates `update` across `reports`, read where they lie; `None`
    /// when none of them saw it.
    pub fn of<'a>(
        update: UpdateId,
        reports: impl IntoIterator<Item = &'a NodeReport>,
    ) -> Option<UpdateSummary> {
        let mut summary = UpdateSummary::default();
        let mut started: Option<SimTime> = None;
        let mut finished: Option<SimTime> = None;
        let mut seen = false;
        for node in reports {
            let Some(r) = node.updates.get(&update) else { continue };
            seen = true;
            summary.nodes += 1;
            if r.closed_at.is_some() && (r.completed_at.is_none() || r.closed_at < r.completed_at) {
                summary.closed_early += 1;
            }
            started = Some(started.map_or(r.started_at, |s| s.min(r.started_at)));
            if let Some(f) = r.closed_at.max(r.completed_at) {
                finished = Some(finished.map_or(f, |g| g.max(f)));
            }
            for (rule, t) in &r.received {
                summary.data_messages += t.messages;
                summary.firings += t.firings;
                summary.data_bytes += t.bytes;
                let agg = by_name(&mut summary.per_rule, rule);
                agg.messages += t.messages;
                agg.firings += t.firings;
                agg.bytes += t.bytes;
            }
            summary.evaluated += r.evaluated;
            summary.tuples_added += r.tuples_added;
            summary.longest_path = summary.longest_path.max(r.longest_path);
            summary.truncated |= r.truncated;
        }
        if !seen {
            return None;
        }
        summary.started_at = started.unwrap_or(SimTime::ZERO);
        summary.finished_at = finished.unwrap_or(summary.started_at);
        summary.total_time = summary.finished_at.saturating_sub(summary.started_at);
        Some(summary)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::Body;

    fn upd() -> UpdateId {
        UpdateId { origin: NodeId(0), epoch: 0, seq: 0 }
    }

    #[test]
    fn rule_traffic_accumulates() {
        let mut t = RuleTraffic::default();
        t.record(3, 100);
        t.record(2, 50);
        assert_eq!(t, RuleTraffic { messages: 2, firings: 5, bytes: 150 });
    }

    #[test]
    fn update_report_duration() {
        let mut r = UpdateReport::new(upd(), SimTime::from_millis(10));
        assert_eq!(r.duration(), None);
        r.closed_at = Some(SimTime::from_millis(25));
        assert_eq!(r.duration(), Some(SimTime::from_millis(15)));
    }

    #[test]
    fn node_report_counters() {
        let mut n = NodeReport::new(NodeId(3));
        n.count_sent(Kind::UpdateData);
        n.count_sent(Kind::UpdateData);
        n.count_received(Kind::DsAck);
        assert_eq!(n.messages_sent["update_data"], 2);
        assert_eq!(n.messages_received["ds_ack"], 1);
        let r = n.update_mut(upd(), SimTime::from_millis(1));
        r.tuples_added = 4;
        assert_eq!(n.updates[&upd()].tuples_added, 4);
    }

    #[test]
    fn network_report_aggregates() {
        let mut net = NetworkReport::default();
        for i in 0..3u64 {
            let mut n = NodeReport::new(NodeId(i));
            let r = n.update_mut(upd(), SimTime::from_millis(i));
            r.closed_at = Some(SimTime::from_millis(10 + i));
            r.longest_path = i + 1;
            r.tuples_added = 10;
            r.received.entry("r1".into()).or_default().record(2, 100);
            net.ingest(n);
        }
        let s = net.summarise(upd()).unwrap();
        assert_eq!(s.nodes, 3);
        assert_eq!(s.closed_early, 3);
        assert_eq!(s.started_at, SimTime::ZERO);
        assert_eq!(s.finished_at, SimTime::from_millis(12));
        assert_eq!(s.total_time, SimTime::from_millis(12));
        assert_eq!(s.data_messages, 3);
        assert_eq!(s.firings, 6);
        assert_eq!(s.tuples_added, 30);
        assert_eq!(s.longest_path, 3);
        assert_eq!(s.per_rule["r1"].bytes, 300);
        assert!(!s.truncated);
    }

    #[test]
    fn summarise_unknown_update_is_none() {
        let net = NetworkReport::default();
        assert!(net.summarise(upd()).is_none());
    }

    #[test]
    fn ingest_latest_wins() {
        let mut net = NetworkReport::default();
        let mut a = NodeReport::new(NodeId(1));
        a.ldb_tuples = 1;
        net.ingest(a);
        let mut b = NodeReport::new(NodeId(1));
        b.ldb_tuples = 9;
        net.ingest(b);
        assert_eq!(net.nodes[&NodeId(1)].ldb_tuples, 9);
        assert_eq!(net.nodes.len(), 1);
    }

    /// One of every body, by variant name.
    fn bodies() -> Vec<(&'static str, Body)> {
        let update = upd();
        let req = crate::ids::ReqId { node: NodeId(1), epoch: 0, seq: 0 };
        let query = codb_relational::parse_query("ans(X) :- r(X).").unwrap();
        let rule = || crate::RuleName::from("r");
        vec![
            ("Ack", Body::Ack),
            ("UpdateRequest", Body::UpdateRequest { update }),
            ("DemandLink", Body::DemandLink { update, rule: rule() }),
            (
                "UpdateData",
                Body::UpdateData {
                    update,
                    rule: rule(),
                    firings: vec![],
                    hops: 0,
                    request: false,
                    closes: 0,
                    mark: None,
                },
            ),
            ("LinkClosed", Body::LinkClosed { update, rule: rule(), data_msgs: 0 }),
            ("DsAck", Body::DsAck { update, credits: 1 }),
            ("UpdateComplete", Body::UpdateComplete { update }),
            ("Rejoin", Body::Rejoin { marks: vec![] }),
            (
                "RejoinRepair",
                Body::RejoinRepair { rule: rule(), firings: vec![], hops: 1, mark: None },
            ),
            (
                "QueryRequest",
                Body::QueryRequest { req, rule: rule(), path: Box::new([]), known: None },
            ),
            ("QueryAnswer", Body::QueryAnswer { req, firings: vec![], closed: Some(1), tag: None }),
            ("RulesFile", Body::RulesFile { config: Box::default() }),
            ("StatsRequest", Body::StatsRequest),
            ("StatsReport", Body::StatsReport { report: Box::default() }),
            ("StartUpdate", Body::StartUpdate),
            ("StartScopedUpdate", Body::StartScopedUpdate { relations: vec![] }),
            ("StartQuery", Body::StartQuery { query: Box::new(query), fetch: false }),
            ("CollectStats", Body::CollectStats),
            ("BroadcastRules", Body::BroadcastRules),
            ("TriggerDiscovery", Body::TriggerDiscovery),
            (
                "IngestLocal",
                Body::IngestLocal { relation: rule().to_string(), tuple: codb_relational::tup![1] },
            ),
        ]
    }

    #[test]
    fn every_body_and_every_counted_event_has_one_kind_with_its_own_name() {
        // A body's kind is the variant's own name, and serde's external
        // tag proves the list above names the variant it builds.
        let bodies = bodies();
        for (variant, body) in &bodies {
            assert_eq!(format!("{:?}", body.kind()), *variant);
            let tagged = serde::Serialize::to_value(body);
            let tag = tagged.as_str().or_else(|| tagged.as_object()?.keys().next().map(|k| &**k));
            assert_eq!(tag, Some(*variant));
        }
        // The events a node counts that are not bodies, as the reports
        // and the harnesses that read them spell them.
        let events = [
            "retransmit",
            "barrier_parked",
            "barrier_released",
            "abandoned",
            "data_rejected",
            "ingest_rejected",
        ];
        assert_eq!(Kind::ALL.len(), bodies.len() + events.len(), "a kind nobody counts");
        for name in events {
            let kind = Kind::from_name(name).unwrap_or_else(|| panic!("no kind named {name}"));
            assert!(bodies.iter().all(|(_, b)| b.kind() != kind), "{name} is also a body's kind");
        }
        // Names are the snake case of the variant, distinct, and `ALL` is
        // the discriminants in order — which is what indexes the counters.
        let names: std::collections::BTreeSet<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), Kind::ALL.len());
        for (i, kind) in Kind::ALL.into_iter().enumerate() {
            assert_eq!(kind as usize, i);
            assert_eq!(Kind::from_name(kind.name()), Some(kind));
            let snake: String = format!("{kind:?}")
                .chars()
                .enumerate()
                .flat_map(|(i, c)| {
                    let sep = (c.is_uppercase() && i > 0).then_some('_');
                    sep.into_iter().chain(c.to_lowercase())
                })
                .collect();
            assert_eq!(kind.name(), snake);
        }
        assert_eq!(Kind::from_name("no_such_kind"), None);
    }

    #[test]
    fn counters_read_like_the_map_they_serialise_as() {
        let mut n = NodeReport::new(NodeId(3));
        n.count_sent(Kind::UpdateData);
        n.count_sent(Kind::Ack);
        n.count_sent(Kind::Ack);
        assert_eq!(n.messages_sent.get("ack"), Some(&2));
        assert_eq!(n.messages_sent.get("ds_ack"), None, "never counted is absent, not zero");
        assert_eq!(n.messages_sent.get("no_such_kind"), None);
        assert!(n.messages_sent.contains_key("update_data"));
        assert!(!n.messages_sent.contains_key("ds_ack"));
        assert_eq!(n.messages_sent.values().sum::<u64>(), 3);
        assert_eq!(n.messages_sent.iter().collect::<Vec<_>>(), [("ack", 2), ("update_data", 1)]);
        assert_eq!(n.messages_received.iter().count(), 0);
        assert_eq!(n.messages_sent.of(Kind::Ack), 2);
    }

    /// The report's JSON, byte for byte what the name-keyed counters
    /// wrote: kinds in name order, only those counted; a query's report
    /// says whether its answer was the one the node kept; the firings
    /// re-sent as rejoin repair are counted beside them.
    #[test]
    fn a_node_report_serialises_to_the_json_it_always_did() {
        let mut n = NodeReport::new(NodeId(7));
        n.count_sent(Kind::UpdateData);
        n.count_sent(Kind::UpdateData);
        n.count_sent(Kind::Ack);
        n.count_sent(Kind::Retransmit);
        n.count_received(Kind::DsAck);
        n.count_received(Kind::DataRejected);
        n.ldb_tuples = 3;
        let r = n.update_mut(upd(), SimTime::from_millis(2));
        r.received.entry("r1".into()).or_default().record(2, 100);
        let query = QueryId { origin: NodeId(7), epoch: 0, seq: 4 };
        let q = n.queries.entry(query).or_insert(QueryReport::new(query, SimTime::from_millis(3)));
        (q.requests_sent, q.answers_received, q.unchanged, q.kept) = (1, 2, 1, true);
        let json = serde_json::to_string(&n).unwrap();
        assert_eq!(
            json,
            concat!(
                r#"{"ldb_tuples":3,"messages_received":[["data_rejected",1],["ds_ack",1]],"#,
                r#""messages_sent":[["ack",1],["retransmit",1],["update_data",2]],"node":7,"#,
                r#""queries":[[{"epoch":0,"origin":7,"seq":4},{"answers":0,"answers_received":2,"#,
                r#""bytes_received":0,"finished_at":null,"first_answer_at":null,"kept":true,"#,
                r#""query":{"epoch":0,"origin":7,"seq":4},"requests_sent":1,"#,
                r#""started_at":3000000,"unchanged":1}]],"repair_firings":0,"#,
                r#""updates":[[{"epoch":0,"origin":0,"seq":0},{"closed_at":null,"#,
                r#""completed_at":null,"evaluated":0,"longest_path":0,"received":[["r1","#,
                r#"{"bytes":100,"#,
                r#""firings":2,"messages":1}]],"requests_received":0,"sent":[],"#,
                r#""started_at":2000000,"truncated":false,"tuples_added":0,"#,
                r#""update":{"epoch":0,"origin":0,"seq":0}}]]}"#
            )
        );
        let back: NodeReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.messages_sent, n.messages_sent);
        assert_eq!(back.messages_received, n.messages_received);
        assert!(back.queries[&query].kept);
        let unknown = json.replace("retransmit", "retransmat");
        assert!(serde_json::from_str::<NodeReport>(&unknown).is_err());
    }

    #[test]
    fn reports_serialise_to_json() {
        let mut n = NodeReport::new(NodeId(0));
        n.update_mut(upd(), SimTime::ZERO);
        let js = serde_json::to_string(&n).unwrap();
        let back: NodeReport = serde_json::from_str(&js).unwrap();
        assert_eq!(back.node, NodeId(0));
        assert!(back.updates.contains_key(&upd()));
    }
}
