//! The per-node statistics module and the super-peer's aggregated report.
//!
//! Paper §4: "each node has an additional statistical module. This module
//! accumulates various information about global updates such as: total
//! execution time of an update, number of query result messages received
//! per coordination rule and the volume of the data in each message,
//! longest update propagation path, and so on. … a super-peer … collects,
//! at any given time, statistical information from all nodes … aggregates
//! them and creates a final statistical report."

use crate::ids::{NodeId, QueryId, RuleName, UpdateId};
use codb_net::SimTime;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

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
    pub received: BTreeMap<RuleName, RuleTraffic>,
    /// Data sent per incoming link.
    pub sent: BTreeMap<RuleName, RuleTraffic>,
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
            answers: 0,
        }
    }

    /// Wall (simulated) time from request to answer.
    pub fn duration(&self) -> Option<SimTime> {
        self.finished_at.map(|t| t.saturating_sub(self.started_at))
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
    pub messages_sent: BTreeMap<String, u64>,
    /// All protocol messages received, by kind.
    pub messages_received: BTreeMap<String, u64>,
    /// Total LDB tuples at report time.
    pub ldb_tuples: u64,
}

impl NodeReport {
    /// Creates an empty report for `node`.
    pub fn new(node: NodeId) -> Self {
        NodeReport { node, ..Default::default() }
    }

    /// Counts a sent message of `kind`.
    pub fn count_sent(&mut self, kind: &'static str) {
        count(&mut self.messages_sent, kind);
    }

    /// Counts a received message of `kind`.
    pub fn count_received(&mut self, kind: &'static str) {
        count(&mut self.messages_received, kind);
    }

    /// The report for `update`, created at `now` on first touch.
    pub fn update_mut(&mut self, update: UpdateId, now: SimTime) -> &mut UpdateReport {
        self.updates.entry(update).or_insert_with(|| UpdateReport::new(update, now))
    }
}

/// Bumps `kind`'s counter. Runs for every message, so the key is
/// allocated only the first time a kind is seen.
fn count(counters: &mut BTreeMap<String, u64>, kind: &str) {
    match counters.get_mut(kind) {
        Some(n) => *n += 1,
        None => {
            counters.insert(kind.to_owned(), 1);
        }
    }
}

/// Network-wide aggregation of one update — the super-peer's "final
/// statistical report" rows.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct UpdateSummary {
    /// Nodes that participated.
    pub nodes: u64,
    /// Nodes that reached the closed state on their own (before the global
    /// completion flood).
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
    /// Total tuples materialised network-wide.
    pub tuples_added: u64,
    /// Longest update propagation path anywhere.
    pub longest_path: u64,
    /// Per-rule traffic, aggregated over receivers.
    pub per_rule: BTreeMap<RuleName, RuleTraffic>,
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
        let mut summary = UpdateSummary::default();
        let mut started: Option<SimTime> = None;
        let mut finished: Option<SimTime> = None;
        let mut seen = false;
        for node in self.nodes.values() {
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
                let agg = summary.per_rule.entry(rule.clone()).or_default();
                agg.messages += t.messages;
                agg.firings += t.firings;
                agg.bytes += t.bytes;
            }
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
        n.count_sent("update_data");
        n.count_sent("update_data");
        n.count_received("ds_ack");
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
