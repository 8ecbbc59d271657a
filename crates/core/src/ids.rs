//! Identifiers used across the coDB protocols.
//!
//! Update, query and fetch identifiers are **(origin, epoch, seq)**-keyed:
//! `origin` is the minting node, `epoch` the node's *incarnation* (bumped
//! every time the node is restarted from its durable store — see
//! `codb-store`'s `codb.epoch` counter), and `seq` a per-origin sequence
//! number. The epoch makes identifiers collision-free across crashes by
//! construction: even if a node lost its persisted counters and restarted
//! `seq` at zero, its new incarnation's ids differ from every id the dead
//! incarnation minted. (In practice the counters *are* persisted — the
//! epoch is the belt to that suspender.)

use codb_net::PeerId;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::num::NonZeroU64;

/// A coDB node identifier. Nodes sit 1:1 on network peers.
#[derive(
    Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct NodeId(pub u64);

impl NodeId {
    /// The network peer carrying this node.
    pub fn peer(self) -> PeerId {
        PeerId(self.0)
    }
}

impl From<PeerId> for NodeId {
    fn from(p: PeerId) -> Self {
        NodeId(p.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifier of one global update: the initiating node, its incarnation
/// epoch, and a per-node sequence number. The paper generates these with
/// JXTA ("all global update request messages carry the same unique
/// identifier generated at the node which started the global update");
/// the epoch component keeps ids unique across node restarts.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct UpdateId {
    /// Node that started the update.
    pub origin: NodeId,
    /// Incarnation of the origin when the update started.
    pub epoch: u64,
    /// Per-origin sequence number.
    pub seq: u64,
}

impl fmt::Display for UpdateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "upd[{}@{}#{}]", self.origin, self.epoch, self.seq)
    }
}

/// Identifier of one user query execution.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct QueryId {
    /// Node the user queried.
    pub origin: NodeId,
    /// Incarnation of the origin when the query started.
    pub epoch: u64,
    /// Per-origin sequence number.
    pub seq: u64,
}

impl fmt::Display for QueryId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "qry[{}@{}#{}]", self.origin, self.epoch, self.seq)
    }
}

/// Identifier of one query-time fetch request (a node asking an
/// acquaintance to execute one coordination rule on behalf of a query).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ReqId {
    /// The requesting node.
    pub node: NodeId,
    /// Incarnation of the requester when the fetch was issued.
    pub epoch: u64,
    /// Per-node sequence number.
    pub seq: u64,
}

impl fmt::Display for ReqId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "req[{}@{}#{}]", self.node, self.epoch, self.seq)
    }
}

/// The name a serving node gives one whole answer it sends on a link: its
/// incarnation epoch and a per-node sequence number. A server never gives
/// two answers one tag — the epoch grows with every restart, so a new
/// incarnation cannot repeat a dead one's — and it gives an answer it kept
/// the tag it had, so a requester that names the tag of the answer it
/// holds learns, by getting the tag back, that nothing changed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Tag {
    /// Incarnation of the server when it minted the tag.
    pub epoch: u64,
    /// Per-node sequence number, from 1: with no zero, an `Option<Tag>`
    /// takes no more room than a tag, and the two messages that carry one
    /// are no larger than the largest other
    /// [`Body`](crate::messages::Body) — every envelope is moved by value.
    pub seq: NonZeroU64,
}

/// Coordination rules are addressed by their (configuration-unique) name.
/// Shared, not owned: a message and its retransmission copy hold the name
/// the node's rule book holds, and cloning it allocates nothing.
pub type RuleName = std::sync::Arc<str>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_peer_round_trip() {
        let n = NodeId(7);
        assert_eq!(n.peer(), PeerId(7));
        assert_eq!(NodeId::from(PeerId(7)), n);
    }

    #[test]
    fn displays() {
        assert_eq!(NodeId(3).to_string(), "n3");
        assert_eq!(UpdateId { origin: NodeId(1), epoch: 0, seq: 2 }.to_string(), "upd[n1@0#2]");
        assert_eq!(QueryId { origin: NodeId(1), epoch: 3, seq: 2 }.to_string(), "qry[n1@3#2]");
        assert_eq!(ReqId { node: NodeId(1), epoch: 0, seq: 2 }.to_string(), "req[n1@0#2]");
    }

    #[test]
    fn update_ids_order_by_origin_then_epoch_then_seq() {
        let a = UpdateId { origin: NodeId(1), epoch: 0, seq: 9 };
        let b = UpdateId { origin: NodeId(2), epoch: 0, seq: 0 };
        assert!(a < b);
        let old = UpdateId { origin: NodeId(1), epoch: 0, seq: 9 };
        let new = UpdateId { origin: NodeId(1), epoch: 1, seq: 0 };
        assert!(old < new, "a new incarnation's ids outrank the dead one's");
    }

    #[test]
    fn restarted_seq_zero_cannot_collide_across_epochs() {
        // The crash-rejoin guarantee at the id level: identical origin and
        // seq are still distinct ids when the epoch differs.
        let dead = UpdateId { origin: NodeId(4), epoch: 0, seq: 0 };
        let rejoined = UpdateId { origin: NodeId(4), epoch: 1, seq: 0 };
        assert_ne!(dead, rejoined);
    }
}
