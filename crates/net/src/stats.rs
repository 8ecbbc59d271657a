//! Network-level statistics: ground truth the coDB statistics module is
//! validated against.

use crate::peer::PeerId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Counters for one directed pipe.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PipeStats {
    /// Messages handed to the pipe.
    pub sent: u64,
    /// Messages delivered to the destination peer.
    pub delivered: u64,
    /// Messages dropped by the loss model.
    pub dropped: u64,
    /// Payload bytes handed to the pipe.
    pub bytes_sent: u64,
}

impl PipeStats {
    /// Adds `other`'s counters into `self` — used when folding a closed
    /// pipe's counters into the surviving per-pipe table.
    pub fn merge(&mut self, other: &PipeStats) {
        self.sent += other.sent;
        self.delivered += other.delivered;
        self.dropped += other.dropped;
        self.bytes_sent += other.bytes_sent;
    }
}

/// Whole-network counters.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct NetStats {
    /// Total messages handed to pipes.
    pub sent: u64,
    /// Total messages delivered.
    pub delivered: u64,
    /// Total messages dropped by the loss model.
    pub dropped: u64,
    /// Messages sent without an open pipe (protocol bugs / churn races).
    pub undeliverable: u64,
    /// Total payload bytes handed to pipes.
    pub bytes_sent: u64,
    /// Per directed pipe counters.
    pub per_pipe: BTreeMap<(PeerId, PeerId), PipeStats>,
}
