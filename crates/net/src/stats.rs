//! Network-level statistics: the simulator's one ledger, kept for the
//! whole network and nowhere per pipe. The coDB statistics module is
//! checked against it: `assert_kinds_match_the_ledger`
//! (`crates/core/tests/end_to_end.rs`, run by
//! `update_report_duration_fields_are_consistent` and, under 8% loss,
//! `kind_counts_match_the_ledger_under_loss`; `Program::ledger` in
//! `tests/update_start.rs` after every projection-free program) equates
//! the envelopes the nodes count sent, plus the harness's injections,
//! with `sent`, and those they count received with `delivered`.

use serde::Serialize;

/// Whole-network counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize)]
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
}
