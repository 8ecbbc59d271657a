//! # codb-bench
//!
//! The benchmark harness regenerating every experiment of the coDB
//! reproduction (listed in README.md, "Experiments"). [`experiments`] holds one function per
//! experiment id; the `exp` binary prints the tables; the Criterion
//! benches in `benches/` measure the host-time distributions of the same
//! runs.

#![warn(missing_docs)]

pub mod experiments;
pub mod phases;
pub mod table;
pub mod timeline;

pub use experiments::{all, by_id};
pub use phases::{phase_ms, phase_summary, PhaseRecorder};
pub use table::{PipeTotals, Table};
pub use timeline::render_timeline;
