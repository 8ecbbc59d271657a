//! # codb-bench
//!
//! The experiment harness regenerating every experiment of the coDB
//! reproduction (listed in README.md, "Experiments"). [`experiments`]
//! holds one function per experiment id, registered in
//! [`EXPERIMENTS`]; the `exp` binary prints the tables. Performance
//! claims are measured by the `benchmark/` package, not here.

#![warn(missing_docs)]

pub mod experiments;
pub mod phases;
pub mod table;
pub mod timeline;

pub use experiments::{all, by_id, EXPERIMENTS};
pub use phases::{phase_ms, phase_summary, PhaseRecorder};
pub use table::{PipeTotals, Table};
pub use timeline::render_timeline;
