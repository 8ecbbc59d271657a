//! # codb-bench
//!
//! The experiment harness regenerating every experiment of the coDB
//! reproduction (listed in README.md, "Experiments"). [`experiments`]
//! holds one function per experiment id, registered in
//! [`EXPERIMENTS`]; the `exp` binary prints the tables. No host clock
//! is read here: the tables are exact under their seeds (committed as
//! `docs/EXPERIMENTS.json`), and host time is measured by the
//! `benchmark/` package.

#![warn(missing_docs)]

pub mod experiments;
pub mod table;
pub mod timeline;

pub use experiments::{all, by_id, EXPERIMENTS};
pub use table::Table;
pub use timeline::render_timeline;
