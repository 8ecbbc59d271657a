//! # codb-workload
//!
//! Workload generation for the coDB experiments: topology families
//! ([`topology::Topology`]), seeded data generators ([`data_gen`]) and
//! complete scenario builders ([`scenario::Scenario`]) that assemble a
//! validated `NetworkConfig` ready to run on the simulator — the library
//! equivalent of the demo's hand-arranged networks. The [`faultplan`]
//! module is the one crash/restart harness: deterministic, seeded,
//! replayable schedules of crash/restart/checkpoint/message-loss events —
//! a single mid-update crash included — whose outcome is checked against a
//! never-crashed control network and against [`oracle`], the centralised
//! chase. [`parallel`] drives ingest rounds on the worker pool with the
//! simulator as ground truth.

#![warn(missing_docs)]

pub mod data_gen;
pub mod faultplan;
pub mod oracle;
pub mod parallel;
mod powercut;
pub mod scenario;
pub mod simscale;
pub mod topology;

pub use data_gen::{generate, generate_distinct, DataDist};
pub use faultplan::{
    run_fault_plan, run_fault_plan_differential, run_fault_plan_traced, CodecDifferentialReport,
    Fault, FaultKind, FaultPlan, FaultPlanReport, RestartReport, Round, RoundReport,
};
pub use parallel::{
    run_parallel_host_crash, run_parallel_ingest, ParallelCrashReport, ParallelIngestPlan,
    ParallelIngestReport,
};
pub use scenario::{RuleStyle, Scenario};
pub use simscale::{run_flood, FloodMsg, FloodPeer, FloodReport};
pub use topology::Topology;
