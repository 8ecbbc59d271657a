//! # codb-net
//!
//! The network substrate of the coDB reproduction: a substitute for the
//! JXTA middleware the paper builds on. It provides the JXTA facilities
//! coDB actually uses — peer identity, point-to-point *pipes*, message
//! envelopes, advertisement/discovery — over two interchangeable runtimes:
//!
//! * [`sim::SimNet`] — a **deterministic discrete-event simulator** with a
//!   per-pipe latency / bandwidth / loss model and a seeded RNG. All
//!   experiments run here: message counts, propagation paths and relative
//!   timings are functions of the protocol, and runs are reproducible.
//! * [`parallel::ParallelNet`] — a sharded threaded runtime (N worker
//!   threads multiplexing M nodes over bounded mailboxes with
//!   backpressure) proving the same state machines survive real asynchrony
//!   and scale with cores.
//!
//! Peers implement [`peer::Peer`] and interact with either runtime through
//! [`peer::Context`] commands only.

#![warn(missing_docs)]

pub mod builder;
pub mod discovery;
mod mailbox;
pub mod parallel;
pub mod peer;
pub mod pipe;
pub mod queue;
pub mod sim;
pub mod stats;
pub mod time;
mod worker;

pub use builder::SimBuilder;
pub use discovery::{AdKind, Advertisement, Board};
pub use parallel::{ParallelNet, RuntimeConfig};
pub use peer::{Command, Context, Payload, Peer, PeerId};
pub use pipe::PipeConfig;
pub use sim::{SimConfig, SimNet};
pub use stats::NetStats;
pub use time::SimTime;

// Re-exported so harnesses attaching a flight recorder to a [`SimNet`]
// don't need a direct codb-trace dependency.
pub use codb_trace::{TraceEvent, Tracer};
