//! # coDB — a peer-to-peer database system
//!
//! A from-scratch Rust reproduction of **"Queries and Updates in the coDB
//! Peer to Peer Database System"** (Franconi, Kuper, Lopatenko, Zaihrayeu;
//! VLDB 2004): a network of autonomous databases with heterogeneous
//! schemas, interconnected by **GLAV coordination rules** — inclusions of
//! conjunctive queries, possibly with existential head variables
//! (materialised as *marked nulls*), possibly cyclic.
//!
//! The system supports two modes of data access:
//!
//! * **query-time answering** — a query at one node transparently fetches
//!   relevant data from acquaintances along coordination rules, over
//!   simple paths (a diffusing computation with node-id path labels);
//! * **global updates** — a batch materialisation: one node floods an
//!   update request, every node pushes (semi-naive, duplicate-suppressed)
//!   rule firings to its acquaintances until the network-wide fixpoint is
//!   reached; termination combines the paper's open/closed link-state
//!   protocol with Dijkstra–Scholten quiescence detection for cycles.
//!
//! ## Quickstart
//!
//! ```
//! use codb::prelude::*;
//!
//! let config = NetworkConfig::parse(r#"
//!     node hr
//!     node portal
//!     schema hr: emp(str, int)
//!     schema portal: person(str, int)
//!     data hr: emp("alice", 30). emp("bob", 17).
//!     rule r1 @ hr -> portal: person(N, A) <- emp(N, A), A >= 18.
//! "#).unwrap();
//!
//! let mut net = CoDbNetwork::build(config, SimConfig::default()).unwrap();
//! let portal = net.node_id("portal").unwrap();
//!
//! // Batch materialisation: the paper's global update.
//! let outcome = net.run_update(portal);
//! assert_eq!(outcome.summary.tuples_added, 1); // alice only
//!
//! // Afterwards the data is local.
//! let q = net.run_query_text(portal, "ans(N) :- person(N, A).", false).unwrap();
//! assert_eq!(q.result.answers.len(), 1);
//! ```
//!
//! The workspace crates are re-exported here: [`relational`] (the
//! relational engine with marked nulls and GLAV rules), [`net`] (the
//! deterministic discrete-event P2P simulator standing in for JXTA),
//! [`core`] (the coDB node and its distributed algorithms), [`store`]
//! (the durable storage engine: WAL + snapshots + crash recovery +
//! shared group-commit fsync scheduling), [`trace`] (the binary flight
//! recorder every layer emits events into) and [`workload`]
//! (topology/data/crash-scenario generators for the experiments).
//!
//! The crate map with a data-flow diagram lives in [`architecture`]
//! (`docs/ARCHITECTURE.md`); the normative durability contract in
//! [`codb_store::durability`] (`docs/DURABILITY.md`).

pub use codb_core as core;
pub use codb_net as net;
pub use codb_relational as relational;
pub use codb_store as store;
pub use codb_trace as trace;
pub use codb_workload as workload;

// In scope so the [`architecture`] page's intra-doc links resolve
// (module docs resolve names in the parent scope).
#[allow(unused_imports)]
use codb_store::FsyncScheduler;

/// The common imports for using coDB as a library.
pub mod prelude {
    pub use codb_core::{
        Body, CoDbNetwork, CoDbNode, ConfigError, CoordinationRule, NetworkConfig, NetworkReport,
        NodeConfig, NodeId, NodeSettings, QueryOutcome, QueryResult, UpdateId, UpdateOutcome,
        UpdateSummary,
    };
    pub use codb_net::{PipeConfig, SimConfig, SimTime};
    pub use codb_relational::{
        parse_facts, parse_query, parse_rule, ConjunctiveQuery, DatabaseSchema, GlavRule, Instance,
        Relation, RelationSchema, Tuple, Value, ValueType,
    };
    pub use codb_store::{
        Codec, FsyncScheduler, FsyncSchedulerStats, ProtocolCounters, Store, StoreError,
        SyncPolicy, WalRecord,
    };
    pub use codb_trace::{
        read_trace_file, FileRecorder, RingRecorder, Summary, TraceEvent, TraceFile, Tracer,
    };
    pub use codb_workload::{
        run_fault_plan, run_fault_plan_differential, CodecDifferentialReport, DataDist, FaultPlan,
        FaultPlanReport, RuleStyle, Scenario, Topology,
    };
}

/// The crate map and data-flow architecture, rendered from
/// `docs/ARCHITECTURE.md` so `cargo doc -D warnings` keeps its intra-doc
/// links honest.
#[doc = include_str!("../docs/ARCHITECTURE.md")]
pub mod architecture {}
