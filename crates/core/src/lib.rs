//! # codb-core
//!
//! The coDB peer-to-peer database system (VLDB'04 demo, Franconi, Kuper,
//! Lopatenko, Zaihrayeu), reproduced as a Rust library: a network of
//! autonomous databases with heterogeneous schemas, interconnected by GLAV
//! coordination rules (inclusions of conjunctive queries, possibly with
//! existential head variables, possibly cyclic).
//!
//! * [`node::CoDbNode`] — one database peer: LDB + shared schema + the
//!   Database Manager dispatch.
//! * [`update`] — the **global update algorithm**: flooded update requests,
//!   semi-naive delta propagation with per-link sent caches, the paper's
//!   open/closed link-state protocol for progressive closing, and a
//!   Dijkstra–Scholten diffusing-computation backstop that detects global
//!   quiescence in cyclic rule graphs.
//! * [`query`] — **query-time answering** via path-labelled diffusing
//!   fetches over simple paths (sound, not complete under cycles — the
//!   paper's motivation for batch updates).
//! * [`superpeer`] — rule-file broadcast (dynamic topology reconfiguration)
//!   and network-wide statistics collection.
//! * [`network::CoDbNetwork`] — the harness running everything on the
//!   deterministic `codb-net` simulator.
//!
//! ## Quickstart
//!
//! ```
//! use codb_core::{CoDbNetwork, NetworkConfig};
//! use codb_net::SimConfig;
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
//! let outcome = net.run_update(portal);
//! assert_eq!(outcome.summary.tuples_added, 1); // alice is 18+, bob is not
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod ids;
pub mod messages;
pub mod network;
pub mod node;
pub mod parnet;
pub mod query;
pub mod rejoin;
pub mod reliable;
pub mod rules;
pub mod stats;
pub mod superpeer;
pub mod update;

pub use config::{ConfigError, NetworkConfig, NodeConfig};
pub use ids::{NodeId, QueryId, ReqId, RuleName, Tag, UpdateId};
pub use messages::{Body, CarriedAck, Envelope};
pub use network::{CoDbNetwork, QueryOutcome, UpdateOutcome, HARNESS_PEER};
pub use node::{CoDbNode, NodeSettings};
pub use parnet::{ParNetError, ParallelCoDbNet};
pub use query::QueryResult;
pub use rules::{
    link_graph_is_cyclic, rule_graph_is_cyclic, AcyclicLinks, CoordinationRule, RuleBook,
};
pub use stats::{
    Kind, KindCounts, NetworkReport, NodeReport, QueryReport, RuleTraffic, UpdateReport,
    UpdateSummary,
};
pub use update::whole_fires;
