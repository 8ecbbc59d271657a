//! The five workloads: what each runs and why it exists.
//!
//! Shapes and sizes are part of a workload's definition; the data come from
//! the `--seed` argument through [`Scenario`] — the program under test sees
//! only the generated `NetworkConfig`, tuples and queries. A scale-free
//! topology therefore has a fixed wiring seed: rewiring it per run would
//! change the message count by more than any bound, and then no two runs
//! could be compared.

use codb_workload::{DataDist, RuleStyle, Scenario, Topology};

/// What a workload runs.
#[derive(Clone, Copy, Debug)]
pub enum Kind {
    /// Cold global updates from the sink on the simulator: a fresh network
    /// per sample, one `run_update`, one local query of the result.
    Update,
    /// Laps of query-time fetches, one update, then local join queries
    /// beside ingest, on the simulator.
    QueryMix,
    /// Laps of durable ingest rounds, shutdowns, checkpoints and recoveries
    /// on the worker pool.
    Durable,
}

/// One workload.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// What runs.
    pub kind: Kind,
    /// The acquaintance graph.
    pub topology: Topology,
    /// Distinct tuples seeded at every node.
    pub tuples_per_node: usize,
    /// Rule shape per edge.
    pub rule_style: RuleStyle,
}

impl Spec {
    /// The scenario for one seed.
    pub fn scenario(&self, seed: u64) -> Scenario {
        Scenario {
            topology: self.topology,
            tuples_per_node: self.tuples_per_node,
            rule_style: self.rule_style,
            dist: DataDist::Uniform { domain: 1 << 40 },
            seed,
        }
    }
}

/// Wiring seed of `update_wide`'s scale-free graph (see the module docs).
const WIDE_WIRING_SEED: u64 = 0xC0DB;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[Spec] = &[
    // The paper's E1/E8 quantity: bulk data down a long chain. `core` and
    // `relational` do almost all the work, `net` a few percent, `store` none.
    Spec {
        name: "update_bulk",
        kind: Kind::Update,
        topology: Topology::Chain(16),
        tuples_per_node: 150,
        rule_style: RuleStyle::CopyGav,
    },
    // The same code path with the proportions inverted: many peers, almost
    // no data. The event loop and the protocol dominate, `relational` idles:
    // a `net` gain shows here and must not move `update_bulk`.
    Spec {
        name: "update_wide",
        kind: Kind::Update,
        topology: Topology::ScaleFree { n: 120, m: 2, seed: WIDE_WIRING_SEED },
        tuples_per_node: 2,
        rule_style: RuleStyle::CopyGav,
    },
    // The paper's headline case: cyclic rules with existential heads —
    // marked nulls, template dedup, Dijkstra–Scholten termination.
    Spec {
        name: "update_glav_ring",
        kind: Kind::Update,
        topology: Topology::Ring(12),
        tuples_per_node: 150,
        rule_style: RuleStyle::ProjectGlav,
    },
    // Reads beside writes: the query protocol and the evaluator instead of
    // the update path; repeated queries plus periodic ingest is what a
    // result cache must survive.
    Spec {
        name: "query_mix",
        kind: Kind::QueryMix,
        topology: Topology::Chain(8),
        tuples_per_node: 1000,
        rule_style: RuleStyle::JoinGav { join_domain: 256 },
    },
    // The only workload where `store` (encode, fsync, checkpoint, replay)
    // and the worker pool carry the cost.
    Spec {
        name: "durable_ingest",
        kind: Kind::Durable,
        topology: Topology::Chain(12),
        tuples_per_node: 5,
        rule_style: RuleStyle::CopyGav,
    },
];

/// The workload called `name`.
pub fn by_name(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}
