//! The oracle: a centralised naive chase over the whole network's data.
//!
//! It uses only `codb_relational` — `GlavRule::fire` on the source's full
//! instance, one firing set per rule for template dedup, `apply_firings`
//! into the target — and nothing of `codb-core`'s protocol, so a bug in the
//! distributed update cannot hide behind a sibling run of the same code.
//! The chase is monotone: tuples may be inserted after a fixpoint and the
//! chase resumed.

use codb_core::{CoordinationRule, NetworkConfig, NodeId};
use codb_relational::{
    answer_query, apply_firings, isomorphic, ConjunctiveQuery, Instance, NullFactory, RuleFiring,
    Tuple,
};
use std::collections::{BTreeMap, BTreeSet};

/// Null labels the oracle invents never collide with a node's (nodes use
/// their own id as origin).
const ORACLE_NULL_ORIGIN: u64 = u64::MAX - 11;

/// Chase state: one instance per node plus the per-rule firing sets.
pub struct Oracle {
    rules: Vec<CoordinationRule>,
    instances: BTreeMap<NodeId, Instance>,
    fired: Vec<BTreeSet<RuleFiring>>,
    nulls: NullFactory,
}

impl Oracle {
    /// Seeds every node's instance from the configuration. No rule has run.
    pub fn new(config: &NetworkConfig) -> Self {
        let instances = config
            .nodes
            .iter()
            .map(|nc| {
                let mut inst = Instance::with_schema(&nc.schema);
                for (rel, tuple) in &nc.data {
                    inst.insert(rel, tuple.clone()).expect("seed data matches its schema");
                }
                (nc.id, inst)
            })
            .collect();
        Oracle {
            rules: config.rules.clone(),
            instances,
            fired: vec![BTreeSet::new(); config.rules.len()],
            nulls: NullFactory::new(ORACLE_NULL_ORIGIN),
        }
    }

    /// The fixpoint of `config`: seed, then chase.
    pub fn fixpoint(config: &NetworkConfig) -> Self {
        let mut oracle = Oracle::new(config);
        oracle.chase();
        oracle
    }

    /// Runs every rule over its source's full instance until a whole pass
    /// derives no firing that rule has not produced before.
    pub fn chase(&mut self) {
        loop {
            let mut changed = false;
            for (i, rule) in self.rules.iter().enumerate() {
                let all = rule.rule.fire(&self.instances[&rule.source]).expect("validated rule");
                let fresh: Vec<RuleFiring> =
                    all.into_iter().filter(|f| self.fired[i].insert(f.clone())).collect();
                if fresh.is_empty() {
                    continue;
                }
                changed = true;
                let target = self.instances.get_mut(&rule.target).expect("rule target exists");
                apply_firings(target, &fresh, &mut self.nulls).expect("head matches schema");
            }
            if !changed {
                return;
            }
        }
    }

    /// Inserts one local tuple (the chase must be resumed to propagate it).
    pub fn insert(&mut self, node: NodeId, relation: &str, tuple: Tuple) {
        self.instances
            .get_mut(&node)
            .expect("node exists")
            .insert(relation, tuple)
            .expect("tuple matches its schema");
    }

    /// One node's instance.
    pub fn instance(&self, node: NodeId) -> &Instance {
        &self.instances[&node]
    }

    /// Every node's instance.
    pub fn instances(&self) -> &BTreeMap<NodeId, Instance> {
        &self.instances
    }

    /// The rules the oracle chases.
    pub fn rules(&self) -> &[CoordinationRule] {
        &self.rules
    }

    /// Total tuples over all instances.
    #[cfg(test)]
    pub fn total_tuples(&self) -> usize {
        self.instances.values().map(Instance::tuple_count).sum()
    }

    /// The oracle's answer to `query` at `node`.
    pub fn answers(&self, node: NodeId, query: &ConjunctiveQuery) -> Vec<Tuple> {
        answer_query(query, &self.instances[&node]).expect("query matches the schema")
    }
}

/// True when `got` agrees with the oracle's `want` up to the names of
/// marked nulls: every relation has the same cardinality and exactly the
/// same null-free tuples.
pub fn node_matches(want: &Instance, got: &Instance) -> bool {
    want.relation_count() == got.relation_count()
        && want.relations().all(|w| {
            got.get(w.name()).is_some_and(|g| {
                w.len() == g.len() && w.iter().filter(|t| !t.has_null()).all(|t| g.contains(t))
            })
        })
}

/// Checks every node of a run against the oracle ([`node_matches`]), and
/// the node `iso_at` — when given — for full null-isomorphism as well.
pub fn network_matches(
    oracle: &Oracle,
    ldbs: &BTreeMap<NodeId, &Instance>,
    iso_at: Option<NodeId>,
) -> bool {
    oracle.instances().iter().all(|(id, want)| {
        ldbs.get(id).is_some_and(|got| {
            node_matches(want, got) && (iso_at != Some(*id) || isomorphic(want, got))
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nets::SimHarness;
    use codb_core::CoDbNetwork;
    use codb_net::SimConfig;
    use codb_workload::{DataDist, RuleStyle, Scenario, Topology};

    fn scenario(topology: Topology, rule_style: RuleStyle) -> Scenario {
        Scenario {
            topology,
            tuples_per_node: 12,
            rule_style,
            dist: DataDist::Uniform { domain: 1 << 40 },
            seed: 5,
        }
    }

    #[test]
    fn oracle_agrees_with_the_network_on_a_chain() {
        let s = scenario(Topology::Chain(4), RuleStyle::CopyGav);
        let config = s.build_config();
        let oracle = Oracle::fixpoint(&config);
        let mut net = CoDbNetwork::build(config, SimConfig::default()).unwrap();
        net.run_update(s.sink());
        assert_eq!(oracle.total_tuples(), net.total_tuples());
        assert_eq!(oracle.total_tuples(), 12 * (1 + 2 + 3 + 4));
        for (id, want) in oracle.instances() {
            assert_eq!(want, net.node(*id).ldb(), "ground fixpoints are equal at {id}");
        }
        assert!(network_matches(&oracle, &net.ldbs(), None));
    }

    #[test]
    fn oracle_agrees_with_the_network_on_a_glav_ring() {
        let s = scenario(Topology::Ring(3), RuleStyle::ProjectGlav);
        let config = s.build_config();
        let oracle = Oracle::fixpoint(&config);
        let mut net = CoDbNetwork::build(config, SimConfig::default()).unwrap();
        net.run_update(s.sink());
        // Own tuples plus one null-padded copy of every key in the ring.
        assert_eq!(oracle.instance(s.sink()).tuple_count(), 12 + 3 * 12);
        for (id, want) in oracle.instances() {
            assert!(isomorphic(want, net.node(*id).ldb()), "node {id} differs from the oracle");
        }
        assert!(network_matches(&oracle, &net.ldbs(), Some(s.sink())));
    }

    #[test]
    fn a_missing_or_extra_tuple_is_a_mismatch() {
        let s = scenario(Topology::Chain(3), RuleStyle::CopyGav);
        let config = s.build_config();
        let oracle = Oracle::fixpoint(&config);
        let net = CoDbNetwork::build(config, SimConfig::default()).unwrap();
        // No update ran: downstream nodes lack the imported tuples.
        assert!(!network_matches(&oracle, &net.ldbs(), None));
        assert!(!network_matches(&oracle, &BTreeMap::new(), None));
    }

    #[test]
    fn chase_resumes_after_an_insert() {
        let s = scenario(Topology::Chain(3), RuleStyle::CopyGav);
        let mut oracle = Oracle::fixpoint(&s.build_config());
        let before = oracle.total_tuples();
        oracle.insert(NodeId(0), "r0", Tuple::new(vec![(1i64 << 50).into(), 7i64.into()]));
        oracle.chase();
        assert_eq!(oracle.total_tuples(), before + 3, "the tuple reaches every downstream node");
    }
}
