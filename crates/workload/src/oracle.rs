//! The centralised chase: the reference semantics of a network's
//! coordination rules, computed in one place with no messages.
//!
//! After a global update every node's LDB must equal — up to renaming of
//! marked nulls — the fixpoint of the rules over the network's seed data.
//! The chase here reaches that fixpoint by applying every rule round-robin
//! over one set of per-node instances, with the firing-level dedup the
//! nodes use (one firing, one set of fresh nulls, once). It shares no code
//! with `codb-core`: only the relational engine's `fire` / `fire_delta` /
//! `apply_firings` sit beneath both, so a protocol bug cannot hide in it.
//!
//! Two evaluation orders, one result: [`chase_naive`] re-evaluates every
//! rule body in full each round; [`chase_seminaive`] evaluates, after the
//! first round, only against the previous round's deltas (what the
//! distributed nodes do). Experiment E10 compares their derivation counts;
//! the fault runner ([`crate::faultplan`]) and `tests/invariants.rs` use
//! the instances as the oracle.

use codb_core::{CoordinationRule, NetworkConfig, NodeId};
use codb_relational::{apply_firings, Instance, NullFactory, RuleFiring, Tuple};
use std::collections::{BTreeMap, BTreeSet};

/// A finished chase.
#[derive(Clone, Debug)]
pub struct Chase {
    /// Every node's instance at the fixpoint.
    pub instances: BTreeMap<NodeId, Instance>,
    /// Firings computed along the way, duplicates included (the E10
    /// "derivations" column: the work the evaluation order costs).
    pub derivations: u64,
    /// Rounds until nothing changed.
    pub rounds: u64,
}

/// New tuples per relation: the suffixes [`apply_firings`] names.
type Deltas = BTreeMap<String, Vec<Tuple>>;

/// Chase state between rule applications.
struct State {
    instances: BTreeMap<NodeId, Instance>,
    fired: BTreeMap<String, BTreeSet<RuleFiring>>,
    nulls: NullFactory,
    derivations: u64,
}

impl State {
    /// Every node's seed data under its schema.
    fn seed(config: &NetworkConfig) -> State {
        let instances = config
            .nodes
            .iter()
            .map(|n| {
                let mut inst = Instance::with_schema(&n.schema);
                for (rel, t) in &n.data {
                    inst.insert(rel, t.clone()).expect("seed data validated by config");
                }
                (n.id, inst)
            })
            .collect();
        State {
            instances,
            fired: BTreeMap::new(),
            // A factory id no node uses, so labels never collide with a
            // distributed run's when instances are compared.
            nulls: NullFactory::new(u64::MAX - 1),
            derivations: 0,
        }
    }

    fn source(&self, rule: &CoordinationRule) -> &Instance {
        &self.instances[&rule.source]
    }

    /// The step both orders share: count `produced`, drop the firings this
    /// rule has fired before, apply the rest at the rule's target. Returns
    /// the tuples that were new there.
    fn apply(&mut self, rule: &CoordinationRule, produced: Vec<RuleFiring>) -> Deltas {
        self.derivations += produced.len() as u64;
        let fired = self.fired.entry(rule.name().to_owned()).or_default();
        let fresh: Vec<RuleFiring> =
            produced.into_iter().filter(|f| fired.insert(f.clone())).collect();
        let target = self.instances.get_mut(&rule.target).expect("rule targets a configured node");
        let grown = apply_firings(target, &fresh, &mut self.nulls)
            .expect("rule heads match target schemas");
        let suffix = |rel: &str, v| target.get(rel).and_then(|r| r.since(v)).expect("it grew");
        grown.iter().map(|(rel, v)| (rel.to_string(), suffix(rel, *v).cloned().collect())).collect()
    }

    fn finish(self, rounds: u64) -> Chase {
        Chase { instances: self.instances, derivations: self.derivations, rounds }
    }
}

/// Naive chase: every round re-evaluates every rule body in full.
pub fn chase_naive(config: &NetworkConfig) -> Chase {
    let mut state = State::seed(config);
    let mut rounds = 0u64;
    loop {
        rounds += 1;
        let mut changed = false;
        for rule in &config.rules {
            let all = rule.rule.fire(state.source(rule)).expect("validated rule bodies evaluate");
            changed |= !state.apply(rule, all).is_empty();
        }
        if !changed {
            return state.finish(rounds);
        }
        assert!(rounds < 100_000, "naive chase diverged");
    }
}

/// Semi-naive chase: after the first round, rule bodies are evaluated only
/// against the per-relation deltas of the previous round.
pub fn chase_seminaive(config: &NetworkConfig) -> Chase {
    let mut state = State::seed(config);
    // node -> relation -> tuples that were new last round
    let mut deltas: BTreeMap<NodeId, Deltas> = BTreeMap::new();
    let merge = |into: &mut BTreeMap<NodeId, Deltas>, at: NodeId, new: Deltas| {
        for (rel, ts) in new {
            into.entry(at).or_default().entry(rel).or_default().extend(ts);
        }
    };

    // Round 1: full evaluation.
    let mut rounds = 1u64;
    for rule in &config.rules {
        let all = rule.rule.fire(state.source(rule)).expect("validated rule bodies evaluate");
        merge(&mut deltas, rule.target, state.apply(rule, all));
    }
    while !deltas.is_empty() {
        rounds += 1;
        let mut next = BTreeMap::new();
        for rule in &config.rules {
            let Some(source_deltas) = deltas.get(&rule.source) else { continue };
            let mut produced = Vec::new();
            for (rel, ts) in source_deltas {
                if rule.rule.body_relations().contains(rel.as_str()) {
                    produced.extend(
                        rule.rule
                            .fire_delta(state.source(rule), rel, ts)
                            .expect("validated rule bodies evaluate"),
                    );
                }
            }
            merge(&mut next, rule.target, state.apply(rule, produced));
        }
        deltas = next;
        assert!(rounds < 100_000, "semi-naive chase diverged");
    }
    state.finish(rounds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data_gen::DataDist;
    use crate::scenario::{RuleStyle, Scenario};
    use crate::topology::Topology;
    use codb_relational::isomorphic;

    /// Both evaluation orders reach the same fixpoint (up to null
    /// renaming), and the delta order never derives more.
    #[test]
    fn naive_and_seminaive_reach_isomorphic_fixpoints() {
        for topology in [Topology::Chain(5), Topology::Ring(4), Topology::Grid { w: 3, h: 2 }] {
            for rule_style in [RuleStyle::CopyGav, RuleStyle::ProjectGlav] {
                let s = Scenario { tuples_per_node: 9, rule_style, ..Scenario::quick(topology) };
                let config = s.build_config();
                let naive = chase_naive(&config);
                let semi = chase_seminaive(&config);
                for id in config.node_ids() {
                    assert!(
                        isomorphic(&naive.instances[&id], &semi.instances[&id]),
                        "{topology:?} {rule_style:?}: node {id} differs between the two orders"
                    );
                }
                assert!(semi.derivations > 0, "{topology:?} {rule_style:?}");
                assert!(semi.derivations <= naive.derivations, "{topology:?} {rule_style:?}");
                assert!(naive.rounds >= 2, "a last round that changes nothing: {naive:?}");
            }
        }
    }

    /// Ring of copies: every node ends up holding the union of the seed
    /// data (12 tuples, barring collisions the 100-value domain may
    /// produce).
    #[test]
    fn central_chase_smoke() {
        let scenario = Scenario {
            topology: Topology::Ring(3),
            tuples_per_node: 4,
            rule_style: RuleStyle::CopyGav,
            dist: DataDist::Uniform { domain: 100 },
            seed: 3,
        };
        let config = scenario.build_config();
        for chase in [chase_naive(&config), chase_seminaive(&config)] {
            let count = chase.instances[&NodeId(0)].get("r0").unwrap().len();
            assert!((10..=12).contains(&count), "got {count}");
        }
    }
}
