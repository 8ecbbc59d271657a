//! End-to-end experiment scenarios: topology + schemas + rules + data →
//! a ready-to-run [`NetworkConfig`].

use crate::data_gen::{generate_distinct, DataDist};
use crate::topology::Topology;
use codb_core::{CoordinationRule, NetworkConfig, NodeConfig, NodeId};
use codb_relational::{
    Atom, CmpOp, Comparison, CqBody, DatabaseSchema, GlavRule, RelationSchema, Term, Value,
    ValueType, Var,
};
use serde::Serialize;

/// How each topology edge is turned into a coordination rule.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum RuleStyle {
    /// GAV copy: `r_tgt(X, Y) <- r_src(X, Y)`.
    CopyGav,
    /// GAV with a comparison: `r_tgt(X, Y) <- r_src(X, Y), Y >= k` —
    /// selectivity controlled by `k` relative to the data domain.
    FilterGav {
        /// The threshold `k`.
        threshold: i64,
    },
    /// Proper GLAV with an existential head variable:
    /// `r_tgt(X, E) <- r_src(X, Y)` — `E` becomes a fresh marked null per
    /// firing; exercises the labelled-null machinery.
    ProjectGlav,
    /// GAV with a join body over two source relations:
    /// `r_tgt(X, Z) <- r_src(X, Y), s_src(Y, Z)` — rule bodies are full
    /// conjunctive queries, not just copies. Every node gets an auxiliary
    /// relation `s{i}` keyed over a small join domain so joins are
    /// productive.
    JoinGav {
        /// Size of the shared join-key domain.
        join_domain: u64,
    },
}

/// A complete experiment scenario.
#[derive(Clone, Copy, Debug, PartialEq, Serialize)]
pub struct Scenario {
    /// The acquaintance graph.
    pub topology: Topology,
    /// Distinct tuples seeded at every node.
    pub tuples_per_node: usize,
    /// Rule shape per edge.
    pub rule_style: RuleStyle,
    /// Data distribution.
    pub dist: DataDist,
    /// Master seed (per-node seeds derive from it).
    pub seed: u64,
}

impl Scenario {
    /// A small default scenario for quick tests.
    pub fn quick(topology: Topology) -> Self {
        Scenario {
            topology,
            tuples_per_node: 50,
            rule_style: RuleStyle::CopyGav,
            dist: DataDist::Uniform { domain: 1_000_000 },
            seed: 0xC0DB,
        }
    }

    /// The relation name of node `i` (schemas are heterogeneous: every node
    /// names its relation differently, as in a real P2P schema-mapping
    /// network).
    pub fn relation_of(node: usize) -> String {
        format!("r{node}")
    }

    /// The auxiliary (join) relation of node `i` (JoinGav scenarios only).
    pub fn aux_relation_of(node: usize) -> String {
        format!("s{node}")
    }

    /// Builds the rule for edge `(src, tgt)`.
    fn rule_for_edge(&self, idx: usize, src: usize, tgt: usize) -> CoordinationRule {
        let src_rel = Self::relation_of(src);
        let tgt_rel = Self::relation_of(tgt);
        let x = Term::Var(Var(0));
        let y = Term::Var(Var(1));
        let names = vec!["X".to_owned(), "Y".to_owned(), "E".to_owned()];
        let body_atom = Atom::new(src_rel, vec![x.clone(), y.clone()]);
        let rule = match self.rule_style {
            RuleStyle::JoinGav { .. } => GlavRule::new(
                format!("e{idx}"),
                vec![Atom::new(tgt_rel, vec![x, Term::Var(Var(2))])],
                CqBody::new(
                    vec![
                        body_atom,
                        Atom::new(Self::aux_relation_of(src), vec![y, Term::Var(Var(2))]),
                    ],
                    vec![],
                ),
                vec!["X".to_owned(), "Y".to_owned(), "Z".to_owned()],
            ),
            RuleStyle::CopyGav => GlavRule::new(
                format!("e{idx}"),
                vec![Atom::new(tgt_rel, vec![x, y])],
                CqBody::new(vec![body_atom], vec![]),
                names,
            ),
            RuleStyle::FilterGav { threshold } => GlavRule::new(
                format!("e{idx}"),
                vec![Atom::new(tgt_rel, vec![x, y])],
                CqBody::new(
                    vec![body_atom],
                    vec![Comparison::new(Var(1), CmpOp::Ge, Value::Int(threshold))],
                ),
                names,
            ),
            RuleStyle::ProjectGlav => GlavRule::new(
                format!("e{idx}"),
                vec![Atom::new(tgt_rel, vec![x, Term::Var(Var(2))])],
                CqBody::new(vec![body_atom], vec![]),
                names,
            ),
        }
        .expect("generated rules are well-formed");
        CoordinationRule { rule, source: NodeId(src as u64), target: NodeId(tgt as u64) }
    }

    /// Materialises the scenario as a validated [`NetworkConfig`].
    pub fn build_config(&self) -> NetworkConfig {
        let n = self.topology.node_count();
        let mut nodes = Vec::with_capacity(n);
        for i in 0..n {
            let rel = Self::relation_of(i);
            let mut schema = DatabaseSchema::new()
                .with(RelationSchema::with_types(&rel, &[ValueType::Int, ValueType::Int]));
            let node_seed = self.seed.wrapping_add(i as u64).wrapping_mul(0x9E37_79B9);
            let mut data: Vec<(String, codb_relational::Tuple)> = match self.rule_style {
                RuleStyle::JoinGav { join_domain } => {
                    // r{i}: (unique key, join key); values of column 1 live
                    // in the shared join domain so the body join hits.
                    generate_distinct(node_seed, self.tuples_per_node, self.dist)
                        .into_iter()
                        .map(|t| {
                            let x = t[0].clone();
                            let y = match &t[1] {
                                codb_relational::Value::Int(v) => codb_relational::Value::Int(
                                    v.rem_euclid(join_domain.max(1) as i64),
                                ),
                                other => other.clone(),
                            };
                            (rel.clone(), codb_relational::Tuple::new(vec![x, y]))
                        })
                        .collect()
                }
                _ => generate_distinct(node_seed, self.tuples_per_node, self.dist)
                    .into_iter()
                    .map(|t| (rel.clone(), t))
                    .collect(),
            };
            if let RuleStyle::JoinGav { join_domain } = self.rule_style {
                let aux = Self::aux_relation_of(i);
                schema.add(RelationSchema::with_types(&aux, &[ValueType::Int, ValueType::Int]));
                // s{i}: one row per join key, mapping it to a value.
                for k in 0..join_domain.max(1) as i64 {
                    data.push((
                        aux.clone(),
                        codb_relational::Tuple::new(vec![
                            codb_relational::Value::Int(k),
                            codb_relational::Value::Int(k * 1000 + i as i64),
                        ]),
                    ));
                }
            }
            nodes.push(NodeConfig { id: NodeId(i as u64), name: format!("node{i}"), schema, data });
        }
        let rules = self
            .topology
            .edges()
            .into_iter()
            .enumerate()
            .map(|(idx, (s, t))| self.rule_for_edge(idx, s, t))
            .collect();
        let config = NetworkConfig { nodes, rules, version: 1 };
        config.validate().expect("generated configs are valid");
        config
    }

    /// The node where the experiment queries / starts updates.
    pub fn sink(&self) -> NodeId {
        NodeId(self.topology.sink() as u64)
    }

    /// A query over the sink's relation: `ans(X, Y) :- r_sink(X, Y).`
    pub fn sink_query(&self) -> codb_relational::ConjunctiveQuery {
        let rel = Self::relation_of(self.topology.sink());
        codb_relational::parse_query(&format!("ans(X, Y) :- {rel}(X, Y)."))
            .expect("well-formed query")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use codb_core::CoDbNetwork;
    use codb_net::SimConfig;

    #[test]
    fn quick_scenario_builds_valid_config() {
        let s = Scenario::quick(Topology::Chain(4));
        let c = s.build_config();
        assert_eq!(c.nodes.len(), 4);
        assert_eq!(c.rules.len(), 3);
        assert_eq!(c.nodes[0].data.len(), 50);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn configs_are_deterministic() {
        let s = Scenario::quick(Topology::Grid { w: 2, h: 2 });
        assert_eq!(s.build_config(), s.build_config());
    }

    #[test]
    fn filter_rules_carry_comparisons() {
        let s = Scenario {
            rule_style: RuleStyle::FilterGav { threshold: 10 },
            ..Scenario::quick(Topology::Chain(2))
        };
        let c = s.build_config();
        assert_eq!(c.rules[0].rule.body.comparisons.len(), 1);
    }

    #[test]
    fn glav_rules_have_existentials() {
        let s =
            Scenario { rule_style: RuleStyle::ProjectGlav, ..Scenario::quick(Topology::Chain(2)) };
        let c = s.build_config();
        assert!(c.rules[0].rule.has_existentials());
    }

    #[test]
    fn chain_scenario_runs_end_to_end() {
        let s = Scenario { tuples_per_node: 10, ..Scenario::quick(Topology::Chain(3)) };
        let mut net = CoDbNetwork::build(s.build_config(), SimConfig::default()).unwrap();
        let outcome = net.run_update(s.sink());
        // The sink accumulates all upstream tuples (dedup may collapse a
        // few duplicates across nodes, but with a 10^6 domain collisions
        // are unlikely for 10-tuple sets).
        let sink_rel = Scenario::relation_of(2);
        assert_eq!(net.node(s.sink()).ldb().get(&sink_rel).unwrap().len(), 30);
        assert_eq!(outcome.summary.longest_path, 2);
    }

    #[test]
    fn ring_scenario_reaches_fixpoint() {
        let s = Scenario { tuples_per_node: 5, ..Scenario::quick(Topology::Ring(3)) };
        let mut net = CoDbNetwork::build(s.build_config(), SimConfig::default()).unwrap();
        net.run_update(s.sink());
        // Every node ends with all 15 tuples (copied around the ring).
        for i in 0..3 {
            let rel = Scenario::relation_of(i);
            assert_eq!(net.node(NodeId(i as u64)).ldb().get(&rel).unwrap().len(), 15, "node {i}");
        }
    }

    #[test]
    fn sink_query_parses_and_answers() {
        let s = Scenario { tuples_per_node: 8, ..Scenario::quick(Topology::Star { leaves: 3 }) };
        let mut net = CoDbNetwork::build(s.build_config(), SimConfig::default()).unwrap();
        let q = net.run_query(s.sink(), s.sink_query(), true);
        // Hub's own 8 tuples + 8 from each of the 3 leaves.
        assert_eq!(q.result.answers.len(), 32);
    }
}

#[cfg(test)]
mod join_tests {
    use super::*;
    use codb_core::CoDbNetwork;
    use codb_net::SimConfig;

    #[test]
    fn join_gav_builds_aux_relations() {
        let s = Scenario {
            rule_style: RuleStyle::JoinGav { join_domain: 8 },
            tuples_per_node: 20,
            ..Scenario::quick(Topology::Chain(3))
        };
        let c = s.build_config();
        assert!(c.validate().is_ok());
        for (i, node) in c.nodes.iter().enumerate() {
            assert!(node.schema.contains(&Scenario::aux_relation_of(i)));
            let aux_rows =
                node.data.iter().filter(|(r, _)| r == &Scenario::aux_relation_of(i)).count();
            assert_eq!(aux_rows, 8);
        }
        assert_eq!(c.rules[0].rule.body.atoms.len(), 2, "join body");
    }

    #[test]
    fn join_gav_chain_produces_joined_tuples() {
        let s = Scenario {
            rule_style: RuleStyle::JoinGav { join_domain: 4 },
            tuples_per_node: 10,
            ..Scenario::quick(Topology::Chain(2))
        };
        let mut net = CoDbNetwork::build(s.build_config(), SimConfig::default()).unwrap();
        let outcome = net.run_update(s.sink());
        // Every r0 tuple joins its key against s0 (total function over the
        // join domain), so 10 joined tuples land in r1.
        assert_eq!(outcome.summary.tuples_added, 10);
        let r1 = net.node(s.sink()).ldb().get("r1").unwrap();
        // r1 holds its own 10 tuples plus the 10 imported ones.
        assert_eq!(r1.len(), 10 + 10);
        // Joined values are from s0's value space (k*1000 + node_index 0).
        let imported = r1
            .iter()
            .filter(|t| matches!(t[1], codb_relational::Value::Int(v) if v % 1000 == 0))
            .count();
        assert!(imported >= 10);
    }

    #[test]
    fn join_gav_ring_terminates() {
        let s = Scenario {
            rule_style: RuleStyle::JoinGav { join_domain: 4 },
            tuples_per_node: 6,
            ..Scenario::quick(Topology::Ring(3))
        };
        let mut net = CoDbNetwork::build(s.build_config(), SimConfig::default()).unwrap();
        let outcome = net.run_update(s.sink());
        assert_eq!(outcome.summary.nodes, 3);
        // Joins transform values at each hop, so the fixpoint is richer
        // than a copy ring but still finite.
        assert!(outcome.summary.tuples_added > 0);
    }
}

#[cfg(test)]
mod zipf_tests {
    use super::*;
    use codb_core::CoDbNetwork;
    use codb_net::SimConfig;

    #[test]
    fn zipf_skew_increases_cross_node_duplicate_suppression() {
        // With a tiny skewed domain, different nodes draw overlapping
        // tuples; the sink stores strictly fewer tuples than arrived
        // firings — the duplicate-suppression path at work.
        let uniform = Scenario {
            topology: Topology::Star { leaves: 4 },
            tuples_per_node: 50,
            rule_style: RuleStyle::CopyGav,
            dist: DataDist::Uniform { domain: 1 << 40 },
            seed: 77,
        };
        let zipf = Scenario { dist: DataDist::Zipf { domain: 40, exponent_x100: 120 }, ..uniform };
        let run = |s: &Scenario| {
            let mut net = CoDbNetwork::build(s.build_config(), SimConfig::default()).unwrap();
            let o = net.run_update(s.sink());
            (o.summary.firings, o.summary.tuples_added)
        };
        let (u_firings, u_added) = run(&uniform);
        let (z_firings, z_added) = run(&zipf);
        assert_eq!(u_firings, u_added, "disjoint domains: nothing suppressed");
        assert_eq!(z_firings, 200, "every leaf ships its 50 tuples");
        assert!(
            z_added < z_firings,
            "skewed overlapping data must collapse: {z_added} !< {z_firings}"
        );
        let _ = u_added;
    }
}
