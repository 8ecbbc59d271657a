//! Network configuration: the super-peer's "coordination rules file".
//!
//! The paper's super-peer "can read coordination rules for all peers from a
//! file and broadcast this file to all peers on the network"; re-broadcast
//! replaces each node's rules and pipes at runtime. [`NetworkConfig`] is
//! that file: node declarations (with shared schemas and optional seed
//! data) plus the coordination rules.
//!
//! Text format — one directive per line, `%` or `#` comments:
//!
//! ```text
//! node n1
//! node n2
//! schema n1: emp(str, int)
//! schema n2: person(str, int)
//! data n1: emp("alice", 30). emp("bob", 17).
//! rule r1 @ n1 -> n2: person(N, A) <- emp(N, A), A >= 18.
//! ```
//!
//! `rule NAME @ SRC -> TGT: HEAD <- BODY.` — the body is over `SRC`'s
//! schema, the head over `TGT`'s.

use crate::ids::NodeId;
use crate::rules::CoordinationRule;
use codb_relational::{parse_facts, parse_rule, DatabaseSchema, RelationSchema, Tuple, ValueType};
use serde::Serialize;
use std::collections::BTreeMap;
use std::fmt;

/// Declaration of one node.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct NodeConfig {
    /// Node identifier.
    pub id: NodeId,
    /// Human-readable name (unique).
    pub name: String,
    /// The shared Database Schema (DBS). May describe relations with no
    /// local data — the node then acts as a mediator.
    pub schema: DatabaseSchema,
    /// Seed tuples for the Local Database.
    pub data: Vec<(String, Tuple)>,
}

/// A full network configuration.
#[derive(Clone, Debug, Default, PartialEq, Serialize)]
pub struct NetworkConfig {
    /// Node declarations.
    pub nodes: Vec<NodeConfig>,
    /// Coordination rules.
    pub rules: Vec<CoordinationRule>,
    /// Monotone version; super-peer re-broadcasts bump it so nodes can
    /// ignore stale files.
    pub version: u64,
}

/// Configuration errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConfigError {
    /// Description.
    pub message: String,
    /// 1-based source line (0 when not positional).
    pub line: usize,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line > 0 {
            write!(f, "config error at line {}: {}", self.line, self.message)
        } else {
            write!(f, "config error: {}", self.message)
        }
    }
}

impl std::error::Error for ConfigError {}

impl NetworkConfig {
    /// Looks up a node by name.
    pub fn node_by_name(&self, name: &str) -> Option<&NodeConfig> {
        self.nodes.iter().find(|n| n.name == name)
    }

    /// Looks up a node by id.
    pub fn node(&self, id: NodeId) -> Option<&NodeConfig> {
        self.nodes.iter().find(|n| n.id == id)
    }

    /// Node ids in declaration order.
    pub fn node_ids(&self) -> Vec<NodeId> {
        self.nodes.iter().map(|n| n.id).collect()
    }

    /// Rules with `node` as source or target.
    pub fn rules_of(&self, node: NodeId) -> Vec<&CoordinationRule> {
        self.rules.iter().filter(|r| r.source == node || r.target == node).collect()
    }

    /// Rough wire size of the configuration when broadcast.
    pub fn approx_size_bytes(&self) -> usize {
        let node_bytes: usize = self
            .nodes
            .iter()
            .map(|n| 64 + n.schema.relations().map(|r| r.name.len() + r.arity() * 8).sum::<usize>())
            .sum();
        let rule_bytes: usize = self.rules.iter().map(|r| 64 + r.rule.to_string().len()).sum();
        node_bytes + rule_bytes
    }

    /// Validates internal consistency:
    /// * rule endpoints are declared nodes;
    /// * body relations exist in the source schema with matching arity;
    /// * head relations exist in the target schema with matching arity;
    /// * rule names are unique;
    /// * seed data fits the declaring node's schema.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let err = |message: String| ConfigError { message, line: 0 };
        let mut names = std::collections::BTreeSet::new();
        for rule in &self.rules {
            if !names.insert(rule.name().to_owned()) {
                return Err(err(format!("duplicate rule name {}", rule.name())));
            }
            let src = self
                .node(rule.source)
                .ok_or_else(|| err(format!("rule {}: unknown source node", rule.name())))?;
            let tgt = self
                .node(rule.target)
                .ok_or_else(|| err(format!("rule {}: unknown target node", rule.name())))?;
            if rule.source == rule.target {
                return Err(err(format!(
                    "rule {}: source and target must differ (intra-node views are \
                     not coordination rules)",
                    rule.name()
                )));
            }
            for atom in &rule.rule.body.atoms {
                let rs = src.schema.get(&atom.relation).ok_or_else(|| {
                    err(format!(
                        "rule {}: body relation {} not in {}'s schema",
                        rule.name(),
                        atom.relation,
                        src.name
                    ))
                })?;
                if rs.arity() != atom.arity() {
                    return Err(err(format!(
                        "rule {}: body atom {} has arity {}, schema says {}",
                        rule.name(),
                        atom.relation,
                        atom.arity(),
                        rs.arity()
                    )));
                }
            }
            for atom in &rule.rule.head {
                let rs = tgt.schema.get(&atom.relation).ok_or_else(|| {
                    err(format!(
                        "rule {}: head relation {} not in {}'s schema",
                        rule.name(),
                        atom.relation,
                        tgt.name
                    ))
                })?;
                if rs.arity() != atom.arity() {
                    return Err(err(format!(
                        "rule {}: head atom {} has arity {}, schema says {}",
                        rule.name(),
                        atom.relation,
                        atom.arity(),
                        rs.arity()
                    )));
                }
            }
        }
        for node in &self.nodes {
            for (rel, tuple) in &node.data {
                let rs = node.schema.get(rel).ok_or_else(|| {
                    err(format!("node {}: data for undeclared relation {}", node.name, rel))
                })?;
                rs.validate(tuple).map_err(|e| err(format!("node {}: {e}", node.name)))?;
            }
        }
        Ok(())
    }

    /// Renders the configuration in the module-level text format, such
    /// that `NetworkConfig::parse(config.to_text())` round-trips.
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "version {}", self.version);
        for node in &self.nodes {
            let _ = writeln!(out, "node {}", node.name);
        }
        for node in &self.nodes {
            for rs in node.schema.relations() {
                let types: Vec<&str> = rs
                    .columns
                    .iter()
                    .map(|c| match c.ty {
                        codb_relational::ValueType::Int => "int",
                        codb_relational::ValueType::Str => "str",
                        codb_relational::ValueType::Bool => "bool",
                    })
                    .collect();
                let _ = writeln!(out, "schema {}: {}({})", node.name, rs.name, types.join(", "));
            }
        }
        for node in &self.nodes {
            for (rel, tuple) in &node.data {
                let values: Vec<String> = tuple.values().map(|v| v.to_string()).collect();
                let _ = writeln!(out, "data {}: {}({}).", node.name, rel, values.join(", "));
            }
        }
        for rule in &self.rules {
            let src = self.node(rule.source).map_or("?", |n| n.name.as_str());
            let tgt = self.node(rule.target).map_or("?", |n| n.name.as_str());
            // GlavRule's Display is `rule NAME: HEAD <- BODY`; strip the
            // prefix so the endpoints slot in.
            let rendered = rule.rule.to_string();
            let body =
                rendered.strip_prefix(&format!("rule {}: ", rule.name())).unwrap_or(&rendered);
            let _ = writeln!(out, "rule {} @ {} -> {}: {}.", rule.name(), src, tgt, body);
        }
        out
    }

    /// Parses the text format described at module level.
    pub fn parse(src: &str) -> Result<NetworkConfig, ConfigError> {
        let mut config = NetworkConfig::default();
        let mut ids: BTreeMap<String, NodeId> = BTreeMap::new();
        let err = |line: usize, message: String| ConfigError { message, line };

        for (lineno, raw) in src.lines().enumerate() {
            let lineno = lineno + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('%') || line.starts_with('#') {
                continue;
            }
            if let Some(rest) = line.strip_prefix("node ") {
                let name = rest.trim().to_owned();
                if name.is_empty() || name.contains(char::is_whitespace) {
                    return Err(err(lineno, format!("bad node name {name:?}")));
                }
                if ids.contains_key(&name) {
                    return Err(err(lineno, format!("duplicate node {name}")));
                }
                let id = NodeId(config.nodes.len() as u64);
                ids.insert(name.clone(), id);
                config.nodes.push(NodeConfig {
                    id,
                    name,
                    schema: DatabaseSchema::new(),
                    data: Vec::new(),
                });
            } else if let Some(rest) = line.strip_prefix("schema ") {
                let (node_name, decl) =
                    rest.split_once(':').ok_or_else(|| err(lineno, "schema needs ':'".into()))?;
                let node_name = node_name.trim();
                let id = *ids
                    .get(node_name)
                    .ok_or_else(|| err(lineno, format!("unknown node {node_name}")))?;
                let schema = parse_relation_schema(decl.trim()).map_err(|m| err(lineno, m))?;
                config.nodes[id.0 as usize].schema.add(schema);
            } else if let Some(rest) = line.strip_prefix("data ") {
                let (node_name, facts) =
                    rest.split_once(':').ok_or_else(|| err(lineno, "data needs ':'".into()))?;
                let node_name = node_name.trim();
                let id = *ids
                    .get(node_name)
                    .ok_or_else(|| err(lineno, format!("unknown node {node_name}")))?;
                let parsed =
                    parse_facts(facts).map_err(|e| err(lineno, format!("bad facts: {e}")))?;
                config.nodes[id.0 as usize].data.extend(parsed);
            } else if let Some(rest) = line.strip_prefix("rule ") {
                // rule NAME @ SRC -> TGT: RULE_TEXT
                let (header, rule_text) =
                    rest.split_once(':').ok_or_else(|| err(lineno, "rule needs ':'".into()))?;
                let (name, endpoints) = header
                    .split_once('@')
                    .ok_or_else(|| err(lineno, "rule needs '@ src -> tgt'".into()))?;
                let (src_name, tgt_name) = endpoints
                    .split_once("->")
                    .ok_or_else(|| err(lineno, "rule needs 'src -> tgt'".into()))?;
                let name = name.trim().to_owned();
                let src_name = src_name.trim();
                let tgt_name = tgt_name.trim();
                let source = *ids
                    .get(src_name)
                    .ok_or_else(|| err(lineno, format!("unknown node {src_name}")))?;
                let target = *ids
                    .get(tgt_name)
                    .ok_or_else(|| err(lineno, format!("unknown node {tgt_name}")))?;
                let mut rule = parse_rule(rule_text.trim())
                    .map_err(|e| err(lineno, format!("bad rule: {e}")))?;
                rule.name = name;
                config.rules.push(CoordinationRule { rule, source, target });
            } else if let Some(rest) = line.strip_prefix("version ") {
                config.version =
                    rest.trim().parse().map_err(|_| err(lineno, "bad version".into()))?;
            } else {
                return Err(err(lineno, format!("unrecognised directive: {line}")));
            }
        }
        config.validate()?;
        Ok(config)
    }
}

/// Parses `rel(str, int, bool)` into a [`RelationSchema`].
fn parse_relation_schema(decl: &str) -> Result<RelationSchema, String> {
    let decl = decl.trim().trim_end_matches('.');
    let (name, rest) =
        decl.split_once('(').ok_or_else(|| format!("bad relation declaration {decl:?}"))?;
    let inner = rest.strip_suffix(')').ok_or_else(|| format!("missing ')' in {decl:?}"))?;
    let name = name.trim();
    if name.is_empty() {
        return Err("empty relation name".into());
    }
    let mut types = Vec::new();
    if !inner.trim().is_empty() {
        for part in inner.split(',') {
            let ty = match part.trim() {
                "int" => ValueType::Int,
                "str" => ValueType::Str,
                "bool" => ValueType::Bool,
                other => return Err(format!("unknown column type {other:?}")),
            };
            types.push(ty);
        }
    }
    Ok(RelationSchema::with_types(name, &types))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
        % a two-node network
        node n1
        node n2
        schema n1: emp(str, int)
        schema n2: person(str, int)
        data n1: emp("alice", 30). emp("bob", 17).
        rule r1 @ n1 -> n2: person(N, A) <- emp(N, A), A >= 18.
    "#;

    #[test]
    fn parses_sample() {
        let c = NetworkConfig::parse(SAMPLE).unwrap();
        assert_eq!(c.nodes.len(), 2);
        assert_eq!(c.rules.len(), 1);
        assert_eq!(c.nodes[0].data.len(), 2);
        assert_eq!(c.rules[0].source, NodeId(0));
        assert_eq!(c.rules[0].target, NodeId(1));
        assert_eq!(c.rules[0].name(), "r1");
        assert!(c.node_by_name("n2").is_some());
        assert_eq!(c.rules_of(NodeId(0)).len(), 1);
    }

    #[test]
    fn rejects_unknown_node_in_rule() {
        let src = "node a\nschema a: t(int)\nrule r @ a -> b: t(X) <- t(X).";
        let e = NetworkConfig::parse(src).unwrap_err();
        assert!(e.message.contains("unknown node b"), "{e}");
    }

    #[test]
    fn rejects_duplicate_nodes_and_rules() {
        assert!(NetworkConfig::parse("node a\nnode a").is_err());
        let src = "node a\nnode b\nschema a: t(int)\nschema b: u(int)\n\
                   rule r @ a -> b: u(X) <- t(X).\nrule r @ a -> b: u(X) <- t(X).";
        let e = NetworkConfig::parse(src).unwrap_err();
        assert!(e.message.contains("duplicate rule"), "{e}");
    }

    #[test]
    fn rejects_schema_mismatches() {
        // body relation missing from source schema
        let src = "node a\nnode b\nschema b: u(int)\nrule r @ a -> b: u(X) <- t(X).";
        assert!(NetworkConfig::parse(src).is_err());
        // head arity mismatch
        let src2 = "node a\nnode b\nschema a: t(int)\nschema b: u(int, int)\n\
                    rule r @ a -> b: u(X) <- t(X).";
        let e = NetworkConfig::parse(src2).unwrap_err();
        assert!(e.message.contains("arity"), "{e}");
    }

    #[test]
    fn rejects_ill_typed_data() {
        let src = "node a\nschema a: t(int)\ndata a: t(\"x\").";
        assert!(NetworkConfig::parse(src).is_err());
    }

    #[test]
    fn reports_line_numbers() {
        let src = "node a\ngarbage here";
        let e = NetworkConfig::parse(src).unwrap_err();
        assert_eq!(e.line, 2);
    }

    #[test]
    fn schema_parser_handles_types_and_empty() {
        let s = parse_relation_schema("r(int, str, bool)").unwrap();
        assert_eq!(s.arity(), 3);
        let empty = parse_relation_schema("marker()").unwrap();
        assert_eq!(empty.arity(), 0);
        assert!(parse_relation_schema("r(float)").is_err());
        assert!(parse_relation_schema("nope").is_err());
    }

    #[test]
    fn version_directive() {
        let c = NetworkConfig::parse("version 7\nnode a").unwrap();
        assert_eq!(c.version, 7);
    }

    #[test]
    fn mediator_node_with_schema_but_no_data_is_fine() {
        let src = "node m\nschema m: t(int)";
        let c = NetworkConfig::parse(src).unwrap();
        assert!(c.nodes[0].data.is_empty());
        assert!(c.validate().is_ok());
    }

    #[test]
    fn rejects_bad_rule_syntax() {
        let src = "node a\nnode b\nschema a: t(int)\nschema b: u(int)\n\
                   rule r @ a -> b: u(X <- t(X).";
        let e = NetworkConfig::parse(src).unwrap_err();
        assert!(e.message.contains("bad rule"), "{e}");
        assert_eq!(e.line, 5);
    }

    #[test]
    fn rejects_malformed_rule_headers() {
        // Missing ':' between header and rule text.
        let e = NetworkConfig::parse("node a\nrule r @ a -> a t(X) <- t(X)").unwrap_err();
        assert!(e.message.contains("rule needs ':'"), "{e}");
        // Missing '@ src -> tgt'.
        let e = NetworkConfig::parse("node a\nrule r: t(X) <- t(X).").unwrap_err();
        assert!(e.message.contains("'@ src -> tgt'"), "{e}");
        // Missing '->' between endpoints.
        let e = NetworkConfig::parse("node a\nrule r @ a: t(X) <- t(X).").unwrap_err();
        assert!(e.message.contains("'src -> tgt'"), "{e}");
    }

    #[test]
    fn rejects_unknown_nodes_in_schema_and_data() {
        let e = NetworkConfig::parse("schema ghost: t(int)").unwrap_err();
        assert!(e.message.contains("unknown node ghost"), "{e}");
        assert_eq!(e.line, 1);
        let e = NetworkConfig::parse("node a\nschema a: t(int)\ndata ghost: t(1).").unwrap_err();
        assert!(e.message.contains("unknown node ghost"), "{e}");
        assert_eq!(e.line, 3);
    }

    #[test]
    fn rejects_body_arity_mismatch_naming_the_rule() {
        let src = "node a\nnode b\nschema a: t(int, int)\nschema b: u(int)\n\
                   rule r @ a -> b: u(X) <- t(X).";
        let e = NetworkConfig::parse(src).unwrap_err();
        assert!(e.message.contains("arity"), "{e}");
        assert!(e.message.contains("rule r"), "{e}");
    }

    #[test]
    fn rejects_bad_version_and_bad_node_names() {
        let e = NetworkConfig::parse("version six").unwrap_err();
        assert!(e.message.contains("bad version"), "{e}");
        let e = NetworkConfig::parse("node two words").unwrap_err();
        assert!(e.message.contains("bad node name"), "{e}");
    }

    #[test]
    fn approx_size_is_positive_and_monotone() {
        let small = NetworkConfig::parse("node a\nschema a: t(int)").unwrap();
        let big = NetworkConfig::parse(SAMPLE).unwrap();
        assert!(small.approx_size_bytes() > 0);
        assert!(big.approx_size_bytes() > small.approx_size_bytes());
    }
}

#[cfg(test)]
mod to_text_tests {
    use super::*;

    #[test]
    fn round_trips_through_text() {
        let src = r#"
            version 3
            node n1
            node n2
            schema n1: emp(str, int)
            schema n1: flag(bool)
            schema n2: person(str, int)
            data n1: emp("alice", 30). emp("a\"b", -7). flag(true).
            rule r1 @ n1 -> n2: person(N, A) <- emp(N, A), A >= 18.
            rule r2 @ n1 -> n2: person(N, D) <- emp(N, A).
        "#;
        let config = NetworkConfig::parse(src).unwrap();
        let text = config.to_text();
        let back = NetworkConfig::parse(&text).unwrap();
        assert_eq!(back, config, "to_text/parse round trip:\n{text}");
    }

    #[test]
    fn generated_scenarios_round_trip() {
        // Workload-generated configs (constructed programmatically, never
        // parsed) must also survive the text round trip.
        let mut config = NetworkConfig::default();
        config.nodes.push(NodeConfig {
            id: NodeId(0),
            name: "a".into(),
            schema: codb_relational::DatabaseSchema::new().with(
                codb_relational::RelationSchema::with_types(
                    "r",
                    &[codb_relational::ValueType::Int],
                ),
            ),
            data: vec![("r".into(), codb_relational::tup![5])],
        });
        config.nodes.push(NodeConfig {
            id: NodeId(1),
            name: "b".into(),
            schema: codb_relational::DatabaseSchema::new().with(
                codb_relational::RelationSchema::with_types(
                    "s",
                    &[codb_relational::ValueType::Int],
                ),
            ),
            data: vec![],
        });
        config.rules.push(CoordinationRule {
            rule: codb_relational::parse_rule("rule x: s(X) <- r(X), X > 1.").unwrap(),
            source: NodeId(0),
            target: NodeId(1),
        });
        config.validate().unwrap();
        let back = NetworkConfig::parse(&config.to_text()).unwrap();
        assert_eq!(back.rules.len(), 1);
        assert_eq!(back.nodes[0].data.len(), 1);
        assert_eq!(back, config);
    }
}
