//! Super-peer functionality (paper §4).
//!
//! "We provide some peer (called super-peer) with some additional
//! functionalities. In particular, that peer can read coordination rules
//! for all peers from a file and broadcast this file to all peers on the
//! network. Once received this file, each peer looks for relevant
//! coordination rules and creates necessary pipe connections. If a
//! coordination rules file is received when a peer has already set up
//! coordination rules and pipes, then it drops 'old' rules and pipes, and
//! creates new ones, where necessary. Thus, a super-peer can dynamically
//! change the network topology at runtime." The super-peer also collects
//! every node's statistics and aggregates them into the final report.

use crate::config::NetworkConfig;
use crate::ids::NodeId;
use crate::messages::{Body, Envelope};
use crate::node::CoDbNode;
use crate::rules::RuleBook;
use codb_net::Context;
use std::collections::BTreeSet;

impl CoDbNode {
    /// Harness control: broadcast this super-peer's configuration file to
    /// every declared node.
    pub(crate) fn handle_broadcast_rules(&mut self, ctx: &mut Context<Envelope>) {
        let Some(config) = self.superpeer_config.clone() else {
            return; // not a super-peer
        };
        let ids = config.node_ids();
        for id in ids {
            if id != self.id {
                self.post(ctx, id, Body::RulesFile { config: Box::new(config.clone()) });
            }
        }
        // The super-peer applies the file to itself directly (it may also
        // be an ordinary database node).
        self.handle_rules_file(ctx, config);
    }

    /// Applies a received coordination-rules file: replace the rule book,
    /// drop pipes that no longer carry rules, open missing ones, and adopt
    /// any newly declared relations of this node's schema.
    pub(crate) fn handle_rules_file(&mut self, ctx: &mut Context<Envelope>, config: NetworkConfig) {
        if config.version < self.config_version {
            return; // stale broadcast
        }
        self.config_version = config.version;

        let old_acquaintances = self.book.acquaintances().clone();
        self.book = RuleBook::for_node(self.id, &config.rules);
        // Rule names may be reused with different endpoints after a
        // reconfiguration: drop the per-link firing caches.
        self.sent_cache.clear();
        self.recv_cache.clear();
        let new_acquaintances = self.book.acquaintances();

        // "If a coordination rules file is received when a peer has already
        // set up coordination rules and pipes, then it drops old rules and
        // pipes, and creates new ones, where necessary."
        for gone in old_acquaintances.difference(new_acquaintances) {
            ctx.close_pipe(gone.peer());
        }
        for added in new_acquaintances.difference(&old_acquaintances) {
            ctx.open_pipe(added.peer(), self.settings.pipe);
        }

        // Adopt newly declared relations (schema growth only; existing
        // relations and their data are preserved).
        if let Some(me) = config.node(self.id) {
            for rs in me.schema.relations() {
                if self.schema.get(&rs.name).is_none() {
                    self.schema.add(rs.clone());
                    self.ldb.add_relation(rs.clone());
                }
            }
        }
    }

    /// Harness control: ask every declared node for its statistics.
    pub(crate) fn handle_collect_stats(&mut self, ctx: &mut Context<Envelope>) {
        let Some(config) = &self.superpeer_config else { return };
        let ids: BTreeSet<NodeId> = config.node_ids().into_iter().collect();
        // Include the super-peer's own report directly.
        let mut own = self.report.clone();
        own.ldb_tuples = self.ldb.tuple_count() as u64;
        self.collected.ingest(own);
        for id in ids {
            if id != self.id {
                self.post(ctx, id, Body::StatsRequest);
            }
        }
    }

    /// Answers a statistics request with this node's report.
    pub(crate) fn handle_stats_request(&mut self, ctx: &mut Context<Envelope>, from: NodeId) {
        let mut report = self.report.clone();
        report.ldb_tuples = self.ldb.tuple_count() as u64;
        self.post(ctx, from, Body::StatsReport { report: Box::new(report) });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeSettings;
    use crate::rules::assert_tables_match_definitions;
    use codb_net::SimTime;
    use std::collections::VecDeque;

    const V1: &str = r#"
        node hub
        node spoke1
        node spoke2
        schema hub: h(int)
        schema spoke1: s1(int)
        schema spoke2: s2(int)
        rule to1 @ hub -> spoke1: s1(X) <- h(X).
        rule to2 @ hub -> spoke2: s2(X) <- h(X).
        rule back @ spoke1 -> hub: h(X) <- s1(X).
    "#;

    /// Drops spoke1, and reuses the name `to2` for a rule pointing the
    /// other way.
    const V2: &str = r#"
        version 2
        node hub
        node spoke1
        node spoke2
        schema hub: h(int)
        schema spoke1: s1(int)
        schema spoke2: s2(int)
        rule fwd @ hub -> spoke2: s2(X) <- h(X).
        rule to2 @ spoke2 -> hub: h(X) <- s2(X).
    "#;

    #[test]
    fn a_rules_file_replaces_the_dependency_tables_with_the_book() {
        let v1 = NetworkConfig::parse(V1).unwrap();
        let (hub, spoke1, spoke2) = (&v1.nodes[0], v1.nodes[1].id, v1.nodes[2].id);
        let mut node = CoDbNode::new(
            hub.id,
            &hub.name,
            hub.schema.clone(),
            hub.data.clone(),
            &v1.rules,
            NodeSettings::default(),
        );
        assert_tables_match_definitions(node.rule_book(), node.id);
        assert_eq!(node.rule_book().acquaintances(), &[spoke1, spoke2].into());
        assert_eq!(node.rule_book().relevant_outgoing("to2"), &["back".to_owned()].into());

        let mut cmds = VecDeque::new();
        let mut ctx = Context::new(node.id.peer(), SimTime::ZERO, &[], &mut cmds);
        node.handle_rules_file(&mut ctx, NetworkConfig::parse(V2).unwrap());

        let book = node.rule_book();
        assert_tables_match_definitions(book, node.id);
        assert_eq!(book.acquaintances(), &[spoke2].into());
        assert!(book.relevant_outgoing("to1").is_empty(), "to1 is gone");
        assert!(book.relevant_outgoing("to2").is_empty(), "to2 is an outgoing link now");
        assert_eq!(book.relevant_outgoing("fwd"), &["to2".to_owned()].into());
        assert_eq!(book.incoming_reading("h"), &["fwd".to_owned()].into());
    }
}
