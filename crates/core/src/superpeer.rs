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
use crate::update::SentCache;
use codb_net::Context;
use std::collections::BTreeSet;
use std::sync::Arc;

impl CoDbNode {
    /// Harness control: broadcast this super-peer's configuration file to
    /// every declared node (a node restarted since the super-peer's start
    /// has opened its pipe again from its side, `on_start`).
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

        let old = self.install_book(RuleBook::for_node(self.id, &config.rules));
        let new = Arc::clone(&self.book);
        // An update in flight ran on the old links: what its upstream
        // closes under the new ones is nothing to hold on for.
        self.release_all(ctx);
        let (old_acquaintances, new_acquaintances) = (old.acquaintances(), new.acquaintances());

        // "If a coordination rules file is received when a peer has already
        // set up coordination rules and pipes, then it drops old rules and
        // pipes, and creates new ones, where necessary."
        for &gone in old_acquaintances.difference(new_acquaintances) {
            ctx.close_pipe(gone.peer());
            self.forget_acquaintance(ctx, gone);
        }
        for added in new_acquaintances.difference(old_acquaintances) {
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

    /// Settles the accounts with a peer whose pipe just closed for good.
    /// Nothing more can reach it, and no reply of its can be sent any more,
    /// so every message it never answered is given up (`give_up`: a fetch
    /// request closes empty) and every credit it might still return is
    /// written off now: that of each DS message it never answered (left
    /// alone those would park behind the rejoin barrier forever, and hold
    /// their update open with them) and the engagement credit it holds in
    /// each update it joined under this node. Where this node is the one
    /// engaged under the departed peer, it stays engaged until its own
    /// deficit is zero and then disengages with nobody to tell. (What the
    /// peer still has in flight toward this node does arrive; `dispatch_ds`
    /// handles it without engaging under the sender.)
    ///
    /// The completion tree loses the edge too: the departed peer will not
    /// pass this node the completion, nor this node pass it on, and a
    /// disengagement that was in flight between them is gone with the
    /// pipe. So for every update it has not seen complete, this node asks
    /// each remaining acquaintance to adopt it, and holds nothing on for a
    /// close the departed peer will not send (`release`).
    fn forget_acquaintance(&mut self, ctx: &mut Context<Envelope>, gone: NodeId) {
        for st in self.updates.values_mut().filter(|st| st.parent == Some(gone)) {
            st.parent = None;
        }
        let forgotten = self.reliable.forget_peer(gone);
        for sent in forgotten.dropped {
            self.give_up(ctx, gone, sent);
        }
        self.write_off(ctx, forgotten.engaged);
        self.adopt_all(ctx);
        self.release_all(ctx);
    }

    /// Replaces the rule book, and with it everything numbered by the old
    /// one; returns the old book.
    ///
    /// [`crate::rules::LinkId`]s mean nothing across books, so nothing
    /// indexed by them may outlive the swap as it is: the state of every
    /// update in flight follows its links to their new ids by name (a
    /// vanished link's state goes, so late traffic for it finds no link and
    /// is dropped at the name lookup), and the sent caches start empty at
    /// the new size — no link of the new book has a mark, and no served
    /// link keeps a view, nor the answer beside it. Both firing caches are
    /// dropped: rule
    /// names may be reused with different endpoints after a
    /// reconfiguration. A fetched answer stays only on a link the new book
    /// names with the same source and rule: a tag is its server's name for
    /// the answer, another server may have minted the same one, and an
    /// unchanged answer is assembled without being checked against the
    /// rule's head again.
    pub(crate) fn install_book(&mut self, book: RuleBook) -> Arc<RuleBook> {
        let old = std::mem::replace(&mut self.book, Arc::new(book));
        for st in self.updates.values_mut() {
            st.renumber(&old, &self.book);
        }
        self.sent_cache = vec![SentCache::default(); self.book.len()];
        self.recv_cache.clear();
        self.break_continuity();
        let kept = |name: &str| match (self.book.outgoing_named(name), old.outgoing_named(name)) {
            (Some(now), Some(then)) => {
                let (now, then) = (self.book.link(now), old.link(then));
                now.source == then.source && now.rule.rule() == then.rule.rule()
            }
            _ => false,
        };
        self.fetched.retain(|name, _| kept(name));
        old
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
        let relevant = |book: &RuleBook, incoming: &str| -> Vec<String> {
            let ids = book.relevant_outgoing(book.incoming_named(incoming).unwrap());
            ids.iter().map(|id| book.link(*id).name.to_string()).collect()
        };
        assert_tables_match_definitions(node.rule_book(), node.id, &v1.rules);
        assert_eq!(node.rule_book().acquaintances(), &[spoke1, spoke2].into());
        assert_eq!(relevant(node.rule_book(), "to2"), ["back"]);

        let mut cmds = VecDeque::new();
        let mut ctx = Context::new(node.id.peer(), SimTime::ZERO, &[], &mut cmds);
        let v2 = NetworkConfig::parse(V2).unwrap();
        node.handle_rules_file(&mut ctx, v2.clone());

        let book = node.rule_book();
        assert_tables_match_definitions(book, node.id, &v2.rules);
        assert_eq!(book.acquaintances(), &[spoke2].into());
        assert_eq!(book.link_named("to1"), None, "to1 is gone");
        assert_eq!(book.incoming_named("to2"), None, "to2 is an outgoing link now");
        assert!(book.relevant_outgoing(book.outgoing_named("to2").unwrap()).is_empty());
        assert_eq!(relevant(book, "fwd"), ["to2"]);
        assert_eq!(book.incoming_reading("h"), [book.incoming_named("fwd").unwrap()]);
    }

    /// Node `b` of a chain `a -> b -> c`, before and after a file that
    /// removes one of its links (`gone`), renames another (`old` becomes
    /// `new`) and adds a third — which moves `keep` from id 1 to id 0.
    const MID_V1: &str = r#"
        node a
        node b
        node c
        schema a: ta(int)
        schema a: ua(int)
        schema b: tb(int)
        schema b: ub(int)
        schema c: tc(int)
        schema c: uc(int)
        data b: tb(1). ub(1).
        rule keep @ a -> b: tb(X) <- ta(X).
        rule gone @ a -> b: ub(X) <- ua(X).
        rule old @ b -> c: tc(X) <- tb(X).
    "#;
    const MID_V2: &str = r#"
        version 2
        node a
        node b
        node c
        schema a: ta(int)
        schema a: ua(int)
        schema b: tb(int)
        schema b: ub(int)
        schema c: tc(int)
        schema c: uc(int)
        rule keep @ a -> b: tb(X) <- ta(X).
        rule new @ b -> c: tc(X) <- tb(X).
        rule third @ b -> c: uc(X) <- ub(X).
    "#;

    /// An update is in flight at `b` when the file arrives: every link's
    /// state follows its *name* to the new numbering, what the held links
    /// hold goes out at once (the upstream close they wait for ran on the
    /// old links), late traffic for the vanished rule is dropped with its
    /// DS credit returned, and the update closes and completes over the new
    /// book.
    #[test]
    fn a_rules_file_mid_update_renumbers_the_update_and_drops_stale_traffic() {
        use crate::ids::UpdateId;
        use codb_net::{Command, Peer};
        use codb_relational::{RuleFiring, TField, Value};

        let v1 = NetworkConfig::parse(MID_V1).unwrap();
        let (a, b, c) = (v1.nodes[0].id, &v1.nodes[1], v1.nodes[2].id);
        let acyclic = crate::rules::AcyclicLinks::of(&v1.rules);
        let mut node = CoDbNode::from_config(b, &v1.rules, &acyclic, NodeSettings::default());
        let update = UpdateId { origin: a, epoch: 0, seq: 0 };
        let firing =
            |rel: &str, k: i64| RuleFiring::new([(rel, vec![TField::Const(Value::Int(k))])]);
        let mut cmds = VecDeque::new();
        // Delivers `body` from `from`; returns what the node sent, by
        // destination.
        let mut deliver = |node: &mut CoDbNode, from: NodeId, body: Body| -> Vec<(NodeId, Body)> {
            let mut ctx = Context::new(node.id.peer(), SimTime::ZERO, &[], &mut cmds);
            node.on_message(&mut ctx, from.peer(), Envelope::control(body));
            let sent = cmds.drain(..).filter_map(|cmd| match cmd {
                Command::Send { to, msg } => Some((NodeId::from(to), msg.body)),
                _ => None,
            });
            sent.collect()
        };

        // Under v1: the request engages b under a and goes on to c alone:
        // `old` is held until `keep` closes. Then one data message arrives
        // on `keep`, and `old` holds it too.
        let sent = deliver(&mut node, a, Body::UpdateRequest { update });
        assert!(matches!(sent[..], [(to, Body::UpdateRequest { .. })] if to == c), "{sent:?}");
        let data = |rule: &str, f| Body::UpdateData {
            update,
            rule: rule.into(),
            firings: vec![f],
            hops: 1,
            request: false,
            closes: 0,
            mark: None,
        };
        let sent = deliver(&mut node, a, data("keep", firing("tb", 7)));
        assert!(!sent.iter().any(|(_, body)| matches!(body, Body::UpdateData { .. })), "{sent:?}");
        let v1_book = node.rule_book().clone();
        let id = |book: &RuleBook, name: &str| book.link_named(name).unwrap();
        assert_eq!(id(&v1_book, "keep").index(), 1);
        let st = node.update_state(update).unwrap();
        assert_eq!(st.link(id(&v1_book, "keep")).data_received, 1);
        assert_eq!(st.link(id(&v1_book, "old")).data_sent, 0, "held");
        assert_eq!(st.deficit, 1, "the request to c");

        // The file releases the update: its new links fire whole (their
        // caches are new), and ship without a close.
        let v2 = NetworkConfig::parse(MID_V2).unwrap();
        let whole = crate::whole_fires();
        let sent = deliver(&mut node, NodeId(9), Body::RulesFile { config: Box::new(v2.clone()) });
        let shipped: Vec<(&str, usize, u32)> = sent
            .iter()
            .filter_map(|(to, body)| match body {
                Body::UpdateData { rule, firings, closes, .. } if *to == c => {
                    Some((&rule[..], firings.len(), *closes))
                }
                _ => None,
            })
            .collect();
        assert_eq!(shipped, [("new", 2), ("third", 1)].map(|(rule, n)| (rule, n, 0)));
        assert_eq!(crate::whole_fires() - whole, 2);
        let book = node.rule_book().clone();
        assert_tables_match_definitions(&book, node.id, &v2.rules);
        assert_eq!(id(&book, "keep").index(), 0, "the file renumbered the surviving link");
        let st = node.update_state(update).unwrap();
        assert_eq!(st.link(id(&book, "keep")).data_received, 1, "state followed the name");
        for fresh in ["new", "third"] {
            let shipped = crate::update::LinkState { data_sent: 1, ..Default::default() };
            assert_eq!(st.link(id(&book, fresh)), &shipped, "{fresh}");
        }
        assert!(st.released);
        assert_eq!(
            (st.deficit, st.engaged, st.parent),
            (3, true, Some(a)),
            "DS state is not per link"
        );
        let keep = &node.sent_cache[id(&book, "keep").index()];
        assert!(keep.is_empty() && node.recv_cache.is_empty(), "the caches started empty");
        assert_eq!(node.sent_cache.len(), book.len());

        // Late traffic for the vanished rule: dropped at the name lookup,
        // credited back.
        let ldb = node.ldb().clone();
        for late in [
            data("gone", firing("ub", 9)),
            Body::LinkClosed { update, rule: "gone".into(), data_msgs: 1 },
            data("old", firing("tc", 9)),
        ] {
            let sent = deliver(&mut node, a, late);
            assert!(
                matches!(sent[..], [(to, Body::DsAck { credits: 1, .. })] if to == a),
                "{sent:?}"
            );
        }
        assert_eq!(node.ldb(), &ldb);
        assert!(node.recv_cache.is_empty());
        let st = node.update_state(update).unwrap();
        assert!(book
            .links()
            .all(|(id, _)| !st.link(id).out_closed && st.link(id).pending_close.is_none()));

        // `keep` closes: `new` depends on it and closes behind it; `third`
        // depends on nothing b imports and closes with it.
        let sent =
            deliver(&mut node, a, Body::LinkClosed { update, rule: "keep".into(), data_msgs: 1 });
        let closed: Vec<(&str, u64)> = sent
            .iter()
            .filter_map(|(to, body)| match body {
                Body::LinkClosed { rule, data_msgs, .. } if *to == c => {
                    Some((&rule[..], *data_msgs))
                }
                _ => None,
            })
            .collect();
        assert_eq!(closed, [("new", 1), ("third", 1)]);
        deliver(&mut node, a, Body::UpdateComplete { update });
        let st = node.update_state(update).unwrap();
        assert!(st.complete && !st.is_out_open(id(&book, "keep")));
    }
}
