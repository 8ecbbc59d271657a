//! The coDB wire protocol.
//!
//! Every message is an [`Envelope`]: a transport header — an optional
//! sequence number (present on every protocol message a node retransmits
//! until it is answered), the sender's window base, and optionally the ack
//! of a message that came the other way — plus a [`Body`]. What answers a
//! message (a bare ack, the reply that returns a Dijkstra–Scholten credit)
//! is itself unsequenced: see [`crate::reliable`].

use crate::config::NetworkConfig;
use crate::ids::{NodeId, ReqId, RuleName, Tag, UpdateId};
use crate::stats::{Kind, NodeReport};
use codb_net::Payload;
use codb_relational::{ConjunctiveQuery, RuleFiring};
use codb_store::{LinkMark, Span};
use serde::Serialize;
use std::num::NonZeroU64;

/// Message body.
#[derive(Clone, Debug, Serialize)]
pub enum Body {
    // ---- transport ----
    /// Nothing: the envelope exists for the [`Envelope::ack`] in its header,
    /// which found no other envelope to ride (reliable-delivery layer; not
    /// a Dijkstra–Scholten signal).
    Ack,

    // ---- global update (paper §2–3) ----
    /// The request starting / propagating a global update, flooded: a node
    /// that processes it sends it on to every acquaintance but its sender —
    /// alone only where the initial execution of its incoming links sent
    /// no data, which otherwise carries it ([`Body::UpdateData`]'s
    /// `request`).
    UpdateRequest {
        /// The update.
        update: UpdateId,
    },
    /// Query-dependent (scoped) update: the sender *demands* the data of
    /// one coordination rule — the receiver activates that incoming link
    /// and recursively demands what the rule's body needs. Unlike
    /// [`Body::UpdateRequest`] this is not flooded; it follows the demand.
    DemandLink {
        /// The update.
        update: UpdateId,
        /// The demanded rule (an incoming link at the receiver).
        rule: RuleName,
    },
    /// Rule firings pushed from a rule's source to its target.
    UpdateData {
        /// The update.
        update: UpdateId,
        /// The coordination rule (an outgoing link at the receiver).
        rule: RuleName,
        /// New firings (already deduplicated against the sender's
        /// sent-cache for this link).
        firings: Vec<RuleFiring>,
        /// Length of the update propagation path that produced this batch
        /// (the statistics module reports the longest such path).
        hops: u64,
        /// The update request rides along: the first data the initial
        /// execution sends a target (its sender aside) carries it, in place
        /// of a [`Body::UpdateRequest`], and the receiver processes the
        /// request before the firings. An explicit bit: data a node has not
        /// seen the request for is not thereby a request (a restarted node
        /// may receive a scoped update's parked data).
        request: bool,
        /// The link closes with this data: nonzero, the `data_msgs` of the
        /// [`Body::LinkClosed`] it stands for — how many `UpdateData` the
        /// source sent on the link, this one included. A *held* link ships
        /// everything it derives in one such message (`crate::update`,
        /// "Termination"); zero, the link stays open. (A `u32`, in the
        /// padding beside `request`: the body stays 88 bytes.)
        closes: u32,
        /// The part of the link's log this batch covers ([`Mark`]): the
        /// target keeps how far its batches reach, to report back when it
        /// restarts ([`Body::Rejoin`]).
        mark: Option<Mark>,
    },
    /// The source of `rule` tells the target that the incoming link is
    /// closed: no further `UpdateData` will arrive on it. Sent alone where
    /// no data is left to carry the close ([`Body::UpdateData`]'s
    /// `closes`).
    LinkClosed {
        /// The update.
        update: UpdateId,
        /// The rule whose link closed.
        rule: RuleName,
        /// How many `UpdateData` messages the source sent on this link.
        /// Retransmission can deliver a lost data message *after* the
        /// close notification; the target treats the link as closed only
        /// once it has processed this many data messages.
        data_msgs: u64,
    },
    /// Dijkstra–Scholten credit: the receiver's deficit for `update`
    /// decreases by `credits`. Unsequenced when it answers a message that
    /// did not engage its receiver (it then carries that message's ack and
    /// counts only if the ack retires it). Sequenced when a node disengages
    /// and returns the credit of the message that engaged it — which makes
    /// the sender the receiver's child in the update's completion tree —
    /// or, with no credit, when a node whose place in that tree was lost
    /// asks the receiver to adopt it.
    DsAck {
        /// The update.
        update: UpdateId,
        /// Number of messages acknowledged.
        credits: u64,
    },
    /// Sent down the completion tree once the initiator detects global
    /// quiescence: by each node to the children it recorded (the peers
    /// that engaged under it, or asked to be adopted) that are still
    /// acquaintances. Forces links still open (cyclic components) closed.
    UpdateComplete {
        /// The update.
        update: UpdateId,
    },

    // ---- crash rejoin ----
    /// A node restarted from its durable store announces its new
    /// incarnation to an acquaintance, with the last durable mark of each
    /// link the acquaintance feeds it. On the first envelope of the new
    /// incarnation it hears — this one or anything sent before it
    /// ([`crate::reliable::Reliable::heard`]) — the receiver drops every
    /// per-link sent cache pointed at the sender (the crashed incarnation
    /// may have lost data those caches assume it holds). On this one it
    /// repairs those links ([`crate::rejoin`]): from the reported mark,
    /// where it can trust it, else whole, as [`Body::RejoinRepair`]. It
    /// parks behind the barrier toward a peer that is down, so a restart
    /// is announced to a neighbour that comes back later.
    Rejoin {
        /// Each link the receiver feeds the sender that the sender's store
        /// kept a mark of, by rule name.
        marks: Vec<(RuleName, LinkMark)>,
    },
    /// Repair data a `Rejoin` draws: what the receiver of the `Rejoin`
    /// fires, on every link targeting the restarted node, past the mark
    /// that node reported (or over its whole LDB, where no trusted mark
    /// answers), shipped at once instead of waiting for the next organic
    /// update to re-send what the crashed incarnation lost (ROADMAP window
    /// (a)). After a clean shutdown nothing is past the mark and no repair
    /// is sent. Unlike [`Body::UpdateData`] this carries no update id and
    /// is not Dijkstra–Scholten counted — repair is a standalone push,
    /// dedup'd by the receiver's cross-update template caches, which also
    /// bound the cascade of further `RejoinRepair` hops it may trigger on
    /// a weakly acyclic rule set; on any other, `max_hops` cuts it, as it
    /// cuts update data.
    RejoinRepair {
        /// The coordination rule (an outgoing link at the receiver).
        rule: RuleName,
        /// Re-fired rule firings (already filtered through the sender's
        /// sent-cache for this link).
        firings: Vec<RuleFiring>,
        /// Length of the repair cascade that produced this batch (1 for
        /// the re-send itself).
        hops: u64,
        /// The part of the link's log this batch covers, as on
        /// [`Body::UpdateData`].
        mark: Option<Mark>,
    },

    // ---- query-time answering (paper §1, §3) ----
    /// Ask an acquaintance to execute `rule`'s body on behalf of a query.
    /// `path` is the label of node ids the request has passed through; a
    /// node does not extend the diffusion past nodes already in the label.
    /// (A boxed slice, not a `Vec`: with the tag beside it, the message is
    /// then no larger than [`Body::UpdateData`], and every envelope of
    /// every kind is moved by value at that size.)
    QueryRequest {
        /// Fetch request id (unique per requester).
        req: ReqId,
        /// Rule to execute (an incoming link at the receiver).
        rule: RuleName,
        /// Diffusing-computation label.
        path: Box<[NodeId]>,
        /// The tag of the whole answer the requester holds for this link,
        /// if it holds one: a server whose answer still stands names it
        /// back and ships no firing.
        known: Option<Tag>,
    },
    /// A (streaming) answer to a [`Body::QueryRequest`]: the paper's node
    /// "answers it using local data immediately" and keeps streaming as
    /// its own fetches return; `closed` marks the final instalment.
    QueryAnswer {
        /// The request being answered.
        req: ReqId,
        /// New rule firings since the previous instalment.
        firings: Vec<RuleFiring>,
        /// On the final instalment, how many instalments the request drew,
        /// this one included: the transport does not order them, so the
        /// final one may arrive before one lost and sent again.
        closed: Option<u64>,
        /// On the final instalment, the tag of the whole answer — the union
        /// of the request's instalments — and on the opening instalment of
        /// several, which carries the local part, the tag it went under; a
        /// mid-stream instalment carries none. An instalment with no firing
        /// and the tag the request named is *unchanged*: it stands for its
        /// part of the answer the requester holds under that tag (the
        /// local part, the rest, or, alone, both). `None` on the final
        /// instalment of an answer nothing was kept of — a stale rule's,
        /// one a rules file overtook — and on the empty instalment that
        /// closes a request given up on.
        tag: Option<Tag>,
    },

    // ---- super-peer administration (paper §4) ----
    /// Super-peer broadcast of a (new) network configuration: each node
    /// picks out its own rules, drops stale pipes, opens new ones.
    RulesFile {
        /// The configuration.
        config: Box<NetworkConfig>,
    },
    /// Super-peer asks a node for its statistics.
    StatsRequest,
    /// A node's statistics report.
    StatsReport {
        /// The report.
        report: Box<NodeReport>,
    },

    // ---- harness-injected control (the demo UI's buttons) ----
    /// Start a global update at the receiving node.
    StartUpdate,
    /// Start a query-dependent (scoped) update at the receiving node,
    /// materialising only data feeding the given relations.
    StartScopedUpdate {
        /// The relations the user's query reads.
        relations: Vec<String>,
    },
    /// Run a network query at the receiving node.
    StartQuery {
        /// The user query (over the receiving node's schema).
        query: Box<ConjunctiveQuery>,
        /// Whether to fetch from acquaintances (query-time answering) or
        /// answer purely locally.
        fetch: bool,
    },
    /// Ask the receiving super-peer to collect statistics from all nodes.
    CollectStats,
    /// Ask the receiving super-peer to broadcast its configuration.
    BroadcastRules,
    /// Trigger the topology discovery procedure at the receiving node
    /// (the demo UI's "start topology discovery"): refresh the node's view
    /// of advertised peers, acquaintances or not.
    TriggerDiscovery,
    /// Insert a tuple into the receiving node's local database, exactly as
    /// [`crate::node::CoDbNode::insert_local`] would. Exists so sustained
    /// ingest flows through the message plane on *both* runtimes — under
    /// the sharded threaded runtime node state lives on worker threads, so
    /// the harness cannot call `insert_local` directly.
    IngestLocal {
        /// Target relation (must exist in the node's schema).
        relation: String,
        /// The tuple (arity-checked against the schema on arrival).
        tuple: codb_relational::Tuple,
    },
}

impl Body {
    /// Approximate serialized size, for the simulator's bandwidth model and
    /// the statistics module. Firing payloads dominate; control messages
    /// are costed at small constants.
    pub fn size_bytes(&self) -> usize {
        match self {
            Body::Ack => 0,
            Body::UpdateRequest { .. } => 32,
            Body::DemandLink { .. } => 40,
            Body::UpdateData { firings, .. } => {
                48 + firings.iter().map(RuleFiring::size_bytes).sum::<usize>()
            }
            Body::LinkClosed { .. } => 40,
            Body::DsAck { .. } => 32,
            Body::UpdateComplete { .. } => 32,
            Body::Rejoin { marks } => {
                24 + marks.iter().map(|(rule, _)| rule.len() + 16).sum::<usize>()
            }
            Body::RejoinRepair { firings, .. } => {
                40 + firings.iter().map(RuleFiring::size_bytes).sum::<usize>()
            }
            Body::QueryRequest { path, known, .. } => 48 + path.len() * 8 + tag_bytes(known),
            Body::QueryAnswer { firings, tag, .. } => {
                32 + tag_bytes(tag) + firings.iter().map(RuleFiring::size_bytes).sum::<usize>()
            }
            Body::RulesFile { config } => config.approx_size_bytes(),
            Body::StatsRequest => 16,
            Body::StatsReport { .. } => 256,
            Body::StartUpdate
            | Body::StartScopedUpdate { .. }
            | Body::StartQuery { .. }
            | Body::CollectStats
            | Body::BroadcastRules
            | Body::TriggerDiscovery => 16,
            Body::IngestLocal { relation, tuple } => 24 + relation.len() + tuple.size_bytes(),
        }
    }

    /// The update this message belongs to, if any.
    pub fn update_id(&self) -> Option<UpdateId> {
        match self {
            Body::UpdateRequest { update }
            | Body::DemandLink { update, .. }
            | Body::UpdateData { update, .. }
            | Body::LinkClosed { update, .. }
            | Body::DsAck { update, .. }
            | Body::UpdateComplete { update } => Some(*update),
            _ => None,
        }
    }

    /// True for messages counted by the Dijkstra–Scholten deficit: the
    /// update messages that can trigger further work at the receiver.
    pub fn is_ds_counted(&self) -> bool {
        matches!(
            self,
            Body::UpdateRequest { .. }
                | Body::DemandLink { .. }
                | Body::UpdateData { .. }
                | Body::LinkClosed { .. }
        )
    }

    /// True for messages the rejoin barrier parks instead of abandoning
    /// when retransmission toward a peer exhausts
    /// [`crate::reliable::Reliable::max_attempts`]: the peer is presumed
    /// crashed and mid-handshake, so data and handshake traffic must wait
    /// for its new incarnation rather than be dropped. DS credit returns,
    /// completions, query traffic and stats keep the old
    /// abandonment semantics — they are either re-derivable or meaningless
    /// to a dead incarnation.
    pub fn parks_behind_barrier(&self) -> bool {
        self.is_ds_counted() || matches!(self, Body::Rejoin { .. } | Body::RejoinRepair { .. })
    }

    /// The kind the per-kind statistics count this message under.
    pub fn kind(&self) -> Kind {
        match self {
            Body::Ack => Kind::Ack,
            Body::UpdateRequest { .. } => Kind::UpdateRequest,
            Body::DemandLink { .. } => Kind::DemandLink,
            Body::UpdateData { .. } => Kind::UpdateData,
            Body::LinkClosed { .. } => Kind::LinkClosed,
            Body::DsAck { .. } => Kind::DsAck,
            Body::UpdateComplete { .. } => Kind::UpdateComplete,
            Body::Rejoin { .. } => Kind::Rejoin,
            Body::RejoinRepair { .. } => Kind::RejoinRepair,
            Body::QueryRequest { .. } => Kind::QueryRequest,
            Body::QueryAnswer { .. } => Kind::QueryAnswer,
            Body::RulesFile { .. } => Kind::RulesFile,
            Body::StatsRequest => Kind::StatsRequest,
            Body::StatsReport { .. } => Kind::StatsReport,
            Body::StartUpdate => Kind::StartUpdate,
            Body::StartScopedUpdate { .. } => Kind::StartScopedUpdate,
            Body::StartQuery { .. } => Kind::StartQuery,
            Body::CollectStats => Kind::CollectStats,
            Body::BroadcastRules => Kind::BroadcastRules,
            Body::TriggerDiscovery => Kind::TriggerDiscovery,
            Body::IngestLocal { .. } => Kind::IngestLocal,
        }
    }
}

/// The part of a link's log a batch covers: positions `from..to` of the
/// log of the link body's relation. `to` is the source's mark after the
/// batch, how far it has fired the link; `from` is where the batch
/// starts, and everything before it the source counts on the target
/// holding already — the earlier batches on the link, or (`anchored`) the
/// mark the target reported in its [`Body::Rejoin`], which the source
/// trusted. Update data and rejoin repair carry it; the target keeps a
/// mark per link with the sender's epoch ([`codb_store::LinkMark`]),
/// moved only by a batch that joins on to it ([`codb_store::Span::extend`]:
/// one that overtook an earlier batch moves nothing), and reports it back
/// when it restarts, so the source repairs from there and not from
/// scratch. A body of several atoms has one position per atom, which
/// would not ride without an allocation: its data carries none.
/// (One `u64`: `to + 1` in the low 32 bits, `from` in the next 31, the
/// flag on top. No mark costs no room, and [`Body`] stays 88 bytes; a log
/// past 2^31 − 1 positions ships no mark, and its link is repaired
/// whole.)
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub struct Mark(NonZeroU64);

impl Mark {
    /// The positions a mark can name: below 2^31.
    const LIMIT: u64 = 1 << 31;
    /// Where the flag sits.
    const ANCHORED: u64 = 1 << 63;

    /// The mark of a batch covering `from..to` (none where `to` is before
    /// `from` or past 2^31 − 1); `anchored`: `from` is the mark the
    /// target reported.
    pub fn span(from: u64, to: u64, anchored: bool) -> Option<Mark> {
        if from > to || to >= Self::LIMIT {
            return None;
        }
        let flag = if anchored { Self::ANCHORED } else { 0 };
        NonZeroU64::new(flag | from << 32 | (to + 1)).map(Mark)
    }

    /// Where the batch starts.
    pub fn from(self) -> u64 {
        (self.0.get() & !Self::ANCHORED) >> 32
    }

    /// Where the batch ends: the source's mark after it.
    pub fn to(self) -> u64 {
        (self.0.get() & 0xffff_ffff) - 1
    }

    /// Whether `from` is the mark the target reported.
    pub fn anchored(self) -> bool {
        self.0.get() & Self::ANCHORED != 0
    }

    /// The batch's span as its target keeps marks: with `epoch`, the
    /// incarnation of the sender that stamped the envelope it rode.
    pub fn of_epoch(self, epoch: u64) -> Span {
        Span { epoch, from: self.from(), to: self.to(), anchored: self.anchored() }
    }
}

/// What a tag adds to a message: its epoch and seq, where there is one.
fn tag_bytes(tag: &Option<Tag>) -> usize {
    tag.map_or(0, |_| 16)
}

/// The ack of a sequenced envelope: its seq, and the epoch it was stamped
/// with — echoed so the sender can tell which incarnation's seq is being
/// retired (sequence numbers restart at recovery).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub struct CarriedAck {
    /// Acknowledged transport sequence number.
    pub seq: u64,
    /// The epoch of the acknowledged envelope.
    pub epoch: u64,
}

/// A protocol message: transport header + body.
#[derive(Clone, Debug, Serialize)]
pub struct Envelope {
    /// Transport sequence number, counted per destination; `None` for what
    /// answers a message (a bare [`Body::Ack`], the reply returning a DS
    /// credit) and for harness-injected control messages. Read by the
    /// receiver's window ([`crate::reliable::Reliable::receive`]).
    pub seq: Option<u64>,
    /// Sender incarnation, on everything a node sends (0 on harness
    /// control). A node restarted from its durable store rejoins with a
    /// higher epoch (the JXTA stand-in: a restarted peer opens new
    /// transport sessions); receivers start their per-sender window over
    /// when they see the epoch grow, so the fresh incarnation's restarted
    /// sequence numbers are not mistaken for duplicates, write off the
    /// engagement credits the dead incarnation held
    /// ([`crate::reliable::Reliable::heard`]), and start the rejoin repair
    /// toward it ([`crate::rejoin`]).
    pub epoch: u64,
    /// On a sequenced envelope, the lowest seq the sender may still
    /// retransmit toward this receiver: everything below it was answered,
    /// and the receiver's window forgets it.
    pub base: u64,
    /// An ack riding along: of the sequenced envelope from the receiver
    /// this one answers, or merely follows. Read by the receiver's ring
    /// ([`crate::reliable::Reliable::on_ack`]).
    pub ack: Option<CarriedAck>,
    /// The payload.
    pub body: Body,
}

impl Envelope {
    /// An unsequenced control envelope (harness injection).
    pub fn control(body: Body) -> Self {
        Envelope { seq: None, epoch: 0, base: 0, ack: None, body }
    }
}

impl Payload for Envelope {
    /// The fixed header, the window base where there is a seq for it to
    /// bound, the carried ack's seq and epoch where there is one, and the
    /// body: a bare ack is 32 bytes.
    fn size_bytes(&self) -> usize {
        let base = if self.seq.is_some() { 8 } else { 0 };
        let ack = if self.ack.is_some() { 16 } else { 0 };
        16 + base + ack + self.body.size_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn upd() -> UpdateId {
        UpdateId { origin: NodeId(1), epoch: 0, seq: 0 }
    }

    #[test]
    fn ds_counting_covers_work_messages() {
        assert!(Body::UpdateRequest { update: upd() }.is_ds_counted());
        assert!(Body::UpdateData {
            update: upd(),
            rule: "r".into(),
            firings: vec![],
            hops: 1,
            request: false,
            closes: 0,
            mark: None,
        }
        .is_ds_counted());
        assert!(Body::LinkClosed { update: upd(), rule: "r".into(), data_msgs: 0 }.is_ds_counted());
        assert!(!Body::DsAck { update: upd(), credits: 1 }.is_ds_counted());
        assert!(!Body::UpdateComplete { update: upd() }.is_ds_counted());
        assert!(!Body::Ack.is_ds_counted());
        assert!(!Body::StatsRequest.is_ds_counted());
        assert!(!Body::Rejoin { marks: vec![] }.is_ds_counted());
        assert!(!Body::RejoinRepair { rule: "r".into(), firings: vec![], hops: 1, mark: None }
            .is_ds_counted());
    }

    #[test]
    fn barrier_parks_data_and_handshake_but_not_bookkeeping() {
        // Everything DS-counted is real work the rejoined peer must
        // eventually see.
        assert!(Body::UpdateRequest { update: upd() }.parks_behind_barrier());
        assert!(Body::UpdateData {
            update: upd(),
            rule: "r".into(),
            firings: vec![],
            hops: 1,
            request: false,
            closes: 0,
            mark: None,
        }
        .parks_behind_barrier());
        assert!(Body::LinkClosed { update: upd(), rule: "r".into(), data_msgs: 0 }
            .parks_behind_barrier());
        assert!(Body::DemandLink { update: upd(), rule: "r".into() }.parks_behind_barrier());
        // The handshake itself parks: abandoning a Rejoin toward a
        // still-dead peer strands the handshake forever (window (b)).
        assert!(Body::Rejoin { marks: vec![] }.parks_behind_barrier());
        assert!(Body::RejoinRepair { rule: "r".into(), firings: vec![], hops: 1, mark: None }
            .parks_behind_barrier());
        // Bookkeeping keeps the abandonment semantics.
        assert!(!Body::DsAck { update: upd(), credits: 1 }.parks_behind_barrier());
        assert!(!Body::UpdateComplete { update: upd() }.parks_behind_barrier());
        assert!(!Body::Ack.parks_behind_barrier());
        assert!(!Body::StatsRequest.parks_behind_barrier());
        let req = crate::ids::ReqId { node: NodeId(1), epoch: 0, seq: 0 };
        let answer = Body::QueryAnswer { req, firings: vec![], closed: Some(1), tag: None };
        assert!(!answer.parks_behind_barrier());
    }

    #[test]
    fn update_id_extraction() {
        assert_eq!(Body::UpdateComplete { update: upd() }.update_id(), Some(upd()));
        assert_eq!(Body::StatsRequest.update_id(), None);
    }

    #[test]
    fn sizes_scale_with_firings() {
        let small = Body::UpdateData {
            update: upd(),
            rule: "r".into(),
            firings: vec![],
            hops: 1,
            request: false,
            closes: 0,
            mark: None,
        };
        let firing = codb_relational::RuleFiring::new([(
            "t",
            vec![codb_relational::TField::Const(codb_relational::Value::Int(1))],
        )]);
        let big = Body::UpdateData {
            update: upd(),
            rule: "r".into(),
            firings: vec![firing],
            hops: 1,
            request: false,
            closes: 0,
            mark: None,
        };
        assert!(big.size_bytes() > small.size_bytes());
        assert!(Envelope::control(Body::StatsRequest).size_bytes() >= 16);
    }

    /// A message is moved by value through every queue: the fields that
    /// carry tags make no message larger than the largest other.
    #[test]
    fn a_tag_makes_no_message_larger() {
        assert_eq!(std::mem::size_of::<Option<Tag>>(), std::mem::size_of::<Tag>());
        assert_eq!(std::mem::size_of::<Body>(), 88);
    }

    /// A mark rides in a niche: an absent one takes no room of its own.
    #[test]
    fn a_mark_is_a_span_and_costs_no_room_when_absent() {
        assert_eq!(std::mem::size_of::<Option<Mark>>(), 8);
        let last = Mark::LIMIT - 1;
        for (from, to) in [(0, 0), (0, 1), (4, 41), (last, last), (0, last)] {
            for anchored in [false, true] {
                let mark = Mark::span(from, to, anchored).unwrap();
                assert_eq!((mark.from(), mark.to(), mark.anchored()), (from, to, anchored));
            }
        }
        assert_eq!(Mark::span(0, Mark::LIMIT, false), None);
        assert_eq!(Mark::span(5, 4, false), None);
    }

    #[test]
    fn a_tag_is_charged_where_it_rides() {
        let req = crate::ids::ReqId { node: NodeId(1), epoch: 0, seq: 0 };
        let tag = Some(Tag { epoch: 0, seq: std::num::NonZeroU64::new(3).unwrap() });
        let ask = |known| Body::QueryRequest {
            req,
            rule: "r".into(),
            path: Box::new([NodeId(0)]),
            known,
        };
        assert_eq!(ask(tag).size_bytes(), ask(None).size_bytes() + 16);
        let answer = |tag| Body::QueryAnswer { req, firings: vec![], closed: Some(1), tag };
        assert_eq!(answer(tag).size_bytes(), answer(None).size_bytes() + 16);
    }

    #[test]
    fn the_header_charges_what_it_carries() {
        let ack = Some(CarriedAck { seq: 7, epoch: 0 });
        let bare = Envelope { ack, ..Envelope::control(Body::Ack) };
        assert_eq!(bare.size_bytes(), 32);
        let plain = Envelope::control(Body::DsAck { update: upd(), credits: 1 });
        let reply = Envelope { ack, ..plain.clone() };
        assert_eq!(reply.size_bytes(), plain.size_bytes() + 16);
        let sequenced = Envelope { seq: Some(0), ..reply.clone() };
        assert_eq!(sequenced.size_bytes(), reply.size_bytes() + 8);
    }

    #[test]
    fn kinds_are_distinct_for_update_protocol() {
        let kinds = [
            Body::UpdateRequest { update: upd() }.kind(),
            Body::UpdateData {
                update: upd(),
                rule: "r".into(),
                firings: vec![],
                hops: 0,
                request: false,
                closes: 0,
                mark: None,
            }
            .kind(),
            Body::LinkClosed { update: upd(), rule: "r".into(), data_msgs: 0 }.kind(),
            Body::DsAck { update: upd(), credits: 1 }.kind(),
            Body::UpdateComplete { update: upd() }.kind(),
        ];
        let set: std::collections::BTreeSet<_> = kinds.into_iter().collect();
        assert_eq!(set.len(), 5);
    }
}
