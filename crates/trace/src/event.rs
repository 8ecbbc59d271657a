//! The typed event model and its wire encoding.
//!
//! Every event is `[tag: u8][fields…]` where every numeric field is a
//! LEB128 varint from [`codb_relational::binenc`] (ZigZag for the one
//! signed field family, the timestamp *deltas*, which live one layer up
//! in the block writer). Hot-path events — a simulator send, a WAL
//! append — are therefore a handful of bytes: one tag plus two or three
//! small varints. Strings never appear in hot-path events; they are
//! bound once by an [`TraceEvent::Intern`] record and referenced by id
//! afterwards, which keeps the stream self-describing (the intern table
//! is *in* the stream, not beside it).

use codb_relational::binenc::{put_str, put_u32, put_u64, BinDecodeError, Reader};

const TAG_INTERN: u8 = 0;
const TAG_PHASE_BEGIN: u8 = 1;
const TAG_PHASE_END: u8 = 2;
const TAG_NET_SEND: u8 = 3;
const TAG_NET_DELIVER: u8 = 4;
const TAG_NET_DROP: u8 = 5;
const TAG_NET_TIMER: u8 = 6;
const TAG_UPDATE_APPLY: u8 = 7;
const TAG_RULE_FIRE: u8 = 8;
const TAG_DS_ACK: u8 = 9;
const TAG_DS_CREDIT: u8 = 10;
const TAG_REJOIN_ANNOUNCE: u8 = 11;
const TAG_REJOIN_RECV: u8 = 12;
const TAG_REJOIN_ACK: u8 = 13;
const TAG_WAL_APPEND: u8 = 14;
const TAG_FSYNC: u8 = 15;
const TAG_GROUP_DRAIN: u8 = 16;
const TAG_CHECKPOINT: u8 = 17;
const TAG_BARRIER_HOLD: u8 = 18;
const TAG_BARRIER_RELEASE: u8 = 19;

/// One recorded occurrence, from any layer of the stack.
///
/// The variants mirror the three instrumented layers: `Net*` from the
/// discrete-event simulator, `UpdateApply`/`RuleFire`/`Ds*`/`Rejoin*`/
/// `Barrier*` from the coDB node protocol, and `WalAppend`/`Fsync`/`GroupDrain`/
/// `Checkpoint` from the storage engine. `Intern` and the two `Phase*`
/// markers belong to the trace itself.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// Binds string-intern `id` to `text` for the rest of the stream.
    Intern {
        /// The id later events reference.
        id: u32,
        /// The interned text.
        text: String,
    },
    /// A named phase opens (host wall-clock attribution starts here).
    PhaseBegin {
        /// Interned phase name.
        name: u32,
        /// Host monotonic nanoseconds at the boundary.
        host_nanos: u64,
    },
    /// A named phase closes.
    PhaseEnd {
        /// Interned phase name.
        name: u32,
        /// Host monotonic nanoseconds at the boundary.
        host_nanos: u64,
    },
    /// The simulator handed a message to a pipe.
    NetSend {
        /// Sending peer id.
        from: u64,
        /// Destination peer id.
        to: u64,
        /// Payload bytes.
        bytes: u64,
    },
    /// The simulator delivered a message to its destination.
    NetDeliver {
        /// Sending peer id.
        from: u64,
        /// Destination peer id.
        to: u64,
        /// Payload bytes.
        bytes: u64,
    },
    /// The loss model dropped a message in flight.
    NetDrop {
        /// Sending peer id.
        from: u64,
        /// Destination peer id.
        to: u64,
        /// Payload bytes.
        bytes: u64,
    },
    /// A peer timer fired.
    NetTimer {
        /// The peer whose timer fired.
        peer: u64,
        /// The peer-chosen timer token.
        timer: u64,
    },
    /// A node applied an incoming batch of rule firings.
    UpdateApply {
        /// Applying node (peer id).
        peer: u64,
        /// Interned coordination-rule name.
        rule: u32,
        /// Tuples actually added (post duplicate suppression).
        tuples: u64,
    },
    /// A node evaluated a coordination rule and pushed fresh firings.
    RuleFire {
        /// Evaluating node (peer id).
        peer: u64,
        /// Destination node of the rule's link (peer id).
        link: u64,
        /// Fresh firings sent (post sent-cache suppression).
        firings: u64,
    },
    /// A node acknowledged received update data (Dijkstra–Scholten).
    DsAck {
        /// Acknowledging node (peer id).
        peer: u64,
        /// The node being acknowledged (peer id).
        to: u64,
        /// Credits returned.
        credits: u64,
    },
    /// A node's Dijkstra–Scholten deficit changed on a received ack.
    DsCredit {
        /// The node whose deficit shrank (peer id).
        peer: u64,
        /// Credits received.
        credits: u64,
        /// Remaining deficit after applying them.
        deficit: u64,
    },
    /// A recovered node announced a new epoch to its acquaintances.
    RejoinAnnounce {
        /// Rejoining node (peer id).
        peer: u64,
        /// The announced epoch.
        epoch: u64,
    },
    /// A node heard a peer's new incarnation: the first envelope of a
    /// grown epoch, whatever it carried.
    RejoinRecv {
        /// Receiving node (peer id).
        peer: u64,
        /// The rejoining node (peer id).
        from: u64,
        /// Links toward the rejoiner whose sent cache held anything when
        /// it was dropped.
        invalidated: u64,
    },
    /// A transport ack retired one of a rejoining node's `Rejoin`s.
    RejoinAck {
        /// Rejoining node (peer id).
        peer: u64,
        /// The acquaintance that acknowledged (peer id).
        from: u64,
        /// This incarnation's `Rejoin`s still unacked.
        pending: u64,
    },
    /// The storage engine appended one record to its WAL.
    WalAppend {
        /// Interned store name (its directory).
        store: u32,
        /// Encoded frame bytes appended.
        bytes: u64,
    },
    /// The storage engine synced its WAL to disk.
    Fsync {
        /// Interned store name (its directory), the id its `WalAppend`s
        /// carry.
        store: u32,
        /// Host nanoseconds the sync took.
        nanos: u64,
    },
    /// An fsync scheduler drained a batch: a shared group-commit one, or
    /// a store's private one (under `Always` and `EveryN` every
    /// threshold-triggered fsync is a drain of that one store).
    GroupDrain {
        /// Dirty stores visited.
        stores: u64,
        /// Records made durable.
        records: u64,
        /// Physical fsyncs issued.
        fsyncs: u64,
    },
    /// The storage engine rotated to a fresh checkpoint generation.
    Checkpoint {
        /// Interned store name.
        store: u32,
        /// The new generation number.
        generation: u64,
    },
    /// A node parked messages behind the rejoin barrier: retransmission
    /// toward a peer exhausted its budget on traffic that must survive
    /// the peer's crash, so the traffic is held for its next incarnation.
    BarrierHold {
        /// The holding node (peer id).
        peer: u64,
        /// The presumed-crashed peer the traffic is held for (peer id).
        toward: u64,
        /// Messages parked by this event.
        held: u64,
    },
    /// A node lifted the rejoin barrier: the barred peer was heard from
    /// again and the parked messages were re-sent in order.
    BarrierRelease {
        /// The releasing node (peer id).
        peer: u64,
        /// The peer that came back (peer id).
        toward: u64,
        /// Messages released by this event.
        released: u64,
    },
}

impl TraceEvent {
    /// The variant name, for per-kind counting and display.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::Intern { .. } => "Intern",
            TraceEvent::PhaseBegin { .. } => "PhaseBegin",
            TraceEvent::PhaseEnd { .. } => "PhaseEnd",
            TraceEvent::NetSend { .. } => "NetSend",
            TraceEvent::NetDeliver { .. } => "NetDeliver",
            TraceEvent::NetDrop { .. } => "NetDrop",
            TraceEvent::NetTimer { .. } => "NetTimer",
            TraceEvent::UpdateApply { .. } => "UpdateApply",
            TraceEvent::RuleFire { .. } => "RuleFire",
            TraceEvent::DsAck { .. } => "DsAck",
            TraceEvent::DsCredit { .. } => "DsCredit",
            TraceEvent::RejoinAnnounce { .. } => "RejoinAnnounce",
            TraceEvent::RejoinRecv { .. } => "RejoinRecv",
            TraceEvent::RejoinAck { .. } => "RejoinAck",
            TraceEvent::WalAppend { .. } => "WalAppend",
            TraceEvent::Fsync { .. } => "Fsync",
            TraceEvent::GroupDrain { .. } => "GroupDrain",
            TraceEvent::Checkpoint { .. } => "Checkpoint",
            TraceEvent::BarrierHold { .. } => "BarrierHold",
            TraceEvent::BarrierRelease { .. } => "BarrierRelease",
        }
    }
}

/// Appends one event (tag + fields, no timestamp — the block layer owns
/// time).
pub fn put_event(out: &mut Vec<u8>, ev: &TraceEvent) {
    match ev {
        TraceEvent::Intern { id, text } => {
            out.push(TAG_INTERN);
            put_u32(out, *id);
            put_str(out, text);
        }
        TraceEvent::PhaseBegin { name, host_nanos } => {
            out.push(TAG_PHASE_BEGIN);
            put_u32(out, *name);
            put_u64(out, *host_nanos);
        }
        TraceEvent::PhaseEnd { name, host_nanos } => {
            out.push(TAG_PHASE_END);
            put_u32(out, *name);
            put_u64(out, *host_nanos);
        }
        TraceEvent::NetSend { from, to, bytes } => {
            out.push(TAG_NET_SEND);
            put_u64(out, *from);
            put_u64(out, *to);
            put_u64(out, *bytes);
        }
        TraceEvent::NetDeliver { from, to, bytes } => {
            out.push(TAG_NET_DELIVER);
            put_u64(out, *from);
            put_u64(out, *to);
            put_u64(out, *bytes);
        }
        TraceEvent::NetDrop { from, to, bytes } => {
            out.push(TAG_NET_DROP);
            put_u64(out, *from);
            put_u64(out, *to);
            put_u64(out, *bytes);
        }
        TraceEvent::NetTimer { peer, timer } => {
            out.push(TAG_NET_TIMER);
            put_u64(out, *peer);
            put_u64(out, *timer);
        }
        TraceEvent::UpdateApply { peer, rule, tuples } => {
            out.push(TAG_UPDATE_APPLY);
            put_u64(out, *peer);
            put_u32(out, *rule);
            put_u64(out, *tuples);
        }
        TraceEvent::RuleFire { peer, link, firings } => {
            out.push(TAG_RULE_FIRE);
            put_u64(out, *peer);
            put_u64(out, *link);
            put_u64(out, *firings);
        }
        TraceEvent::DsAck { peer, to, credits } => {
            out.push(TAG_DS_ACK);
            put_u64(out, *peer);
            put_u64(out, *to);
            put_u64(out, *credits);
        }
        TraceEvent::DsCredit { peer, credits, deficit } => {
            out.push(TAG_DS_CREDIT);
            put_u64(out, *peer);
            put_u64(out, *credits);
            put_u64(out, *deficit);
        }
        TraceEvent::RejoinAnnounce { peer, epoch } => {
            out.push(TAG_REJOIN_ANNOUNCE);
            put_u64(out, *peer);
            put_u64(out, *epoch);
        }
        TraceEvent::RejoinRecv { peer, from, invalidated } => {
            out.push(TAG_REJOIN_RECV);
            put_u64(out, *peer);
            put_u64(out, *from);
            put_u64(out, *invalidated);
        }
        TraceEvent::RejoinAck { peer, from, pending } => {
            out.push(TAG_REJOIN_ACK);
            put_u64(out, *peer);
            put_u64(out, *from);
            put_u64(out, *pending);
        }
        TraceEvent::WalAppend { store, bytes } => {
            out.push(TAG_WAL_APPEND);
            put_u32(out, *store);
            put_u64(out, *bytes);
        }
        TraceEvent::Fsync { store, nanos } => {
            out.push(TAG_FSYNC);
            put_u32(out, *store);
            put_u64(out, *nanos);
        }
        TraceEvent::GroupDrain { stores, records, fsyncs } => {
            out.push(TAG_GROUP_DRAIN);
            put_u64(out, *stores);
            put_u64(out, *records);
            put_u64(out, *fsyncs);
        }
        TraceEvent::Checkpoint { store, generation } => {
            out.push(TAG_CHECKPOINT);
            put_u32(out, *store);
            put_u64(out, *generation);
        }
        TraceEvent::BarrierHold { peer, toward, held } => {
            out.push(TAG_BARRIER_HOLD);
            put_u64(out, *peer);
            put_u64(out, *toward);
            put_u64(out, *held);
        }
        TraceEvent::BarrierRelease { peer, toward, released } => {
            out.push(TAG_BARRIER_RELEASE);
            put_u64(out, *peer);
            put_u64(out, *toward);
            put_u64(out, *released);
        }
    }
}

/// Decodes one event; an unknown tag is a typed error, never a guess.
pub fn take_event(r: &mut Reader<'_>) -> Result<TraceEvent, BinDecodeError> {
    let at = r.offset();
    match r.byte()? {
        TAG_INTERN => Ok(TraceEvent::Intern { id: r.u32()?, text: r.str()? }),
        TAG_PHASE_BEGIN => Ok(TraceEvent::PhaseBegin { name: r.u32()?, host_nanos: r.u64()? }),
        TAG_PHASE_END => Ok(TraceEvent::PhaseEnd { name: r.u32()?, host_nanos: r.u64()? }),
        TAG_NET_SEND => Ok(TraceEvent::NetSend { from: r.u64()?, to: r.u64()?, bytes: r.u64()? }),
        TAG_NET_DELIVER => {
            Ok(TraceEvent::NetDeliver { from: r.u64()?, to: r.u64()?, bytes: r.u64()? })
        }
        TAG_NET_DROP => Ok(TraceEvent::NetDrop { from: r.u64()?, to: r.u64()?, bytes: r.u64()? }),
        TAG_NET_TIMER => Ok(TraceEvent::NetTimer { peer: r.u64()?, timer: r.u64()? }),
        TAG_UPDATE_APPLY => {
            Ok(TraceEvent::UpdateApply { peer: r.u64()?, rule: r.u32()?, tuples: r.u64()? })
        }
        TAG_RULE_FIRE => {
            Ok(TraceEvent::RuleFire { peer: r.u64()?, link: r.u64()?, firings: r.u64()? })
        }
        TAG_DS_ACK => Ok(TraceEvent::DsAck { peer: r.u64()?, to: r.u64()?, credits: r.u64()? }),
        TAG_DS_CREDIT => {
            Ok(TraceEvent::DsCredit { peer: r.u64()?, credits: r.u64()?, deficit: r.u64()? })
        }
        TAG_REJOIN_ANNOUNCE => Ok(TraceEvent::RejoinAnnounce { peer: r.u64()?, epoch: r.u64()? }),
        TAG_REJOIN_RECV => {
            Ok(TraceEvent::RejoinRecv { peer: r.u64()?, from: r.u64()?, invalidated: r.u64()? })
        }
        TAG_REJOIN_ACK => {
            Ok(TraceEvent::RejoinAck { peer: r.u64()?, from: r.u64()?, pending: r.u64()? })
        }
        TAG_WAL_APPEND => Ok(TraceEvent::WalAppend { store: r.u32()?, bytes: r.u64()? }),
        TAG_FSYNC => Ok(TraceEvent::Fsync { store: r.u32()?, nanos: r.u64()? }),
        TAG_GROUP_DRAIN => {
            Ok(TraceEvent::GroupDrain { stores: r.u64()?, records: r.u64()?, fsyncs: r.u64()? })
        }
        TAG_CHECKPOINT => Ok(TraceEvent::Checkpoint { store: r.u32()?, generation: r.u64()? }),
        TAG_BARRIER_HOLD => {
            Ok(TraceEvent::BarrierHold { peer: r.u64()?, toward: r.u64()?, held: r.u64()? })
        }
        TAG_BARRIER_RELEASE => {
            Ok(TraceEvent::BarrierRelease { peer: r.u64()?, toward: r.u64()?, released: r.u64()? })
        }
        t => Err(BinDecodeError { offset: at, detail: format!("unknown trace-event tag {t}") }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn one_of_each() -> Vec<TraceEvent> {
        vec![
            TraceEvent::Intern { id: 1, text: "flood".to_owned() },
            TraceEvent::PhaseBegin { name: 1, host_nanos: 12 },
            TraceEvent::PhaseEnd { name: 1, host_nanos: 999 },
            TraceEvent::NetSend { from: 0, to: 1, bytes: 64 },
            TraceEvent::NetDeliver { from: 0, to: 1, bytes: 64 },
            TraceEvent::NetDrop { from: 1, to: 0, bytes: 48 },
            TraceEvent::NetTimer { peer: 3, timer: 1 },
            TraceEvent::UpdateApply { peer: 2, rule: 1, tuples: 17 },
            TraceEvent::RuleFire { peer: 2, link: 3, firings: 5 },
            TraceEvent::DsAck { peer: 3, to: 2, credits: 4 },
            TraceEvent::DsCredit { peer: 2, credits: 4, deficit: 0 },
            TraceEvent::RejoinAnnounce { peer: 5, epoch: 2 },
            TraceEvent::RejoinRecv { peer: 4, from: 5, invalidated: 3 },
            TraceEvent::RejoinAck { peer: 5, from: 4, pending: 1 },
            TraceEvent::WalAppend { store: 1, bytes: 130 },
            TraceEvent::Fsync { store: 1, nanos: 48_000 },
            TraceEvent::GroupDrain { stores: 4, records: 256, fsyncs: 4 },
            TraceEvent::Checkpoint { store: 1, generation: 2 },
            TraceEvent::BarrierHold { peer: 4, toward: 5, held: 3 },
            TraceEvent::BarrierRelease { peer: 4, toward: 5, released: 3 },
        ]
    }

    #[test]
    fn every_variant_round_trips() {
        for ev in one_of_each() {
            let mut out = Vec::new();
            put_event(&mut out, &ev);
            let mut r = Reader::new(&out);
            assert_eq!(take_event(&mut r).unwrap(), ev);
            r.expect_end().unwrap();
        }
    }

    #[test]
    fn hot_path_events_are_a_handful_of_bytes() {
        let mut out = Vec::new();
        put_event(&mut out, &TraceEvent::NetSend { from: 3, to: 7, bytes: 100 });
        assert!(out.len() <= 4, "{} bytes", out.len());
        out.clear();
        put_event(&mut out, &TraceEvent::WalAppend { store: 1, bytes: 120 });
        assert!(out.len() <= 4, "{} bytes", out.len());
    }

    #[test]
    fn unknown_tag_is_a_typed_error() {
        let err = take_event(&mut Reader::new(&[200])).unwrap_err();
        assert!(err.detail.contains("unknown trace-event tag"), "{err}");
    }

    #[test]
    fn truncation_is_an_error_never_a_panic() {
        for ev in one_of_each() {
            let mut out = Vec::new();
            put_event(&mut out, &ev);
            for cut in 0..out.len() {
                assert!(take_event(&mut Reader::new(&out[..cut])).is_err(), "cut at {cut}");
            }
        }
    }
}
