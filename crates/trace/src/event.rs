//! The typed event model and its wire encoding, declared once.
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
//!
//! The `events!` table below is the one place an event kind is defined:
//! its row gives the doc, the variant, the tag byte and each field's doc
//! and type, and the enum, [`TraceEvent::kind`], [`TraceEvent::KINDS`],
//! [`put_event`] and [`take_event`] are generated from it. Fields go on
//! the wire in the order they are declared, each through its type's
//! primitive (`u32`, `u64`, `String`).

use codb_relational::binenc::{put_str, put_u32, put_u64, BinDecodeError, Reader};

/// A field type and the `binenc` primitive it travels as.
trait Field: Sized {
    fn put(&self, out: &mut Vec<u8>);
    fn take(r: &mut Reader<'_>) -> Result<Self, BinDecodeError>;
}

impl Field for u32 {
    fn put(&self, out: &mut Vec<u8>) {
        put_u32(out, *self);
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, BinDecodeError> {
        r.u32()
    }
}

impl Field for u64 {
    fn put(&self, out: &mut Vec<u8>) {
        put_u64(out, *self);
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, BinDecodeError> {
        r.u64()
    }
}

impl Field for String {
    fn put(&self, out: &mut Vec<u8>) {
        put_str(out, self);
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, BinDecodeError> {
        r.str()
    }
}

/// Declares [`TraceEvent`] with each variant's tag byte and fields beside
/// it, and generates the encoder and decoder from the same rows, so a
/// variant cannot exist without a tag and the two cannot disagree.
macro_rules! events {
    ($(
        $(#[$doc:meta])*
        $variant:ident = $tag:literal {
            $($(#[$field_doc:meta])* $field:ident: $ty:ty,)*
        },
    )+) => {
        /// One recorded occurrence, from any layer of the stack.
        ///
        /// The variants mirror the three instrumented layers: `Net*` from the
        /// discrete-event simulator, `UpdateApply`/`RuleFire`/`Ds*`/`Rejoin*`/
        /// `Barrier*` from the coDB node protocol, and `WalAppend`/`Fsync`/`GroupDrain`/
        /// `Checkpoint` from the storage engine. `Intern` and the two `Phase*`
        /// markers belong to the trace itself.
        #[derive(Clone, Debug, PartialEq, Eq)]
        pub enum TraceEvent {
            $($(#[$doc])* $variant { $($(#[$field_doc])* $field: $ty,)* },)+
        }

        impl TraceEvent {
            /// Every variant's name, in table (and tag) order.
            pub const KINDS: [&'static str; [$($tag),+].len()] = [$(stringify!($variant)),+];

            /// The variant name, for per-kind counting and display.
            pub fn kind(&self) -> &'static str {
                match self {
                    $(TraceEvent::$variant { .. } => stringify!($variant),)+
                }
            }
        }

        /// Appends one event (tag + fields, no timestamp — the block layer
        /// owns time).
        pub fn put_event(out: &mut Vec<u8>, ev: &TraceEvent) {
            match ev {
                $(TraceEvent::$variant { $($field),* } => {
                    out.push($tag);
                    $(Field::put($field, out);)*
                })+
            }
        }

        /// Decodes one event; an unknown tag is a typed error, never a guess.
        pub fn take_event(r: &mut Reader<'_>) -> Result<TraceEvent, BinDecodeError> {
            let at = r.offset();
            match r.byte()? {
                $($tag => Ok(TraceEvent::$variant { $($field: <$ty as Field>::take(r)?,)* }),)+
                t => Err(BinDecodeError { offset: at, detail: format!("unknown trace-event tag {t}") }),
            }
        }
    };
}

events! {
    /// Binds string-intern `id` to `text` for the rest of the stream.
    Intern = 0 {
        /// The id later events reference.
        id: u32,
        /// The interned text.
        text: String,
    },
    /// A named phase opens (host wall-clock attribution starts here).
    PhaseBegin = 1 {
        /// Interned phase name.
        name: u32,
        /// Host monotonic nanoseconds at the boundary.
        host_nanos: u64,
    },
    /// A named phase closes.
    PhaseEnd = 2 {
        /// Interned phase name.
        name: u32,
        /// Host monotonic nanoseconds at the boundary.
        host_nanos: u64,
    },
    /// The simulator handed a message to a pipe.
    NetSend = 3 {
        /// Sending peer id.
        from: u64,
        /// Destination peer id.
        to: u64,
        /// Payload bytes.
        bytes: u64,
    },
    /// The simulator delivered a message to its destination.
    NetDeliver = 4 {
        /// Sending peer id.
        from: u64,
        /// Destination peer id.
        to: u64,
        /// Payload bytes.
        bytes: u64,
    },
    /// The loss model dropped a message in flight.
    NetDrop = 5 {
        /// Sending peer id.
        from: u64,
        /// Destination peer id.
        to: u64,
        /// Payload bytes.
        bytes: u64,
    },
    /// A peer timer fired.
    NetTimer = 6 {
        /// The peer whose timer fired.
        peer: u64,
        /// The peer-chosen timer token.
        timer: u64,
    },
    /// A node applied an incoming batch of rule firings.
    UpdateApply = 7 {
        /// Applying node (peer id).
        peer: u64,
        /// Interned coordination-rule name.
        rule: u32,
        /// Tuples actually added (post duplicate suppression).
        tuples: u64,
    },
    /// A node evaluated a coordination rule and pushed fresh firings.
    RuleFire = 8 {
        /// Evaluating node (peer id).
        peer: u64,
        /// Destination node of the rule's link (peer id).
        link: u64,
        /// Fresh firings sent (post sent-cache suppression).
        firings: u64,
    },
    /// A node acknowledged received update data (Dijkstra–Scholten).
    DsAck = 9 {
        /// Acknowledging node (peer id).
        peer: u64,
        /// The node being acknowledged (peer id).
        to: u64,
        /// Credits returned.
        credits: u64,
    },
    /// A node's Dijkstra–Scholten deficit changed on a received ack.
    DsCredit = 10 {
        /// The node whose deficit shrank (peer id).
        peer: u64,
        /// Credits received.
        credits: u64,
        /// Remaining deficit after applying them.
        deficit: u64,
    },
    /// A recovered node announced a new epoch to its acquaintances.
    RejoinAnnounce = 11 {
        /// Rejoining node (peer id).
        peer: u64,
        /// The announced epoch.
        epoch: u64,
    },
    /// A node heard a peer's new incarnation: the first envelope of a
    /// grown epoch, whatever it carried.
    RejoinRecv = 12 {
        /// Receiving node (peer id).
        peer: u64,
        /// The rejoining node (peer id).
        from: u64,
        /// Links toward the rejoiner whose sent cache held anything when
        /// it was dropped.
        invalidated: u64,
    },
    /// A transport ack retired one of a rejoining node's `Rejoin`s.
    RejoinAck = 13 {
        /// Rejoining node (peer id).
        peer: u64,
        /// The acquaintance that acknowledged (peer id).
        from: u64,
        /// This incarnation's `Rejoin`s still unacked.
        pending: u64,
    },
    /// The storage engine appended one record to its WAL.
    WalAppend = 14 {
        /// Interned store name (its directory).
        store: u32,
        /// Encoded frame bytes appended.
        bytes: u64,
    },
    /// The storage engine synced its WAL to disk.
    Fsync = 15 {
        /// Interned store name (its directory), the id its `WalAppend`s
        /// carry.
        store: u32,
        /// Host nanoseconds the sync took.
        nanos: u64,
    },
    /// An fsync scheduler drained a batch: a shared group-commit one, or
    /// a store's private one (under `Always` and `EveryN` every
    /// threshold-triggered fsync is a drain of that one store).
    GroupDrain = 16 {
        /// Dirty stores visited.
        stores: u64,
        /// Records made durable.
        records: u64,
        /// Physical fsyncs issued.
        fsyncs: u64,
    },
    /// The storage engine rotated to a fresh checkpoint generation.
    Checkpoint = 17 {
        /// Interned store name.
        store: u32,
        /// The new generation number.
        generation: u64,
    },
    /// A node parked messages behind the rejoin barrier: retransmission
    /// toward a peer exhausted its budget on traffic that must survive
    /// the peer's crash, so the traffic is held for its next incarnation.
    BarrierHold = 18 {
        /// The holding node (peer id).
        peer: u64,
        /// The presumed-crashed peer the traffic is held for (peer id).
        toward: u64,
        /// Messages parked by this event.
        held: u64,
    },
    /// A node lifted the rejoin barrier: the barred peer was heard from
    /// again and the parked messages were re-sent in order.
    BarrierRelease = 19 {
        /// The releasing node (peer id).
        peer: u64,
        /// The peer that came back (peer id).
        toward: u64,
        /// Messages released by this event.
        released: u64,
    },
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

    /// A new table row without a case here fails, and so does a row out
    /// of tag order: row i has tag i.
    #[test]
    fn one_of_each_covers_every_row_in_tag_order() {
        let cases = one_of_each();
        let kinds: Vec<&str> = cases.iter().map(TraceEvent::kind).collect();
        assert_eq!(kinds, TraceEvent::KINDS);
        for (i, ev) in cases.iter().enumerate() {
            let mut out = Vec::new();
            put_event(&mut out, ev);
            assert_eq!(usize::from(out[0]), i, "{} has tag {}", ev.kind(), out[0]);
        }
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
