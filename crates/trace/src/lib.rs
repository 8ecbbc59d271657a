//! coDB flight recorder: a low-overhead binary trace of what a run
//! actually did.
//!
//! A million-message simulator run used to be a black box — a failing
//! seeded faultplan or a slow E19 sweep could only be diagnosed by
//! re-running under ad-hoc prints. This crate is the instrument: every
//! layer of the stack emits typed [`TraceEvent`]s through one shared
//! [`Tracer`] handle into a pluggable [`TraceSink`], and the read side
//! turns the recorded stream back into a postmortem — a human-readable
//! dump, a summary with per-phase time attribution, per-peer traffic
//! and an fsync-latency histogram ([`Summary`]), or the difference
//! between two captures ([`TraceDiff`]).
//!
//! ## Wire format
//!
//! A trace file is the 8-byte magic [`TRACE_MAGIC`] (`CODBTRC1` — the
//! trailing byte is the format version) followed by blocks, each one
//! [`codb_relational::frame`] — the same CRC-32 frame the WAL and
//! snapshots use. Each
//! block's payload is one absolute base timestamp followed by events,
//! each a ZigZag timestamp *delta* plus a tag byte plus LEB128 varint
//! fields (the primitives of [`codb_relational::binenc`]) — a hot-path
//! event is a handful of bytes. Strings are interned in-stream
//! ([`TraceEvent::Intern`]), so the trace is self-describing.
//!
//! The reader treats a torn final block as a **clean end-of-trace**: a
//! crash mid-run still yields a readable prefix, which is the whole
//! point of a flight recorder. Anything else — a flipped bit, an unknown
//! tag, trailing garbage — is a typed [`TraceError`], never a panic.
//!
//! ## The off state costs one branch
//!
//! [`Tracer::disabled`] carries no sink at all; every emission site
//! compiles down to one `Option` discriminant test. Recording is opt-in
//! per run: attach a [`RingRecorder`] (bounded memory, last-N events)
//! for always-on crash forensics, or a [`FileRecorder`] (streaming,
//! CRC-framed) for full-run profiling.

pub mod diff;
pub mod event;
pub mod inspect;
pub mod reader;
pub mod sink;
pub mod tracer;

pub use diff::TraceDiff;
pub use event::TraceEvent;
pub use inspect::{fmt_nanos, FsyncHistogram, PeerTraffic, PhaseSummary, Summary};
pub use reader::{dump, read_trace, read_trace_file, render_event, TraceError, TraceFile};
pub use sink::{FileRecorder, RingRecorder, TraceSink};
pub use tracer::{host_nanos, Tracer};

/// Magic prefix of every trace file; the eighth byte is the format
/// version.
pub const TRACE_MAGIC: [u8; 8] = *b"CODBTRC1";

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    #[test]
    fn disabled_tracer_records_nothing_and_interns_zero() {
        let t = Tracer::disabled();
        assert!(!t.is_enabled());
        assert_eq!(t.intern("anything"), 0);
        t.set_clock(99);
        assert_eq!(t.clock(), 0);
        t.emit(TraceEvent::NetTimer { peer: 1, timer: 2 });
        t.emit_with(|| unreachable!("closure must not run when disabled"));
        t.flush().unwrap();
    }

    #[test]
    fn ring_round_trips_through_bytes() {
        let (t, ring) = Tracer::ring(64);
        t.set_clock(100);
        let rule = t.intern("r1");
        t.emit(TraceEvent::UpdateApply { peer: 4, rule, tuples: 9 });
        t.set_clock(250);
        t.emit(TraceEvent::NetSend { from: 4, to: 5, bytes: 32 });
        let bytes = ring.lock().unwrap().to_bytes();
        let trace = read_trace(&bytes).unwrap();
        assert!(!trace.torn);
        assert_eq!(
            trace.events,
            vec![
                (100, TraceEvent::Intern { id: 1, text: "r1".into() }),
                (100, TraceEvent::UpdateApply { peer: 4, rule: 1, tuples: 9 }),
                (250, TraceEvent::NetSend { from: 4, to: 5, bytes: 32 }),
            ]
        );
    }

    #[test]
    fn ring_evicts_events_but_never_interns() {
        let (t, ring) = Tracer::ring(2);
        let name = t.intern("kept");
        for i in 0..10 {
            t.set_clock(i);
            t.emit(TraceEvent::NetTimer { peer: i, timer: 0 });
        }
        let r = ring.lock().unwrap();
        assert_eq!(r.evicted(), 8);
        let events = r.events();
        assert_eq!(events.len(), 3); // 1 intern + last 2
        assert_eq!(events[0].1, TraceEvent::Intern { id: name, text: "kept".into() });
        assert_eq!(events[1].1, TraceEvent::NetTimer { peer: 8, timer: 0 });
    }

    #[test]
    fn file_recorder_round_trips_across_blocks() {
        let dir = std::env::temp_dir().join(format!("codb-trace-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("multi-block.trc");
        let file = Arc::new(Mutex::new(FileRecorder::with_block_bytes(&path, 32).unwrap()));
        let t = Tracer::new(file.clone());
        for i in 0..100u64 {
            t.set_clock(i * 10);
            t.emit(TraceEvent::NetSend { from: i, to: i + 1, bytes: 64 });
        }
        t.flush().unwrap();
        let trace = read_trace_file(&path).unwrap();
        assert!(!trace.torn);
        assert_eq!(trace.events.len(), 100);
        assert_eq!(trace.events[42], (420, TraceEvent::NetSend { from: 42, to: 43, bytes: 64 }));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn phase_markers_bracket_work() {
        let (t, ring) = Tracer::ring(16);
        let out = t.phase("flood", || 7);
        assert_eq!(out, 7);
        let bytes = ring.lock().unwrap().to_bytes();
        let trace = read_trace(&bytes).unwrap();
        let s = Summary::from_trace(&trace);
        assert_eq!(s.phases.len(), 1);
        assert_eq!(s.phases[0].name, "flood");
        assert!(!s.phases[0].open);
    }

    #[test]
    fn torn_tail_is_a_clean_end() {
        let (t, ring) = Tracer::ring(16);
        t.set_clock(5);
        t.emit(TraceEvent::NetTimer { peer: 1, timer: 1 });
        let mut bytes = ring.lock().unwrap().to_bytes();
        let full = read_trace(&bytes).unwrap();
        assert_eq!(full.events.len(), 1);
        bytes.truncate(bytes.len() - 1);
        let torn = read_trace(&bytes).unwrap();
        assert!(torn.torn);
        assert!(torn.events.is_empty());
    }

    #[test]
    fn empty_trace_is_valid() {
        let trace = read_trace(&TRACE_MAGIC).unwrap();
        assert!(trace.events.is_empty());
        assert!(!trace.torn);
    }

    #[test]
    fn bad_magic_is_a_typed_error() {
        assert!(matches!(read_trace(b"NOTATRCE"), Err(TraceError::BadMagic { .. })));
        assert!(matches!(read_trace(b"COD"), Err(TraceError::BadMagic { .. })));
    }
}
