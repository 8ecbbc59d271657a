//! Property tests for the trace wire format, mirroring the store's
//! `format.rs`: any event sequence round-trips through both recorders,
//! any truncation recovers a valid prefix (torn-tail semantics), and a
//! single flipped bit anywhere is a typed error — never a panic, never a
//! silent misread.

use codb_trace::{read_trace, read_trace_file, TraceError, TraceEvent, TraceSink as _};
use codb_trace::{FileRecorder, RingRecorder};
use proptest::prelude::*;

fn cases(default: u32) -> u32 {
    std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Self-cleaning scratch directory (std-only; the trace crate has no
/// store dependency to borrow `ScratchDir` from).
struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(prefix: &str) -> Self {
        let path = std::env::temp_dir().join(format!(
            "{prefix}-{}-{}",
            std::process::id(),
            std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH).unwrap().as_nanos()
        ));
        std::fs::create_dir_all(&path).unwrap();
        TempDir(path)
    }

    fn path(&self) -> &std::path::Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Every variant, driven by a tag draw so coverage does not depend on a
/// wide `prop_oneof` (the shim's tuple strategies are the reliable path).
fn arb_event() -> impl Strategy<Value = TraceEvent> {
    (0u8..20, any::<u64>(), any::<u64>(), any::<u64>(), 0u32..40).prop_map(|(tag, a, b, c, s)| {
        match tag {
            0 => TraceEvent::Intern { id: s + 1, text: format!("sym{s}") },
            1 => TraceEvent::PhaseBegin { name: s, host_nanos: a },
            2 => TraceEvent::PhaseEnd { name: s, host_nanos: a },
            3 => TraceEvent::NetSend { from: a, to: b, bytes: c },
            4 => TraceEvent::NetDeliver { from: a, to: b, bytes: c },
            5 => TraceEvent::NetDrop { from: a, to: b, bytes: c },
            6 => TraceEvent::NetTimer { peer: a, timer: b },
            7 => TraceEvent::UpdateApply { peer: a, rule: s, tuples: c },
            8 => TraceEvent::RuleFire { peer: a, link: b, firings: c },
            9 => TraceEvent::DsAck { peer: a, to: b, credits: c },
            10 => TraceEvent::DsCredit { peer: a, credits: b, deficit: c },
            11 => TraceEvent::RejoinAnnounce { peer: a, epoch: b },
            12 => TraceEvent::RejoinRecv { peer: a, from: b, invalidated: c },
            13 => TraceEvent::RejoinAck { peer: a, from: b, pending: c },
            14 => TraceEvent::WalAppend { store: s, bytes: c },
            15 => TraceEvent::Fsync { store: s, nanos: c },
            16 => TraceEvent::GroupDrain { stores: a, records: b, fsyncs: c },
            17 => TraceEvent::Checkpoint { store: s, generation: b },
            18 => TraceEvent::BarrierHold { peer: a, toward: b, held: c },
            _ => TraceEvent::BarrierRelease { peer: a, toward: b, released: c },
        }
    })
}

/// An event with a trace-clock timestamp. Timestamps are arbitrary u64s
/// on purpose: the delta encoding must survive any jump, forward or
/// (wrapping) backward.
fn arb_stamped() -> impl Strategy<Value = (u64, TraceEvent)> {
    (any::<u64>(), arb_event())
}

/// Writes `events` through a small-block [`FileRecorder`] and returns the
/// file's bytes (multiple sealed blocks for any non-trivial sequence).
fn file_bytes(dir: &TempDir, events: &[(u64, TraceEvent)], block_bytes: usize) -> Vec<u8> {
    let path = dir.path().join("t.trc");
    let mut rec = FileRecorder::with_block_bytes(&path, block_bytes).unwrap();
    for (at, ev) in events {
        rec.record(*at, ev);
    }
    rec.flush().unwrap();
    drop(rec);
    std::fs::read(&path).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: cases(48), ..ProptestConfig::default() })]

    /// Any stamped event sequence round-trips through the file recorder
    /// exactly, across block boundaries.
    #[test]
    fn file_recorder_round_trips(
        events in proptest::collection::vec(arb_stamped(), 0..40),
        block in 16usize..128,
    ) {
        let dir = TempDir::new("trace-prop-file");
        let path = dir.path().join("rt.trc");
        let mut rec = FileRecorder::with_block_bytes(&path, block).unwrap();
        for (at, ev) in &events {
            rec.record(*at, ev);
        }
        rec.flush().unwrap();
        drop(rec);
        let trace = read_trace_file(&path).unwrap();
        prop_assert!(!trace.torn);
        prop_assert_eq!(trace.events, events);
    }

    /// The ring recorder round-trips through its byte form; interns are
    /// pulled to the front (they are never evicted), everything else
    /// keeps stream order.
    #[test]
    fn ring_recorder_round_trips(
        events in proptest::collection::vec(arb_stamped(), 0..40),
    ) {
        let mut ring = RingRecorder::new(events.len() + 1);
        for (at, ev) in &events {
            ring.record(*at, ev);
        }
        let trace = read_trace(&ring.to_bytes()).unwrap();
        prop_assert!(!trace.torn);
        let mut expected: Vec<(u64, TraceEvent)> = events
            .iter()
            .filter(|(_, e)| matches!(e, TraceEvent::Intern { .. }))
            .cloned()
            .collect();
        expected.extend(
            events.iter().filter(|(_, e)| !matches!(e, TraceEvent::Intern { .. })).cloned(),
        );
        prop_assert_eq!(trace.events, expected);
    }

    /// Truncating a trace file at any point after the magic still reads:
    /// the surviving events are a prefix (whole blocks only), and a
    /// mid-block cut is flagged as torn — crash semantics, not an error.
    #[test]
    fn any_truncation_recovers_a_prefix(
        events in proptest::collection::vec(arb_stamped(), 1..30),
        cut_fraction in 0.0f64..1.0,
        block in 16usize..96,
    ) {
        let dir = TempDir::new("trace-prop-cut");
        let bytes = file_bytes(&dir, &events, block);
        // Keep at least the magic; cut anywhere after it.
        let keep = 8 + ((bytes.len() - 8) as f64 * cut_fraction) as usize;
        let trace = read_trace(&bytes[..keep]).unwrap();
        prop_assert!(trace.events.len() <= events.len());
        prop_assert_eq!(
            &events[..trace.events.len()],
            &trace.events[..],
            "survivors must be a prefix"
        );
        if keep == bytes.len() {
            prop_assert!(!trace.torn);
            prop_assert_eq!(trace.events.len(), events.len());
        } else if !trace.torn {
            // A cut exactly on a block boundary loses whole blocks only.
            prop_assert!(trace.events.len() <= events.len());
        }
    }

    /// A single flipped bit anywhere in a trace file is a typed error —
    /// damaged magic or a corrupt block (the `!len` complement stops a
    /// flipped length from masquerading as a torn tail) — never a panic
    /// and never silently accepted.
    #[test]
    fn any_bit_flip_is_a_typed_error(
        events in proptest::collection::vec(arb_stamped(), 1..20),
        pos_fraction in 0.0f64..1.0,
        bit in 0u8..8,
        block in 16usize..96,
    ) {
        let dir = TempDir::new("trace-prop-flip");
        let mut bytes = file_bytes(&dir, &events, block);
        let pos = ((bytes.len() as f64 * pos_fraction) as usize).min(bytes.len() - 1);
        bytes[pos] ^= 1 << bit;
        match read_trace(&bytes) {
            Err(TraceError::BadMagic { .. }) | Err(TraceError::Corrupt { .. }) => {}
            Ok(trace) => {
                return Err(TestCaseError::fail(format!(
                    "flip at byte {pos} bit {bit} passed unnoticed: {} events, torn={}",
                    trace.events.len(),
                    trace.torn
                )));
            }
            Err(other) => return Err(TestCaseError::fail(format!("unexpected error: {other}"))),
        }
    }

    /// The reader survives arbitrary bytes: junk is a typed error (or a
    /// valid tiny trace), never a panic.
    #[test]
    fn arbitrary_bytes_never_panic_the_reader(
        bytes in proptest::collection::vec(any::<u8>(), 0..96),
    ) {
        let _ = read_trace(&bytes);
    }
}

/// The committed fixtures under the workspace's `tests/fixtures`.
fn fixture(name: &str) -> Vec<u8> {
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures").join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Every frame of a committed capture re-encodes to its own bytes: its
/// events, recorded into a fresh [`FileRecorder`] whose block holds the
/// whole frame, come back as the same header and payload.
#[test]
fn committed_frames_re_encode_byte_for_byte() {
    use codb_relational::frame::{FrameScanner, FrameStep};
    for name in ["golden.trc", "rejoin_barrier.trc"] {
        let bytes = fixture(name);
        let (magic, body) = bytes.split_at(codb_trace::TRACE_MAGIC.len());
        assert_eq!(magic, codb_trace::TRACE_MAGIC, "{name}");
        let dir = TempDir::new("trace-reencode");
        let mut scanner = FrameScanner::new(body);
        let mut frames = 0;
        loop {
            let start = scanner.offset();
            let payload = match scanner.next_frame() {
                FrameStep::Frame(payload) => payload,
                FrameStep::End => break,
                other => panic!("{name}: frame at byte {start} does not scan: {other:?}"),
            };
            let framed = [magic, &body[start..scanner.offset()]].concat();
            let events = read_trace(&framed).unwrap().events;
            let path = dir.path().join("frame.trc");
            let mut rec = FileRecorder::with_block_bytes(&path, payload.len() + 1).unwrap();
            for (at, ev) in &events {
                rec.record(*at, ev);
            }
            rec.flush().unwrap();
            drop(rec);
            assert_eq!(std::fs::read(&path).unwrap(), framed, "{name}: frame {frames} re-encodes");
            frames += 1;
        }
        assert!(frames > 0, "{name} holds a frame");
    }
}

/// One event of each kind, at fixed timestamps (one step backward, so a
/// negative delta is on the pinned path).
fn one_of_each_stamped() -> Vec<(u64, TraceEvent)> {
    vec![
        (100, TraceEvent::Intern { id: 1, text: "flood".to_owned() }),
        (100, TraceEvent::PhaseBegin { name: 1, host_nanos: 12 }),
        (250, TraceEvent::PhaseEnd { name: 1, host_nanos: 999 }),
        (250, TraceEvent::NetSend { from: 0, to: 1, bytes: 64 }),
        (300, TraceEvent::NetDeliver { from: 0, to: 1, bytes: 64 }),
        (299, TraceEvent::NetDrop { from: 1, to: 0, bytes: 48 }),
        (1_000_000, TraceEvent::NetTimer { peer: 3, timer: 1 }),
        (1_000_001, TraceEvent::UpdateApply { peer: 2, rule: 1, tuples: 17 }),
        (1_000_002, TraceEvent::RuleFire { peer: 2, link: 3, firings: 5 }),
        (1_000_003, TraceEvent::DsAck { peer: 3, to: 2, credits: 4 }),
        (1_000_004, TraceEvent::DsCredit { peer: 2, credits: 4, deficit: 0 }),
        (2_000_000, TraceEvent::RejoinAnnounce { peer: 5, epoch: 2 }),
        (2_000_000, TraceEvent::RejoinRecv { peer: 4, from: 5, invalidated: 3 }),
        (2_000_100, TraceEvent::RejoinAck { peer: 5, from: 4, pending: 1 }),
        (3_000_000, TraceEvent::WalAppend { store: 1, bytes: 130 }),
        (3_000_000, TraceEvent::Fsync { store: 1, nanos: 48_000 }),
        (3_000_000, TraceEvent::GroupDrain { stores: 4, records: 256, fsyncs: 4 }),
        (3_500_000, TraceEvent::Checkpoint { store: 1, generation: 2 }),
        (4_000_000, TraceEvent::BarrierHold { peer: 4, toward: 5, held: 3 }),
        (u64::MAX, TraceEvent::BarrierRelease { peer: 4, toward: 5, released: 3 }),
    ]
}

/// The ring's byte form of one event of each kind, pinned: every tag,
/// every field's primitive, the delta scheme and the frame.
#[test]
fn ring_bytes_of_one_of_each_are_pinned() {
    let mut ring = RingRecorder::new(32);
    for (at, ev) in one_of_each_stamped() {
        ring.record(at, &ev);
    }
    let hex: String = ring.to_bytes().iter().map(|b| format!("{b:02x}")).collect();
    assert_eq!(
        hex,
        concat!(
            "434f4442545243317600000089ffffff640008c96400000105666c6f6f640001",
            "010cac020201e707000300014064040001400105010030aa847a060301020702",
            "011102080203050209030204020a020400f8887a0b0502000c040503c8010d05",
            "0401b8877a0e018201000f0180f702001004800204c0843d110102c0843d1204",
            "050381a4e80313040503",
        )
    );
}
