//! The postmortem read side: decode a trace back into typed events.
//!
//! Written for adversarial input, like every decoder in this workspace:
//! a torn tail (crash mid-write) is a **clean end-of-trace**, a damaged
//! block or an undecodable event is a typed [`TraceError`], and nothing
//! ever panics or allocates proportionally to an unvalidated length.

use crate::event::{take_event, TraceEvent};
use crate::TRACE_MAGIC;
use codb_relational::binenc::{BinDecodeError, Reader};
use codb_relational::frame::{FrameScanner, FrameStep};
use std::collections::HashMap;
use std::fmt;
use std::path::Path;

/// A failed trace read: where and why.
#[derive(Debug)]
pub enum TraceError {
    /// The underlying file could not be read.
    Io(std::io::Error),
    /// The file does not start with [`TRACE_MAGIC`].
    BadMagic {
        /// The bytes actually found (at most 8).
        found: Vec<u8>,
    },
    /// A block failed its length check or checksum, or a checksum-valid
    /// block held bytes that do not decode as events.
    Corrupt {
        /// Byte offset within the file.
        offset: usize,
        /// What failed.
        reason: String,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace I/O error: {e}"),
            TraceError::BadMagic { found } => {
                write!(f, "not a coDB trace: magic {found:02X?} (want {TRACE_MAGIC:02X?})")
            }
            TraceError::Corrupt { offset, reason } => {
                write!(f, "corrupt trace at byte {offset}: {reason}")
            }
        }
    }
}

impl std::error::Error for TraceError {}

impl From<std::io::Error> for TraceError {
    fn from(e: std::io::Error) -> Self {
        TraceError::Io(e)
    }
}

/// A fully decoded trace.
#[derive(Debug)]
pub struct TraceFile {
    /// Every decoded event with its trace-clock timestamp, in stream
    /// order.
    pub events: Vec<(u64, TraceEvent)>,
    /// Whether the file ended in a torn (partially written) block — the
    /// signature of a crash mid-run. The decoded events are still a
    /// valid prefix.
    pub torn: bool,
}

impl TraceFile {
    /// The intern table collected from the stream's
    /// [`TraceEvent::Intern`] bindings.
    pub fn strings(&self) -> HashMap<u32, String> {
        let mut table = HashMap::new();
        for (_, ev) in &self.events {
            if let TraceEvent::Intern { id, text } = ev {
                table.insert(*id, text.clone());
            }
        }
        table
    }
}

/// Resolves an interned id against `strings`, falling back to `#id` for
/// a binding lost to ring eviction or truncation.
pub fn resolve(strings: &HashMap<u32, String>, id: u32) -> String {
    strings.get(&id).cloned().unwrap_or_else(|| format!("#{id}"))
}

fn decode_block(
    payload: &[u8],
    file_offset: usize,
    events: &mut Vec<(u64, TraceEvent)>,
) -> Result<(), TraceError> {
    let corrupt = |e: BinDecodeError| TraceError::Corrupt {
        offset: file_offset + e.offset,
        reason: format!("event decode failed: {}", e.detail),
    };
    let mut r = Reader::new(payload);
    let base = r.u64().map_err(corrupt)?;
    let mut prev = base;
    while r.remaining() > 0 {
        let dt = r.i64().map_err(corrupt)?;
        let at = prev.wrapping_add(dt as u64);
        prev = at;
        let ev = take_event(&mut r).map_err(corrupt)?;
        events.push((at, ev));
    }
    Ok(())
}

/// Decodes a complete trace from `bytes`.
pub fn read_trace(bytes: &[u8]) -> Result<TraceFile, TraceError> {
    let Some(magic) = bytes.get(..TRACE_MAGIC.len()) else {
        return Err(TraceError::BadMagic { found: bytes.to_vec() });
    };
    if magic != TRACE_MAGIC {
        return Err(TraceError::BadMagic { found: magic.to_vec() });
    }
    let body = &bytes[TRACE_MAGIC.len()..];
    let mut events = Vec::new();
    let mut torn = false;
    let mut scanner = FrameScanner::new(body);
    loop {
        let at = TRACE_MAGIC.len() + scanner.offset();
        match scanner.next_frame() {
            FrameStep::Frame(payload) => decode_block(payload, at, &mut events)?,
            FrameStep::End => break,
            FrameStep::TornTail => {
                torn = true;
                break;
            }
            FrameStep::Corrupt { offset, reason } => {
                return Err(TraceError::Corrupt { offset: TRACE_MAGIC.len() + offset, reason });
            }
        }
    }
    Ok(TraceFile { events, torn })
}

/// Reads and decodes the trace file at `path`.
pub fn read_trace_file(path: impl AsRef<Path>) -> Result<TraceFile, TraceError> {
    read_trace(&std::fs::read(path)?)
}

/// Renders one event human-readably, resolving interned names.
pub fn render_event(ev: &TraceEvent, strings: &HashMap<u32, String>) -> String {
    let s = |id: &u32| resolve(strings, *id);
    match ev {
        TraceEvent::Intern { id, text } => format!("intern #{id} = {text:?}"),
        TraceEvent::PhaseBegin { name, host_nanos } => {
            format!("phase-begin {} (host {host_nanos}ns)", s(name))
        }
        TraceEvent::PhaseEnd { name, host_nanos } => {
            format!("phase-end   {} (host {host_nanos}ns)", s(name))
        }
        TraceEvent::NetSend { from, to, bytes } => format!("send    {from} -> {to}  {bytes}B"),
        TraceEvent::NetDeliver { from, to, bytes } => format!("deliver {from} -> {to}  {bytes}B"),
        TraceEvent::NetDrop { from, to, bytes } => format!("drop    {from} -> {to}  {bytes}B"),
        TraceEvent::NetTimer { peer, timer } => format!("timer   peer {peer} token {timer}"),
        TraceEvent::UpdateApply { peer, rule, tuples } => {
            format!("apply   peer {peer} rule {} (+{tuples} tuples)", s(rule))
        }
        TraceEvent::RuleFire { peer, link, firings } => {
            format!("fire    peer {peer} -> {link}  {firings} firings")
        }
        TraceEvent::DsAck { peer, to, credits } => {
            format!("ds-ack  peer {peer} -> {to}  {credits} credits")
        }
        TraceEvent::DsCredit { peer, credits, deficit } => {
            format!("ds-credit peer {peer} +{credits} (deficit {deficit})")
        }
        TraceEvent::RejoinAnnounce { peer, epoch } => {
            format!("rejoin  peer {peer} announces epoch {epoch}")
        }
        TraceEvent::RejoinRecv { peer, from, invalidated } => {
            format!("rejoin  peer {peer} sees {from} rejoin ({invalidated} cache entries dropped)")
        }
        TraceEvent::RejoinAck { peer, from, pending } => {
            format!("rejoin  peer {peer} acked by {from} ({pending} pending)")
        }
        TraceEvent::WalAppend { store, bytes } => format!("wal     {} +{bytes}B", s(store)),
        TraceEvent::Fsync { store, nanos } => format!("fsync   {} took {nanos}ns", s(store)),
        TraceEvent::GroupDrain { stores, records, fsyncs } => {
            format!("drain   {stores} stores, {records} records, {fsyncs} fsyncs")
        }
        TraceEvent::Checkpoint { store, generation } => {
            format!("ckpt    {} -> generation {generation}", s(store))
        }
        TraceEvent::BarrierHold { peer, toward, held } => {
            format!("barrier peer {peer} holds {held} msgs for {toward}")
        }
        TraceEvent::BarrierRelease { peer, toward, released } => {
            format!("barrier peer {peer} releases {released} msgs to {toward}")
        }
    }
}

/// Renders a whole trace, one event per line, timestamps first.
pub fn dump(trace: &TraceFile) -> String {
    let strings = trace.strings();
    let mut out = String::new();
    for (at, ev) in &trace.events {
        out.push_str(&format!("{at:>15}ns  {}\n", render_event(ev, &strings)));
    }
    if trace.torn {
        out.push_str("-- torn tail: trace ends mid-block (crash during recording) --\n");
    }
    out
}
