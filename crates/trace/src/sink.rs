//! Where recorded events go: the [`TraceSink`] trait and its two
//! implementations — keep the last N in memory ([`RingRecorder`]), stream
//! to disk ([`FileRecorder`]).

use crate::event::{put_event, TraceEvent};
use crate::TRACE_MAGIC;
use codb_relational::binenc::put_i64;
use codb_relational::binenc::put_u64;
use codb_relational::frame::{encode_frame, frame_header, Crc32};
use std::collections::VecDeque;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

/// Byte threshold at which [`FileRecorder`] seals the open block. Small
/// enough that a crash loses at most a sliver of recent events and the
/// resident buffer stays cache-friendly next to a hot simulator loop,
/// large enough that the 12-byte block header is noise.
pub const DEFAULT_BLOCK_BYTES: usize = 16 * 1024;

/// A destination for recorded events.
///
/// Implementations receive every event *with* its already-stamped
/// timestamp; they decide retention (ring) or encoding (file). The
/// [`crate::Tracer`] in front of a sink is what makes the
/// disabled path free — a disabled tracer never calls its sink.
pub trait TraceSink: Send {
    /// Records one event stamped at `at` (trace-clock nanoseconds).
    fn record(&mut self, at: u64, ev: &TraceEvent);

    /// Flushes any buffered state (a file recorder seals and writes its
    /// open block). The default is a no-op.
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Bounded in-memory recorder: keeps the **last** `capacity` events.
///
/// [`TraceEvent::Intern`] bindings are stored in a separate, never
/// evicted list — eviction of old events must not orphan the string ids
/// the survivors reference.
#[derive(Debug)]
pub struct RingRecorder {
    capacity: usize,
    events: VecDeque<(u64, TraceEvent)>,
    interns: Vec<(u64, TraceEvent)>,
    evicted: u64,
}

impl RingRecorder {
    /// A ring keeping the last `capacity` non-intern events.
    pub fn new(capacity: usize) -> Self {
        RingRecorder {
            capacity: capacity.max(1),
            events: VecDeque::new(),
            interns: Vec::new(),
            evicted: 0,
        }
    }

    /// The retained events: every intern binding first, then the last-N
    /// window in arrival order.
    pub fn events(&self) -> Vec<(u64, TraceEvent)> {
        self.interns.iter().chain(self.events.iter()).cloned().collect()
    }

    /// How many events fell out of the window.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Serialises the retained window as a complete trace (magic +
    /// blocks), as [`crate::read_trace`] expects.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = TRACE_MAGIC.to_vec();
        let mut payload = Vec::new();
        let mut prev = 0u64;
        let mut first = true;
        for (at, ev) in self.interns.iter().chain(self.events.iter()) {
            if first {
                put_u64(&mut payload, *at);
                prev = *at;
                first = false;
            }
            // Wrapping delta: the reader reconstructs with wrapping_add,
            // so any timestamp jump (even > i64::MAX) survives.
            put_i64(&mut payload, at.wrapping_sub(prev) as i64);
            prev = *at;
            put_event(&mut payload, ev);
        }
        if !payload.is_empty() {
            encode_frame(&payload, &mut out);
        }
        out
    }
}

impl TraceSink for RingRecorder {
    fn record(&mut self, at: u64, ev: &TraceEvent) {
        if matches!(ev, TraceEvent::Intern { .. }) {
            self.interns.push((at, ev.clone()));
            return;
        }
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.evicted += 1;
        }
        self.events.push_back((at, ev.clone()));
    }
}

/// Streams events to a file as CRC-framed blocks.
///
/// The magic header is written at creation; events accumulate in an open
/// block that is sealed (framed, CRC'd, written) every
/// [`DEFAULT_BLOCK_BYTES`] or on [`TraceSink::flush`]. A crash mid-run
/// therefore costs at most the open block — everything sealed before it
/// reads back cleanly, and the torn remainder is a clean end-of-trace to
/// the reader. Each block's first timestamp is absolute (later ones are
/// ZigZag deltas), so a lost block never breaks the decode of its
/// successors' times.
#[derive(Debug)]
pub struct FileRecorder {
    out: BufWriter<File>,
    block: Vec<u8>,
    /// Running checksum of `block`, folded in as events are appended (the
    /// fresh bytes are still in cache) so sealing never re-reads the
    /// buffer.
    crc: Crc32,
    block_bytes: usize,
    prev_at: u64,
    recorded: u64,
}

impl FileRecorder {
    /// Creates (truncates) `path` and writes the magic header.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        Self::with_block_bytes(path, DEFAULT_BLOCK_BYTES)
    }

    /// [`FileRecorder::create`] with a custom block-seal threshold
    /// (tests use tiny blocks to pin the multi-block layout).
    pub fn with_block_bytes(path: impl AsRef<Path>, block_bytes: usize) -> std::io::Result<Self> {
        let mut out = BufWriter::new(File::create(path)?);
        out.write_all(&TRACE_MAGIC)?;
        let block_bytes = block_bytes.max(16);
        Ok(FileRecorder {
            out,
            // Headroom past the seal threshold: the event that crosses it
            // finishes encoding before the seal, so the buffer never
            // reallocates mid-record.
            block: Vec::with_capacity(block_bytes + 256),
            crc: Crc32::new(),
            block_bytes,
            prev_at: 0,
            recorded: 0,
        })
    }

    /// Events recorded so far.
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    fn seal_block(&mut self) -> std::io::Result<()> {
        if self.block.is_empty() {
            return Ok(());
        }
        // Frame written directly from the running state — the payload is
        // only read once more, sequentially, by the write below.
        self.out.write_all(&frame_header(self.block.len() as u32, self.crc.finish()))?;
        self.out.write_all(&self.block)?;
        self.block.clear();
        self.crc.reset();
        Ok(())
    }
}

impl TraceSink for FileRecorder {
    fn record(&mut self, at: u64, ev: &TraceEvent) {
        let start = self.block.len();
        if self.block.is_empty() {
            put_u64(&mut self.block, at);
            self.prev_at = at;
        }
        // Wrapping delta — mirrors the reader's wrapping_add reconstruction.
        put_i64(&mut self.block, at.wrapping_sub(self.prev_at) as i64);
        self.prev_at = at;
        put_event(&mut self.block, ev);
        self.crc.update(&self.block[start..]);
        self.recorded += 1;
        if self.block.len() >= self.block_bytes {
            // A failed seal is latched silently here (the hot path cannot
            // return errors); the final explicit flush surfaces it.
            let _ = self.seal_block();
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.seal_block()?;
        self.out.flush()
    }
}

impl Drop for FileRecorder {
    fn drop(&mut self) {
        let _ = TraceSink::flush(self);
    }
}
