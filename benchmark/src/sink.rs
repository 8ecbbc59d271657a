//! A counting `TraceSink`: what the repo's own `Tracer` emits, summed by
//! kind, with the byte and nanosecond fields the layer metrics need. The
//! first events are also kept verbatim so the cost of recording them can be
//! replayed after the run.

use codb_trace::{TraceEvent, TraceSink, Tracer};
use std::sync::{Arc, Mutex};

/// Events kept verbatim for the `trace.*` replay.
const KEPT_EVENTS: usize = 200_000;

/// Running sums over every event recorded. Copyable, so the harness can
/// take the difference across one operation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Totals {
    /// All events.
    pub events: u64,
    /// Σ `NetSend.bytes`.
    pub net_send_bytes: u64,
    /// `NetTimer` events.
    pub net_timers: u64,
    /// `WalAppend` events.
    pub wal_appends: u64,
    /// Σ `WalAppend.bytes`.
    pub wal_bytes: u64,
    /// `Fsync` events.
    pub fsyncs: u64,
    /// Σ `Fsync.nanos`.
    pub fsync_nanos: u64,
    /// `GroupDrain` events.
    pub group_drains: u64,
}

impl Totals {
    /// Field-wise `self - earlier` (counters are monotone).
    pub fn since(&self, earlier: &Totals) -> Totals {
        Totals {
            events: self.events - earlier.events,
            net_send_bytes: self.net_send_bytes - earlier.net_send_bytes,
            net_timers: self.net_timers - earlier.net_timers,
            wal_appends: self.wal_appends - earlier.wal_appends,
            wal_bytes: self.wal_bytes - earlier.wal_bytes,
            fsyncs: self.fsyncs - earlier.fsyncs,
            fsync_nanos: self.fsync_nanos - earlier.fsync_nanos,
            group_drains: self.group_drains - earlier.group_drains,
        }
    }
}

/// The sink: sums plus the first events verbatim.
#[derive(Debug, Default)]
pub struct CountingSink {
    totals: Totals,
    kept: Vec<(u64, TraceEvent)>,
}

/// A tracer and a handle for reading what it recorded.
#[derive(Clone)]
pub struct Counting {
    /// The tracer to attach to networks, nodes and fsync schedulers.
    pub tracer: Tracer,
    sink: Arc<Mutex<CountingSink>>,
}

impl Counting {
    /// A tracer feeding a fresh counting sink.
    pub fn new() -> Self {
        let sink = Arc::new(Mutex::new(CountingSink::default()));
        Counting { tracer: Tracer::new(sink.clone()), sink }
    }

    /// The sums so far.
    pub fn totals(&self) -> Totals {
        self.sink.lock().expect("counting sink never panics while locked").totals
    }

    /// The events kept verbatim.
    pub fn kept(&self) -> Vec<(u64, TraceEvent)> {
        self.sink.lock().expect("counting sink never panics while locked").kept.clone()
    }
}

impl TraceSink for CountingSink {
    fn record(&mut self, at: u64, ev: &TraceEvent) {
        let t = &mut self.totals;
        t.events += 1;
        match ev {
            TraceEvent::NetSend { bytes, .. } => t.net_send_bytes += bytes,
            TraceEvent::NetTimer { .. } => t.net_timers += 1,
            TraceEvent::WalAppend { bytes, .. } => {
                t.wal_appends += 1;
                t.wal_bytes += bytes;
            }
            TraceEvent::Fsync { nanos, .. } => {
                t.fsyncs += 1;
                t.fsync_nanos += nanos;
            }
            TraceEvent::GroupDrain { .. } => t.group_drains += 1,
            _ => {}
        }
        if self.kept.len() < KEPT_EVENTS {
            self.kept.push((at, ev.clone()));
        }
    }
}
