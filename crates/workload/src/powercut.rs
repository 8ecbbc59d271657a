//! The power-cut fault, once: what a store had acked durable the instant
//! before its host died, the loss of everything past that point, and the
//! verdict that recovery brought every acked record back. Shared by the
//! simulator fault runner ([`crate::faultplan`]) and the worker-pool
//! harness ([`crate::parallel`]).

use codb_store::{RecoveryStats, Store};
use rand::rngs::SmallRng;
use rand::Rng;
use std::path::PathBuf;

/// A store's durable (fsync-covered, therefore *acked*) WAL watermark.
pub(crate) struct AckedWatermark {
    generation: u64,
    /// Records below the watermark — the ones recovery owes back.
    pub(crate) durable_frames: u64,
    durable_len: u64,
    wal_path: PathBuf,
}

impl AckedWatermark {
    /// Captures `store`'s watermark. Take it right before the crash: later
    /// fsyncs would move it.
    pub(crate) fn capture(store: &Store) -> Self {
        AckedWatermark {
            generation: store.generation(),
            durable_frames: store.durable_wal_records(),
            durable_len: store.durable_wal_len(),
            wal_path: store.wal_path().to_owned(),
        }
    }

    /// Chops the WAL to a seeded point at or past the watermark — the
    /// unsynced tail a power cut takes with it (the cut may land
    /// mid-frame; recovery truncates the torn remainder). Call once the
    /// store handle is gone.
    ///
    /// # Panics
    ///
    /// Panics if the WAL cannot be read or truncated. The fault must
    /// actually be injected: a silently skipped chop would let the
    /// no-acked-loss verdict pass without ever exercising the lost tail
    /// it exists to prove.
    pub(crate) fn cut_power(&self, rng: &mut SmallRng) {
        let len = std::fs::metadata(&self.wal_path).expect("crashed store's WAL exists").len();
        let unsynced = len.saturating_sub(self.durable_len);
        let cut = self.durable_len + rng.gen_range(0..unsynced + 1);
        if cut < len {
            std::fs::OpenOptions::new()
                .write(true)
                .open(&self.wal_path)
                .expect("reopening the crashed WAL for truncation")
                .set_len(cut)
                .expect("truncating the crashed WAL");
        }
    }

    /// The no-acked-loss verdict: recovery started from the same
    /// generation and replayed at least every record that was acked when
    /// the crash hit — the chopped tail held only never-acked records.
    pub(crate) fn survived(&self, recovery: &RecoveryStats) -> bool {
        recovery.generation == self.generation
            && recovery.wal_records_replayed >= self.durable_frames
    }
}
