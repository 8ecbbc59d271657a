//! Flight-recorder overhead measurement on the E19 flood substrate.
//!
//! Three configurations of an e19-quick-sized run (10k-node scale-free
//! flood — the worst case for the recorder, since the flood peers do
//! almost no work per simulator event):
//!
//! * **disabled** — `Tracer::disabled()`, one branch per emission site;
//! * **no-op sink** — enabled tracer wired to [`NoopSink`]: every event
//!   pays the emission plumbing (clock stamp, sink lock, dispatch) and
//!   is then discarded;
//! * **file recorder** — full binary recording of every send/deliver.
//!
//! The acceptance bar is ≤15% host time for the file recorder over the
//! no-op sink: actually *encoding and writing* the trace must cost
//! little beyond the fixed emission plumbing. Wall-clock ratios are too
//! noisy for a CI gate, so the measurement is `#[ignore]`d; run it by
//! hand (release mode, or debug-assertion constants dominate):
//!
//! ```sh
//! cargo test --release -p codb-workload --test trace_overhead -- --ignored --nocapture
//! ```

use codb_net::{PipeConfig, Tracer};
use codb_trace::NoopSink;
use codb_workload::{run_flood, run_flood_traced, Topology};
use std::sync::{Arc, Mutex};

const NODES: usize = 10_000;
const WAVES: u32 = 4;
const REPS: usize = 7;

fn topology() -> Topology {
    Topology::ScaleFree { n: NODES, m: 2, seed: 7 }
}

/// Best-of-N host milliseconds for the flood body under `f` (best-of
/// suppresses scheduler noise better than the mean on short runs).
fn best_ms(mut f: impl FnMut() -> f64) -> f64 {
    (0..REPS).map(|_| f()).fold(f64::INFINITY, f64::min)
}

#[test]
#[ignore = "wall-clock measurement; run by hand in release mode"]
fn file_recorder_overhead_within_budget() {
    let dir = std::env::temp_dir().join(format!("codb-trace-overhead-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    // Warm-up run so allocator and page-cache effects hit every side.
    run_flood(&topology(), PipeConfig::lan(), None, WAVES, 0xE19);

    let off = best_ms(|| run_flood(&topology(), PipeConfig::lan(), None, WAVES, 0xE19).host_ms);
    let noop = best_ms(|| {
        let tracer = Tracer::new(Arc::new(Mutex::new(NoopSink)));
        run_flood_traced(&topology(), PipeConfig::lan(), None, WAVES, 0xE19, false, &tracer).host_ms
    });
    let mut run = 0u32;
    let file = best_ms(|| {
        run += 1;
        let path = dir.join(format!("overhead-{run}.trc"));
        let (tracer, _rec) = Tracer::to_file(&path).unwrap();
        run_flood_traced(&topology(), PipeConfig::lan(), None, WAVES, 0xE19, false, &tracer).host_ms
    });
    let _ = std::fs::remove_dir_all(&dir);

    let vs_noop = (file - noop) / noop * 100.0;
    let vs_off = (file - off) / off * 100.0;
    println!(
        "disabled: {off:.2}ms  no-op sink: {noop:.2}ms  file recorder: {file:.2}ms\n\
         file vs no-op sink: {vs_noop:+.1}% (budget +15%)  file vs disabled: {vs_off:+.1}%"
    );
    assert!(vs_noop <= 15.0, "recording overhead {vs_noop:+.1}% over no-op sink exceeds 15%");
}
