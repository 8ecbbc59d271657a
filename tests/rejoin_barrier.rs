//! Committed rejoin-barrier postmortem: a `.trc` flight recording of the
//! window-(a) schedule, pinned **semantically**.
//!
//! `tests/fixtures/rejoin_barrier.trc` is a real capture of
//! [`build_capture`]: a chain-4 network under `GroupCommit` loses node 1
//! mid-update while node 0's data toward it is in flight, and the
//! restart keeps only what the group commit made durable
//! (`lose_unsynced_tail` chops the WAL back to the durable watermark).
//! The survivor traffic toward the victim exhausts retransmission and
//! parks behind the rejoin barrier; the restart's announcement releases
//! it, and node 0 pushes a `RejoinRepair` that lands node 0's records at
//! the victim **at the handshake** — the schedule has no follow-up update
//! round, so convergence can come from nowhere else.
//!
//! Unlike `golden.trc` this fixture cannot be byte-pinned — `Fsync`
//! durations are measured wall-clock — so the test decodes the committed
//! bytes and asserts the *story*: hold strictly before release, release
//! only after the victim's new incarnation announces itself, repair data
//! applied at the victim after the release, and a clean (untorn) tail.
//! Regenerate (after an intentional protocol or schedule change) with:
//!
//! ```sh
//! cargo test --test rejoin_barrier -- --ignored regenerate
//! ```

use codb::prelude::*;
use codb::store::{ScratchDir, SyncPolicy};
use codb::trace::{read_trace, TraceEvent, Tracer};
use codb::workload::{
    run_fault_plan_traced, Fault, FaultKind, FaultPlan, Round, Scenario, Topology,
};
use std::path::{Path, PathBuf};

/// The crashing node. On the chain `0 -> 1 -> 2 -> 3` node 1 both
/// receives repairable data (node 0's link targets it) and forwards
/// records downstream — the window-(a) shape.
const VICTIM: u64 = 1;

fn fixture_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/rejoin_barrier.trc")
}

/// The pinned window-(a) schedule (mirrors the fixed-seed regression in
/// `codb-workload`): one round, sink-initiated, node 1 killed at event 6.
/// The request has reached node 0 (event 5), and node 0's data toward the
/// victim — one message that also closes the held link — is in flight;
/// a kill after its delivery (event 7 on) parks nothing. So the data
/// exhausts its retransmissions, parks behind the barrier, and the
/// victim's announcement releases it beside node 0's repair.
fn window_a_plan() -> FaultPlan {
    let s = Scenario { tuples_per_node: 12, ..Scenario::quick(Topology::Chain(4)) };
    FaultPlan {
        scenario: s,
        seed: 5,
        loss: 0.0,
        sync: SyncPolicy::GroupCommit { max_batch: 4, max_records: 32 },
        lose_unsynced_tail: true,
        rounds: vec![Round {
            initiator: s.sink(),
            faults: vec![Fault { at_event: 6, node: NodeId(VICTIM), kind: FaultKind::Crash }],
        }],
    }
}

/// Runs the schedule with a flight recorder on `path` and sanity-checks
/// the report before the capture is worth committing.
fn build_capture(path: &Path) {
    let tmp = ScratchDir::new("rejoin-barrier-capture");
    let (tracer, recorder) = Tracer::to_file(path).expect("capture path is writable");
    let report =
        run_fault_plan_traced(&window_a_plan(), tmp.path(), &tracer).expect("scratch store i/o");
    tracer.flush().expect("trace flushes");
    drop(tracer);
    drop(recorder);
    assert!(report.barrier_parked > 0, "capture must park survivor traffic: {report:?}");
    assert!(report.barrier_released > 0, "capture must release at the handshake: {report:?}");
    assert!(report.repair_messages > 0, "capture must push a repair: {report:?}");
    assert!(report.acked_records_preserved, "{report:?}");
    assert!(report.converged, "repair at release must reconverge the network: {report:?}");
}

/// The committed capture tells the window-(a) story in order.
#[test]
fn committed_capture_holds_releases_and_repairs_in_order() {
    let bytes = std::fs::read(fixture_path())
        .expect("fixture missing — run the ignored `regenerate` test once");
    let trace = read_trace(&bytes).unwrap();
    assert!(!trace.torn, "committed capture must end on a sealed block (clean tail)");

    let position =
        |pred: &dyn Fn(&TraceEvent) -> bool| trace.events.iter().position(|(_, ev)| pred(ev));

    let hold = position(&|ev| {
        matches!(ev, TraceEvent::BarrierHold { toward, held, .. } if *toward == VICTIM && *held > 0)
    })
    .expect("a survivor parks traffic for the victim");
    let announce =
        position(&|ev| matches!(ev, TraceEvent::RejoinAnnounce { peer, .. } if *peer == VICTIM))
            .expect("the victim's new incarnation announces itself");
    let release = position(&|ev| {
        matches!(ev, TraceEvent::BarrierRelease { toward, released, .. }
            if *toward == VICTIM && *released > 0)
    })
    .expect("the parked traffic is released");
    let repair_applied = trace.events.iter().skip(release).any(
        |(_, ev)| matches!(ev, TraceEvent::UpdateApply { peer, tuples, .. } if *peer == VICTIM && *tuples > 0),
    );

    assert!(hold < release, "traffic parks while the victim is down, not after");
    assert!(
        announce < release,
        "release is triggered by hearing the peer again, never spontaneously"
    );
    assert!(repair_applied, "node 0's records land at the victim after the barrier lifts");
}

/// The schedule still tells the story today: a fresh capture parks,
/// releases, repairs and converges (`build_capture`'s checks), so a
/// protocol change that moves the kill point fails here, not only when
/// the fixture is next regenerated.
#[test]
fn a_fresh_capture_still_parks_and_repairs() {
    let scratch = ScratchDir::new("rejoin-barrier-fresh");
    build_capture(&scratch.path().join("fresh.trc"));
}

/// Rewrites the committed capture. Run explicitly after an *intentional*
/// protocol or schedule change:
/// `cargo test --test rejoin_barrier -- --ignored regenerate`
#[test]
#[ignore = "rewrites the committed rejoin-barrier capture"]
fn regenerate() {
    let path = fixture_path();
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    build_capture(&path);
    println!("rewrote {}", path.display());
}
