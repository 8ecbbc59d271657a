//! Golden flight-recorder fixture: a committed `.trc` file pinned byte
//! for byte against format drift.
//!
//! `tests/fixtures/golden.trc` is produced by [`build_golden_trace`]: a
//! fixed-seed three-node cyclic-rule network runs one global update with
//! a small-block [`FileRecorder`] attached (real net/protocol events,
//! sim-time stamps, multiple sealed blocks), then a synthetic coda emits
//! every remaining [`TraceEvent`] variant with fixed values — phase
//! markers included, with pinned `host_nanos` so the bytes never depend
//! on wall time. Together the fixture covers all 20 event kinds.
//!
//! The byte-equality test is the drift tripwire: any change to the event
//! tags, varint encoding, delta-timestamp scheme, block framing or the
//! recorder's block-seal policy rewrites these bytes and fails here —
//! which is the prompt to bump the magic, not to silently reinterpret
//! old traces. So does a protocol change that moves what the run sends;
//! the failure then says which events moved (`codb-demo trace diff` is
//! the same report for two files). Regenerate (only after an
//! *intentional* change of either kind, and say so in the PR) with:
//!
//! ```sh
//! cargo test --test golden_flight -- --ignored regenerate
//! ```

use codb::prelude::*;
use codb::trace::read_trace;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Three nodes with a rule cycle (hr -> portal -> campus -> hr), so the
/// update exercises the Dijkstra–Scholten machinery alongside plain rule
/// flooding. The `A >= 18` guard breaks the data cycle and guarantees a
/// fixpoint.
const CONFIG: &str = r#"
    node hr
    node portal
    node campus
    schema hr: emp(str, int)
    schema portal: person(str, int)
    schema campus: member(str)
    data hr: emp("alice", 30). emp("bob", 17).
    rule r1 @ hr -> portal: person(N, A) <- emp(N, A), A >= 18.
    rule r2 @ portal -> campus: member(N) <- person(N, A).
    rule r3 @ campus -> hr: emp(N, 0) <- member(N).
"#;

/// Tiny block threshold so even this small fixture seals several blocks —
/// the multi-block layout (absolute base timestamp per block) is on the
/// pinned path.
const BLOCK_BYTES: usize = 256;

fn fixture_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden.trc")
}

/// Records the deterministic run + synthetic coda into `path` and returns
/// the file's bytes.
fn build_golden_trace(path: &Path) -> Vec<u8> {
    let recorder = Arc::new(Mutex::new(FileRecorder::with_block_bytes(path, BLOCK_BYTES).unwrap()));
    let tracer = Tracer::new(recorder.clone());

    // Real portion: fixed-seed update flood, stamped with sim time.
    let config = NetworkConfig::parse(CONFIG).unwrap();
    let mut net = CoDbNetwork::build(config, SimConfig::default()).unwrap();
    net.attach_tracer(&tracer);
    let portal = net.node_id("portal").unwrap();
    let outcome = net.run_update(portal);
    assert_eq!(outcome.summary.tuples_added, 3, "alice flows around the cycle");

    // Synthetic coda: every variant the run does not produce, with fixed
    // values (host_nanos pinned — wall time must not reach the bytes).
    tracer.set_clock(5_000_000_000);
    let phase = tracer.intern("golden-phase");
    let store = tracer.intern("golden-store");
    for ev in [
        TraceEvent::PhaseBegin { name: phase, host_nanos: 1_000 },
        TraceEvent::NetDrop { from: 0, to: 1, bytes: 96 },
        TraceEvent::NetTimer { peer: 2, timer: 7 },
        TraceEvent::RejoinAnnounce { peer: 1, epoch: 3 },
        TraceEvent::RejoinRecv { peer: 0, from: 1, invalidated: 2 },
        TraceEvent::RejoinAck { peer: 1, from: 0, pending: 1 },
        TraceEvent::BarrierHold { peer: 0, toward: 1, held: 2 },
        TraceEvent::BarrierRelease { peer: 0, toward: 1, released: 2 },
        TraceEvent::WalAppend { store, bytes: 128 },
        TraceEvent::Fsync { store, nanos: 42_000 },
        TraceEvent::GroupDrain { stores: 2, records: 5, fsyncs: 1 },
        TraceEvent::Checkpoint { store, generation: 1 },
        TraceEvent::PhaseEnd { name: phase, host_nanos: 2_501_000 },
    ] {
        tracer.emit(ev);
    }
    tracer.flush().unwrap();
    drop(tracer);
    drop(net);
    drop(recorder);
    std::fs::read(path).unwrap()
}

/// The committed fixture is byte-identical to a fresh recording of the
/// same run — encoder determinism and format stability in one assertion.
#[test]
fn golden_trace_fixture_is_byte_stable() {
    let scratch = codb::store::ScratchDir::new("golden-flight");
    let got = build_golden_trace(&scratch.path().join("fresh.trc"));
    let want = std::fs::read(fixture_path())
        .expect("fixture missing — run the ignored `regenerate` test once");
    if got != want {
        // Say what moved, not that bytes did: the first event the two
        // captures disagree at, and the per-kind count deltas.
        let decoded = (read_trace(&want), read_trace(&got));
        let events = match &decoded {
            (Ok(want), Ok(got)) => codb::trace::TraceDiff::between(want, got).render(),
            _ => "(one of the two does not decode)".to_owned(),
        };
        let byte = got.iter().zip(&want).position(|(a, b)| a != b);
        panic!(
            "the trace (B) diverged from the committed fixture (A), first at byte {} of {} / {} \
             — if the change is intentional, regenerate, and bump the magic if it is the format \
             that changed\n{events}",
            byte.unwrap_or(got.len().min(want.len())),
            got.len(),
            want.len(),
        );
    }
}

/// The committed bytes also *mean* the right thing: they decode cleanly,
/// span several blocks, cover every event kind, and summarise with the
/// pinned phase timing. A future decoder that accepts the bytes but
/// reads them differently fails here.
#[test]
fn golden_trace_fixture_decodes_to_pinned_meaning() {
    let bytes = std::fs::read(fixture_path())
        .expect("fixture missing — run the ignored `regenerate` test once");
    assert!(bytes.len() > 8 + 3 * 12, "large enough for several 12-byte block headers");
    let trace = read_trace(&bytes).unwrap();
    assert!(!trace.torn, "committed fixture ends on a sealed block");

    let kinds: std::collections::BTreeSet<&str> =
        trace.events.iter().map(|(_, ev)| ev.kind()).collect();
    for kind in [
        "Intern",
        "PhaseBegin",
        "PhaseEnd",
        "NetSend",
        "NetDeliver",
        "NetDrop",
        "NetTimer",
        "UpdateApply",
        "RuleFire",
        "DsAck",
        "DsCredit",
        "RejoinAnnounce",
        "RejoinRecv",
        "RejoinAck",
        "BarrierHold",
        "BarrierRelease",
        "WalAppend",
        "Fsync",
        "GroupDrain",
        "Checkpoint",
    ] {
        assert!(kinds.contains(kind), "fixture must cover event kind {kind}");
    }

    let summary = Summary::from_trace(&trace);
    assert_eq!(
        summary.phase_host_nanos("golden-phase"),
        Some(2_500_000),
        "pinned synthetic phase duration"
    );
    let rendered = summary.render();
    assert!(rendered.contains("golden-phase"), "summary names the phase:\n{rendered}");
}

/// Rewrites the committed fixture. Run explicitly after an *intentional*
/// format change: `cargo test --test golden_flight -- --ignored regenerate`
#[test]
#[ignore = "rewrites the committed golden trace fixture"]
fn regenerate() {
    let path = fixture_path();
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    let bytes = build_golden_trace(&path);
    println!("rewrote {} ({} bytes)", path.display(), bytes.len());
}
