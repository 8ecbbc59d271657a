//! Golden fixed-seed trace: the event-loop restructure insurance.
//!
//! The fixture under `tests/fixtures/golden_trace.txt` was generated by
//! the original `BinaryHeap`-based event queue and `HashMap`-keyed pipe
//! table. Every restructure since — a calendar queue (PR 6, gone again in
//! PR 26, when the simulator went back to a heap on the same `(at, seq)`
//! key), adjacency-list pipes, slot-stored payloads — must reproduce the
//! exact same delivery schedule: every delivery `(time, from, to, bytes)`
//! in the same order, the same loss-model RNG draws, the same final clock
//! and counters. Any reordering, even among same-timestamp events,
//! changes this file and fails the test.
//!
//! Regenerate (only when the *intended* schedule changes, never to paper
//! over a queue bug) with:
//!
//! ```sh
//! cargo test -p codb-net --test golden_trace -- --ignored regenerate
//! ```

use codb_net::{
    Context, Payload, Peer, PeerId, PipeConfig, SimBuilder, SimConfig, SimNet, SimTime,
};
use codb_trace::{TraceEvent, Tracer};

/// A gossip token: `(token id, remaining hops, payload bytes)`.
#[derive(Clone, Debug)]
struct Token(u32, u32, usize);

impl Payload for Token {
    fn size_bytes(&self) -> usize {
        self.2
    }
}

/// Floods unseen tokens to its neighbours; re-emits a fresh token from a
/// staggered timer, plus one far-future timer.
struct Gossip {
    neighbours: Vec<PeerId>,
    seen: Vec<u32>,
    emit_base: u32,
}

impl Peer<Token> for Gossip {
    fn on_start(&mut self, ctx: &mut Context<Token>) {
        let id = ctx.self_id().0;
        // Staggered near-term timers plus a far-future one (2s + i ms).
        ctx.set_timer(SimTime::from_micros(137 * (id % 7 + 1)), 1);
        ctx.set_timer(SimTime::from_millis(2_000 + id), 2);
    }

    fn on_message(&mut self, ctx: &mut Context<Token>, _from: PeerId, msg: Token) {
        if self.seen.contains(&msg.0) {
            return;
        }
        self.seen.push(msg.0);
        if msg.1 > 0 {
            for &n in &self.neighbours {
                ctx.send(n, Token(msg.0, msg.1 - 1, msg.2));
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<Token>, timer: u64) {
        let token = self.emit_base + timer as u32;
        self.seen.push(token);
        for &n in &self.neighbours {
            ctx.send(n, Token(token, 3, 64 + 16 * (timer as usize)));
        }
    }
}

/// Builds the fixed 24-node mixed network: ring backbone, deterministic
/// chords, heterogeneous pipes (zero-latency, LAN, WAN-ish, lossy,
/// bandwidth-limited) — everything a restructured hot path must keep
/// byte-identical.
fn build() -> SimNet<Token, Gossip> {
    const N: u64 = 24;
    let mut edges: Vec<(u64, u64)> = (0..N).map(|i| (i, (i + 1) % N)).collect();
    // Deterministic chords: i → i+5 for every third node, i → i+9 for
    // every fourth.
    for i in (0..N).step_by(3) {
        edges.push((i, (i + 5) % N));
    }
    for i in (0..N).step_by(4) {
        edges.push((i, (i + 9) % N));
    }

    let mut adj: Vec<Vec<PeerId>> = vec![Vec::new(); N as usize];
    for &(a, b) in &edges {
        adj[a as usize].push(PeerId(b));
        adj[b as usize].push(PeerId(a));
    }

    // Built through SimBuilder, then wired: peers spawn in index order,
    // pipes open in edge order — the exact call sequence the fixture was
    // generated with, so the builder itself is on the golden path.
    let mut net = SimBuilder::new(SimConfig { seed: 0x601D_72AC, max_events: 200_000 })
        .peers((0..N).map(PeerId))
        .spawn(|id| Gossip {
            neighbours: adj[id.0 as usize].clone(),
            seen: Vec::new(),
            emit_base: id.0 as u32 * 100,
        });
    for (k, &(a, b)) in edges.iter().enumerate() {
        // Cycle through pipe shapes so every model is on the golden path.
        let config = match k % 5 {
            0 => PipeConfig::lan(),
            1 => PipeConfig::lan().with_latency(SimTime::ZERO),
            2 => PipeConfig::lan().with_latency(SimTime::from_micros(700)).with_loss(0.2),
            3 => PipeConfig::wan(),
            _ => PipeConfig::lan().with_bandwidth(250_000),
        };
        net.open_pipe(PeerId(a), PeerId(b), config);
    }
    net
}

fn render_trace() -> String {
    let mut net = build();
    let (tracer, recorded) = Tracer::ring(usize::MAX);
    net.attach_tracer(tracer);
    // A couple of harness injections on top of the timer-driven traffic.
    net.inject(PeerId(99), PeerId(0), Token(9_000, 4, 48));
    net.inject(PeerId(99), PeerId(12), Token(9_001, 4, 48));
    let end = net.run_until_quiescent();
    let stats = net.stats();
    let mut out = String::new();
    for (at, event) in recorded.lock().unwrap().events() {
        if let TraceEvent::NetDeliver { from, to, bytes } = event {
            out.push_str(&format!("{at} {from} {to} {bytes}\n"));
        }
    }
    out.push_str(&format!(
        "end={} events={} sent={} delivered={} dropped={} bytes={}\n",
        end.as_nanos(),
        net.events_processed(),
        stats.sent,
        stats.delivered,
        stats.dropped,
        stats.bytes_sent,
    ));
    out
}

fn fixture_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden_trace.txt")
}

#[test]
fn bucketed_queue_matches_golden_heap_trace() {
    let got = render_trace();
    let want = std::fs::read_to_string(fixture_path())
        .expect("fixture missing — run the ignored `regenerate` test once");
    // On failure, the first delivery the two schedules disagree at.
    let diverged = got.lines().zip(want.lines()).position(|(a, b)| a != b);
    let at = diverged.unwrap_or(got.lines().count().min(want.lines().count()));
    assert!(
        got == want,
        "delivery schedule diverged from the golden heap-generated trace at line {at} \
         (`time from to bytes`)\n  golden: {:?}\n  now:    {:?}",
        want.lines().nth(at),
        got.lines().nth(at),
    );
}

#[test]
#[ignore = "writes the fixture; run only when the intended schedule changes"]
fn regenerate() {
    let path = fixture_path();
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    std::fs::write(&path, render_trace()).unwrap();
}
