//! The in-flight slot store, pinned from outside: a `Deliver` event names
//! its message by slot, so a slot handed out twice, freed early or never
//! freed would deliver the wrong message, or none, or leak. Every run
//! here is replayed by a reference loop that keeps each message *inside*
//! its event, in a [`HeapQueue`] of its own, and the two delivery logs
//! must be equal, entry for entry.

use codb_net::queue::HeapQueue;
use codb_net::{Context, Payload, Peer, PeerId, PipeConfig, SimConfig, SimNet, SimTime};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

/// A message that knows where it is going and forks on the way.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Token {
    id: u64,
    from: u64,
    to: u64,
    ttl: u32,
}

impl Payload for Token {
    fn size_bytes(&self) -> usize {
        8 + (self.id % 64) as usize
    }
}

fn mix(x: u64, k: u64) -> u64 {
    (x ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15)).wrapping_mul(6364136223846793005).rotate_left(29)
}

/// What peer `me` of `n` sends on receiving `msg`: one or two children,
/// their ids and destinations functions of the parent's id.
fn children(msg: &Token, me: u64, n: u64) -> Vec<Token> {
    if msg.ttl == 0 {
        return Vec::new();
    }
    (0..1 + mix(msg.id, 7) % 2)
        .map(|k| {
            let id = mix(msg.id, k);
            Token { id, from: me, to: (me + 1 + id % (n - 1)) % n, ttl: msg.ttl - 1 }
        })
        .collect()
}

/// One delivery: when, from whom, to whom, which message.
type Delivery = (u64, u64, u64, u64);

struct Hopper {
    me: u64,
    n: u64,
    log: Arc<Mutex<Vec<Delivery>>>,
}

impl Peer<Token> for Hopper {
    fn on_message(&mut self, ctx: &mut Context<Token>, from: PeerId, msg: Token) {
        assert_eq!((msg.from, msg.to), (from.0, self.me), "event and message disagree: {msg:?}");
        self.log.lock().unwrap().push((ctx.now().as_nanos(), from.0, self.me, msg.id));
        for child in children(&msg, self.me, self.n) {
            ctx.send(PeerId(child.to), child);
        }
    }
}

fn latency(a: u64, b: u64) -> SimTime {
    SimTime::from_micros(300 + 450 * ((a + b) % 4))
}

const HARNESS: u64 = 1_000;

/// What the harness does between stretches of simulated time.
#[derive(Clone, Debug)]
enum Step {
    Inject(Token),
    RunUntil(SimTime),
    Remove(u64),
    /// Re-add the peer and re-open its pipes to every live peer.
    Readd(u64),
    Drain,
}

/// The reference: the same protocol over a heap of by-value events.
struct Model {
    n: u64,
    loss: f64,
    rng: SmallRng,
    alive: Vec<bool>,
    pipes: BTreeSet<(u64, u64)>,
    queue: HeapQueue<Token>,
    seq: u64,
    now: SimTime,
    log: Vec<Delivery>,
    /// Deliveries the event budget still allows (`None` = unlimited).
    budget: Option<u64>,
}

impl Model {
    /// Delivery events popped so far — logged or discarded at a dead peer.
    fn popped(&self) -> u64 {
        self.seq - self.queue.len() as u64
    }

    fn push(&mut self, at: SimTime, msg: Token) {
        self.queue.push(at, self.seq, msg);
        self.seq += 1;
    }

    fn run(&mut self, deadline: Option<SimTime>) {
        while self.budget != Some(0) {
            if deadline.is_some_and(|d| self.queue.peek_time().is_none_or(|at| at > d)) {
                break;
            }
            let Some((at, _, msg)) = self.queue.pop() else { break };
            self.budget = self.budget.map(|b| b - 1);
            self.now = at;
            if !self.alive[msg.to as usize] {
                continue;
            }
            self.log.push((at.as_nanos(), msg.from, msg.to, msg.id));
            for child in children(&msg, msg.to, self.n) {
                if !self.pipes.contains(&(child.from, child.to)) {
                    continue; // undeliverable
                }
                if self.loss > 0.0 && self.rng.gen::<f64>() < self.loss {
                    continue; // dropped
                }
                self.push(at + latency(child.from, child.to), child);
            }
        }
        if let Some(d) = deadline {
            self.now = self.now.max(d);
        }
    }
}

struct Outcome {
    log: Vec<Delivery>,
    in_flight: usize,
    quiescent: bool,
}

fn config(seed: u64, max_events: u64) -> SimConfig {
    SimConfig { seed, max_events }
}

fn open(net: &mut SimNet<Token, Hopper>, a: u64, b: u64, loss: f64) {
    net.open_pipe(
        PeerId(a),
        PeerId(b),
        PipeConfig::lan().with_latency(latency(a, b)).with_loss(loss),
    );
}

fn run_sim(n: u64, seed: u64, loss: f64, max_events: u64, steps: &[Step]) -> Outcome {
    let log = Arc::new(Mutex::new(Vec::new()));
    let hopper = |me| Hopper { me, n, log: log.clone() };
    let mut net: SimNet<Token, Hopper> = SimNet::new(config(seed, max_events));
    for me in 0..n {
        net.add_peer(PeerId(me), hopper(me));
    }
    for a in 0..n {
        for b in a + 1..n {
            open(&mut net, a, b, loss);
        }
    }
    for step in steps {
        match step {
            Step::Inject(t) => net.inject(PeerId(t.from), PeerId(t.to), t.clone()),
            Step::RunUntil(d) => {
                net.run_until(*d);
            }
            Step::Remove(p) => {
                net.remove_peer(PeerId(*p)).expect("the schedule removes live peers");
            }
            Step::Readd(p) => {
                net.add_peer(PeerId(*p), hopper(*p));
                for other in net.peer_ids() {
                    if other.0 != *p {
                        open(&mut net, *p, other.0, loss);
                    }
                }
            }
            Step::Drain => {
                net.run_until_quiescent();
            }
        }
    }
    assert_eq!(net.stats().delivered as usize, log.lock().unwrap().len());
    let log = log.lock().unwrap().clone();
    Outcome { log, in_flight: net.in_flight(), quiescent: net.is_quiescent() }
}

fn run_model(n: u64, seed: u64, loss: f64, max_events: u64, steps: &[Step]) -> Outcome {
    let mut m = Model {
        n,
        loss,
        rng: SmallRng::seed_from_u64(seed),
        alive: vec![true; n as usize],
        pipes: (0..n).flat_map(|a| (0..n).filter(move |b| *b != a).map(move |b| (a, b))).collect(),
        queue: HeapQueue::new(),
        seq: 0,
        now: SimTime::ZERO,
        log: Vec::new(),
        budget: None,
    };
    // The simulator spends one event on every peer's start.
    let mut starts = n;
    for step in steps {
        match step {
            Step::Inject(t) => m.push(m.now, t.clone()),
            Step::Remove(p) => {
                m.alive[*p as usize] = false;
                m.pipes.retain(|(a, b)| a != p && b != p);
            }
            Step::Readd(p) => {
                m.alive[*p as usize] = true;
                starts += 1;
                for other in (0..n).filter(|o| o != p && m.alive[*o as usize]) {
                    m.pipes.insert((*p, other));
                    m.pipes.insert((other, *p));
                }
            }
            Step::RunUntil(_) | Step::Drain => {
                if max_events != 0 {
                    // A start is scheduled at the instant of the add, ahead
                    // of anything sent since, so every start so far is spent.
                    m.budget = Some(max_events.saturating_sub(m.popped() + starts));
                }
                m.run(match step {
                    Step::RunUntil(d) => Some(*d),
                    _ => None,
                });
            }
        }
    }
    Outcome { in_flight: m.queue.len(), quiescent: m.queue.is_empty(), log: m.log }
}

fn seeds(rng: &mut SmallRng, n: u64, count: usize, ttl: u32) -> Vec<Step> {
    (0..count)
        .map(|_| {
            let to = rng.gen_range(0..n);
            Step::Inject(Token { id: rng.gen(), from: HARNESS, to, ttl })
        })
        .collect()
}

#[test]
fn every_slot_is_free_at_quiescence_on_lossy_pipes() {
    let mut rng = SmallRng::seed_from_u64(0x5107);
    for round in 0..40u64 {
        let n = rng.gen_range(3..9);
        let mut steps = seeds(&mut rng, n, 12, 9);
        steps.push(Step::Drain);
        let (sim, model) =
            (run_sim(n, round, 0.25, 0, &steps), run_model(n, round, 0.25, 0, &steps));
        assert_eq!(sim.log, model.log, "round {round}");
        assert!(sim.log.len() > 12, "round {round}: the tokens forked");
        assert!(sim.quiescent && sim.in_flight == 0, "round {round}: {} leaked", sim.in_flight);
    }
}

#[test]
fn slots_survive_churn_with_messages_in_flight_to_the_removed_peer() {
    let mut rng = SmallRng::seed_from_u64(0xC4024);
    for round in 0..40u64 {
        let n = rng.gen_range(4..9);
        let loss = if round % 2 == 0 { 0.0 } else { 0.15 };
        let (victim, other) = (rng.gen_range(0..n), rng.gen_range(0..n));
        let mut steps = seeds(&mut rng, n, 10, 10);
        // Cut mid-wave: deliveries to the victim are queued when it goes.
        steps.push(Step::RunUntil(SimTime::from_micros(rng.gen_range(900..4000))));
        steps.push(Step::Remove(victim));
        steps.extend(seeds(&mut rng, n, 6, 8));
        steps.push(Step::RunUntil(SimTime::from_micros(rng.gen_range(4000..9000))));
        if round % 3 != 0 {
            steps.push(Step::Readd(victim));
        }
        if other != victim && round % 4 == 0 {
            steps.push(Step::Remove(other));
        }
        steps.extend(seeds(&mut rng, n, 6, 8));
        steps.push(Step::Drain);
        let (sim, model) =
            (run_sim(n, round, loss, 0, &steps), run_model(n, round, loss, 0, &steps));
        assert_eq!(sim.log, model.log, "round {round}");
        assert!(sim.quiescent && sim.in_flight == 0, "round {round}: {} leaked", sim.in_flight);
    }
}

#[test]
fn an_event_budget_cut_leaves_exactly_the_queued_deliveries_in_their_slots() {
    let mut rng = SmallRng::seed_from_u64(0xB0D6E7);
    for round in 0..20u64 {
        let n = rng.gen_range(3..8);
        let max_events = rng.gen_range(40..400);
        // ttl 40 with up to two children a hop: never drains in 400 events.
        let mut steps = seeds(&mut rng, n, 8, 40);
        steps.push(Step::Drain);
        let sim = run_sim(n, round, 0.0, max_events, &steps);
        let model = run_model(n, round, 0.0, max_events, &steps);
        assert_eq!(sim.log, model.log, "round {round}");
        assert!(!sim.quiescent, "round {round}: the budget cut the run");
        assert_eq!(sim.in_flight, model.in_flight, "round {round}");
        assert!(sim.in_flight > 0);
    }
}
