//! Timer-under-load regression, pinned on both runtimes: a peer receiving a
//! steady mail stream must still fire a due timer promptly — under the
//! sharded threaded runtime the batched-drain rule fires due timers between
//! node quanta (never behind a full mailbox drain), and under the
//! discrete-event simulator timers fire at their exact simulated deadline
//! regardless of how much mail is scheduled after them.

use codb_net::{
    Context, ParallelNet, Payload, Peer, PeerId, PipeConfig, RuntimeConfig, SimConfig, SimNet,
    SimTime,
};
use std::time::Duration;

#[derive(Clone, Debug)]
struct Ping(u32);
impl Payload for Ping {
    fn size_bytes(&self) -> usize {
        4
    }
}

/// Records how many messages it had seen when its timer fired. Each message
/// costs `work` host time (threaded runtime) so the flood outlasts the
/// timer deadline.
struct Victim {
    work: Duration,
    seen: u32,
    seen_at_fire: Option<u32>,
    /// Echo partner (sim mode): bounce the token back to keep the stream
    /// flowing across simulated time. `None` = absorb (threaded mode).
    echo: Option<PeerId>,
    fired_at: Option<SimTime>,
}

impl Victim {
    fn new() -> Self {
        Victim { work: Duration::ZERO, seen: 0, seen_at_fire: None, echo: None, fired_at: None }
    }
}

impl Peer<Ping> for Victim {
    fn on_start(&mut self, ctx: &mut Context<Ping>) {
        ctx.set_timer(SimTime::from_millis(5), 1);
    }
    fn on_message(&mut self, ctx: &mut Context<Ping>, from: PeerId, msg: Ping) {
        self.seen += 1;
        if !self.work.is_zero() {
            std::thread::sleep(self.work);
        }
        if self.echo.is_some() && msg.0 > 0 {
            ctx.send(from, Ping(msg.0 - 1));
        }
    }
    fn on_timer(&mut self, ctx: &mut Context<Ping>, _timer: u64) {
        self.seen_at_fire.get_or_insert(self.seen);
        self.fired_at.get_or_insert(ctx.now());
    }
}

/// A relay that bounces every token back to its sender, TTL-decremented.
struct Relay;
impl Peer<Ping> for Relay {
    fn on_message(&mut self, ctx: &mut Context<Ping>, from: PeerId, msg: Ping) {
        if msg.0 > 0 {
            ctx.send(from, Ping(msg.0 - 1));
        }
    }
}

/// Threaded runtime: flood 2000 messages at a victim that takes ~50us
/// each (total drain ~100ms, 20x the 5ms timer deadline). The timer must
/// fire while most of the flood is still queued.
#[test]
fn threaded_timer_fires_mid_flood() {
    const FLOOD: u32 = 2000;
    let mut net: ParallelNet<Ping, Victim> =
        ParallelNet::with_config(RuntimeConfig { workers: 1, mailbox_depth: 4096 });
    let mut victim = Victim::new();
    victim.work = Duration::from_micros(50);
    net.add_peers([(PeerId(0), victim)]);
    for _ in 0..FLOOD {
        net.inject(PeerId(9), PeerId(0), Ping(0));
    }
    assert!(net.await_quiescence(Duration::from_millis(50), Duration::from_secs(60)));
    let peers = net.shutdown();
    let v = &peers[&PeerId(0)];
    assert_eq!(v.seen, FLOOD);
    let at_fire = v.seen_at_fire.expect("timer must fire");
    assert!(
        at_fire < FLOOD,
        "timer waited for the whole {FLOOD}-message drain (seen_at_fire = {at_fire})"
    );
}

/// Simulator: the victim ping-pongs with a relay over a 1ms pipe (a steady
/// stream spanning ~100ms of simulated time). The 5ms timer must fire at
/// exactly its deadline, a few messages in — not after the stream ends.
#[test]
fn sim_timer_fires_mid_stream() {
    let mut net: SimNet<Ping, SimVictim> = SimNet::new(SimConfig::default());
    net.add_peer(PeerId(0), SimVictim::Victim(victim_for_sim()));
    net.add_peer(PeerId(1), SimVictim::Relay(Relay));
    let pipe = PipeConfig::lan().with_latency(SimTime::from_millis(1));
    net.open_pipe(PeerId(0), PeerId(1), pipe);
    // TTL 100: the bounce stream covers ~100ms of sim time.
    net.inject(PeerId(1), PeerId(0), Ping(100));
    net.run_until_quiescent();
    let SimVictim::Victim(v) = net.peer(PeerId(0)).unwrap() else { unreachable!() };
    assert!(v.seen >= 50, "stream should have run: {}", v.seen);
    let at_fire = v.seen_at_fire.expect("timer must fire");
    assert!(at_fire < v.seen, "timer fired only after the stream drained");
    assert_eq!(
        v.fired_at.expect("recorded"),
        SimTime::from_millis(5),
        "sim timers fire at their exact deadline"
    );
}

enum SimVictim {
    Victim(Victim),
    Relay(Relay),
}

fn victim_for_sim() -> Victim {
    let mut v = Victim::new();
    v.echo = Some(PeerId(1));
    v
}

impl Peer<Ping> for SimVictim {
    fn on_start(&mut self, ctx: &mut Context<Ping>) {
        if let SimVictim::Victim(v) = self {
            v.on_start(ctx);
        }
    }
    fn on_message(&mut self, ctx: &mut Context<Ping>, from: PeerId, msg: Ping) {
        match self {
            SimVictim::Victim(v) => v.on_message(ctx, from, msg),
            SimVictim::Relay(r) => r.on_message(ctx, from, msg),
        }
    }
    fn on_timer(&mut self, ctx: &mut Context<Ping>, timer: u64) {
        if let SimVictim::Victim(v) = self {
            v.on_timer(ctx, timer);
        }
    }
}
