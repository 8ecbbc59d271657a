//! The simulator-scale substrate: flood waves over big topologies.
//!
//! The full coDB node (relational evaluation, WAL, rule engine) is far
//! too heavy to sweep at 10k peers — and would measure the database, not
//! the simulator. This module provides the light protocol the E19
//! node-count sweep drives instead: every peer floods announcement
//! *waves* to its neighbours with per-wave duplicate suppression, a
//! gossip pattern whose message complexity (`waves × edges × 2`) and
//! propagation depth are known in closed form, so a sweep cleanly
//! isolates event-loop cost (event heap, adjacency lists) from protocol
//! cost.
//!
//! Pipes are bidirectional, so floods travel the *undirected* closure of
//! the topology's data-flow edges and reach every connected node
//! regardless of edge orientation.

use crate::topology::Topology;
use codb_net::{
    Advertisement, Context, LatencyModel, Payload, Peer, PeerId, PipeConfig, SimBuilder, SimConfig,
    SimTime, Tracer,
};
use serde::Serialize;

/// A flood wave: the originating node's index and the wave number.
#[derive(Clone, Debug)]
pub struct FloodMsg {
    /// Node index the wave originated at.
    pub origin: u32,
    /// Wave number (0-based).
    pub wave: u32,
}

impl Payload for FloodMsg {
    fn size_bytes(&self) -> usize {
        16
    }
}

/// A peer that relays every wave it has not seen to all neighbours.
pub struct FloodPeer {
    /// Undirected neighbour list, sorted.
    neighbours: Vec<PeerId>,
    /// Sparse per-origin bitmask of waves already relayed (waves are
    /// ≤ 64), sorted by origin. Sparse matters: a dense `vec![0; n]`
    /// per peer is `O(n²)` memory across the network — ~800 MB at 10k
    /// nodes — while the origins a node actually hears from are few.
    seen: Vec<(u32, u64)>,
    /// Waves this node originates at start (only the designated seeds).
    originate: u32,
    /// Publish one advertisement at start, as every coDB node does. The
    /// flood itself never reads the board, so this changes no message —
    /// only what the simulator must carry per event if it handles the
    /// board badly.
    advertise: bool,
}

impl FloodPeer {
    /// True iff this peer has seen wave `wave` from origin `origin`.
    pub fn has_seen(&self, origin: u32, wave: u32) -> bool {
        self.seen
            .binary_search_by_key(&origin, |&(o, _)| o)
            .is_ok_and(|pos| self.seen[pos].1 & (1 << wave) != 0)
    }

    /// Sends wave `wave` of `origin` to every neighbour.
    fn relay(&mut self, ctx: &mut Context<FloodMsg>, origin: u32, wave: u32) {
        for &n in &self.neighbours {
            ctx.send(n, FloodMsg { origin, wave });
        }
    }

    fn mark(&mut self, origin: u32, wave: u32) -> bool {
        let bit = 1u64 << wave;
        match self.seen.binary_search_by_key(&origin, |&(o, _)| o) {
            Ok(pos) => {
                let fresh = self.seen[pos].1 & bit == 0;
                self.seen[pos].1 |= bit;
                fresh
            }
            Err(pos) => {
                self.seen.insert(pos, (origin, bit));
                true
            }
        }
    }
}

impl Peer<FloodMsg> for FloodPeer {
    fn on_start(&mut self, ctx: &mut Context<FloodMsg>) {
        if self.advertise {
            ctx.advertise(Advertisement::peer(ctx.self_id(), "flood-peer"));
        }
        let origin = ctx.self_id().0 as u32;
        for wave in 0..self.originate {
            self.mark(origin, wave);
            self.relay(ctx, origin, wave);
        }
    }

    fn on_message(&mut self, ctx: &mut Context<FloodMsg>, _from: PeerId, msg: FloodMsg) {
        if self.mark(msg.origin, msg.wave) {
            self.relay(ctx, msg.origin, msg.wave);
        }
    }
}

/// What one flood run measured.
#[derive(Clone, Debug, Serialize)]
pub struct FloodReport {
    /// Node count.
    pub nodes: usize,
    /// Directed data-flow edges of the topology (pipes are one per
    /// undirected pair).
    pub edges: usize,
    /// Waves flooded from node 0.
    pub waves: u32,
    /// Simulator events processed.
    pub events: u64,
    /// Messages handed to pipes.
    pub messages: u64,
    /// Messages delivered.
    pub delivered: u64,
    /// Final simulated time.
    pub sim_time: SimTime,
    /// Nodes the flood reached (== `nodes` on any connected topology).
    pub reached: usize,
}

/// Builds the topology's network via [`SimBuilder`], floods `waves`
/// waves from node 0, runs to quiescence and reports. Waves are capped
/// at 64 (the per-origin bitmask width). With `advertise`, every peer
/// publishes one advertisement as it starts; `tracer` is attached to the
/// simulator ([`Tracer::disabled`] costs one branch per emission site).
pub fn run_flood(
    topology: &Topology,
    pipe: PipeConfig,
    latency: Option<LatencyModel>,
    waves: u32,
    seed: u64,
    advertise: bool,
    tracer: &Tracer,
) -> FloodReport {
    assert!(waves <= 64, "per-origin wave bitmask holds at most 64 waves");
    let n = topology.node_count();
    let edges = topology.edges();
    let mut adj: Vec<Vec<PeerId>> = vec![Vec::new(); n];
    for &(a, b) in &edges {
        if a != b {
            adj[a].push(PeerId(b as u64));
            adj[b].push(PeerId(a as u64));
        }
    }
    // Pipes are bidirectional: duplicate edge directions would only
    // double-send, so dedup each neighbour list.
    for list in &mut adj {
        list.sort_unstable();
        list.dedup();
    }

    let mut builder =
        SimBuilder::new(SimConfig { seed, ..Default::default() }).topology(topology, pipe);
    if let Some(model) = latency {
        builder = builder.latency(model);
    }
    let mut net = builder.spawn(|id| FloodPeer {
        neighbours: std::mem::take(&mut adj[id.0 as usize]),
        seen: Vec::new(),
        originate: if id.0 == 0 { waves } else { 0 },
        advertise,
    });
    net.attach_tracer(tracer.clone());
    let sim_time = net.run_until_quiescent();

    let reached = net.peers().filter(|(_, p)| (0..waves).all(|w| p.has_seen(0, w))).count();
    let stats = net.stats();
    FloodReport {
        nodes: n,
        edges: edges.len(),
        waves,
        events: net.events_processed(),
        messages: stats.sent,
        delivered: stats.delivered,
        sim_time,
        reached,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An untraced, non-advertising flood over LAN pipes.
    fn flood(t: &Topology, latency: Option<LatencyModel>, waves: u32, seed: u64) -> FloodReport {
        run_flood(t, PipeConfig::lan(), latency, waves, seed, false, &Tracer::disabled())
    }

    #[test]
    fn flood_reaches_every_node_on_a_chain() {
        let report = flood(&Topology::Chain(50), None, 2, 1);
        assert_eq!(report.nodes, 50);
        assert_eq!(report.reached, 50);
        // Each wave crosses each of the 49 undirected edges exactly twice
        // (once per direction).
        assert_eq!(report.messages, 2 * 2 * 49);
        assert!(report.sim_time >= SimTime::from_millis(49), "49 sequential 1ms hops");
    }

    #[test]
    fn flood_reaches_every_node_on_scale_free_and_ring_gradient() {
        for t in [
            Topology::ScaleFree { n: 300, m: 3, seed: 9 },
            Topology::RingGradient { n: 300, chords: 5 },
        ] {
            let report = flood(&t, None, 1, 2);
            assert_eq!(report.reached, 300, "flood covers {t}");
            assert_eq!(report.delivered, report.messages);
        }
    }

    /// E19's schedule in closed form: on a connected topology every
    /// directed pipe — two per neighbour pair — carries each wave once,
    /// and every message is delivered.
    #[test]
    fn every_flood_pipe_carries_each_wave_once() {
        let waves = 2u64;
        for t in [
            Topology::Chain(40),
            Topology::ScaleFree { n: 200, m: 3, seed: 9 },
            Topology::RingGradient { n: 200, chords: 5 },
        ] {
            let report = flood(&t, None, waves as u32, 6);
            assert_eq!(report.reached, report.nodes, "{t} is connected");
            let mut directed: Vec<(usize, usize)> = t
                .edges()
                .into_iter()
                .filter(|&(a, b)| a != b)
                .flat_map(|(a, b)| [(a, b), (b, a)])
                .collect();
            directed.sort_unstable();
            directed.dedup();
            assert_eq!(report.messages, waves * directed.len() as u64, "{t}");
            assert_eq!(report.delivered, report.messages, "{t}");
        }
    }

    #[test]
    fn geo_latency_stretches_sim_time_not_messages() {
        let t = Topology::ScaleFree { n: 100, m: 2, seed: 4 };
        let flat = flood(&t, None, 1, 3);
        let geo = flood(&t, Some(LatencyModel::geo_scattered(11, 100)), 1, 3);
        assert_eq!(flat.messages, geo.messages, "latency model changes timing only");
        assert_eq!(geo.reached, 100);
        assert!(geo.sim_time > flat.sim_time, "intercontinental links dominate 1ms LAN");
    }

    #[test]
    fn advertising_peers_flood_the_same_messages() {
        let t = Topology::ScaleFree { n: 200, m: 3, seed: 9 };
        let plain = flood(&t, None, 2, 5);
        let ads = run_flood(&t, PipeConfig::lan(), None, 2, 5, true, &Tracer::disabled());
        assert_eq!(ads.reached, 200);
        assert_eq!((ads.messages, ads.events), (plain.messages, plain.events));
        assert_eq!(ads.sim_time, plain.sim_time);
    }

    /// Determinism at scale: identical seeds push identical traces and
    /// statistics through the event heap on a 1k-node scale-free network
    /// with a distinct latency on nearly every link.
    #[test]
    fn thousand_node_scale_free_is_deterministic() {
        let run = |seed: u64| {
            let t = Topology::ScaleFree { n: 1000, m: 3, seed: 17 };
            // Lossy pipes exercise the RNG draw sequence as well.
            let pipe = PipeConfig::lan().with_loss(0.01);
            let latency = LatencyModel::geo_scattered(23, 1000);
            let (tracer, recorded) = Tracer::ring(usize::MAX);
            let report = run_flood(&t, pipe, Some(latency), 2, seed, false, &tracer);
            let trace = recorded.lock().unwrap().events();
            let dropped = report.messages - report.delivered;
            (report.sim_time, report.events, dropped, trace)
        };
        let a = run(42);
        let b = run(42);
        assert_eq!(a.0, b.0);
        assert_eq!(a.1, b.1);
        assert_eq!(a.2, b.2, "identical drops");
        assert_eq!(a.3, b.3, "identical traces, every event");
        // A different simulator seed changes the loss draws.
        let c = run(43);
        assert_ne!(a.2, 0, "1% loss on thousands of messages drops something");
        assert_ne!(a.3, c.3, "seed changes the schedule");
    }
}
