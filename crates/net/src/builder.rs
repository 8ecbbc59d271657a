//! Declarative network construction: [`SimBuilder`].
//!
//! Before this module every experiment, test and the core harness
//! hand-rolled the same loop: `add_peer` for each id, `open_pipe` for
//! each edge, with per-call-site copies of the edge materialization.
//! The builder replaces that with one pipeline:
//!
//! ```ignore
//! let net = SimBuilder::new(config)
//!     .topology(&topology, PipeConfig::lan())   // any EdgeSource
//!     .latency(LatencyModel::geo_scattered(7, n))
//!     .spawn(|id| MyPeer::new(id));
//! ```
//!
//! Construction order is deterministic: peers spawn in registration
//! order, pipes open in registration order, so two builds from the same
//! inputs schedule identical event sequences. The latency model (if
//! any) is evaluated once per pipe here — the simulator hot path only
//! ever sees the resulting [`PipeConfig`].

use crate::latency::LatencyModel;
use crate::peer::{Payload, Peer, PeerId};
use crate::pipe::PipeConfig;
use crate::sim::{SimConfig, SimNet};

/// Anything that can describe a network as nodes + directed edges.
///
/// Implemented by `codb_workload::Topology` (the canonical generators)
/// and by the in-crate [`Edges`] adapter for ad-hoc shapes. Node
/// indices are `0..node_count()`; the builder maps index `i` to
/// `PeerId(i)`.
pub trait EdgeSource {
    /// Number of nodes in the shape.
    fn node_count(&self) -> usize;
    /// Directed edges `(source, target)` over `0..node_count()`.
    fn edge_list(&self) -> Vec<(usize, usize)>;
}

/// A literal edge list with an explicit node count — the [`EdgeSource`]
/// for shapes that don't warrant a topology enum variant.
#[derive(Clone, Debug)]
pub struct Edges {
    /// Number of nodes (`0..n` are valid endpoints).
    pub n: usize,
    /// Directed edges.
    pub edges: Vec<(usize, usize)>,
}

impl Edges {
    /// A chain `0 → 1 → … → n-1`.
    pub fn chain(n: usize) -> Self {
        Edges { n, edges: (0..n.saturating_sub(1)).map(|i| (i, i + 1)).collect() }
    }

    /// A directed ring `0 → 1 → … → n-1 → 0`.
    pub fn ring(n: usize) -> Self {
        let edges = if n < 2 { Vec::new() } else { (0..n).map(|i| (i, (i + 1) % n)).collect() };
        Edges { n, edges }
    }
}

impl EdgeSource for Edges {
    fn node_count(&self) -> usize {
        self.n
    }
    fn edge_list(&self) -> Vec<(usize, usize)> {
        self.edges.clone()
    }
}

/// Builder for a fully-wired [`SimNet`]; see the module docs.
#[derive(Clone, Debug)]
pub struct SimBuilder {
    config: SimConfig,
    latency: Option<LatencyModel>,
    peers: Vec<PeerId>,
    pipes: Vec<(PeerId, PeerId, PipeConfig)>,
}

impl SimBuilder {
    /// Starts a build with the given simulator configuration.
    pub fn new(config: SimConfig) -> Self {
        SimBuilder { config, latency: None, peers: Vec::new(), pipes: Vec::new() }
    }

    /// Registers every node and edge of `shape`, each edge as a pipe
    /// with `pipe` as its base configuration. May be called repeatedly
    /// (ids already registered are not duplicated).
    pub fn topology<T: EdgeSource + ?Sized>(mut self, shape: &T, pipe: PipeConfig) -> Self {
        for i in 0..shape.node_count() {
            let id = PeerId(i as u64);
            if !self.peers.contains(&id) {
                self.peers.push(id);
            }
        }
        for (a, b) in shape.edge_list() {
            self.pipes.push((PeerId(a as u64), PeerId(b as u64), pipe));
        }
        self
    }

    /// Sets the latency model. Each pipe's latency is overridden by
    /// `model.link(a, b)` at [`spawn`](Self::spawn) time; bandwidth and
    /// loss of the base configuration are preserved.
    pub fn latency(mut self, model: LatencyModel) -> Self {
        self.latency = Some(model);
        self
    }

    /// Registers additional peers (for harness-only or off-topology
    /// ids).
    pub fn peers(mut self, ids: impl IntoIterator<Item = PeerId>) -> Self {
        for id in ids {
            if !self.peers.contains(&id) {
                self.peers.push(id);
            }
        }
        self
    }

    /// Registers a single explicit pipe.
    pub fn pipe(mut self, a: PeerId, b: PeerId, config: PipeConfig) -> Self {
        self.pipes.push((a, b, config));
        self
    }

    /// Materializes the network: spawns each registered peer via
    /// `make_peer` (in registration order), opens every pipe (latency
    /// model applied), and returns the ready [`SimNet`] — started peers
    /// have their `on_start` events queued, nothing has run yet.
    pub fn spawn<M, P, F>(self, mut make_peer: F) -> SimNet<M, P>
    where
        M: Payload,
        P: Peer<M>,
        F: FnMut(PeerId) -> P,
    {
        let mut net = SimNet::new(self.config);
        for &id in &self.peers {
            let peer = make_peer(id);
            net.add_peer(id, peer);
        }
        for (a, b, mut config) in self.pipes {
            if let Some(model) = &self.latency {
                config.latency = model.link(a, b);
            }
            net.open_pipe(a, b, config);
        }
        net
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::tests_support::{Echo, Msg};
    use crate::time::SimTime;

    /// Echo peers forwarding along the chain `0 → 1 → … → last`.
    fn forwarder(last: u64) -> impl FnMut(PeerId) -> Echo {
        move |id| Echo { forward: (id.0 < last).then(|| PeerId(id.0 + 1)), ..Default::default() }
    }

    #[test]
    fn builder_wires_a_ring() {
        let mut net: SimNet<Msg, Echo> = SimBuilder::new(SimConfig::default())
            .topology(&Edges::ring(4), PipeConfig::lan())
            .spawn(forwarder(3));
        for i in 0..4u64 {
            assert!(net.has_pipe(PeerId(i), PeerId((i + 1) % 4)));
            assert!(net.has_pipe(PeerId((i + 1) % 4), PeerId(i)), "pipes are bidirectional");
        }
        net.inject(PeerId(99), PeerId(0), Msg(7));
        net.run_until_quiescent();
        assert_eq!(net.stats().delivered, 4, "inject + three forward hops");
        assert_eq!(net.peer(PeerId(3)).unwrap().got, vec![7]);
    }

    #[test]
    fn builder_matches_hand_rolled_construction() {
        let build = |use_builder: bool| {
            let mut net: SimNet<Msg, Echo> = if use_builder {
                SimBuilder::new(SimConfig::default())
                    .topology(&Edges::ring(5), PipeConfig::lan())
                    .spawn(forwarder(4))
            } else {
                let mut net = SimNet::new(SimConfig::default());
                let mut make = forwarder(4);
                for i in 0..5 {
                    net.add_peer(PeerId(i), make(PeerId(i)));
                }
                for i in 0..5 {
                    net.open_pipe(PeerId(i), PeerId((i + 1) % 5), PipeConfig::lan());
                }
                net
            };
            let (tracer, recorded) = codb_trace::Tracer::ring(usize::MAX);
            net.attach_tracer(tracer);
            net.inject(PeerId(99), PeerId(0), Msg(1));
            net.run_until_quiescent();
            let events = recorded.lock().unwrap().events();
            (net.now(), net.stats(), events)
        };
        assert_eq!(build(true), build(false), "builder must not change the schedule");
    }

    #[test]
    fn latency_model_overrides_pipe_latency() {
        let slow = LatencyModel::Fixed(SimTime::from_millis(250));
        let mut net: SimNet<Msg, Echo> = SimBuilder::new(SimConfig::default())
            .topology(&Edges::chain(2), PipeConfig::lan())
            .latency(slow)
            .spawn(forwarder(1));
        net.inject(PeerId(99), PeerId(0), Msg(1));
        let end = net.run_until_quiescent();
        assert!(end >= SimTime::from_millis(250), "model latency applied: {end}");
    }

    #[test]
    fn extra_peers_and_explicit_pipes() {
        let mut net: SimNet<Msg, Echo> = SimBuilder::new(SimConfig::default())
            .topology(&Edges::chain(2), PipeConfig::lan())
            .peers([PeerId(7)])
            .pipe(PeerId(1), PeerId(7), PipeConfig::wan())
            .spawn(|id| Echo {
                forward: match id.0 {
                    0 => Some(PeerId(1)),
                    1 => Some(PeerId(7)),
                    _ => None,
                },
                ..Default::default()
            });
        assert!(net.has_pipe(PeerId(1), PeerId(7)));
        net.inject(PeerId(99), PeerId(0), Msg(2));
        net.run_until_quiescent();
        assert_eq!(net.stats().delivered, 3, "message crosses the explicit pipe too");
        assert_eq!(net.peer(PeerId(7)).unwrap().got, vec![2]);
    }
}
